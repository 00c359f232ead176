//! `kv-benchmark`: six named workloads over the LSM engine and the KV
//! service, file-backed and in memory, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! ```
//!
//! Each workload prints its full record on one line and then, as the last
//! line, `{"correct", "attempted", "failed", "metrics"}`. The process
//! exits non-zero if any read returned a wrong value, any acknowledged
//! key was lost, or any operation failed. See `README.md`.

mod check;
mod compact;
mod engine;
mod gen;
mod measure;
mod report;
mod serve;
mod trace;
mod wire;

use std::io::Write as _;
use std::process::ExitCode;

use report::{Report, RunInfo};

/// One invocation's parameters, as every workload receives them.
#[derive(Debug, Clone)]
pub struct Run {
    pub seed: u64,
    /// Length of the measured window (serving workloads) or the time
    /// budget for repetitions (compaction workloads), in seconds.
    pub seconds: u64,
    /// Also run the stepped, traced pass and write the span file.
    pub traced: bool,
    /// Corrupt the store before the final verification; the run must
    /// then fail. Exists to show the oracle is wired to the exit code.
    pub sabotage: bool,
}

pub struct Workload {
    pub name: &'static str,
    /// Listed in `BENCHMARK.json`, so the driver runs it and holds later
    /// changes to its numbers. `disk-write` is not: the sandbox's virtual
    /// disk changes speed by a fifth to a half for half a minute at a time
    /// (a bare write + fsync + rename loop shows the same), which is more
    /// than the largest bound a metric may have.
    pub gated: bool,
    pub run: fn(&Run) -> Report,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "disk-write",
        gated: false,
        run: serve::disk_write,
    },
    Workload {
        name: "mem-write",
        gated: true,
        run: serve::mem_write,
    },
    Workload {
        name: "mem-read-cold",
        gated: true,
        run: serve::mem_read_cold,
    },
    Workload {
        name: "wire-hot",
        gated: true,
        run: wire::wire_hot,
    },
    Workload {
        name: "compact-bt",
        gated: true,
        run: compact::compact_bt,
    },
    Workload {
        name: "compact-soe",
        gated: true,
        run: compact::compact_soe,
    },
];

const USAGE: &str = "usage: kv-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--out FILE] [--sabotage]";

struct Args {
    workload: Option<String>,
    run: Run,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        run: Run {
            seed: 1,
            seconds: 10,
            traced: false,
            sabotage: false,
        },
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.run.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.run.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.run.seconds) {
                    return Err("--seconds must be 1 to 60".to_owned());
                }
            }
            "--out" => parsed.out = Some(value("a file")?),
            "--sabotage" => parsed.run.sabotage = true,
            "--trace" => {
                parsed.run.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// The short hash of the checkout, or `unknown` outside a git work tree.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let chosen: Vec<&Workload> = match &args.workload {
        None => WORKLOADS.iter().collect(),
        Some(name) => match WORKLOADS.iter().find(|w| w.name == name) {
            Some(workload) => vec![workload],
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("unknown workload {name}; one of {}", names.join(", "));
                return ExitCode::from(2);
            }
        },
    };
    let info = RunInfo {
        seed: args.run.seed,
        seconds: args.run.seconds,
        traced: args.run.traced,
        commit: git_commit(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut all_correct = true;
    for workload in chosen {
        let report = (workload.run)(&args.run);
        all_correct &= report.correct();
        let detail = report.detail_line(&info);
        if let Some(path) = &args.out {
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut file| writeln!(file, "{detail}"));
            if let Err(e) = appended {
                eprintln!("cannot append to {path}: {e}");
                return ExitCode::from(2);
            }
        }
        println!("{detail}");
        println!("{}", report.contract_line(args.run.traced));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: the oracle saw wrong or missing values, or operations failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "wire-hot",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("wire-hot"));
        assert_eq!((a.run.seed, a.run.seconds, a.run.traced), (7, 3, false));
        assert!(args(&["--trace", "1"]).unwrap().run.traced);
        assert!(args(&["--trace"]).unwrap().run.traced);
        assert!(args(&["--trace", "--seed", "2"]).unwrap().run.traced);
        assert_eq!(args(&[]).unwrap().run.seed, 1);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    #[test]
    fn workload_names_are_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }
}
