//! Minimal stand-in for the subset of the `criterion` crate this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a tiny timing harness with a criterion-compatible surface:
//! benchmark groups, `bench_function` / `bench_with_input`,
//! [`BenchmarkId`], [`black_box`] and the `criterion_group!` /
//! `criterion_main!` macros. It measures mean wall-clock time over a
//! fixed iteration budget and prints one line per benchmark — no
//! statistical analysis, HTML reports, or adaptive sampling.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A two-part id: `function_name/parameter`.
    pub fn new(function_name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self {
            id: format!("{function_name}/{parameter}"),
        }
    }

    /// A parameter-only id.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

impl From<&str> for BenchmarkId {
    fn from(id: &str) -> Self {
        Self { id: id.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        Self { id }
    }
}

/// Drives the timed closure of one benchmark.
#[derive(Debug)]
pub struct Bencher {
    iterations: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over this bencher's iteration budget.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iterations {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` over fresh inputs from `setup`; only the routine
    /// is timed.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut elapsed = Duration::ZERO;
        for _ in 0..self.iterations {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            elapsed += start.elapsed();
        }
        self.elapsed = elapsed;
    }
}

/// Batch sizing hints for [`Bencher::iter_batched`] (accepted and
/// ignored: this harness always runs one input per iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// A fresh input for every iteration.
    PerIteration,
}

/// A named collection of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: u64,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed iterations each benchmark runs.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1) as u64;
        self
    }

    /// Accepted for compatibility; this harness uses a fixed iteration
    /// budget instead of a time budget.
    pub fn measurement_time(&mut self, _duration: Duration) -> &mut Self {
        self
    }

    /// Accepted for compatibility; this harness does not warm up.
    pub fn warm_up_time(&mut self, _duration: Duration) -> &mut Self {
        self
    }

    /// Work done by one iteration of the benchmarks that follow; their
    /// reports add the rate per second.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs `routine` as a benchmark named `id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut routine: F,
    ) -> &mut Self {
        let id = id.into();
        let mut bencher = Bencher {
            iterations: self.sample_size,
            elapsed: Duration::ZERO,
        };
        routine(&mut bencher);
        self.report(&id, &bencher);
        self
    }

    /// Runs `routine` with a borrowed input as a benchmark named `id`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut routine: F,
    ) -> &mut Self {
        let id = id.into();
        let mut bencher = Bencher {
            iterations: self.sample_size,
            elapsed: Duration::ZERO,
        };
        routine(&mut bencher, input);
        self.report(&id, &bencher);
        self
    }

    fn report(&mut self, id: &BenchmarkId, bencher: &Bencher) {
        let mean = bencher.elapsed.as_nanos() / u128::from(bencher.iterations.max(1));
        let rate = match self.throughput {
            Some(Throughput::Bytes(n)) => format!(", {:.0} bytes/s", per_second(n, mean)),
            Some(Throughput::Elements(n)) => format!(", {:.0} elements/s", per_second(n, mean)),
            None => String::new(),
        };
        println!(
            "bench {group}/{id}: {mean} ns/iter (n = {n}){rate}",
            group = self.name,
            n = bencher.iterations,
        );
        self.criterion.benchmarks_run += 1;
    }

    /// Ends the group (no-op; provided for API compatibility).
    pub fn finish(&mut self) {}
}

/// `work` units per iteration of `mean_ns` nanoseconds, per second.
fn per_second(work: u64, mean_ns: u128) -> f64 {
    work as f64 * 1e9 / (mean_ns.max(1) as f64)
}

/// Work done per iteration, reported as a rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// The benchmark harness entry point.
#[derive(Debug, Default)]
pub struct Criterion {
    benchmarks_run: u64,
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
            throughput: None,
        }
    }

    /// Runs `routine` as a stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        routine: F,
    ) -> &mut Self {
        let id = id.into();
        self.benchmark_group("default").bench_function(id, routine);
        self
    }

    /// Number of benchmarks executed so far.
    #[must_use]
    pub fn benchmarks_run(&self) -> u64 {
        self.benchmarks_run
    }
}

/// Declares a function running the listed benchmark functions in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_run_and_report() {
        let mut c = Criterion::default();
        {
            let mut group = c.benchmark_group("g");
            group
                .sample_size(3)
                .measurement_time(Duration::from_millis(1));
            group.bench_function("plain", |b| b.iter(|| 1 + 1));
            group.bench_with_input(BenchmarkId::new("with_input", 4), &4u64, |b, &x| {
                b.iter(|| x * 2)
            });
            group.finish();
        }
        assert_eq!(c.benchmarks_run(), 2);
    }

    #[test]
    fn ids_format() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter("p").to_string(), "p");
    }
}
