//! Prints every number of the paper's evaluation, one section each:
//! `7`, `8` and `9` are Figures 7–9 on the simulator, `live` is Figure 7
//! on the real self-compacting engine (measured cost beside the planner's
//! prediction), and `theory` is Section 4 (the working example, the
//! tightness instances, heuristics vs the exhaustive optimum, and
//! K-WAYMERGING's cost vs the fan-in `k`). `time_ms` is the harness's own
//! scheduling-plus-merge clock, mean ± sd over the seeded runs: what
//! Figures 7b and 9 plot. `--quick` runs the configs `paper_claims.rs`
//! asserts on.
//!
//! Usage: `cargo run --release -p compaction-bench --bin tables --
//! [7|8|9|live|theory] [--quick]` (no section prints all five).

use compaction_core::bounds::{self, adversarial};
use compaction_core::optimal::{left_to_right_schedule, optimal_schedule};
use compaction_core::{schedule_with, KeySet, Strategy};
use compaction_sim::report::{fig7_table, fig8_table, fig9_table, live_engine_table};
use compaction_sim::{
    Fig7Config, Fig8Config, Fig9Config, Fig9Sweep, LiveEngineConfig, SstableGenerator,
};
use ycsb_gen::{Distribution, WorkloadSpec};

/// A section's command-line name and its printer, given `--quick`.
type Section = (&'static str, fn(bool));

const SECTIONS: [Section; 5] = [
    ("7", figure7),
    ("8", figure8),
    ("9", figure9),
    ("live", live),
    ("theory", theory),
];

fn main() {
    let mut quick = false;
    let mut section = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            name if section.is_none() && SECTIONS.iter().any(|(s, _)| *s == name) => {
                section = Some(arg);
            }
            _ => {
                eprintln!("usage: tables [7|8|9|live|theory] [--quick]");
                std::process::exit(2);
            }
        }
    }
    for (name, print) in SECTIONS {
        if section.as_deref().is_none_or(|s| s == name) {
            print(quick);
        }
    }
}

fn figure7(quick: bool) {
    let config = if quick {
        Fig7Config::quick()
    } else {
        Fig7Config::default_paper()
    };
    let (dist, runs) = (config.distribution, config.runs);
    println!("# Figure 7a/7b — cost and time vs update % ({dist} distribution, {runs} runs)");
    println!("{}", fig7_table(&config.run()));
}

fn figure8(quick: bool) {
    let config = if quick {
        Fig8Config::quick()
    } else {
        Fig8Config::default_paper()
    };
    let runs = config.runs;
    println!("# Figure 8 — BT(I) cost vs the LOPT lower bound ({runs} runs; log-log in the paper)");
    println!("{}", fig8_table(&config.run()));
}

fn figure9(quick: bool) {
    let configs = if quick {
        [
            Fig9Config::quick(Fig9Sweep::UpdatePercent),
            Fig9Config::quick(Fig9Sweep::OperationCount),
        ]
    } else {
        [
            Fig9Config::default_paper_update_sweep(),
            Fig9Config::default_paper_operation_sweep(),
        ]
    };
    for (config, title) in configs.iter().zip([
        "9a — cost vs time, increasing update percentage",
        "9b — cost vs time, increasing operationcount",
    ]) {
        println!("# Figure {title} (SI, {} runs)", config.runs);
        println!("{}", fig9_table(&config.run()));
    }
}

fn live(quick: bool) {
    let config = if quick {
        LiveEngineConfig::quick()
    } else {
        LiveEngineConfig::default_paper()
    };
    let (ops, pct) = (config.operation_count, config.update_percent);
    let (mem, trig) = (config.memtable_capacity, config.trigger_tables);
    println!("# Figure 7, live engine — {ops} ops, {pct}% updates, memtable {mem}, trigger {trig}");
    println!("{}", live_engine_table(&config.run()));
}

fn all_strategies() -> Vec<Strategy> {
    vec![
        Strategy::BalanceTree,
        Strategy::BalanceTreeInput,
        Strategy::BalanceTreeOutput,
        Strategy::SmallestInput,
        Strategy::SmallestOutput,
        Strategy::SmallestOutputHll { precision: 14 },
        Strategy::LargestMatch,
        Strategy::Random { seed: 42 },
        Strategy::Frequency,
    ]
}

/// `strategy`'s simplified cost (eq. 2.1) over `sets` at fan-in 2.
fn cost(strategy: Strategy, sets: &[KeySet]) -> u64 {
    schedule_with(strategy, sets, 2).expect("valid").cost(sets)
}

fn theory(_quick: bool) {
    println!("# Working example (Section 4.3, Figures 4-6)");
    let sets = vec![
        KeySet::from_iter([1u64, 2, 3, 5]),
        KeySet::from_iter([1u64, 2, 3, 4]),
        KeySet::from_iter([3u64, 4, 5]),
        KeySet::from_iter([6u64, 7, 8]),
        KeySet::from_iter([7u64, 8, 9]),
    ];
    let opt = optimal_schedule(&sets, 2).expect("small instance");
    let (opt_cost, opt_actual) = (opt.cost(&sets), opt.cost_actual(&sets));
    println!("  strategy    cost   cost_actual    vs OPT");
    for strategy in all_strategies() {
        let schedule = schedule_with(strategy, &sets, 2).expect("valid");
        let (cost, actual) = (schedule.cost(&sets), schedule.cost_actual(&sets));
        let (name, ratio) = (strategy.name(), cost as f64 / opt_cost as f64);
        println!("{name:>10}  {cost:>6}  {actual:>12}  {ratio:>8.3}");
    }
    println!("       OPT  {opt_cost:>6}  {opt_actual:>12}     1.000\n");

    println!("# Lemma 4.2 — BALANCETREE tight instance (n-1 singletons + one n-set)");
    println!("     n  BT(I) cost   left-to-right     ratio");
    for n in [8usize, 16, 32, 64] {
        let sets = adversarial::balance_tree_tight(n);
        let bt = cost(Strategy::BalanceTreeInput, &sets);
        let l2r = left_to_right_schedule(n, 2).expect("valid").cost(&sets);
        let ratio = bt as f64 / l2r as f64;
        println!("{n:>6}  {bt:>10}  {l2r:>14}  {ratio:>8.3}");
    }

    println!("\n# Lemma 4.5 — SI/SO vs LOPT on n disjoint singletons (ratio = log2 n + 1)");
    println!("     n     SI cost      LOPT     ratio");
    for n in [8usize, 16, 32, 64, 128] {
        let sets = adversarial::greedy_lopt_tight(n);
        let si = cost(Strategy::SmallestInput, &sets);
        let lopt = bounds::lopt_lower_bound(&sets);
        let ratio = si as f64 / lopt as f64;
        println!("{n:>6}  {si:>10}  {lopt:>8}  {ratio:>8.3}");
    }

    println!("\n# LARGESTMATCH Omega(n) gap (nested prefix sets)");
    println!("     n       LM cost   left-to-right     ratio");
    for n in [6usize, 8, 10, 12] {
        let sets = adversarial::largest_match_gap(n);
        let lm = cost(Strategy::LargestMatch, &sets);
        let l2r = left_to_right_schedule(n, 2).expect("valid").cost(&sets);
        let ratio = lm as f64 / l2r as f64;
        println!("{n:>6}  {lm:>12}  {l2r:>14}  {ratio:>8.3}");
    }

    println!("\n# Heuristics vs exhaustive optimum on random overlapping instances (n = 8)");
    println!("  strategy   mean cost/OPT");
    let mut totals: Vec<(Strategy, f64)> = all_strategies().iter().map(|&s| (s, 0.0)).collect();
    let trials = 20u64;
    for seed in 0..trials {
        let sets: Vec<KeySet> = (0..8u64)
            .map(|i| {
                let start = (seed * 131 + i * 17) % 50;
                KeySet::from_range(start..start + 10 + (i * 3) % 20)
            })
            .collect();
        let opt_cost = optimal_schedule(&sets, 2).expect("small").cost(&sets) as f64;
        for (strategy, total) in &mut totals {
            *total += cost(*strategy, &sets) as f64 / opt_cost;
        }
    }
    for (strategy, total) in totals {
        println!("{:>10}  {:>14.4}", strategy.name(), total / trials as f64);
    }

    println!("\n# K-WAYMERGING — cost vs fan-in k (Section 2; YCSB latest, 40% updates)");
    let spec = WorkloadSpec::builder()
        .record_count(1_000)
        .operation_count(20_000)
        .update_percent(40)
        .distribution(Distribution::Latest)
        .seed(11)
        .build()
        .expect("valid workload");
    let sets = SstableGenerator::new(400).generate(&spec);
    let lopt = bounds::lopt_lower_bound(&sets);
    println!("{} sstables, LOPT = {lopt}", sets.len());
    println!("   k    strategy  merges   cost_actual  cost/LOPT  height");
    for k in [2usize, 3, 4, 8] {
        for strategy in [Strategy::SmallestInput, Strategy::BalanceTreeInput] {
            let schedule = schedule_with(strategy, &sets, k).expect("valid");
            let (name, merges) = (strategy.name(), schedule.len());
            let (cost, height) = (schedule.cost_actual(&sets), schedule.to_tree().height());
            let ratio = cost as f64 / lopt as f64;
            println!("{k:>4}  {name:>10}  {merges:>6}  {cost:>12}  {ratio:>9.3}  {height:>6}");
        }
    }
}
