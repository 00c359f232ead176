//! Integration tests asserting the paper's qualitative claims end-to-end
//! on scaled-down versions of the evaluation's experiments. Every config
//! here is one that `cargo run --release -p compaction-bench --bin tables
//! -- --quick` prints; without `--quick` it prints the paper-size runs.

use nosql_compaction::core::{schedule_with, Strategy};
use nosql_compaction::sim::{
    Fig7Config, Fig8Config, Fig9Config, Fig9Sweep, LiveEngineConfig, SstableGenerator,
};
use nosql_compaction::ycsb::WorkloadSpec;

/// Section 5.2 / Figure 7a: compaction cost decreases with the update
/// percentage for every strategy, and RANDOM is the worst strategy at low
/// update percentages while converging toward the others at 100%.
#[test]
fn figure7_cost_trends() {
    let config = Fig7Config::quick();
    let rows = config.run();
    assert_eq!(
        rows.len(),
        config.update_percents.len() * config.strategies.len()
    );

    for &strategy in &config.strategies {
        let series: Vec<f64> = config
            .update_percents
            .iter()
            .map(|&pct| {
                rows.iter()
                    .find(|r| r.update_percent == pct && r.strategy == strategy)
                    .unwrap()
                    .cost
                    .mean
            })
            .collect();
        assert!(
            series.first().unwrap() > series.last().unwrap(),
            "{strategy}: cost should decrease from insert-heavy to update-heavy ({series:?})"
        );
    }

    let cost_of = |pct: u32, pred: &dyn Fn(Strategy) -> bool| {
        rows.iter()
            .find(|r| r.update_percent == pct && pred(r.strategy))
            .unwrap()
            .cost
            .mean
    };
    let random_low = cost_of(0, &|s| matches!(s, Strategy::Random { .. }));
    for &strategy in &config.strategies {
        let low = cost_of(0, &|s| s == strategy);
        assert!(
            random_low >= low * 0.999,
            "RANDOM ({random_low}) must be worst at 0% updates ({strategy} {low})"
        );
    }

    // At 100% updates all strategies are within a modest factor of each
    // other (the merge cost becomes shape-independent, Section 5.2).
    let at_100: Vec<f64> = rows
        .iter()
        .filter(|r| r.update_percent == 100)
        .map(|r| r.cost.mean)
        .collect();
    let min = at_100.iter().copied().fold(f64::INFINITY, f64::min);
    let max = at_100.iter().copied().fold(0.0f64, f64::max);
    assert!(
        max / min < 1.6,
        "strategies should converge at 100% updates (spread {min}..{max})"
    );
}

/// Figure 7b, stated without a clock: the parallel BT(I) implementation
/// is competitive with single-threaded SI on insert-heavy workloads
/// (where there is real merge work to parallelize) because its *critical
/// path* — one merge per dependency wave, the most expensive of the
/// wave, every other merge of the wave running beside it — moves no more
/// entries than SI moves serially, while the two schedules' total cost
/// nearly coincides. Wall-clock for the same claim is `tables 7`'s
/// `time_ms` column.
#[test]
fn figure7_time_bt_parallel_is_competitive() {
    let config = Fig7Config::quick();
    for run in 0..config.runs as u64 {
        let spec = WorkloadSpec::builder()
            .record_count(config.record_count)
            .operation_count(config.operation_count)
            .update_percent(0)
            .distribution(config.distribution)
            .seed(config.seed + run)
            .build()
            .expect("valid spec");
        let sstables = SstableGenerator::new(config.memtable_size).generate(&spec);
        let si = schedule_with(Strategy::SmallestInput, &sstables, config.fanin).unwrap();
        let bt = schedule_with(Strategy::BalanceTreeInput, &sstables, config.fanin).unwrap();

        // Cost parity (the paper observes SI and BT(I) nearly coincide).
        let si_cost = si.cost_actual(&sstables) as f64;
        let bt_cost = bt.cost_actual(&sstables) as f64;
        assert!(
            (bt_cost - si_cost).abs() / si_cost < 0.25,
            "BT(I) cost {bt_cost} too far from SI cost {si_cost}"
        );

        // Entries one merge reads and writes: its inputs plus its output.
        let outputs = bt.outputs(&sstables);
        let n = bt.n_initial();
        let slot_len = |slot: usize| match slot.checked_sub(n) {
            None => sstables[slot].len(),
            Some(op) => outputs[op].len(),
        };
        let merge_cost = |op: usize| {
            let inputs: usize = bt.ops()[op].inputs.iter().map(|&s| slot_len(s)).sum();
            (inputs + outputs[op].len()) as f64
        };
        let waves = bt.dependency_waves();
        assert!(
            waves.len() < bt.len(),
            "BT(I) over {n} tables must have parallel waves"
        );
        let critical_path: f64 = waves
            .iter()
            .map(|wave| wave.iter().map(|&op| merge_cost(op)).fold(0.0, f64::max))
            .sum();
        assert!(
            critical_path <= si_cost,
            "BT(I)'s wave critical path ({critical_path} entries) exceeds SI's serial cost \
             ({si_cost} entries)"
        );
    }
}

/// Figure 8: BT(I)'s cost tracks the lower-bounded optimum within a
/// constant factor across memtable sizes, i.e. the two curves have the
/// same slope in log-log space.
#[test]
fn figure8_constant_factor_from_lower_bound() {
    let rows = Fig8Config::quick().run();
    assert!(rows.len() >= 3);
    for row in &rows {
        // The worst case against LOPT is the 2·(⌈log₂ n⌉ + 1) factor of
        // cost_actual over disjoint sstables (the Lemma 4.5 regime).
        let ceiling = 2.0 * ((row.n_sstables.max(2) as f64).log2().ceil() + 1.0);
        assert!(
            row.ratio() <= ceiling,
            "memtable {}: BT(I) ratio {} exceeds the analytic ceiling {ceiling}",
            row.memtable_size,
            row.ratio()
        );
    }
    let ratios: Vec<f64> = rows.iter().map(|r| r.ratio()).collect();
    let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().copied().fold(0.0f64, f64::max);
    assert!(min >= 1.0, "cost cannot beat the lower bound");
    assert!(
        max / min < 3.0,
        "the cost/LOPT ratio should stay roughly constant across the sweep: {ratios:?}"
    );

    // Log-log slope similarity: cost and LOPT grow by similar factors
    // between the smallest and largest memtable size.
    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    assert!(
        last.cost.mean > first.cost.mean,
        "cost must grow with the memtable size (more data, more I/O)"
    );
    let cost_growth = last.cost.mean / first.cost.mean;
    let lopt_growth = last.lopt.mean / first.lopt.mean;
    assert!(
        (cost_growth / lopt_growth) < 3.0 && (lopt_growth / cost_growth) < 3.0,
        "cost growth {cost_growth} and LOPT growth {lopt_growth} should be similar"
    );
}

/// Figure 9: the cost function orders the sweeps' endpoints the way the
/// work does — `cost_actual` (entries read and written; the simulator's
/// keys are fixed-width, so also bytes moved) falls as the workload turns
/// update-heavy (9a) and grows with the operation count (9b). That the
/// same ordering holds for wall-clock time is `tables 9`'s `time_ms`
/// column to show; no clock is read here.
#[test]
fn figure9_cost_predicts_time() {
    for sweep in [Fig9Sweep::UpdatePercent, Fig9Sweep::OperationCount] {
        let mut config = Fig9Config::quick(sweep);
        config.operation_counts = vec![2_000, 20_000];
        config.update_percents = vec![0, 100];
        let rows = config.run();
        // One row per (distribution, x) of the swept knob, tagged with
        // its sweep; the quick config has one distribution.
        let xs = match sweep {
            Fig9Sweep::UpdatePercent => [0, 100],
            Fig9Sweep::OperationCount => [2_000, 20_000],
        };
        let shape: Vec<(Fig9Sweep, u64)> = rows.iter().map(|r| (r.sweep, r.x)).collect();
        assert_eq!(shape, [(sweep, xs[0]), (sweep, xs[1])]);
        let (low, high) = match sweep {
            // All inserts keep every key distinct: the most to merge.
            Fig9Sweep::UpdatePercent => (&rows[1], &rows[0]),
            Fig9Sweep::OperationCount => (&rows[0], &rows[1]),
        };
        assert!(
            low.cost.mean < high.cost.mean,
            "{sweep:?}: x = {} must cost less ({}) than x = {} ({})",
            low.x,
            low.cost.mean,
            high.x,
            high.cost.mean
        );
    }
}

/// Figure 7 on the real store: one YCSB write stream through the
/// self-compacting engine per strategy of the paper's lineup. The
/// stream fixes the flush sequence, so rows differ only in merge
/// scheduling; exact observations make the planner's prediction equal
/// the entries the engine physically moved; and the paper's ordering
/// holds on those entries.
#[test]
fn figure7_ordering_is_exact_on_the_live_engine() {
    let config = LiveEngineConfig::quick();
    assert_eq!(config.strategies, Strategy::paper_lineup(7));
    let rows = config.run();
    assert_eq!(rows.len(), config.strategies.len());
    let first = &rows[0];
    for row in &rows {
        let name = row.strategy;
        assert_eq!(
            (row.flushes, row.auto_compactions),
            (first.flushes, first.auto_compactions),
            "{name}: identical stream ⇒ identical flushes and compactions"
        );
        assert_eq!(row.final_tables, 1, "{name}");
        assert!(row.cost_actual > 0, "{name}");
        assert_eq!(
            row.cost_actual, row.predicted_cost,
            "{name}: prediction must be exact"
        );
    }
    let cost = |strategy: Strategy| {
        rows.iter()
            .find(|r| r.strategy == strategy)
            .unwrap()
            .cost_actual
    };
    for greedy in [
        Strategy::SmallestInput,
        Strategy::SmallestOutputHll { precision: 14 },
    ] {
        for bt in [Strategy::BalanceTreeInput, Strategy::BalanceTreeOutput] {
            assert!(
                cost(greedy) <= cost(bt),
                "{greedy} ({}) > {bt} ({})",
                cost(greedy),
                cost(bt)
            );
        }
    }
    let random = rows
        .iter()
        .find(|r| matches!(r.strategy, Strategy::Random { .. }))
        .unwrap();
    for row in &rows {
        assert!(
            row.cost_actual <= random.cost_actual,
            "{} ({}) costs more than RANDOM ({})",
            row.strategy,
            row.cost_actual,
            random.cost_actual
        );
    }
}
