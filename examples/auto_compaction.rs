//! The self-compacting engine: configure a policy once, write forever.
//!
//! Demonstrates `CompactionPolicy::Threshold` — the engine watches its
//! own live-table count after every flush and, when the threshold is
//! reached, plans a merge schedule with the configured strategy
//! (SmallestOutput with HyperLogLog size estimation here, the paper's
//! `SO(E)` variant) and executes it with parallel merge steps. Compare
//! the strategies' accumulated compaction cost at the end.
//!
//! Run with: `cargo run --release --example auto_compaction`

use nosql_compaction::core::{SizeEstimator, Strategy};
use nosql_compaction::lsm::{CompactionPolicy, Lsm, LsmOptions};
use nosql_compaction::ycsb::{Distribution, OperationKind, WorkloadSpec};

fn run_with(strategy: Strategy) -> Result<(), Box<dyn std::error::Error>> {
    let db = Lsm::open_in_memory(
        LsmOptions::default()
            .memtable_capacity(300)
            .compaction_policy(CompactionPolicy::Threshold { live_tables: 8 })
            .compaction_strategy(strategy)
            .planning_estimator(SizeEstimator::paper_hll())
            .compaction_threads(2)
            .wal(false),
    )?;

    let spec = WorkloadSpec::builder()
        .record_count(1_500)
        .operation_count(12_000)
        .update_percent(60)
        .distribution(Distribution::Latest)
        .seed(7)
        .build()?;
    for op in spec.generator().write_operations() {
        match op.kind {
            OperationKind::Delete => db.delete(op.key)?,
            _ => db.put(op.key, op.key.to_le_bytes().to_vec())?,
        }
    }
    db.flush()?;

    let stats = db.stats();
    println!(
        "{:>8}: {} flushes, {} auto-compactions, cost_actual = {} entries \
         ({} predicted), stalled {:.2} ms, {} live tables",
        strategy.name(),
        stats.flushes,
        stats.auto_compactions,
        stats.compaction_entry_cost(),
        stats.compaction_predicted_cost,
        stats.compaction_stall.as_secs_f64() * 1e3,
        db.live_tables().len(),
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("policy: Threshold {{ live_tables: 8 }}, identical write stream per strategy\n");
    for strategy in [
        Strategy::SmallestOutput,
        Strategy::SmallestInput,
        Strategy::BalanceTreeInput,
        Strategy::Random { seed: 5 },
    ] {
        run_with(strategy)?;
    }
    println!("\nlower cost at equal flush counts = better merge scheduling (Figure 7, live)");
    Ok(())
}
