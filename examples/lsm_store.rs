//! End-to-end use of the LSM storage engine substrate: load a workload,
//! flush runs, then let the engine plan and execute its own major
//! compaction with a strategy from the scheduling library — no manual
//! `CompactionStep` construction.
//!
//! Run with: `cargo run --release --example lsm_store`

use nosql_compaction::core::Strategy;
use nosql_compaction::lsm::{Lsm, LsmOptions};
use nosql_compaction::ycsb::{Distribution, OperationKind, WorkloadSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. An LSM store whose memtable flushes every 500 distinct keys.
    //    The default policy is Manual: nothing compacts until we ask.
    let db = Lsm::open_in_memory(
        LsmOptions::default()
            .memtable_capacity(500)
            .compaction_strategy(Strategy::BalanceTreeInput)
            .compaction_threads(2)
            .wal(false),
    )?;

    // 2. Feed it a YCSB-style update-heavy workload.
    let spec = WorkloadSpec::builder()
        .record_count(2_000)
        .operation_count(10_000)
        .update_percent(70)
        .distribution(Distribution::zipfian_default())
        .seed(3)
        .build()?;
    for op in spec.generator().write_operations() {
        match op.kind {
            OperationKind::Delete => db.delete(op.key)?,
            _ => db.put(op.key, format!("value-of-{}", op.key).into_bytes())?,
        }
    }
    db.flush()?;
    println!(
        "after the workload: {} live sstables, {} flushes, {} puts",
        db.live_tables().len(),
        db.stats().flushes,
        db.stats().puts
    );

    // 3. One call: the engine observes its live tables, plans a merge
    //    schedule with the paper's recommended BT(I) strategy, and
    //    executes it (independent merges of each level in parallel).
    let run = db.auto_compact()?.expect("several tables to compact");
    println!(
        "planned {} merges with {} ({} waves), predicted cost_actual = {} entries",
        run.plan.steps().len(),
        run.plan.strategy(),
        run.plan.waves().len(),
        run.plan.predicted_cost_actual(),
    );
    println!(
        "executed: {} entries read, {} written, {} bytes of I/O, {:.2} ms",
        run.outcome.entries_read,
        run.outcome.entries_written,
        run.outcome.byte_cost(),
        run.stall.as_secs_f64() * 1e3,
    );
    println!("live sstables after compaction: {}", db.live_tables().len());

    // 4. Verify: every key written and not deleted is still readable.
    let mut verified = 0u64;
    for key in 0u64..2_000 {
        if db.get(key)?.is_some() {
            verified += 1;
        }
    }
    println!("{verified} of the 2000 loaded keys are readable after compaction");
    assert_eq!(
        db.live_tables().len(),
        1,
        "major compaction leaves one sstable"
    );
    assert_eq!(
        run.outcome.entry_cost(),
        run.plan.predicted_cost_actual(),
        "the planner's model matches the physical engine exactly"
    );
    Ok(())
}
