//! Regenerates the churn-soak report: a fixed working set overwritten
//! cycle after cycle while scratch keys are created and deleted, with
//! background maintenance and tombstone GC running, sampling live-blob
//! bytes (space amplification) and recovery work (WAL segments scanned,
//! records replayed; reopen time beside them) every few cycles. A
//! healthy storage lifecycle shows the series flat; a leak in
//! tombstone GC, checkpoint sweeping or WAL retirement climbs.
//!
//! Ungated: `benchmark/` has no churn workload yet. CI runs `--quick`
//! for its exit code only (the harness panics on a lost or resurrected
//! key).
//!
//! Run with:
//! `cargo run --release -p compaction-bench --bin churn -- [--quick] [--csv]`

use compaction_sim::report::{churn_csv, churn_table};
use compaction_sim::ChurnConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");

    let config = if quick {
        ChurnConfig::quick()
    } else {
        ChurnConfig::default_soak()
    };
    eprintln!(
        "churn: {} cycles (sample every {}), {} live keys, \
         {} overwrites + {} churned keys per cycle, memtable {}, \
         trigger {} tables, gc threshold {}",
        config.cycles,
        config.sample_every,
        config.live_keys,
        config.overwrites_per_cycle,
        config.churn_keys_per_cycle,
        config.memtable_capacity,
        config.trigger_tables,
        config.gc_min_tombstones,
    );
    let rows = config.run();
    if csv {
        print!("{}", churn_csv(&rows));
    } else {
        print!("{}", churn_table(&rows));
    }
}
