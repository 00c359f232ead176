//! Regenerates the open-loop (offered-load) serving report: a
//! closed-loop baseline cell, an unthrottled pipelined-capacity cell,
//! then fixed offered rates at multiples of the measured capacity,
//! reporting offered vs achieved throughput, p50/p99/p999 and shed
//! counts (client window sheds + server `BUSY`s). The sweep runs twice
//! — `inline` maintenance, then `background` at the *same* offered
//! rates — so the shed and tail columns compare cell for cell.
//!
//! Ungated: this is the one serving question `benchmark/` leaves to the
//! simulator crate. CI runs `--quick` for its exit code only.
//!
//! Run with:
//! `cargo run --release -p compaction-bench --bin open_loop -- [--quick] [--csv]`

use compaction_sim::report::{open_loop_csv, open_loop_table};
use compaction_sim::OpenLoopConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");

    let config = if quick {
        OpenLoopConfig::quick()
    } else {
        OpenLoopConfig::default_paper()
    };
    eprintln!(
        "open-loop: {} ops/cell ({}% reads, {}% of the rest updates), \
         {} shards, {} connections, window {}, stall budget {:?}, \
         multipliers {:?}",
        config.operation_count,
        config.read_percent,
        config.update_percent,
        config.shards,
        config.connections,
        config.window,
        config.stall_budget,
        config.offered_multipliers,
    );
    // Inline first (measuring its pipelined capacity), then the
    // background engine at the same offered rates.
    let (mut rows, capacity) = config.run_with_pinned_capacity(None);
    let mut bg_config = config.clone();
    bg_config.background = true;
    eprintln!("open-loop: re-running cells with background maintenance");
    let (bg_rows, _) = bg_config.run_with_pinned_capacity(Some(capacity));
    rows.extend(bg_rows);
    if csv {
        print!("{}", open_loop_csv(&rows));
    } else {
        print!("{}", open_loop_table(&rows));
    }
}
