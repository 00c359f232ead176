//! Regenerates the bulk-expiry report: the same TTL-style prefix expiry
//! run twice — once as a per-key tombstone storm, once as a single
//! `delete_range` record — then flushed, compacted and GC'd to a
//! settled state. The rows contrast records written, expiry wall-time,
//! reclaimed disk footprint and the survivor-scan rate; the harness
//! itself asserts the settled footprint shrinks in both modes.
//!
//! Run with:
//! `cargo run --release --bin range_delete [--quick] [--csv] [--json PATH]`

use compaction_sim::report::{bulk_expiry_csv, bulk_expiry_json, bulk_expiry_table};
use compaction_sim::BulkExpiryConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let config = if quick {
        BulkExpiryConfig::quick()
    } else {
        BulkExpiryConfig::default_run()
    };
    eprintln!(
        "range_delete: {} keys, expiring prefix of {}, {}-byte values, \
         memtable {}, trigger {} tables",
        config.keys,
        config.expired,
        config.value_bytes,
        config.memtable_capacity,
        config.trigger_tables,
    );
    let rows = config.run();
    if csv {
        print!("{}", bulk_expiry_csv(&rows));
    } else {
        print!("{}", bulk_expiry_table(&rows));
    }
    if let Some(path) = json_path {
        std::fs::write(&path, bulk_expiry_json(&rows))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
