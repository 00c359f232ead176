//! Regenerates the read-path report: point-read throughput and
//! bytes-read-per-get over a multi-table store, in two phases —
//!
//! * **cold** — the lazy reader with empty caches: footer + tail per
//!   table open, at most one data block per probe;
//! * **warm** — the same keys again: served from the table and block
//!   caches, zero storage reads.
//!
//! Run with:
//! `cargo run --release --bin read_path [--quick] [--check] [--csv] [--json PATH]`
//!
//! `--check` exits non-zero unless a cold get reads at most a tenth of
//! one average table blob — the floor any reader that loads whole tables
//! pays for a single probe.

use std::sync::Arc;
use std::time::Instant;

use lsm_engine::{Lsm, LsmOptions, MemoryStorage, Storage};

struct Config {
    records: u64,
    memtable_capacity: usize,
    block_size: usize,
    value_len: usize,
    sample_gets: u64,
}

impl Config {
    fn default_paper() -> Self {
        Self {
            records: 20_000,
            memtable_capacity: 1_000,
            block_size: 4 * 1024,
            value_len: 100,
            sample_gets: 2_000,
        }
    }

    fn quick() -> Self {
        Self {
            records: 4_000,
            memtable_capacity: 400,
            block_size: 1024,
            value_len: 64,
            sample_gets: 500,
        }
    }
}

struct PhaseResult {
    name: &'static str,
    bytes_per_get: f64,
    ops_per_sec: f64,
    tables_probed: u64,
}

fn value_for(key: u64, len: usize) -> Vec<u8> {
    let mut v = key.to_le_bytes().to_vec();
    v.resize(len, b'v');
    v
}

/// Deterministic pseudo-uniform key sample (no RNG dependency).
fn sample_keys(records: u64, n: u64) -> Vec<u64> {
    (0..n)
        .map(|i| (i.wrapping_mul(7919) + 13) % records)
        .collect()
}

fn build_store(config: &Config) -> (Arc<MemoryStorage>, Lsm) {
    let storage = Arc::new(MemoryStorage::new());
    let db = Lsm::open(
        storage.clone() as Arc<dyn Storage>,
        LsmOptions::default()
            .memtable_capacity(config.memtable_capacity)
            .block_size(config.block_size)
            .wal(false),
    )
    .expect("in-memory open cannot fail");
    for key in 0..config.records {
        db.put(key, value_for(key, config.value_len)).expect("put");
    }
    db.flush().expect("flush");
    assert_eq!(db.memtable_len(), 0, "reads must hit sstables only");
    (storage, db)
}

fn run_lazy(config: &Config) -> (PhaseResult, PhaseResult, Lsm) {
    let (storage, db) = build_store(config);
    let keys = sample_keys(config.records, config.sample_gets);

    let cold = {
        let bytes_before = storage.bytes_read();
        let stats_before = db.stats();
        let started = Instant::now();
        for &key in &keys {
            assert!(db.get(key).expect("get").is_some(), "key {key}");
        }
        let elapsed = started.elapsed();
        PhaseResult {
            name: "cold",
            bytes_per_get: (storage.bytes_read() - bytes_before) as f64 / keys.len() as f64,
            ops_per_sec: keys.len() as f64 / elapsed.as_secs_f64().max(1e-9),
            tables_probed: db.stats().tables_probed - stats_before.tables_probed,
        }
    };

    let warm = {
        let bytes_before = storage.bytes_read();
        let stats_before = db.stats();
        let started = Instant::now();
        for &key in &keys {
            assert!(db.get(key).expect("get").is_some(), "key {key}");
        }
        let elapsed = started.elapsed();
        PhaseResult {
            name: "warm",
            bytes_per_get: (storage.bytes_read() - bytes_before) as f64 / keys.len() as f64,
            ops_per_sec: keys.len() as f64 / elapsed.as_secs_f64().max(1e-9),
            tables_probed: db.stats().tables_probed - stats_before.tables_probed,
        }
    };
    (cold, warm, db)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let csv = args.iter().any(|a| a == "--csv");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let config = if quick {
        Config::quick()
    } else {
        Config::default_paper()
    };
    eprintln!(
        "read-path: {} records, memtable {}, block {} B, {} sampled gets per phase",
        config.records, config.memtable_capacity, config.block_size, config.sample_gets
    );

    let (cold, warm, db) = run_lazy(&config);
    let tables = db.live_tables();
    let n_tables = tables.len();
    let total_table_bytes: u64 = tables.iter().map(|t| t.encoded_len).sum();
    let stats = db.stats();
    let block_lookups = stats.block_cache_hits + stats.block_cache_misses;
    let hit_rate = if block_lookups == 0 {
        0.0
    } else {
        stats.block_cache_hits as f64 / block_lookups as f64
    };

    // Stored (compressed) vs logical (decoded) data-block bytes across
    // both lazy phases: the realized per-block compression ratio.
    let compression_ratio = if stats.data_block_read_bytes == 0 {
        1.0
    } else {
        stats.data_block_logical_bytes as f64 / stats.data_block_read_bytes as f64
    };

    if csv {
        println!("phase,bytes_per_get,ops_per_sec,tables_probed");
        for phase in [&cold, &warm] {
            println!(
                "{},{:.1},{:.0},{}",
                phase.name, phase.bytes_per_get, phase.ops_per_sec, phase.tables_probed
            );
        }
    } else {
        println!(
            "store: {} tables, {} total table bytes\n",
            n_tables, total_table_bytes
        );
        println!(
            "{:>8}  {:>14}  {:>12}  {:>13}",
            "phase", "bytes/get", "ops/s", "tables_probed"
        );
        for phase in [&cold, &warm] {
            println!(
                "{:>8}  {:>14.1}  {:>12.0}  {:>13}",
                phase.name, phase.bytes_per_get, phase.ops_per_sec, phase.tables_probed
            );
        }
        println!(
            "\nblock cache: {:.1}% hit rate ({} hits / {} lookups); \
             bloom-negative probes: {}; data blocks fetched: {}",
            hit_rate * 100.0,
            stats.block_cache_hits,
            block_lookups,
            stats.bloom_negative_probes,
            stats.data_block_reads,
        );
        println!(
            "compression: {} stored block bytes decoded to {} logical \
             ({:.2}x); gets paid for stored bytes, the cache is charged \
             for logical",
            stats.data_block_read_bytes, stats.data_block_logical_bytes, compression_ratio,
        );
    }

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"records\": {},\n  \"tables\": {},\n  \"total_table_bytes\": {},\n  \
             \"gets_per_phase\": {},\n  \
             \"cold_bytes_per_get\": {:.1},\n  \"warm_bytes_per_get\": {:.1},\n  \
             \"cold_ops_per_sec\": {:.0},\n  \
             \"warm_ops_per_sec\": {:.0},\n  \"block_cache_hit_rate\": {:.4},\n  \
             \"bloom_negative_probes\": {},\n  \"data_block_reads\": {},\n  \
             \"block_bytes_stored\": {},\n  \"block_bytes_logical\": {},\n  \
             \"block_compression_ratio\": {:.2}\n}}\n",
            config.records,
            n_tables,
            total_table_bytes,
            config.sample_gets,
            cold.bytes_per_get,
            warm.bytes_per_get,
            cold.ops_per_sec,
            warm.ops_per_sec,
            hit_rate,
            stats.bloom_negative_probes,
            stats.data_block_reads,
            stats.data_block_read_bytes,
            stats.data_block_logical_bytes,
            compression_ratio,
        );
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("wrote {path}");
    }

    if check {
        let bar = total_table_bytes as f64 / n_tables as f64 / 10.0;
        assert!(
            cold.bytes_per_get <= bar,
            "acceptance: a cold get read {:.1} bytes, more than a tenth of the average \
             table blob ({bar:.1})",
            cold.bytes_per_get
        );
        eprintln!(
            "check passed: a cold get reads {:.1} bytes, the bar is {bar:.1}",
            cold.bytes_per_get
        );
    }
}
