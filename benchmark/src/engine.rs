//! What every engine-backed workload shares: stores in scratch
//! directories, counter snapshots, and the layer metrics derived from
//! them. Everything is read from outside through public observers; the
//! benchmark never implements `Storage` itself, so a fast path added to
//! a backend is measured, not hidden.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lsm_engine::{
    CompactionPolicy, FileStorage, HistogramSnapshot, LsmOptions, LsmStats, MemoryStorage, Storage,
    Strategy,
};

use crate::measure::{ratio, ProcIo};
use crate::report::Layers;

/// Where the benchmark writes: trace files and scratch stores. Inside
/// the package directory, so a run touches nothing outside its checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under [`out_dir`], named by process id, removed
/// when dropped: on success and, by unwinding, on panic.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let name = format!(
            "tmp-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        let path = out_dir().join(name);
        std::fs::create_dir_all(&path).expect("creating a scratch directory under benchmark/out");
        Self(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A storage backend and, for files, the directory that holds it.
#[derive(Debug)]
pub struct Backing {
    pub storage: Arc<dyn Storage>,
    _dir: Option<ScratchDir>,
}

impl Backing {
    pub fn memory() -> Self {
        Self {
            storage: Arc::new(MemoryStorage::new()),
            _dir: None,
        }
    }

    pub fn disk() -> Self {
        let dir = ScratchDir::new();
        let storage = FileStorage::open(dir.0.clone()).expect("opening file storage");
        Self {
            storage: Arc::new(storage),
            _dir: Some(dir),
        }
    }
}

/// The serving options of ISSUE 11: 1000-key memtables, compaction at
/// six live tables planned by BT(I) at fan-in 2, LZ blocks, WAL on with
/// the default durability (a put is acknowledged once the WAL write
/// returns), flush and compaction on background threads.
pub fn serving_options() -> LsmOptions {
    LsmOptions::default()
        .memtable_capacity(1_000)
        .compaction_policy(CompactionPolicy::Threshold { live_tables: 6 })
        .compaction_strategy(Strategy::BalanceTreeInput)
        .compaction_fanin(2)
        .background_maintenance(true)
}

/// Options for bulk-loading `keys_per_table` keys per sstable: no WAL
/// (the load ends with a flush), no compaction.
pub fn preload_options(keys_per_table: usize) -> LsmOptions {
    LsmOptions::default()
        .memtable_capacity(keys_per_table)
        .compaction_policy(CompactionPolicy::Manual)
        .wal(false)
}

/// Options of a stepped pass: nothing happens unless the benchmark calls
/// it, so every call into a layer is a span and every count repeats.
pub fn stepped_options() -> LsmOptions {
    LsmOptions::default()
        .memtable_capacity(1_000_000)
        .compaction_policy(CompactionPolicy::Manual)
        .compaction_strategy(Strategy::BalanceTreeInput)
        .compaction_fanin(2)
}

/// Every counter the layer metrics are differences of.
#[derive(Debug, Clone)]
pub struct Counters {
    pub at: Instant,
    pub stats: LsmStats,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub io: ProcIo,
    pub flush: HistogramSnapshot,
    pub merge: HistogramSnapshot,
}

impl Counters {
    /// `hist` yields the `engine_flush_us` and
    /// `engine_compaction_step_us` histograms, merged over shards.
    pub fn read(
        stats: LsmStats,
        storages: &[Arc<dyn Storage>],
        hist: (HistogramSnapshot, HistogramSnapshot),
    ) -> Self {
        Self {
            at: Instant::now(),
            stats,
            bytes_written: storages.iter().map(|s| s.bytes_written()).sum(),
            bytes_read: storages.iter().map(|s| s.bytes_read()).sum(),
            io: ProcIo::now(),
            flush: hist.0,
            merge: hist.1,
        }
    }

    pub fn of(db: &lsm_engine::Lsm, storage: &Arc<dyn Storage>) -> Self {
        let m = db.metrics();
        Self::read(
            db.stats(),
            std::slice::from_ref(storage),
            (m.flush.snapshot(), m.compaction_step.snapshot()),
        )
    }
}

/// Fills every layer metric that is a difference of two counter
/// snapshots around `ops` client operations from `clients` clients.
pub fn counter_layers(layers: &mut Layers, a: &Counters, b: &Counters, ops: u64, clients: usize) {
    let d = |f: fn(&LsmStats) -> u64| (f(&b.stats) - f(&a.stats)) as f64;
    let ops = ops as f64;
    let seconds = (b.at - a.at).as_secs_f64();
    let reads = d(|s| s.gets) + d(|s| s.range_scans);

    layers.insert(
        "storage.write_bytes_per_op",
        ratio((b.bytes_written - a.bytes_written) as f64, ops),
    );
    layers.insert(
        "storage.read_bytes_per_op",
        ratio((b.bytes_read - a.bytes_read) as f64, ops),
    );
    layers.insert(
        "storage.syscw_per_op",
        ratio((b.io.syscw - a.io.syscw) as f64, ops),
    );
    layers.insert(
        "storage.wchar_per_op",
        ratio((b.io.wchar - a.io.wchar) as f64, ops),
    );
    layers.insert("wal.segments_live", b.stats.wal_segments_live as f64);
    layers.insert(
        "memtable.hit_share",
        ratio(d(|s| s.memtable_hits), d(|s| s.gets)),
    );

    let probed = d(|s| s.tables_probed);
    layers.insert("probe.tables_per_get", ratio(probed, reads));
    layers.insert(
        "probe.bloom_negative_share",
        ratio(d(|s| s.bloom_negative_probes), probed),
    );
    layers.insert(
        "probe.block_reads_per_get",
        ratio(d(|s| s.data_block_reads), reads),
    );
    layers.insert(
        "probe.read_bytes_per_get",
        ratio(d(|s| s.data_block_read_bytes), reads),
    );
    layers.insert(
        "probe.compress_ratio",
        ratio(
            d(|s| s.data_block_logical_bytes),
            d(|s| s.data_block_read_bytes),
        ),
    );

    let block_hits = d(|s| s.block_cache_hits);
    layers.insert(
        "cache.block_hit_rate",
        ratio(block_hits, block_hits + d(|s| s.block_cache_misses)),
    );
    let table_hits = d(|s| s.table_cache_hits);
    layers.insert(
        "cache.table_hit_rate",
        ratio(table_hits, table_hits + d(|s| s.table_cache_misses)),
    );
    layers.insert(
        "cache.block_evictions_per_op",
        ratio(d(|s| s.block_cache_evictions), ops),
    );
    layers.insert(
        "scan.pruned_tables_per_scan",
        ratio(d(|s| s.range_pruned_tables), d(|s| s.range_scans)),
    );

    let flushes = d(|s| s.flushes);
    let compactions = d(|s| s.compactions);
    layers.insert("flush.count", flushes);
    layers.insert(
        "flush.us_mean",
        ratio(
            (b.flush.sum() - a.flush.sum()) as f64,
            (b.flush.count() - a.flush.count()) as f64,
        ),
    );
    let stalled = (b.stats.compaction_stall - a.stats.compaction_stall).as_secs_f64();
    layers.insert("stall.share", ratio(stalled, clients as f64 * seconds));
    layers.insert(
        "stall.slowdowns_per_kop",
        ratio(d(|s| s.slowdown_stalls) * 1e3, ops),
    );
    layers.insert(
        "stall.stops_per_kop",
        ratio(d(|s| s.stop_stalls) * 1e3, ops),
    );

    let cost = d(|s| s.compaction_entries_read) + d(|s| s.compaction_entries_written);
    let predicted = d(|s| s.compaction_predicted_cost);
    let merge_s = (b.merge.sum() - a.merge.sum()) as f64 / 1e6;
    layers.insert("planner.predicted_cost_entries", predicted);
    layers.insert("planner.cost_error", ratio(predicted, cost));
    layers.insert("compact_s", merge_s);
    layers.insert("cost_actual_entries", cost);
    layers.insert("merge.entries_per_s", ratio(cost, merge_s));
    layers.insert("merge.bytes_written", d(|s| s.compaction_bytes_written));
    layers.insert(
        "manifest.checkpoint_seq",
        ratio(d(|s| s.manifest_checkpoint_seq), flushes + compactions),
    );
}
