//! The database facade tying memtable, WAL, sstables and compaction
//! together.
//!
//! # Concurrency architecture
//!
//! `Lsm` is split into a **write half** and a **read half** so point
//! reads never queue behind writers, flushes or compaction:
//!
//! * the write half — manifest, WAL, flush/compaction bookkeeping —
//!   lives behind one internal mutex; `put`/`delete`/`write_batch`
//!   serialize on it, and a flush or compaction step takes it only for
//!   its brief bracket sections (see below);
//! * the read half is two wholesale-replaced `Arc`s — the live table
//!   list (newest first) and the frozen-memtable queue — each behind a
//!   read/write lock held for one `Arc::clone` or one pointer store,
//!   never across I/O, plus a shared [`TableCache`] of open readers and
//!   a shared [`BlockCache`] of decoded blocks. [`Lsm::get`] takes
//!   `&self`, clones the current view, and probes tables through the
//!   caches — one data block per hit, zero for bloom-negative probes;
//! * the memtable sits behind a read/write lock held only for map
//!   operations, never across I/O.
//!
//! Writers publish a fresh view at every table-set change: a flush
//! publishes its table *before* the flushed generation leaves the frozen
//! queue (a concurrent read finds the data in at least one of the two),
//! and compaction publishes at the manifest flip, *before* consumed
//! inputs are deleted ([`ParallelExecutor::commit`]). A reader still
//! holding a pre-compaction view can race the blob deletion; it detects
//! the vanished table, reloads the view and retries — the data is, by
//! construction, in the compaction output.
//!
//! # Maintenance: one pipeline, two drivers
//!
//! Everything between a full memtable and a compacted table set is one
//! pipeline of steps with one copy of each (`maintenance.rs` has the
//! step, driver and lock-order description): a full memtable is
//! **frozen** in O(1) onto the queue of immutable memtables, paired with
//! the WAL segment that made it durable; a **flush step** writes the
//! oldest frozen generation to an sstable with no engine lock held,
//! publishes it, and only then retires the generation and its segment;
//! a **compaction step** runs the planner's schedule if the
//! [`CompactionPolicy`] fires (holding the write mutex only to prepare
//! and to commit), else one tombstone-GC rewrite if one is due. Reads
//! and range scans consult active memtable → frozen queue (newest first)
//! → tables.
//!
//! [`LsmOptions::background_maintenance`] chooses only *which thread*
//! runs the steps. Off (the default), the thread that filled the
//! memtable — or called [`Lsm::flush`] / [`Lsm::maybe_compact`] — runs
//! them itself once it has dropped its write guard, until none is due:
//! between two acknowledged calls the store holds no frozen generation
//! and at most one live WAL segment, which makes the test batteries and
//! the simulator deterministic. On, a flush thread and a compaction
//! scheduler thread loop over the same steps, no client write waits on
//! sstable I/O, and tiered write stalls pace writers instead
//! ([`LsmOptions::slowdown_trigger`], [`LsmOptions::stop_trigger`],
//! exported as [`LsmPressure::stall_tier`]). Dropping the store joins
//! both threads, draining the frozen queue first so no acked write
//! exists only in memory.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use compaction_core::MergePlan;
use obs::{EventKind, EventRing};
use parking_lot::{Mutex, RwLock};

use crate::batch::{BatchOp, WriteBatch};
use crate::cache::{BlockCache, TableCache};
use crate::compaction::{CompactionOutcome, CompactionStep};
use crate::manifest::{Manifest, TableMeta};
use crate::memtable::Memtable;
use crate::metrics::EngineMetrics;
use crate::options::{CompactionPolicy, LsmOptions};
use crate::reader::{ReadContext, ReadPathCounters, SstableReader};
use crate::scan::RangeIter;
use crate::storage::{FileStorage, MemoryStorage, Storage};
use crate::types::{Entry, IntoKey, Key, RangeTombstone, SeqNo, Value, ValueKind};
use crate::wal::{RecoveryReport, Wal, WalRecord};
use crate::Error;
#[cfg(doc)]
use crate::ParallelExecutor;

/// Consecutive data blocks one ranged read fetches when a range scan
/// walks an sstable. Spans never extend past the block covering the
/// scan's end bound and the prefetched blocks decode lazily: readahead
/// trades one larger read for fewer storage round-trips. Point reads
/// always fetch exactly one block.
const SCAN_READAHEAD_BLOCKS: usize = 8;

/// The maintenance pipeline, a child module so it shares this module's
/// private engine state.
#[path = "maintenance.rs"]
mod maintenance;
use maintenance::{FrozenGen, Maintenance};

/// A single-node LSM key-value store.
///
/// Writes go to the memtable (and WAL); when the memtable reaches its key
/// capacity it is frozen in O(1) and flushed into a new immutable
/// sstable — by the writing thread before its call returns, or by a
/// flush thread when [`LsmOptions::background_maintenance`] is enabled.
/// Reads consult the active memtable, then any frozen memtables (newest
/// first), then the live sstables newest-first through their readers and
/// the table/block caches, using each table's bloom filter and key range
/// to skip runs without I/O.
/// [`Lsm::major_compact`] executes a merge schedule and leaves a single
/// sstable behind.
///
/// Every method takes `&self`: writes serialize on an internal mutex,
/// while [`Lsm::get`] and [`Lsm::scan_all`] run concurrently with each
/// other *and* with writes, flushes and compaction. Share an `Lsm`
/// across threads directly (it is `Send + Sync`) — no external lock.
///
/// # Examples
///
/// ```
/// use lsm_engine::{Lsm, LsmOptions};
///
/// # fn main() -> Result<(), lsm_engine::Error> {
/// let db = Lsm::open_in_memory(LsmOptions::default().memtable_capacity(10))?;
/// db.put(1u64, b"one".to_vec())?;
/// db.delete(1u64)?;
/// assert_eq!(db.get(1u64)?, None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Lsm {
    inner: Arc<LsmInner>,
    /// Maintenance worker threads (flush, compaction scheduler). Empty
    /// unless [`LsmOptions::background_maintenance`] is enabled.
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// The engine state proper, shared between the `Lsm` handle and its
/// maintenance worker threads via `Arc`.
#[derive(Debug)]
pub(crate) struct LsmInner {
    options: LsmOptions,
    storage: Arc<dyn Storage>,
    /// The write half: manifest, WAL and flush/compaction bookkeeping.
    write: Mutex<WriteState>,
    /// Write-side counters, behind their own short-lived lock so that
    /// [`Lsm::stats`] never waits on the write mutex.
    stats: Mutex<LsmStats>,
    /// The in-memory buffer, readable without the write mutex.
    memtable: RwLock<Memtable>,
    /// Frozen immutable memtables awaiting flush, oldest first. Pushed
    /// by [`LsmInner::freeze_active`] (under the write mutex), popped by
    /// [`LsmInner::flush_step`] after the corresponding sstable is
    /// durable. Replaced wholesale; the lock is held for one
    /// `Arc::clone` or pointer store, never across I/O.
    frozen: RwLock<Arc<Vec<Arc<FrozenGen>>>>,
    /// The read view: live tables, newest first. Replaced wholesale at
    /// every table-set change, under the same locking rule as `frozen`.
    snapshot: RwLock<Arc<ReadView>>,
    table_cache: Arc<TableCache>,
    block_cache: Arc<BlockCache>,
    read_counters: ReadPathCounters,
    gets: AtomicU64,
    memtable_hits: AtomicU64,
    tables_probed: AtomicU64,
    range_scans: AtomicU64,
    range_pruned_tables: AtomicU64,
    /// Clock zero for [`Lsm::pressure`]'s in-progress-compaction stamp
    /// and for event timestamps.
    epoch: Instant,
    /// Micros-since-`epoch` **plus one** at which the currently running
    /// compaction started; 0 when none is running.
    compaction_started: AtomicU64,
    /// Per-operation latency histograms plus the stall histogram — the
    /// single source of truth for stall accounting
    /// ([`LsmStats::compaction_stall`] and [`LsmPressure::total_stall`]
    /// are both its sum).
    metrics: EngineMetrics,
    /// Maintenance lifecycle trace: one shared ring when injected via
    /// [`LsmOptions::event_sink`], else a private one.
    events: EventRing,
    /// Shard id stamped on every event ([`LsmOptions::event_sink`]).
    shard: u32,
    /// [`StallTier`] code writers last observed; edges are traced as
    /// [`EventKind::StallTierChange`] events.
    stall_tier_seen: AtomicU64,
    /// Memtable generation ids tying freeze → flush → retire events of
    /// one generation together.
    next_flush_generation: AtomicU64,
    /// Writes delayed by the slowdown stall tier.
    slowdown_stalls: AtomicU64,
    /// Writes blocked by the stop stall tier.
    stop_stalls: AtomicU64,
    /// Flush steps the flush thread ran (caller-driven steps are not
    /// counted).
    bg_flushes: AtomicU64,
    /// Serializes flush steps, so generations flush one at a time,
    /// oldest first, whichever thread drives. Lock order: `flush_mx`
    /// before `write`; never held together with `compaction_mx`.
    flush_mx: Mutex<()>,
    /// Serializes whole compaction runs and tombstone-GC rewrites
    /// without holding the write mutex across the merge. Lock order:
    /// `compaction_mx` before `write`.
    compaction_mx: Mutex<()>,
    /// Table ids tombstone GC examined and found nothing droppable in;
    /// skipped until the next manifest flip changes what other tables
    /// may shadow. Lock order: `write` before `gc_barren`.
    gc_barren: Mutex<Vec<u64>>,
    /// Pinned snapshot LSNs → pin count. The smallest key is the
    /// retention floor every reclamation path (memtable overwrite,
    /// compaction, tombstone GC) must respect. Lock order: `write`
    /// before `pins`; never held across I/O.
    pins: Mutex<BTreeMap<u64, usize>>,
    maint: Maintenance,
}

/// Mutable engine state guarded by the write mutex.
#[derive(Debug)]
struct WriteState {
    manifest: Manifest,
    wal: Option<Wal>,
    /// Generation number for the next WAL segment (one segment per
    /// memtable generation).
    next_wal_generation: u64,
    /// Behind [`LsmStats::wal_appends`] / [`LsmStats::wal_bytes_written`].
    wal_appends: u64,
    wal_bytes_written: u64,
}

/// The immutable view a point read or range scan navigates: live tables
/// in probe (newest-first) order. Swapped wholesale on flush and
/// compaction.
#[derive(Debug, Default)]
pub(crate) struct ReadView {
    pub(crate) tables: Vec<TableMeta>,
}

/// Declares [`LsmStats`] and its counter list from one field list, so a
/// counter added here is aggregated across shards
/// ([`LsmStats::absorb`]) and published on `METRICS`
/// ([`LsmStats::counters`]) without a second place to remember.
macro_rules! lsm_stats {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Counters describing the work an [`Lsm`] instance has performed.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct LsmStats {
            $($(#[$doc])* pub $field: u64,)*
            /// Wall-clock time writes were stalled behind compaction
            /// work: merges run on a caller's thread, plus the slowdown
            /// sleeps and stop blocks that pace writers when worker
            /// threads drive maintenance. Merge time on the scheduler
            /// thread does **not** count — no write waits on it.
            /// Derived at snapshot time from the engine's stall
            /// histogram ([`EngineMetrics::stall`]), the single source
            /// every stall surface reads from.
            pub compaction_stall: Duration,
        }

        impl LsmStats {
            /// Every `u64` counter and gauge as `(field name, value)`,
            /// in declaration order — the one list the service's
            /// `METRICS` reply (as `stats_<name>`) and
            /// [`LsmStats::absorb`] both walk.
            /// [`LsmStats::compaction_stall`], the one field that is
            /// not a `u64`, is not in it.
            #[must_use]
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field)),*]
            }

            fn counters_mut(&mut self) -> Vec<&mut u64> {
                vec![$(&mut self.$field),*]
            }
        }
    };
}

lsm_stats! {
    /// Number of put operations accepted.
    puts,
    /// Number of delete operations accepted.
    deletes,
    /// Number of [`WriteBatch`] applications accepted (their individual
    /// operations also count into [`LsmStats::puts`] / [`LsmStats::deletes`]).
    write_batches,
    /// Number of point reads served.
    gets,
    /// Number of memtable flushes performed.
    flushes,
    /// Number of sstables consulted across all reads (read amplification
    /// numerator).
    tables_probed,
    /// Number of reads answered from the memtable (active or frozen).
    memtable_hits,
    /// Number of range scans started ([`Lsm::range`]).
    range_scans,
    /// Live tables skipped by range scans because their persisted
    /// min/max key range was disjoint from the scan bounds
    /// (key-range-partitioned probing: no bloom probe, no block I/O).
    range_pruned_tables,
    /// Table probes rejected by a bloom filter or min/max key range
    /// without reading any data block.
    bloom_negative_probes,
    /// Data-block round-trips to storage on the read path (block-cache
    /// misses that reached storage; one scan-readahead span counts
    /// once however many blocks it covers).
    data_block_reads,
    /// Bytes of data blocks fetched from storage on the read path, as
    /// stored on disk (compressed).
    data_block_read_bytes,
    /// Logical (decompressed) bytes of the data blocks decoded on the
    /// read path. The spread over
    /// [`LsmStats::data_block_read_bytes`] is the compression ratio
    /// reads are actually realizing.
    data_block_logical_bytes,
    /// Reader handles served from the table cache.
    table_cache_hits,
    /// Reader handles opened because the table cache missed.
    table_cache_misses,
    /// Reader handles dropped by LRU pressure or compaction retirement.
    table_cache_evictions,
    /// Data blocks served from the block cache.
    block_cache_hits,
    /// Block lookups that missed the block cache.
    block_cache_misses,
    /// Blocks dropped by LRU pressure or compaction retirement.
    block_cache_evictions,
    /// Number of compaction runs executed (manual and automatic).
    compactions,
    /// Number of compactions fired by the configured
    /// [`CompactionPolicy`] (a subset of [`LsmStats::compactions`]).
    auto_compactions,
    /// Entries read from input tables across all compaction merges.
    compaction_entries_read,
    /// Entries written to output tables across all compaction merges.
    compaction_entries_written,
    /// Bytes read from storage by compaction merges.
    compaction_bytes_read,
    /// Bytes written to storage by compaction merges.
    compaction_bytes_written,
    /// Sum of the planner's predicted `cost_actual` (in keys) over all
    /// policy-driven compactions, for planned-vs-measured comparison.
    compaction_predicted_cost,
    /// Flush steps the flush thread ran (a subset of
    /// [`LsmStats::flushes`]; 0 when the caller drives maintenance).
    bg_flushes,
    /// Writes delayed by the slowdown stall tier (bounded sleep).
    slowdown_stalls,
    /// Writes blocked by the stop stall tier until maintenance caught
    /// up.
    stop_stalls,
    /// Frozen memtables currently queued for flush (a gauge, sampled
    /// when the stats were taken).
    frozen_queue_depth,
    /// WAL segments scanned during open-time recovery.
    recovery_segments_scanned,
    /// WAL frames whose checksum verified and whose records were
    /// replayed during recovery.
    recovery_frames_replayed,
    /// Individual records replayed into the memtable during recovery.
    recovery_records_replayed,
    /// Bytes discarded as torn tails (incomplete trailing frames from a
    /// crash mid-append; never acknowledged, so no data was lost).
    recovery_bytes_truncated,
    /// Checksum-mismatched frames with valid frames after them (bit
    /// rot): the frame was quarantined and later frames salvaged, but
    /// acknowledged history is gone. Nonzero means explicit data loss.
    recovery_frames_quarantined,
    /// WAL segments preserved under a `quarantined-` name because they
    /// contained rotten frames.
    recovery_segments_quarantined,
    /// Tombstones physically dropped by tombstone-GC rewrites.
    tombstones_dropped,
    /// Single-table tombstone-GC rewrites executed.
    gc_rewrites,
    /// Sequence number of the current manifest checkpoint (a gauge;
    /// summed across shards by [`LsmStats::absorb`]).
    manifest_checkpoint_seq,
    /// Live WAL segments on storage (a gauge, sampled when the stats
    /// were taken; summed across shards).
    wal_segments_live,
    /// Frames appended to the WAL: one per acknowledged put, delete,
    /// range delete or batch, plus recovery's re-persisted frame.
    wal_appends,
    /// Bytes those appends wrote to storage — the WAL's share of write
    /// amplification, beside [`LsmStats::compaction_bytes_written`].
    wal_bytes_written,
    /// Range-delete operations accepted ([`Lsm::delete_range`]); each is
    /// one record however many keys the interval covers.
    range_deletes,
    /// Pinned snapshots created ([`Lsm::snapshot`]).
    snapshots_created,
}

impl LsmStats {
    /// The paper's `cost_actual` in entries, measured over every
    /// compaction this store has executed: entries read + written.
    #[must_use]
    pub fn compaction_entry_cost(&self) -> u64 {
        self.compaction_entries_read + self.compaction_entries_written
    }

    /// Adds every counter of `other` into `self`. This is how a sharded
    /// deployment aggregates statistics across shards: each shard keeps
    /// its own `LsmStats` and the service folds them together on demand.
    /// Gauges (queue depth, checkpoint sequence, live WAL segments) sum
    /// like everything else.
    pub fn absorb(&mut self, other: &LsmStats) {
        for (mine, (_, theirs)) in self.counters_mut().into_iter().zip(other.counters()) {
            *mine += theirs;
        }
        self.compaction_stall += other.compaction_stall;
    }

    fn record_compaction(&mut self, outcome: &CompactionOutcome) {
        self.compactions += 1;
        self.compaction_entries_read += outcome.entries_read;
        self.compaction_entries_written += outcome.entries_written;
        self.compaction_bytes_read += outcome.bytes_read;
        self.compaction_bytes_written += outcome.bytes_written;
    }
}

/// The write-stall tier currently in force, from the tiered triggers
/// that pace writers when worker threads drive maintenance (modelled on
/// RocksDB's `l0_slowdown_writes_trigger` / `l0_stop_writes_trigger`).
/// `stall_tier_change` events carry a tier as its discriminant: 0, 1, 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallTier {
    /// Maintenance is keeping up; writes run at full speed.
    #[default]
    None,
    /// Maintenance debt crossed [`LsmOptions::slowdown_trigger`]: each
    /// write is delayed by a bounded sleep so flush/compaction can
    /// catch up gradually.
    Slowdown,
    /// Debt crossed [`LsmOptions::stop_trigger`]: writes block until
    /// maintenance drains the backlog.
    Stop,
}

/// A snapshot of how overloaded a store currently is — the signals an
/// admission controller sheds load on.
///
/// Produced by [`Lsm::pressure`] without touching the write mutex, so a
/// server can probe a shard that is mid-compaction and still get an
/// instant answer. When callers drive maintenance the headline signal
/// is [`LsmPressure::current_stall`]; when worker threads do it is
/// [`LsmPressure::stall_tier`] and [`LsmPressure::frozen_queue_depth`] —
/// how far storage maintenance has fallen behind the write rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsmPressure {
    /// Live sstables in the current read snapshot.
    pub live_tables: usize,
    /// Distinct keys buffered in the (active) memtable.
    pub memtable_len: usize,
    /// Memtable key capacity (flush threshold).
    pub memtable_capacity: usize,
    /// `true` while a compaction is executing (on any thread).
    pub compaction_running: bool,
    /// Wall-clock age of the in-progress compaction when callers drive
    /// maintenance: it runs on a writer's thread, and every write whose
    /// flush trips the policy queues behind it. Zero when idle and when
    /// worker threads drive, where no write waits on a merge.
    pub current_stall: Duration,
    /// Wall-clock time writes stalled behind completed compactions and
    /// tiered write stalls.
    pub total_stall: Duration,
    /// How many live tables sit at or beyond the configured
    /// [`CompactionPolicy::Threshold`] trigger: 0 means no compaction is
    /// due, ≥ 1 means flushes are outrunning compaction (the deeper, the
    /// further behind). Always 0 for non-threshold policies.
    pub compaction_backlog: usize,
    /// Frozen memtables queued for flush (0 between calls when the
    /// caller drives maintenance).
    pub frozen_queue_depth: usize,
    /// The write-stall tier currently in force ([`StallTier::None`]
    /// when the caller drives maintenance).
    pub stall_tier: StallTier,
}

/// The result of one policy-driven compaction: what the planner chose
/// and what executing it physically cost.
#[derive(Debug, Clone)]
pub struct AutoCompaction {
    /// The plan (strategy, schedule, waves, predicted costs).
    pub plan: MergePlan,
    /// The physical outcome (entries/bytes read and written).
    pub outcome: CompactionOutcome,
    /// Wall-clock time the compaction took (planning + merging). On the
    /// scheduler thread this is elapsed time, not write stall.
    pub stall: Duration,
}

impl Lsm {
    /// Opens a store over an arbitrary storage backend, recovering state
    /// from the manifest and WAL if present.
    ///
    /// With [`LsmOptions::background_maintenance`] enabled this also
    /// spawns the flush thread (and, under an automatic
    /// [`CompactionPolicy`], the compaction scheduler thread) that
    /// drive the maintenance pipeline. Both are signalled and joined
    /// when the store is dropped.
    ///
    /// # Errors
    ///
    /// Propagates storage and corruption errors encountered during
    /// recovery, and thread-spawn failures.
    pub fn open(storage: Arc<dyn Storage>, options: LsmOptions) -> Result<Self, Error> {
        let inner = Arc::new(LsmInner::open(storage, options)?);
        let mut workers = Vec::new();
        if inner.options.background_maintenance_enabled() {
            let flusher = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name("lsm-flush".into())
                    .spawn(move || flusher.flush_worker())
                    .map_err(Error::Io)?,
            );
            if inner.options.policy() != CompactionPolicy::Manual {
                let scheduler = Arc::clone(&inner);
                workers.push(
                    std::thread::Builder::new()
                        .name("lsm-compact".into())
                        .spawn(move || scheduler.compaction_worker())
                        .map_err(Error::Io)?,
                );
            }
        }
        Ok(Self { inner, workers })
    }

    /// Opens a fresh in-memory store (the simulator default).
    ///
    /// # Errors
    ///
    /// Never fails in practice; the signature matches [`Lsm::open`].
    pub fn open_in_memory(options: LsmOptions) -> Result<Self, Error> {
        Self::open(Arc::new(MemoryStorage::new()), options)
    }

    /// Opens (or reopens) a file-backed store rooted at `path`.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or recovery fails.
    pub fn open_on_disk(
        path: impl Into<std::path::PathBuf>,
        options: LsmOptions,
    ) -> Result<Self, Error> {
        Self::open(Arc::new(FileStorage::open(path)?), options)
    }

    /// The configuration this store was opened with.
    #[must_use]
    pub fn options(&self) -> &LsmOptions {
        &self.inner.options
    }

    /// The storage backend (shared with compaction executors).
    #[must_use]
    pub fn storage(&self) -> Arc<dyn Storage> {
        Arc::clone(&self.inner.storage)
    }

    /// Work counters: write-side counters folded together with the
    /// lock-free read-path and cache counters. Never waits on the write
    /// mutex, so a METRICS probe answers instantly mid-compaction.
    #[must_use]
    pub fn stats(&self) -> LsmStats {
        self.inner.stats_snapshot()
    }

    /// The store's current overload signals, read without the write
    /// mutex: live-table count from the read snapshot, memtable fill
    /// under a brief read lock, frozen-queue depth and stall tier from
    /// the frozen queue's current `Arc`. Safe to call at any rate from
    /// any thread — in particular while this store is deep inside a
    /// compaction, which is exactly when an admission controller needs
    /// the answer.
    #[must_use]
    pub fn pressure(&self) -> LsmPressure {
        self.inner.pressure()
    }

    /// The engine's per-operation latency histograms (get/put/
    /// write-batch/scan-next/flush/compaction-step/stall). Lock-free to
    /// read — snapshot individual histograms or use
    /// [`EngineMetrics::named_snapshots`] for the full wire-ready set.
    #[must_use]
    pub fn metrics(&self) -> &EngineMetrics {
        &self.inner.metrics
    }

    /// The maintenance-event trace ring this store records into (shared
    /// across stores when injected via [`LsmOptions::event_sink`]).
    /// Drain with [`obs::EventRing::since`].
    #[must_use]
    pub fn events(&self) -> &EventRing {
        &self.inner.events
    }

    /// Metadata of the live sstables, oldest first. Served from the
    /// read snapshot, so it never waits on the write mutex; during a
    /// compaction it reports the pre-flip table set, which is exactly
    /// what is still live and readable.
    #[must_use]
    pub fn live_tables(&self) -> Vec<TableMeta> {
        self.inner.live_tables()
    }

    /// Number of distinct keys currently buffered in the active
    /// memtable (frozen memtables not included).
    #[must_use]
    pub fn memtable_len(&self) -> usize {
        self.inner.memtable.read().len()
    }

    /// Frozen memtables currently queued for flush.
    #[must_use]
    pub fn frozen_queue_depth(&self) -> usize {
        self.inner.frozen_queue().len()
    }

    /// Bytes currently held by the block cache (diagnostics).
    #[must_use]
    pub fn block_cache_usage_bytes(&self) -> u64 {
        self.inner.block_cache.usage_bytes()
    }

    /// Open reader handles currently held by the table cache
    /// (diagnostics).
    #[must_use]
    pub fn table_cache_len(&self) -> usize {
        self.inner.table_cache.len()
    }

    /// Inserts or overwrites `key`.
    ///
    /// The key is anything [`IntoKey`] covers — `Key` bytes, slices,
    /// strings, or a `u64` (big-endian encoded so lexicographic order
    /// matches numeric order).
    ///
    /// # Errors
    ///
    /// Propagates WAL/storage failures; flush and compaction failures
    /// if the write fills the memtable and this thread drives
    /// maintenance (the write itself is then already logged and
    /// applied).
    pub fn put(&self, key: impl IntoKey, value: impl Into<Value>) -> Result<(), Error> {
        self.inner
            .write_one(key.into_key(), value.into(), ValueKind::Put)
    }

    /// Deletes `key` by writing a tombstone.
    ///
    /// # Errors
    ///
    /// Propagates WAL/storage failures.
    pub fn delete(&self, key: impl IntoKey) -> Result<(), Error> {
        self.inner
            .write_one(key.into_key(), Bytes::new(), ValueKind::Tombstone)
    }

    /// Deletes every key in `[start, end)` by writing a **single**
    /// range-tombstone record — O(1) in the width of the interval, not
    /// one tombstone per covered key. Point reads, range scans and
    /// compaction treat every version sequenced before the delete as
    /// gone; pinned snapshots taken earlier still see the interval.
    ///
    /// An empty or inverted interval (`start >= end`) is accepted as a
    /// no-op: nothing is logged and no sequence number is consumed.
    ///
    /// # Errors
    ///
    /// Propagates WAL/storage failures.
    pub fn delete_range(&self, start: impl IntoKey, end: impl IntoKey) -> Result<(), Error> {
        self.inner.delete_range(start.into_key(), end.into_key())
    }

    /// Pins a consistent point-in-time view of the store and returns a
    /// read handle onto it. Reads through the [`Snapshot`] see exactly
    /// the writes sequenced before this call — regardless of concurrent
    /// writes, flushes, compactions or tombstone GC — until the handle
    /// is dropped, which releases the pin and lets reclamation resume
    /// past it.
    ///
    /// # Examples
    ///
    /// ```
    /// use lsm_engine::{Lsm, LsmOptions};
    ///
    /// # fn main() -> Result<(), lsm_engine::Error> {
    /// let db = Lsm::open_in_memory(LsmOptions::default())?;
    /// db.put(1u64, b"before".to_vec())?;
    /// let snap = db.snapshot();
    /// db.put(1u64, b"after".to_vec())?;
    /// assert_eq!(snap.get(1u64)?.as_deref(), Some(&b"before"[..]));
    /// assert_eq!(db.get(1u64)?.as_deref(), Some(&b"after"[..]));
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let lsn = self.inner.create_pin();
        Snapshot {
            inner: Arc::clone(&self.inner),
            lsn,
        }
    }

    /// Applies a [`WriteBatch`]: every operation is appended to the WAL
    /// as **one frame** and applied to the memtable in **one pass**, with
    /// at most one flush at the end — instead of one WAL write (and
    /// possible flush) per key as the single-op path pays.
    ///
    /// Crash atomicity: the WAL frame is the unit of checksum
    /// protection, so recovery replays either the whole batch or none of
    /// it ([`Wal::append_batch`]). Once this method returns `Ok`, every
    /// operation of the batch is durable (WAL-persisted) and visible.
    ///
    /// An empty batch is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates WAL/storage failures; flush failures if the batch
    /// fills the memtable. If the WAL append itself fails the memtable
    /// is untouched (nothing was applied, and a torn frame replays
    /// all-or-nothing); if a subsequent flush fails the batch has
    /// already been applied and logged — it is durable and visible
    /// despite the error.
    pub fn write_batch(&self, batch: WriteBatch) -> Result<(), Error> {
        self.inner.write_batch(batch)
    }

    /// Point read: newest visible value for `key`, or `None` if the key
    /// was never written or its newest version is a tombstone.
    ///
    /// Never waits on the write mutex: consults the active memtable
    /// under a brief read lock, then any frozen memtables newest-first,
    /// then probes the snapshot's tables newest-first through the table
    /// and block caches. If compaction retires a probed table mid-read (its
    /// blob vanishes), the read reloads the snapshot and retries — the
    /// merged data is in the new table set.
    ///
    /// # Errors
    ///
    /// Propagates storage and corruption errors.
    pub fn get(&self, key: impl IntoKey) -> Result<Option<Value>, Error> {
        self.inner.get_at(&key.into_key(), SeqNo::MAX)
    }

    /// Flushes the memtable to a new sstable even if it is not full:
    /// freezes the active memtable and returns once the whole frozen
    /// queue has been flushed — by this thread, or by waiting for the
    /// flush thread — so on return everything previously written is
    /// table-durable.
    ///
    /// Returns the id of the table the memtable *this call* rotated was
    /// flushed into, or `None` if the active memtable was empty (older
    /// frozen generations are still drained). The configured
    /// [`CompactionPolicy`] gets its turn after every flush step, so
    /// under an automatic policy the returned table may already have
    /// been merged away by the time this returns.
    ///
    /// # Errors
    ///
    /// Propagates storage failures (from the flush itself or from a
    /// policy-triggered compaction).
    pub fn flush(&self) -> Result<Option<u64>, Error> {
        self.inner.flush()
    }

    /// Gives the maintenance pipeline its turn. When the caller drives
    /// maintenance this runs every step that is due on this thread —
    /// consults the configured [`CompactionPolicy`] and, if it fires,
    /// plans and executes a compaction of the newest run of live tables
    /// (see [`CompactionPolicy::Threshold`]) — and
    /// returns that compaction. With worker threads it only wakes them
    /// and returns `Ok(None)` immediately. Happens by itself after every
    /// memtable rotation; callable directly to re-check the policy at
    /// any time.
    ///
    /// Returns `Ok(None)` when the policy does not fire (or is not
    /// automatic).
    ///
    /// # Errors
    ///
    /// Propagates planning and storage failures.
    pub fn maybe_compact(&self) -> Result<Option<AutoCompaction>, Error> {
        self.inner.drive()
    }

    /// Plans a compaction of every live table down to one with the
    /// configured strategy and estimator and executes it (parallel
    /// across independent steps when [`LsmOptions::threads`] > 1),
    /// regardless of whether the policy would fire — the paper's major
    /// compaction. Returns `Ok(None)` when there are fewer than two live
    /// tables.
    ///
    /// This is the "compact now, your way" entry point: no manual
    /// [`CompactionStep`] construction involved.
    ///
    /// # Errors
    ///
    /// Propagates planning and storage failures.
    pub fn auto_compact(&self) -> Result<Option<AutoCompaction>, Error> {
        self.inner.planned_compaction(false)
    }

    /// Executes a merge schedule over the live sstables: a complete one
    /// is a major compaction, merging every live table down to one.
    ///
    /// `steps` reference tables by *slot*: slots `0..n` are the current
    /// live tables in manifest (oldest-first) order, and each step's
    /// output becomes the next slot, exactly like the merge schedules
    /// produced by `compaction-core` (see
    /// [`MergeSchedule::slot_steps`](compaction_core::MergeSchedule::slot_steps)).
    /// Independent steps execute concurrently when
    /// [`LsmOptions::threads`] > 1, and manifest edits are applied
    /// atomically after every step succeeds. The last step drops
    /// tombstones only if no live table older than its inputs is left
    /// out of it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidCompaction`] for malformed schedules —
    /// among them one that leaves an output spanning, by age, a live
    /// table it does not merge — and propagates storage errors.
    pub fn major_compact(&self, steps: &[CompactionStep]) -> Result<CompactionOutcome, Error> {
        self.inner.major_compact(steps)
    }

    /// Runs one tombstone-GC rewrite right now, regardless of the
    /// [`LsmOptions::tombstone_gc`] toggle (which only governs the
    /// maintenance pipeline's own compaction steps): pick the live
    /// table carrying the most tombstones, drop every
    /// tombstone that provably shadows nothing — no *other* live
    /// table's bloom/min-max admits its key — and swap in the slimmer
    /// rewrite via the usual atomic manifest flip. Returns the number
    /// of tombstones dropped (0 when no table qualifies or nothing was
    /// droppable).
    ///
    /// Entries buffered in the memtable are always strictly newer than
    /// any sstable entry, so dropping an sstable tombstone can never
    /// resurrect them.
    ///
    /// # Errors
    ///
    /// Propagates storage and corruption errors.
    pub fn gc_tombstones(&self) -> Result<u64, Error> {
        self.inner.run_tombstone_gc()
    }

    /// Returns every live key/value pair, merged across the memtable and
    /// all sstables with newest-wins semantics and tombstones applied:
    /// [`Lsm::range`] over the whole keyspace, collected. Intended for
    /// verification and small stores — large stores should iterate the
    /// streaming [`Lsm::range`] directly instead of materializing it.
    ///
    /// # Errors
    ///
    /// Propagates storage and corruption errors.
    pub fn scan_all(&self) -> Result<Vec<(Key, Value)>, Error> {
        self.range(..).collect()
    }

    /// Streams every live `(key, value)` pair whose key falls inside
    /// `range`, in ascending key order — the snapshot-consistent range
    /// scan. Nothing is materialized beyond one decoded block per probed
    /// table, so arbitrarily large ranges stream in bounded memory.
    ///
    /// The scan pins the current table snapshot plus a frozen view of
    /// the in-range entries of the active and frozen memtables, k-way
    /// merges them newest-wins with tombstones suppressed, and skips
    /// every sstable whose persisted min/max key range is disjoint from
    /// `range` (key-range-partitioned probing — see
    /// [`LsmStats::range_pruned_tables`]). Blocks the scan fetches are
    /// never inserted into the block cache. If a compaction retires a
    /// pinned table mid-iteration, the scan reloads the freshest
    /// snapshot and resumes after the last key it returned
    /// ([`scan`](crate::scan) module docs).
    ///
    /// Runs concurrently with writes, flushes and compaction — it takes
    /// `&self` and never holds an engine lock across I/O.
    ///
    /// # Examples
    ///
    /// ```
    /// use lsm_engine::{key_from_u64, key_to_u64, Lsm, LsmOptions};
    ///
    /// # fn main() -> Result<(), lsm_engine::Error> {
    /// let db = Lsm::open_in_memory(LsmOptions::default().memtable_capacity(4))?;
    /// for i in 0u64..20 {
    ///     db.put(i, vec![i as u8])?;
    /// }
    /// let hits: Vec<u64> = db
    ///     .range(key_from_u64(5)..key_from_u64(9))
    ///     .map(|r| r.map(|(k, _)| key_to_u64(&k).unwrap()))
    ///     .collect::<Result<_, _>>()?;
    /// assert_eq!(hits, vec![5, 6, 7, 8]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn range(&self, range: impl std::ops::RangeBounds<Key>) -> RangeIter<'_> {
        self.inner.range_scans.fetch_add(1, Ordering::Relaxed);
        RangeIter::new(
            self.inner.as_ref(),
            (range.start_bound().cloned(), range.end_bound().cloned()),
        )
    }
}

/// A pinned point-in-time read view of an [`Lsm`] store, created by
/// [`Lsm::snapshot`].
///
/// The snapshot's LSN is a sequence number allocated at creation; reads
/// through the handle see exactly the records sequenced at or below it.
/// While the handle lives, its pin holds the engine's retention floor
/// down: memtable overwrites keep the versions it can observe,
/// compaction merges retain shadowed history it can still read, and
/// tombstone GC leaves its tombstones in place. Dropping the handle
/// releases the pin; reclamation resumes on the next maintenance pass.
///
/// The handle is independent of the `Lsm` facade's lifetime bookkeeping
/// — it holds the engine alive via `Arc`, so it stays readable even
/// while flushes and compactions rewrite every table underneath it.
#[derive(Debug)]
pub struct Snapshot {
    inner: Arc<LsmInner>,
    lsn: u64,
}

impl Snapshot {
    /// The sequence number this snapshot is pinned at. Records with
    /// `seqno <= lsn` are visible; everything newer is not.
    #[must_use]
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Point read at the pinned LSN: the newest value for `key`
    /// sequenced at or before the snapshot, or `None` if the key was
    /// absent or deleted as of the snapshot.
    ///
    /// # Errors
    ///
    /// Propagates storage and corruption errors.
    pub fn get(&self, key: impl IntoKey) -> Result<Option<Value>, Error> {
        self.inner.get_at(&key.into_key(), self.lsn)
    }

    /// Streams the `(key, value)` pairs inside `range` exactly as they
    /// stood at the pinned LSN, in ascending key order — the snapshot
    /// counterpart of [`Lsm::range`].
    pub fn range(&self, range: impl std::ops::RangeBounds<Key>) -> RangeIter<'_> {
        self.inner.range_scans.fetch_add(1, Ordering::Relaxed);
        RangeIter::pinned(
            self.inner.as_ref(),
            (range.start_bound().cloned(), range.end_bound().cloned()),
            self.lsn,
        )
    }

    /// Every live `(key, value)` pair as of the pinned LSN, collected.
    ///
    /// # Errors
    ///
    /// Propagates storage and corruption errors.
    pub fn scan_all(&self) -> Result<Vec<(Key, Value)>, Error> {
        self.range(..).collect()
    }
}

impl Drop for Snapshot {
    /// Releases the pin, letting reclamation advance past this LSN.
    fn drop(&mut self) {
        self.inner.release_pin(self.lsn);
    }
}

impl Drop for Lsm {
    /// Graceful shutdown: signal the maintenance threads and join them.
    /// The flush thread drains the frozen queue before exiting, so no
    /// acked write exists only in a frozen memtable after drop.
    fn drop(&mut self) {
        self.inner.signal_shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

// ---- engine internals ----

impl LsmInner {
    fn open(storage: Arc<dyn Storage>, options: LsmOptions) -> Result<Self, Error> {
        let mut manifest = Manifest::load(storage.as_ref())?;
        // Sweep orphan sstable blobs: a crash between writing compaction
        // outputs and persisting the manifest (or between persisting and
        // deleting consumed inputs) leaves blobs the manifest does not
        // reference. They are invisible to reads and safe to delete. WAL
        // segments do not parse as sstable ids, so they survive the
        // sweep.
        for blob in storage.list_blobs() {
            if let Some(orphan_id) = SstableReader::id_from_blob_name(&blob) {
                if manifest.table(orphan_id).is_none() {
                    storage.delete_blob(&blob)?;
                }
            }
        }
        // Establish the first checkpoint immediately: from this point
        // on the data directory always carries a decodable checkpoint,
        // so sstable blobs without one can only mean the manifest was
        // lost — `Manifest::load` fails with the orphaned-tables
        // diagnostic — never a normal crash window during the first
        // flush.
        if manifest.checkpoint_seq() == 0 {
            manifest.persist(storage.as_ref())?;
        }
        let mut memtable = Memtable::new(options.memtable_capacity_keys());
        let mut next_wal_generation = 0;
        let mut recovery = RecoveryReport::default();
        let wal = if options.wal_enabled() {
            // Recover every write that had not been flushed, replaying
            // all live WAL segments oldest-first (a crash under
            // background maintenance can leave one segment per frozen
            // memtable generation). Each segment's replay classifies
            // damage: torn tails are truncated (a crash mid-append —
            // nothing acked was lost), checksum-mismatched frames with
            // valid frames after them are quarantined and the rest
            // salvaged (bit rot — acked history is gone, and the report
            // says so). Everything salvaged is re-persisted as one
            // frame into a single fresh segment, then the old segments
            // are retired — a crash in between replays records twice,
            // which is idempotent (same seqnos).
            let segments = Wal::live_segments(storage.as_ref());
            let mut records = Vec::new();
            let mut rotten: Vec<&String> = Vec::new();
            for segment in &segments {
                let replay = Wal::replay_segment(storage.as_ref(), segment)?;
                recovery.absorb_segment(&replay);
                if replay.frames_quarantined > 0 {
                    rotten.push(segment);
                }
                records.extend(replay.records);
            }
            if options.strict_recovery_enabled() && recovery.lost_acked_history() {
                return Err(Error::corruption(format!(
                    "strict recovery: {} WAL frame(s) across {} segment(s) failed their \
                     checksum with valid frames after them (bit rot, not a torn tail); \
                     refusing to open with a gapped history",
                    recovery.frames_quarantined, recovery.segments_quarantined
                )));
            }
            // Preserve rotten segments verbatim under a quarantine name
            // before retiring them: the rotted bytes stay available for
            // forensics and are never mistaken for a live segment
            // (quarantine names don't parse as WAL generations).
            for segment in &rotten {
                if let Ok(bytes) = storage.read_blob(segment) {
                    let _ = storage.write_blob(&format!("quarantined-{segment}"), &bytes);
                }
            }
            let next_generation = segments
                .iter()
                .filter_map(|s| Wal::parse_generation(s))
                .max()
                .map_or(0, |g| g + 1);
            let mut wal = Wal::new(Wal::generation_blob_name(next_generation));
            for r in &records {
                memtable.apply(r.clone());
            }
            // The persisted manifest may predate the replayed records'
            // allocations; bump the allocator past them so fresh writes
            // never reuse a replayed sequence number.
            if let Some(max_seqno) = records.iter().map(|r| r.seqno).max() {
                manifest.observe_seqno(max_seqno);
            }
            wal.append_batch(storage.as_ref(), &records)?;
            for segment in &segments {
                storage.delete_blob(segment)?;
            }
            next_wal_generation = next_generation + 1;
            Some(wal)
        } else {
            None
        };
        let wal_bytes_written = wal.as_ref().map_or(0, Wal::segment_len);
        let snapshot = RwLock::new(Arc::new(ReadView::from_manifest(&manifest)));
        let events = crate::metrics::event_ring_for(&options);
        let shard = options.event_sink_shard();
        if recovery.segments_scanned > 0 {
            events.record(
                shard,
                EventKind::WalRecovery,
                0,
                vec![
                    ("segments_scanned", recovery.segments_scanned),
                    ("frames_replayed", recovery.frames_replayed),
                    ("records_replayed", recovery.records_replayed),
                    ("bytes_truncated", recovery.bytes_truncated),
                    ("frames_quarantined", recovery.frames_quarantined),
                    ("segments_quarantined", recovery.segments_quarantined),
                ],
            );
        }
        let stats = LsmStats {
            recovery_segments_scanned: recovery.segments_scanned,
            recovery_frames_replayed: recovery.frames_replayed,
            recovery_records_replayed: recovery.records_replayed,
            recovery_bytes_truncated: recovery.bytes_truncated,
            recovery_frames_quarantined: recovery.frames_quarantined,
            recovery_segments_quarantined: recovery.segments_quarantined,
            ..LsmStats::default()
        };
        Ok(Self {
            table_cache: Arc::new(TableCache::new(options.table_cache_tables())),
            block_cache: Arc::new(BlockCache::new(options.block_cache_bytes())),
            options,
            storage,
            write: Mutex::new(WriteState {
                manifest,
                wal,
                next_wal_generation,
                wal_appends: u64::from(wal_bytes_written > 0),
                wal_bytes_written,
            }),
            stats: Mutex::new(stats),
            memtable: RwLock::new(memtable),
            frozen: RwLock::new(Arc::new(Vec::new())),
            snapshot,
            read_counters: ReadPathCounters::default(),
            gets: AtomicU64::new(0),
            memtable_hits: AtomicU64::new(0),
            tables_probed: AtomicU64::new(0),
            range_scans: AtomicU64::new(0),
            range_pruned_tables: AtomicU64::new(0),
            epoch: Instant::now(),
            compaction_started: AtomicU64::new(0),
            metrics: EngineMetrics::new(),
            events,
            shard,
            stall_tier_seen: AtomicU64::new(0),
            next_flush_generation: AtomicU64::new(0),
            slowdown_stalls: AtomicU64::new(0),
            stop_stalls: AtomicU64::new(0),
            bg_flushes: AtomicU64::new(0),
            flush_mx: Mutex::new(()),
            compaction_mx: Mutex::new(()),
            gc_barren: Mutex::new(Vec::new()),
            pins: Mutex::new(BTreeMap::new()),
            maint: Maintenance::default(),
        })
    }

    fn background(&self) -> bool {
        self.options.background_maintenance_enabled()
    }

    fn stats_snapshot(&self) -> LsmStats {
        let mut stats = self.stats.lock().clone();
        stats.gets = self.gets.load(Ordering::Relaxed);
        stats.memtable_hits = self.memtable_hits.load(Ordering::Relaxed);
        stats.tables_probed = self.tables_probed.load(Ordering::Relaxed);
        stats.range_scans = self.range_scans.load(Ordering::Relaxed);
        stats.range_pruned_tables = self.range_pruned_tables.load(Ordering::Relaxed);
        stats.bloom_negative_probes = self.read_counters.bloom_negatives();
        stats.data_block_reads = self.read_counters.block_reads();
        stats.data_block_read_bytes = self.read_counters.block_read_bytes();
        stats.data_block_logical_bytes = self.read_counters.block_logical_bytes();
        let table = self.table_cache.counters();
        stats.table_cache_hits = table.hits();
        stats.table_cache_misses = table.misses();
        stats.table_cache_evictions = table.evictions();
        let block = self.block_cache.counters();
        stats.block_cache_hits = block.hits();
        stats.block_cache_misses = block.misses();
        stats.block_cache_evictions = block.evictions();
        stats.bg_flushes = self.bg_flushes.load(Ordering::Relaxed);
        stats.slowdown_stalls = self.slowdown_stalls.load(Ordering::Relaxed);
        stats.stop_stalls = self.stop_stalls.load(Ordering::Relaxed);
        stats.frozen_queue_depth = self.frozen_queue().len() as u64;
        stats.compaction_stall = Duration::from_micros(self.metrics.stall.sum());
        stats.wal_segments_live = Wal::live_segments(self.storage.as_ref()).len() as u64;
        let w = self.write.lock();
        stats.manifest_checkpoint_seq = w.manifest.checkpoint_seq();
        stats.wal_appends = w.wal_appends;
        stats.wal_bytes_written = w.wal_bytes_written;
        stats
    }

    fn pressure(&self) -> LsmPressure {
        let live_tables = self.read_view().tables.len();
        let memtable_len = self.memtable.read().len();
        let started = self.compaction_started.load(Ordering::Relaxed);
        // Under background maintenance no write waits on a merge, so a
        // running compaction is not a stall.
        let current_stall = if started == 0 || self.background() {
            Duration::ZERO
        } else {
            let now = self.epoch.elapsed().as_micros() as u64;
            Duration::from_micros(now.saturating_sub(started - 1))
        };
        LsmPressure {
            live_tables,
            memtable_len,
            memtable_capacity: self.options.memtable_capacity_keys(),
            compaction_running: started != 0,
            current_stall,
            total_stall: Duration::from_micros(self.metrics.stall.sum()),
            compaction_backlog: self.compaction_backlog(live_tables),
            frozen_queue_depth: self.frozen_queue().len(),
            stall_tier: self.stall_tier(),
        }
    }

    /// Appends one structured event to the trace ring, stamped with
    /// this store's shard tag and micros since open.
    fn emit(&self, kind: EventKind, fields: Vec<(&'static str, u64)>) {
        self.events.record(
            self.shard,
            kind,
            self.epoch.elapsed().as_micros() as u64,
            fields,
        );
    }

    /// A single-record write. Deletes and range deletes share the put
    /// histogram rather than splitting the sample population.
    fn write_one(&self, key: Key, value: Value, kind: ValueKind) -> Result<(), Error> {
        timed(&self.metrics.put, || {
            self.write_with(|w| self.commit(w, [BatchOp { key, value, kind }]))
        })
    }

    /// Sequences `ops`, logs them as **one** WAL frame and — only once
    /// that append is acknowledged — applies them to the memtable.
    fn commit(
        &self,
        w: &mut WriteState,
        ops: impl IntoIterator<Item = BatchOp>,
    ) -> Result<(), Error> {
        let records: Vec<WalRecord> = ops
            .into_iter()
            .map(|op| WalRecord {
                seqno: w.manifest.allocate_seqno(),
                key: op.key,
                value: op.value,
                kind: op.kind,
            })
            .collect();
        w.log(self.storage.as_ref(), &records)?;
        let mut memtable = self.memtable.write();
        let mut stats = self.stats.lock();
        for record in records {
            match record.kind {
                ValueKind::Put => stats.puts += 1,
                ValueKind::Tombstone => stats.deletes += 1,
                ValueKind::RangeDelete => stats.range_deletes += 1,
            }
            memtable.apply(record);
        }
        Ok(())
    }

    /// The shape every write shares: throttle, run `apply` under the
    /// write mutex, rotate the memtable if that filled it, and — only
    /// once the guard is gone — get the rotated generation flushed
    /// ([`LsmInner::drive`]). Lock order is `flush_mx` / `compaction_mx`
    /// before `write`, so no step may start from under the write guard.
    fn write_with(
        &self,
        apply: impl FnOnce(&mut WriteState) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.throttle_write();
        let full = {
            let mut w = self.write.lock();
            apply(&mut w)?;
            let full = self.memtable.read().is_full();
            if full {
                self.freeze_active(&mut w);
            }
            full
        };
        if full {
            self.drive()?;
        }
        Ok(())
    }

    fn delete_range(&self, start: Key, end: Key) -> Result<(), Error> {
        // An inverted or empty interval deletes nothing; bail before
        // burning a sequence number or touching the WAL.
        if start >= end {
            return Ok(());
        }
        // One WAL record for the whole interval: key = inclusive start,
        // value = exclusive end.
        self.write_one(start, end, ValueKind::RangeDelete)
    }

    // ---- snapshot pins ----

    /// The oldest pinned snapshot LSN, or `SeqNo::MAX` when nothing is
    /// pinned. This is the retention floor: reclamation (memtable
    /// overwrite collapse, compaction drops, tombstone GC) may only
    /// erase versions whose disappearance no reader pinned at or above
    /// the floor can observe. Pins only ever arrive at fresh (larger)
    /// LSNs and releases remove entries, so the floor is monotonically
    /// non-decreasing — a once-sampled floor stays safe for the rest of
    /// an in-flight merge.
    pub(crate) fn pin_floor(&self) -> SeqNo {
        self.pins
            .lock()
            .keys()
            .next()
            .copied()
            .unwrap_or(SeqNo::MAX)
    }

    /// Allocates and pins a snapshot LSN. Runs under the write mutex so
    /// no write can slip between the LSN allocation and the retention
    /// floor reaching the memtable — the pinned prefix is exactly every
    /// record sequenced before the snapshot.
    fn create_pin(&self) -> u64 {
        let mut w = self.write.lock();
        let lsn = w.manifest.allocate_seqno();
        let floor = {
            let mut pins = self.pins.lock();
            *pins.entry(lsn).or_insert(0) += 1;
            *pins.keys().next().expect("just inserted")
        };
        self.memtable.write().set_retain_floor(floor);
        drop(w);
        self.stats.lock().snapshots_created += 1;
        lsn
    }

    /// Releases one pin on `lsn`, raising the retention floor if that
    /// was the oldest snapshot.
    fn release_pin(&self, lsn: u64) {
        let w = self.write.lock();
        let floor = {
            let mut pins = self.pins.lock();
            if let Some(count) = pins.get_mut(&lsn) {
                *count -= 1;
                if *count == 0 {
                    pins.remove(&lsn);
                }
            }
            pins.keys().next().copied().unwrap_or(SeqNo::MAX)
        };
        self.memtable.write().set_retain_floor(floor);
        drop(w);
    }

    fn write_batch(&self, batch: WriteBatch) -> Result<(), Error> {
        timed(&self.metrics.write_batch, || {
            if batch.is_empty() {
                return Ok(());
            }
            self.write_with(|w| {
                self.commit(w, batch.into_ops())?;
                self.stats.lock().write_batches += 1;
                Ok(())
            })
        })
    }

    /// Point read pinned at `upto`: the newest version with
    /// `seqno <= upto`, with range tombstones applied. `SeqNo::MAX` is
    /// the ordinary latest-visible read.
    pub(crate) fn get_at(&self, key: &[u8], upto: SeqNo) -> Result<Option<Value>, Error> {
        timed(&self.metrics.get, || self.get_at_inner(key, upto))
    }

    fn get_at_inner(&self, key: &[u8], upto: SeqNo) -> Result<Option<Value>, Error> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        loop {
            // Read in data-flow order (active → frozen → tables): an
            // entry that migrates between stages mid-read moves *toward*
            // a stage checked later, so it cannot be missed.
            //
            // Range-tombstone visibility is layer-local with one
            // cross-layer rule: every record in a newer layer outranks
            // (has a larger seqno than) every record in an older layer,
            // so a covering range tombstone found in some layer shadows
            // *all* older layers' versions of the key — once one is seen
            // without a same-layer point hit above it, the answer is
            // "deleted" and no older layer needs probing.
            {
                let memtable = self.memtable.read();
                let shadow = memtable.max_covering_range_del(key, upto);
                if let Some(entry) = memtable.get_visible(key, upto) {
                    self.memtable_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(resolve(entry, shadow));
                }
                if shadow.is_some() {
                    return Ok(None);
                }
            }
            let frozen = self.frozen_queue();
            for gen in frozen.iter().rev() {
                let shadow = gen.memtable.max_covering_range_del(key, upto);
                if let Some(entry) = gen.memtable.get_visible(key, upto) {
                    self.memtable_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(resolve(entry, shadow));
                }
                if shadow.is_some() {
                    return Ok(None);
                }
            }
            let snap = self.read_view();
            match self.probe_tables(&snap, key, upto) {
                Ok(found) => return Ok(found),
                Err(e) if is_retired_table(&e) && self.read_view_changed(&snap) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Probes the snapshot's tables newest-first for `key` at `upto`,
    /// applying each table's resident range tombstones. Returns the
    /// user-visible answer: tables are the oldest layer, so "absent"
    /// and "deleted" have both become `None` by the time it returns.
    fn probe_tables(
        &self,
        snap: &ReadView,
        key: &[u8],
        upto: SeqNo,
    ) -> Result<Option<Value>, Error> {
        let ctx = ReadContext {
            storage: self.storage.as_ref(),
            block_cache: Some(&self.block_cache),
            fill_cache: true,
            readahead_blocks: 1,
            counters: &self.read_counters,
        };
        for meta in &snap.tables {
            self.tables_probed.fetch_add(1, Ordering::Relaxed);
            let reader = self.open_reader(meta)?;
            // Consult the table's own range tombstones before its point
            // entries: a table's tombstones can shadow its own points.
            // Gated on the manifest count so tables without any pay
            // nothing.
            let shadow = if meta.range_tombstone_count > 0 {
                reader.max_covering_range_del(key, upto)
            } else {
                None
            };
            if let Some(entry) = reader.get_visible(key, upto, ctx)? {
                return Ok(resolve(entry, shadow));
            }
            if shadow.is_some() {
                return Ok(None);
            }
        }
        Ok(None)
    }

    fn live_tables(&self) -> Vec<TableMeta> {
        self.read_view().tables.iter().rev().cloned().collect()
    }

    /// `true` when the live read view has been swapped since `seen` was
    /// loaded (a flush or compaction published new tables).
    pub(crate) fn read_view_changed(&self, seen: &Arc<ReadView>) -> bool {
        !Arc::ptr_eq(seen, &self.read_view())
    }

    /// The current read view (live tables, newest first).
    pub(crate) fn read_view(&self) -> Arc<ReadView> {
        Arc::clone(&self.snapshot.read())
    }

    /// The frozen generations awaiting flush, oldest first.
    fn frozen_queue(&self) -> Arc<Vec<Arc<FrozenGen>>> {
        Arc::clone(&self.frozen.read())
    }

    /// Opens (or fetches from the table cache) the reader for a live
    /// table.
    pub(crate) fn open_reader(&self, meta: &TableMeta) -> Result<Arc<SstableReader>, Error> {
        self.table_cache
            .get_or_open(self.storage.as_ref(), meta.table_id, Some(meta.encoded_len))
    }

    /// The read context range scans fetch blocks through: cached blocks
    /// are used, fetched ones are not inserted (a long scan must not
    /// flush the hot set), [`SCAN_READAHEAD_BLOCKS`] per ranged read.
    pub(crate) fn scan_read_ctx(&self) -> ReadContext<'_> {
        ReadContext {
            storage: self.storage.as_ref(),
            block_cache: Some(&self.block_cache),
            fill_cache: false,
            readahead_blocks: SCAN_READAHEAD_BLOCKS,
            counters: &self.read_counters,
        }
    }

    /// Copies the active memtable's in-range entries out under a brief
    /// read lock (the scan's frozen memtable view).
    pub(crate) fn memtable_range(
        &self,
        start: &std::ops::Bound<Key>,
        end: &std::ops::Bound<Key>,
    ) -> Vec<Entry> {
        self.memtable.read().range(start, end)
    }

    /// In-range entries of each frozen memtable generation, oldest
    /// first — spliced into a scan between the sstables and the active
    /// memtable (newer frozen generations take precedence over older).
    pub(crate) fn frozen_ranges(
        &self,
        start: &std::ops::Bound<Key>,
        end: &std::ops::Bound<Key>,
    ) -> Vec<Vec<Entry>> {
        self.frozen_queue()
            .iter()
            .map(|gen| gen.memtable.range(start, end))
            .collect()
    }

    /// Every buffered range tombstone visible at `upto`, from the
    /// active memtable and all frozen generations — the memtable side
    /// of a scan's range-delete filter (table-resident tombstones are
    /// collected from the scan's pinned readers).
    pub(crate) fn memtable_range_dels(&self, upto: SeqNo) -> Vec<RangeTombstone> {
        let active = self.memtable.read();
        let frozen = self.frozen_queue();
        std::iter::once(&*active)
            .chain(frozen.iter().map(|gen| &gen.memtable))
            .flat_map(Memtable::range_dels)
            .filter(|rd| rd.seqno <= upto)
            .cloned()
            .collect()
    }

    /// Counts tables a range scan skipped by their min/max key range.
    pub(crate) fn record_range_pruned(&self, pruned: u64) {
        if pruned > 0 {
            self.range_pruned_tables
                .fetch_add(pruned, Ordering::Relaxed);
        }
    }

    /// Records one range-scan `next()` call's latency
    /// ([`RangeIter`](crate::scan::RangeIter) reports each step here).
    pub(crate) fn record_scan_next(&self, elapsed: Duration) {
        self.metrics.scan_next.record_duration(elapsed);
    }

    fn publish_snapshot(&self, manifest: &Manifest) {
        *self.snapshot.write() = Arc::new(ReadView::from_manifest(manifest));
    }
}

impl WriteState {
    /// Appends `records` to the active WAL segment as one frame and
    /// counts it; a no-op with the WAL off. The write is acked only if
    /// this returns `Ok`.
    fn log(&mut self, storage: &dyn Storage, records: &[WalRecord]) -> Result<(), Error> {
        let Some(wal) = &mut self.wal else {
            return Ok(());
        };
        let before = wal.segment_len();
        wal.append_batch(storage, records)?;
        self.wal_appends += 1;
        self.wal_bytes_written += wal.segment_len() - before;
        Ok(())
    }
}

impl ReadView {
    /// Builds the probe-order (newest-first) view of a manifest.
    ///
    /// Probe order is by `max_seqno`, descending: live tables hold
    /// pairwise-disjoint sequence ranges, so the table with the larger
    /// `max_seqno` holds strictly newer data and a first-hit probe can
    /// stop there. Manifest position alone is not newest-first — a GC
    /// rewrite or partial merge re-appends *old* data at the manifest
    /// tail.
    fn from_manifest(manifest: &Manifest) -> Self {
        let mut tables: Vec<TableMeta> = manifest.tables().iter().rev().cloned().collect();
        tables.sort_by_key(|t| std::cmp::Reverse(t.max_seqno));
        Self { tables }
    }
}

/// Runs `op`, recording its wall-clock into `timer`.
fn timed<T>(timer: &obs::LatencyHistogram, op: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = op();
    timer.record_duration(started.elapsed());
    out
}

/// `true` for the error a get or scan sees when a table it probes was
/// retired by compaction and its blob already deleted.
pub(crate) fn is_retired_table(e: &Error) -> bool {
    matches!(e, Error::Io(io) if io.kind() == std::io::ErrorKind::NotFound)
}

// The KV service shares one `Lsm` per shard across every worker thread:
// reads work from a cloned view, never the write mutex, while writes
// serialize on it. Checked at compile time.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<Lsm>();

/// Maps a (possibly tombstone) entry to the user-visible value.
fn visible(entry: Entry) -> Option<Value> {
    if entry.is_tombstone() {
        None
    } else {
        Some(entry.value)
    }
}

/// Applies a covering range tombstone to a same-layer point hit: the
/// version is deleted when the tombstone is strictly newer.
fn resolve(entry: Entry, shadow: Option<SeqNo>) -> Option<Value> {
    if shadow.is_some_and(|rd| entry.seqno < rd) {
        None
    } else {
        visible(entry)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;

    use super::*;
    use crate::test_support::GatedStorage;
    use crate::CompactionPolicy;

    fn small_db() -> Lsm {
        Lsm::open_in_memory(LsmOptions::default().memtable_capacity(10)).unwrap()
    }

    fn get_vec(db: &Lsm, key: u64) -> Option<Vec<u8>> {
        db.get(key).unwrap().map(|v| v.to_vec())
    }

    /// Polls `cond` until it holds or `deadline` elapses.
    fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        cond()
    }

    /// Snapshots the durable bytes of `src` into a fresh memory store —
    /// what a crash-and-reboot would find on disk.
    fn copy_storage(src: &dyn Storage) -> Arc<dyn Storage> {
        let dst = MemoryStorage::new();
        for blob in src.list_blobs() {
            dst.write_blob(&blob, &src.read_blob(&blob).unwrap())
                .unwrap();
        }
        Arc::new(dst)
    }

    /// Background-maintenance options with the stall tiers pushed out
    /// of the way, so tests control exactly which mechanism fires.
    fn bg_options(capacity: usize) -> LsmOptions {
        LsmOptions::default()
            .memtable_capacity(capacity)
            .background_maintenance(true)
            .slowdown_trigger(100)
            .stop_trigger(100)
    }

    #[test]
    fn put_get_delete_in_memtable() {
        let db = small_db();
        db.put(1, b"one".to_vec()).unwrap();
        assert_eq!(get_vec(&db, 1), Some(b"one".to_vec()));
        db.delete(1).unwrap();
        assert_eq!(get_vec(&db, 1), None);
        assert_eq!(get_vec(&db, 2), None);
        assert_eq!(db.stats().puts, 1);
        assert_eq!(db.stats().deletes, 1);
        assert_eq!(db.stats().gets, 3);
    }

    #[test]
    fn automatic_flush_on_capacity() {
        let db = small_db();
        for i in 0..25u64 {
            db.put(i, vec![b'x']).unwrap();
        }
        assert!(db.stats().flushes >= 2, "memtable capacity 10 ⇒ ≥2 flushes");
        assert!(db.live_tables().len() >= 2);
        // All keys remain readable across memtable + sstables.
        for i in 0..25u64 {
            assert_eq!(get_vec(&db, i), Some(vec![b'x']), "key {i}");
        }
    }

    #[test]
    fn newest_version_wins_across_tables() {
        let db = small_db();
        db.put(7, b"v1".to_vec()).unwrap();
        db.flush().unwrap();
        db.put(7, b"v2".to_vec()).unwrap();
        db.flush().unwrap();
        assert_eq!(get_vec(&db, 7), Some(b"v2".to_vec()));

        db.delete(7).unwrap();
        db.flush().unwrap();
        assert_eq!(get_vec(&db, 7), None, "tombstone shadows older puts");
    }

    #[test]
    fn major_compact_collapses_to_one_table() {
        let db = small_db();
        for i in 0..40u64 {
            db.put(i % 20, format!("v{i}").into_bytes()).unwrap();
        }
        db.delete(3).unwrap();
        db.flush().unwrap();
        let n = db.live_tables().len();
        assert!(n >= 2);

        // Left-to-right caterpillar schedule over the live tables.
        let mut steps = Vec::new();
        let mut acc = 0usize;
        for next in 1..n {
            let output_slot = n + steps.len();
            steps.push(CompactionStep::new(vec![acc, next]));
            acc = output_slot;
        }
        let outcome = db.major_compact(&steps).unwrap();
        assert_eq!(db.live_tables().len(), 1);
        assert_eq!(outcome.merge_ops, n - 1);
        assert!(outcome.entry_cost() > 0);

        // Data integrity after compaction.
        assert_eq!(get_vec(&db, 3), None);
        for i in 0..20u64 {
            if i == 3 {
                continue;
            }
            assert!(get_vec(&db, i).is_some(), "key {i} lost by compaction");
        }
        assert_eq!(db.stats().compactions, 1);
    }

    #[test]
    fn scan_all_merges_memtable_and_tables() {
        let db = small_db();
        for i in 0..15u64 {
            db.put(i, vec![i as u8]).unwrap();
        }
        db.delete(2).unwrap();
        // No explicit flush: some keys live in sstables (auto-flushed), the
        // rest in the memtable.
        let all = db.scan_all().unwrap();
        let keys: Vec<u64> = all
            .iter()
            .map(|(k, _)| crate::types::key_to_u64(k).unwrap())
            .collect();
        assert_eq!(keys.len(), 14);
        assert!(!keys.contains(&2));
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "scan is sorted");
    }

    #[test]
    fn wal_recovery_restores_unflushed_writes() {
        let storage: Arc<dyn Storage> = Arc::new(MemoryStorage::new());
        {
            let db = Lsm::open(
                Arc::clone(&storage),
                LsmOptions::default().memtable_capacity(100),
            )
            .unwrap();
            db.put(1, b"persisted".to_vec()).unwrap();
            db.put(2, b"also".to_vec()).unwrap();
            db.delete(2).unwrap();
            // Dropped without flush: data only in WAL — one frame per
            // write, each written once, nothing else between them.
            let stats = db.stats();
            assert_eq!(stats.wal_appends, 3);
            let segment = Wal::generation_blob_name(0);
            assert_eq!(stats.wal_bytes_written, storage.blob_len(&segment).unwrap());
        }
        let written = storage.bytes_written();
        let reopened = Lsm::open(
            Arc::clone(&storage),
            LsmOptions::default().memtable_capacity(100),
        )
        .unwrap();
        assert_eq!(get_vec(&reopened, 1), Some(b"persisted".to_vec()));
        assert_eq!(get_vec(&reopened, 2), None);
        assert_eq!(reopened.memtable_len(), 2);
        // Recovery re-persisted the three records as one frame, and that
        // is all it wrote.
        let stats = reopened.stats();
        assert_eq!(stats.wal_appends, 1);
        assert_eq!(stats.wal_bytes_written, storage.bytes_written() - written);
    }

    #[test]
    fn disk_backed_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("lsm-db-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let db = Lsm::open_on_disk(&dir, LsmOptions::default().memtable_capacity(4)).unwrap();
            for i in 0..10u64 {
                db.put(i, format!("d{i}").into_bytes()).unwrap();
            }
            db.flush().unwrap();
        }
        {
            let db = Lsm::open_on_disk(&dir, LsmOptions::default().memtable_capacity(4)).unwrap();
            for i in 0..10u64 {
                assert_eq!(get_vec(&db, i), Some(format!("d{i}").into_bytes()));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threshold_policy_compacts_without_manual_steps() {
        let db = Lsm::open_in_memory(
            LsmOptions::default()
                .memtable_capacity(10)
                .compaction_policy(CompactionPolicy::Threshold { live_tables: 4 })
                .wal(false),
        )
        .unwrap();
        for i in 0..200u64 {
            db.put(i % 60, vec![i as u8]).unwrap();
        }
        db.flush().unwrap();
        assert!(
            db.live_tables().len() < 4,
            "policy keeps the live-table count below the threshold"
        );
        assert!(db.stats().auto_compactions >= 1);
        assert!(db.stats().compaction_entry_cost() > 0);
        assert!(db.stats().compaction_stall > Duration::ZERO);
        // Data integrity under policy-driven compaction.
        for i in 0..60u64 {
            assert!(get_vec(&db, i).is_some(), "key {i}");
        }
    }

    /// Two caller-driven writers both rotate memtables past the
    /// threshold while the other may be mid-flush or mid-compaction. A
    /// step takes `flush_mx` / `compaction_mx` only after the write
    /// guard is gone, so neither can hold `write` while waiting for the
    /// other's step — and `flush_mx` keeps them from flushing one
    /// generation twice.
    #[test]
    fn concurrent_inline_writers_compact_without_deadlock() {
        const KEYS_PER_WRITER: u64 = 400;
        let ring = EventRing::new(1 << 14);
        let db = Arc::new(
            Lsm::open_in_memory(
                LsmOptions::default()
                    .memtable_capacity(4)
                    .compaction_policy(CompactionPolicy::Threshold { live_tables: 2 })
                    .event_sink(ring.clone(), 0),
            )
            .unwrap(),
        );
        let start = Arc::new(std::sync::Barrier::new(2));
        let (done, finished) = std::sync::mpsc::channel();
        for writer in 0..2u64 {
            let (db, start, done) = (Arc::clone(&db), Arc::clone(&start), done.clone());
            std::thread::spawn(move || {
                start.wait();
                for i in 0..KEYS_PER_WRITER {
                    let key = writer * KEYS_PER_WRITER + i;
                    db.put(key, key.to_be_bytes().to_vec()).unwrap();
                }
                done.send(()).unwrap();
            });
        }
        for _ in 0..2 {
            finished
                .recv_timeout(Duration::from_secs(120))
                .expect("a writer deadlocked or panicked");
        }
        assert!(db.stats().auto_compactions >= 2);
        for key in 0..2 * KEYS_PER_WRITER {
            assert_eq!(get_vec(&db, key), Some(key.to_be_bytes().to_vec()));
        }
        // Each writer drained the queue before its last put returned,
        // and every flush published a generation nobody else flushed.
        assert_eq!(db.frozen_queue_depth(), 0);
        let drained = ring.since(0, usize::MAX);
        assert_eq!(drained.dropped, 0, "ring overflowed during the test");
        let published: Vec<u64> = drained
            .events
            .iter()
            .filter(|e| e.kind == EventKind::FlushPublish)
            .map(|e| e.field("generation").unwrap())
            .collect();
        let distinct: std::collections::BTreeSet<u64> = published.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            published.len(),
            "a generation flushed twice"
        );
        assert_eq!(db.stats().flushes, distinct.len() as u64);
    }

    /// The option picks who drives the pipeline, not what it does: one
    /// op list leaves the same contents, the same tables and the same
    /// flush count under either driver.
    #[test]
    fn both_drivers_leave_the_same_store_for_one_op_list() {
        let run = |threaded: bool| {
            let db = Lsm::open_in_memory(bg_options(8).background_maintenance(threaded)).unwrap();
            for i in 0..200u64 {
                match i % 9 {
                    4 => db.delete(i / 2).unwrap(),
                    7 => db.delete_range(i % 50, i % 50 + 3).unwrap(),
                    _ => db.put(i % 60, format!("v{i}").into_bytes()).unwrap(),
                }
            }
            db.flush().unwrap();
            assert_eq!(db.frozen_queue_depth(), 0);
            let tables: Vec<u64> = db.live_tables().iter().map(|t| t.entry_count).collect();
            (db.scan_all().unwrap(), tables, db.stats().flushes)
        };
        let (caller, threaded) = (run(false), run(true));
        assert!(caller.2 >= 10, "the op list rotates many memtables");
        assert_eq!(caller, threaded);
    }

    #[test]
    fn auto_compact_runs_on_demand_under_the_manual_policy() {
        // Nothing fires automatically, but auto_compact works on demand
        // with zero manual CompactionStep construction.
        let manual =
            Lsm::open_in_memory(LsmOptions::default().memtable_capacity(5).wal(false)).unwrap();
        for i in 0..30u64 {
            manual.put(i, b"x".to_vec()).unwrap();
        }
        manual.flush().unwrap();
        assert!(manual.live_tables().len() >= 4);
        let run = manual.auto_compact().unwrap().expect("tables to merge");
        assert_eq!(manual.live_tables().len(), 1);
        assert_eq!(run.outcome.merge_ops, run.plan.steps().len());
        assert_eq!(
            run.outcome.entry_cost(),
            run.plan.predicted_cost_actual(),
            "exact observations over u64 keys predict the physical cost exactly"
        );
        assert_eq!(manual.stats().auto_compactions, 1);
        assert_eq!(
            manual.stats().compaction_predicted_cost,
            run.plan.predicted_cost_actual()
        );
    }

    #[test]
    fn parallel_threads_preserve_contents_under_policy() {
        let run = |threads: usize| {
            let db = Lsm::open_in_memory(
                LsmOptions::default()
                    .memtable_capacity(8)
                    .compaction_policy(CompactionPolicy::Threshold { live_tables: 6 })
                    .compaction_strategy(compaction_core::Strategy::BalanceTreeInput)
                    .compaction_threads(threads)
                    .wal(false),
            )
            .unwrap();
            for i in 0..300u64 {
                db.put(i % 100, format!("v{i}").into_bytes()).unwrap();
            }
            db.flush().unwrap();
            db.scan_all().unwrap()
        };
        assert_eq!(run(1), run(4), "contents are thread-count independent");
    }

    #[test]
    fn orphan_blobs_are_swept_on_open() {
        let storage: Arc<dyn Storage> = Arc::new(MemoryStorage::new());
        {
            let db = Lsm::open(
                Arc::clone(&storage),
                LsmOptions::default().memtable_capacity(5),
            )
            .unwrap();
            for i in 0..20u64 {
                db.put(i, b"x".to_vec()).unwrap();
            }
            db.flush().unwrap();
        }
        // Simulate a crash that left a compaction output blob behind
        // without a manifest entry.
        storage
            .write_blob(&SstableReader::blob_name(9_999), b"garbage-orphan")
            .unwrap();
        assert!(storage.contains_blob(&SstableReader::blob_name(9_999)));
        let db = Lsm::open(
            Arc::clone(&storage),
            LsmOptions::default().memtable_capacity(5),
        )
        .unwrap();
        assert!(
            !storage.contains_blob(&SstableReader::blob_name(9_999)),
            "orphan swept on open"
        );
        for i in 0..20u64 {
            assert_eq!(get_vec(&db, i), Some(b"x".to_vec()));
        }
    }

    #[test]
    fn write_batch_applies_in_order_with_one_flush() {
        let db = small_db();
        let mut batch = WriteBatch::with_capacity(25);
        for i in 0..25u64 {
            batch.put(i, format!("b{i}").into_bytes().into());
        }
        batch.delete(3).put(4, b"rewritten".to_vec().into());
        db.write_batch(batch).unwrap();
        // 27 ops against a capacity-10 memtable: one pass, one flush.
        assert_eq!(db.stats().flushes, 1, "single flush at the end");
        assert_eq!(db.stats().write_batches, 1);
        assert_eq!(db.stats().puts, 26);
        assert_eq!(db.stats().deletes, 1);
        assert_eq!(get_vec(&db, 3), None, "in-batch order respected");
        assert_eq!(get_vec(&db, 4), Some(b"rewritten".to_vec()));
        for i in 5..25u64 {
            assert_eq!(get_vec(&db, i), Some(format!("b{i}").into_bytes()));
        }
        // Empty batch is a no-op.
        db.write_batch(WriteBatch::new()).unwrap();
        assert_eq!(db.stats().write_batches, 1);
    }

    #[test]
    fn write_batch_survives_crash_recovery() {
        let storage: Arc<dyn Storage> = Arc::new(MemoryStorage::new());
        {
            let db = Lsm::open(
                Arc::clone(&storage),
                LsmOptions::default().memtable_capacity(100),
            )
            .unwrap();
            let mut batch = WriteBatch::new();
            batch
                .put(1, b"one".to_vec().into())
                .put(2, b"two".to_vec().into())
                .delete(1);
            db.write_batch(batch).unwrap();
            // Dropped without flush: the batch lives only in the WAL.
        }
        let reopened = Lsm::open(storage, LsmOptions::default().memtable_capacity(100)).unwrap();
        assert_eq!(get_vec(&reopened, 1), None);
        assert_eq!(get_vec(&reopened, 2), Some(b"two".to_vec()));
    }

    #[test]
    fn stats_absorb_is_the_element_wise_sum_over_the_counter_list() {
        // Fill every counter the list declares with a distinct value,
        // so a field that `absorb` skipped — or one declared outside
        // the list — cannot hide behind a zero.
        let filled = |scale: u64| {
            let mut stats = LsmStats::default();
            for (i, slot) in stats.counters_mut().into_iter().enumerate() {
                *slot = scale * (i as u64 + 1);
            }
            stats
        };
        let (mut a, mut b) = (filled(1), filled(1_000));
        a.compaction_stall = Duration::from_millis(5);
        b.compaction_stall = Duration::from_millis(7);
        let want: Vec<(&str, u64)> = a
            .counters()
            .into_iter()
            .zip(b.counters())
            .map(|((name, x), (_, y))| (name, x + y))
            .collect();
        assert!(want.iter().all(|&(_, sum)| sum > 0));
        a.absorb(&b);
        assert_eq!(a.counters(), want);
        assert_eq!(a.compaction_stall, Duration::from_millis(12));
        // Named spot checks tie list positions to the struct's fields.
        assert_eq!(a.puts, 1_001);
        assert_eq!(a.snapshots_created, 1_001 * want.len() as u64);
    }

    /// One blob per table: after puts and deletes, a `Threshold`
    /// compaction, tombstone GC and a reopen, every blob is a live
    /// table's, a WAL segment, a `MANIFEST-*` checkpoint or `CURRENT`,
    /// and a fresh flush's table observes exactly its keys.
    fn assert_blob_inventory(storage: Arc<dyn Storage>) {
        let options = || {
            LsmOptions::default()
                .memtable_capacity(5)
                .compaction_policy(CompactionPolicy::Threshold { live_tables: 4 })
        };
        let assert_inventory = |db: &Lsm| {
            let live: Vec<String> = db
                .live_tables()
                .iter()
                .map(|t| SstableReader::blob_name(t.table_id))
                .collect();
            let blobs = storage.list_blobs();
            for blob in &blobs {
                assert!(
                    live.contains(blob)
                        || Wal::parse_generation(blob).is_some()
                        || blob.starts_with("MANIFEST-")
                        || blob == crate::manifest::CURRENT_BLOB,
                    "stray blob {blob} in {blobs:?}"
                );
            }
            assert!(live.iter().all(|t| blobs.contains(t)), "{blobs:?}");
        };
        {
            let db = Lsm::open(Arc::clone(&storage), options()).unwrap();
            for i in 0..50u64 {
                db.put(i % 20, vec![i as u8]).unwrap();
            }
            db.flush().unwrap();
            assert!(db.stats().auto_compactions >= 1);
            // Tombstones for keys no other table holds: GC drops them.
            for i in 1_000..1_003u64 {
                db.delete(i).unwrap();
            }
            db.flush().unwrap();
            assert_eq!(db.gc_tombstones().unwrap(), 3);
            assert_inventory(&db);
        }
        let db = Lsm::open(Arc::clone(&storage), options()).unwrap();
        assert_inventory(&db);
        for i in 500..504u64 {
            db.put(i, b"x".to_vec()).unwrap();
        }
        let table_id = db.flush().unwrap().expect("flush produced a table");
        let fresh: Vec<TableMeta> = db
            .live_tables()
            .into_iter()
            .filter(|t| t.table_id == table_id)
            .collect();
        let observed = crate::planner::observe_tables(storage.as_ref(), &fresh).unwrap();
        assert_eq!(
            observed[0].keys,
            compaction_core::KeySet::from_range(500..504)
        );
        assert_inventory(&db);
    }

    #[test]
    fn every_blob_is_a_live_table_a_wal_segment_or_the_manifest() {
        assert_blob_inventory(Arc::new(MemoryStorage::new()));
        let dir = std::env::temp_dir().join(format!("lsm-db-inventory-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        assert_blob_inventory(Arc::new(FileStorage::open(&dir).unwrap()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_disabled_still_works_without_durability() {
        let db =
            Lsm::open_in_memory(LsmOptions::default().memtable_capacity(5).wal(false)).unwrap();
        for i in 0..12u64 {
            db.put(i, b"x".to_vec()).unwrap();
        }
        assert_eq!(get_vec(&db, 11), Some(b"x".to_vec()));
    }

    #[test]
    fn get_is_sharable_across_threads() {
        let db = Arc::new(
            Lsm::open_in_memory(LsmOptions::default().memtable_capacity(8).wal(false)).unwrap(),
        );
        for i in 0..64u64 {
            db.put(i, vec![i as u8]).unwrap();
        }
        db.flush().unwrap();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    for i in 0..64u64 {
                        assert_eq!(get_vec(&db, i), Some(vec![i as u8]), "thread {t} key {i}");
                    }
                });
            }
        });
        assert_eq!(db.stats().gets, 4 * 64);
    }

    #[test]
    fn warm_reads_serve_from_caches() {
        let db = Lsm::open_in_memory(
            LsmOptions::default()
                .memtable_capacity(50)
                .block_size(256)
                .wal(false),
        )
        .unwrap();
        for i in 0..200u64 {
            db.put(i, format!("value-{i}").into_bytes()).unwrap();
        }
        db.flush().unwrap();
        assert!(db.live_tables().len() >= 2);

        // Cold read: opens readers, fetches one block per probed table.
        assert_eq!(get_vec(&db, 77), Some(b"value-77".to_vec()));
        let cold = db.stats();
        assert!(cold.data_block_reads >= 1);

        // Warm read of the same key: zero new storage block fetches.
        let bytes_before = db.storage().bytes_read();
        assert_eq!(get_vec(&db, 77), Some(b"value-77".to_vec()));
        let warm = db.stats();
        assert_eq!(
            warm.data_block_reads, cold.data_block_reads,
            "warm read fetched a block"
        );
        assert_eq!(
            db.storage().bytes_read(),
            bytes_before,
            "warm read did storage I/O"
        );
        assert!(warm.block_cache_hits > cold.block_cache_hits);
        assert!(db.table_cache_len() >= 1);
        assert!(db.block_cache_usage_bytes() > 0);
    }

    // ---- background flush & compaction ----

    #[test]
    fn background_flush_serves_reads_and_persists() {
        let db = Lsm::open_in_memory(bg_options(4).wal(false)).unwrap();
        for i in 0..20u64 {
            db.put(i, format!("v{i}").into_bytes()).unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.frozen_queue_depth(), 0, "flush drains the queue");
        assert!(!db.live_tables().is_empty());
        let stats = db.stats();
        assert_eq!(stats.flushes, 5, "20 keys, 4 per memtable");
        // The thread counts a step after running it, so its count may
        // trail the step that emptied the queue `flush()` waited on.
        assert!(
            (4..=5).contains(&stats.bg_flushes),
            "every flush step ran on the flush thread, got {}",
            stats.bg_flushes
        );
        for i in 0..20u64 {
            assert_eq!(get_vec(&db, i), Some(format!("v{i}").into_bytes()));
        }
    }

    #[test]
    fn crash_with_frozen_queue_replays_all_acked_writes() {
        let gated = Arc::new(GatedStorage::new());
        gated.close_gate();
        let db = Lsm::open(Arc::clone(&gated) as Arc<dyn Storage>, bg_options(4)).unwrap();
        for i in 0..10u64 {
            db.put(i, format!("v{i}").into_bytes()).unwrap();
        }
        // Capacity 4 ⇒ rotations after keys 3 and 7; the flush thread is
        // parked on the storage gate, so both generations stay queued.
        assert!(
            db.frozen_queue_depth() >= 2,
            "two memtable generations frozen behind the gated flush"
        );
        // Simulate a crash: the process vanishes without drop (a normal
        // drop would join the flush thread, which is parked on the gate
        // for the rest of this test).
        std::mem::forget(db);
        let reopened = Lsm::open(
            copy_storage(gated.as_ref()),
            LsmOptions::default().memtable_capacity(100),
        )
        .unwrap();
        for i in 0..10u64 {
            assert_eq!(
                get_vec(&reopened, i),
                Some(format!("v{i}").into_bytes()),
                "acked write {i} lost across the crash"
            );
        }
        assert_eq!(reopened.memtable_len(), 10, "all records replayed from WAL");
    }

    #[test]
    fn gated_flush_thread_still_serves_frozen_reads_and_scans() {
        let gated = Arc::new(GatedStorage::new());
        gated.close_gate();
        let db = Lsm::open(Arc::clone(&gated) as Arc<dyn Storage>, bg_options(4)).unwrap();
        for i in 0..10u64 {
            db.put(i, format!("v{i}").into_bytes()).unwrap();
        }
        assert!(db.frozen_queue_depth() >= 2);
        assert_eq!(db.live_tables().len(), 0, "nothing flushed yet");
        // Point reads and scans serve straight from the frozen queue.
        for i in 0..10u64 {
            assert_eq!(get_vec(&db, i), Some(format!("v{i}").into_bytes()));
        }
        let all = db.scan_all().unwrap();
        assert_eq!(all.len(), 10, "scan sees frozen-queue data");
        let keys: Vec<u64> = all
            .iter()
            .map(|(k, _)| crate::types::key_to_u64(k).unwrap())
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "scan is sorted");

        gated.open_gate();
        db.flush().unwrap();
        assert_eq!(db.frozen_queue_depth(), 0);
        assert!(db.live_tables().len() >= 2);
        assert!(db.stats().bg_flushes >= 2);
        for i in 0..10u64 {
            assert_eq!(get_vec(&db, i), Some(format!("v{i}").into_bytes()));
        }
    }

    #[test]
    fn wal_segments_survive_until_their_generation_flushes() {
        let gated = Arc::new(GatedStorage::new());
        gated.close_gate();
        let db = Lsm::open(Arc::clone(&gated) as Arc<dyn Storage>, bg_options(2)).unwrap();
        for i in 0..6u64 {
            db.put(i, b"x".to_vec()).unwrap();
        }
        assert_eq!(db.frozen_queue_depth(), 3);
        let live = Wal::live_segments(gated.as_ref() as &dyn Storage);
        assert!(
            live.len() >= 3,
            "one live WAL segment per unflushed generation, got {live:?}"
        );
        gated.open_gate();
        db.flush().unwrap();
        let after = Wal::live_segments(gated.as_ref() as &dyn Storage);
        assert!(
            after.len() <= 1,
            "flushed generations retired their segments, got {after:?}"
        );
    }

    #[test]
    fn drop_drains_frozen_queue() {
        let storage: Arc<dyn Storage> = Arc::new(MemoryStorage::new());
        {
            let gated = Arc::new(GatedStorage::new());
            gated.close_gate();
            // WAL off: after drop, the data can only have survived via
            // the flush thread draining the queue into sstables.
            let db = Lsm::open(
                Arc::clone(&gated) as Arc<dyn Storage>,
                bg_options(4).wal(false),
            )
            .unwrap();
            for i in 0..8u64 {
                db.put(i, format!("v{i}").into_bytes()).unwrap();
            }
            assert!(db.frozen_queue_depth() >= 1);
            gated.open_gate();
            drop(db);
            // Copy the drained bytes onto the outer storage for reopen.
            for blob in gated.list_blobs() {
                storage
                    .write_blob(&blob, &gated.read_blob(&blob).unwrap())
                    .unwrap();
            }
        }
        let reopened = Lsm::open(storage, LsmOptions::default().memtable_capacity(100)).unwrap();
        for i in 0..8u64 {
            assert_eq!(
                get_vec(&reopened, i),
                Some(format!("v{i}").into_bytes()),
                "drop abandoned key {i} in a frozen memtable"
            );
        }
        assert_eq!(reopened.memtable_len(), 0, "data came from sstables");
    }

    #[test]
    fn slowdown_tier_delays_and_releases() {
        let gated = Arc::new(GatedStorage::new());
        gated.close_gate();
        let db = Lsm::open(
            Arc::clone(&gated) as Arc<dyn Storage>,
            LsmOptions::default()
                .memtable_capacity(2)
                .background_maintenance(true)
                .slowdown_trigger(1)
                .stop_trigger(100),
        )
        .unwrap();
        db.put(0, b"x".to_vec()).unwrap();
        db.put(1, b"x".to_vec()).unwrap();
        assert_eq!(db.frozen_queue_depth(), 1);
        assert_eq!(db.pressure().stall_tier, StallTier::Slowdown);
        db.put(2, b"x".to_vec()).unwrap();
        let stats = db.stats();
        assert!(stats.slowdown_stalls >= 1, "write was delayed");
        assert!(
            stats.compaction_stall > Duration::ZERO,
            "the slowdown sleep is timed into the unified stall source"
        );

        gated.open_gate();
        assert!(
            wait_until(Duration::from_secs(2), || db.frozen_queue_depth() == 0),
            "flush thread drained after the gate opened"
        );
        assert_eq!(db.pressure().stall_tier, StallTier::None, "tier released");
        let before = db.stats().slowdown_stalls;
        db.put(3, b"x".to_vec()).unwrap();
        assert_eq!(
            db.stats().slowdown_stalls,
            before,
            "no delay once maintenance caught up"
        );
    }

    #[test]
    fn stop_tier_blocks_and_releases() {
        let gated = Arc::new(GatedStorage::new());
        gated.close_gate();
        let db = Lsm::open(
            Arc::clone(&gated) as Arc<dyn Storage>,
            LsmOptions::default()
                .memtable_capacity(2)
                .background_maintenance(true)
                .slowdown_trigger(1)
                .stop_trigger(2),
        )
        .unwrap();
        for i in 0..4u64 {
            db.put(i, b"x".to_vec()).unwrap();
        }
        assert_eq!(db.frozen_queue_depth(), 2);
        assert_eq!(db.pressure().stall_tier, StallTier::Stop);
        assert_eq!(db.stats().frozen_queue_depth, 2, "stats gauge agrees");

        let blocked_done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                db.put(99, b"blocked".to_vec()).unwrap();
                blocked_done.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(50));
            assert!(
                !blocked_done.load(Ordering::SeqCst),
                "stop tier blocks the writer while maintenance is stuck"
            );
            gated.open_gate();
            // Scope join: the writer must complete once the queue drains.
        });
        assert!(blocked_done.load(Ordering::SeqCst));
        assert!(db.stats().stop_stalls >= 1);
        assert_eq!(get_vec(&db, 99), Some(b"blocked".to_vec()));
        assert!(
            wait_until(Duration::from_secs(2), || {
                db.pressure().stall_tier == StallTier::None
            }),
            "tier released after drain"
        );
    }

    #[test]
    fn background_threshold_policy_bounds_tables() {
        let db = Lsm::open_in_memory(
            bg_options(8)
                .wal(false)
                .compaction_policy(CompactionPolicy::Threshold { live_tables: 4 }),
        )
        .unwrap();
        for i in 0..400u64 {
            db.put(i % 100, format!("v{i}").into_bytes()).unwrap();
        }
        db.flush().unwrap();
        assert!(
            wait_until(Duration::from_secs(5), || {
                db.stats().auto_compactions >= 1 && db.live_tables().len() < 4
            }),
            "the scheduler thread compacted below the threshold, tables={}",
            db.live_tables().len()
        );
        for i in 0..100u64 {
            assert!(get_vec(&db, i).is_some(), "key {i}");
        }
        let stats = db.stats();
        assert!(stats.bg_flushes >= 1);
        assert!(stats.auto_compactions >= 1);
    }
}
