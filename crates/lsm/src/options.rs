//! Engine configuration.

use compaction_core::{SizeEstimator, Strategy};
use obs::EventRing;

use crate::compress::CompressionType;

/// An injected maintenance-event sink and the shard id stamped on what
/// the store records into it, compared by ring identity so
/// `LsmOptions` keeps its derived `PartialEq`/`Eq` (two option sets are
/// equal when they share the same ring, not when two distinct rings
/// happen to hold equal contents).
#[derive(Debug, Clone)]
struct EventSinkOpt {
    ring: EventRing,
    shard: u32,
}

impl PartialEq for EventSinkOpt {
    fn eq(&self, other: &Self) -> bool {
        self.ring.same_ring(&other.ring) && self.shard == other.shard
    }
}

impl Eq for EventSinkOpt {}

/// When the engine compacts on its own.
///
/// Checked by [`Lsm::maybe_compact`](crate::Lsm::maybe_compact) after
/// every memtable flush. This is the knob that turns the paper's
/// scheduling heuristics from a library the caller must drive into a
/// self-compacting engine: the policy decides *when* to compact, the
/// configured [`Strategy`] decides *what to merge in which order*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactionPolicy {
    /// No automatic triggering; planner-driven compaction runs only when
    /// the caller invokes [`Lsm::auto_compact`](crate::Lsm::auto_compact).
    /// The default, matching the seed engine's behavior.
    #[default]
    Manual,
    /// Compact automatically whenever a flush leaves at least
    /// `live_tables` sstables live (the analogue of RocksDB's
    /// `level0_file_num_compaction_trigger`). It merges the newest run of
    /// tables, not the whole store: enough to get back under
    /// `live_tables`, then each next-older table holding at most twice
    /// the entries gathered so far.
    Threshold {
        /// Live-table count that triggers a compaction (≥ 2).
        live_tables: usize,
    },
}

/// Configuration for an [`Lsm`](crate::Lsm) instance.
///
/// The defaults mirror the paper's simulator settings: memtables are
/// bounded by a *key-count* capacity (the paper's "memtable size" is the
/// number of keys before a flush) and compaction fan-in `k = 2`; the
/// final merge of a compaction that leaves no older table out drops the
/// tombstones no pinned snapshot can still observe. Compaction planning
/// defaults to the paper's recommended `BT(I)` strategy with exact size
/// observations, triggered manually.
///
/// # Examples
///
/// ```
/// use lsm_engine::{CompactionPolicy, LsmOptions};
/// use compaction_core::Strategy;
///
/// let opts = LsmOptions::default()
///     .memtable_capacity(1_000)
///     .compaction_fanin(2)
///     .compaction_policy(CompactionPolicy::Threshold { live_tables: 8 })
///     .compaction_strategy(Strategy::SmallestOutput)
///     .bloom_bits_per_key(10);
/// assert_eq!(opts.memtable_capacity_keys(), 1_000);
/// assert_ne!(opts.policy(), CompactionPolicy::Manual);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LsmOptions {
    memtable_capacity_keys: usize,
    block_size: usize,
    bloom_bits_per_key: usize,
    compaction_fanin: usize,
    wal_enabled: bool,
    compaction_policy: CompactionPolicy,
    compaction_strategy: Strategy,
    planning_estimator: SizeEstimator,
    compaction_threads: usize,
    table_cache_capacity: usize,
    block_cache_capacity_bytes: u64,
    compression: CompressionType,
    background_maintenance: bool,
    slowdown_trigger: usize,
    stop_trigger: usize,
    event_sink: Option<EventSinkOpt>,
    strict_recovery: bool,
    tombstone_gc: bool,
}

impl Default for LsmOptions {
    fn default() -> Self {
        Self {
            memtable_capacity_keys: 1_000,
            block_size: 4 * 1024,
            bloom_bits_per_key: 10,
            compaction_fanin: 2,
            wal_enabled: true,
            compaction_policy: CompactionPolicy::Manual,
            compaction_strategy: Strategy::BalanceTreeInput,
            planning_estimator: SizeEstimator::Exact,
            compaction_threads: 1,
            table_cache_capacity: 64,
            block_cache_capacity_bytes: 8 * 1024 * 1024,
            compression: CompressionType::Lz,
            background_maintenance: false,
            slowdown_trigger: 2,
            stop_trigger: 4,
            event_sink: None,
            strict_recovery: false,
            tombstone_gc: false,
        }
    }
}

impl LsmOptions {
    /// Creates the default options (equivalent to [`Default::default`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets how many distinct keys a memtable holds before it is flushed.
    /// This is the paper's "memtable size" knob (varied 10–10 000 in
    /// Figure 8).
    #[must_use]
    pub fn memtable_capacity(mut self, keys: usize) -> Self {
        self.memtable_capacity_keys = keys.max(1);
        self
    }

    /// Sets the target uncompressed size of sstable data blocks in bytes.
    #[must_use]
    pub fn block_size(mut self, bytes: usize) -> Self {
        self.block_size = bytes.max(64);
        self
    }

    /// Sets the bloom-filter budget in bits per key (0 disables blooms).
    #[must_use]
    pub fn bloom_bits_per_key(mut self, bits: usize) -> Self {
        self.bloom_bits_per_key = bits;
        self
    }

    /// Sets the compaction fan-in `k`: how many sstables a single merge
    /// operation may read (the paper's `k`, default 2).
    #[must_use]
    pub fn compaction_fanin(mut self, k: usize) -> Self {
        self.compaction_fanin = k.max(2);
        self
    }

    /// Enables or disables the write-ahead log.
    #[must_use]
    pub fn wal(mut self, enabled: bool) -> Self {
        self.wal_enabled = enabled;
        self
    }

    /// Sets when the engine compacts on its own (default
    /// [`CompactionPolicy::Manual`]).
    #[must_use]
    pub fn compaction_policy(mut self, mut policy: CompactionPolicy) -> Self {
        if let CompactionPolicy::Threshold { live_tables } = &mut policy {
            *live_tables = (*live_tables).max(2);
        }
        self.compaction_policy = policy;
        self
    }

    /// Sets the merge-scheduling strategy used by policy-driven
    /// compaction (default [`Strategy::BalanceTreeInput`], the paper's
    /// recommendation).
    #[must_use]
    pub fn compaction_strategy(mut self, strategy: Strategy) -> Self {
        self.compaction_strategy = strategy;
        self
    }

    /// Sets how the planner estimates union sizes: exact counting or
    /// HyperLogLog sketches (the paper's `SO(E)` variant).
    #[must_use]
    pub fn planning_estimator(mut self, estimator: SizeEstimator) -> Self {
        self.planning_estimator = estimator;
        self
    }

    /// Sets the maximum number of merge steps executed concurrently
    /// within one dependency wave of a compaction (default 1 =
    /// sequential; BALANCETREE schedules benefit most, as in the paper's
    /// parallel evaluation). A large table build, a step's or a flush's,
    /// may add one compression helper thread of its own.
    #[must_use]
    pub fn compaction_threads(mut self, threads: usize) -> Self {
        self.compaction_threads = threads.max(1);
        self
    }

    /// Sets how many sstable reader handles (parsed footer + bloom +
    /// index, no data blocks) the engine keeps open, LRU-evicted beyond
    /// that (default 64; clamped to ≥ 8). A warm point read resolves its
    /// tables entirely from this cache.
    #[must_use]
    pub fn table_cache_capacity(mut self, tables: usize) -> Self {
        self.table_cache_capacity = tables.max(8);
        self
    }

    /// Sets the decoded-data-block cache budget in bytes (default
    /// 8 MiB). Blocks are charged at their decoded in-memory footprint
    /// — not the (possibly compressed) stored size — and LRU-evicted;
    /// a warm point read served from this cache does zero storage I/O.
    /// Point reads insert the blocks they fetch; range scans and
    /// compaction never do, so neither can flush the hot set.
    #[must_use]
    pub fn block_cache_capacity_bytes(mut self, bytes: u64) -> Self {
        self.block_cache_capacity_bytes = bytes.max(1);
        self
    }

    /// Sets the per-block compression applied by the sstable builder
    /// (default [`CompressionType::Lz`]). Every block carries the
    /// per-block envelope — [`CompressionType::None`] stores blocks raw
    /// inside it — and blocks that do not shrink fall back to raw
    /// storage individually, so tables built under either value are
    /// readable under the other.
    #[must_use]
    pub fn compression(mut self, compression: CompressionType) -> Self {
        self.compression = compression;
        self
    }

    /// Chooses which thread drives the maintenance pipeline (freeze →
    /// flush → publish → retire → compact; the steps are the same either
    /// way). `true`: a dedicated flush thread and a compaction scheduler
    /// thread run them, so client writes never wait on sstable I/O and
    /// are paced by the stall triggers instead. `false` (the default):
    /// the thread that filled the memtable, or called
    /// [`Lsm::flush`](crate::Lsm::flush) /
    /// [`Lsm::maybe_compact`](crate::Lsm::maybe_compact), runs them
    /// itself before its call returns — deterministic, which is what the
    /// simulator and the test batteries want.
    #[must_use]
    pub fn background_maintenance(mut self, enabled: bool) -> Self {
        self.background_maintenance = enabled;
        self
    }

    /// Sets the maintenance-debt level (frozen memtables waiting on the
    /// flush thread plus live tables past the compaction trigger) at
    /// which writes are delayed by a bounded sleep (default 2, clamped
    /// to ≥ 1). The analogue of RocksDB's `level0_slowdown_writes_trigger`;
    /// only consulted when worker threads drive maintenance (a caller
    /// that drives it has nobody to wait for).
    #[must_use]
    pub fn slowdown_trigger(mut self, debt: usize) -> Self {
        self.slowdown_trigger = debt.max(1);
        self
    }

    /// Sets the maintenance-debt level at which writes block until the
    /// backlog drains below it (default 4, clamped to ≥ 2). The analogue
    /// of RocksDB's `level0_stop_writes_trigger`; writers are only
    /// stopped when worker threads drive maintenance. It is also the
    /// hard cap on frozen memtables queued for flush, under either
    /// driver: a memtable that fills while that many generations wait
    /// is not rotated but keeps absorbing writes, bounding memory.
    #[must_use]
    pub fn stop_trigger(mut self, debt: usize) -> Self {
        self.stop_trigger = debt.max(2);
        self
    }

    /// Injects a shared maintenance-event ring: the store records its
    /// lifecycle events (freezes, flushes, compactions, stall-tier
    /// transitions) into `ring` instead of a private one, each tagged
    /// with `shard`. A sharded deployment passes one ring to every shard,
    /// each with its own index, so events interleave under a single
    /// drain cursor and each says which shard emitted it.
    #[must_use]
    pub fn event_sink(mut self, ring: EventRing, shard: u32) -> Self {
        self.event_sink = Some(EventSinkOpt { ring, shard });
        self
    }

    /// Refuses to open instead of shedding history (default `false`).
    ///
    /// WAL recovery distinguishes a *torn tail* (a crash mid-append —
    /// the partial frame was never acknowledged, truncating it is
    /// lossless) from *bit rot* (a checksum-mismatched frame with valid
    /// frames after it — acknowledged history is gone). By default the
    /// engine quarantines the rotten frame, salvages the decodable
    /// frames after it, and reports the loss through
    /// [`LsmStats`](crate::LsmStats); with strict recovery the open
    /// fails with [`Error::Corruption`](crate::Error) instead, so an
    /// operator can intervene before the store serves a gapped history.
    #[must_use]
    pub fn strict_recovery(mut self, strict: bool) -> Self {
        self.strict_recovery = strict;
        self
    }

    /// Enables tombstone garbage collection (default `false`): a
    /// compaction step may rewrite the live sstable carrying the most
    /// tombstones, dropping those that provably shadow nothing — no
    /// *other* live table's bloom/min-max admits the key — reclaiming
    /// space without waiting for a merge that reaches the oldest table.
    /// GC competes with merge compaction through the planner's
    /// predicted-cost accounting and only runs when the configured
    /// policy has no merge to schedule.
    #[must_use]
    pub fn tombstone_gc(mut self, enabled: bool) -> Self {
        self.tombstone_gc = enabled;
        self
    }

    /// Memtable capacity in distinct keys.
    #[must_use]
    pub fn memtable_capacity_keys(&self) -> usize {
        self.memtable_capacity_keys
    }

    /// Data block size in bytes.
    #[must_use]
    pub fn block_size_bytes(&self) -> usize {
        self.block_size
    }

    /// Bloom filter bits per key.
    #[must_use]
    pub fn bloom_bits(&self) -> usize {
        self.bloom_bits_per_key
    }

    /// Compaction fan-in `k`.
    #[must_use]
    pub fn fanin(&self) -> usize {
        self.compaction_fanin
    }

    /// Whether the WAL is enabled.
    #[must_use]
    pub fn wal_enabled(&self) -> bool {
        self.wal_enabled
    }

    /// The configured compaction policy.
    #[must_use]
    pub fn policy(&self) -> CompactionPolicy {
        self.compaction_policy
    }

    /// The configured planning strategy.
    #[must_use]
    pub fn strategy(&self) -> Strategy {
        self.compaction_strategy
    }

    /// The configured planning estimator.
    #[must_use]
    pub fn estimator(&self) -> SizeEstimator {
        self.planning_estimator
    }

    /// The configured per-wave merge concurrency.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.compaction_threads
    }

    /// Open-reader (table) cache capacity in tables.
    #[must_use]
    pub fn table_cache_tables(&self) -> usize {
        self.table_cache_capacity
    }

    /// Block cache budget in bytes.
    #[must_use]
    pub fn block_cache_bytes(&self) -> u64 {
        self.block_cache_capacity_bytes
    }

    /// The per-block compression newly built sstables use.
    #[must_use]
    pub fn compression_type(&self) -> CompressionType {
        self.compression
    }

    /// Whether worker threads (rather than the calling thread) drive
    /// flush and compaction.
    #[must_use]
    pub fn background_maintenance_enabled(&self) -> bool {
        self.background_maintenance
    }

    /// Maintenance-debt level that delays writes (bounded sleep).
    #[must_use]
    pub fn slowdown_trigger_debt(&self) -> usize {
        self.slowdown_trigger
    }

    /// Maintenance-debt level that blocks writes until it drains, and
    /// the cap on queued frozen generations. Never below the slowdown
    /// trigger: the tiers cannot invert.
    #[must_use]
    pub fn stop_trigger_debt(&self) -> usize {
        self.stop_trigger.max(self.slowdown_trigger)
    }

    /// The injected shared event ring, if any (a cheap handle clone).
    #[must_use]
    pub fn event_sink_ring(&self) -> Option<EventRing> {
        self.event_sink.as_ref().map(|sink| sink.ring.clone())
    }

    /// The shard id stamped on this store's events (0 without a sink).
    #[must_use]
    pub fn event_sink_shard(&self) -> u32 {
        self.event_sink.as_ref().map_or(0, |sink| sink.shard)
    }

    /// Whether recovery refuses to open on acked-history loss.
    #[must_use]
    pub fn strict_recovery_enabled(&self) -> bool {
        self.strict_recovery
    }

    /// Whether tombstone GC may schedule single-table rewrites.
    #[must_use]
    pub fn tombstone_gc_enabled(&self) -> bool {
        self.tombstone_gc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_setters_clamp_and_store() {
        let opts = LsmOptions::new()
            .memtable_capacity(0)
            .block_size(1)
            .compaction_fanin(1)
            .bloom_bits_per_key(0)
            .compaction_threads(0)
            .table_cache_capacity(0)
            .block_cache_capacity_bytes(0)
            .compression(CompressionType::None)
            .background_maintenance(true)
            .slowdown_trigger(0)
            .stop_trigger(0)
            .strict_recovery(true)
            .tombstone_gc(true)
            .wal(false);
        assert_eq!(opts.memtable_capacity_keys(), 1, "capacity clamps to 1");
        assert_eq!(opts.block_size_bytes(), 64, "block size clamps to 64");
        assert_eq!(opts.fanin(), 2, "fan-in clamps to 2");
        assert_eq!(opts.threads(), 1, "threads clamp to 1");
        assert_eq!(opts.bloom_bits(), 0);
        assert_eq!(opts.table_cache_tables(), 8, "table cache clamps to 8");
        assert_eq!(opts.block_cache_bytes(), 1, "block cache clamps to 1");
        assert_eq!(opts.compression_type(), CompressionType::None);
        assert!(!opts.wal_enabled());
        assert!(opts.background_maintenance_enabled());
        assert_eq!(opts.slowdown_trigger_debt(), 1, "slowdown clamps to 1");
        assert_eq!(opts.stop_trigger_debt(), 2, "stop clamps to 2");
        assert!(opts.strict_recovery_enabled());
        assert!(opts.tombstone_gc_enabled());
    }

    #[test]
    fn stop_trigger_never_inverts_below_slowdown() {
        let opts = LsmOptions::new().slowdown_trigger(10).stop_trigger(3);
        assert_eq!(opts.slowdown_trigger_debt(), 10);
        assert_eq!(opts.stop_trigger_debt(), 10, "stop raised to slowdown");
    }

    #[test]
    fn defaults_match_paper_simulator() {
        let opts = LsmOptions::default();
        assert_eq!(opts.memtable_capacity_keys(), 1_000);
        assert_eq!(opts.fanin(), 2);
        assert_eq!(opts.policy(), CompactionPolicy::Manual);
        assert_eq!(opts.strategy(), Strategy::BalanceTreeInput);
        assert_eq!(opts.estimator(), SizeEstimator::Exact);
        assert_eq!(opts.threads(), 1);
        assert_eq!(opts.table_cache_tables(), 64);
        assert_eq!(opts.block_cache_bytes(), 8 * 1024 * 1024);
        assert_eq!(
            opts.compression_type(),
            CompressionType::Lz,
            "new tables compress their blocks by default"
        );
        assert!(
            !opts.background_maintenance_enabled(),
            "the caller drives maintenance by default, matching the seed engine"
        );
        assert_eq!(opts.slowdown_trigger_debt(), 2);
        assert_eq!(opts.stop_trigger_debt(), 4);
        assert!(
            !opts.strict_recovery_enabled(),
            "lenient recovery by default: salvage and report"
        );
        assert!(!opts.tombstone_gc_enabled());
    }

    #[test]
    fn event_sink_compares_by_ring_identity() {
        let ring = EventRing::new(8);
        let a = LsmOptions::default().event_sink(ring.clone(), 3);
        let b = LsmOptions::default().event_sink(ring.clone(), 3);
        assert_eq!(a, b, "clones of one ring compare equal");
        let c = LsmOptions::default().event_sink(EventRing::new(8), 3);
        assert_ne!(a, c, "a distinct ring is a different configuration");
        assert_ne!(a, LsmOptions::default().event_sink(ring.clone(), 4));
        assert!(a.event_sink_ring().unwrap().same_ring(&ring));
        assert_eq!(a.event_sink_shard(), 3);
        assert!(LsmOptions::default().event_sink_ring().is_none());
        assert_eq!(LsmOptions::default().event_sink_shard(), 0);
    }

    #[test]
    fn policy_clamps_the_trigger() {
        let opts =
            LsmOptions::default().compaction_policy(CompactionPolicy::Threshold { live_tables: 0 });
        assert_eq!(
            opts.policy(),
            CompactionPolicy::Threshold { live_tables: 2 }
        );
    }
}
