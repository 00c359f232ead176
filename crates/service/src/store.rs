//! The sharded store: N independent LSM shards; reads skip the write mutex.
//!
//! Each shard is a complete [`Lsm`] instance — its own memtable, WAL,
//! manifest, [`CompactionPolicy`](lsm_engine::CompactionPolicy), table
//! cache and block cache. Since the read-path overhaul the engine itself
//! is `&self` end to end: writes serialize on the shard's *internal*
//! write mutex, while `GET`s probe a wholesale-replaced snapshot
//! through the caches and **never acquire a lock the write path holds**.
//! A `GET` on shard 0 proceeds while shard 0 — not just shard 3 — is
//! inside a policy-triggered compaction: the "read availability while
//! compaction runs" scenario the paper motivates, now held per shard,
//! not only across shards.
//!
//! Batches are re-grouped per shard ([`ShardedKv::apply_batch`]): each
//! shard receives one [`WriteBatch`] and pays one WAL frame + one
//! memtable pass, whatever the batch size. Atomicity is per shard — a
//! crash can surface shard A's half of a cross-shard batch without shard
//! B's; each shard's half is itself all-or-nothing.

use std::ops::RangeBounds;
use std::path::PathBuf;
use std::sync::Arc;

use lsm_engine::{
    EventRing, FileStorage, HistogramSnapshot, IntoKey, Key, Lsm, LsmOptions, LsmPressure,
    LsmStats, MemoryStorage, MetricsSnapshot, RangeIter, Storage, Value, WriteBatch,
};

use crate::{Error, ShardRouter};

/// Marker blob recording the shard count, stored on shard 0's backend
/// (where the engine's orphan sweep — which only touches `sst-*` blobs —
/// leaves it alone).
const SHARD_COUNT_BLOB: &str = "SHARDS";

/// Capacity of the store-wide maintenance event ring. All shards trace
/// into one ring, so it is sized well above the single-engine default:
/// a burst of simultaneous flush/compaction lifecycles across shards
/// must not evict events a polling consumer has not drained yet.
const SERVICE_EVENT_RING_CAPACITY: usize = 8192;

/// A sharded key-value store over [`Lsm`] shards.
///
/// Shared freely across threads (`&self` API; reads never wait on the
/// write mutex, writes serialize per shard inside the engine).
///
/// # Examples
///
/// ```
/// use kv_service::ShardedKv;
/// use lsm_engine::LsmOptions;
///
/// # fn main() -> Result<(), kv_service::Error> {
/// let store = ShardedKv::open_in_memory(4, LsmOptions::default())?;
/// store.put(1, b"one".to_vec().into())?;
/// assert_eq!(store.get(1)?.as_deref(), Some(&b"one"[..]));
/// assert_eq!(store.shard_count(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedKv {
    router: ShardRouter,
    shards: Vec<Lsm>,
    /// The store-wide maintenance trace: every shard records into this
    /// one ring (tagged with its shard index), so flush/compaction
    /// events across shards interleave causally under a single drain
    /// cursor.
    events: EventRing,
}

/// Builds shard `index`'s engine options: the caller's options with the
/// shared event ring injected under the shard's index.
fn shard_options(options: &LsmOptions, events: &EventRing, index: usize) -> LsmOptions {
    options.clone().event_sink(events.clone(), index as u32)
}

/// The store's event ring: the caller's injected sink if the options
/// carry one, else a fresh service-sized ring.
fn event_ring_for(options: &LsmOptions) -> EventRing {
    options
        .event_sink_ring()
        .unwrap_or_else(|| EventRing::new(SERVICE_EVENT_RING_CAPACITY))
}

impl ShardedKv {
    /// Opens a store of `shards` in-memory shards (tests, experiments).
    ///
    /// # Errors
    ///
    /// Propagates engine open failures.
    pub fn open_in_memory(shards: usize, options: LsmOptions) -> Result<Self, Error> {
        let storages = (0..ShardRouter::new(shards).shards())
            .map(|_| Arc::new(MemoryStorage::new()) as Arc<dyn Storage>)
            .collect();
        Self::open_with_storages(storages, options)
    }

    /// Opens (or reopens) a disk-backed store rooted at `root`, shard
    /// `i` living under `root/shard-<i>`, with the shard-count check of
    /// [`ShardedKv::open_with_storages`].
    ///
    /// # Errors
    ///
    /// Fails on shard-count mismatch and propagates engine/file errors.
    pub fn open_on_disk(
        root: impl Into<PathBuf>,
        shards: usize,
        options: LsmOptions,
    ) -> Result<Self, Error> {
        let root = root.into();
        let storages = (0..ShardRouter::new(shards).shards())
            .map(|i| Ok(Arc::new(FileStorage::open(root.join(format!("shard-{i}")))?) as _))
            .collect::<Result<Vec<Arc<dyn Storage>>, Error>>()?;
        Self::open_with_storages(storages, options)
    }

    /// Opens a store over caller-provided storage backends, one per
    /// shard. This is how tests inject instrumented storage (gated or
    /// fault-injecting backends) underneath a live server.
    ///
    /// The shard count is recorded as a `SHARDS` marker blob on shard
    /// 0's backend: reopening persistent backends with a different count
    /// fails with [`Error::ShardMismatch`] instead of silently
    /// misrouting keys.
    ///
    /// # Errors
    ///
    /// Fails on shard-count mismatch and propagates engine
    /// open/recovery failures.
    pub fn open_with_storages(
        storages: Vec<Arc<dyn Storage>>,
        options: LsmOptions,
    ) -> Result<Self, Error> {
        let router = ShardRouter::new(storages.len());
        if let Some(first) = storages.first() {
            if first.contains_blob(SHARD_COUNT_BLOB) {
                let contents = first.read_blob(SHARD_COUNT_BLOB)?;
                let expected: usize = std::str::from_utf8(&contents)
                    .ok()
                    .and_then(|s| s.trim().parse().ok())
                    .ok_or_else(|| {
                        Error::Engine(lsm_engine::Error::corruption(
                            "unreadable shard-count marker (SHARDS blob)",
                        ))
                    })?;
                if expected != router.shards() {
                    return Err(Error::ShardMismatch {
                        expected,
                        requested: router.shards(),
                    });
                }
            } else {
                first.write_blob(
                    SHARD_COUNT_BLOB,
                    format!("{}\n", router.shards()).as_bytes(),
                )?;
            }
        }
        let events = event_ring_for(&options);
        let shards = storages
            .into_iter()
            .enumerate()
            .map(|(i, storage)| Ok(Lsm::open(storage, shard_options(&options, &events, i))?))
            .collect::<Result<Vec<_>, Error>>()?;
        Ok(Self {
            router,
            shards,
            events,
        })
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The router mapping keys to shards.
    #[must_use]
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    fn shard(&self, key: &[u8]) -> &Lsm {
        &self.shards[self.router.shard_for(key)]
    }

    /// The shard index `key` routes to.
    #[must_use]
    pub fn shard_index(&self, key: &[u8]) -> usize {
        self.router.shard_for(key)
    }

    /// The overload signals of shard `index`, read without the write
    /// mutex even mid-compaction (see [`Lsm::pressure`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn shard_pressure(&self, index: usize) -> LsmPressure {
        self.shards[index].pressure()
    }

    /// The overload signals of the shard owning `key`.
    #[must_use]
    pub fn pressure_for_key(&self, key: &[u8]) -> LsmPressure {
        self.shard(key).pressure()
    }

    /// Point read of `key` from its owning shard. Never waits on the
    /// write mutex: same-shard writes and compaction do not block it.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn get(&self, key: impl IntoKey) -> Result<Option<Value>, Error> {
        let key = key.into_key();
        Ok(self.shard(&key).get(key)?)
    }

    /// Inserts or overwrites `key` on its owning shard. Durable (WAL)
    /// by the time this returns, under a WAL-enabled configuration.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn put(&self, key: impl IntoKey, value: Value) -> Result<(), Error> {
        let key = key.into_key();
        Ok(self.shard(&key).put(key, value)?)
    }

    /// Deletes `key` on its owning shard.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn delete(&self, key: impl IntoKey) -> Result<(), Error> {
        let key = key.into_key();
        Ok(self.shard(&key).delete(key)?)
    }

    /// Deletes every key in `[start, end)` across the store with **one
    /// range-tombstone record per shard** — O(shards), independent of
    /// how many keys the interval covers. Hash routing scatters any key
    /// interval over *all* shards, so the tombstone is broadcast rather
    /// than routed; each shard's copy suppresses its own slice of the
    /// interval in reads, scans and compaction.
    ///
    /// An empty or inverted interval (`start >= end`) is a no-op `Ok`,
    /// same as the engine's contract ([`Lsm::delete_range`]).
    ///
    /// Atomicity is per shard, exactly like [`ShardedKv::apply_batch`]:
    /// a crash mid-broadcast can leave the tombstone on a prefix of the
    /// shards; each shard's copy is itself durable-or-absent.
    ///
    /// # Errors
    ///
    /// Propagates engine errors; earlier shards may already carry the
    /// tombstone when a later shard fails.
    pub fn delete_range(&self, start: impl IntoKey, end: impl IntoKey) -> Result<(), Error> {
        let (start, end) = (start.into_key(), end.into_key());
        for shard in &self.shards {
            shard.delete_range(&start, &end)?;
        }
        Ok(())
    }

    /// Pins a point-in-time view of the whole store: one engine
    /// [`Snapshot`](lsm_engine::Snapshot) — one pinned LSN — per shard.
    /// Reads through the handle see exactly the writes each shard had
    /// sequenced at pin time, regardless of concurrent writes, flushes,
    /// compactions or tombstone GC, until the handle is dropped.
    ///
    /// The cut is taken shard by shard, so its consistency guarantee
    /// matches the store's write atomicity ([`ShardedKv::apply_batch`]):
    /// per-shard consistent, with cross-shard operations racing the pin
    /// loop possibly landing in some shards' cut and not others'.
    #[must_use]
    pub fn snapshot(&self) -> ShardedSnapshot {
        ShardedSnapshot {
            router: self.router,
            shards: self.shards.iter().map(Lsm::snapshot).collect(),
        }
    }

    /// Applies a batch: operations are re-grouped by owning shard and
    /// each shard's sub-batch is applied with one WAL frame and one
    /// memtable pass ([`Lsm::write_batch`]). Sub-batches preserve the
    /// batch's operation order. Atomicity is per shard (see module
    /// docs).
    ///
    /// # Errors
    ///
    /// Propagates engine errors; earlier shards' sub-batches may already
    /// be applied when a later shard fails.
    pub fn apply_batch(&self, batch: WriteBatch) -> Result<(), Error> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut per_shard: Vec<WriteBatch> = vec![WriteBatch::new(); self.shards.len()];
        for op in batch.into_ops() {
            per_shard[self.router.shard_for(&op.key)].push(op);
        }
        for (shard, sub) in self.shards.iter().zip(per_shard) {
            if !sub.is_empty() {
                shard.write_batch(sub)?;
            }
        }
        Ok(())
    }

    /// Flushes every shard's memtable.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn flush_all(&self) -> Result<(), Error> {
        for shard in &self.shards {
            shard.flush()?;
        }
        Ok(())
    }

    /// Runs planner-driven compaction on every shard (respecting each
    /// shard's policy; see [`Lsm::auto_compact`]).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn compact_all(&self) -> Result<(), Error> {
        for shard in &self.shards {
            shard.auto_compact()?;
        }
        Ok(())
    }

    /// Per-shard and aggregated statistics.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let per_shard: Vec<ShardStats> = self
            .shards
            .iter()
            .map(|shard| ShardStats {
                stats: shard.stats(),
                live_tables: shard.live_tables().len(),
                memtable_len: shard.memtable_len(),
            })
            .collect();
        ServiceStats { per_shard }
    }

    /// The store-wide maintenance event ring every shard traces into.
    /// Drain with [`EventRing::since`]; drains are read-only, so any
    /// number of consumers can hold independent cursors.
    #[must_use]
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// The store's self-describing metrics: every engine latency
    /// histogram merged across shards under its stable exposition name
    /// ([`lsm_engine::EngineMetrics::named_snapshots`]), plus the
    /// aggregated engine statistics as `stats_`-prefixed counters. (The
    /// server layers its own request histograms and admission counters
    /// on top before answering `METRICS`.)
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        // Merge shard histograms name-wise. Every shard emits the same
        // name list in the same order, so fold onto the first shard's.
        let mut histograms: Vec<(String, HistogramSnapshot)> = Vec::new();
        for shard in &self.shards {
            for (name, snap) in shard.metrics().named_snapshots() {
                match histograms.iter_mut().find(|(n, _)| n == name) {
                    Some((_, merged)) => merged.merge(&snap),
                    None => histograms.push((name.to_owned(), snap)),
                }
            }
        }
        let stats = self.stats();
        let aggregate = stats.aggregate();
        // Every engine counter comes from the one list `LsmStats`
        // declares; only what is not a plain field is named here.
        let mut counters = vec![
            ("stats_shards".to_owned(), self.shard_count() as u64),
            ("stats_live_tables".to_owned(), stats.live_tables() as u64),
            (
                "stats_compaction_entry_cost".to_owned(),
                aggregate.compaction_entry_cost(),
            ),
            (
                "stats_compaction_stall_micros".to_owned(),
                aggregate.compaction_stall.as_micros() as u64,
            ),
        ];
        counters.extend(
            aggregate
                .counters()
                .into_iter()
                .map(|(name, value)| (format!("stats_{name}"), value)),
        );
        MetricsSnapshot {
            counters,
            histograms,
        }
    }

    /// Every live key/value pair across all shards, in key order:
    /// [`ShardedKv::scan`] over the whole keyspace, collected
    /// (verification / small stores only).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn scan_all(&self) -> Result<Vec<(Key, Value)>, Error> {
        self.scan(..).collect()
    }

    /// Streams every live `(key, value)` pair inside `range`, in
    /// ascending key order, lazily merged across the shards. Hash
    /// routing spreads any key range over *all* shards, so the scan
    /// fans out one snapshot-consistent engine scan
    /// ([`Lsm::range`]) per shard and k-way merges their heads — one
    /// decoded block per probed table per shard in memory, never the
    /// result set.
    ///
    /// Runs concurrently with writes, flushes and compaction on every
    /// shard (same contract as the engine iterator).
    pub fn scan(&self, range: impl RangeBounds<Key>) -> ShardScan<'_> {
        let start = range.start_bound().cloned();
        let end = range.end_bound().cloned();
        let scans = self
            .shards
            .iter()
            .map(|shard| shard.range((start.clone(), end.clone())))
            .collect();
        ShardScan::new(scans)
    }
}

/// A lazy merge of per-shard range scans, yielded in ascending key
/// order. Produced by [`ShardedKv::scan`].
#[derive(Debug)]
pub struct ShardScan<'a> {
    scans: Vec<RangeIter<'a>>,
    /// The next pending entry of each shard's scan (`None` = drained).
    heads: Vec<Option<(Key, Value)>>,
    /// An error hit while refilling *after* an entry was already taken:
    /// the entry is yielded first, the error on the following call.
    deferred: Option<Error>,
    primed: bool,
    done: bool,
}

impl<'a> ShardScan<'a> {
    fn new(scans: Vec<RangeIter<'a>>) -> Self {
        let heads = (0..scans.len()).map(|_| None).collect();
        Self {
            scans,
            heads,
            deferred: None,
            primed: false,
            done: false,
        }
    }

    /// Pulls the next entry of shard `idx` into its head slot.
    fn refill(&mut self, idx: usize) -> Result<(), Error> {
        self.heads[idx] = match self.scans[idx].next() {
            Some(Ok(pair)) => Some(pair),
            Some(Err(e)) => return Err(e.into()),
            None => None,
        };
        Ok(())
    }
}

impl Iterator for ShardScan<'_> {
    type Item = Result<(Key, Value), Error>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if let Some(e) = self.deferred.take() {
            self.done = true;
            return Some(Err(e));
        }
        if !self.primed {
            self.primed = true;
            for idx in 0..self.scans.len() {
                if let Err(e) = self.refill(idx) {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        // Hash routing makes shard key sets disjoint, so the smallest
        // head is globally next — no cross-shard dedup needed.
        let next_shard = self
            .heads
            .iter()
            .enumerate()
            .filter_map(|(idx, head)| head.as_ref().map(|(key, _)| (idx, key)))
            .min_by(|a, b| a.1.cmp(b.1))
            .map(|(idx, _)| idx);
        let Some(idx) = next_shard else {
            self.done = true;
            return None;
        };
        let pair = self.heads[idx].take().expect("selected head is present");
        // A refill failure must not swallow the entry already in hand:
        // yield it now, surface the error on the next call.
        if let Err(e) = self.refill(idx) {
            self.deferred = Some(e);
        }
        Some(Ok(pair))
    }
}

/// A pinned point-in-time view of a [`ShardedKv`]: one engine snapshot
/// per shard, produced by [`ShardedKv::snapshot`]. Dropping the handle
/// releases every shard's pin, letting tombstone GC and compaction
/// reclaim history past the cut.
#[derive(Debug)]
pub struct ShardedSnapshot {
    router: ShardRouter,
    shards: Vec<lsm_engine::Snapshot>,
}

impl ShardedSnapshot {
    /// Point read of `key` at the pinned cut, routed to the owning
    /// shard's snapshot.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn get(&self, key: impl IntoKey) -> Result<Option<Value>, Error> {
        let key = key.into_key();
        Ok(self.shards[self.router.shard_for(&key)].get(key)?)
    }

    /// Streams every pair inside `range` *at the pinned cut*, in
    /// ascending key order: the same lazy k-way shard merge as
    /// [`ShardedKv::scan`], fed by each shard's snapshot-scoped range
    /// iterator instead of its live one.
    pub fn scan(&self, range: impl RangeBounds<Key>) -> ShardScan<'_> {
        let start = range.start_bound().cloned();
        let end = range.end_bound().cloned();
        let scans = self
            .shards
            .iter()
            .map(|snap| snap.range((start.clone(), end.clone())))
            .collect();
        ShardScan::new(scans)
    }

    /// Every pair across all shards at the pinned cut, in key order
    /// (verification / small stores only).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn scan_all(&self) -> Result<Vec<(Key, Value)>, Error> {
        self.scan(..).collect()
    }
}

/// A single shard's statistics snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard's engine counters.
    pub stats: LsmStats,
    /// Live sstables on the shard.
    pub live_tables: usize,
    /// Distinct keys buffered in the shard's memtable.
    pub memtable_len: usize,
}

/// Statistics for the whole sharded store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// One snapshot per shard, in shard order.
    pub per_shard: Vec<ShardStats>,
}

impl ServiceStats {
    /// Folds every shard's counters into one [`LsmStats`]
    /// ([`LsmStats::absorb`]).
    #[must_use]
    pub fn aggregate(&self) -> LsmStats {
        let mut total = LsmStats::default();
        for shard in &self.per_shard {
            total.absorb(&shard.stats);
        }
        total
    }

    /// Total live sstables across shards.
    #[must_use]
    pub fn live_tables(&self) -> usize {
        self.per_shard.iter().map(|s| s.live_tables).sum()
    }
}

// The server shares the store across worker threads.
const fn assert_sync<T: Send + Sync>() {}
const _: () = assert_sync::<ShardedKv>();

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_engine::CompactionPolicy;

    fn store(shards: usize) -> ShardedKv {
        ShardedKv::open_in_memory(
            shards,
            LsmOptions::default().memtable_capacity(16).wal(false),
        )
        .unwrap()
    }

    #[test]
    fn put_get_delete_route_consistently() {
        let kv = store(4);
        for i in 0..200u64 {
            kv.put(i, format!("v{i}").into_bytes().into()).unwrap();
        }
        for i in 0..200u64 {
            assert_eq!(kv.get(i).unwrap(), Some(format!("v{i}").into()));
        }
        kv.delete(7).unwrap();
        assert_eq!(kv.get(7).unwrap(), None);
        let agg = kv.stats().aggregate();
        assert_eq!(agg.puts, 200);
        assert_eq!(agg.deletes, 1);
        assert_eq!(agg.gets, 201);
    }

    #[test]
    fn batch_groups_per_shard() {
        let kv = store(3);
        let mut batch = WriteBatch::new();
        for i in 0..60u64 {
            batch.put(i, vec![i as u8].into());
        }
        batch.delete(5);
        kv.apply_batch(batch).unwrap();
        assert_eq!(kv.get(5).unwrap(), None);
        for i in 6..60u64 {
            assert_eq!(kv.get(i).unwrap(), Some(vec![i as u8].into()));
        }
        let stats = kv.stats();
        // Each shard applied exactly one sub-batch.
        for shard in &stats.per_shard {
            assert_eq!(shard.stats.write_batches, 1);
        }
        assert_eq!(stats.aggregate().puts, 60);
    }

    #[test]
    fn shards_compact_independently() {
        let kv = ShardedKv::open_in_memory(
            2,
            LsmOptions::default()
                .memtable_capacity(8)
                .compaction_policy(CompactionPolicy::Threshold { live_tables: 3 })
                .wal(false),
        )
        .unwrap();
        for i in 0..400u64 {
            kv.put(i % 120, vec![i as u8].into()).unwrap();
        }
        kv.flush_all().unwrap();
        let stats = kv.stats();
        let agg = stats.aggregate();
        assert!(agg.auto_compactions >= 2, "both shards compacted");
        for i in 0..120u64 {
            assert!(kv.get(i).unwrap().is_some(), "key {i}");
        }
    }

    #[test]
    fn disk_store_enforces_shard_count() {
        let dir = std::env::temp_dir().join(format!("kv-shards-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let kv = ShardedKv::open_on_disk(&dir, 3, LsmOptions::default()).unwrap();
            kv.put(1, b"one".to_vec().into()).unwrap();
            kv.flush_all().unwrap();
        }
        let err = ShardedKv::open_on_disk(&dir, 5, LsmOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            Error::ShardMismatch {
                expected: 3,
                requested: 5
            }
        ));
        let kv = ShardedKv::open_on_disk(&dir, 3, LsmOptions::default()).unwrap();
        assert_eq!(kv.get(1).unwrap(), Some(b"one".to_vec().into()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_merges_shards_lazily_in_key_order() {
        let kv = store(4);
        for i in 0..300u64 {
            kv.put(i, format!("s{i}").into_bytes().into()).unwrap();
        }
        kv.delete(70).unwrap();
        kv.flush_all().unwrap();

        let start = lsm_engine::key_from_u64(50);
        let end = lsm_engine::key_from_u64(120);
        let got: Vec<(u64, Vec<u8>)> = kv
            .scan(start..end)
            .map(|r| {
                let (k, v) = r.unwrap();
                (lsm_engine::key_to_u64(&k).unwrap(), v.to_vec())
            })
            .collect();
        let keys: Vec<u64> = got.iter().map(|(k, _)| *k).collect();
        let expect: Vec<u64> = (50..120).filter(|&k| k != 70).collect();
        assert_eq!(keys, expect, "sorted, tombstone-suppressed, bounded");
        assert!(got.iter().all(|(k, v)| v == format!("s{k}").as_bytes()));
        // Every shard's engine counted the scan.
        assert_eq!(kv.stats().aggregate().range_scans, 4);
    }

    #[test]
    fn scan_all_merges_shards_sorted() {
        let kv = store(4);
        for i in 0..50u64 {
            kv.put(i, vec![1].into()).unwrap();
        }
        let all = kv.scan_all().unwrap();
        assert_eq!(all.len(), 50);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn delete_range_broadcasts_one_tombstone_per_shard() {
        let kv = store(4);
        for i in 0..300u64 {
            kv.put(i, format!("v{i}").into_bytes().into()).unwrap();
        }
        // One logical range delete = exactly one record per shard,
        // however many keys the interval covers.
        kv.delete_range(50, 250).unwrap();
        let stats = kv.stats();
        for shard in &stats.per_shard {
            assert_eq!(shard.stats.range_deletes, 1);
        }
        for i in 0..300u64 {
            let got = kv.get(i).unwrap();
            if (50..250).contains(&i) {
                assert_eq!(got, None, "key {i} inside the erased interval");
            } else {
                assert_eq!(got, Some(format!("v{i}").into()), "key {i}");
            }
        }
        // The merged scan sees the gap too.
        let keys: Vec<u64> = kv
            .scan(..)
            .map(|r| lsm_engine::key_to_u64(&r.unwrap().0).unwrap())
            .collect();
        let expect: Vec<u64> = (0..300).filter(|k| !(50..250).contains(k)).collect();
        assert_eq!(keys, expect);
    }

    #[test]
    fn inverted_or_empty_delete_range_is_a_noop() {
        let kv = store(2);
        kv.put(5, b"v".to_vec().into()).unwrap();
        kv.delete_range(9, 3).unwrap();
        kv.delete_range(7, 7).unwrap();
        assert_eq!(kv.get(5).unwrap(), Some(b"v".to_vec().into()));
        let agg = kv.stats().aggregate();
        assert_eq!(agg.range_deletes, 0, "no-ops consume nothing");
    }

    #[test]
    fn snapshot_pins_a_cut_across_every_shard() {
        let kv = store(4);
        for i in 0..200u64 {
            kv.put(i, format!("old{i}").into_bytes().into()).unwrap();
        }
        let snap = kv.snapshot();

        // Overwrite, delete, range-delete and churn the live store.
        for i in 0..200u64 {
            kv.put(i, format!("new{i}").into_bytes().into()).unwrap();
        }
        kv.delete(3).unwrap();
        kv.delete_range(100, 180).unwrap();
        kv.flush_all().unwrap();
        kv.compact_all().unwrap();

        // The snapshot still reads the pinned cut, point and scan.
        for i in 0..200u64 {
            assert_eq!(
                snap.get(i).unwrap(),
                Some(format!("old{i}").into()),
                "snapshot get({i}) after churn"
            );
        }
        let snap_scan: Vec<(u64, Vec<u8>)> = snap
            .scan(..)
            .map(|r| {
                let (k, v) = r.unwrap();
                (lsm_engine::key_to_u64(&k).unwrap(), v.to_vec())
            })
            .collect();
        assert_eq!(snap_scan.len(), 200);
        assert!(snap_scan
            .iter()
            .all(|(k, v)| v == format!("old{k}").as_bytes().to_vec().as_slice()));

        // The live store sees the new world.
        assert_eq!(kv.get(3).unwrap(), None);
        assert_eq!(kv.get(150).unwrap(), None);
        assert_eq!(kv.get(0).unwrap(), Some(b"new0".to_vec().into()));
        drop(snap);
    }

    #[test]
    fn injected_storages_back_the_shards() {
        use lsm_engine::MemoryStorage;
        let storages: Vec<Arc<dyn Storage>> = (0..2)
            .map(|_| Arc::new(MemoryStorage::new()) as Arc<dyn Storage>)
            .collect();
        let backends: Vec<Arc<dyn Storage>> = storages.clone();
        let kv = ShardedKv::open_with_storages(
            backends,
            LsmOptions::default().memtable_capacity(4).wal(false),
        )
        .unwrap();
        for i in 0..40u64 {
            kv.put(i, vec![i as u8].into()).unwrap();
        }
        kv.flush_all().unwrap();
        // The injected backends physically hold the shards' blobs.
        let total_blobs: usize = storages.iter().map(|s| s.list_blobs().len()).sum();
        assert!(total_blobs >= 2, "flushes landed in the injected storages");
        for i in 0..40u64 {
            assert_eq!(kv.get(i).unwrap(), Some(vec![i as u8].into()));
        }
        drop(kv);

        // Reopening the same backends with a different shard count must
        // fail loudly, not misroute keys.
        let mut wrong: Vec<Arc<dyn Storage>> = storages.clone();
        wrong.push(Arc::new(MemoryStorage::new()));
        let err = ShardedKv::open_with_storages(
            wrong,
            LsmOptions::default().memtable_capacity(4).wal(false),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            Error::ShardMismatch {
                expected: 2,
                requested: 3
            }
        ));
        // The correct count reopens and still serves every key.
        let reopened = ShardedKv::open_with_storages(
            storages,
            LsmOptions::default().memtable_capacity(4).wal(false),
        )
        .unwrap();
        for i in 0..40u64 {
            assert_eq!(reopened.get(i).unwrap(), Some(vec![i as u8].into()));
        }
    }
}
