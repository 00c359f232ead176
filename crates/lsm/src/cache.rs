//! Read-path caches: open-reader handles and decoded data blocks.
//!
//! Two caches sit between [`Lsm::get`](crate::Lsm::get) and storage,
//! mirroring the LevelDB pair this design follows:
//!
//! * the [`TableCache`] holds open [`SstableReader`] handles (footer +
//!   bloom + index already parsed), bounded by a *table count*, so a
//!   warm probe pays zero open I/O;
//! * the [`BlockCache`] holds decoded data blocks keyed by
//!   `(table_id, block_idx)`, bounded by *bytes*, so a warm point read
//!   pays zero block I/O.
//!
//! Both are sharded: a lookup locks one shard for a map probe — never
//! across I/O — so concurrent GETs on different keys proceed in
//! parallel. Entries are keyed by table id, which makes compaction's
//! manifest flip the natural invalidation point: retired ids are purged
//! eagerly ([`TableCache::evict_table`] / [`BlockCache::evict_table`])
//! and can never be requested again because no snapshot references them.
//!
//! The LRU core is a safe-Rust implementation (hash map + monotone-tick
//! ordering) rather than the classic unsafe intrusive list; operations
//! are `O(log n)` in the shard size, which is noise next to the block
//! decode they replace.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::block::Block;
use crate::reader::SstableReader;
use crate::storage::Storage;
use crate::Error;

/// Number of independent shards per cache (power of two).
const CACHE_SHARDS: usize = 8;

/// Hit/miss/eviction counters for one cache, updated with relaxed
/// atomics (they are statistics, not synchronization).
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CacheCounters {
    /// Lookups served from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries removed by capacity pressure or invalidation.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// One LRU shard: value map plus recency order keyed by a monotone tick.
#[derive(Debug)]
struct LruShard<K, V> {
    map: HashMap<K, (V, u64, u64)>, // value, cost, tick
    order: BTreeMap<u64, K>,
    tick: u64,
    used: u64,
}

impl<K: Eq + Hash + Clone + Ord, V: Clone> LruShard<K, V> {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            used: 0,
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let (value, _, old_tick) = self.map.get_mut(key)?;
        let value = value.clone();
        let old = std::mem::replace(old_tick, tick);
        self.order.remove(&old);
        self.order.insert(tick, key.clone());
        Some(value)
    }

    /// Inserts (replacing any previous entry) and evicts LRU entries
    /// down to `capacity`; returns how many entries were evicted.
    ///
    /// The just-inserted entry is never evicted by its own insertion,
    /// even when it alone exceeds `capacity`: a hot block larger than
    /// this shard's slice of the budget must still be cacheable, at the
    /// price of overshooting by at most that one entry (it becomes a
    /// regular eviction candidate for *later* inserts). Without this, a
    /// budget smaller than `shards × block_size` silently caches
    /// nothing — every insert self-evicts and every read goes to
    /// storage.
    fn insert(&mut self, key: K, value: V, cost: u64, capacity: u64) -> u64 {
        self.tick += 1;
        let tick = self.tick;
        if let Some((_, old_cost, old_tick)) = self.map.remove(&key) {
            self.order.remove(&old_tick);
            self.used -= old_cost;
        }
        self.map.insert(key.clone(), (value, cost, tick));
        self.order.insert(tick, key);
        self.used += cost;
        let mut evicted = 0;
        // The new entry holds the highest tick, so oldest-first eviction
        // reaches it last; stopping at len == 1 keeps it resident.
        while self.used > capacity && self.map.len() > 1 {
            let Some((&oldest_tick, _)) = self.order.iter().next() else {
                break;
            };
            let oldest_key = self.order.remove(&oldest_tick).expect("tick present");
            let (_, cost, _) = self.map.remove(&oldest_key).expect("key present");
            self.used -= cost;
            evicted += 1;
        }
        evicted
    }

    fn remove(&mut self, key: &K) -> bool {
        if let Some((_, cost, tick)) = self.map.remove(key) {
            self.order.remove(&tick);
            self.used -= cost;
            true
        } else {
            false
        }
    }

    /// Removes every entry matching `pred`; returns how many.
    fn remove_matching(&mut self, mut pred: impl FnMut(&K) -> bool) -> u64 {
        let doomed: Vec<K> = self.map.keys().filter(|k| pred(k)).cloned().collect();
        let count = doomed.len() as u64;
        for key in doomed {
            self.remove(&key);
        }
        count
    }
}

fn shard_index(hash_basis: u64) -> usize {
    // Fibonacci hashing spreads sequential ids across shards.
    (hash_basis.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize % CACHE_SHARDS
}

/// An LRU cache of open [`SstableReader`] handles, bounded by table
/// count.
#[derive(Debug)]
pub struct TableCache {
    shards: Vec<Mutex<LruShard<u64, Arc<SstableReader>>>>,
    capacity_per_shard: u64,
    counters: CacheCounters,
}

impl TableCache {
    /// Creates a cache holding up to `capacity_tables` open readers
    /// (clamped to at least one per shard).
    #[must_use]
    pub fn new(capacity_tables: usize) -> Self {
        Self {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(LruShard::new()))
                .collect(),
            capacity_per_shard: ((capacity_tables / CACHE_SHARDS) as u64).max(1),
            counters: CacheCounters::default(),
        }
    }

    /// Returns the cached reader for `table_id`, opening (and caching)
    /// it on a miss. The open happens outside the shard lock, so a cold
    /// open never blocks hits on other tables; two racing opens of the
    /// same table both succeed and the loser's handle is simply dropped.
    ///
    /// A reader racing compaction can re-insert a just-retired table
    /// after [`TableCache::evict_table`] purged it. That entry is
    /// unreachable garbage (table ids are never reused and no snapshot
    /// references it), bounded to one LRU slot until ordinary pressure
    /// evicts it — accepted so a shard's mutex is held for the LRU probe
    /// and insert, never across the open.
    ///
    /// # Errors
    ///
    /// Propagates [`SstableReader::open`] failures.
    pub fn get_or_open(
        &self,
        storage: &dyn Storage,
        table_id: u64,
        len_hint: Option<u64>,
    ) -> Result<Arc<SstableReader>, Error> {
        let shard = &self.shards[shard_index(table_id)];
        if let Some(reader) = shard.lock().get(&table_id) {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(reader);
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let reader = Arc::new(SstableReader::open(storage, table_id, len_hint)?);
        let evicted =
            shard
                .lock()
                .insert(table_id, Arc::clone(&reader), 1, self.capacity_per_shard);
        self.counters
            .evictions
            .fetch_add(evicted, Ordering::Relaxed);
        Ok(reader)
    }

    /// Drops the reader for a retired table (compaction consumed it).
    pub fn evict_table(&self, table_id: u64) {
        if self.shards[shard_index(table_id)].lock().remove(&table_id) {
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of readers currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counters.
    #[must_use]
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }
}

/// Block-cache key: `(table_id, block_idx)`.
type BlockKey = (u64, u32);

/// A sharded LRU cache of decoded data blocks, bounded by bytes.
#[derive(Debug)]
pub struct BlockCache {
    shards: Vec<Mutex<LruShard<BlockKey, Arc<Block>>>>,
    capacity_per_shard: u64,
    counters: CacheCounters,
}

impl BlockCache {
    /// Creates a cache charged by decoded in-memory block size, holding up to
    /// `capacity_bytes` in total (split evenly across shards). A block
    /// larger than its shard's slice of the budget still caches — the
    /// budget may overshoot by up to one block per shard — so tiny
    /// budgets degrade to "cache the hottest block per shard" instead
    /// of caching nothing.
    #[must_use]
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(LruShard::new()))
                .collect(),
            capacity_per_shard: (capacity_bytes / CACHE_SHARDS as u64).max(1),
            counters: CacheCounters::default(),
        }
    }

    /// Looks up block `block_idx` of table `table_id`.
    #[must_use]
    pub fn get(&self, table_id: u64, block_idx: u32) -> Option<Arc<Block>> {
        let key = (table_id, block_idx);
        let found = self.shards[shard_index(table_id ^ u64::from(block_idx))]
            .lock()
            .get(&key);
        match &found {
            Some(_) => self.counters.hits.fetch_add(1, Ordering::Relaxed),
            None => self.counters.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts a decoded block charged at its resident size
    /// ([`Block::mem_size`]), evicting least-recently-used blocks over
    /// capacity.
    pub fn insert(&self, table_id: u64, block_idx: u32, block: Arc<Block>) {
        let cost = block.mem_size() as u64;
        let evicted = self.shards[shard_index(table_id ^ u64::from(block_idx))]
            .lock()
            .insert((table_id, block_idx), block, cost, self.capacity_per_shard);
        self.counters
            .evictions
            .fetch_add(evicted, Ordering::Relaxed);
    }

    /// Drops every cached block of a retired table.
    pub fn evict_table(&self, table_id: u64) {
        let mut evicted = 0;
        for shard in &self.shards {
            evicted += shard.lock().remove_matching(|&(id, _)| id == table_id);
        }
        self.counters
            .evictions
            .fetch_add(evicted, Ordering::Relaxed);
    }

    /// Total bytes currently cached.
    #[must_use]
    pub fn usage_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().used).sum()
    }

    /// Hit/miss/eviction counters.
    #[must_use]
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::SstableBuilder;
    use crate::storage::MemoryStorage;
    use crate::types::{key_from_u64, Entry};
    use bytes::Bytes;

    fn lru() -> LruShard<u64, u64> {
        LruShard::new()
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut shard = lru();
        assert_eq!(shard.insert(1, 10, 1, 2), 0);
        assert_eq!(shard.insert(2, 20, 1, 2), 0);
        assert_eq!(shard.get(&1), Some(10), "touch 1 so 2 is the LRU");
        assert_eq!(shard.insert(3, 30, 1, 2), 1, "2 evicted");
        assert_eq!(shard.get(&2), None);
        assert_eq!(shard.get(&1), Some(10));
        assert_eq!(shard.get(&3), Some(30));
    }

    #[test]
    fn lru_charges_costs_and_replaces() {
        let mut shard = lru();
        shard.insert(1, 10, 6, 10);
        shard.insert(2, 20, 4, 10);
        assert_eq!(shard.used, 10);
        // Replacing key 1 with a cheaper value frees its old cost.
        shard.insert(1, 11, 2, 10);
        assert_eq!(shard.used, 6);
        // An oversized entry evicts everything else but stays resident
        // itself (overshoot bounded by one entry).
        let evicted = shard.insert(3, 30, 99, 10);
        assert_eq!(evicted, 2);
        assert_eq!(shard.used, 99);
        assert_eq!(shard.get(&3), Some(30), "oversized entry is cacheable");
        // The next insert treats it as a normal LRU victim.
        assert_eq!(shard.insert(4, 40, 1, 10), 1);
        assert_eq!(shard.used, 1);
        assert_eq!(shard.get(&3), None);
    }

    #[test]
    fn lru_remove_matching_purges_by_predicate() {
        let mut shard = lru();
        for k in 0..10 {
            shard.insert(k, k, 1, 100);
        }
        assert_eq!(shard.remove_matching(|k| k % 2 == 0), 5);
        assert_eq!(shard.map.len(), 5);
        assert_eq!(shard.order.len(), 5);
        assert_eq!(shard.used, 5);
    }

    fn write_table(storage: &MemoryStorage, id: u64, keys: std::ops::Range<u64>) -> u64 {
        let mut builder = SstableBuilder::new(id, 256, 10);
        for k in keys {
            builder.add(&Entry::put(key_from_u64(k), Bytes::from(vec![k as u8]), k));
        }
        let (data, meta) = builder.finish();
        storage
            .write_blob(&SstableReader::blob_name(id), &data)
            .unwrap();
        meta.encoded_len
    }

    #[test]
    fn table_cache_hits_misses_and_invalidation() {
        let storage = MemoryStorage::new();
        for id in 0..4 {
            write_table(&storage, id, 0..50);
        }
        let cache = TableCache::new(16);
        for id in 0..4 {
            cache.get_or_open(&storage, id, None).unwrap();
        }
        assert_eq!(cache.counters().misses(), 4);
        assert_eq!(cache.len(), 4);
        let r = cache.get_or_open(&storage, 2, None).unwrap();
        assert_eq!(r.table_id(), 2);
        assert_eq!(cache.counters().hits(), 1);
        cache.evict_table(2);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.counters().evictions(), 1);
        // Reopening after invalidation is a miss again.
        cache.get_or_open(&storage, 2, None).unwrap();
        assert_eq!(cache.counters().misses(), 5);
    }

    #[test]
    fn block_cache_bounds_bytes_and_purges_tables() {
        let block = Arc::new(Block::decode(crate::block::BlockBuilder::new().finish()).unwrap());
        let cost = block.mem_size() as u64;
        let cache = BlockCache::new(16 * cost);
        for i in 0..100u32 {
            cache.insert(7, i, Arc::clone(&block));
        }
        assert!(
            cache.usage_bytes() <= 16 * cost,
            "usage {} over budget",
            cache.usage_bytes()
        );
        assert!(cache.counters().evictions() > 0, "tiny budget must evict");
        let cached_before = cache.usage_bytes();
        assert!(cached_before > 0);
        cache.insert(8, 0, Arc::clone(&block));
        cache.evict_table(7);
        assert_eq!(cache.usage_bytes(), cost, "only table 8's block remains");
        assert!(cache.get(8, 0).is_some());
        assert!(cache.get(7, 0).is_none());
    }
}
