//! Key-to-shard routing.
//!
//! The service splits the key space across `N` independent LSM shards by
//! hashing the user key. Hash routing (rather than range routing) keeps
//! shards balanced under the skewed request distributions YCSB generates
//! (zipfian / latest), and — because every shard owns a disjoint key
//! subset — reads and writes on one shard never wait for another shard's
//! compaction, which is the availability scenario the paper motivates.

/// Deterministically maps keys to shard indices.
///
/// Routing is stable for the lifetime of a store: the same key always
/// lands on the same shard, and reopening a store uses the persisted
/// shard count so data never misroutes.
///
/// # Examples
///
/// ```
/// use kv_service::ShardRouter;
///
/// let router = ShardRouter::new(4);
/// let s = router.shard_for(b"user/42");
/// assert!(s < 4);
/// assert_eq!(s, router.shard_for(b"user/42"), "routing is deterministic");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// Creates a router over `shards` shards (clamped to ≥ 1).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
        }
    }

    /// Number of shards routed over.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`.
    #[must_use]
    pub fn shard_for(&self, key: &[u8]) -> usize {
        (hll::hash_bytes(key) % self.shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let router = ShardRouter::new(8);
        for i in 0..1_000u64 {
            let key = i.to_be_bytes();
            let s = router.shard_for(&key);
            assert!(s < 8);
            assert_eq!(s, router.shard_for(&key));
            assert_eq!(s, router.shard_for(&i.to_be_bytes()));
        }
    }

    #[test]
    fn hash_routing_balances_sequential_keys() {
        let router = ShardRouter::new(4);
        let mut counts = [0usize; 4];
        for i in 0..4_000u64 {
            counts[router.shard_for(&i.to_be_bytes())] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                (500..=1_500).contains(&count),
                "shard {shard} holds {count} of 4000 sequential keys"
            );
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let router = ShardRouter::new(0);
        assert_eq!(router.shards(), 1);
        assert_eq!(router.shard_for(b"anything"), 0);
    }
}
