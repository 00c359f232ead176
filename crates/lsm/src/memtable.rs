//! The in-memory write buffer.

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::types::{Entry, Key, RangeTombstone, SeqNo, Value, ValueKind};
use crate::wal::WalRecord;

/// A sorted in-memory buffer of recent writes.
//
/// With no snapshot pinned the memtable keeps exactly one (the newest)
/// version per user key: repeated updates to the same key overwrite in
/// place, which is why flushed sstables "may be smaller and vary in
/// size" (paper, Section 5.1) even though every memtable receives the
/// same number of operations. Capacity is expressed in distinct keys to
/// match the paper's "memtable size" parameter.
///
/// When snapshots are pinned ([`Memtable::set_retain_floor`]), older
/// versions that a pinned reader can still observe are retained
/// alongside the newest one, ordered newest-first per key. Range
/// deletes ([`Memtable::delete_range`]) are kept in a side list — one
/// record per delete, never expanded per covered key.
///
/// # Examples
///
/// ```
/// use lsm_engine::Memtable;
/// use bytes::Bytes;
///
/// let mut mt = Memtable::new(2);
/// mt.put(Bytes::from_static(b"a"), Bytes::from_static(b"1"), 1);
/// mt.put(Bytes::from_static(b"a"), Bytes::from_static(b"2"), 2);
/// assert_eq!(mt.len(), 1, "updates to the same key collapse");
/// assert!(!mt.is_full());
/// mt.put(Bytes::from_static(b"b"), Bytes::from_static(b"3"), 3);
/// assert!(mt.is_full());
/// ```
#[derive(Debug, Clone)]
pub struct Memtable {
    /// Versions per key, newest (largest seqno) first.
    entries: BTreeMap<Key, Vec<(Value, SeqNo, ValueKind)>>,
    range_dels: Vec<RangeTombstone>,
    capacity_keys: usize,
    approximate_bytes: usize,
    /// Oldest pinned sequence number: versions a reader pinned at or
    /// above this floor could still observe are retained on overwrite.
    /// `u64::MAX` (the default) keeps only the newest version.
    retain_floor: SeqNo,
}

impl Memtable {
    /// Creates an empty memtable that is considered full once it holds
    /// `capacity_keys` distinct keys.
    #[must_use]
    pub fn new(capacity_keys: usize) -> Self {
        Self {
            entries: BTreeMap::new(),
            range_dels: Vec::new(),
            capacity_keys: capacity_keys.max(1),
            approximate_bytes: 0,
            retain_floor: SeqNo::MAX,
        }
    }

    /// Sets the multi-version retention floor: the smallest sequence
    /// number any active snapshot is pinned at (`u64::MAX` when none).
    /// An overwrite keeps every version down to — and including — the
    /// newest version at or below the floor; everything older is
    /// unobservable by any current or future reader and is dropped.
    pub fn set_retain_floor(&mut self, floor: SeqNo) {
        self.retain_floor = floor;
    }

    /// Inserts a live value for `key` (overwriting versions no pinned
    /// reader can observe).
    pub fn put(&mut self, key: Key, value: Value, seqno: SeqNo) {
        self.insert(key, value, seqno, ValueKind::Put);
    }

    /// Records a deletion tombstone for `key`.
    pub fn delete(&mut self, key: Key, seqno: SeqNo) {
        self.insert(key, Bytes::new(), seqno, ValueKind::Tombstone);
    }

    /// Records a range tombstone over `[start, end)` — a single record
    /// regardless of how many keys the interval covers.
    pub fn delete_range(&mut self, start: Key, end: Key, seqno: SeqNo) {
        let rd = RangeTombstone::new(start, end, seqno);
        self.approximate_bytes += rd.encoded_size();
        self.range_dels.push(rd);
    }

    /// Applies one logged record (a live write or a WAL replay). A range
    /// delete logs its exclusive end bound as the record value.
    pub fn apply(&mut self, record: WalRecord) {
        match record.kind {
            ValueKind::Put => self.put(record.key, record.value, record.seqno),
            ValueKind::Tombstone => self.delete(record.key, record.seqno),
            ValueKind::RangeDelete => self.delete_range(record.key, record.value, record.seqno),
        }
    }

    fn insert(&mut self, key: Key, value: Value, seqno: SeqNo, kind: ValueKind) {
        self.approximate_bytes += key.len() + value.len() + 17;
        let versions = self.entries.entry(key.clone()).or_default();
        // Writes arrive in seqno order, so the new version is newest.
        versions.insert(0, (value, seqno, kind));
        // Keep the newest version plus everything a pinned reader could
        // still observe: scan newest-first and cut after the first
        // version at or below the retention floor.
        let mut keep = versions.len();
        for (i, (_, s, _)) in versions.iter().enumerate() {
            if *s <= self.retain_floor {
                keep = i + 1;
                break;
            }
        }
        for (old_value, _, _) in versions.drain(keep..) {
            self.approximate_bytes = self
                .approximate_bytes
                .saturating_sub(key.len() + old_value.len() + 17);
        }
    }

    /// Looks up the newest version of `key`, if present. A tombstone is
    /// reported as `Some(entry)` with [`Entry::is_tombstone`] true so the
    /// read path can stop searching older sstables. Range deletes are
    /// *not* consulted here — visibility against them is resolved by the
    /// caller, which must check every layer's range tombstones.
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<Entry> {
        self.get_visible(key, SeqNo::MAX)
    }

    /// Looks up the newest version of `key` with `seqno <= upto` — the
    /// pinned-snapshot variant of [`Memtable::get`].
    #[must_use]
    pub fn get_visible(&self, key: &[u8], upto: SeqNo) -> Option<Entry> {
        let versions = self.entries.get(key)?;
        versions
            .iter()
            .find(|(_, seqno, _)| *seqno <= upto)
            .map(|(value, seqno, kind)| Entry {
                key: Bytes::copy_from_slice(key),
                value: value.clone(),
                seqno: *seqno,
                kind: *kind,
            })
    }

    /// The buffered range tombstones, in write order.
    #[must_use]
    pub fn range_dels(&self) -> &[RangeTombstone] {
        &self.range_dels
    }

    /// The largest range-tombstone seqno at or below `upto` covering
    /// `key`, or `None` when no buffered range delete covers it.
    #[must_use]
    pub fn max_covering_range_del(&self, key: &[u8], upto: SeqNo) -> Option<SeqNo> {
        self.range_dels
            .iter()
            .filter(|rd| rd.seqno <= upto && rd.covers(key))
            .map(|rd| rd.seqno)
            .max()
    }

    /// Number of distinct keys currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no writes (point or range) are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.range_dels.is_empty()
    }

    /// Returns `true` once the memtable has reached its key capacity and
    /// should be flushed.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity_keys
    }

    /// The configured key capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity_keys
    }

    /// Approximate memory footprint of the buffered entries in bytes.
    #[must_use]
    pub fn approximate_size(&self) -> usize {
        self.approximate_bytes
    }

    /// Collects the buffered entries whose keys fall inside
    /// `(start, end)`, in internal-key order (key ascending, versions
    /// newest-first). Returns an owned snapshot — the scan path calls
    /// this under a brief read lock and then iterates without holding
    /// any lock. An inverted/empty range yields no entries (never
    /// panics, unlike raw `BTreeMap::range`).
    #[must_use]
    pub fn range(&self, start: &std::ops::Bound<Key>, end: &std::ops::Bound<Key>) -> Vec<Entry> {
        use std::ops::Bound;
        let empty = match (start, end) {
            (Bound::Included(s), Bound::Included(e)) => s > e,
            (Bound::Included(s), Bound::Excluded(e))
            | (Bound::Excluded(s), Bound::Included(e))
            | (Bound::Excluded(s), Bound::Excluded(e)) => s >= e,
            _ => false,
        };
        if empty {
            return Vec::new();
        }
        self.entries
            .range((start.clone(), end.clone()))
            .flat_map(|(key, versions)| {
                versions.iter().map(move |(value, seqno, kind)| Entry {
                    key: key.clone(),
                    value: value.clone(),
                    seqno: *seqno,
                    kind: *kind,
                })
            })
            .collect()
    }

    /// Iterates the buffered entries in internal-key order (the order
    /// they will be written to an sstable on flush): key ascending,
    /// versions of one key newest-first.
    pub fn iter(&self) -> impl Iterator<Item = Entry> + '_ {
        self.entries.iter().flat_map(|(key, versions)| {
            versions.iter().map(move |(value, seqno, kind)| Entry {
                key: key.clone(),
                value: value.clone(),
                seqno: *seqno,
                kind: *kind,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::key_from_u64;

    #[test]
    fn put_get_overwrite() {
        let mut mt = Memtable::new(10);
        mt.put(key_from_u64(1), Bytes::from_static(b"v1"), 1);
        mt.put(key_from_u64(1), Bytes::from_static(b"v2"), 2);
        let e = mt.get(&key_from_u64(1)).unwrap();
        assert_eq!(e.value.as_ref(), b"v2");
        assert_eq!(e.seqno, 2);
        assert_eq!(mt.len(), 1);
        assert!(mt.get(&key_from_u64(9)).is_none());
    }

    #[test]
    fn delete_leaves_tombstone() {
        let mut mt = Memtable::new(10);
        mt.put(key_from_u64(1), Bytes::from_static(b"v"), 1);
        mt.delete(key_from_u64(1), 2);
        let e = mt.get(&key_from_u64(1)).unwrap();
        assert!(e.is_tombstone());
        assert_eq!(mt.len(), 1, "tombstone still occupies the key slot");
    }

    #[test]
    fn capacity_counts_distinct_keys() {
        let mut mt = Memtable::new(3);
        for _ in 0..100 {
            mt.put(key_from_u64(7), Bytes::from_static(b"x"), 1);
        }
        assert!(!mt.is_full(), "duplicates must not fill the memtable");
        mt.put(key_from_u64(8), Bytes::from_static(b"x"), 2);
        mt.put(key_from_u64(9), Bytes::from_static(b"x"), 3);
        assert!(mt.is_full());
        assert_eq!(mt.capacity(), 3);
    }

    #[test]
    fn iter_returns_key_order_without_draining() {
        let mut mt = Memtable::new(10);
        for key in [5u64, 1, 9, 3] {
            mt.put(key_from_u64(key), Bytes::from_static(b"x"), key);
        }
        let keys: Vec<u64> = mt
            .iter()
            .map(|e| crate::types::key_to_u64(&e.key).unwrap())
            .collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
        assert_eq!(mt.len(), 4, "iter does not drain");
    }

    #[test]
    fn approximate_size_tracks_overwrites() {
        let mut mt = Memtable::new(10);
        mt.put(key_from_u64(1), Bytes::from(vec![0u8; 100]), 1);
        let size_big = mt.approximate_size();
        mt.put(key_from_u64(1), Bytes::from(vec![0u8; 10]), 2);
        assert!(mt.approximate_size() < size_big);
    }

    #[test]
    fn retain_floor_keeps_versions_pinned_readers_need() {
        let mut mt = Memtable::new(10);
        mt.put(key_from_u64(1), Bytes::from_static(b"v5"), 5);
        // A snapshot pinned at seqno 5 must keep seeing v5 across
        // overwrites.
        mt.set_retain_floor(5);
        mt.put(key_from_u64(1), Bytes::from_static(b"v8"), 8);
        mt.put(key_from_u64(1), Bytes::from_static(b"v9"), 9);
        assert_eq!(mt.len(), 1, "capacity still counts distinct keys");
        assert_eq!(mt.get(&key_from_u64(1)).unwrap().value.as_ref(), b"v9");
        assert_eq!(
            mt.get_visible(&key_from_u64(1), 5).unwrap().value.as_ref(),
            b"v5"
        );
        assert_eq!(
            mt.get_visible(&key_from_u64(1), 8).unwrap().value.as_ref(),
            b"v8",
            "intermediate versions above the floor are retained"
        );
        assert!(mt.get_visible(&key_from_u64(1), 4).is_none());
        // Releasing the pin lets the next overwrite collapse history.
        mt.set_retain_floor(SeqNo::MAX);
        mt.put(key_from_u64(1), Bytes::from_static(b"v12"), 12);
        assert!(mt.get_visible(&key_from_u64(1), 9).is_none());
        let versions: Vec<Entry> = mt.iter().collect();
        assert_eq!(versions.len(), 1, "history collapsed to the newest");
    }

    #[test]
    fn range_delete_is_one_record_and_coverage_queries_work() {
        let mut mt = Memtable::new(10);
        mt.put(key_from_u64(1), Bytes::from_static(b"a"), 1);
        mt.put(key_from_u64(5), Bytes::from_static(b"b"), 2);
        let before = mt.approximate_size();
        mt.delete_range(key_from_u64(0), key_from_u64(100), 3);
        assert_eq!(mt.range_dels().len(), 1);
        assert!(mt.approximate_size() > before);
        assert_eq!(mt.len(), 2, "range delete does not occupy key slots");
        assert!(!mt.is_empty());
        assert_eq!(
            mt.max_covering_range_del(&key_from_u64(5), u64::MAX),
            Some(3)
        );
        assert_eq!(
            mt.max_covering_range_del(&key_from_u64(5), 2),
            None,
            "a snapshot pinned before the delete does not see it"
        );
        assert_eq!(
            mt.max_covering_range_del(&key_from_u64(100), u64::MAX),
            None
        );
    }

    #[test]
    fn multi_version_range_returns_newest_first_per_key() {
        let mut mt = Memtable::new(10);
        mt.set_retain_floor(0);
        mt.put(key_from_u64(1), Bytes::from_static(b"old"), 1);
        mt.put(key_from_u64(1), Bytes::from_static(b"new"), 2);
        let entries = mt.range(&std::ops::Bound::Unbounded, &std::ops::Bound::Unbounded);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].seqno, 2, "newest version first");
        assert_eq!(entries[1].seqno, 1);
    }
}
