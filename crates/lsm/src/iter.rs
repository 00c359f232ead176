//! Heap-based k-way merging iterator.
//!
//! This is the heart of physical compaction: it merge-sorts the entries of
//! `k` sorted sources, keeps only the newest version of each user key
//! (largest sequence number), and can optionally drop tombstones when the
//! merge produces the final table of a major compaction.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::types::{Entry, InternalKey, RangeTombstone, SeqNo};

/// An entry tagged with the index of the source it came from, ordered so
/// the binary heap pops the smallest internal key first and, on ties,
/// prefers the newer source (higher source index = more recent sstable).
#[derive(Debug, PartialEq, Eq)]
struct HeapItem {
    key: InternalKey,
    source: usize,
    entry: Entry,
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| other.source.cmp(&self.source))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Merges multiple sorted entry streams, de-duplicating by user key.
///
/// Sources must each be sorted by internal key (user key ascending,
/// newest first), which is how memtables and sstables naturally iterate.
/// When two sources contain the same user key with the same sequence
/// number (possible when replaying mixed memtable/WAL sources), the source
/// with the larger index wins; callers list sources oldest-to-newest.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use lsm_engine::{Entry, MergingIter};
///
/// let old = vec![Entry::put(Bytes::from_static(b"a"), Bytes::from_static(b"1"), 1)];
/// let new = vec![Entry::put(Bytes::from_static(b"a"), Bytes::from_static(b"2"), 5)];
/// let merged: Vec<Entry> = MergingIter::new(vec![old, new], false).collect();
/// assert_eq!(merged.len(), 1);
/// assert_eq!(merged[0].value.as_ref(), b"2");
/// ```
#[derive(Debug)]
pub struct MergingIter {
    heap: BinaryHeap<Reverse<HeapItem>>,
    sources: Vec<std::vec::IntoIter<Entry>>,
    drop_tombstones: bool,
    /// Smallest pinned sequence number (`u64::MAX` with no pins, which
    /// collapses history to the newest version — the classic behavior).
    retain_floor: SeqNo,
    /// Range tombstones drawn from the merge inputs; point versions they
    /// shadow below the floor are dropped during the merge.
    range_dels: Vec<RangeTombstone>,
    /// The user key currently being merged.
    current_key: Option<bytes::Bytes>,
    /// All remaining (older) versions of `current_key` are dropped.
    key_done: bool,
    /// Seqno of the last version emitted for `current_key`, so the same
    /// version arriving from two sources is emitted once.
    last_emitted_seqno: Option<SeqNo>,
}

impl MergingIter {
    /// Creates a merging iterator over `sources` (each already sorted).
    /// When `drop_tombstones` is true, tombstone versions are swallowed —
    /// appropriate only for a merge that produces the single final table
    /// of a major compaction. History collapses to the newest version
    /// per key; use [`MergingIter::with_visibility`] when snapshots are
    /// pinned or range tombstones apply.
    #[must_use]
    pub fn new(sources: Vec<Vec<Entry>>, drop_tombstones: bool) -> Self {
        Self::with_visibility(sources, drop_tombstones, SeqNo::MAX, Vec::new())
    }

    /// Creates a merging iterator that retains every version a snapshot
    /// pinned at or above `retain_floor` can still observe: per user
    /// key, the newest version plus all versions down to — and
    /// including — the first at or below the floor. Point versions
    /// shadowed by one of `range_dels` below the floor are dropped, and
    /// when `drop_tombstones` is set, a point tombstone at or below the
    /// floor deletes its key (and all older versions) from the output.
    #[must_use]
    pub fn with_visibility(
        sources: Vec<Vec<Entry>>,
        drop_tombstones: bool,
        retain_floor: SeqNo,
        range_dels: Vec<RangeTombstone>,
    ) -> Self {
        let mut iters: Vec<std::vec::IntoIter<Entry>> =
            sources.into_iter().map(Vec::into_iter).collect();
        let mut heap = BinaryHeap::new();
        for (idx, iter) in iters.iter_mut().enumerate() {
            if let Some(entry) = iter.next() {
                heap.push(Reverse(HeapItem {
                    key: entry.internal_key(),
                    source: idx,
                    entry,
                }));
            }
        }
        Self {
            heap,
            sources: iters,
            drop_tombstones,
            retain_floor,
            range_dels,
            current_key: None,
            key_done: false,
            last_emitted_seqno: None,
        }
    }

    fn advance_source(&mut self, source: usize) {
        if let Some(entry) = self.sources[source].next() {
            self.heap.push(Reverse(HeapItem {
                key: entry.internal_key(),
                source,
                entry,
            }));
        }
    }
}

impl Iterator for MergingIter {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        while let Some(Reverse(item)) = self.heap.pop() {
            self.advance_source(item.source);
            if self
                .current_key
                .as_ref()
                .is_none_or(|last| *last != item.entry.key)
            {
                self.current_key = Some(item.entry.key.clone());
                self.key_done = false;
                self.last_emitted_seqno = None;
            } else if self.key_done {
                continue; // an older version no possible reader can see
            } else if self.last_emitted_seqno == Some(item.entry.seqno) {
                continue; // the same version supplied by two sources
            }
            // A range tombstone at or below the floor shadows this
            // version — and, having a larger seqno, every older version
            // of the key too.
            if self.range_dels.iter().any(|rd| {
                rd.seqno <= self.retain_floor && rd.shadows(&item.entry.key, item.entry.seqno)
            }) {
                self.key_done = true;
                continue;
            }
            // On a final merge, a point tombstone at or below the floor
            // deletes the key outright: every older version is among the
            // inputs, so nothing can resurrect.
            if self.drop_tombstones
                && item.entry.is_tombstone()
                && item.entry.seqno <= self.retain_floor
            {
                self.key_done = true;
                continue;
            }
            // Retention: keep versions newest-first until one at or
            // below the floor has been kept; everything older is
            // unobservable by any pin.
            if item.entry.seqno <= self.retain_floor {
                self.key_done = true;
            }
            self.last_emitted_seqno = Some(item.entry.seqno);
            return Some(item.entry);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{key_from_u64, key_to_u64};
    use bytes::Bytes;

    fn put(key: u64, val: &str, seq: u64) -> Entry {
        Entry::put(key_from_u64(key), Bytes::from(val.to_owned()), seq)
    }

    #[test]
    fn merges_disjoint_sources_in_key_order() {
        let a = vec![put(1, "a", 1), put(3, "c", 1), put(5, "e", 1)];
        let b = vec![put(2, "b", 2), put(4, "d", 2)];
        let merged: Vec<u64> = MergingIter::new(vec![a, b], false)
            .map(|e| key_to_u64(&e.key).unwrap())
            .collect();
        assert_eq!(merged, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn newest_version_wins() {
        let old = vec![put(1, "old", 1), put(2, "keep", 1)];
        let new = vec![put(1, "new", 9)];
        let merged: Vec<Entry> = MergingIter::new(vec![old, new], false).collect();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].value.as_ref(), b"new");
        assert_eq!(merged[1].value.as_ref(), b"keep");
    }

    #[test]
    fn tombstones_kept_or_dropped() {
        let base = vec![put(1, "v", 1), put(2, "w", 1)];
        let newer = vec![Entry::tombstone(key_from_u64(1), 5)];

        let kept: Vec<Entry> = MergingIter::new(vec![base.clone(), newer.clone()], false).collect();
        assert_eq!(kept.len(), 2);
        assert!(kept[0].is_tombstone());

        let dropped: Vec<Entry> = MergingIter::new(vec![base, newer], true).collect();
        assert_eq!(dropped.len(), 1);
        assert_eq!(key_to_u64(&dropped[0].key), Some(2));
    }

    #[test]
    fn tombstone_shadows_older_put_even_when_dropped() {
        // Key 1 has an old put and a newer tombstone: with drop_tombstones
        // the key must vanish entirely, not resurrect the old value.
        let old = vec![put(1, "zombie", 1)];
        let newer = vec![Entry::tombstone(key_from_u64(1), 2)];
        let merged: Vec<Entry> = MergingIter::new(vec![old, newer], true).collect();
        assert!(merged.is_empty());
    }

    #[test]
    fn equal_seqno_prefers_later_source() {
        let s0 = vec![put(1, "from-source-0", 7)];
        let s1 = vec![put(1, "from-source-1", 7)];
        let merged: Vec<Entry> = MergingIter::new(vec![s0, s1], false).collect();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].value.as_ref(), b"from-source-1");
    }

    #[test]
    fn empty_sources_and_no_sources() {
        assert_eq!(MergingIter::new(vec![], false).count(), 0);
        assert_eq!(MergingIter::new(vec![vec![], vec![]], false).count(), 0);
    }

    #[test]
    fn retain_floor_keeps_pinned_history() {
        // Versions of key 1 at seqnos 9, 6, 3, 1; floor (oldest pin) 5.
        // A pin P ≥ 5 reads the newest version ≤ P, so 9 and 6 are
        // reachable, 3 is the newest version a pin at exactly 5 sees,
        // and 1 is unobservable by every possible pin.
        let src = vec![vec![
            put(1, "v9", 9),
            put(1, "v6", 6),
            put(1, "v3", 3),
            put(1, "v1", 1),
        ]];
        let merged: Vec<u64> = MergingIter::with_visibility(src, false, 5, Vec::new())
            .map(|e| e.seqno)
            .collect();
        assert_eq!(
            merged,
            vec![9, 6, 3],
            "3 is the newest version a pin at 5 sees"
        );
    }

    #[test]
    fn range_del_below_floor_drops_covered_versions() {
        let rd = RangeTombstone::new(key_from_u64(0), key_from_u64(10), 5);
        let src = vec![vec![put(1, "new", 8), put(1, "old", 2), put(20, "out", 2)]];
        let merged: Vec<Entry> =
            MergingIter::with_visibility(src, false, SeqNo::MAX, vec![rd.clone()]).collect();
        assert_eq!(merged.len(), 2);
        assert_eq!(
            merged[0].seqno, 8,
            "version newer than the range del survives"
        );
        assert_eq!(key_to_u64(&merged[1].key), Some(20), "outside the interval");

        // With the floor below the range del's seqno, nothing may drop:
        // a pin between the two could still read the old version.
        let src = vec![vec![put(1, "new", 8), put(1, "old", 2)]];
        let merged: Vec<Entry> = MergingIter::with_visibility(src, false, 3, vec![rd]).collect();
        assert_eq!(
            merged.len(),
            2,
            "floor 3 < rd seqno 5: covered version retained"
        );
    }

    #[test]
    fn tombstone_above_floor_survives_final_merge() {
        let src = vec![vec![
            Entry::tombstone(key_from_u64(1), 8),
            put(1, "pinned", 4),
        ]];
        let merged: Vec<Entry> = MergingIter::with_visibility(src, true, 5, Vec::new()).collect();
        assert_eq!(merged.len(), 2, "pin at 5 still reads seqno-4 value");
        assert!(merged[0].is_tombstone());

        // Once the floor passes the tombstone, the whole key vanishes.
        let src = vec![vec![
            Entry::tombstone(key_from_u64(1), 8),
            put(1, "dead", 4),
        ]];
        let merged: Vec<Entry> =
            MergingIter::with_visibility(src, true, SeqNo::MAX, Vec::new()).collect();
        assert!(merged.is_empty());
    }

    #[test]
    fn duplicate_version_from_two_sources_emits_once() {
        let s0 = vec![put(1, "copy", 7), put(1, "older", 2)];
        let s1 = vec![put(1, "copy", 7)];
        let merged: Vec<Entry> =
            MergingIter::with_visibility(vec![s0, s1], false, 0, Vec::new()).collect();
        let seqnos: Vec<u64> = merged.iter().map(|e| e.seqno).collect();
        assert_eq!(seqnos, vec![7, 2]);
    }

    #[test]
    fn many_sources_stress() {
        // 16 sources, overlapping key ranges, newest source has the
        // largest seqnos; result must be sorted and contain each key once.
        let mut sources = Vec::new();
        for s in 0..16u64 {
            let entries: Vec<Entry> = (0..100).map(|k| put(k, &format!("s{s}"), s + 1)).collect();
            sources.push(entries);
        }
        let merged: Vec<Entry> = MergingIter::new(sources, false).collect();
        assert_eq!(merged.len(), 100);
        assert!(merged.windows(2).all(|w| w[0].key < w[1].key));
        assert!(merged.iter().all(|e| e.value.as_ref() == b"s15"));
    }
}
