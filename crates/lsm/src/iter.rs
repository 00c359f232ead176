//! The k-way merge and the two visibility rules applied on top of it.
//!
//! [`MergingIter`] is the one heap in the engine: it merge-sorts `k`
//! sorted, fallible entry streams — sstable cursors, memtable slices —
//! into one stream in internal-key order, holding one entry per source.
//! It drops nothing. What a consumer may *see* of that stream is decided
//! by one of two thin filters:
//!
//! * [`Retained`] — the compaction retention rule, used by merge steps
//!   and tombstone GC: keep, per user key, every version a pinned
//!   snapshot can still observe, and nothing older;
//! * [`Visible`] — the scan read-visibility rule: per user key, the
//!   newest version at or below a sequence ceiling, unless a range
//!   tombstone shadows it.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::types::{Entry, Key, RangeTombstone, SeqNo};
use crate::Error;

/// The next entry of one source, ordered so the heap pops the smallest
/// internal key first (user key ascending, then newest version) and, on
/// exact internal-key ties, the later-listed source.
#[derive(Debug)]
struct HeapItem {
    entry: Entry,
    source: usize,
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        self.entry
            .key
            .cmp(&other.entry.key)
            .then_with(|| other.entry.seqno.cmp(&self.entry.seqno))
            .then_with(|| self.entry.kind.cmp(&other.entry.kind))
            .then_with(|| other.source.cmp(&self.source))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapItem {}

/// Merges sorted entry streams into one, in `(user key ascending,
/// sequence number descending)` order.
///
/// Each source must itself be sorted that way, which is how memtables
/// and sstables iterate. Every version of every key comes out; when two
/// sources hold the same version (same key, sequence number and kind —
/// possible while a flush hands a memtable over to its table) the
/// later-listed source's copy comes first, so callers list sources
/// oldest-to-newest. Sequence numbers, not source positions, decide
/// which version of a key is newer.
///
/// The merge streams: a source is pulled only when its previous entry
/// has been yielded. If a source yields an error the merge yields that
/// error and is then exhausted.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use lsm_engine::{Entry, MergingIter};
///
/// let old = vec![Entry::put(Bytes::from_static(b"a"), Bytes::from_static(b"1"), 1)];
/// let new = vec![
///     Entry::put(Bytes::from_static(b"a"), Bytes::from_static(b"2"), 5),
///     Entry::put(Bytes::from_static(b"b"), Bytes::from_static(b"3"), 6),
/// ];
/// let sources = vec![old.into_iter().map(Ok), new.into_iter().map(Ok)];
/// let merged: Vec<Entry> = MergingIter::new(sources).collect::<Result<_, _>>()?;
/// let seqnos: Vec<u64> = merged.iter().map(|e| e.seqno).collect();
/// assert_eq!(seqnos, vec![5, 1, 6], "a@5, a@1, b@6");
/// # Ok::<(), lsm_engine::Error>(())
/// ```
#[derive(Debug)]
pub struct MergingIter<S> {
    sources: Vec<S>,
    heap: BinaryHeap<Reverse<HeapItem>>,
    /// Sources whose next entry is not on the heap yet: all of them at
    /// first, afterwards the one whose entry was yielded last.
    pending: Vec<usize>,
}

impl<S: Iterator<Item = Result<Entry, Error>>> MergingIter<S> {
    /// Creates a merge over `sources` (each already sorted). Nothing is
    /// pulled until the first `next()`.
    #[must_use]
    pub fn new(sources: Vec<S>) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(sources.len()),
            pending: (0..sources.len()).collect(),
            sources,
        }
    }
}

impl<S: Iterator<Item = Result<Entry, Error>>> Iterator for MergingIter<S> {
    type Item = Result<Entry, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(source) = self.pending.pop() {
            match self.sources[source].next() {
                Some(Ok(entry)) => self.heap.push(Reverse(HeapItem { entry, source })),
                Some(Err(e)) => {
                    self.heap.clear();
                    self.pending.clear();
                    return Some(Err(e));
                }
                None => {}
            }
        }
        let Reverse(item) = self.heap.pop()?;
        self.pending.push(item.source);
        Some(Ok(item.entry))
    }
}

/// The compaction retention rule over an internal-key-ordered stream:
/// per user key, keep versions newest-first down to — and including —
/// the first at or below the pin `floor` (`SeqNo::MAX` with no pinned
/// snapshot, which keeps only the newest); everything older is
/// unobservable by any pin and dropped. Two records end a key early:
///
/// * a range tombstone at or below the floor that shadows a version
///   drops it and, having a larger sequence number, every older one;
/// * a point tombstone at or below the floor for which `droppable`
///   holds deletes the key outright. The caller vouches that nothing
///   outside the stream can resurrect the key: `|_| true` for the final
///   step of a merge that leaves no older live table out (every older
///   version is among the inputs), a bloom/min-max check of the other live tables for
///   tombstone GC, `|_| false` otherwise.
///
/// A version supplied twice (by two sources of a merge) is kept once.
#[derive(Debug)]
pub(crate) struct Retained<'a, I, F> {
    entries: I,
    floor: SeqNo,
    range_dels: &'a [RangeTombstone],
    droppable: F,
    /// The user key currently being decided.
    current_key: Option<Key>,
    /// All remaining (older) versions of `current_key` are dropped.
    key_done: bool,
    /// Seqno of the last version kept for `current_key`.
    last_kept_seqno: Option<SeqNo>,
    dropped: u64,
    tombstones_dropped: u64,
}

impl<'a, I, F> Retained<'a, I, F>
where
    I: Iterator<Item = Result<Entry, Error>>,
    F: FnMut(&Entry) -> bool,
{
    pub(crate) fn new(
        entries: I,
        floor: SeqNo,
        range_dels: &'a [RangeTombstone],
        droppable: F,
    ) -> Self {
        Self {
            entries,
            floor,
            range_dels,
            droppable,
            current_key: None,
            key_done: false,
            last_kept_seqno: None,
            dropped: 0,
            tombstones_dropped: 0,
        }
    }

    /// Entries swallowed so far.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// How many of the swallowed entries were point tombstones.
    pub(crate) fn tombstones_dropped(&self) -> u64 {
        self.tombstones_dropped
    }

    /// Whether `entry` survives; advances the per-key state either way.
    fn keep(&mut self, entry: &Entry) -> bool {
        if self.current_key.as_ref() != Some(&entry.key) {
            self.current_key = Some(entry.key.clone());
            self.key_done = false;
            self.last_kept_seqno = None;
        } else if self.key_done || self.last_kept_seqno == Some(entry.seqno) {
            return false;
        }
        let floor = self.floor;
        let at_or_below_floor = entry.seqno <= floor;
        let shadowed = self
            .range_dels
            .iter()
            .any(|rd| rd.seqno <= floor && rd.shadows(&entry.key, entry.seqno));
        let ends_key =
            shadowed || (entry.is_tombstone() && at_or_below_floor && (self.droppable)(entry));
        if ends_key {
            self.key_done = true;
            return false;
        }
        self.key_done = at_or_below_floor;
        self.last_kept_seqno = Some(entry.seqno);
        true
    }
}

impl<I, F> Iterator for Retained<'_, I, F>
where
    I: Iterator<Item = Result<Entry, Error>>,
    F: FnMut(&Entry) -> bool,
{
    type Item = Result<Entry, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let entry = match self.entries.next()? {
                Ok(entry) => entry,
                Err(e) => return Some(Err(e)),
            };
            if self.keep(&entry) {
                return Some(Ok(entry));
            }
            self.dropped += 1;
            self.tombstones_dropped += u64::from(entry.is_tombstone());
        }
    }
}

/// The scan read-visibility rule over an internal-key-ordered stream:
/// per user key, the newest version with `seqno <= upto` — possibly a
/// point tombstone, which the caller suppresses — unless one of
/// `range_dels` shadows it. Versions above the ceiling are skipped
/// *before* the newest-only cut, so an invisible newer version does not
/// mask the visible one behind it. The tombstones apply whichever layer
/// supplied them: shadowing is pure sequence-number arithmetic.
#[derive(Debug)]
pub(crate) struct Visible<I> {
    entries: I,
    upto: SeqNo,
    range_dels: Vec<RangeTombstone>,
    /// The last user key decided (yielded or found shadowed).
    decided: Option<Key>,
}

impl<I: Iterator<Item = Result<Entry, Error>>> Visible<I> {
    pub(crate) fn new(entries: I, upto: SeqNo, range_dels: Vec<RangeTombstone>) -> Self {
        Self {
            entries,
            upto,
            range_dels,
            decided: None,
        }
    }
}

impl<I: Iterator<Item = Result<Entry, Error>>> Iterator for Visible<I> {
    type Item = Result<Entry, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let entry = match self.entries.next()? {
                Ok(entry) => entry,
                Err(e) => return Some(Err(e)),
            };
            if entry.seqno > self.upto || self.decided.as_ref() == Some(&entry.key) {
                continue;
            }
            self.decided = Some(entry.key.clone());
            // A shadowed newest version retires the whole key: every
            // older version has a smaller seqno and is shadowed too.
            if !self
                .range_dels
                .iter()
                .any(|rd| rd.shadows(&entry.key, entry.seqno))
            {
                return Some(Ok(entry));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{key_from_u64, key_to_u64};
    use bytes::Bytes;

    type VecSource = std::iter::Map<std::vec::IntoIter<Entry>, fn(Entry) -> Result<Entry, Error>>;

    fn put(key: u64, val: &str, seq: u64) -> Entry {
        Entry::put(key_from_u64(key), Bytes::from(val.to_owned()), seq)
    }

    fn merge(sources: Vec<Vec<Entry>>) -> MergingIter<VecSource> {
        MergingIter::new(
            sources
                .into_iter()
                .map(|v| v.into_iter().map(Ok as fn(Entry) -> Result<Entry, Error>))
                .collect(),
        )
    }

    /// The retention rule over a merge of `sources`, collected.
    fn retained(
        sources: Vec<Vec<Entry>>,
        drop_tombstones: bool,
        floor: SeqNo,
        range_dels: &[RangeTombstone],
    ) -> Vec<Entry> {
        Retained::new(merge(sources), floor, range_dels, |_| drop_tombstones)
            .collect::<Result<_, _>>()
            .unwrap()
    }

    fn newest_only(sources: Vec<Vec<Entry>>, drop_tombstones: bool) -> Vec<Entry> {
        retained(sources, drop_tombstones, SeqNo::MAX, &[])
    }

    #[test]
    fn merges_disjoint_sources_in_key_order() {
        let a = vec![put(1, "a", 1), put(3, "c", 1), put(5, "e", 1)];
        let b = vec![put(2, "b", 2), put(4, "d", 2)];
        let merged: Vec<u64> = merge(vec![a, b])
            .map(|e| key_to_u64(&e.unwrap().key).unwrap())
            .collect();
        assert_eq!(merged, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn raw_merge_yields_every_version_newest_first() {
        let old = vec![put(1, "old", 1), put(2, "keep", 1)];
        let new = vec![put(1, "new", 9)];
        let merged: Vec<(u64, u64)> = merge(vec![old, new])
            .map(|e| e.unwrap())
            .map(|e| (key_to_u64(&e.key).unwrap(), e.seqno))
            .collect();
        assert_eq!(merged, vec![(1, 9), (1, 1), (2, 1)]);
    }

    #[test]
    fn newest_version_wins() {
        let old = vec![put(1, "old", 1), put(2, "keep", 1)];
        let new = vec![put(1, "new", 9)];
        let merged = newest_only(vec![old, new], false);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].value.as_ref(), b"new");
        assert_eq!(merged[1].value.as_ref(), b"keep");
    }

    #[test]
    fn tombstones_kept_or_dropped() {
        let base = vec![put(1, "v", 1), put(2, "w", 1)];
        let newer = vec![Entry::tombstone(key_from_u64(1), 5)];

        let kept = newest_only(vec![base.clone(), newer.clone()], false);
        assert_eq!(kept.len(), 2);
        assert!(kept[0].is_tombstone());

        let dropped = newest_only(vec![base, newer], true);
        assert_eq!(dropped.len(), 1);
        assert_eq!(key_to_u64(&dropped[0].key), Some(2));
    }

    #[test]
    fn tombstone_shadows_older_put_even_when_dropped() {
        // Key 1 has an old put and a newer tombstone: with droppable
        // tombstones the key must vanish entirely, not resurrect the old
        // value.
        let old = vec![put(1, "zombie", 1)];
        let newer = vec![Entry::tombstone(key_from_u64(1), 2)];
        assert!(newest_only(vec![old, newer], true).is_empty());
    }

    #[test]
    fn droppability_is_decided_per_tombstone() {
        // The GC shape: one input, a predicate that vouches for key 1
        // only. Key 2's tombstone must survive, and the counters report
        // exactly what was swallowed.
        let table = vec![
            Entry::tombstone(key_from_u64(1), 5),
            put(1, "dead", 2),
            Entry::tombstone(key_from_u64(2), 6),
            put(3, "live", 7),
        ];
        let mut retained = Retained::new(table.into_iter().map(Ok), SeqNo::MAX, &[], |e| {
            key_to_u64(&e.key) == Some(1)
        });
        let kept: Vec<Entry> = retained.by_ref().collect::<Result<_, _>>().unwrap();
        let keys: Vec<u64> = kept.iter().map(|e| key_to_u64(&e.key).unwrap()).collect();
        assert_eq!(keys, vec![2, 3]);
        assert!(kept[0].is_tombstone());
        assert_eq!(retained.dropped(), 2, "the tombstone and the put under it");
        assert_eq!(retained.tombstones_dropped(), 1);
    }

    #[test]
    fn equal_seqno_prefers_later_source() {
        let s0 = vec![put(1, "from-source-0", 7)];
        let s1 = vec![put(1, "from-source-1", 7)];
        let merged = newest_only(vec![s0, s1], false);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].value.as_ref(), b"from-source-1");
    }

    #[test]
    fn empty_sources_and_no_sources() {
        assert_eq!(merge(vec![]).count(), 0);
        assert_eq!(merge(vec![vec![], vec![]]).count(), 0);
    }

    #[test]
    fn source_error_ends_the_merge() {
        // Source 1 fails after two entries: the merge yields everything
        // that sorts before the failed pull, then the error, then stops —
        // source 0's remaining entries are never yielded.
        let good = vec![put(1, "a", 1), put(4, "d", 1), put(9, "z", 1)];
        let failing = [Ok(put(2, "b", 2)), Ok(put(3, "c", 2))]
            .into_iter()
            .chain(std::iter::once(Err(Error::corruption("block checksum"))))
            .chain(std::iter::once(Ok(put(5, "never", 2))));
        let sources: Vec<Box<dyn Iterator<Item = Result<Entry, Error>>>> =
            vec![Box::new(good.into_iter().map(Ok)), Box::new(failing)];
        let mut merged = MergingIter::new(sources);
        let mut keys = Vec::new();
        let err = loop {
            match merged.next().expect("the error comes before exhaustion") {
                Ok(e) => keys.push(key_to_u64(&e.key).unwrap()),
                Err(e) => break e,
            }
        };
        assert_eq!(keys, vec![1, 2, 3]);
        assert!(matches!(err, Error::Corruption { .. }), "{err}");
        assert!(merged.next().is_none(), "exhausted after the error");
        assert!(merged.next().is_none());
    }

    #[test]
    fn filters_pass_a_source_error_through() {
        let failing = || {
            let src = vec![Ok(put(1, "a", 1)), Err(Error::corruption("rot"))];
            MergingIter::new(vec![src.into_iter()])
        };
        let mut retained = Retained::new(failing(), SeqNo::MAX, &[], |_| true);
        assert!(retained.next().unwrap().is_ok());
        assert!(retained.next().unwrap().is_err());
        assert!(retained.next().is_none());

        let mut visible = Visible::new(failing(), SeqNo::MAX, Vec::new());
        assert!(visible.next().unwrap().is_ok());
        assert!(visible.next().unwrap().is_err());
        assert!(visible.next().is_none());
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
        let merged: Vec<u64> = retained(src, false, 5, &[])
            .iter()
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
        let rd = [RangeTombstone::new(key_from_u64(0), key_from_u64(10), 5)];
        let src = vec![vec![put(1, "new", 8), put(1, "old", 2), put(20, "out", 2)]];
        let merged = retained(src, false, SeqNo::MAX, &rd);
        assert_eq!(merged.len(), 2);
        assert_eq!(
            merged[0].seqno, 8,
            "version newer than the range del survives"
        );
        assert_eq!(key_to_u64(&merged[1].key), Some(20), "outside the interval");

        // With the floor below the range del's seqno, nothing may drop:
        // a pin between the two could still read the old version.
        let src = vec![vec![put(1, "new", 8), put(1, "old", 2)]];
        let merged = retained(src, false, 3, &rd);
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
        let merged = retained(src, true, 5, &[]);
        assert_eq!(merged.len(), 2, "pin at 5 still reads seqno-4 value");
        assert!(merged[0].is_tombstone());

        // Once the floor passes the tombstone, the whole key vanishes.
        let src = vec![vec![
            Entry::tombstone(key_from_u64(1), 8),
            put(1, "dead", 4),
        ]];
        assert!(retained(src, true, SeqNo::MAX, &[]).is_empty());
    }

    #[test]
    fn duplicate_version_from_two_sources_emits_once() {
        let s0 = vec![put(1, "copy", 7), put(1, "older", 2)];
        let s1 = vec![put(1, "copy", 7)];
        let seqnos: Vec<u64> = retained(vec![s0, s1], false, 0, &[])
            .iter()
            .map(|e| e.seqno)
            .collect();
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
        let merged = newest_only(sources, false);
        assert_eq!(merged.len(), 100);
        assert!(merged.windows(2).all(|w| w[0].key < w[1].key));
        assert!(merged.iter().all(|e| e.value.as_ref() == b"s15"));
    }

    #[test]
    fn visible_resolves_each_key_at_the_ceiling() {
        // Key 1: versions 9 and 4 — a ceiling of 5 must see 4, not skip
        // the key because 9 came first. Key 2: newest is a tombstone
        // (yielded; the scan suppresses it). Key 3: shadowed by a range
        // tombstone, so the whole key is retired, older version included.
        let src = vec![vec![
            put(1, "v9", 9),
            put(1, "v4", 4),
            Entry::tombstone(key_from_u64(2), 3),
            put(2, "old", 1),
            put(3, "new", 4),
            put(3, "old", 2),
        ]];
        let rd = RangeTombstone::new(key_from_u64(3), key_from_u64(4), 5);
        let seen: Vec<(u64, u64)> = Visible::new(merge(src), 5, vec![rd])
            .map(|e| e.unwrap())
            .map(|e| (key_to_u64(&e.key).unwrap(), e.seqno))
            .collect();
        assert_eq!(seen, vec![(1, 4), (2, 3)]);
    }
}
