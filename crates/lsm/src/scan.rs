//! Streaming, snapshot-consistent range scans.
//!
//! [`Lsm::range`] returns a [`RangeIter`]: the engine's k-way merge
//! ([`MergingIter`]) under the scan visibility rule,
//! over
//!
//! * a **memtable view** — the in-range entries of the active memtable
//!   *and* of every generation parked on the frozen-memtable queue,
//!   copied out under brief read locks
//!   when the scan (re)builds its state;
//! * one cursor per live sstable that **can** contain keys in the range.
//!   Tables whose persisted min/max meta is disjoint from the scan
//!   bounds are pruned before their blooms or blocks are ever touched
//!   (key-range-partitioned probing, counted in
//!   [`LsmStats::range_pruned_tables`](crate::LsmStats)).
//!
//! Entries stream out newest-wins with tombstones suppressed. Each
//! table cursor walks the reader's readahead-aware block cursor
//! (`BlockCursor`): one ranged read fetches up to 8 consecutive blocks
//! (never past the block covering the scan's end bound), decoded lazily. A scan reads blocks the cache already holds
//! but never inserts the ones it fetches, so a long scan cannot flush
//! the hot set. Nothing is materialized beyond one decoded block and one
//! raw prefetched span per probed table.
//!
//! # Consistency under concurrent compaction
//!
//! The scan pins the table snapshot current at build time (one
//! `Arc::clone` under a read lock that is never held across I/O). If
//! a compaction retires a pinned table mid-iteration and its blob is
//! already deleted, the scan — exactly like [`Lsm::get`] — reloads the
//! freshest snapshot and resumes after the last key it returned: the
//! merged data is, by construction, in the compaction output, so no key
//! is lost or duplicated. Entries past the resume point reflect the
//! newer snapshot (which can only contain newer versions).

use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

use crate::db::{is_retired_table, LsmInner, ReadView};
use crate::iter::{MergingIter, Visible};
use crate::reader::{BlockCursor, ReadContext, SstableReader};
use crate::types::{Entry, Key, SeqNo, Value};
use crate::Error;
#[cfg(doc)]
use crate::Lsm;

/// `true` when `key` lies beyond the scan's end bound.
fn past_end(key: &[u8], end: &Bound<Key>) -> bool {
    match end {
        Bound::Included(e) => key > e.as_ref(),
        Bound::Excluded(e) => key >= e.as_ref(),
        Bound::Unbounded => false,
    }
}

/// `true` when `key` precedes the scan's start bound.
fn before_start(key: &[u8], start: &Bound<Key>) -> bool {
    match start {
        Bound::Included(s) => key < s.as_ref(),
        Bound::Excluded(s) => key <= s.as_ref(),
        Bound::Unbounded => false,
    }
}

/// A streaming range scan over an [`Lsm`] store.
///
/// Yields `(key, value)` pairs in ascending key order, newest version
/// per key, tombstones suppressed. Produced by [`Lsm::range`] and
/// [`Snapshot::range`](crate::Snapshot::range); see the
/// [module docs](self) for the consistency contract.
#[derive(Debug)]
pub struct RangeIter<'a> {
    db: &'a LsmInner,
    /// Resume position: the original start bound, tightened to
    /// `Excluded(last emitted key)` as the scan advances so a rebuilt
    /// state continues exactly where the previous one stopped.
    cursor: Bound<Key>,
    end: Bound<Key>,
    /// Visibility ceiling: records sequenced after this LSN are skipped
    /// before newest-wins dedup, so a pinned scan resolves each key to
    /// the newest version *at the snapshot*, not the newest overall.
    /// `SeqNo::MAX` for plain [`Lsm::range`] scans.
    upto: SeqNo,
    state: Option<ScanState<'a>>,
    done: bool,
}

impl<'a> RangeIter<'a> {
    pub(crate) fn new(db: &'a LsmInner, range: impl RangeBounds<Key>) -> Self {
        Self::pinned(db, range, SeqNo::MAX)
    }

    /// A scan that only observes records with `seqno <= upto` — the
    /// engine side of [`Snapshot::range`](crate::Snapshot::range).
    pub(crate) fn pinned(db: &'a LsmInner, range: impl RangeBounds<Key>, upto: SeqNo) -> Self {
        Self {
            db,
            cursor: range.start_bound().cloned(),
            end: range.end_bound().cloned(),
            upto,
            state: None,
            done: false,
        }
    }

    /// Builds (or rebuilds, after a compaction retired a pinned table)
    /// the merge state from the freshest snapshot, retrying the build
    /// itself if it races another flip.
    fn build_state(&mut self) -> Result<ScanState<'a>, Error> {
        loop {
            // Read in the opposite order of data flow (active memtable →
            // frozen queue → tables): a freeze moves entries active →
            // frozen and a flush publishes its table *before* popping the
            // frozen generation, so an entry racing either hand-off is
            // seen by at least one stage (duplicates deduplicate
            // newest-wins in the merge).
            let memtable = self.db.memtable_range(&self.cursor, &self.end);
            let frozen = self.db.frozen_ranges(&self.cursor, &self.end);
            let snapshot = self.db.read_view();
            match ScanState::build(
                self.db,
                Arc::clone(&snapshot),
                frozen,
                memtable,
                &self.cursor,
                &self.end,
                self.upto,
            ) {
                Ok(state) => return Ok(state),
                Err(e) if is_retired_table(&e) && self.db.read_view_changed(&snapshot) => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Iterator for RangeIter<'_> {
    type Item = Result<(Key, Value), Error>;

    fn next(&mut self) -> Option<Self::Item> {
        let started = std::time::Instant::now();
        let item = self.next_inner();
        self.db.record_scan_next(started.elapsed());
        item
    }
}

impl RangeIter<'_> {
    fn next_inner(&mut self) -> Option<Result<(Key, Value), Error>> {
        if self.done {
            return None;
        }
        loop {
            if self.state.is_none() {
                match self.build_state() {
                    Ok(state) => self.state = Some(state),
                    Err(e) => {
                        self.done = true;
                        return Some(Err(e));
                    }
                }
            }
            let state = self.state.as_mut().expect("state built above");
            match state.merged.next() {
                None => {
                    self.done = true;
                    return None;
                }
                Some(Ok(entry)) => {
                    self.cursor = Bound::Excluded(entry.key.clone());
                    if entry.is_tombstone() {
                        continue;
                    }
                    return Some(Ok((entry.key, entry.value)));
                }
                Some(Err(e)) => {
                    let snapshot = &self.state.as_ref().expect("state").snapshot;
                    if is_retired_table(&e) && self.db.read_view_changed(snapshot) {
                        // A pinned table was compacted away mid-scan:
                        // resume from the freshest snapshot after the
                        // last key this scan handled.
                        self.state = None;
                        continue;
                    }
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

/// One merge source: a memtable slice or an sstable cursor.
#[derive(Debug)]
enum Source<'a> {
    Memtable(std::vec::IntoIter<Entry>),
    Table(TableCursor<'a>),
}

impl Iterator for Source<'_> {
    type Item = Result<Entry, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Source::Memtable(iter) => iter.next().map(Ok),
            Source::Table(cursor) => cursor.next(),
        }
    }
}

/// Walks one sstable's in-range entries on the reader's
/// [`BlockCursor`]: seeked to the block covering the scan cursor at
/// build time (so a rebuilt scan never re-fetches fully-consumed
/// blocks) and readahead-limited to the block covering the end bound.
#[derive(Debug)]
struct TableCursor<'a> {
    reader: Arc<SstableReader>,
    ctx: ReadContext<'a>,
    core: BlockCursor,
    /// Entries inside the first block that precede this bound are
    /// skipped before anything is yielded.
    start: Bound<Key>,
    end: Bound<Key>,
    started: bool,
    /// Set once an entry at/past the end bound (or an error) is seen:
    /// no later entry can be in range.
    exhausted: bool,
}

impl<'a> TableCursor<'a> {
    fn new(
        reader: Arc<SstableReader>,
        ctx: ReadContext<'a>,
        start: &Bound<Key>,
        end: &Bound<Key>,
    ) -> Self {
        let block_idx = reader.seek_block_idx(start);
        let limit = reader.end_block_limit(end);
        Self {
            reader,
            ctx,
            core: BlockCursor::with_limit(block_idx, limit),
            start: start.clone(),
            end: end.clone(),
            started: false,
            exhausted: false,
        }
    }

    fn next(&mut self) -> Option<Result<Entry, Error>> {
        if self.exhausted {
            return None;
        }
        let next = if self.started {
            self.core.next_entry(&self.reader, self.ctx)
        } else {
            self.started = true;
            let start = &self.start;
            self.core
                .skip_while(&self.reader, self.ctx, |e| before_start(&e.key, start))
        };
        match next {
            Some(Ok(entry)) if !past_end(&entry.key, &self.end) => Some(Ok(entry)),
            Some(Ok(_)) => {
                self.exhausted = true;
                None
            }
            Some(Err(e)) => {
                self.exhausted = true;
                Some(Err(e))
            }
            None => None,
        }
    }
}

/// The merge over one pinned snapshot: in-range entries in key order,
/// the newest visible version per user key (possibly a tombstone — the
/// [`RangeIter`] suppresses those).
#[derive(Debug)]
struct ScanState<'a> {
    snapshot: Arc<ReadView>,
    merged: Visible<MergingIter<Source<'a>>>,
}

impl<'a> ScanState<'a> {
    /// Builds the merge over `snapshot`: opens (via the table cache) a
    /// cursor for every live table overlapping `(cursor, end)`, pruning
    /// the rest by their persisted min/max meta.
    ///
    /// Every visible range tombstone — memtable, frozen queue and all
    /// probed tables — is applied globally. Pruning never loses one: a
    /// table's persisted min/max keys are widened over its
    /// range-tombstone bounds, so any table whose tombstones could touch
    /// the scan interval overlaps it and is probed.
    #[allow(clippy::too_many_arguments)]
    fn build(
        db: &'a LsmInner,
        snapshot: Arc<ReadView>,
        frozen: Vec<Vec<Entry>>,
        memtable: Vec<Entry>,
        cursor: &Bound<Key>,
        end: &Bound<Key>,
        upto: SeqNo,
    ) -> Result<Self, Error> {
        let start_ref = cursor.as_ref().map(|k| k.as_ref());
        let end_ref = end.as_ref().map(|k| k.as_ref());
        let ctx = db.scan_read_ctx();
        // Sources oldest-first — tables, then frozen generations (oldest
        // queued first), then the active memtable last: a version held
        // by two sources during a flush hand-off comes out once, from
        // the newer one.
        let mut sources: Vec<Source<'a>> = Vec::new();
        let mut range_dels = db.memtable_range_dels(upto);
        let mut pruned = 0u64;
        for meta in snapshot.tables.iter().rev() {
            let reader = db.open_reader(meta)?;
            if reader.may_overlap(start_ref, end_ref) {
                range_dels.extend(
                    reader
                        .range_dels()
                        .iter()
                        .filter(|rd| rd.seqno <= upto)
                        .cloned(),
                );
                sources.push(Source::Table(TableCursor::new(reader, ctx, cursor, end)));
            } else {
                pruned += 1;
            }
        }
        for generation in frozen {
            sources.push(Source::Memtable(generation.into_iter()));
        }
        sources.push(Source::Memtable(memtable.into_iter()));
        db.record_range_pruned(pruned);

        Ok(Self {
            snapshot,
            merged: Visible::new(MergingIter::new(sources), upto, range_dels),
        })
    }
}
