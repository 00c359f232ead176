//! The sstable reader: tail resident, data blocks on demand.
//!
//! [`SstableReader`] is the one read path over the table format
//! [`SstableBuilder`](crate::SstableBuilder) writes. It opens a table
//! with two ranged reads — the footer, then the tail (bloom filter +
//! min/max meta + range tombstones + block index) — and keeps only that
//! tail resident. Every consumer then fetches data blocks through a
//! [`ReadContext`] that says where the bytes come from and what the
//! fetch may touch:
//!
//! * a **point read** rejects the key with the bloom filter or the
//!   min/max range (zero data blocks), binary-searches the index for the
//!   single candidate block, and serves it from the [`BlockCache`] or
//!   with one ranged read;
//! * a **scan** walks a [`BlockCursor`] whose ranged reads span several
//!   consecutive blocks (readahead), looking blocks up in the cache but
//!   not filling it;
//! * **maintenance** — a compaction input, a tombstone-GC rewrite, the
//!   planner's fallback past a rotten observation section — iterates the
//!   whole table with [`ReadContext::whole_table`]: no cache, one read
//!   covering the whole data section (footer probe + tail + data = the
//!   blob's bytes less its observation section, which no reader
//!   fetches) and counters of its own, so the serving path's
//!   [`ReadPathCounters`] keep meaning "gets and scans".
//!
//! A fetched block is checked once — its envelope CRC, the only checksum
//! an `LSMTABL6` data block has — and decoded into one buffer plus an
//! entry-offset array ([`Block`]) that lookups binary-search in place;
//! every entry handed out is a slice of it, so a cache hit copies none.
//!
//! Readers are immutable and shared (`Arc`) through the
//! [`TableCache`](crate::TableCache); the serving path's counters
//! surface in [`LsmStats`](crate::LsmStats).

use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use crate::block::Block;
use crate::bloom::BloomFilter;
use crate::cache::BlockCache;
use crate::compress::decode_block_envelope;
use crate::sstable::{decode_index, decode_meta, decode_range_dels, Footer};
use crate::storage::Storage;
use crate::types::{Entry, Key, RangeTombstone, SeqNo};
use crate::Error;

/// Atomic counters describing the physical work of block fetches. A
/// store shares one instance across its gets and scans and folds it into
/// [`LsmStats`](crate::LsmStats); maintenance reads feed a throwaway
/// instance instead.
#[derive(Debug, Default)]
pub struct ReadPathCounters {
    bloom_negatives: AtomicU64,
    block_reads: AtomicU64,
    block_read_bytes: AtomicU64,
    block_logical_bytes: AtomicU64,
}

impl ReadPathCounters {
    /// Probes rejected by a bloom filter or min/max range without
    /// touching a data block.
    #[must_use]
    pub fn bloom_negatives(&self) -> u64 {
        self.bloom_negatives.load(Ordering::Relaxed)
    }

    /// Data-block round-trips to storage on the read path (block-cache
    /// misses that reached storage). One ranged read spanning several
    /// blocks — scan readahead — counts once.
    #[must_use]
    pub fn block_reads(&self) -> u64 {
        self.block_reads.load(Ordering::Relaxed)
    }

    /// Bytes of data blocks fetched from storage on the read path, as
    /// stored on disk (compressed).
    #[must_use]
    pub fn block_read_bytes(&self) -> u64 {
        self.block_read_bytes.load(Ordering::Relaxed)
    }

    /// Logical (decompressed) bytes of the data blocks decoded on the
    /// read path. The spread between this and
    /// [`ReadPathCounters::block_read_bytes`] is the compression
    /// ratio the store is actually realizing.
    #[must_use]
    pub fn block_logical_bytes(&self) -> u64 {
        self.block_logical_bytes.load(Ordering::Relaxed)
    }

    fn record_bloom_negative(&self) {
        self.bloom_negatives.fetch_add(1, Ordering::Relaxed);
    }

    fn record_block_read(&self, bytes: u64) {
        self.block_reads.fetch_add(1, Ordering::Relaxed);
        self.block_read_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    fn record_block_decode(&self, logical_bytes: u64) {
        self.block_logical_bytes
            .fetch_add(logical_bytes, Ordering::Relaxed);
    }
}

/// Everything a reader needs to resolve a block: the storage, the
/// cache, the fill policy, the readahead width and the counters.
/// Borrowed per call so one reader can serve cached gets, cache-bypassing
/// scans and a compaction concurrently.
#[derive(Debug, Clone, Copy)]
pub struct ReadContext<'a> {
    /// Where the table's blob lives.
    pub storage: &'a dyn Storage,
    /// The block cache to consult, or `None` to neither look blocks up
    /// nor insert them (maintenance reads: their one pass over a table
    /// must not disturb the serving path's hit rate or recency order).
    pub block_cache: Option<&'a BlockCache>,
    /// Whether blocks fetched for this operation populate the cache
    /// (point reads: yes; scans: no, to avoid flushing the hot set).
    pub fill_cache: bool,
    /// How many consecutive blocks one ranged read may fetch when a
    /// cursor walks this table (clamped to ≥ 1). Point reads pass 1,
    /// scans 8.
    pub readahead_blocks: usize,
    /// Physical-work counters to feed.
    pub counters: &'a ReadPathCounters,
}

impl<'a> ReadContext<'a> {
    /// The context maintenance reads a whole table through: no block
    /// cache, and a readahead that covers the entire data section with
    /// one ranged read. `counters` should not be a store's serving-path
    /// instance.
    #[must_use]
    pub fn whole_table(storage: &'a dyn Storage, counters: &'a ReadPathCounters) -> Self {
        Self {
            storage,
            block_cache: None,
            fill_cache: false,
            readahead_blocks: usize::MAX,
            counters,
        }
    }
}

/// An open sstable: tail resident, data blocks on demand.
#[derive(Debug)]
pub struct SstableReader {
    table_id: u64,
    blob_name: String,
    bloom: BloomFilter,
    min_key: Option<Key>,
    max_key: Option<Key>,
    /// (last_key, offset, stored_len) per data block, in key order.
    index: Vec<(Key, u64, u64)>,
    /// Range tombstones, resident like the rest of the tail so
    /// coverage checks cost zero block I/O.
    range_dels: Vec<RangeTombstone>,
    entry_count: u64,
    total_len: u64,
    open_bytes: u64,
}

impl SstableReader {
    /// The canonical blob name for a table id.
    #[must_use]
    pub fn blob_name(table_id: u64) -> String {
        format!("sst-{table_id:012}.sst")
    }

    /// Parses a table id back out of a blob name produced by
    /// [`SstableReader::blob_name`]; `None` for any other blob
    /// (manifest, WAL segments, temporaries).
    #[must_use]
    pub fn id_from_blob_name(name: &str) -> Option<u64> {
        name.strip_prefix("sst-")?
            .strip_suffix(".sst")?
            .parse()
            .ok()
    }

    /// Opens the reader for `table_id`, loading only the footer and the
    /// tail (bloom + meta + range tombstones + index). `len_hint` is the
    /// blob length when the caller already knows it (the manifest
    /// records it); `None` asks the storage backend.
    ///
    /// # Errors
    ///
    /// Fails if the blob is missing, the footer/tail is corrupt, or the
    /// backend errors.
    pub fn open(
        storage: &dyn Storage,
        table_id: u64,
        len_hint: Option<u64>,
    ) -> Result<Self, Error> {
        let blob_name = Self::blob_name(table_id);
        let total_len = match len_hint {
            Some(len) => len,
            None => storage.blob_len(&blob_name)?,
        };
        let footer = Footer::read(storage, &blob_name, total_len)?;

        // One ranged read covers bloom + meta + range tombstones +
        // index: they are written contiguously right before the footer.
        let body_end = total_len as usize - Footer::LEN;
        let tail_len = body_end - footer.bloom_offset;
        let tail = storage.read_blob_range(&blob_name, footer.bloom_offset as u64, tail_len)?;
        let rel = |abs: usize| abs - footer.bloom_offset;

        let bloom = BloomFilter::decode(&tail[..footer.bloom_len])?;
        let index = decode_index(&tail[rel(footer.index_offset)..])?;
        let range_dels =
            decode_range_dels(&tail[rel(footer.range_del_offset)..rel(footer.index_offset)])?;
        let (min_key, max_key) =
            decode_meta(&tail[rel(footer.meta_offset)..rel(footer.range_del_offset)])?;

        let open_bytes = (Footer::LEN + tail_len) as u64;
        Ok(Self {
            table_id,
            blob_name,
            bloom,
            min_key,
            max_key,
            index,
            range_dels,
            entry_count: footer.entry_count,
            total_len,
            open_bytes,
        })
    }

    /// The table's id.
    #[must_use]
    pub fn table_id(&self) -> u64 {
        self.table_id
    }

    /// Number of entries in the table.
    #[must_use]
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Encoded size of the whole table blob in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> u64 {
        self.total_len
    }

    /// Number of data blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Smallest user key, from the persisted table meta (no block read).
    #[must_use]
    pub fn min_key(&self) -> Option<&Key> {
        self.min_key.as_ref()
    }

    /// Largest user key, from the persisted table meta (no block read).
    #[must_use]
    pub fn max_key(&self) -> Option<&Key> {
        self.max_key.as_ref()
    }

    /// Bytes read from storage to open this reader (footer + tail).
    #[must_use]
    pub fn open_bytes(&self) -> u64 {
        self.open_bytes
    }

    /// Whether this table can contain any key inside `(start, end)`,
    /// judged purely by the persisted min/max meta — no bloom probe, no
    /// block I/O. This is the key-range-partitioned-probing primitive:
    /// a range scan skips every table whose key range is disjoint from
    /// the scan bounds.
    ///
    /// A non-empty table whose meta block carries no min/max keys
    /// reports `true` — an unknown range must be probed, never silently
    /// skipped.
    ///
    /// A table can hold range tombstones and no point entries at all (a
    /// memtable that absorbed only a `delete_range` flushes to exactly
    /// that). Its data-block index is empty but its persisted min/max
    /// are widened over the tombstone bounds, so the min/max test below
    /// still decides overlap — pruning it on the empty index would
    /// silently drop the tombstones from every scan.
    #[must_use]
    pub fn may_overlap(&self, start: Bound<&[u8]>, end: Bound<&[u8]>) -> bool {
        if self.index.is_empty() && self.range_dels.is_empty() {
            return false;
        }
        // Each side prunes only if that side's key is actually known.
        let starts_after_max = match (&self.max_key, start) {
            (Some(max), Bound::Included(s)) => s > max.as_ref(),
            (Some(max), Bound::Excluded(s)) => s >= max.as_ref(),
            _ => false,
        };
        let ends_before_min = match (&self.min_key, end) {
            (Some(min), Bound::Included(e)) => e < min.as_ref(),
            (Some(min), Bound::Excluded(e)) => e <= min.as_ref(),
            _ => false,
        };
        !(starts_after_max || ends_before_min)
    }

    /// Whether this table *may* contain `key`, judged purely by the
    /// resident tail — min/max range plus bloom probe — with **zero**
    /// block I/O. False positives are possible (bloom), false negatives
    /// are not. This is tombstone GC's safety oracle: a tombstone in one
    /// table is droppable only when no *other* live table answers `true`
    /// for its key.
    #[must_use]
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let in_range = match (&self.min_key, &self.max_key) {
            (Some(min), Some(max)) => key >= min.as_ref() && key <= max.as_ref(),
            _ => !self.index.is_empty(),
        };
        in_range && self.bloom.may_contain(key)
    }

    /// Index of the first data block that can contain a key satisfying
    /// the `start` bound (blocks are indexed by their *last* key).
    /// Returns [`SstableReader::block_count`] when no block qualifies.
    pub(crate) fn seek_block_idx(&self, start: &Bound<Key>) -> usize {
        match start {
            Bound::Unbounded => 0,
            Bound::Included(s) => self.index.partition_point(|(last, _, _)| last < s),
            Bound::Excluded(s) => self.index.partition_point(|(last, _, _)| last <= s),
        }
    }

    /// One past the index of the last data block that can contain a key
    /// satisfying the `end` bound — the exclusive readahead limit for a
    /// bounded scan, so prefetching never fetches blocks that are
    /// entirely past the scan window.
    pub(crate) fn end_block_limit(&self, end: &Bound<Key>) -> usize {
        match end {
            Bound::Unbounded => self.index.len(),
            // The block covering `e` is the first whose last key is
            // ≥ `e`; it may still hold in-range keys, so include it.
            Bound::Included(e) | Bound::Excluded(e) => {
                (self.index.partition_point(|(last, _, _)| last < e) + 1).min(self.index.len())
            }
        }
    }

    /// The table's range tombstones. Resident in the tail — reading
    /// them costs no block I/O.
    #[must_use]
    pub fn range_dels(&self) -> &[RangeTombstone] {
        &self.range_dels
    }

    /// The largest range-tombstone seqno at or below `upto` covering
    /// `key`, or `None`. Zero block I/O — the section is resident.
    #[must_use]
    pub fn max_covering_range_del(&self, key: &[u8], upto: SeqNo) -> Option<SeqNo> {
        self.range_dels
            .iter()
            .filter(|rd| rd.seqno <= upto && rd.covers(key))
            .map(|rd| rd.seqno)
            .max()
    }

    /// Point lookup: the newest version of `key` in this table (possibly
    /// a tombstone), or `None`. Touches at most one data block; bloom-
    /// and range-negative probes touch none.
    ///
    /// # Errors
    ///
    /// Propagates storage errors and block corruption.
    pub fn get(&self, key: &[u8], ctx: ReadContext<'_>) -> Result<Option<Entry>, Error> {
        self.get_visible(key, SeqNo::MAX, ctx)
    }

    /// Point lookup at a pinned sequence number: the newest version of
    /// `key` with `seqno <= upto`. Versions of one key never split
    /// across blocks (builder invariant), so this still touches at most
    /// one data block.
    ///
    /// # Errors
    ///
    /// Propagates storage errors and block corruption.
    pub fn get_visible(
        &self,
        key: &[u8],
        upto: SeqNo,
        ctx: ReadContext<'_>,
    ) -> Result<Option<Entry>, Error> {
        if !self.may_contain(key) {
            ctx.counters.record_bloom_negative();
            return Ok(None);
        }
        let block_idx = self
            .index
            .partition_point(|(last, _, _)| last.as_ref() < key);
        if block_idx >= self.index.len() {
            return Ok(None);
        }
        Ok(self.block(block_idx, ctx)?.get_visible(key, upto))
    }

    /// Fetches block `idx` through the cache (or storage on a miss).
    ///
    /// # Errors
    ///
    /// Propagates storage errors and block corruption.
    pub fn block(&self, idx: usize, ctx: ReadContext<'_>) -> Result<Arc<Block>, Error> {
        if let Some(block) = self.cached_block(idx, ctx) {
            return Ok(block);
        }
        let (_, offset, len) = self.index[idx];
        let raw = ctx
            .storage
            .read_blob_range(&self.blob_name, offset, len as usize)?;
        ctx.counters.record_block_read(len);
        self.decode_stored_block(&raw, idx, ctx)
    }

    /// Block `idx` from the context's cache, if it has one and holds it.
    fn cached_block(&self, idx: usize, ctx: ReadContext<'_>) -> Option<Arc<Block>> {
        ctx.block_cache?.get(self.table_id, idx as u32)
    }

    /// Decodes one block's stored bytes (unwrapping the compression
    /// envelope), records its logical size, and optionally fills
    /// the cache — charged at the block's decoded in-memory footprint,
    /// not its (possibly compressed) stored length.
    fn decode_stored_block(
        &self,
        raw: &Bytes,
        idx: usize,
        ctx: ReadContext<'_>,
    ) -> Result<Arc<Block>, Error> {
        let logical = decode_block_envelope(raw)?;
        ctx.counters.record_block_decode(logical.len() as u64);
        let block = Arc::new(Block::decode(logical)?);
        if let (Some(cache), true) = (ctx.block_cache, ctx.fill_cache) {
            cache.insert(self.table_id, idx as u32, Arc::clone(&block));
        }
        Ok(block)
    }

    /// Iterates every entry in internal-key order, fetching blocks
    /// through `ctx` as it advances (with `ctx.readahead_blocks > 1` each
    /// storage round-trip spans several blocks; one decoded block is
    /// held at a time).
    #[must_use]
    pub fn iter<'a>(&'a self, ctx: ReadContext<'a>) -> SstableReaderIter<'a> {
        SstableReaderIter {
            reader: self,
            ctx,
            cursor: BlockCursor::new(0),
        }
    }
}

/// A raw byte run covering blocks `[start_block, end_block)` of one
/// table, fetched with a single ranged read.
#[derive(Debug)]
struct PrefetchedSpan {
    start_block: usize,
    end_block: usize,
    base_offset: u64,
    raw: Bytes,
}

/// The shared block-walking core behind every ranged read of one
/// table: [`SstableReaderIter`] and the scan path's per-table cursor
/// both drive it. It holds a position (block index + entry index into
/// the current decoded block) and a prefetched span, so that
///
/// * entries are yielded straight out of the decoded [`Block`] — slices
///   of its buffer, no per-entry copy; and
/// * on a cache miss it fetches up to `ctx.readahead_blocks`
///   consecutive blocks with **one** `read_blob_range`, decoding them
///   lazily as the cursor reaches them.
///
/// The cursor does not own the reader: callers pass `&SstableReader`
/// and a [`ReadContext`] per call, so the same core serves borrowing
/// iterators and `Arc`-holding scan cursors alike.
#[derive(Debug)]
pub(crate) struct BlockCursor {
    /// Next block to decode.
    block_idx: usize,
    /// Exclusive prefetch limit: readahead never spans blocks at or
    /// past this index (the cursor still *decodes* past it if driven
    /// there, one block per round-trip — correctness never depends on
    /// the limit being tight).
    limit_block: usize,
    /// Current decoded block and the cursor's position inside it.
    block: Option<Arc<Block>>,
    entry_idx: usize,
    span: Option<PrefetchedSpan>,
}

impl BlockCursor {
    /// A cursor positioned at the start of block `start_block`, with
    /// readahead free to run to the end of the table.
    pub(crate) fn new(start_block: usize) -> Self {
        Self::with_limit(start_block, usize::MAX)
    }

    /// A cursor positioned at `start_block` whose readahead spans stop
    /// before `limit_block` (use
    /// [`SstableReader::end_block_limit`] for a bounded scan).
    pub(crate) fn with_limit(start_block: usize, limit_block: usize) -> Self {
        Self {
            block_idx: start_block,
            limit_block,
            block: None,
            entry_idx: 0,
            span: None,
        }
    }

    /// Yields the next entry in key order, or `None` past the last
    /// block. After an error the cursor is exhausted.
    pub(crate) fn next_entry(
        &mut self,
        reader: &SstableReader,
        ctx: ReadContext<'_>,
    ) -> Option<Result<Entry, Error>> {
        loop {
            if let Some(block) = &self.block {
                if let Some(entry) = block.entry(self.entry_idx) {
                    self.entry_idx += 1;
                    return Some(Ok(entry));
                }
                self.block = None;
            }
            if self.block_idx >= reader.block_count() {
                return None;
            }
            match self.load_block(reader, ctx) {
                Ok(block) => {
                    self.block = Some(block);
                    self.entry_idx = 0;
                    self.block_idx += 1;
                }
                Err(e) => {
                    self.block_idx = reader.block_count();
                    return Some(Err(e));
                }
            }
        }
    }

    /// Skips entries of the current position while `skip` holds —
    /// used to honor a start bound inside the first block.
    pub(crate) fn skip_while(
        &mut self,
        reader: &SstableReader,
        ctx: ReadContext<'_>,
        mut skip: impl FnMut(&Entry) -> bool,
    ) -> Option<Result<Entry, Error>> {
        loop {
            match self.next_entry(reader, ctx) {
                Some(Ok(entry)) if skip(&entry) => {}
                other => return other,
            }
        }
    }

    /// Resolves block `block_idx`: cache, then the prefetched span,
    /// then one ranged read spanning up to `ctx.readahead_blocks`
    /// consecutive blocks.
    fn load_block(
        &mut self,
        reader: &SstableReader,
        ctx: ReadContext<'_>,
    ) -> Result<Arc<Block>, Error> {
        let idx = self.block_idx;
        if let Some(block) = reader.cached_block(idx, ctx) {
            return Ok(block);
        }
        let covered = self
            .span
            .as_ref()
            .is_some_and(|s| idx >= s.start_block && idx < s.end_block);
        if !covered {
            self.prefetch_span(reader, ctx)?;
        }
        let span = self.span.as_ref().expect("span just ensured");
        let (_, offset, len) = reader.index[idx];
        let range = offset
            .checked_sub(span.base_offset)
            .and_then(|rel| usize::try_from(rel).ok())
            .and_then(|start| Some(start..start.checked_add(usize::try_from(len).ok()?)?))
            .filter(|range| range.end <= span.raw.len())
            .ok_or_else(|| Error::corruption("block range outside its span"))?;
        reader.decode_stored_block(&span.raw.slice(range), idx, ctx)
    }

    /// Fetches blocks `[block_idx, block_idx + readahead)` (clamped to
    /// the table) with one ranged read, charged as a single round-trip.
    fn prefetch_span(&mut self, reader: &SstableReader, ctx: ReadContext<'_>) -> Result<(), Error> {
        let start = self.block_idx;
        // Clamp to the table and the end-bound limit, but always cover
        // the block being loaded itself.
        let cap = self
            .limit_block
            .min(reader.block_count())
            .max(start + 1)
            .min(reader.block_count());
        let count = ctx.readahead_blocks.max(1).min(cap - start);
        let (_, base_offset, _) = reader.index[start];
        let (_, last_offset, last_len) = reader.index[start + count - 1];
        let span_len = last_offset
            .checked_add(last_len)
            .and_then(|end| end.checked_sub(base_offset))
            .and_then(|len| usize::try_from(len).ok())
            .ok_or_else(|| Error::corruption("block span range overflows"))?;
        let raw = ctx
            .storage
            .read_blob_range(&reader.blob_name, base_offset, span_len)?;
        ctx.counters.record_block_read(span_len as u64);
        self.span = Some(PrefetchedSpan {
            start_block: start,
            end_block: start + count,
            base_offset,
            raw,
        });
        Ok(())
    }
}

/// Iterator over all entries of an [`SstableReader`] in key order
/// (readahead-aware, no per-block buffer copies).
#[derive(Debug)]
pub struct SstableReaderIter<'a> {
    reader: &'a SstableReader,
    ctx: ReadContext<'a>,
    cursor: BlockCursor,
}

impl Iterator for SstableReaderIter<'_> {
    type Item = Result<Entry, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        self.cursor.next_entry(self.reader, self.ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::SstableBuilder;
    use crate::storage::{MemoryStorage, Storage};
    use crate::types::key_from_u64;
    use bytes::Bytes;

    fn store_table(storage: &dyn Storage, id: u64, n: u64, block_size: usize) -> u64 {
        let mut builder = SstableBuilder::new(id, block_size, 10);
        for i in 0..n {
            builder.add(&Entry::put(
                key_from_u64(i * 2),
                Bytes::from(format!("value-{i}")),
                1_000 + i,
            ));
        }
        let (data, meta) = builder.finish();
        storage
            .write_blob(&SstableReader::blob_name(id), &data)
            .unwrap();
        meta.encoded_len
    }

    fn ctx_parts() -> (BlockCache, ReadPathCounters) {
        (BlockCache::new(1 << 20), ReadPathCounters::default())
    }

    #[test]
    fn open_reads_only_the_tail() {
        let storage = Arc::new(MemoryStorage::new());
        let encoded_len = store_table(storage.as_ref(), 1, 2_000, 256);
        let before = storage.bytes_read();
        let reader = SstableReader::open(storage.as_ref(), 1, Some(encoded_len)).unwrap();
        let open_bytes = storage.bytes_read() - before;
        assert!(reader.block_count() > 10);
        assert_eq!(reader.open_bytes(), open_bytes);
        assert!(
            open_bytes < encoded_len / 2,
            "open read {open_bytes} of {encoded_len} bytes — not lazy"
        );
        assert_eq!(reader.min_key(), Some(&key_from_u64(0)));
        assert_eq!(reader.max_key(), Some(&key_from_u64(3_998)));
        assert_eq!(reader.entry_count(), 2_000);
        assert_eq!(reader.encoded_len(), encoded_len);
    }

    #[test]
    fn get_touches_at_most_one_block() {
        let storage = Arc::new(MemoryStorage::new());
        let encoded_len = store_table(storage.as_ref(), 1, 2_000, 256);
        let reader = SstableReader::open(storage.as_ref(), 1, Some(encoded_len)).unwrap();
        let (cache, counters) = ctx_parts();
        let ctx = ReadContext {
            storage: storage.as_ref(),
            block_cache: Some(&cache),
            fill_cache: true,
            readahead_blocks: 1,
            counters: &counters,
        };

        let entry = reader.get(&key_from_u64(1_000), ctx).unwrap().unwrap();
        assert_eq!(entry.value.as_ref(), b"value-500");
        assert_eq!(counters.block_reads(), 1, "exactly one block fetched");

        // Same key again: served from the block cache, zero storage reads.
        let before = storage.bytes_read();
        let again = reader.get(&key_from_u64(1_000), ctx).unwrap().unwrap();
        assert_eq!(again.value.as_ref(), b"value-500");
        assert_eq!(counters.block_reads(), 1);
        assert_eq!(storage.bytes_read(), before, "warm read does no I/O");

        // A key the table cannot contain: bloom/range negative, no block.
        assert!(reader.get(&key_from_u64(999_999), ctx).unwrap().is_none());
        assert!(counters.bloom_negatives() >= 1);
        assert_eq!(counters.block_reads(), 1);

        // An absent key *inside* the range (odd keys were never written)
        // either bloom-rejects or reads exactly one block.
        assert!(reader.get(&key_from_u64(1_001), ctx).unwrap().is_none());
        assert!(counters.block_reads() <= 2);
    }

    #[test]
    fn fill_cache_false_bypasses_the_cache() {
        let storage = Arc::new(MemoryStorage::new());
        let encoded_len = store_table(storage.as_ref(), 3, 500, 256);
        let reader = SstableReader::open(storage.as_ref(), 3, Some(encoded_len)).unwrap();
        let (cache, counters) = ctx_parts();
        let ctx = ReadContext {
            storage: storage.as_ref(),
            block_cache: Some(&cache),
            fill_cache: false,
            readahead_blocks: 1,
            counters: &counters,
        };
        let all: Result<Vec<Entry>, Error> = reader.iter(ctx).collect();
        assert_eq!(all.unwrap().len(), 500);
        assert!(counters.block_reads() >= reader.block_count() as u64);
        assert_eq!(cache.usage_bytes(), 0, "scan left nothing in the cache");
    }

    #[test]
    fn readahead_spans_multiple_blocks_per_round_trip() {
        let storage = Arc::new(MemoryStorage::new());
        let encoded_len = store_table(storage.as_ref(), 6, 2_000, 256);
        let reader = SstableReader::open(storage.as_ref(), 6, Some(encoded_len)).unwrap();
        let blocks = reader.block_count() as u64;
        assert!(blocks > 16, "need a many-block table: {blocks}");

        let (cache, counters) = ctx_parts();
        let ctx = ReadContext {
            storage: storage.as_ref(),
            block_cache: Some(&cache),
            fill_cache: false,
            readahead_blocks: 8,
            counters: &counters,
        };
        let all: Result<Vec<Entry>, Error> = reader.iter(ctx).collect();
        let all = all.unwrap();
        assert_eq!(all.len(), 2_000);
        for (i, e) in all.iter().enumerate() {
            assert_eq!(e.key, key_from_u64(i as u64 * 2), "order preserved");
        }
        assert!(
            counters.block_reads() <= blocks.div_ceil(8),
            "{} round-trips for {blocks} blocks at readahead 8",
            counters.block_reads()
        );
        assert!(
            counters.block_logical_bytes() >= counters.block_read_bytes(),
            "decompressed bytes can only grow: {} physical vs {} logical",
            counters.block_read_bytes(),
            counters.block_logical_bytes()
        );
    }

    /// The maintenance context: no cache, and footer probe + tail + one
    /// data read add up to exactly the blob's bytes less the observation
    /// section, which only the planner reads.
    #[test]
    fn whole_table_context_reads_the_blob_exactly_once() {
        let storage = Arc::new(MemoryStorage::new());
        let encoded_len = store_table(storage.as_ref(), 4, 2_000, 256);
        let name = SstableReader::blob_name(4);
        let section = Footer::read(storage.as_ref(), &name, encoded_len)
            .unwrap()
            .observation_len as u64;
        assert_eq!(section, 4 + 2_000 * 8 + 4, "count + keys + CRC");
        let before = storage.bytes_read();
        let reader = SstableReader::open(storage.as_ref(), 4, None).unwrap();
        let counters = ReadPathCounters::default();
        let ctx = ReadContext::whole_table(storage.as_ref(), &counters);
        assert_eq!(reader.iter(ctx).count(), 2_000);
        assert_eq!(counters.block_reads(), 1, "one read spans the data section");
        assert_eq!(storage.bytes_read() - before, encoded_len - section);
    }

    /// Regression: the cache stores *decoded* blocks, so it must charge
    /// their in-memory footprint — charging the stored (compressed)
    /// length would inflate the effective budget by the compression
    /// ratio.
    #[test]
    fn cache_charges_decoded_footprint_not_stored_bytes() {
        let storage = Arc::new(MemoryStorage::new());
        // Highly repetitive values: the blocks compress well.
        let mut builder = SstableBuilder::new(9, 4096, 10);
        for i in 0..500u64 {
            builder.add(&Entry::put(
                key_from_u64(i),
                Bytes::from(vec![b'x'; 100]),
                1_000 + i,
            ));
        }
        let (data, meta) = builder.finish();
        storage
            .write_blob(&SstableReader::blob_name(9), &data)
            .unwrap();
        let reader = SstableReader::open(storage.as_ref(), 9, Some(meta.encoded_len)).unwrap();

        let (cache, counters) = ctx_parts();
        let ctx = ReadContext {
            storage: storage.as_ref(),
            block_cache: Some(&cache),
            fill_cache: true,
            readahead_blocks: 1,
            counters: &counters,
        };
        for idx in 0..reader.block_count() {
            let _ = reader.block(idx, ctx).unwrap();
        }
        assert!(
            counters.block_read_bytes() < counters.block_logical_bytes(),
            "repetitive blocks must actually compress: {} stored vs {} logical",
            counters.block_read_bytes(),
            counters.block_logical_bytes()
        );
        assert!(
            cache.usage_bytes() >= counters.block_logical_bytes(),
            "cache charged {} bytes for blocks whose decoded payloads alone \
             are {} bytes — still charging stored length?",
            cache.usage_bytes(),
            counters.block_logical_bytes()
        );
    }

    #[test]
    fn open_without_len_hint_asks_storage() {
        let storage = Arc::new(MemoryStorage::new());
        store_table(storage.as_ref(), 7, 100, 512);
        let reader = SstableReader::open(storage.as_ref(), 7, None).unwrap();
        assert_eq!(reader.entry_count(), 100);
        assert!(
            SstableReader::open(storage.as_ref(), 8, None).is_err(),
            "missing"
        );
    }

    #[test]
    fn may_overlap_prunes_by_persisted_min_max() {
        let storage = Arc::new(MemoryStorage::new());
        // Keys 0, 2, …, 198 (min 0, max 198 persisted).
        let encoded_len = store_table(storage.as_ref(), 1, 100, 256);
        let reader = SstableReader::open(storage.as_ref(), 1, Some(encoded_len)).unwrap();
        let k = key_from_u64;
        let overlap = |start: &[u8], end: &[u8]| {
            reader.may_overlap(Bound::Included(start), Bound::Excluded(end))
        };
        assert!(overlap(&k(0), &k(1)), "range touching the min key");
        assert!(overlap(&k(100), &k(150)), "interior range");
        assert!(overlap(&k(198), &k(500)), "range touching the max key");
        assert!(!overlap(&k(199), &k(500)), "entirely above the max key");
        assert!(!overlap(&k(300), &k(400)), "far above");
        assert!(
            !reader.may_overlap(Bound::Unbounded, Bound::Excluded(&k(0))),
            "ends before the min key"
        );
        assert!(
            !reader.may_overlap(Bound::Excluded(&k(198)), Bound::Unbounded),
            "starts exclusively at the max key"
        );
        assert!(reader.may_overlap(Bound::Unbounded, Bound::Unbounded));
    }

    /// Regression: a memtable that absorbed only a `delete_range`
    /// flushes to a table with range tombstones and **zero** point
    /// entries — empty data-block index, min/max widened over the
    /// tombstone bounds. `may_overlap` used to prune any empty-index
    /// table unconditionally, which dropped the tombstones from every
    /// scan and resurrected the deleted interval.
    #[test]
    fn tombstone_only_table_is_not_pruned_from_overlapping_scans() {
        let storage = Arc::new(MemoryStorage::new());
        let mut builder = SstableBuilder::new(6, 4096, 10);
        builder.add_range_del(crate::types::RangeTombstone::new(
            key_from_u64(49),
            key_from_u64(197),
            9,
        ));
        let (data, _meta) = builder.finish();
        storage
            .write_blob(&SstableReader::blob_name(6), &data)
            .unwrap();
        let reader = SstableReader::open(storage.as_ref(), 6, None).unwrap();

        assert_eq!(reader.entry_count(), 0);
        assert_eq!(reader.block_count(), 0);
        assert_eq!(reader.range_dels().len(), 1);
        let k = key_from_u64;
        assert!(
            reader.may_overlap(Bound::Included(&k(60)), Bound::Excluded(&k(80))),
            "a scan inside the tombstoned interval must probe this table"
        );
        assert!(
            reader.may_overlap(Bound::Unbounded, Bound::Unbounded),
            "full scans must probe it too"
        );
        assert!(
            !reader.may_overlap(Bound::Included(&k(300)), Bound::Excluded(&k(400))),
            "ranges past the tombstone still prune"
        );
        assert!(
            !reader.may_overlap(Bound::Unbounded, Bound::Excluded(&k(10))),
            "ranges before the tombstone still prune"
        );
    }

    /// A table with no entries *and* no range tombstones stays pruned.
    #[test]
    fn genuinely_empty_table_is_always_pruned() {
        let storage = Arc::new(MemoryStorage::new());
        let (data, _meta) = SstableBuilder::new(11, 4096, 10).finish();
        storage
            .write_blob(&SstableReader::blob_name(11), &data)
            .unwrap();
        let reader = SstableReader::open(storage.as_ref(), 11, None).unwrap();
        assert!(!reader.may_overlap(Bound::Unbounded, Bound::Unbounded));
    }

    #[test]
    fn seek_block_idx_lands_on_the_covering_block() {
        let storage = Arc::new(MemoryStorage::new());
        let encoded_len = store_table(storage.as_ref(), 2, 2_000, 256);
        let reader = SstableReader::open(storage.as_ref(), 2, Some(encoded_len)).unwrap();
        assert!(reader.block_count() > 10);
        assert_eq!(reader.seek_block_idx(&Bound::Unbounded), 0);
        assert_eq!(reader.seek_block_idx(&Bound::Included(key_from_u64(0))), 0);
        // Far past the max key: no block qualifies.
        assert_eq!(
            reader.seek_block_idx(&Bound::Included(key_from_u64(1 << 40))),
            reader.block_count()
        );
        // For an interior key the chosen block's predecessor ends below
        // the key (nothing in range is skipped).
        let target = key_from_u64(1_000);
        let idx = reader.seek_block_idx(&Bound::Included(target.clone()));
        assert!(idx < reader.block_count());
        let (cache, counters) = ctx_parts();
        let ctx = ReadContext {
            storage: storage.as_ref(),
            block_cache: Some(&cache),
            fill_cache: false,
            readahead_blocks: 1,
            counters: &counters,
        };
        let block = reader.block(idx, ctx).unwrap();
        assert!(block.entry(block.len() - 1).unwrap().key >= target);
        if idx > 0 {
            let prev = reader.block(idx - 1, ctx).unwrap();
            assert!(prev.entry(prev.len() - 1).unwrap().key < target);
        }
    }
}
