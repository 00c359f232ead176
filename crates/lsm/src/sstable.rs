//! The immutable sorted-run (sstable) format.
//!
//! Layout of an encoded sstable blob (`LSMTABL6`, the only format this
//! build reads or writes):
//!
//! ```text
//! +-------------------+
//! | observation       |   sorted distinct observed keys + section CRC
//! | data block 0      |   compression envelope: tag + payload + CRC,
//! | data block 1      |   the block's one checksum
//! | ...               |
//! | bloom filter      |
//! | meta block        |   min/max user key of the table
//! | range tombstones  |   resident interval deletes + section CRC
//! | index block       |   (last_key, offset, stored_len) per data block
//! | footer            |   section length + offsets + counts + magic + CRC
//! +-------------------+
//! ```
//!
//! Everything a read needs to route itself — bloom filter, min/max keys,
//! range tombstones, block index — lives in the *tail* of the blob, so
//! [`SstableReader`](crate::SstableReader), the one reader of this
//! format, opens a table with two ranged reads (footer, then tail) and
//! afterwards fetches data blocks on demand: one per point lookup, a
//! readahead span per scan step, the whole data section in one read for
//! a compaction input. Each data block is stored inside a per-block
//! [compression envelope](crate::compress) — tag byte, possibly-LZ
//! payload, envelope CRC — and the index records the *stored* length, so
//! ranged reads fetch exactly the compressed bytes. The envelope CRC is
//! the only checksum over a data block: one pass over each stored byte
//! on every decode. A blob carrying the
//! footer magic of an earlier format revision is recognised and refused,
//! never parsed.
//!
//! The observation section at the head of the blob is the paper's model
//! of the table: its key set `A_i`, as the sorted distinct
//! [`observed_key`]s of its entries. Only the planner reads it
//! ([`read_observation`]: the footer probe, then one ranged read of the
//! section). It sits before the data, not in the tail, so opening a
//! reader never fetches it and the data section still ends where the
//! tail begins; compaction inputs, GC rewrites and scans never touch it.
//!
//! Sstables are immutable once built: compaction never edits a table, it
//! streams whole tables through the k-way merge and writes a new one,
//! which is exactly the I/O the paper's cost function charges for. Every
//! table the engine creates — at flush, as a merge output, as a
//! tombstone-GC rewrite — goes through [`write_table`]: builder → blob →
//! manifest metadata.

use std::sync::mpsc::sync_channel;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::block::BlockBuilder;
use crate::bloom::BloomFilter;
use crate::compress::{encode_block_envelope, CompressionType};
use crate::crc::{crc32, verified};
use crate::manifest::TableMeta;
use crate::options::LsmOptions;
use crate::planner::observed_key;
use crate::reader::SstableReader;
use crate::storage::Storage;
use crate::types::{Entry, Key, RangeTombstone};
use crate::Error;

/// Footer magic of the one format this build reads and writes.
const FOOTER_MAGIC: u64 = 0x4C53_4D54_4142_4C36; // "LSMTABL6"

/// Footer magics of the five retired format revisions, kept only so a
/// blob in one of them is refused by version rather than as garbage.
const RETIRED_MAGICS: [(u64, u8); 5] = [
    (0x4C53_4D54_4142_4C45, 1), // "LSMTABLE"
    (0x4C53_4D54_4142_4C32, 2), // "LSMTABL2"
    (0x4C53_4D54_4142_4C33, 3), // "LSMTABL3"
    (0x4C53_4D54_4142_4C34, 4), // "LSMTABL4"
    (0x4C53_4D54_4142_4C35, 5), // "LSMTABL5"
];

/// Parsed sstable footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Footer {
    /// Length of the observation section, which starts at offset 0; the
    /// data blocks follow it.
    pub observation_len: usize,
    /// Absolute offset of the bloom filter.
    pub bloom_offset: usize,
    /// Encoded bloom length in bytes.
    pub bloom_len: usize,
    /// Absolute offset of the meta block.
    pub meta_offset: usize,
    /// Absolute offset of the range-tombstone section.
    pub range_del_offset: usize,
    /// Absolute offset of the index block.
    pub index_offset: usize,
    /// Number of entries in the table.
    pub entry_count: u64,
}

impl Footer {
    /// Encoded footer length: 8 u64 fields + CRC32 — the size of the
    /// tail probe a reader must fetch.
    pub(crate) const LEN: usize = 8 * 8 + 4;

    /// Fetches and parses the footer of blob `name`, `total_len` bytes
    /// long: the one probe every read of a table starts with.
    pub(crate) fn read(storage: &dyn Storage, name: &str, total_len: u64) -> Result<Self, Error> {
        let probe_len = (total_len as usize).min(Self::LEN);
        let probe = storage.read_blob_range(name, total_len - probe_len as u64, probe_len)?;
        Self::parse(&probe, total_len as usize)
    }

    /// Parses the footer from `tail`, the last `tail.len()` bytes of a
    /// blob of `total_len` bytes. `tail` must contain at least the whole
    /// footer ([`Footer::LEN`] bytes, or the entire blob if shorter).
    pub(crate) fn parse(tail: &[u8], total_len: usize) -> Result<Self, Error> {
        if tail.len() < 12 {
            return Err(Error::corruption("sstable shorter than footer"));
        }
        let magic_probe = &tail[tail.len() - 12..tail.len() - 4];
        let magic = u64::from_le_bytes(magic_probe.try_into().expect("8 bytes"));
        if let Some((_, version)) = RETIRED_MAGICS.iter().find(|(m, _)| *m == magic) {
            return Err(Error::corruption(format!(
                "unsupported sstable format v{version}; this build reads v6 only"
            )));
        }
        if magic != FOOTER_MAGIC {
            return Err(Error::corruption("bad sstable magic"));
        }
        if tail.len() < Self::LEN || total_len < Self::LEN {
            return Err(Error::corruption("sstable shorter than footer"));
        }
        let mut cursor = verified(&tail[tail.len() - Self::LEN..])
            .ok_or_else(|| Error::corruption("sstable footer checksum mismatch"))?;
        let observation_len = cursor.get_u64_le() as usize;
        let bloom_offset = cursor.get_u64_le() as usize;
        let bloom_len = cursor.get_u64_le() as usize;
        let meta_offset = cursor.get_u64_le() as usize;
        let range_del_offset = cursor.get_u64_le() as usize;
        let index_offset = cursor.get_u64_le() as usize;
        let entry_count = cursor.get_u64_le();
        let body_end = total_len - Self::LEN;
        let bloom_end = bloom_offset
            .checked_add(bloom_len)
            .ok_or_else(|| Error::corruption("sstable bloom range overflows"))?;
        if observation_len > bloom_offset
            || bloom_end > meta_offset
            || meta_offset > range_del_offset
            || range_del_offset > index_offset
            || index_offset > body_end
        {
            return Err(Error::corruption("sstable footer offsets out of range"));
        }
        Ok(Self {
            observation_len,
            bloom_offset,
            bloom_len,
            meta_offset,
            range_del_offset,
            index_offset,
            entry_count,
        })
    }
}

/// Encodes the range-tombstone section: count, per-record bounds +
/// seqno, and a section CRC.
fn encode_range_dels(buf: &mut BytesMut, range_dels: &[RangeTombstone]) {
    let start = buf.len();
    buf.put_u32_le(range_dels.len() as u32);
    for rd in range_dels {
        buf.put_u32_le(rd.start.len() as u32);
        buf.put_slice(&rd.start);
        buf.put_u32_le(rd.end.len() as u32);
        buf.put_slice(&rd.end);
        buf.put_u64_le(rd.seqno);
    }
    let crc = crc32(&buf[start..]);
    buf.put_u32_le(crc);
}

/// Decodes a range-tombstone section produced by [`encode_range_dels`].
/// `section` must span exactly the section bytes (offset to the next
/// block's offset).
pub(crate) fn decode_range_dels(section: &[u8]) -> Result<Vec<RangeTombstone>, Error> {
    let mut cursor = verified(section)
        .filter(|payload| payload.len() >= 4)
        .ok_or_else(|| Error::corruption("range-tombstone section truncated or rotten"))?;
    let count = cursor.get_u32_le() as usize;
    // A record is at least two length prefixes and a seqno.
    let mut range_dels = Vec::with_capacity(count.min(cursor.remaining() / 16));
    for _ in 0..count {
        let start = decode_meta_key(&mut cursor)?;
        let end = decode_meta_key(&mut cursor)?;
        if cursor.remaining() < 8 {
            return Err(Error::corruption("truncated range-tombstone record"));
        }
        range_dels.push(RangeTombstone::new(start, end, cursor.get_u64_le()));
    }
    Ok(range_dels)
}

/// Encodes the observation section: count, the observed keys as u64,
/// and a section CRC.
fn encode_observation(buf: &mut BytesMut, keys: &[u64]) {
    let start = buf.len();
    buf.put_u32_le(keys.len() as u32);
    for &key in keys {
        buf.put_u64_le(key);
    }
    let crc = crc32(&buf[start..]);
    buf.put_u32_le(crc);
}

/// Decodes an observation section produced by [`encode_observation`].
/// `section` must span exactly the section bytes.
fn decode_observation(section: &[u8]) -> Result<Vec<u64>, Error> {
    let mut cursor = verified(section)
        .filter(|payload| payload.len() >= 4)
        .ok_or_else(|| Error::corruption("observation section truncated or rotten"))?;
    // The count sizes the allocation below only once it matches the
    // bytes present.
    let count = cursor.get_u32_le() as usize;
    if count.checked_mul(8) != Some(cursor.remaining()) {
        return Err(Error::corruption("observation section length mismatch"));
    }
    Ok((0..count).map(|_| cursor.get_u64_le()).collect())
}

/// The observed key set of table `table_id` (a `total_len`-byte blob):
/// the footer probe plus one ranged read of its observation section —
/// no tail, no data block.
///
/// # Errors
///
/// Propagates storage failures; a rotten footer or section is
/// [`Error::Corruption`].
pub(crate) fn read_observation(
    storage: &dyn Storage,
    table_id: u64,
    total_len: u64,
) -> Result<Vec<u64>, Error> {
    let name = SstableReader::blob_name(table_id);
    let footer = Footer::read(storage, &name, total_len)?;
    decode_observation(&storage.read_blob_range(&name, 0, footer.observation_len)?)
}

/// Builds an sstable from entries supplied in internal-key order.
#[derive(Debug)]
pub struct SstableBuilder {
    table_id: u64,
    block_size: usize,
    bloom_bits_per_key: usize,
    compression: CompressionType,
    current: BlockBuilder,
    /// Last key of every rotated block (the index keys); the envelopes
    /// of the first blocks, then the logical blocks not yet encoded.
    block_keys: Vec<Key>,
    stored: Vec<Vec<u8>>,
    pending: Vec<Bytes>,
    /// Every key added, back to back, and the bounds between them: the
    /// bloom filter's input and the table's point-key span. Copied, not
    /// held, since a merge input's key is a slice of a whole block.
    key_bytes: Vec<u8>,
    key_bounds: Vec<usize>,
    range_dels: Vec<RangeTombstone>,
    tombstone_count: u64,
    max_seqno: u64,
}

impl SstableBuilder {
    /// Creates a builder for table `table_id`.
    #[must_use]
    pub fn new(table_id: u64, block_size: usize, bloom_bits_per_key: usize) -> Self {
        Self {
            table_id,
            block_size: block_size.max(64),
            bloom_bits_per_key,
            compression: CompressionType::default(),
            current: BlockBuilder::new(),
            block_keys: Vec::new(),
            stored: Vec::new(),
            pending: Vec::new(),
            key_bytes: Vec::new(),
            key_bounds: vec![0],
            range_dels: Vec::new(),
            tombstone_count: 0,
            max_seqno: 0,
        }
    }

    /// Appends an entry. Entries must arrive sorted by internal key
    /// (user key ascending, newest version first). All versions of one
    /// user key always land in the same data block — a full block
    /// rotates at the next user-key boundary, never mid-key — so a
    /// visibility walk over a key's versions stays within one block.
    pub fn add(&mut self, entry: &Entry) {
        if self.current.size_in_bytes() >= self.block_size
            && self
                .current
                .last_key()
                .is_some_and(|last| last != entry.key.as_ref())
        {
            self.rotate_block();
        }
        self.key_bytes.extend_from_slice(&entry.key);
        self.key_bounds.push(self.key_bytes.len());
        self.max_seqno = self.max_seqno.max(entry.seqno);
        if entry.is_tombstone() {
            self.tombstone_count += 1;
        }
        self.current.add(entry);
    }

    /// Appends a range tombstone. Range dels live in a dedicated
    /// resident section, not in data blocks, so one call costs O(1)
    /// bytes regardless of how many keys `[start, end)` covers.
    pub fn add_range_del(&mut self, rd: RangeTombstone) {
        self.max_seqno = self.max_seqno.max(rd.seqno);
        self.range_dels.push(rd);
    }

    fn rotate_block(&mut self) {
        if self.current.is_empty() {
            return;
        }
        let last_key = self.current.last_key().expect("non-empty block");
        self.block_keys.push(Bytes::copy_from_slice(last_key));
        self.pending.push(self.current.finish());
    }

    /// Sets the per-block compression (default [`CompressionType::Lz`];
    /// a block LZ cannot shrink is stored raw). Blocks are encoded at
    /// [`SstableBuilder::finish`], or as they fill in a large build's
    /// compression lane (`write_table`).
    #[must_use]
    pub fn compression(mut self, compression: CompressionType) -> Self {
        self.compression = compression;
        self
    }

    /// Number of entries added so far.
    #[must_use]
    pub fn entry_count(&self) -> u64 {
        self.key_bounds.len() as u64 - 1
    }

    /// Serializes the table and returns (encoded bytes, the metadata the
    /// manifest records for it).
    #[must_use]
    pub fn finish(mut self) -> (Bytes, TableMeta) {
        self.rotate_block();
        let pending = std::mem::take(&mut self.pending);
        self.stored.extend(encode_blocks(self.compression, pending));

        let keys = self
            .key_bounds
            .windows(2)
            .map(|w| &self.key_bytes[w[0]..w[1]]);
        let bloom = BloomFilter::build(keys.clone(), self.bloom_bits_per_key);
        let mut observed: Vec<u64> = keys.clone().map(observed_key).collect();
        observed.sort_unstable();
        observed.dedup();

        // The table's key range must cover its range tombstones too, so
        // range pruning never skips a table whose only relevant content
        // is an interval delete outside its point-key span.
        let mut min_key = keys.clone().next().map(Bytes::copy_from_slice);
        let mut max_key = keys.clone().next_back().map(Bytes::copy_from_slice);
        for rd in &self.range_dels {
            if min_key.as_ref().is_none_or(|m| rd.start < *m) {
                min_key = Some(rd.start.clone());
            }
            if max_key.as_ref().is_none_or(|m| rd.end > *m) {
                max_key = Some(rd.end.clone());
            }
        }

        // Sized up front, and each envelope freed as it is copied: the
        // build holds its data section about once, never doubled.
        let bloom_bytes = bloom.encode();
        let tail_len = bloom_bytes.len() + 8 * observed.len() + 64 * self.block_keys.len();
        let data_len: usize = self.stored.iter().map(Vec::len).sum();
        let mut buf = BytesMut::with_capacity(data_len + tail_len + 1024);
        encode_observation(&mut buf, &observed);
        let observation_len = buf.len() as u64;

        let mut index: Vec<(&Key, u64, u64)> = Vec::with_capacity(self.block_keys.len());
        for (last_key, stored) in self.block_keys.iter().zip(std::mem::take(&mut self.stored)) {
            index.push((last_key, buf.len() as u64, stored.len() as u64));
            buf.put_slice(&stored);
        }

        let bloom_offset = buf.len() as u64;
        buf.put_slice(&bloom_bytes);

        // Meta block: the table's min/max user keys, so key-range checks
        // and `min_key`/`max_key` never have to decode a data block.
        let meta_offset = buf.len() as u64;
        encode_meta(&mut buf, min_key.as_ref(), max_key.as_ref());

        // Range-tombstone section: resident in the tail next to the
        // meta block, so coverage checks never touch a data block.
        let range_del_offset = buf.len() as u64;
        encode_range_dels(&mut buf, &self.range_dels);

        let index_offset = buf.len() as u64;
        buf.put_u32_le(index.len() as u32);
        for (last_key, offset, len) in &index {
            buf.put_u32_le(last_key.len() as u32);
            buf.put_slice(last_key);
            buf.put_u64_le(*offset);
            buf.put_u64_le(*len);
        }

        // Footer: observation_len, bloom_offset, bloom_len, meta_offset,
        // range_del_offset, index_offset, entry_count, magic, crc
        let footer_start = buf.len();
        buf.put_u64_le(observation_len);
        buf.put_u64_le(bloom_offset);
        buf.put_u64_le(bloom_bytes.len() as u64);
        buf.put_u64_le(meta_offset);
        buf.put_u64_le(range_del_offset);
        buf.put_u64_le(index_offset);
        buf.put_u64_le(self.entry_count());
        buf.put_u64_le(FOOTER_MAGIC);
        let crc = crc32(&buf[footer_start..]);
        buf.put_u32_le(crc);

        let meta = TableMeta {
            table_id: self.table_id,
            entry_count: self.entry_count(),
            encoded_len: buf.len() as u64,
            tombstone_count: self.tombstone_count,
            range_tombstone_count: self.range_dels.len() as u64,
            max_seqno: self.max_seqno,
        };
        (buf.freeze(), meta)
    }
}

/// Encodes the min/max-key meta block: a presence flag followed by the
/// two length-prefixed keys (absent for an empty table).
fn encode_meta(buf: &mut BytesMut, min_key: Option<&Key>, max_key: Option<&Key>) {
    match (min_key, max_key) {
        (Some(min), Some(max)) => {
            buf.put_u8(1);
            buf.put_u32_le(min.len() as u32);
            buf.put_slice(min);
            buf.put_u32_le(max.len() as u32);
            buf.put_slice(max);
        }
        _ => buf.put_u8(0),
    }
}

/// Decodes a meta block produced by [`encode_meta`].
pub(crate) fn decode_meta(mut cursor: &[u8]) -> Result<(Option<Key>, Option<Key>), Error> {
    if cursor.is_empty() {
        return Err(Error::corruption("truncated sstable meta block"));
    }
    match cursor.get_u8() {
        0 => Ok((None, None)),
        1 => {
            let min = decode_meta_key(&mut cursor)?;
            let max = decode_meta_key(&mut cursor)?;
            Ok((Some(min), Some(max)))
        }
        _ => Err(Error::corruption("unknown sstable meta flag")),
    }
}

fn decode_meta_key(cursor: &mut &[u8]) -> Result<Key, Error> {
    if cursor.remaining() < 4 {
        return Err(Error::corruption("truncated sstable meta key length"));
    }
    let len = cursor.get_u32_le() as usize;
    if cursor.remaining() < len {
        return Err(Error::corruption("truncated sstable meta key"));
    }
    let key = Bytes::copy_from_slice(&cursor[..len]);
    cursor.advance(len);
    Ok(key)
}

/// Decodes the block index: `(last_key, offset, len)` per data block.
pub(crate) fn decode_index(mut cursor: &[u8]) -> Result<Vec<(Key, u64, u64)>, Error> {
    if cursor.remaining() < 4 {
        return Err(Error::corruption("truncated sstable index"));
    }
    let block_count = cursor.get_u32_le() as usize;
    // An entry is at least a length prefix, an offset and a length.
    let mut index = Vec::with_capacity(block_count.min(cursor.remaining() / 20));
    for _ in 0..block_count {
        let key = decode_meta_key(&mut cursor)?;
        if cursor.remaining() < 16 {
            return Err(Error::corruption("truncated index entry"));
        }
        index.push((key, cursor.get_u64_le(), cursor.get_u64_le()));
    }
    Ok(index)
}

/// Logical blocks a build holds before [`write_table`] starts its
/// compression lane: about 256 KiB of default 4 KiB blocks.
pub(crate) const LANE_START_BLOCKS: usize = 64;
/// Blocks per hand-off once the lane runs.
const LANE_BATCH_BLOCKS: usize = 8;

/// Wraps each logical block in its stored envelope: the one place a
/// table build encodes blocks, at `finish` or in the compression lane.
fn encode_blocks(compression: CompressionType, blocks: Vec<Bytes>) -> Vec<Vec<u8>> {
    let encode = |block: Bytes| encode_block_envelope(compression, &block);
    blocks.into_iter().map(encode).collect()
}

/// Builds table `table_id` from `entries` (internal-key order) and
/// `range_dels`, writes its blob, and returns the metadata the manifest
/// records — the one way the engine creates a table. Nothing is written
/// if `entries` yields an error. The blob is written before the caller's
/// manifest edit, so a crash in between leaves only an orphan (swept on
/// open).
///
/// Past [`LANE_START_BLOCKS`] pending blocks the build starts a
/// compression lane: a scoped thread, fed [`LANE_BATCH_BLOCKS`] at a time
/// through a bounded channel, LZ-encodes and CRCs them while this thread
/// merges, and hands back the envelopes in order — `finish`'s bytes. A
/// smaller build encodes at `finish`: a lane per 30-block, 1 000-key
/// flush cost 6–17 % more `setup_s` on `compact-bt` / `compact-soe`.
///
/// # Errors
///
/// Propagates the first error `entries` yields and storage failures of
/// the table blob write.
pub(crate) fn write_table(
    storage: &dyn Storage,
    options: &LsmOptions,
    table_id: u64,
    entries: impl Iterator<Item = Result<Entry, Error>>,
    range_dels: impl IntoIterator<Item = RangeTombstone>,
) -> Result<TableMeta, Error> {
    let mut builder =
        SstableBuilder::new(table_id, options.block_size_bytes(), options.bloom_bits())
            .compression(options.compression_type());
    let compression = builder.compression;
    // On an input error the lane's sender drops, and the scope joins it.
    std::thread::scope(|scope| {
        let (mut lane, mut batch) = (None, LANE_START_BLOCKS);
        for entry in entries {
            builder.add(&entry?);
            if builder.pending.len() >= batch {
                batch = LANE_BATCH_BLOCKS;
                let (hand_off, _) = lane.get_or_insert_with(|| {
                    let (hand_off, batches) = sync_channel(LANE_START_BLOCKS / LANE_BATCH_BLOCKS);
                    let lane = scope.spawn(move || {
                        let encode = |batch| encode_blocks(compression, batch);
                        batches.into_iter().flat_map(encode).collect::<Vec<_>>()
                    });
                    (hand_off, lane)
                });
                let blocks = std::mem::take(&mut builder.pending);
                hand_off.send(blocks).expect("compression lane alive");
            }
        }
        if let Some((hand_off, lane)) = lane {
            drop(hand_off);
            builder.stored = lane.join().expect("compression lane panicked");
        }
        Ok::<_, Error>(())
    })?;
    for rd in range_dels {
        builder.add_range_del(rd);
    }
    let (data, meta) = builder.finish();
    storage.write_blob(&SstableReader::blob_name(table_id), &data)?;
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::{ReadContext, ReadPathCounters};
    use crate::storage::MemoryStorage;
    use crate::types::key_from_u64;
    use crate::wal::Wal;
    use proptest::prelude::*;

    fn build_table(n: u64, block_size: usize) -> (Bytes, TableMeta) {
        let mut builder = SstableBuilder::new(7, block_size, 10);
        for i in 0..n {
            let entry = if i % 11 == 0 {
                Entry::tombstone(key_from_u64(i), 1_000 + i)
            } else {
                Entry::put(
                    key_from_u64(i),
                    Bytes::from(format!("value-{i}")),
                    1_000 + i,
                )
            };
            builder.add(&entry);
        }
        assert_eq!(builder.entry_count(), n);
        builder.finish()
    }

    /// An encoded table stored as a blob and opened through the reader.
    struct Stored {
        storage: MemoryStorage,
        reader: SstableReader,
        counters: ReadPathCounters,
    }

    impl Stored {
        fn open(table_id: u64, data: &[u8]) -> Result<Self, Error> {
            let storage = MemoryStorage::new();
            storage.write_blob(&SstableReader::blob_name(table_id), data)?;
            let reader = SstableReader::open(&storage, table_id, None)?;
            Ok(Self {
                storage,
                reader,
                counters: ReadPathCounters::default(),
            })
        }

        fn ctx(&self) -> ReadContext<'_> {
            ReadContext::whole_table(&self.storage, &self.counters)
        }

        fn get(&self, key: &[u8]) -> Option<Entry> {
            self.reader.get(key, self.ctx()).unwrap()
        }

        fn entries(&self) -> Vec<Entry> {
            self.reader
                .iter(self.ctx())
                .collect::<Result<_, _>>()
                .unwrap()
        }
    }

    #[test]
    fn build_open_and_point_lookup() {
        let (data, meta) = build_table(1_000, 256);
        assert_eq!(meta.entry_count, 1_000);

        let table = Stored::open(7, &data).unwrap();
        assert_eq!(table.reader.table_id(), 7);
        assert_eq!(table.reader.entry_count(), 1_000);
        assert_eq!(table.reader.encoded_len(), meta.encoded_len);
        assert!(
            table.reader.block_count() > 1,
            "small block size must yield several blocks"
        );
        assert_eq!(table.reader.min_key(), Some(&key_from_u64(0)));
        assert_eq!(table.reader.max_key(), Some(&key_from_u64(999)));

        let entry = table.get(&key_from_u64(500)).unwrap();
        assert_eq!(entry.value.as_ref(), b"value-500");
        let tomb = table.get(&key_from_u64(990)).unwrap();
        assert!(tomb.is_tombstone());
        assert!(table.get(&key_from_u64(5_000)).is_none());
    }

    #[test]
    fn iter_returns_all_entries_in_order() {
        let (data, _) = build_table(500, 200);
        let entries = Stored::open(1, &data).unwrap().entries();
        assert_eq!(entries.len(), 500);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.key, key_from_u64(i as u64));
        }
    }

    #[test]
    fn empty_table_roundtrips() {
        let builder = SstableBuilder::new(2, 4096, 10);
        let (data, meta) = builder.finish();
        assert_eq!(meta.entry_count, 0);
        let table = Stored::open(2, &data).unwrap();
        assert_eq!(table.reader.entry_count(), 0);
        assert_eq!(table.reader.block_count(), 0);
        assert!(table.get(b"x").is_none());
        assert!(table.entries().is_empty());
        assert_eq!(table.reader.min_key(), None);
        assert_eq!(table.reader.max_key(), None);
    }

    /// A blob whose footer carries a retired format's magic is refused
    /// naming the version, not parsing the body; any other magic is
    /// plain garbage.
    #[test]
    fn retired_format_magics_are_refused_by_version() {
        let (current, _) = build_table(20, 4096);
        assert_eq!(&current[current.len() - 12..current.len() - 4], b"6LBATMSL");
        assert!(Stored::open(1, &current).is_ok());

        for (magic, expect) in [
            (*b"LSMTABLE", "unsupported sstable format v1"),
            (*b"LSMTABL2", "unsupported sstable format v2"),
            (*b"LSMTABL3", "unsupported sstable format v3"),
            (*b"LSMTABL4", "unsupported sstable format v4"),
            (*b"LSMTABL5", "unsupported sstable format v5"),
            (*b"LSMTABL9", "bad sstable magic"),
        ] {
            // A tail shaped like the old footers: offset fields, the
            // magic (stored little-endian), then a CRC over the lot.
            let mut blob = BytesMut::new();
            blob.put_slice(&[0u8; 64]);
            blob.put_u64_le(u64::from_be_bytes(magic));
            let crc = crc32(&blob);
            blob.put_u32_le(crc);

            let err = Stored::open(1, &blob).map(|_| ()).unwrap_err();
            assert!(matches!(err, Error::Corruption { .. }), "{err}");
            assert!(err.to_string().contains(expect), "{err}");
        }
    }

    #[test]
    fn open_rejects_corruption_and_missing_blobs() {
        let (data, _) = build_table(50, 4096);
        let mut tampered = data.to_vec();
        let last = tampered.len() - 1;
        tampered[last] ^= 0xFF;
        assert!(Stored::open(1, &tampered).is_err());
        assert!(Stored::open(1, b"tiny").is_err());

        let table = Stored::open(42, &data).unwrap();
        assert_eq!(table.reader.entry_count(), 50);
        assert!(SstableReader::open(&table.storage, 43, None).is_err());
    }

    #[test]
    fn blob_names_are_stable_and_sortable() {
        assert_eq!(SstableReader::blob_name(1), "sst-000000000001.sst");
        assert!(SstableReader::blob_name(2) < SstableReader::blob_name(10));
        assert_eq!(
            SstableReader::id_from_blob_name(&SstableReader::blob_name(42)),
            Some(42)
        );
        assert_eq!(
            SstableReader::id_from_blob_name(&Wal::generation_blob_name(42)),
            None
        );
    }

    #[test]
    fn range_tombstones_roundtrip() {
        let mut builder = SstableBuilder::new(3, 256, 10);
        for i in 10u64..20 {
            builder.add(&Entry::put(key_from_u64(i), Bytes::from_static(b"v"), i));
        }
        builder.add_range_del(RangeTombstone::new(key_from_u64(0), key_from_u64(5), 30));
        builder.add_range_del(RangeTombstone::new(key_from_u64(12), key_from_u64(40), 31));
        let (data, meta) = builder.finish();
        assert_eq!(meta.range_tombstone_count, 2);

        let table = Stored::open(3, &data).unwrap();
        assert_eq!(
            table.reader.min_key(),
            Some(&key_from_u64(0)),
            "min widened to the range-del start"
        );
        assert_eq!(
            table.reader.max_key(),
            Some(&key_from_u64(40)),
            "max widened to the range-del end"
        );
        let range_dels = table.reader.range_dels();
        assert_eq!(range_dels.len(), 2);
        assert_eq!(range_dels[0].seqno, 30);
        assert_eq!(range_dels[1].start, key_from_u64(12));
        // Point entries still resolve normally.
        assert!(table.get(&key_from_u64(15)).is_some());
    }

    #[test]
    fn range_del_only_table_roundtrips() {
        let mut builder = SstableBuilder::new(4, 256, 10);
        builder.add_range_del(RangeTombstone::new(key_from_u64(5), key_from_u64(9), 77));
        let (data, meta) = builder.finish();
        assert_eq!(meta.entry_count, 0);
        assert_eq!(meta.range_tombstone_count, 1);
        let table = Stored::open(4, &data).unwrap();
        assert_eq!(table.reader.min_key(), Some(&key_from_u64(5)));
        assert_eq!(table.reader.entry_count(), 0);
        assert_eq!(table.reader.range_dels().len(), 1);
        assert!(table.reader.range_dels()[0].shadows(&key_from_u64(6), 70));
    }

    #[test]
    fn versions_of_one_key_never_split_across_blocks() {
        // Tiny blocks force rotation; the builder must still keep all
        // versions of each user key inside a single block so the
        // visibility walk never crosses a block boundary.
        let mut builder = SstableBuilder::new(5, 64, 10);
        for key in 0u64..50 {
            for version in 0..4u64 {
                builder.add(&Entry::put(
                    key_from_u64(key),
                    Bytes::from(vec![b'x'; 40]),
                    1_000 + (50 - key) * 10 - version,
                ));
            }
        }
        let (data, _) = builder.finish();
        let table = Stored::open(5, &data).unwrap();
        assert!(table.reader.block_count() > 5, "rotation still happens");
        let mut seen_last: Option<Key> = None;
        for idx in 0..table.reader.block_count() {
            let block = table.reader.block(idx, table.ctx()).unwrap();
            let first = block.entry(0).unwrap().key;
            if let Some(prev_last) = &seen_last {
                assert_ne!(*prev_last, first, "user key split across adjacent blocks");
            }
            seen_last = Some(block.entry(block.len() - 1).unwrap().key);
        }
    }

    #[test]
    fn corrupt_range_del_section_is_detected() {
        let mut builder = SstableBuilder::new(6, 256, 10);
        builder.add(&Entry::put(key_from_u64(1), Bytes::from_static(b"v"), 1));
        builder.add_range_del(RangeTombstone::new(key_from_u64(2), key_from_u64(9), 5));
        let (data, _) = builder.finish();
        let table = Stored::open(6, &data).unwrap();
        assert_eq!(table.reader.range_dels().len(), 1);

        // Flip a byte inside the range-del section (between meta and
        // index): locate it via the footer.
        let footer = Footer::parse(&data, data.len()).unwrap();
        let mut tampered = data.to_vec();
        tampered[footer.range_del_offset + 4] ^= 0xFF;
        assert!(matches!(
            Stored::open(6, &tampered).map(|_| ()),
            Err(Error::Corruption { .. })
        ));
    }

    /// Each decoder's stored count is refused before it sizes an
    /// allocation when the bytes behind it could not hold that many
    /// records — a data block's behind a valid envelope CRC, the
    /// range-tombstone and observation sections' behind their section
    /// CRCs, the index's (which has no CRC) as is. `u32::MAX` of any of
    /// them would ask for tens of GiB.
    #[test]
    fn forged_counts_are_refused_before_allocating() {
        let with_count = |mut bytes: Vec<u8>, at: usize, count: u32| {
            bytes[at..at + 4].copy_from_slice(&count.to_le_bytes());
            bytes
        };
        let corrupt = |result: Result<(), Error>| matches!(result, Err(Error::Corruption { .. }));

        let mut block = BlockBuilder::new();
        block.add(&Entry::put(key_from_u64(1), Bytes::new(), 1));
        let block = block.finish().to_vec();
        let mut range_dels = BytesMut::new();
        encode_range_dels(&mut range_dels, &[]);
        let mut observation = BytesMut::new();
        encode_observation(&mut observation, &[]);
        let mut index = BytesMut::new();
        index.put_u32_le(0);
        for count in [2, 1 << 20, u32::MAX] {
            let logical = with_count(block.clone(), block.len() - 4, count);
            let stored = encode_block_envelope(CompressionType::Lz, &logical);
            let logical = crate::compress::decode_block_envelope(&stored.into()).unwrap();
            assert!(corrupt(crate::block::Block::decode(logical).map(|_| ())));

            // An empty section with its count forged and its CRC redone.
            let forge = |empty: &[u8]| {
                let mut section = with_count(empty.to_vec(), 0, count);
                let crc = crc32(&section[..4]);
                section[4..].copy_from_slice(&crc.to_le_bytes());
                section
            };
            assert!(corrupt(decode_range_dels(&forge(&range_dels)).map(|_| ())));
            assert!(corrupt(
                decode_observation(&forge(&observation)).map(|_| ())
            ));

            let forged = with_count(index.to_vec(), 0, count);
            assert!(corrupt(decode_index(&forged).map(|_| ())));
        }
    }

    /// `Ok` or `Corruption` from the observation decoder, never another
    /// error; a panic fails the caller's test by itself.
    fn observation_decode_is_total(section: &[u8]) -> Result<(), String> {
        match decode_observation(section) {
            Ok(_) | Err(Error::Corruption { .. }) => Ok(()),
            Err(other) => Err(format!("non-corruption error {other:?}")),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes, and every truncation and byte flip of a real
        /// section, decode to `Ok` or `Corruption`; a flip always fails
        /// the section CRC.
        #[test]
        fn observation_section_decode_is_total(
            keys in proptest::collection::vec(any::<u64>(), 0..32),
            noise in proptest::collection::vec(any::<u8>(), 0..64),
            mask in 1u8..=255,
        ) {
            observation_decode_is_total(&noise)?;
            let mut good = BytesMut::new();
            encode_observation(&mut good, &keys);
            prop_assert_eq!(decode_observation(&good).map_err(|e| e.to_string())?, keys);
            for cut in 0..good.len() {
                observation_decode_is_total(&good[..cut])?;
            }
            for byte in 0..good.len() {
                let mut bad = good.to_vec();
                bad[byte] ^= mask;
                prop_assert!(
                    matches!(decode_observation(&bad), Err(Error::Corruption { .. })),
                    "flip at {byte} decoded"
                );
            }
        }
    }

    /// The lane changes which thread encodes a block, never the bytes:
    /// below and above its start, under either compression,
    /// `write_table`'s blob is `finish`'s.
    #[test]
    fn write_table_bytes_equal_finish_with_and_without_the_lane() {
        for compression in [CompressionType::Lz, CompressionType::None] {
            let options = LsmOptions::default()
                .block_size(256)
                .compression(compression);
            for (n, lane) in [(200u64, false), (6_000, true)] {
                let entries = || {
                    (0..n).map(|i| {
                        let value = Bytes::from(format!("value-{}", i % 97));
                        Entry::put(key_from_u64(i), value, i + 1)
                    })
                };
                let mut builder =
                    SstableBuilder::new(3, 256, options.bloom_bits()).compression(compression);
                entries().for_each(|entry| builder.add(&entry));
                assert_eq!(builder.block_keys.len() >= 3 * LANE_START_BLOCKS, lane);
                assert_eq!(builder.block_keys.len() < LANE_START_BLOCKS, !lane);
                let (expected, _) = builder.finish();

                let storage = MemoryStorage::new();
                write_table(&storage, &options, 3, entries().map(Ok), []).unwrap();
                let written = storage.read_blob(&SstableReader::blob_name(3)).unwrap();
                assert!(written == expected, "{compression:?}, {n} entries");
            }
        }
    }

    /// The one writer: one blob, whose observation section and manifest
    /// metadata agree with its contents, and an input error writes
    /// nothing.
    #[test]
    fn write_table_persists_one_blob_or_nothing() {
        let storage = MemoryStorage::new();
        let options = LsmOptions::default().block_size(256);
        let entries = (0..100u64).map(|i| Ok(Entry::put(key_from_u64(i), Bytes::new(), i + 1)));
        let rd = RangeTombstone::new(key_from_u64(200), key_from_u64(300), 500);
        let meta = write_table(&storage, &options, 9, entries, [rd]).unwrap();
        assert_eq!(
            (meta.table_id, meta.entry_count, meta.range_tombstone_count),
            (9, 100, 1)
        );
        assert_eq!(meta.max_seqno, 500);
        assert_eq!(storage.list_blobs(), vec![SstableReader::blob_name(9)]);
        let reader = SstableReader::open(&storage, 9, Some(meta.encoded_len)).unwrap();
        assert_eq!(reader.entry_count(), 100);
        assert_eq!(
            read_observation(&storage, 9, meta.encoded_len).unwrap(),
            (0..100).collect::<Vec<u64>>()
        );

        let failing = [
            Ok(Entry::put(key_from_u64(1), Bytes::new(), 1)),
            Err(Error::corruption("input rot")),
        ];
        let before = storage.bytes_written();
        assert!(write_table(&storage, &options, 10, failing.into_iter(), []).is_err());
        assert_eq!(storage.bytes_written(), before, "nothing written");
    }
}
