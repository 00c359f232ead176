//! Data block encoding for sstables.
//!
//! A block is a sorted sequence of entries encoded as length-prefixed
//! records followed by the entry count:
//!
//! ```text
//! entry*  klen u32 | key | vlen u32 | value | seqno u64 | kind u8
//! count   u32
//! ```
//!
//! Blocks are the unit of read I/O within a single sstable; the sstable
//! index maps the last key of each block to its offset, so point lookups
//! binary-search the index and decode a single block. A block carries no
//! checksum of its own: it is stored inside a [compression
//! envelope](crate::compress) whose CRC covers every stored byte, and
//! [`Block::decode`] only has to reject structure that cannot be a block.

use std::ops::Range;

use bytes::{BufMut, Bytes, BytesMut};

use crate::types::{Entry, SeqNo, ValueKind};
use crate::Error;

/// Incrementally builds one encoded data block from sorted entries.
#[derive(Debug, Default)]
pub struct BlockBuilder {
    buf: BytesMut,
    count: u32,
    /// Where the last added key sits in `buf`.
    last_key: Option<Range<usize>>,
}

impl BlockBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry. Entries must be appended in internal-key order;
    /// the builder does not reorder them.
    pub fn add(&mut self, entry: &Entry) {
        self.buf.put_u32_le(entry.key.len() as u32);
        let key_start = self.buf.len();
        self.buf.put_slice(&entry.key);
        self.last_key = Some(key_start..self.buf.len());
        self.buf.put_u32_le(entry.value.len() as u32);
        self.buf.put_slice(&entry.value);
        self.buf.put_u64_le(entry.seqno);
        self.buf.put_u8(entry.kind.as_u8());
        self.count += 1;
    }

    /// Returns `true` if no entry has been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Current encoded size in bytes (before the entry count).
    #[must_use]
    pub fn size_in_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Last key added to the block, if any.
    #[must_use]
    pub fn last_key(&self) -> Option<&[u8]> {
        self.last_key.clone().map(|range| &self.buf[range])
    }

    /// Finishes the block: appends the entry count and returns the
    /// encoded bytes, resetting the builder for reuse.
    #[must_use]
    pub fn finish(&mut self) -> Bytes {
        self.buf.put_u32_le(self.count);
        self.count = 0;
        self.last_key = None;
        std::mem::take(&mut self.buf).freeze()
    }
}

/// Where one encoded entry's fields lie in its block: key range, value
/// range, seqno, kind and the entry's end.
type EntryAt = (Range<usize>, Range<usize>, SeqNo, ValueKind, usize);

/// Parses the entry starting at `pos` of `entries`, or `None` if it runs
/// past the end or carries an unknown kind tag.
fn parse_entry(entries: &[u8], pos: usize) -> Option<EntryAt> {
    let mut at = pos;
    let mut take = |n: usize| {
        let end = at.checked_add(n).filter(|&end| end <= entries.len())?;
        Some(std::mem::replace(&mut at, end)..end)
    };
    let len =
        |r: Range<usize>| u32::from_le_bytes(entries[r].try_into().expect("4 bytes")) as usize;
    let key_len = len(take(4)?);
    let key = take(key_len)?;
    let value_len = len(take(4)?);
    let value = take(value_len)?;
    let seqno = u64::from_le_bytes(entries[take(8)?].try_into().expect("8 bytes"));
    let kind = ValueKind::from_u8(entries[take(1)?.start])?;
    Some((key, value, seqno, kind, at))
}

/// A decoded, immutable data block: the encoded entries in one shared
/// buffer plus the offset of each, validated in one pass at decode.
/// Lookups binary-search in place and every [`Entry`] handed out is a
/// pair of slices of that buffer, so neither a cache hit nor a cursor
/// step copies a key or a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    entries: Bytes,
    offsets: Vec<u32>,
}

impl Block {
    /// Decodes a block produced by [`BlockBuilder::finish`], sharing
    /// `data`'s buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if the count is missing, an entry is
    /// truncated or carries an unknown kind, or bytes trail the last entry.
    pub fn decode(data: Bytes) -> Result<Self, Error> {
        let (entries, count) = data
            .split_last_chunk()
            .ok_or_else(|| Error::corruption("block shorter than its entry count"))?;
        let count = u32::from_le_bytes(*count) as usize;
        let entries = data.slice(..entries.len());
        // The count is stored data: it sizes the offset array only up to
        // what the entry bytes could hold (17 bytes is the smallest entry).
        let mut offsets = Vec::with_capacity(count.min(entries.len() / 17));
        let mut pos = 0;
        for _ in 0..count {
            offsets.push(
                u32::try_from(pos).map_err(|_| Error::corruption("block larger than 4 GiB"))?,
            );
            let (.., end) = parse_entry(&entries, pos)
                .ok_or_else(|| Error::corruption("truncated or malformed block entry"))?;
            pos = end;
        }
        if pos != entries.len() {
            return Err(Error::corruption("trailing bytes after last entry"));
        }
        Ok(Self { entries, offsets })
    }

    /// Number of entries in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Returns `true` if the block holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Resident size of the decoded block: the struct, the entry bytes
    /// and the offset array. The block cache charges this — it stores
    /// *decoded* blocks, so charging encoded (possibly compressed) length
    /// would understate RAM by the compression ratio.
    #[must_use]
    pub fn mem_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.entries.len()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
    }

    /// The `idx`-th entry in the order added, its key and value slices
    /// of the block's buffer.
    #[must_use]
    pub fn entry(&self, idx: usize) -> Option<Entry> {
        let (key, value, seqno, kind, _) = self.parsed(*self.offsets.get(idx)?);
        Some(Entry {
            key: self.entries.slice(key),
            value: self.entries.slice(value),
            seqno,
            kind,
        })
    }

    /// The entry starting at byte `offset` (one of `offsets`).
    fn parsed(&self, offset: u32) -> EntryAt {
        parse_entry(&self.entries, offset as usize).expect("decode validated every entry")
    }

    /// Finds the newest entry for `key` within this block.
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<Entry> {
        self.get_visible(key, SeqNo::MAX)
    }

    /// Finds the newest entry for `key` with `seqno <= upto` — the
    /// pinned-snapshot variant of [`Block::get`]. Entries are sorted by
    /// (user key asc, seqno desc), so the first entry at or after `key`
    /// is its newest version, reachable by binary search; the sstable
    /// builder never splits a key across blocks, so the walk over older
    /// versions stays local.
    #[must_use]
    pub fn get_visible(&self, key: &[u8], upto: SeqNo) -> Option<Entry> {
        let key_at = |offset: u32| &self.entries[self.parsed(offset).0];
        let start = self.offsets.partition_point(|&offset| key_at(offset) < key);
        let idx = start
            + self.offsets[start..]
                .iter()
                .map(|&offset| self.parsed(offset))
                .take_while(|(k, ..)| self.entries[k.clone()] == *key)
                .position(|(_, _, seqno, ..)| seqno <= upto)?;
        self.entry(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::key_from_u64;
    use proptest::prelude::*;

    fn sample_entries(n: u64) -> Vec<Entry> {
        (0..n)
            .map(|i| {
                if i % 7 == 0 {
                    Entry::tombstone(key_from_u64(i), 100 + i)
                } else {
                    Entry::put(key_from_u64(i), Bytes::from(format!("value-{i}")), 100 + i)
                }
            })
            .collect()
    }

    fn all_entries(block: &Block) -> Vec<Entry> {
        (0..block.len()).map(|i| block.entry(i).unwrap()).collect()
    }

    #[test]
    fn build_and_decode_roundtrip() {
        let entries = sample_entries(100);
        let mut builder = BlockBuilder::new();
        for e in &entries {
            builder.add(e);
        }
        assert!(!builder.is_empty());
        assert_eq!(builder.last_key().unwrap(), key_from_u64(99).as_ref());
        let encoded = builder.finish();
        assert!(builder.is_empty(), "finish resets the builder");
        assert_eq!(builder.last_key(), None);

        let block = Block::decode(encoded.clone()).unwrap();
        assert_eq!(all_entries(&block), entries);
        assert!(block.entry(100).is_none());
        assert_eq!(block.get(&key_from_u64(13)).unwrap().seqno, 113);
        assert!(block.get(b"missing!").is_none());
        // Keys and values are slices of the decoded buffer, not copies.
        let value = block.get(&key_from_u64(13)).unwrap().value;
        let at = encoded.as_ptr() as usize;
        assert!((at..at + encoded.len()).contains(&(value.as_ptr() as usize)));
    }

    #[test]
    fn get_visible_walks_the_versions_of_one_key() {
        let mut builder = BlockBuilder::new();
        for (key, seqno) in [(1u64, 9), (2, 30), (2, 20), (2, 10), (3, 5)] {
            builder.add(&Entry::put(key_from_u64(key), Bytes::new(), seqno));
        }
        let block = Block::decode(builder.finish()).unwrap();
        let k2 = key_from_u64(2);
        assert_eq!(block.get(&k2).unwrap().seqno, 30);
        assert_eq!(block.get_visible(&k2, 25).unwrap().seqno, 20);
        assert_eq!(block.get_visible(&k2, 10).unwrap().seqno, 10);
        assert!(block.get_visible(&k2, 9).is_none(), "no older version");
        assert!(block.get_visible(&key_from_u64(3), 4).is_none());
    }

    #[test]
    fn empty_block_roundtrips() {
        let mut builder = BlockBuilder::new();
        let encoded = builder.finish();
        let block = Block::decode(encoded).unwrap();
        assert!(block.is_empty());
        assert_eq!(block.len(), 0);
        assert!(block.get(b"x").is_none());
    }

    /// Decodes `data` and, if it decodes, touches every entry and looks
    /// each one up: the outcome must be `Ok` or `Corruption`, with every
    /// offset inside the buffer — never a panic.
    fn decode_is_total(data: &[u8]) -> Result<(), String> {
        match Block::decode(Bytes::copy_from_slice(data)) {
            Err(Error::Corruption { .. }) => Ok(()),
            Err(other) => Err(format!("non-corruption error {other:?}")),
            Ok(block) => {
                for (idx, &offset) in block.offsets.iter().enumerate() {
                    prop_assert!((offset as usize) < block.entries.len(), "offset {offset}");
                    let entry = block.entry(idx).ok_or("entry missing")?;
                    let _ = block.get_visible(&entry.key, entry.seqno);
                }
                Ok(())
            }
        }
    }

    fn arbitrary_entry() -> impl Strategy<Value = Entry> {
        (
            proptest::collection::vec(any::<u8>(), 0..12),
            proptest::collection::vec(any::<u8>(), 0..24),
            any::<u64>(),
            0u8..2,
        )
            .prop_map(|(key, value, seqno, kind)| {
                if kind == 0 {
                    Entry::put(Bytes::from(key), Bytes::from(value), seqno)
                } else {
                    Entry::tombstone(Bytes::from(key), seqno)
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Detecting corruption is the envelope CRC's job; the block
        /// decoder must only never panic or point outside its buffer,
        /// whatever bytes it is handed.
        #[test]
        fn decode_is_total_on_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            decode_is_total(&data)?;
        }

        #[test]
        fn decode_is_total_on_every_truncation_and_byte_flip(
            entries in proptest::collection::vec(arbitrary_entry(), 0..16),
            mask in 1u8..=255,
        ) {
            let mut builder = BlockBuilder::new();
            for entry in &entries {
                builder.add(entry);
            }
            let good = builder.finish();
            let block = Block::decode(good.clone()).map_err(|e| e.to_string())?;
            prop_assert_eq!(all_entries(&block), entries);
            for cut in 0..good.len() {
                decode_is_total(&good[..cut])?;
            }
            for byte in 0..good.len() {
                let mut bad = good.to_vec();
                bad[byte] ^= mask;
                decode_is_total(&bad)?;
            }
        }
    }
}
