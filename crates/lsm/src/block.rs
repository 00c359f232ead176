//! Data block encoding for sstables.
//!
//! A block is a sorted sequence of entries encoded as length-prefixed
//! records followed by a CRC32 checksum. Blocks are the unit of read I/O
//! within a single sstable; the sstable index maps the last key of each
//! block to its offset, so point lookups binary-search the index and
//! decode a single block.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::types::{Entry, ValueKind};
use crate::Error;

/// Incrementally builds one encoded data block from sorted entries.
#[derive(Debug, Default)]
pub struct BlockBuilder {
    buf: BytesMut,
    count: u32,
    first_key: Option<Bytes>,
    last_key: Option<Bytes>,
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
        if self.first_key.is_none() {
            self.first_key = Some(entry.key.clone());
        }
        self.last_key = Some(entry.key.clone());
        self.buf.put_u32_le(entry.key.len() as u32);
        self.buf.put_slice(&entry.key);
        self.buf.put_u32_le(entry.value.len() as u32);
        self.buf.put_slice(&entry.value);
        self.buf.put_u64_le(entry.seqno);
        self.buf.put_u8(entry.kind.as_u8());
        self.count += 1;
    }

    /// Number of entries added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Returns `true` if no entry has been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Current encoded payload size in bytes (before the trailer).
    #[must_use]
    pub fn size_in_bytes(&self) -> usize {
        self.buf.len()
    }

    /// First key added to the block, if any.
    #[must_use]
    pub fn first_key(&self) -> Option<&Bytes> {
        self.first_key.as_ref()
    }

    /// Last key added to the block, if any.
    #[must_use]
    pub fn last_key(&self) -> Option<&Bytes> {
        self.last_key.as_ref()
    }

    /// Finishes the block: appends the entry count and CRC32 trailer and
    /// returns the encoded bytes, resetting the builder for reuse.
    #[must_use]
    pub fn finish(&mut self) -> Bytes {
        let mut out = BytesMut::with_capacity(self.buf.len() + 8);
        out.put_slice(&self.buf);
        out.put_u32_le(self.count);
        let crc = crc32(&out);
        out.put_u32_le(crc);
        self.buf.clear();
        self.count = 0;
        self.first_key = None;
        self.last_key = None;
        out.freeze()
    }
}

/// A decoded, immutable data block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    entries: Vec<Entry>,
}

impl Block {
    /// Decodes a block produced by [`BlockBuilder::finish`], verifying its
    /// checksum.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] if the trailer is missing, the CRC
    /// does not match, or a record is truncated.
    pub fn decode(data: &[u8]) -> Result<Self, Error> {
        if data.len() < 8 {
            return Err(Error::corruption("block shorter than trailer"));
        }
        let (payload_and_count, crc_bytes) = data.split_at(data.len() - 4);
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().expect("split at 4"));
        if crc32(payload_and_count) != stored_crc {
            return Err(Error::corruption("block checksum mismatch"));
        }
        let (payload, count_bytes) = payload_and_count.split_at(payload_and_count.len() - 4);
        let count = u32::from_le_bytes(count_bytes.try_into().expect("split at 4"));

        let mut entries = Vec::with_capacity(count as usize);
        let mut cursor = payload;
        for _ in 0..count {
            if cursor.remaining() < 4 {
                return Err(Error::corruption("truncated key length"));
            }
            let klen = cursor.get_u32_le() as usize;
            if cursor.remaining() < klen {
                return Err(Error::corruption("truncated key"));
            }
            let key = Bytes::copy_from_slice(&cursor[..klen]);
            cursor.advance(klen);
            if cursor.remaining() < 4 {
                return Err(Error::corruption("truncated value length"));
            }
            let vlen = cursor.get_u32_le() as usize;
            if cursor.remaining() < vlen {
                return Err(Error::corruption("truncated value"));
            }
            let value = Bytes::copy_from_slice(&cursor[..vlen]);
            cursor.advance(vlen);
            if cursor.remaining() < 9 {
                return Err(Error::corruption("truncated entry metadata"));
            }
            let seqno = cursor.get_u64_le();
            let kind = ValueKind::from_u8(cursor.get_u8())
                .ok_or_else(|| Error::corruption("unknown value kind tag"))?;
            entries.push(Entry {
                key,
                value,
                seqno,
                kind,
            });
        }
        if cursor.has_remaining() {
            return Err(Error::corruption("trailing bytes after last entry"));
        }
        Ok(Self { entries })
    }

    /// The decoded entries, in the order they were added.
    #[must_use]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of entries in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the block holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate resident size of the decoded block: the struct, its
    /// entry vector, and the key/value bytes the entries own. The
    /// block cache charges this — it stores *decoded* blocks, so
    /// charging encoded (possibly compressed) length would understate
    /// RAM by the compression ratio.
    #[must_use]
    pub fn mem_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.entries.capacity() * std::mem::size_of::<Entry>()
            + self
                .entries
                .iter()
                .map(|e| e.key.len() + e.value.len())
                .sum::<usize>()
    }

    /// Finds the newest entry for `key` within this block.
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<&Entry> {
        // Entries are sorted by (user key asc, seqno desc); the first
        // entry at or after `key` is therefore the newest version of it,
        // reachable by binary search instead of a linear scan.
        let idx = self.entries.partition_point(|e| e.key.as_ref() < key);
        self.entries.get(idx).filter(|e| e.key.as_ref() == key)
    }

    /// Finds the newest entry for `key` with `seqno <= upto` — the
    /// pinned-snapshot variant of [`Block::get`]. Versions of one user
    /// key are adjacent (key asc, seqno desc) and the sstable builder
    /// never splits a key across blocks, so the walk stays local.
    #[must_use]
    pub fn get_visible(&self, key: &[u8], upto: u64) -> Option<&Entry> {
        let idx = self.entries.partition_point(|e| e.key.as_ref() < key);
        self.entries[idx..]
            .iter()
            .take_while(|e| e.key.as_ref() == key)
            .find(|e| e.seqno <= upto)
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) computed bytewise.
#[must_use]
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::key_from_u64;

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

    #[test]
    fn crc32_known_vector() {
        // "123456789" has the well-known CRC-32 of 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn build_and_decode_roundtrip() {
        let entries = sample_entries(100);
        let mut builder = BlockBuilder::new();
        for e in &entries {
            builder.add(e);
        }
        assert_eq!(builder.len(), 100);
        assert!(!builder.is_empty());
        assert_eq!(builder.first_key().unwrap(), &key_from_u64(0));
        assert_eq!(builder.last_key().unwrap(), &key_from_u64(99));
        let encoded = builder.finish();
        assert!(builder.is_empty(), "finish resets the builder");

        let block = Block::decode(&encoded).unwrap();
        assert_eq!(block.entries(), entries.as_slice());
        assert_eq!(block.get(&key_from_u64(13)).unwrap().seqno, 113);
        assert!(block.get(b"missing!").is_none());
    }

    #[test]
    fn decode_detects_corruption() {
        let mut builder = BlockBuilder::new();
        for e in sample_entries(10) {
            builder.add(&e);
        }
        let encoded = builder.finish();
        let mut tampered = encoded.to_vec();
        tampered[3] ^= 0xFF;
        assert!(matches!(
            Block::decode(&tampered),
            Err(Error::Corruption { .. })
        ));
        assert!(Block::decode(&encoded[..4]).is_err());
        assert!(Block::decode(&[]).is_err());
    }

    #[test]
    fn empty_block_roundtrips() {
        let mut builder = BlockBuilder::new();
        let encoded = builder.finish();
        let block = Block::decode(&encoded).unwrap();
        assert!(block.is_empty());
        assert_eq!(block.len(), 0);
    }
}
