//! The manifest: the authoritative record of which sstables are live.
//!
//! Flushes add tables; compaction merges remove their inputs and add the
//! merged output. Persistence is **checkpoint-based**: every
//! [`Manifest::persist`] writes a fresh versioned `MANIFEST-<N>` blob and
//! then swaps a tiny CRC'd `CURRENT` pointer onto it with
//! [`Storage::write_blob_atomic`], so no single torn write can lose the
//! table set:
//!
//! ```text
//!   MANIFEST-00000000000000000007   full checkpoint (magic + tables + CRC)
//!   CURRENT                         "LSMCURR1" + 7 + CRC  (atomic swap)
//! ```
//!
//! * A crash **before** the `CURRENT` swap leaves `CURRENT` pointing at
//!   the previous checkpoint, which still exists (stale checkpoints are
//!   swept only after the swap lands).
//! * A torn or missing `CURRENT` falls back to the newest *decodable*
//!   checkpoint whose referenced tables all exist, then repairs the
//!   pointer.
//! * A valid `CURRENT` pointing at a corrupt checkpoint is a hard
//!   [`Error::Corruption`]: silently falling back further could resurrect
//!   a table set whose WAL segments were already retired.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::crc::{crc32, verified};
use crate::reader::SstableReader;
use crate::storage::Storage;
use crate::Error;

/// Blob name of the checkpoint pointer.
pub const CURRENT_BLOB: &str = "CURRENT";

/// Magic prefix of a checkpoint blob.
const MANIFEST_MAGIC: &[u8; 8] = b"LSMMAN03";

/// Encoded length of one [`TableMeta`] record: six `u64`s.
const TABLE_RECORD_LEN: usize = 48;

/// Magic prefix of the `CURRENT` pointer blob.
const CURRENT_MAGIC: &[u8; 8] = b"LSMCURR1";

/// Metadata the manifest tracks per live sstable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// The table id (also determines its blob name).
    pub table_id: u64,
    /// Number of entries in the table.
    pub entry_count: u64,
    /// Encoded size in bytes.
    pub encoded_len: u64,
    /// How many of the entries are tombstones — the signal tombstone GC
    /// schedules rewrites by.
    pub tombstone_count: u64,
    /// How many range tombstones the table's range-del section carries.
    /// Non-zero flags the table for the read path's range-delete
    /// consultation.
    pub range_tombstone_count: u64,
    /// Largest sequence number stored in the table (point entries and
    /// range tombstones). Live tables hold pairwise-disjoint seqno
    /// ranges, so the read path orders probes newest-first by this
    /// value instead of trusting manifest position (which compaction
    /// and GC rewrites reshuffle).
    pub max_seqno: u64,
}

/// A logical manifest edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestEdit {
    /// A new table became live (memtable flush or compaction output).
    AddTable(TableMeta),
    /// A table was removed (it was an input to a compaction merge).
    RemoveTable {
        /// Id of the removed table.
        table_id: u64,
    },
}

/// The set of live sstables plus the id allocator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    tables: Vec<TableMeta>,
    next_table_id: u64,
    next_seqno: u64,
    /// Sequence of the newest persisted checkpoint (0 = never
    /// persisted).
    checkpoint_seq: u64,
}

impl Manifest {
    /// Creates an empty manifest.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The live tables, oldest first (flush/creation order).
    #[must_use]
    pub fn tables(&self) -> &[TableMeta] {
        &self.tables
    }

    /// Number of live tables.
    #[must_use]
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Looks up a live table by id.
    #[must_use]
    pub fn table(&self, table_id: u64) -> Option<&TableMeta> {
        self.tables.iter().find(|t| t.table_id == table_id)
    }

    /// Sequence number of the newest persisted checkpoint (what
    /// `CURRENT` points at), 0 before the first checkpoint persist.
    #[must_use]
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// Allocates a fresh table id.
    pub fn allocate_table_id(&mut self) -> u64 {
        let id = self.next_table_id;
        self.next_table_id += 1;
        id
    }

    /// Allocates a fresh sequence number.
    pub fn allocate_seqno(&mut self) -> u64 {
        let seq = self.next_seqno;
        self.next_seqno += 1;
        seq
    }

    /// Records that `seqno` has been used, bumping the allocator past
    /// it. WAL recovery calls this with the largest replayed sequence
    /// number: replayed records were sequenced by a previous process
    /// whose allocations the persisted manifest may not reflect, and a
    /// fresh allocation colliding with a replayed seqno would corrupt
    /// version ordering.
    pub fn observe_seqno(&mut self, seqno: u64) {
        self.next_seqno = self.next_seqno.max(seqno + 1);
    }

    /// The canonical blob name of checkpoint `seq`. Zero-padded so the
    /// lexicographic order of checkpoint names is their numeric order.
    #[must_use]
    pub fn checkpoint_blob_name(seq: u64) -> String {
        format!("MANIFEST-{seq:020}")
    }

    /// Parses a checkpoint sequence back out of a blob name; `None` for
    /// any other blob.
    #[must_use]
    pub fn checkpoint_seq_from_blob_name(name: &str) -> Option<u64> {
        name.strip_prefix("MANIFEST-")?.parse().ok()
    }

    /// Applies an edit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTable`] when removing a table that is not
    /// live, and [`Error::InvalidCompaction`] when adding a duplicate id.
    pub fn apply(&mut self, edit: ManifestEdit) -> Result<(), Error> {
        match edit {
            ManifestEdit::AddTable(meta) => {
                if self.table(meta.table_id).is_some() {
                    return Err(Error::invalid_compaction(format!(
                        "table id {} is already live",
                        meta.table_id
                    )));
                }
                self.next_table_id = self.next_table_id.max(meta.table_id + 1);
                self.tables.push(meta);
                Ok(())
            }
            ManifestEdit::RemoveTable { table_id } => {
                let before = self.tables.len();
                self.tables.retain(|t| t.table_id != table_id);
                if self.tables.len() == before {
                    return Err(Error::UnknownTable { table_id });
                }
                Ok(())
            }
        }
    }

    /// Serializes the manifest as a checkpoint blob.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(MANIFEST_MAGIC);
        buf.put_u64_le(self.next_table_id);
        buf.put_u64_le(self.next_seqno);
        buf.put_u32_le(self.tables.len() as u32);
        for t in &self.tables {
            buf.put_u64_le(t.table_id);
            buf.put_u64_le(t.entry_count);
            buf.put_u64_le(t.encoded_len);
            buf.put_u64_le(t.tombstone_count);
            buf.put_u64_le(t.range_tombstone_count);
            buf.put_u64_le(t.max_seqno);
        }
        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        buf.freeze()
    }

    /// Deserializes a manifest produced by [`Manifest::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] on a missing magic and on checksum
    /// or framing failures.
    pub fn decode(data: &[u8]) -> Result<Self, Error> {
        if !data.starts_with(MANIFEST_MAGIC) {
            return Err(Error::corruption("bad manifest magic"));
        }
        if data.len() < MANIFEST_MAGIC.len() + 8 + 8 + 4 + 4 {
            return Err(Error::corruption("manifest too short"));
        }
        let payload =
            verified(data).ok_or_else(|| Error::corruption("manifest checksum mismatch"))?;
        let mut cursor = &payload[MANIFEST_MAGIC.len()..];
        let next_table_id = cursor.get_u64_le();
        let next_seqno = cursor.get_u64_le();
        let count = cursor.get_u32_le() as usize;
        if count.checked_mul(TABLE_RECORD_LEN) != Some(cursor.remaining()) {
            return Err(Error::corruption("manifest table records truncated"));
        }
        let tables = (0..count)
            .map(|_| TableMeta {
                table_id: cursor.get_u64_le(),
                entry_count: cursor.get_u64_le(),
                encoded_len: cursor.get_u64_le(),
                tombstone_count: cursor.get_u64_le(),
                range_tombstone_count: cursor.get_u64_le(),
                max_seqno: cursor.get_u64_le(),
            })
            .collect();
        Ok(Self {
            tables,
            next_table_id,
            next_seqno,
            checkpoint_seq: 0,
        })
    }

    /// Encodes the `CURRENT` pointer payload for checkpoint `seq`.
    fn encode_current(seq: u64) -> Bytes {
        let mut buf = BytesMut::with_capacity(20);
        buf.put_slice(CURRENT_MAGIC);
        buf.put_u64_le(seq);
        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        buf.freeze()
    }

    /// Decodes a `CURRENT` pointer payload back to a checkpoint seq.
    fn decode_current(data: &[u8]) -> Result<u64, Error> {
        if data.len() != 20 || !data.starts_with(CURRENT_MAGIC) {
            return Err(Error::corruption("CURRENT pointer malformed"));
        }
        let payload =
            verified(data).ok_or_else(|| Error::corruption("CURRENT pointer checksum mismatch"))?;
        Ok(u64::from_le_bytes(payload[8..16].try_into().expect("8")))
    }

    /// Deletes every checkpoint blob other than `keep` (best-effort —
    /// stale checkpoints are garbage once `CURRENT` has moved past
    /// them, and any survivor is re-swept on the next persist or load).
    fn sweep_stale_checkpoints(storage: &dyn Storage, keep: u64) {
        for name in storage.list_blobs() {
            if let Some(seq) = Self::checkpoint_seq_from_blob_name(&name) {
                if seq != keep {
                    let _ = storage.delete_blob(&name);
                }
            }
        }
    }

    /// Persists the manifest: writes checkpoint `N+1`, atomically swaps
    /// `CURRENT` onto it, then sweeps stale checkpoints. A crash at any
    /// byte of this sequence leaves a recoverable store: either
    /// `CURRENT` still names the previous checkpoint (which the sweep
    /// had not touched yet) or the swap completed and the new table set
    /// is authoritative.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn persist(&mut self, storage: &dyn Storage) -> Result<(), Error> {
        let seq = self.checkpoint_seq + 1;
        storage.write_blob(&Self::checkpoint_blob_name(seq), &self.encode())?;
        storage.write_blob_atomic(CURRENT_BLOB, &Self::encode_current(seq))?;
        self.checkpoint_seq = seq;
        Self::sweep_stale_checkpoints(storage, seq);
        Ok(())
    }

    /// Loads the manifest from `storage`, or returns an empty manifest
    /// if nothing has been persisted yet.
    ///
    /// Recovery order:
    ///
    /// 1. a valid `CURRENT` pointer names the checkpoint to load — and a
    ///    corrupt or missing checkpoint behind a *valid* pointer is a
    ///    hard error, because acked state newer than any older
    ///    checkpoint may have no WAL coverage left;
    /// 2. a torn/missing `CURRENT` falls back to the newest decodable
    ///    checkpoint whose referenced tables all exist, then repairs the
    ///    pointer;
    /// 3. an empty store — but only when no `sst-*` blobs exist; live
    ///    tables with no checkpoint mean the manifest was lost, and
    ///    silently serving an empty store would present acked data as
    ///    deleted.
    ///
    /// # Errors
    ///
    /// Propagates storage failures and corruption.
    pub fn load(storage: &dyn Storage) -> Result<Self, Error> {
        let blobs = storage.list_blobs();
        if storage.contains_blob(CURRENT_BLOB) {
            if let Ok(seq) = Self::decode_current(&storage.read_blob(CURRENT_BLOB)?) {
                let name = Self::checkpoint_blob_name(seq);
                if !storage.contains_blob(&name) {
                    return Err(Error::corruption(format!(
                        "CURRENT points at checkpoint {seq} but `{name}` is missing"
                    )));
                }
                let mut manifest = Self::decode(&storage.read_blob(&name)?).map_err(|e| {
                    Error::corruption(format!("checkpoint {seq} named by CURRENT: {e}"))
                })?;
                manifest.checkpoint_seq = seq;
                Self::sweep_stale_checkpoints(storage, seq);
                return Ok(manifest);
            }
            // Torn CURRENT: fall through to the checkpoint scan.
        }

        let mut seqs: Vec<u64> = blobs
            .iter()
            .filter_map(|name| Self::checkpoint_seq_from_blob_name(name))
            .collect();
        seqs.sort_unstable_by(|a, b| b.cmp(a));
        for &seq in &seqs {
            let Ok(data) = storage.read_blob(&Self::checkpoint_blob_name(seq)) else {
                continue;
            };
            let Ok(mut manifest) = Self::decode(&data) else {
                continue;
            };
            // A checkpoint written but never pointed at can reference
            // tables whose publish never completed; only a checkpoint
            // whose whole table set survives is a safe recovery point.
            if manifest
                .tables
                .iter()
                .all(|t| storage.contains_blob(&SstableReader::blob_name(t.table_id)))
            {
                manifest.checkpoint_seq = seq;
                storage.write_blob_atomic(CURRENT_BLOB, &Self::encode_current(seq))?;
                Self::sweep_stale_checkpoints(storage, seq);
                return Ok(manifest);
            }
        }
        if !seqs.is_empty() {
            return Err(Error::corruption(
                "manifest checkpoints exist but none is decodable with its tables intact",
            ));
        }

        let orphans: Vec<&String> = blobs
            .iter()
            .filter(|name| SstableReader::id_from_blob_name(name).is_some())
            .collect();
        if !orphans.is_empty() {
            return Err(Error::corruption(format!(
                "no manifest checkpoint but {} live sstable blob(s) exist (e.g. `{}`) — \
                 refusing to serve an empty store over orphaned tables",
                orphans.len(),
                orphans[0]
            )));
        }
        Ok(Self::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemoryStorage;

    fn meta(id: u64) -> TableMeta {
        TableMeta {
            table_id: id,
            entry_count: 10 * id,
            encoded_len: 100 * id,
            tombstone_count: id % 3,
            range_tombstone_count: id % 2,
            max_seqno: 1000 + id,
        }
    }

    /// Writes a placeholder sstable blob so checkpoint validation sees
    /// the referenced table as present.
    fn fake_table_blob(storage: &dyn Storage, id: u64) {
        storage
            .write_blob(&SstableReader::blob_name(id), b"placeholder")
            .unwrap();
    }

    #[test]
    fn apply_add_and_remove() {
        let mut m = Manifest::new();
        m.apply(ManifestEdit::AddTable(meta(1))).unwrap();
        m.apply(ManifestEdit::AddTable(meta(2))).unwrap();
        assert_eq!(m.table_count(), 2);
        assert_eq!(m.table(2).unwrap().entry_count, 20);
        assert!(m.apply(ManifestEdit::AddTable(meta(1))).is_err());
        m.apply(ManifestEdit::RemoveTable { table_id: 1 }).unwrap();
        assert!(m.table(1).is_none());
        assert!(matches!(
            m.apply(ManifestEdit::RemoveTable { table_id: 99 }),
            Err(Error::UnknownTable { table_id: 99 })
        ));
    }

    #[test]
    fn id_and_seqno_allocation_are_monotone() {
        let mut m = Manifest::new();
        let a = m.allocate_table_id();
        let b = m.allocate_table_id();
        assert!(b > a);
        let s1 = m.allocate_seqno();
        let s2 = m.allocate_seqno();
        assert!(s2 > s1);
        assert_eq!(m.allocate_seqno(), s2 + 1);
        // Adding a table with a large explicit id bumps the allocator.
        m.apply(ManifestEdit::AddTable(meta(100))).unwrap();
        assert!(m.allocate_table_id() > 100);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut m = Manifest::new();
        for id in 1..=5 {
            m.apply(ManifestEdit::AddTable(meta(id))).unwrap();
        }
        m.allocate_seqno();
        let encoded = m.encode();
        let decoded = Manifest::decode(&encoded).unwrap();
        assert_eq!(m, decoded);
        assert_eq!(decoded.table(4).unwrap().tombstone_count, 1);

        let mut tampered = encoded.to_vec();
        tampered[10] ^= 0x01;
        assert!(Manifest::decode(&tampered).is_err());
        assert!(Manifest::decode(&[1, 2, 3]).is_err());
    }

    /// Only the `LSMMAN03` layout decodes: the two retired layouts
    /// (`LSMMAN02` with four u64s per table, and the headerless one with
    /// three) are CRC-valid here, so it is the magic check that refuses
    /// them.
    #[test]
    fn retired_manifest_layouts_are_refused() {
        let with_crc = |mut buf: BytesMut| {
            let crc = crc32(&buf);
            buf.put_u32_le(crc);
            buf
        };
        let mut headerless = BytesMut::new();
        headerless.put_u64_le(9); // next_table_id
        headerless.put_u64_le(50); // next_seqno
        headerless.put_u32_le(1);
        for field in [3u64, 30, 300] {
            headerless.put_u64_le(field);
        }
        let mut v2 = BytesMut::new();
        v2.put_slice(b"LSMMAN02");
        v2.put_slice(&headerless);
        v2.put_u64_le(4); // tombstone_count
        for blob in [with_crc(headerless), with_crc(v2)] {
            let err = Manifest::decode(&blob).unwrap_err();
            assert!(err.to_string().contains("bad manifest magic"), "{err}");
        }
    }

    /// A `CURRENT` payload's bytes, pinned: its CRC-32 stays readable by
    /// every store already written.
    #[test]
    fn current_pointer_has_pinned_bytes() {
        let hex: String = Manifest::encode_current(42)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, "4c534d43555252312a00000000000000602f1064");
    }

    #[test]
    fn persist_writes_checkpoint_and_swaps_current() {
        let storage = MemoryStorage::new();
        let mut m = Manifest::new();
        m.apply(ManifestEdit::AddTable(meta(3))).unwrap();
        fake_table_blob(&storage, 3);
        m.persist(&storage).unwrap();
        assert_eq!(m.checkpoint_seq(), 1);
        assert!(storage.contains_blob(&Manifest::checkpoint_blob_name(1)));
        assert!(storage.contains_blob(CURRENT_BLOB));

        m.apply(ManifestEdit::AddTable(meta(5))).unwrap();
        fake_table_blob(&storage, 5);
        m.persist(&storage).unwrap();
        assert_eq!(m.checkpoint_seq(), 2);
        assert!(
            !storage.contains_blob(&Manifest::checkpoint_blob_name(1)),
            "stale checkpoint swept after the pointer moved"
        );
        let reloaded = Manifest::load(&storage).unwrap();
        assert_eq!(reloaded, m);
    }

    #[test]
    fn persist_and_load() {
        let storage = MemoryStorage::new();
        assert_eq!(Manifest::load(&storage).unwrap(), Manifest::new());
        let mut m = Manifest::new();
        m.apply(ManifestEdit::AddTable(meta(3))).unwrap();
        fake_table_blob(&storage, 3);
        m.persist(&storage).unwrap();
        assert_eq!(Manifest::load(&storage).unwrap(), m);
    }

    #[test]
    fn torn_current_falls_back_to_newest_valid_checkpoint() {
        let storage = MemoryStorage::new();
        let mut m = Manifest::new();
        m.apply(ManifestEdit::AddTable(meta(1))).unwrap();
        fake_table_blob(&storage, 1);
        m.persist(&storage).unwrap();

        // Tear the CURRENT pointer (torn atomic-swap prefix).
        let current = storage.read_blob(CURRENT_BLOB).unwrap();
        storage.write_blob(CURRENT_BLOB, &current[..7]).unwrap();
        let recovered = Manifest::load(&storage).unwrap();
        assert_eq!(recovered.tables(), m.tables());
        assert_eq!(recovered.checkpoint_seq(), 1, "pointer repaired");
        assert_eq!(
            Manifest::decode_current(&storage.read_blob(CURRENT_BLOB).unwrap()).unwrap(),
            1
        );
    }

    #[test]
    fn fallback_skips_checkpoint_with_missing_tables() {
        let storage = MemoryStorage::new();
        let mut m = Manifest::new();
        m.apply(ManifestEdit::AddTable(meta(1))).unwrap();
        fake_table_blob(&storage, 1);
        m.persist(&storage).unwrap();

        // Simulate a crash between "checkpoint 2 written" and "CURRENT
        // swapped": checkpoint 2 references a table whose publish never
        // completed, and CURRENT is gone entirely.
        let mut ahead = m.clone();
        ahead.apply(ManifestEdit::AddTable(meta(7))).unwrap();
        storage
            .write_blob(&Manifest::checkpoint_blob_name(2), &ahead.encode())
            .unwrap();
        storage.delete_blob(CURRENT_BLOB).unwrap();

        let recovered = Manifest::load(&storage).unwrap();
        assert_eq!(
            recovered.tables(),
            m.tables(),
            "fell back past checkpoint 2"
        );
        assert!(
            !storage.contains_blob(&Manifest::checkpoint_blob_name(2)),
            "unreachable checkpoint swept"
        );
    }

    #[test]
    fn valid_current_with_corrupt_checkpoint_is_a_hard_error() {
        let storage = MemoryStorage::new();
        let mut m = Manifest::new();
        m.apply(ManifestEdit::AddTable(meta(1))).unwrap();
        fake_table_blob(&storage, 1);
        m.persist(&storage).unwrap();

        let name = Manifest::checkpoint_blob_name(1);
        let mut data = storage.read_blob(&name).unwrap().to_vec();
        data[12] ^= 0xFF;
        storage.write_blob(&name, &data).unwrap();
        let err = Manifest::load(&storage).unwrap_err();
        assert!(matches!(err, Error::Corruption { .. }), "{err}");

        storage.delete_blob(&name).unwrap();
        let err = Manifest::load(&storage).unwrap_err();
        assert!(matches!(err, Error::Corruption { .. }), "{err}");
    }

    #[test]
    fn orphaned_tables_without_any_manifest_refuse_to_open() {
        let storage = MemoryStorage::new();
        fake_table_blob(&storage, 12);
        // A single-blob `MANIFEST` is not a checkpoint: it is never
        // read, so the tables beside it are orphans all the same.
        storage
            .write_blob("MANIFEST", &Manifest::new().encode())
            .unwrap();
        let err = Manifest::load(&storage).unwrap_err();
        let text = err.to_string();
        assert!(matches!(err, Error::Corruption { .. }));
        assert!(
            text.contains("orphaned"),
            "diagnostic names the cause: {text}"
        );
        assert!(text.contains("sst-"), "diagnostic names a blob: {text}");
    }

    #[test]
    fn checkpoint_blob_names_sort_numerically() {
        let names: Vec<String> = [1u64, 9, 10, 11, 100]
            .iter()
            .map(|&s| Manifest::checkpoint_blob_name(s))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(sorted, names);
        assert_eq!(Manifest::checkpoint_seq_from_blob_name(&names[2]), Some(10));
        assert_eq!(Manifest::checkpoint_seq_from_blob_name("MANIFEST"), None);
        assert_eq!(Manifest::checkpoint_seq_from_blob_name("sst-1.sst"), None);
    }
}
