//! Write-ahead log.
//!
//! Every write is appended to the WAL before it is applied to the
//! memtable, so an engine restart can rebuild the memtable that had not
//! yet been flushed to an sstable. A segment is the 8-byte magic
//! `LSMWAL02` (it lands with the first append, so an empty segment is an
//! empty blob) followed by length-prefixed, CRC-protected *frames*; a
//! frame holds one record for a plain put/delete or every record of a
//! [`WriteBatch`](crate::WriteBatch). A frame is recovered only in full,
//! so a batch whose frame was torn mid-write replays all-or-nothing —
//! the crash-atomicity contract batched writes rely on.
//!
//! **Append contract.** A frame is persisted by one
//! [`Storage::append_blob`] call carrying that frame alone (plus the
//! magic on a segment's first append), so an acknowledged write costs its
//! own bytes, not its segment's; it is acked once that call returns. If
//! the call fails, any prefix of the frame may have landed — and a frame
//! appended *after* a torn one would be unreachable on replay (the length
//! chain reads it as the torn frame's payload: bit rot of an acked
//! write). So a failed append **poisons** the [`Wal`]: every later append
//! fails until the segment is rotated or the store reopened.
//! Recovery keeps the rule from the other side: it never appends to a
//! segment it replayed, but re-persists what it salvaged as one frame
//! into a fresh segment.
//!
//! Replay distinguishes two failure taxa ([`SegmentReplay`]):
//!
//! * **torn tail** — the segment ends mid-frame (fewer bytes than the
//!   frame's length prefix promises, or a dangling header) or mid-magic.
//!   This is the normal crash shape under prefix-persisting storage: the
//!   tail bytes are dropped, everything before them replays, and the
//!   loss is only of writes that were never acked.
//! * **bit rot** — a *byte-complete* frame fails its checksum or decode.
//!   A crash cannot produce this shape (a tear leaves a prefix), so the
//!   frame is quarantined, later frames are salvaged by following the
//!   length chain, and the loss of **acked** writes is surfaced in the
//!   counts instead of being silently absorbed. (If the rot corrupted a
//!   length prefix itself the chain is lost and the remainder reads as a
//!   torn tail — the report's truncated-byte count still exposes it.) A
//!   segment that does not start with the magic is rot of the whole
//!   segment: nothing in it is parsed as frames, and it counts as one
//!   quarantined frame.

use bytes::{Buf, BufMut, Bytes};

use crate::crc::crc32;
use crate::storage::Storage;
use crate::types::{Key, SeqNo, Value, ValueKind};
use crate::Error;

/// Magic prefix of every WAL segment.
const WAL_MAGIC: &[u8; 8] = b"LSMWAL02";

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The user key being written.
    pub key: Key,
    /// The value (empty for tombstones).
    pub value: Value,
    /// Sequence number assigned to the write.
    pub seqno: SeqNo,
    /// Put or tombstone.
    pub kind: ValueKind,
}

/// The writer of one append-only WAL segment (a single blob).
///
/// The engine uses one segment per memtable generation: the segment is
/// retired (its blob deleted) after the memtable it protects has been
/// flushed into an sstable. The `Wal` holds no copy of
/// its segment — only a scratch buffer for the frame in flight and the
/// length already acknowledged — and refuses every append after a failed
/// one (see the module docs for the poison rule).
#[derive(Debug)]
pub struct Wal {
    segment_name: String,
    /// Reused encode buffer: the frame being appended, nothing more.
    frame: Vec<u8>,
    /// Bytes of the segment acknowledged so far (magic included).
    acked_len: u64,
    poisoned: bool,
}

/// Blob-name prefix shared by every WAL segment.
const WAL_PREFIX: &str = "wal-";

impl Wal {
    /// Creates an empty WAL that will persist into blob `segment_name`.
    #[must_use]
    pub fn new(segment_name: impl Into<String>) -> Self {
        Self {
            segment_name: segment_name.into(),
            frame: Vec::new(),
            acked_len: 0,
            poisoned: false,
        }
    }

    /// Blob name of the segment protecting memtable generation
    /// `generation`. Zero-padded so lexicographic blob order equals
    /// generation order.
    #[must_use]
    pub fn generation_blob_name(generation: u64) -> String {
        format!("{WAL_PREFIX}{generation:020}")
    }

    /// Parses a generation number back out of a segment blob name.
    /// Returns `None` for any other blob.
    #[must_use]
    pub fn parse_generation(blob_name: &str) -> Option<u64> {
        blob_name.strip_prefix(WAL_PREFIX)?.parse().ok()
    }

    /// Every live WAL segment in `storage`, oldest first (generations
    /// ascending). Reopen must replay them in exactly this order so
    /// newer writes to the same key win.
    #[must_use]
    pub fn live_segments(storage: &dyn Storage) -> Vec<String> {
        let mut generations: Vec<(u64, String)> = storage
            .list_blobs()
            .into_iter()
            .filter_map(|name| Some((Self::parse_generation(&name)?, name)))
            .collect();
        generations.sort_unstable();
        generations.into_iter().map(|(_, name)| name).collect()
    }

    /// The blob name this WAL persists to.
    #[must_use]
    pub fn segment_name(&self) -> &str {
        &self.segment_name
    }

    /// Bytes of the segment acknowledged so far: the blob's length,
    /// short of a torn tail left by a failed append.
    #[must_use]
    pub fn segment_len(&self) -> u64 {
        self.acked_len
    }

    /// Appends `record` to the segment as a one-record frame
    /// ([`Wal::append_batch`]).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn append(&mut self, storage: &dyn Storage, record: &WalRecord) -> Result<(), Error> {
        self.append_batch(storage, std::slice::from_ref(record))
    }

    /// Appends every record in `records` as a **single frame**, with one
    /// [`Storage::append_blob`] of that frame. Because a frame is the
    /// unit of CRC protection, replay recovers either all of the records
    /// or (after a torn write) none of them — the crash-atomic contract
    /// behind [`Lsm::write_batch`](crate::Lsm::write_batch). An empty
    /// slice is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates storage failures; after one, this and every later
    /// append to this segment fails (the poison rule).
    pub fn append_batch(
        &mut self,
        storage: &dyn Storage,
        records: &[WalRecord],
    ) -> Result<(), Error> {
        if records.is_empty() {
            return Ok(());
        }
        if self.poisoned {
            return Err(Error::Io(std::io::Error::other(format!(
                "WAL segment `{}` is poisoned by a failed append",
                self.segment_name
            ))));
        }
        self.frame.clear();
        if self.acked_len == 0 {
            self.frame.put_slice(WAL_MAGIC);
        }
        // Length and CRC are back-filled once the payload is encoded.
        let header = self.frame.len();
        self.frame.put_slice(&[0; 8]);
        self.frame.put_u32_le(records.len() as u32);
        for record in records {
            self.frame.put_u32_le(record.key.len() as u32);
            self.frame.put_slice(&record.key);
            self.frame.put_u32_le(record.value.len() as u32);
            self.frame.put_slice(&record.value);
            self.frame.put_u64_le(record.seqno);
            self.frame.put_u8(record.kind.as_u8());
        }
        let (head, payload) = self.frame[header..].split_at_mut(8);
        head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        head[4..].copy_from_slice(&crc32(payload).to_le_bytes());

        if let Err(e) = storage.append_blob(&self.segment_name, &self.frame) {
            self.poisoned = true;
            return Err(e);
        }
        self.acked_len += self.frame.len() as u64;
        Ok(())
    }

    /// Replays a WAL segment from `storage`, classifying every byte as
    /// replayed, truncated (torn tail) or quarantined (bit rot) — see
    /// the module docs for the taxonomy. A missing segment replays as
    /// empty and clean. A frame is recovered only in full; a torn or
    /// rotten batch contributes no records at all.
    ///
    /// # Errors
    ///
    /// Propagates storage failures other than "not found".
    pub fn replay_segment(
        storage: &dyn Storage,
        segment_name: &str,
    ) -> Result<SegmentReplay, Error> {
        let mut replay = SegmentReplay {
            segment: segment_name.to_owned(),
            ..SegmentReplay::default()
        };
        let data: Bytes = match storage.read_blob(segment_name) {
            Ok(data) => data,
            Err(Error::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => return Ok(replay),
            Err(e) => return Err(e),
        };
        let Some(mut cursor) = data.strip_prefix(WAL_MAGIC) else {
            if WAL_MAGIC.starts_with(&data) {
                // The header itself tore (or the segment is empty): no
                // frame ever landed, so nothing acked is lost.
                replay.bytes_truncated = data.len() as u64;
            } else {
                replay.frames_quarantined = 1;
            }
            return Ok(replay);
        };
        loop {
            if cursor.remaining() < 8 {
                // A dangling header (or nothing) past the last frame:
                // torn tail, the normal crash shape.
                replay.bytes_truncated += cursor.remaining() as u64;
                break;
            }
            let len = cursor.get_u32_le() as usize;
            let stored_crc = cursor.get_u32_le();
            if cursor.remaining() < len {
                // Torn tail: the frame's bytes never finished landing.
                replay.bytes_truncated += 8 + cursor.remaining() as u64;
                break;
            }
            let payload = &cursor[..len];
            cursor.advance(len);
            let decoded = if crc32(payload) != stored_crc {
                // Byte-complete frame with a bad checksum: a tear cannot
                // produce this (tears leave prefixes), so this is bit
                // rot of an *acked* frame. Quarantine it and keep
                // following the length chain — later frames are intact.
                None
            } else {
                decode_frame(payload)
            };
            match decoded {
                Some(frame) => {
                    replay.frames_replayed += 1;
                    replay.records.extend(frame);
                }
                None => replay.frames_quarantined += 1,
            }
        }
        Ok(replay)
    }
}

/// The classified outcome of replaying one WAL segment
/// ([`Wal::replay_segment`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentReplay {
    /// The segment blob name.
    pub segment: String,
    /// Every recovered record, in append order.
    pub records: Vec<WalRecord>,
    /// Intact frames replayed.
    pub frames_replayed: u64,
    /// Byte-complete frames dropped for checksum/decode failure — bit
    /// rot of acked writes. Nonzero here means history was lost that a
    /// clean crash could not have lost.
    pub frames_quarantined: u64,
    /// Bytes dropped off the segment's tail because the final frame was
    /// incomplete (the normal crash shape; only unacked writes).
    pub bytes_truncated: u64,
}

/// Aggregate recovery outcome across every segment replayed at open,
/// surfaced through [`LsmStats`](crate::LsmStats) and the METRICS wire
/// frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL segments scanned at open.
    pub segments_scanned: u64,
    /// Intact frames replayed across all segments.
    pub frames_replayed: u64,
    /// Records recovered into the memtable.
    pub records_replayed: u64,
    /// Torn-tail bytes truncated (normal crash shape, unacked writes).
    pub bytes_truncated: u64,
    /// Byte-complete frames quarantined for checksum/decode failure
    /// (bit rot — acked history was lost).
    pub frames_quarantined: u64,
    /// Segments preserved as `quarantined-*` blobs because they carried
    /// rotten frames.
    pub segments_quarantined: u64,
}

impl RecoveryReport {
    /// Folds one segment's replay into the aggregate.
    pub fn absorb_segment(&mut self, segment: &SegmentReplay) {
        self.segments_scanned += 1;
        self.frames_replayed += segment.frames_replayed;
        self.records_replayed += segment.records.len() as u64;
        self.bytes_truncated += segment.bytes_truncated;
        self.frames_quarantined += segment.frames_quarantined;
        if segment.frames_quarantined > 0 {
            self.segments_quarantined += 1;
        }
    }

    /// `true` when acked history was shed (quarantined frames exist) —
    /// the condition `strict_recovery` refuses to open under.
    #[must_use]
    pub fn lost_acked_history(&self) -> bool {
        self.frames_quarantined > 0
    }
}

/// Decodes the records of one frame payload, or `None` if the
/// payload is malformed (in which case the whole frame must be
/// discarded).
fn decode_frame(payload: &[u8]) -> Option<Vec<WalRecord>> {
    let mut p = payload;
    if p.remaining() < 4 {
        return None;
    }
    let count = p.get_u32_le() as usize;
    // Cap the pre-allocation by what the payload could physically hold
    // (17 bytes is the smallest encodable record): the count is
    // frame-internal data and must not size an allocation unchecked.
    let mut records = Vec::with_capacity(count.min(p.remaining() / 17 + 1));
    for _ in 0..count {
        records.push(decode_record(&mut p)?);
    }
    Some(records)
}

/// Decodes one record (key, value, seqno, kind) off the cursor.
fn decode_record(p: &mut &[u8]) -> Option<WalRecord> {
    if p.remaining() < 4 {
        return None;
    }
    let klen = p.get_u32_le() as usize;
    if p.remaining() < klen + 4 {
        return None;
    }
    let key = Bytes::copy_from_slice(&p[..klen]);
    p.advance(klen);
    let vlen = p.get_u32_le() as usize;
    if p.remaining() < vlen + 9 {
        return None;
    }
    let value = Bytes::copy_from_slice(&p[..vlen]);
    p.advance(vlen);
    let seqno = p.get_u64_le();
    let kind = ValueKind::from_u8(p.get_u8())?;
    Some(WalRecord {
        key,
        value,
        seqno,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemoryStorage;
    use crate::test_support::CrashPointStorage;
    use crate::types::key_from_u64;

    fn replayed(storage: &dyn Storage, segment: &str) -> Vec<WalRecord> {
        Wal::replay_segment(storage, segment).unwrap().records
    }

    fn record(i: u64) -> WalRecord {
        WalRecord {
            key: key_from_u64(i),
            value: Bytes::from(format!("v{i}")),
            seqno: i,
            kind: if i.is_multiple_of(5) {
                ValueKind::Tombstone
            } else {
                ValueKind::Put
            },
        }
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let storage = MemoryStorage::new();
        let mut wal = Wal::new("wal-0");
        let records: Vec<WalRecord> = (0..50).map(record).collect();
        for r in &records {
            wal.append(&storage, r).unwrap();
        }
        let replayed = replayed(&storage, "wal-0");
        assert_eq!(replayed, records);
    }

    /// One put frame's bytes on storage, pinned: the framing and the
    /// CRC-32 stay readable by every segment already written.
    #[test]
    fn one_put_frame_has_pinned_bytes() {
        let storage = MemoryStorage::new();
        let mut wal = Wal::new("wal-golden");
        wal.append(&storage, &record(7)).unwrap();
        let hex: String = storage
            .read_blob("wal-golden")
            .unwrap()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "4c534d57414c30321f00000037b7ca080100000008000000000000000000000702000000763707000000000000\
             0000"
        );
    }

    #[test]
    fn appends_write_each_frame_once() {
        let storage = MemoryStorage::new();
        let mut wal = Wal::new("wal-linear");
        for i in 0..1_000 {
            wal.append(&storage, &record(i)).unwrap();
        }
        // Linear, not quadratic: every byte of the segment was written
        // exactly once.
        let len = storage.blob_len("wal-linear").unwrap();
        assert_eq!(storage.bytes_written(), len);
        assert_eq!(wal.segment_len(), len);
        let replayed = replayed(&storage, "wal-linear");
        assert_eq!(replayed, (0..1_000).map(record).collect::<Vec<_>>());
    }

    #[test]
    fn failed_append_poisons_the_segment() {
        let storage = CrashPointStorage::new();
        let mut wal = Wal::new("wal-poison");
        wal.append(&storage, &record(0)).unwrap();
        wal.append(&storage, &record(1)).unwrap();
        // Die 11 bytes into the third frame, then bring storage back: a
        // frame appended after the torn one would be unreachable.
        storage.crash_after(11);
        assert!(wal.append(&storage, &record(2)).is_err());
        storage.crash_after(u64::MAX);
        assert!(wal.append(&storage, &record(3)).is_err(), "still poisoned");
        assert_eq!(
            storage.blob_len("wal-poison").unwrap(),
            wal.segment_len() + 11
        );

        let replay = Wal::replay_segment(&storage.surviving(), "wal-poison").unwrap();
        assert_eq!(replay.records, vec![record(0), record(1)]);
        assert_eq!(replay.frames_quarantined, 0, "a torn tail, not bit rot");
        assert_eq!(replay.bytes_truncated, 11);
    }

    #[test]
    fn missing_segment_replays_empty() {
        let storage = MemoryStorage::new();
        assert!(replayed(&storage, "nope").is_empty());
    }

    #[test]
    fn replay_stops_at_corrupt_tail() {
        let storage = MemoryStorage::new();
        let mut wal = Wal::new("wal-2");
        for i in 0..10 {
            wal.append(&storage, &record(i)).unwrap();
        }
        // Corrupt the last few bytes of the segment.
        let mut blob = storage.read_blob("wal-2").unwrap().to_vec();
        let len = blob.len();
        blob[len - 3..].iter_mut().for_each(|b| *b ^= 0xFF);
        storage.write_blob("wal-2", &blob).unwrap();
        let replayed = replayed(&storage, "wal-2");
        assert_eq!(replayed.len(), 9, "only the torn final record is dropped");
        assert_eq!(replayed[..], (0..9).map(record).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn batch_frames_replay_in_order_with_singles() {
        let storage = MemoryStorage::new();
        let mut wal = Wal::new("wal-b0");
        wal.append(&storage, &record(0)).unwrap();
        let batch: Vec<WalRecord> = (1..5).map(record).collect();
        wal.append_batch(&storage, &batch).unwrap();
        wal.append(&storage, &record(5)).unwrap();
        let replayed = replayed(&storage, "wal-b0");
        assert_eq!(replayed, (0..6).map(record).collect::<Vec<_>>());
    }

    #[test]
    fn torn_batch_replays_all_or_nothing() {
        let storage = MemoryStorage::new();
        let mut wal = Wal::new("wal-b1");
        wal.append(&storage, &record(0)).unwrap();
        let intact_len = storage.read_blob("wal-b1").unwrap().len();
        let batch: Vec<WalRecord> = (1..20).map(record).collect();
        wal.append_batch(&storage, &batch).unwrap();
        // Tear the segment in the middle of the batch frame: several of
        // its records are still byte-complete, but none may replay.
        let blob = storage.read_blob("wal-b1").unwrap();
        let torn = intact_len + (blob.len() - intact_len) / 2;
        storage.write_blob("wal-b1", &blob[..torn]).unwrap();
        let replayed = replayed(&storage, "wal-b1");
        assert_eq!(replayed, vec![record(0)], "torn batch contributes nothing");
    }

    /// The header taxonomy, one row per shape a segment's first bytes
    /// can take: (blob, records, bytes truncated, frames quarantined).
    #[test]
    fn segment_header_is_classified_not_parsed() {
        let storage = MemoryStorage::new();
        let mut wal = Wal::new("wal-good");
        wal.append(&storage, &record(1)).unwrap();
        let good = storage.read_blob("wal-good").unwrap();
        // The same frame bytes without the magic in front: byte-complete
        // and CRC-valid, so only the header check keeps them unparsed.
        let headerless = &good[WAL_MAGIC.len()..];
        let mut wrong_magic = good.to_vec();
        wrong_magic[..8].copy_from_slice(b"LSMWAL01");

        let cases: [(&[u8], usize, u64, u64); 6] = [
            (&good, 1, 0, 0),
            (b"", 0, 0, 0),
            (&WAL_MAGIC[..1], 0, 1, 0),
            (&WAL_MAGIC[..7], 0, 7, 0),
            (headerless, 0, 0, 1),
            (&wrong_magic, 0, 0, 1),
        ];
        for (blob, records, truncated, quarantined) in cases {
            storage.write_blob("wal-case", blob).unwrap();
            let replay = Wal::replay_segment(&storage, "wal-case").unwrap();
            assert_eq!(replay.records.len(), records, "{blob:?}");
            assert_eq!(replay.bytes_truncated, truncated, "{blob:?}");
            assert_eq!(replay.frames_quarantined, quarantined, "{blob:?}");
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let storage = MemoryStorage::new();
        let mut wal = Wal::new("wal-b2");
        wal.append_batch(&storage, &[]).unwrap();
        assert_eq!(wal.segment_len(), 0);
        assert!(replayed(&storage, "wal-b2").is_empty());
    }

    #[test]
    fn generation_names_roundtrip_and_sort() {
        let names: Vec<String> = [0, 1, 9, 10, 11, 100, u64::MAX]
            .iter()
            .map(|&g| Wal::generation_blob_name(g))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(sorted, names, "lexicographic order = generation order");
        for (i, g) in [0, 1, 9, 10, 11, 100, u64::MAX].iter().enumerate() {
            assert_eq!(Wal::parse_generation(&names[i]), Some(*g));
        }
        assert_eq!(Wal::parse_generation("wal-current"), None);
        assert_eq!(Wal::parse_generation("sst-0000000001"), None);
    }

    #[test]
    fn live_segments_lists_generations_in_order_and_nothing_else() {
        let storage = MemoryStorage::new();
        // Write out of order, plus non-WAL noise that must be ignored.
        for name in [
            &Wal::generation_blob_name(7),
            "sst-0000000003",
            &Wal::generation_blob_name(2),
            "wal-current",
            "MANIFEST",
            &Wal::generation_blob_name(10),
        ] {
            storage.write_blob(name, b"x").unwrap();
        }
        assert_eq!(
            Wal::live_segments(&storage),
            vec![
                Wal::generation_blob_name(2),
                Wal::generation_blob_name(7),
                Wal::generation_blob_name(10),
            ]
        );
    }

    #[test]
    fn mid_segment_bit_rot_quarantines_the_frame_and_salvages_the_rest() {
        let storage = MemoryStorage::new();
        let mut wal = Wal::new("wal-rot");
        for i in 0..10 {
            wal.append(&storage, &record(i)).unwrap();
        }
        // Flip one payload byte inside an *early* frame: frames after it
        // are intact and must replay.
        let mut blob = storage.read_blob("wal-rot").unwrap().to_vec();
        blob[WAL_MAGIC.len() + 9] ^= 0xFF;
        storage.write_blob("wal-rot", &blob).unwrap();

        let replay = Wal::replay_segment(&storage, "wal-rot").unwrap();
        assert_eq!(replay.frames_quarantined, 1, "the rotten frame is counted");
        assert_eq!(replay.frames_replayed, 9);
        assert_eq!(replay.bytes_truncated, 0);
        assert_eq!(
            replay.records,
            (1..10).map(record).collect::<Vec<_>>(),
            "every frame after the rotten one is salvaged"
        );
    }

    #[test]
    fn torn_tail_and_bit_rot_are_distinguished() {
        let storage = MemoryStorage::new();
        let mut wal = Wal::new("wal-taxa");
        for i in 0..5 {
            wal.append(&storage, &record(i)).unwrap();
        }
        let blob = storage.read_blob("wal-taxa").unwrap();

        // Torn tail: drop the last 5 bytes.
        storage
            .write_blob("wal-taxa", &blob[..blob.len() - 5])
            .unwrap();
        let torn = Wal::replay_segment(&storage, "wal-taxa").unwrap();
        assert_eq!(torn.frames_quarantined, 0, "a tear is not bit rot");
        assert!(torn.bytes_truncated > 0);
        assert_eq!(torn.records.len(), 4);

        // Bit rot: same segment intact, last frame's payload flipped.
        let mut rotten = blob.to_vec();
        let len = rotten.len();
        rotten[len - 3] ^= 0xFF;
        storage.write_blob("wal-taxa", &rotten).unwrap();
        let rot = Wal::replay_segment(&storage, "wal-taxa").unwrap();
        assert_eq!(rot.frames_quarantined, 1, "byte-complete bad CRC is rot");
        assert_eq!(rot.bytes_truncated, 0);
        assert_eq!(rot.records.len(), 4);
    }

    #[test]
    fn clean_segment_reports_clean() {
        let storage = MemoryStorage::new();
        let mut wal = Wal::new("wal-clean");
        for i in 0..3 {
            wal.append(&storage, &record(i)).unwrap();
        }
        let replay = Wal::replay_segment(&storage, "wal-clean").unwrap();
        assert_eq!((replay.frames_quarantined, replay.bytes_truncated), (0, 0));
        assert_eq!(replay.frames_replayed, 3);
        // Missing segments are clean too.
        let absent = Wal::replay_segment(&storage, "absent").unwrap();
        assert_eq!(
            absent,
            SegmentReplay {
                segment: "absent".into(),
                ..Default::default()
            }
        );
    }

    #[test]
    fn recovery_report_aggregates_segments() {
        let mut report = RecoveryReport::default();
        report.absorb_segment(&SegmentReplay {
            segment: "a".into(),
            records: vec![record(1)],
            frames_replayed: 1,
            frames_quarantined: 0,
            bytes_truncated: 7,
        });
        report.absorb_segment(&SegmentReplay {
            segment: "b".into(),
            records: vec![record(2), record(3)],
            frames_replayed: 2,
            frames_quarantined: 3,
            bytes_truncated: 0,
        });
        assert_eq!(report.segments_scanned, 2);
        assert_eq!(report.frames_replayed, 3);
        assert_eq!(report.records_replayed, 3);
        assert_eq!(report.bytes_truncated, 7);
        assert_eq!(report.frames_quarantined, 3);
        assert_eq!(report.segments_quarantined, 1);
        assert!(report.lost_acked_history());
        assert!(!RecoveryReport::default().lost_acked_history());
    }

    #[test]
    fn replay_handles_truncated_segment() {
        let storage = MemoryStorage::new();
        let mut wal = Wal::new("wal-3");
        for i in 0..5 {
            wal.append(&storage, &record(i)).unwrap();
        }
        let blob = storage.read_blob("wal-3").unwrap();
        storage
            .write_blob("wal-3", &blob[..blob.len() - 5])
            .unwrap();
        let replayed = replayed(&storage, "wal-3");
        assert_eq!(replayed.len(), 4);
    }
}
