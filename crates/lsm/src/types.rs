//! Core value types shared by every module of the engine.

use bytes::Bytes;

/// A user key. Keys are arbitrary byte strings ordered lexicographically;
/// the helper [`key_from_u64`] produces big-endian encoded integer keys
/// whose byte order matches numeric order, which is what the workload
/// generator and the compaction theory use.
pub type Key = Bytes;

/// A user value (opaque bytes).
pub type Value = Bytes;

/// Monotonically increasing sequence number assigned to every write.
///
/// Newer writes have larger sequence numbers; during compaction the entry
/// with the largest sequence number for a key wins.
pub type SeqNo = u64;

/// Encodes a `u64` key as 8 big-endian bytes so lexicographic order equals
/// numeric order.
#[must_use]
pub fn key_from_u64(key: u64) -> Key {
    Bytes::copy_from_slice(&key.to_be_bytes())
}

/// Decodes a key produced by [`key_from_u64`]. Returns `None` if the key
/// is not exactly 8 bytes.
#[must_use]
pub fn key_to_u64(key: &[u8]) -> Option<u64> {
    let arr: [u8; 8] = key.try_into().ok()?;
    Some(u64::from_be_bytes(arr))
}

/// Whether an entry stores a live value or a deletion tombstone.
///
/// Deletes in LSM stores are writes: a tombstone is appended and the key
/// is physically removed only when a merge that leaves no older table
/// out (a major compaction, Section 5.1 of the paper), or tombstone GC,
/// observes the tombstone as the newest version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueKind {
    /// A live key/value pair.
    Put,
    /// A deletion tombstone.
    Tombstone,
    /// A range tombstone: deletes every key in `[start, end)` older than
    /// its sequence number. The record's key holds the start bound and
    /// its value holds the exclusive end bound. Range deletes travel
    /// through the WAL and memtable like point writes but are stored in
    /// a dedicated sstable section, never in data blocks.
    RangeDelete,
}

impl ValueKind {
    /// Single-byte wire encoding.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            ValueKind::Put => 0,
            ValueKind::Tombstone => 1,
            ValueKind::RangeDelete => 2,
        }
    }

    /// Decodes the wire byte. Returns `None` for unknown tags.
    #[must_use]
    pub fn from_u8(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(ValueKind::Put),
            1 => Some(ValueKind::Tombstone),
            2 => Some(ValueKind::RangeDelete),
            _ => None,
        }
    }
}

/// A range tombstone: suppresses every version of every key in
/// `[start, end)` whose sequence number is **below** `seqno`.
///
/// One range delete costs O(1) records regardless of how many keys it
/// covers: the WAL logs a single [`ValueKind::RangeDelete`] record, the
/// memtable keeps it in a side list, and sstables persist it in a
/// small resident section (never in data blocks), so readers check
/// coverage with zero block I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeTombstone {
    /// Inclusive start of the deleted interval.
    pub start: Key,
    /// Exclusive end of the deleted interval.
    pub end: Key,
    /// Sequence number of the range delete; versions written earlier
    /// (smaller seqno) inside the interval are deleted.
    pub seqno: SeqNo,
}

impl RangeTombstone {
    /// Creates a range tombstone over `[start, end)`.
    #[must_use]
    pub fn new(start: Key, end: Key, seqno: SeqNo) -> Self {
        Self { start, end, seqno }
    }

    /// Whether `key` lies inside the deleted interval.
    #[must_use]
    pub fn covers(&self, key: &[u8]) -> bool {
        key >= self.start.as_ref() && key < self.end.as_ref()
    }

    /// Whether a version of `key` written at `seqno` is deleted by this
    /// range tombstone (covered and strictly older).
    #[must_use]
    pub fn shadows(&self, key: &[u8], seqno: SeqNo) -> bool {
        seqno < self.seqno && self.covers(key)
    }

    /// Approximate in-memory / on-disk footprint in bytes.
    #[must_use]
    pub fn encoded_size(&self) -> usize {
        self.start.len() + self.end.len() + 8 + 8
    }
}

/// Conversion into a [`Key`], the single keyed entry point for
/// [`Lsm`](crate::Lsm), [`Snapshot`](crate::Snapshot) and
/// [`WriteBatch`](crate::WriteBatch) operations: byte-ish types pass
/// through and `u64` keys are big-endian encoded (via
/// [`key_from_u64`]) so lexicographic order matches numeric order.
pub trait IntoKey {
    /// Converts `self` into a key.
    fn into_key(self) -> Key;
}

impl IntoKey for Key {
    fn into_key(self) -> Key {
        self
    }
}

impl IntoKey for &Key {
    fn into_key(self) -> Key {
        self.clone()
    }
}

impl IntoKey for Vec<u8> {
    fn into_key(self) -> Key {
        Bytes::from(self)
    }
}

impl IntoKey for &[u8] {
    fn into_key(self) -> Key {
        Bytes::copy_from_slice(self)
    }
}

impl<const N: usize> IntoKey for &[u8; N] {
    fn into_key(self) -> Key {
        Bytes::copy_from_slice(self)
    }
}

impl IntoKey for &str {
    fn into_key(self) -> Key {
        Bytes::copy_from_slice(self.as_bytes())
    }
}

impl IntoKey for String {
    fn into_key(self) -> Key {
        Bytes::from(self.into_bytes())
    }
}

impl IntoKey for u64 {
    fn into_key(self) -> Key {
        key_from_u64(self)
    }
}

/// An internal key: the user key plus the metadata that orders versions.
///
/// Internal keys sort by user key ascending, then by sequence number
/// *descending*, so that a forward scan visits the newest version of each
/// user key first.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InternalKey {
    /// The user key.
    pub user_key: Key,
    /// The sequence number of the write that produced this version.
    pub seqno: SeqNo,
    /// Whether the version is a put or a tombstone.
    pub kind: ValueKind,
}

impl InternalKey {
    /// Creates an internal key.
    #[must_use]
    pub fn new(user_key: Key, seqno: SeqNo, kind: ValueKind) -> Self {
        Self {
            user_key,
            seqno,
            kind,
        }
    }
}

impl Ord for InternalKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.user_key
            .cmp(&other.user_key)
            .then_with(|| other.seqno.cmp(&self.seqno))
            .then_with(|| self.kind.cmp(&other.kind))
    }
}

impl PartialOrd for InternalKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A full entry: internal key plus value payload.
///
/// This is the unit stored in memtables, written to sstables and fed
/// through merging iterators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The user key.
    pub key: Key,
    /// The value payload; empty for tombstones.
    pub value: Value,
    /// Sequence number of the write.
    pub seqno: SeqNo,
    /// Put or tombstone.
    pub kind: ValueKind,
}

impl Entry {
    /// Creates a live (put) entry.
    #[must_use]
    pub fn put(key: Key, value: Value, seqno: SeqNo) -> Self {
        Self {
            key,
            value,
            seqno,
            kind: ValueKind::Put,
        }
    }

    /// Creates a tombstone entry for `key`.
    #[must_use]
    pub fn tombstone(key: Key, seqno: SeqNo) -> Self {
        Self {
            key,
            value: Bytes::new(),
            seqno,
            kind: ValueKind::Tombstone,
        }
    }

    /// Returns `true` if this entry is a deletion tombstone.
    #[must_use]
    pub fn is_tombstone(&self) -> bool {
        self.kind == ValueKind::Tombstone
    }

    /// Approximate in-memory / on-disk footprint of the entry in bytes
    /// (key + value + fixed per-entry metadata). Used for size-based
    /// memtable thresholds and for disk-I/O accounting.
    #[must_use]
    pub fn encoded_size(&self) -> usize {
        self.key.len() + self.value.len() + 8 + 1 + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_key_roundtrip_preserves_order() {
        let a = key_from_u64(5);
        let b = key_from_u64(1_000_000);
        assert!(a < b, "byte order must match numeric order");
        assert_eq!(key_to_u64(&a), Some(5));
        assert_eq!(key_to_u64(&b), Some(1_000_000));
        assert_eq!(key_to_u64(b"short"), None);
    }

    #[test]
    fn value_kind_wire_roundtrip() {
        for kind in [ValueKind::Put, ValueKind::Tombstone, ValueKind::RangeDelete] {
            assert_eq!(ValueKind::from_u8(kind.as_u8()), Some(kind));
        }
        assert_eq!(ValueKind::from_u8(7), None);
    }

    #[test]
    fn range_tombstone_coverage_is_half_open_and_seqno_strict() {
        let rd = RangeTombstone::new(key_from_u64(10), key_from_u64(20), 100);
        assert!(rd.covers(&key_from_u64(10)), "start is inclusive");
        assert!(rd.covers(&key_from_u64(19)));
        assert!(!rd.covers(&key_from_u64(20)), "end is exclusive");
        assert!(!rd.covers(&key_from_u64(9)));
        assert!(rd.shadows(&key_from_u64(15), 99), "older versions die");
        assert!(!rd.shadows(&key_from_u64(15), 100), "same seqno survives");
        assert!(
            !rd.shadows(&key_from_u64(15), 101),
            "newer versions survive"
        );
        assert!(!rd.shadows(&key_from_u64(25), 1), "outside the interval");
    }

    #[test]
    fn into_key_accepts_every_keyed_shape() {
        let canonical = key_from_u64(7);
        assert_eq!(7u64.into_key(), canonical);
        assert_eq!(canonical.clone().into_key(), canonical);
        assert_eq!((&canonical).into_key(), canonical);
        assert_eq!(canonical.to_vec().into_key(), canonical);
        assert_eq!(canonical.as_ref().into_key(), canonical);
        assert_eq!(b"ab".into_key(), Bytes::from_static(b"ab"));
        assert_eq!("ab".into_key(), Bytes::from_static(b"ab"));
        assert_eq!(String::from("ab").into_key(), Bytes::from_static(b"ab"));
    }

    #[test]
    fn internal_keys_order_newest_first_within_user_key() {
        let old = InternalKey::new(key_from_u64(1), 5, ValueKind::Put);
        let new = InternalKey::new(key_from_u64(1), 9, ValueKind::Put);
        let other = InternalKey::new(key_from_u64(2), 1, ValueKind::Put);
        assert!(new < old, "higher seqno sorts first");
        assert!(old < other, "user key dominates");
    }

    #[test]
    fn entry_constructors() {
        let e = Entry::put(key_from_u64(3), Bytes::from_static(b"v"), 10);
        assert!(!e.is_tombstone());
        assert_eq!(e.seqno, 10);
        let t = Entry::tombstone(key_from_u64(3), 11);
        assert!(t.is_tombstone());
        assert!(t.value.is_empty());
        assert!(t.encoded_size() >= 8 + 17);
    }
}
