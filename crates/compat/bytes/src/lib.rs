//! Minimal, API-compatible stand-in for the subset of the `bytes`
//! crate this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the handful of primitives the LSM engine needs: a cheaply
//! clonable immutable byte buffer ([`Bytes`]), a growable builder
//! ([`BytesMut`]) and the little-endian cursor traits ([`Buf`],
//! [`BufMut`]). Semantics match the real crate for every operation
//! exercised here; anything else is intentionally absent.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable, immutable, contiguous slice of memory: a shared
/// buffer plus the range of it this value covers, so [`Bytes::slice`]
/// and `clone` are a refcount bump, never a copy. Equality, ordering,
/// hashing and `Debug` go by the covered content alone.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates `Bytes` from a static slice (copies once; the real crate
    /// borrows, but callers only rely on the value semantics).
    #[must_use]
    pub fn from_static(data: &'static [u8]) -> Self {
        Self::from_arc(data.into())
    }

    /// Copies `data` into a new `Bytes`.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::from_arc(data.into())
    }

    fn from_arc(data: Arc<[u8]>) -> Self {
        let end = data.len();
        Self {
            data,
            start: 0,
            end,
        }
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// A `Bytes` covering `range` of this one, sharing its buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range is inverted or ends past `self.len()`, as
    /// in the real crate.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_add(1).expect("out of range"),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1).expect("out of range"),
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            begin <= end,
            "range start must not be greater than end: {begin:?} <= {end:?}"
        );
        assert!(
            end <= self.len(),
            "range end out of bounds: {end:?} <= {:?}",
            self.len()
        );
        Self {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

/// Hashes exactly as the covered `[u8]` does, which `Borrow<[u8]>`
/// requires of map keys looked up by slice.
impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Self::from_arc(data.into())
    }
}

impl From<String> for Bytes {
    fn from(data: String) -> Self {
        Self::from(data.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(data: &'static [u8]) -> Self {
        Self::from_static(data)
    }
}

impl From<&'static str> for Bytes {
    fn from(data: &'static str) -> Self {
        Self::from_static(data.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(data: BytesMut) -> Self {
        data.freeze()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Self::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with reserved capacity.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.data.extend_from_slice(extend);
    }

    /// Clears the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Converts into an immutable [`Bytes`].
    #[must_use]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Read cursor over a byte source, mirroring `bytes::Buf`.
///
/// Implemented for `&[u8]`: every `get_*` consumes from the front of the
/// slice, advancing it in place.
pub trait Buf {
    /// Bytes remaining to be read.
    fn remaining(&self) -> usize;

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Skips `cnt` bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `cnt` bytes remain.
    fn advance(&mut self, cnt: usize);

    /// Copies `dst.len()` bytes out, advancing.
    ///
    /// # Panics
    ///
    /// Panics if not enough bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut buf = [0u8; 1];
        self.copy_to_slice(&mut buf);
        buf[0]
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut buf = [0u8; 2];
        self.copy_to_slice(&mut buf);
        u16::from_le_bytes(buf)
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut buf = [0u8; 4];
        self.copy_to_slice(&mut buf);
        u32::from_le_bytes(buf)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut buf = [0u8; 8];
        self.copy_to_slice(&mut buf);
        u64::from_le_bytes(buf)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end of slice");
        *self = &self[cnt..];
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "copy_to_slice past end of slice");
        dst.copy_from_slice(&self[..dst.len()]);
        *self = &self[dst.len()..];
    }
}

/// Write cursor, mirroring `bytes::BufMut`. Implemented for [`BytesMut`]
/// and `Vec<u8>`.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip_and_equality() {
        let b = Bytes::from(vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.as_ref(), &[1, 2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from_static(b"xy").as_ref(), b"xy");
        assert_eq!(Bytes::copy_from_slice(&[9]).as_ref(), &[9]);
        assert_eq!(Bytes::from(String::from("hi")).as_ref(), b"hi");
    }

    /// Equal content at different offsets of different buffers is one
    /// value: as `BTreeMap` and `HashMap` keys, by `Ord`, `Hash` and
    /// `Debug`.
    #[test]
    fn slices_compare_hash_and_order_by_content() {
        use std::collections::hash_map::DefaultHasher;
        use std::collections::{BTreeMap, HashMap};

        let a = Bytes::from(b"xxkeyyy".to_vec()).slice(2..5);
        let b = Bytes::from(b"key".to_vec());
        let c = Bytes::from(b"--key".to_vec()).slice(2..);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.cmp(&c), Ordering::Equal);
        assert!(a < Bytes::from_static(b"kez"));
        let hash = |x: &Bytes| {
            let mut h = DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        assert_eq!(hash(&a), hash(&c));

        let mut btree = BTreeMap::new();
        btree.insert(a.clone(), 1);
        assert_eq!(btree.insert(c.clone(), 2), Some(1));
        assert_eq!(btree.get(b"key".as_slice()), Some(&2));
        let mut hash_map = HashMap::new();
        hash_map.insert(a.clone(), 1);
        assert_eq!(hash_map.insert(c, 2), Some(1));
        assert_eq!(hash_map.get(b"key".as_slice()), Some(&2));

        assert_eq!(format!("{a:?}"), "b\"key\"");
    }

    #[test]
    fn slices_share_the_buffer_and_nest() {
        let whole = Bytes::from(b"0123456789".to_vec());
        let mid = whole.slice(2..8);
        assert_eq!(mid.as_ref(), b"234567");
        assert_eq!(mid.as_ptr(), whole[2..].as_ptr(), "a slice is not a copy");
        let inner = mid.slice(1..=3);
        assert_eq!(inner.as_ref(), b"345");
        assert_eq!(inner.len(), 3);
        assert_eq!(inner.to_vec(), b"345".to_vec());
        assert_eq!(mid.slice(..).as_ref(), mid.as_ref());
        assert!(mid.slice(6..).is_empty());
        assert_eq!(whole.slice(..0), Bytes::new());
    }

    #[test]
    #[should_panic(expected = "range end out of bounds")]
    fn slicing_past_the_end_panics() {
        let _ = Bytes::from(b"abcdef".to_vec()).slice(2..4).slice(1..3);
    }

    #[test]
    #[should_panic(expected = "range start must not be greater than end")]
    fn slicing_an_inverted_range_panics() {
        let (start, end) = (3, 2);
        let _ = Bytes::from(b"abcdef".to_vec()).slice(start..end);
    }

    #[test]
    fn buf_cursor_semantics() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u32_le(0xAABB);
        buf.put_u64_le(u64::MAX - 1);
        buf.put_slice(b"tail");
        let frozen = buf.freeze();
        let mut cursor: &[u8] = &frozen;
        assert_eq!(cursor.remaining(), 1 + 4 + 8 + 4);
        assert_eq!(cursor.get_u8(), 7);
        assert_eq!(cursor.get_u32_le(), 0xAABB);
        assert_eq!(cursor.get_u64_le(), u64::MAX - 1);
        assert_eq!(cursor, b"tail");
        cursor.advance(4);
        assert_eq!(cursor.remaining(), 0);
    }
}
