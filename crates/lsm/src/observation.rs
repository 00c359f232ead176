//! Persisted per-table key observations.
//!
//! Policy-driven compaction plans over one
//! [`TableObservation`](compaction_core::TableObservation) per live
//! sstable. Originally those observations were rebuilt by reading every
//! live table in full at plan time — and then the executor read the same
//! tables *again* to merge them, doubling the scan cost of every
//! compaction (the ROADMAP's "planner observation cost" item).
//!
//! This module removes the first scan: whenever a table is created — at
//! memtable flush or as a compaction output — its observed key set (the
//! same [`observed_key`](crate::observed_key) mapping the planner uses)
//! is persisted as a small sidecar blob next to the table. At plan time
//! [`observe_tables`](crate::observe_tables) loads the sidecar instead
//! of the table; only a table whose sidecar is missing (the write is
//! best-effort) or corrupt falls back to a full read.
//!
//! The sidecar always stores the **exact** observed key set, regardless
//! of the configured [`SizeEstimator`](compaction_core::SizeEstimator):
//! every scheduling strategy consumes key sets, and the HLL estimator
//! (the paper's `SO(E)`) derives its sketches from those sets at plan
//! time. A representation tag is encoded so a sketch-only format can be
//! added without breaking existing stores. Sidecars follow their table's
//! lifecycle: written before the manifest references the table, deleted
//! when the table is retired, and swept as orphans on reopen.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::crc::{crc32, verified};
use crate::storage::Storage;
use crate::Error;

/// Representation tag: exact sorted key set.
const REPR_EXACT: u8 = 0;

/// The observed key set of one sstable, persisted alongside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableKeyObservation {
    /// The table this observation describes.
    pub table_id: u64,
    /// Observed keys (see [`observed_key`](crate::observed_key)),
    /// sorted ascending and deduplicated.
    pub keys: Vec<u64>,
}

impl TableKeyObservation {
    /// Builds an observation from keys in any order.
    #[must_use]
    pub fn new(table_id: u64, mut keys: Vec<u64>) -> Self {
        keys.sort_unstable();
        keys.dedup();
        Self { table_id, keys }
    }

    /// The canonical sidecar blob name for a table id.
    #[must_use]
    pub fn blob_name(table_id: u64) -> String {
        format!("obs-{table_id:012}.keys")
    }

    /// Parses a table id back out of a sidecar blob name; `None` for any
    /// other blob.
    #[must_use]
    pub fn id_from_blob_name(name: &str) -> Option<u64> {
        name.strip_prefix("obs-")?
            .strip_suffix(".keys")?
            .parse()
            .ok()
    }

    /// Serializes the observation (tag + count + keys + CRC).
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(1 + 8 + self.keys.len() * 8 + 4);
        buf.put_u8(REPR_EXACT);
        buf.put_u64_le(self.keys.len() as u64);
        for &key in &self.keys {
            buf.put_u64_le(key);
        }
        let crc = crc32(&buf);
        buf.put_u32_le(crc);
        buf.freeze()
    }

    /// Deserializes an observation produced by
    /// [`TableKeyObservation::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corruption`] on checksum, tag or framing
    /// failures.
    pub fn decode(table_id: u64, data: &[u8]) -> Result<Self, Error> {
        if data.len() < 13 {
            return Err(Error::corruption("key observation too short"));
        }
        let mut cursor =
            verified(data).ok_or_else(|| Error::corruption("key observation checksum mismatch"))?;
        let repr = cursor.get_u8();
        if repr != REPR_EXACT {
            return Err(Error::corruption(format!(
                "unknown key observation representation {repr}"
            )));
        }
        // The count is input: it sizes the allocation below only once it
        // has been checked, without overflow, against the bytes present.
        let count = usize::try_from(cursor.get_u64_le())
            .ok()
            .filter(|count| count.checked_mul(8) == Some(cursor.remaining()))
            .ok_or_else(|| Error::corruption("key observation length mismatch"))?;
        let mut keys = Vec::with_capacity(count);
        for _ in 0..count {
            keys.push(cursor.get_u64_le());
        }
        Ok(Self { table_id, keys })
    }

    /// Persists the observation to its canonical sidecar blob.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn persist(&self, storage: &dyn Storage) -> Result<(), Error> {
        storage.write_blob(&Self::blob_name(self.table_id), &self.encode())
    }

    /// Loads the persisted observation for `table_id`, or `Ok(None)` if
    /// no sidecar exists (the caller falls back to reading the table
    /// itself).
    ///
    /// # Errors
    ///
    /// Propagates storage failures and corruption of an existing blob.
    pub fn load(storage: &dyn Storage, table_id: u64) -> Result<Option<Self>, Error> {
        let name = Self::blob_name(table_id);
        if !storage.contains_blob(&name) {
            return Ok(None);
        }
        Ok(Some(Self::decode(table_id, &storage.read_blob(&name)?)?))
    }

    /// Deletes the sidecar blob for `table_id` (idempotent).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn delete(storage: &dyn Storage, table_id: u64) -> Result<(), Error> {
        storage.delete_blob(&Self::blob_name(table_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemoryStorage;

    #[test]
    fn encode_decode_roundtrip() {
        let obs = TableKeyObservation::new(42, vec![9, 1, 5, 5, 3]);
        assert_eq!(obs.keys, vec![1, 3, 5, 9], "sorted and deduplicated");
        let decoded = TableKeyObservation::decode(42, &obs.encode()).unwrap();
        assert_eq!(decoded, obs);

        let empty = TableKeyObservation::new(7, Vec::new());
        let decoded = TableKeyObservation::decode(7, &empty.encode()).unwrap();
        assert!(decoded.keys.is_empty());
    }

    #[test]
    fn decode_rejects_corruption() {
        let obs = TableKeyObservation::new(1, vec![1, 2, 3]);
        let mut tampered = obs.encode().to_vec();
        tampered[3] ^= 0xFF;
        assert!(TableKeyObservation::decode(1, &tampered).is_err());
        assert!(TableKeyObservation::decode(1, &[0, 1]).is_err());
        // Unknown representation tag.
        let mut bad_tag = obs.encode().to_vec();
        bad_tag[0] = 9;
        let len = bad_tag.len();
        let crc = crc32(&bad_tag[..len - 4]);
        bad_tag[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(TableKeyObservation::decode(1, &bad_tag).is_err());
    }

    /// A CRC-valid payload whose count overflows `count * 8` must be
    /// refused before it sizes an allocation (`1 << 61` wraps to 0 bytes
    /// in release builds and panics in debug ones).
    #[test]
    fn decode_rejects_a_count_that_overflows() {
        for count in [1u64 << 61, u64::MAX, 3] {
            let mut forged = BytesMut::new();
            forged.put_u8(REPR_EXACT);
            forged.put_u64_le(count);
            let crc = crc32(&forged);
            forged.put_u32_le(crc);
            let err = TableKeyObservation::decode(1, &forged).unwrap_err();
            assert!(matches!(err, Error::Corruption { .. }), "{count}: {err}");
        }
    }

    #[test]
    fn persist_load_delete_cycle() {
        let storage = MemoryStorage::new();
        assert!(TableKeyObservation::load(&storage, 5).unwrap().is_none());
        let obs = TableKeyObservation::new(5, vec![10, 20]);
        obs.persist(&storage).unwrap();
        assert_eq!(TableKeyObservation::load(&storage, 5).unwrap(), Some(obs));
        TableKeyObservation::delete(&storage, 5).unwrap();
        TableKeyObservation::delete(&storage, 5).unwrap(); // idempotent
        assert!(TableKeyObservation::load(&storage, 5).unwrap().is_none());
    }

    #[test]
    fn blob_names_roundtrip() {
        let name = TableKeyObservation::blob_name(33);
        assert_eq!(TableKeyObservation::id_from_blob_name(&name), Some(33));
        assert_eq!(TableKeyObservation::id_from_blob_name("sst-0001.sst"), None);
        assert_eq!(TableKeyObservation::id_from_blob_name("obs-x.keys"), None);
    }
}
