//! Batched writes.
//!
//! A [`WriteBatch`] groups puts and deletes so the engine can apply them
//! with **one WAL frame and one memtable pass**
//! ([`Lsm::write_batch`](crate::Lsm::write_batch)): the batch is appended
//! to the WAL as a single CRC-protected frame (torn frames replay
//! all-or-nothing, so a crash never surfaces half a batch) and the
//! memtable is flushed at most once, after every operation has been
//! applied. This is the write path the sharded KV service rides — one
//! batch per shard per client round-trip instead of one WAL write per
//! key.

use bytes::Bytes;

use crate::types::{IntoKey, Key, Value, ValueKind};

/// One operation of a [`WriteBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOp {
    /// The user key.
    pub key: Key,
    /// The value (empty for deletes).
    pub value: Value,
    /// Put or tombstone.
    pub kind: ValueKind,
}

/// An ordered group of puts and deletes applied atomically with respect
/// to crash recovery.
///
/// Operations are applied in insertion order, so a put followed by a
/// delete of the same key within one batch leaves the key deleted.
///
/// # Examples
///
/// ```
/// use lsm_engine::{Lsm, LsmOptions, WriteBatch};
///
/// # fn main() -> Result<(), lsm_engine::Error> {
/// let db = Lsm::open_in_memory(LsmOptions::default())?;
/// let mut batch = WriteBatch::new();
/// batch.put(1, b"one".to_vec().into());
/// batch.put(2, b"two".to_vec().into());
/// batch.delete(1);
/// db.write_batch(batch)?;
/// assert_eq!(db.get(1)?, None);
/// assert_eq!(db.get(2)?.as_deref(), Some(b"two".as_slice()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteBatch {
    ops: Vec<BatchOp>,
}

impl WriteBatch {
    /// Creates an empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with capacity for `n` operations.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            ops: Vec::with_capacity(n),
        }
    }

    /// Queues an insert/overwrite of `key`.
    pub fn put(&mut self, key: impl IntoKey, value: Value) -> &mut Self {
        self.ops.push(BatchOp {
            key: key.into_key(),
            value,
            kind: ValueKind::Put,
        });
        self
    }

    /// Queues a delete (tombstone) of `key`.
    pub fn delete(&mut self, key: impl IntoKey) -> &mut Self {
        self.ops.push(BatchOp {
            key: key.into_key(),
            value: Bytes::new(),
            kind: ValueKind::Tombstone,
        });
        self
    }

    /// Number of queued operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if no operations are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The queued operations, in application order.
    #[must_use]
    pub fn ops(&self) -> &[BatchOp] {
        &self.ops
    }

    /// Consumes the batch, returning its operations (used by callers
    /// that re-group a batch, e.g. a shard router splitting one logical
    /// batch into per-shard batches).
    #[must_use]
    pub fn into_ops(self) -> Vec<BatchOp> {
        self.ops
    }

    /// Appends an already-constructed operation (used when re-grouping).
    pub fn push(&mut self, op: BatchOp) -> &mut Self {
        self.ops.push(op);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::key_from_u64;

    #[test]
    fn batch_accumulates_in_order() {
        let mut batch = WriteBatch::with_capacity(3);
        batch.put(1, b"a".to_vec().into()).delete(2);
        batch.put(key_from_u64(3), Bytes::from_static(b"c"));
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        let ops = batch.into_ops();
        assert_eq!(ops[0].kind, ValueKind::Put);
        assert_eq!(ops[1].kind, ValueKind::Tombstone);
        assert!(ops[1].value.is_empty());
        assert_eq!(ops[2].key, key_from_u64(3));
    }

    #[test]
    fn empty_batch() {
        let batch = WriteBatch::new();
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
        assert!(batch.ops().is_empty());
    }
}
