//! CRUD operations emitted by the workload generator.

/// The kind of a CRUD operation, mirroring YCSB's core operation mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OperationKind {
    /// Insert a brand-new key.
    Insert,
    /// Update (overwrite) an existing key.
    Update,
    /// Point read of an existing key.
    Read,
    /// Delete an existing key (stored as a tombstone update in LSM terms).
    Delete,
    /// Short range scan starting at an existing key.
    Scan,
}

impl OperationKind {
    /// Returns `true` if this operation writes to the memtable (and hence
    /// eventually to sstables). In the paper's simulator, reads and scans
    /// are ignored when constructing sstables; deletes are handled as
    /// tombstone-flag updates.
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(
            self,
            OperationKind::Insert | OperationKind::Update | OperationKind::Delete
        )
    }
}

impl std::fmt::Display for OperationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            OperationKind::Insert => "insert",
            OperationKind::Update => "update",
            OperationKind::Read => "read",
            OperationKind::Delete => "delete",
            OperationKind::Scan => "scan",
        };
        f.write_str(name)
    }
}

/// One operation of a YCSB-style workload: a kind plus the key it targets.
///
/// Keys are dense integers (`0..record_count + inserts so far`), matching
/// how YCSB numbers records before hashing them into string keys; the
/// compaction theory only cares about key identity, so the integer form is
/// used directly throughout the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Operation {
    /// What the operation does.
    pub kind: OperationKind,
    /// The key the operation targets (the *start* key for a scan).
    pub key: u64,
    /// For [`OperationKind::Scan`]: how many consecutive keys the scan
    /// covers, starting at [`Operation::key`] (YCSB's
    /// `maxscanlength`-bounded per-operation length). `0` for every
    /// other kind.
    pub scan_len: u32,
}

impl Operation {
    /// Convenience constructor for non-scan operations (scan length 0).
    #[must_use]
    pub fn new(kind: OperationKind, key: u64) -> Self {
        Self {
            kind,
            key,
            scan_len: 0,
        }
    }

    /// A range scan over `[start, start + len)` (`len` clamped to ≥ 1).
    #[must_use]
    pub fn scan(start: u64, len: u32) -> Self {
        Self {
            kind: OperationKind::Scan,
            key: start,
            scan_len: len.max(1),
        }
    }

    /// The half-open key range a scan covers (saturating at the top of
    /// the key space). Meaningless for non-scan operations.
    #[must_use]
    pub fn scan_range(&self) -> std::ops::Range<u64> {
        self.key..self.key.saturating_add(u64::from(self.scan_len.max(1)))
    }
}

impl std::fmt::Display for Operation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.kind == OperationKind::Scan {
            write!(f, "{}({},+{})", self.kind, self.key, self.scan_len)
        } else {
            write!(f, "{}({})", self.kind, self.key)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_classification() {
        assert!(OperationKind::Insert.is_write());
        assert!(OperationKind::Update.is_write());
        assert!(OperationKind::Delete.is_write());
        assert!(!OperationKind::Read.is_write());
        assert!(!OperationKind::Scan.is_write());
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Operation::new(OperationKind::Update, 7).to_string(),
            "update(7)"
        );
        assert_eq!(Operation::scan(7, 25).to_string(), "scan(7,+25)");
        assert_eq!(OperationKind::Scan.to_string(), "scan");
    }

    #[test]
    fn scan_constructor_and_range() {
        let op = Operation::scan(10, 5);
        assert_eq!(op.scan_range(), 10..15);
        assert_eq!(Operation::scan(3, 0).scan_len, 1, "length clamps to 1");
        assert_eq!(
            Operation::scan(u64::MAX, 10).scan_range(),
            u64::MAX..u64::MAX
        );
        assert_eq!(Operation::new(OperationKind::Read, 9).scan_len, 0);
    }
}
