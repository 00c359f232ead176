//! Bulk-expiry bench: one `delete_range` record versus a key-at-a-time
//! tombstone storm.
//!
//! The canonical operational use of a range tombstone is TTL-style
//! expiry — "drop everything before this cutoff". Done with point
//! deletes, expiring `E` keys writes `E` tombstone records, bloats
//! every layer they pass through and leaves compaction `E` extra
//! entries to merge; done with `delete_range`, it writes **one** record
//! regardless of `E`. This harness loads the same store both ways,
//! expires the same prefix, then flushes, compacts and GCs to a settled
//! state and samples what the two shapes actually cost: records
//! written, expiry wall-time, post-maintenance disk footprint (which
//! must *shrink* below the pre-expiry footprint — the deleted interval
//! really is reclaimed, not just hidden), and the survivor-scan rate.

use std::sync::Arc;
use std::time::Instant;

use lsm_engine::{CompactionPolicy, Lsm, LsmOptions, MemoryStorage, Storage};

/// Configuration of the bulk-expiry comparison.
#[derive(Debug, Clone)]
pub struct BulkExpiryConfig {
    /// Keys loaded before expiry (`0..keys`, big-endian u64 encoding).
    pub keys: u64,
    /// Keys expired: the prefix `0..expired`.
    pub expired: u64,
    /// Value payload size in bytes.
    pub value_bytes: usize,
    /// Memtable capacity per generation, in distinct keys.
    pub memtable_capacity: usize,
    /// Live-table count that triggers auto-compaction.
    pub trigger_tables: usize,
}

impl BulkExpiryConfig {
    /// Full-size run: a 100k-key store expiring a 60k-key prefix.
    #[must_use]
    pub fn default_run() -> Self {
        Self {
            keys: 100_000,
            expired: 60_000,
            value_bytes: 64,
            memtable_capacity: 2_000,
            trigger_tables: 4,
        }
    }

    /// CI-sized variant: still many flush generations and a compaction
    /// per mode, in well under a second.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            keys: 10_000,
            expired: 6_000,
            value_bytes: 32,
            memtable_capacity: 500,
            trigger_tables: 4,
        }
    }

    fn options(&self) -> LsmOptions {
        LsmOptions::default()
            .memtable_capacity(self.memtable_capacity)
            .compaction_policy(CompactionPolicy::Threshold {
                live_tables: self.trigger_tables,
            })
            .tombstone_gc(true)
            .gc_min_tombstones(4)
            .wal(false)
    }

    /// Runs both expiry shapes and returns one row per mode
    /// (`point-deletes`, then `range-delete`).
    ///
    /// # Panics
    ///
    /// Panics when the engine breaks the expiry contract: a write or
    /// scan fails, an expired key survives, a survivor is lost, or the
    /// settled post-expiry footprint fails to shrink below the
    /// pre-expiry footprint.
    #[must_use]
    pub fn run(&self) -> Vec<BulkExpiryRow> {
        vec![self.run_mode(false), self.run_mode(true)]
    }

    fn run_mode(&self, range_delete: bool) -> BulkExpiryRow {
        let storage = Arc::new(MemoryStorage::new());
        let value = vec![0x3c_u8; self.value_bytes];
        let db = Lsm::open(storage.clone(), self.options()).expect("open");
        for key in 0..self.keys {
            db.put(key, value.clone()).expect("load put");
        }
        db.flush().expect("post-load flush");
        while db.auto_compact().expect("post-load compact").is_some() {}
        let pre_expiry_blob_bytes = blob_bytes(storage.as_ref());

        let started = Instant::now();
        let expiry_records = if range_delete {
            db.delete_range(0u64, self.expired).expect("delete_range");
            1
        } else {
            for key in 0..self.expired {
                db.delete(key).expect("point delete");
            }
            self.expired
        };
        let expiry_us = started.elapsed().as_secs_f64() * 1e6;

        // Settle: flush the tombstones through, merge below the
        // trigger, and let GC reclaim whatever provably shadows
        // nothing, so the footprint sample measures the format, not
        // scheduler luck.
        db.flush().expect("post-expiry flush");
        while db.auto_compact().expect("post-expiry compact").is_some() {}
        while db.gc_tombstones().expect("post-expiry gc") > 0 {}
        let post_compact_blob_bytes = blob_bytes(storage.as_ref());

        // Correctness ride-along, and the survivor-scan rate sample.
        let scan_started = Instant::now();
        let survivors = db.scan_all().expect("survivor scan");
        let scan_us = scan_started.elapsed().as_secs_f64() * 1e6;
        assert_eq!(
            survivors.len() as u64,
            self.keys - self.expired,
            "expiry ({}) left the wrong survivor count",
            mode_label(range_delete)
        );
        assert_eq!(db.get(0).expect("expired get"), None);
        assert_eq!(
            db.get(self.expired).expect("survivor get").as_deref(),
            Some(value.as_slice())
        );
        assert!(
            post_compact_blob_bytes < pre_expiry_blob_bytes,
            "expiring {} of {} keys ({}) must shrink the settled store: \
             {pre_expiry_blob_bytes} -> {post_compact_blob_bytes} bytes",
            self.expired,
            self.keys,
            mode_label(range_delete)
        );

        let stats = db.stats();
        BulkExpiryRow {
            label: mode_label(range_delete).to_owned(),
            keys: self.keys,
            expired: self.expired,
            expiry_records,
            expiry_us,
            pre_expiry_blob_bytes,
            post_compact_blob_bytes,
            reclaimed_fraction: 1.0 - post_compact_blob_bytes as f64 / pre_expiry_blob_bytes as f64,
            compaction_entry_cost: stats.compaction_entry_cost(),
            scan_keys_per_sec: survivors.len() as f64 / (scan_us / 1e6),
        }
    }
}

fn mode_label(range_delete: bool) -> &'static str {
    if range_delete {
        "range-delete"
    } else {
        "point-deletes"
    }
}

fn blob_bytes(storage: &MemoryStorage) -> u64 {
    storage
        .list_blobs()
        .iter()
        .filter_map(|name| storage.blob_len(name).ok())
        .sum()
}

/// One expiry mode's sample.
#[derive(Debug, Clone, PartialEq)]
pub struct BulkExpiryRow {
    /// Expiry shape (`point-deletes` / `range-delete`) — the bench-gate
    /// row key.
    pub label: String,
    /// Keys loaded before expiry.
    pub keys: u64,
    /// Keys expired.
    pub expired: u64,
    /// Records the expiry wrote (`expired` point tombstones vs 1).
    pub expiry_records: u64,
    /// Wall-clock of issuing the expiry, in microseconds.
    pub expiry_us: f64,
    /// Settled disk footprint before the expiry.
    pub pre_expiry_blob_bytes: u64,
    /// Settled disk footprint after expiry + flush + compaction + GC;
    /// the harness asserts it shrank.
    pub post_compact_blob_bytes: u64,
    /// `1 - post/pre` — how much of the store the expiry reclaimed.
    pub reclaimed_fraction: f64,
    /// Compaction entries read + written across the whole run (the
    /// paper's cost currency): the tombstone storm pays here too.
    pub compaction_entry_cost: u64,
    /// Survivor scan rate over the settled store (gated: a range-
    /// tombstone check that degrades scans trips the bench gate).
    pub scan_keys_per_sec: f64,
}
