//! Bounded-churn soak: space amplification and recovery work under
//! sustained write/delete/overwrite traffic.
//!
//! The storage-lifecycle work (manifest checkpointing, WAL rotation,
//! tombstone GC) exists so that a store under *churn* — the same keys
//! overwritten and deleted forever — does not grow without bound and
//! does not take longer and longer to reopen. This harness measures
//! exactly that: a fixed working set is overwritten cycle after cycle
//! while scratch keys are created and deleted (manufacturing
//! tombstones), with background maintenance and tombstone GC running.
//! Every few cycles the store is closed, reopened (the recovery path:
//! CURRENT → checkpoint → WAL replay) and its disk footprint and the
//! work that recovery did — WAL segments scanned, records replayed —
//! sampled. The reopen is also timed, as a printed column only.
//!
//! A healthy engine shows **flat** live-blob bytes and **flat**
//! recovery work across samples; a leak in tombstone GC, checkpoint
//! sweeping or WAL retirement shows up as a monotone climb. The harness also
//! verifies correctness as it goes: live keys must read back, deleted
//! scratch keys must stay gone across every reopen.

use std::sync::Arc;
use std::time::Instant;

use lsm_engine::{CompactionPolicy, Lsm, LsmOptions, MemoryStorage, Storage};

/// Configuration of the churn soak.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Churn cycles to run.
    pub cycles: usize,
    /// Close + reopen (and sample a row) every this many cycles.
    pub sample_every: usize,
    /// Permanently-live working set: keys `0..live_keys` are always
    /// present and overwritten round-robin.
    pub live_keys: u64,
    /// Overwrites of working-set keys per cycle.
    pub overwrites_per_cycle: u64,
    /// Scratch keys created *and deleted* per cycle — each one
    /// manufactures a tombstone the GC must eventually reclaim.
    pub churn_keys_per_cycle: u64,
    /// Value payload size in bytes.
    pub value_bytes: usize,
    /// Memtable capacity per generation, in distinct keys.
    pub memtable_capacity: usize,
    /// Live-table count that triggers auto-compaction.
    pub trigger_tables: usize,
    /// Tombstone count per table at which GC considers a rewrite.
    pub gc_min_tombstones: u64,
}

impl ChurnConfig {
    /// The full soak: enough cycles that an unbounded-growth bug is
    /// unmistakable in the sample series.
    #[must_use]
    pub fn default_soak() -> Self {
        Self {
            cycles: 24,
            sample_every: 4,
            live_keys: 2_000,
            overwrites_per_cycle: 2_000,
            churn_keys_per_cycle: 500,
            value_bytes: 64,
            memtable_capacity: 250,
            trigger_tables: 4,
            gc_min_tombstones: 8,
        }
    }

    /// A CI-sized variant that still turns the full lifecycle over
    /// (several flush generations, compactions and GC-eligible
    /// tombstones per sample window) in a couple of seconds.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            cycles: 8,
            sample_every: 2,
            live_keys: 400,
            overwrites_per_cycle: 400,
            churn_keys_per_cycle: 120,
            value_bytes: 32,
            memtable_capacity: 100,
            trigger_tables: 4,
            gc_min_tombstones: 4,
        }
    }

    fn options(&self) -> LsmOptions {
        LsmOptions::default()
            .memtable_capacity(self.memtable_capacity)
            .compaction_policy(CompactionPolicy::Threshold {
                live_tables: self.trigger_tables,
            })
            .background_maintenance(true)
            .tombstone_gc(true)
            .gc_min_tombstones(self.gc_min_tombstones)
    }

    /// Runs the soak and returns one row per sample point.
    ///
    /// # Panics
    ///
    /// Panics when the engine violates the churn contract: an open or
    /// write fails, a live key reads back wrong, or a deleted scratch
    /// key resurrects across a reopen.
    #[must_use]
    pub fn run(&self) -> Vec<ChurnRow> {
        let storage = Arc::new(MemoryStorage::new());
        let value = vec![0x5a_u8; self.value_bytes];
        let mut db = Lsm::open(storage.clone(), self.options()).expect("initial open");
        // Seed the permanent working set.
        for key in 0..self.live_keys {
            db.put(key, value.clone()).expect("seed put");
        }

        let mut rows = Vec::new();
        let mut next_scratch: u64 = self.live_keys;
        let mut overwrite_cursor: u64 = 0;
        let mut ops: u64 = 0;
        // Engine stats reset on reopen; carry the GC totals across.
        let mut tombstones_dropped: u64 = 0;
        let mut gc_rewrites: u64 = 0;
        let mut last_deleted: Vec<u64> = Vec::new();

        for cycle in 1..=self.cycles {
            for _ in 0..self.overwrites_per_cycle {
                db.put(overwrite_cursor % self.live_keys, value.clone())
                    .expect("overwrite put");
                overwrite_cursor += 1;
                ops += 1;
            }
            last_deleted.clear();
            for _ in 0..self.churn_keys_per_cycle {
                let key = next_scratch;
                next_scratch += 1;
                db.put(key, value.clone()).expect("scratch put");
                db.delete(key).expect("scratch delete");
                last_deleted.push(key);
                ops += 2;
            }

            if cycle % self.sample_every != 0 && cycle != self.cycles {
                continue;
            }

            // Drain pending maintenance so the sample sees a settled
            // store: flush everything, then wait for the compaction
            // worker to merge below the trigger and for GC to have
            // reclaimed at least once — otherwise sample-to-sample
            // variance is dominated by where the maintenance threads
            // happened to be, not by the lifecycle the soak measures.
            db.flush().expect("pre-sample flush");
            let settle = Instant::now();
            while (db.stats().tombstones_dropped == 0
                || db.live_tables().len() >= self.trigger_tables)
                && settle.elapsed().as_millis() < GC_SETTLE_MS
            {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let stats = db.stats();
            tombstones_dropped += stats.tombstones_dropped;
            gc_rewrites += stats.gc_rewrites;

            // Leave the same unflushed tail behind every sample (half a
            // memtable, so no freeze), or the reopen below would have
            // nothing to recover and "flat recovery work" would be 0 = 0.
            for _ in 0..self.memtable_capacity / 2 {
                db.put(overwrite_cursor % self.live_keys, value.clone())
                    .expect("tail put");
                overwrite_cursor += 1;
                ops += 1;
            }

            drop(db);
            let reopen_started = Instant::now();
            db = Lsm::open(storage.clone(), self.options()).expect("reopen mid-soak");
            let reopen_ms = reopen_started.elapsed().as_secs_f64() * 1e3;

            // Correctness ride-along: the working set reads back, the
            // freshest deleted scratch keys stay gone.
            for key in [0, self.live_keys / 2, self.live_keys - 1] {
                let got = db.get(key).expect("post-reopen get");
                assert_eq!(
                    got.as_deref(),
                    Some(value.as_slice()),
                    "live key {key} lost under churn (cycle {cycle})"
                );
            }
            for &key in last_deleted.iter().take(8) {
                assert_eq!(
                    db.get(key).expect("post-reopen get"),
                    None,
                    "deleted key {key} resurrected under churn (cycle {cycle})"
                );
            }

            let live_blob_bytes: u64 = storage
                .list_blobs()
                .iter()
                .filter_map(|name| storage.blob_len(name).ok())
                .sum();
            let logical_bytes = self.live_keys * (8 + self.value_bytes as u64);
            let reopened = db.stats();
            rows.push(ChurnRow {
                label: format!("cycle-{cycle:03}"),
                cycle,
                ops,
                live_blob_bytes,
                logical_bytes,
                space_amp: live_blob_bytes as f64 / logical_bytes as f64,
                live_tables: db.live_tables().len() as u64,
                wal_segments_live: reopened.wal_segments_live,
                manifest_checkpoint_seq: reopened.manifest_checkpoint_seq,
                recovery_segments_scanned: reopened.recovery_segments_scanned,
                recovery_records_replayed: reopened.recovery_records_replayed,
                reopen_ms,
                tombstones_dropped,
                gc_rewrites,
            });
        }
        rows
    }
}

/// Upper bound on the per-sample wait for background GC to fire.
const GC_SETTLE_MS: u128 = 2_000;

/// One sample point of the churn soak.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnRow {
    /// Identity of the sample (`cycle-NNN`).
    pub label: String,
    /// Churn cycle this row samples (1-based).
    pub cycle: usize,
    /// Cumulative operations issued up to this sample.
    pub ops: u64,
    /// Total bytes across every live blob (sstables, WAL segments,
    /// manifest checkpoints) at the sample point.
    pub live_blob_bytes: u64,
    /// Bytes of logically-live data (working-set keys + values).
    pub logical_bytes: u64,
    /// `live_blob_bytes / logical_bytes` — the space-amplification
    /// series the soak exists to keep flat.
    pub space_amp: f64,
    /// Live sstables at the sample point.
    pub live_tables: u64,
    /// Live WAL segments after the reopen.
    pub wal_segments_live: u64,
    /// Manifest checkpoint sequence after the reopen.
    pub manifest_checkpoint_seq: u64,
    /// WAL segments the reopen's recovery scanned (from the reopened
    /// store's own stats) — with the next field, the recovery *work*
    /// the soak holds flat.
    pub recovery_segments_scanned: u64,
    /// Records the reopen's recovery replayed into the memtable.
    pub recovery_records_replayed: u64,
    /// Wall-clock milliseconds the reopen took. Printed, never
    /// asserted on.
    pub reopen_ms: f64,
    /// Cumulative tombstones reclaimed by GC across the whole soak
    /// (carried over reopens, which reset engine stats).
    pub tombstones_dropped: u64,
    /// Cumulative GC rewrites across the whole soak.
    pub gc_rewrites: u64,
}
