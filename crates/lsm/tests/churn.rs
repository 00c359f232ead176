//! The bounded churn soak: a fixed working set is overwritten cycle
//! after cycle while scratch keys are created and deleted (each one a
//! tombstone GC must reclaim), with tombstone GC on and the calling
//! thread driving maintenance. Every other cycle the store is settled
//! — `flush()` then `maybe_compact()`, which returns only once no
//! flush, merge or GC step is due — then closed over half a memtable of
//! unflushed tail and reopened (CURRENT → checkpoint → WAL replay).
//!
//! A healthy engine keeps live blob bytes and recovery work flat across
//! the samples; a leak in tombstone GC, checkpoint sweeping or WAL
//! retirement is a climb. Every assertion is on a count: maintenance
//! runs on the calling thread, so the samples repeat exactly and
//! nothing here sleeps or reads a clock.

use std::sync::Arc;

use lsm_engine::{CompactionPolicy, Lsm, LsmOptions, MemoryStorage, Storage};

const CYCLES: usize = 8;
const SAMPLE_EVERY: usize = 2;
/// Keys `0..LIVE_KEYS` are always present and overwritten round-robin.
const LIVE_KEYS: u64 = 400;
const OVERWRITES_PER_CYCLE: u64 = 400;
/// Scratch keys put and then deleted per cycle.
const SCRATCH_KEYS_PER_CYCLE: u64 = 120;
const MEMTABLE_KEYS: usize = 100;

/// One sample point, read from the reopened store.
#[derive(Debug)]
struct Sample {
    cycle: usize,
    /// Bytes across every blob: sstables, WAL segments, checkpoints.
    live_blob_bytes: u64,
    checkpoint_seq: u64,
    recovery_segments_scanned: u64,
    recovery_records_replayed: u64,
    /// Cumulative over the whole soak (a reopen resets engine stats).
    tombstones_dropped: u64,
    gc_rewrites: u64,
}

fn options() -> LsmOptions {
    LsmOptions::default()
        .memtable_capacity(MEMTABLE_KEYS)
        .compaction_policy(CompactionPolicy::Threshold { live_tables: 4 })
        .tombstone_gc(true)
}

/// Runs the soak, checking on every reopen that the working set reads
/// back and that no deleted scratch key has resurrected.
fn soak() -> Vec<Sample> {
    let storage = Arc::new(MemoryStorage::new());
    let value = vec![0x5a_u8; 32];
    let mut db = Lsm::open(storage.clone(), options()).unwrap();
    for key in 0..LIVE_KEYS {
        db.put(key, value.clone()).unwrap();
    }

    let mut samples = Vec::new();
    let mut next_scratch = LIVE_KEYS;
    let mut overwrite_cursor = 0u64;
    let (mut tombstones_dropped, mut gc_rewrites) = (0, 0);
    for cycle in 1..=CYCLES {
        for _ in 0..OVERWRITES_PER_CYCLE {
            db.put(overwrite_cursor % LIVE_KEYS, value.clone()).unwrap();
            overwrite_cursor += 1;
        }
        for _ in 0..SCRATCH_KEYS_PER_CYCLE {
            db.put(next_scratch, value.clone()).unwrap();
            db.delete(next_scratch).unwrap();
            next_scratch += 1;
        }
        if cycle % SAMPLE_EVERY != 0 {
            continue;
        }

        db.flush().unwrap();
        db.maybe_compact().unwrap();
        // The same unflushed tail before every reopen (half a memtable,
        // so no rotation), or recovery would have nothing to replay and
        // "flat recovery work" would be 0 = 0.
        for _ in 0..MEMTABLE_KEYS / 2 {
            db.put(overwrite_cursor % LIVE_KEYS, value.clone()).unwrap();
            overwrite_cursor += 1;
        }
        let closing = db.stats();
        tombstones_dropped += closing.tombstones_dropped;
        gc_rewrites += closing.gc_rewrites;
        drop(db);
        db = Lsm::open(storage.clone(), options()).unwrap();

        for key in 0..LIVE_KEYS {
            assert_eq!(
                db.get(key).unwrap().as_deref(),
                Some(value.as_slice()),
                "live key {key} lost under churn (cycle {cycle})"
            );
        }
        for key in LIVE_KEYS..next_scratch {
            assert_eq!(
                db.get(key).unwrap(),
                None,
                "deleted key {key} resurrected under churn (cycle {cycle})"
            );
        }

        let reopened = db.stats();
        samples.push(Sample {
            cycle,
            live_blob_bytes: storage
                .list_blobs()
                .iter()
                .map(|name| storage.blob_len(name).unwrap())
                .sum(),
            checkpoint_seq: reopened.manifest_checkpoint_seq,
            recovery_segments_scanned: reopened.recovery_segments_scanned,
            recovery_records_replayed: reopened.recovery_records_replayed,
            tombstones_dropped,
            gc_rewrites,
        });
    }
    samples
}

#[test]
fn churn_stays_flat_and_gc_reclaims_tombstones_unprompted() {
    let samples = soak();
    assert_eq!(samples.len(), CYCLES / SAMPLE_EVERY);
    let (first, last) = (&samples[0], &samples[samples.len() - 1]);

    // GC fired on its own: nothing here calls gc_tombstones() or
    // major_compact(), so every reclaimed tombstone came through the
    // maintenance pipeline's compaction steps.
    assert!(
        last.tombstones_dropped > 0 && last.gc_rewrites > 0,
        "tombstone GC never fired across {} cycles: {last:?}",
        last.cycle
    );

    // Disk usage is flat: a lifecycle leak (tombstones never reclaimed,
    // stale checkpoints or WAL segments never swept) grows the blob set
    // linearly with cycles and blows well past 1.2x.
    assert!(
        last.live_blob_bytes as f64 <= 1.2 * first.live_blob_bytes as f64,
        "disk usage climbed under churn: {samples:#?}"
    );

    // Recovery work is flat too: a reopen replays live state, not
    // history.
    assert!(
        first.recovery_records_replayed > 0,
        "every sample reopens over an unflushed tail: {first:?}"
    );
    for (what, at_first, at_last) in [
        (
            "WAL segments scanned",
            first.recovery_segments_scanned,
            last.recovery_segments_scanned,
        ),
        (
            "records replayed",
            first.recovery_records_replayed,
            last.recovery_records_replayed,
        ),
    ] {
        assert!(
            at_last as f64 <= 1.2 * at_first as f64,
            "recovery work climbed under churn: {what} first {at_first}, last {at_last}"
        );
    }

    // The manifest is being checkpointed (and stale checkpoints swept,
    // or the blob bytes above would have caught it).
    assert!(
        last.checkpoint_seq > first.checkpoint_seq,
        "checkpoint seq stalled: {samples:#?}"
    );
}
