//! The bounded churn soak at CI scale: sustained overwrite/delete
//! traffic under background maintenance and tombstone GC must keep the
//! store's disk footprint and recovery work flat, reclaim tombstones
//! without anyone calling a manual major compaction, and never lose a
//! live key or resurrect a deleted one (the harness asserts the
//! correctness part on every sample).

use compaction_sim::ChurnConfig;

#[test]
fn quick_churn_soak_stays_flat_and_reclaims_tombstones() {
    let rows = ChurnConfig::quick().run();
    assert!(rows.len() >= 3, "the quick soak samples at least 3 points");
    let first = &rows[0];
    let last = &rows[rows.len() - 1];

    // GC fired on its own: the harness never calls gc_tombstones() or
    // major_compact(), so every reclaimed tombstone came through the
    // background scheduler.
    assert!(
        last.tombstones_dropped > 0,
        "tombstone GC never fired across {} cycles",
        last.cycle
    );
    assert!(last.gc_rewrites > 0);

    // Disk usage is flat: the final footprint is within the ±20%
    // acceptance band of the first sample. A lifecycle leak (tombstones
    // never reclaimed, stale checkpoints or WAL segments never swept)
    // grows the blob set linearly with cycles and blows well past this.
    assert!(
        (last.live_blob_bytes as f64) <= 1.2 * first.live_blob_bytes as f64,
        "disk usage climbed under churn: first sample {} bytes, last {} bytes",
        first.live_blob_bytes,
        last.live_blob_bytes
    );

    // Recovery work is flat too: a reopen replays only live state, not
    // history, so the WAL segments it scans and the records it replays
    // stay in the same band however many cycles came before. Counts,
    // not the clock — `reopen_ms` is a printed column only.
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

    // The checkpoint sequence advances (the manifest is actually being
    // checkpointed) while stale checkpoints are swept — if they were
    // not, live_blob_bytes above would have caught the leak.
    assert!(last.manifest_checkpoint_seq > first.manifest_checkpoint_seq);
}
