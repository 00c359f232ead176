//! The crash-point / corruption fault-injection battery.
//!
//! Every scenario scripts a death at an exact write offset (or flips a
//! byte of a chosen blob), reopens whatever survived, and asserts the
//! recovery contract: **every acknowledged write is recovered, or the
//! open fails with an explicit [`Error::Corruption`] — never a silent
//! gap, never a panic.** Torn writes (a crash mid-write) must always
//! recover; only genuine bit rot may surface as data loss, and then it
//! must be reported.

use std::collections::BTreeMap;
use std::sync::Arc;

use lsm_engine::test_support::{corrupt_blob_byte, CrashPointStorage};
use lsm_engine::{key_from_u64, Error, Lsm, LsmOptions, MemoryStorage, Storage, Wal};
use proptest::prelude::*;

/// What the workload knows was acknowledged: key -> Some(value) for a
/// put, None for a delete.
type Acked = BTreeMap<u64, Option<Vec<u8>>>;

fn small_opts() -> LsmOptions {
    LsmOptions::default().memtable_capacity(8)
}

/// Runs puts/deletes/flushes against `db` until the first error,
/// recording only acknowledged operations. Returns whether the
/// workload ran to completion (no crash fired).
fn run_workload(db: &Lsm, acked: &mut Acked, ops: u64) -> bool {
    run_workload_checked(db, acked, ops, |_| {})
}

/// [`run_workload`], calling `after_ack` after every acknowledged call.
fn run_workload_checked(
    db: &Lsm,
    acked: &mut Acked,
    ops: u64,
    mut after_ack: impl FnMut(&Lsm),
) -> bool {
    for i in 0..ops {
        let r = if i % 5 == 4 {
            let key = i / 2;
            match db.delete(key) {
                Ok(()) => {
                    acked.insert(key, None);
                    Ok(())
                }
                Err(e) => Err(e),
            }
        } else {
            let value = format!("value-{i}").into_bytes();
            match db.put(i, value.clone()) {
                Ok(()) => {
                    acked.insert(i, Some(value));
                    Ok(())
                }
                Err(e) => Err(e),
            }
        };
        if r.is_err() {
            return false;
        }
        after_ack(db);
        if i % 16 == 15 {
            if db.flush().is_err() {
                return false;
            }
            after_ack(db);
        }
    }
    true
}

/// The recovery contract check: reopen `storage` and verify every
/// acked operation reads back exactly.
fn assert_all_acked_recovered(storage: MemoryStorage, acked: &Acked) {
    let db = Lsm::open(Arc::new(storage), small_opts())
        .expect("reopen after a pure crash (torn writes only) must succeed");
    for (key, expected) in acked {
        let got = db.get(*key).expect("post-recovery read");
        assert_eq!(
            got.as_deref(),
            expected.as_deref(),
            "acked write to key {key} lost or wrong after recovery"
        );
    }
}

/// Dry run: the mutation bytes `workload` charges against a crash
/// budget on a store opened with `opts` when nothing crashes. Sweeping
/// budgets below this total makes every case die *somewhere* inside the
/// workload instead of overshooting it.
fn mutation_bytes(opts: LsmOptions, workload: impl FnOnce(&Lsm)) -> u64 {
    let storage = Arc::new(CrashPointStorage::new());
    let db = Lsm::open(storage.clone(), opts).unwrap();
    let before = storage.bytes_written();
    workload(&db);
    storage.bytes_written() - before
}

/// Ops in the swept workloads: the last one is an explicit flush, so a
/// dry run's byte total does not depend on how far a background flush
/// thread got when the workload returned.
const SWEPT_OPS: u64 = 208;

/// Background maintenance with triggers high enough that a writer never
/// *blocks* on a dead flush thread — after the crash, the next WAL
/// append fails the write instead.
fn background_opts() -> LsmOptions {
    small_opts()
        .background_maintenance(true)
        .stop_trigger(64)
        .slowdown_trigger(63)
}

fn workload_bytes(opts: LsmOptions) -> u64 {
    mutation_bytes(opts, |db| {
        assert!(run_workload(db, &mut Acked::new(), SWEPT_OPS));
    })
}

/// The sweeps' shared body: die `budget` mutation bytes into the
/// workload (the budget is below the dry-run total, so the crash always
/// fires), reopen what survived, demand every acked write back.
fn crash_and_recover(opts: LsmOptions, budget: u64) -> Result<(), String> {
    let storage = Arc::new(CrashPointStorage::new());
    let mut acked = Acked::new();
    let db = Lsm::open(storage.clone(), opts).unwrap();
    storage.crash_after(budget);
    let completed = run_workload(&db, &mut acked, SWEPT_OPS);
    prop_assert!(
        storage.crashed() && !completed,
        "budget {budget} outlasted the workload: the sweep went vacuous"
    );
    drop(db);
    assert_all_acked_recovered(storage.surviving(), &acked);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole property: a crash after *any* number of storage
    /// bytes loses no acknowledged write. The caller drives the same
    /// pipeline the worker threads run, so the sweep tears every step of
    /// it deterministically, at every byte: WAL appends (torn
    /// mid-segment, at any byte of a frame), the first append of each
    /// generation's fresh segment after a freeze, the sstable write,
    /// the manifest checkpoint and CURRENT swap that publish it, and the
    /// retirement of the flushed generation's segment.
    #[test]
    fn crash_at_any_byte_offset_loses_no_acked_write(
        budget in 0..workload_bytes(small_opts()),
    ) {
        crash_and_recover(small_opts(), budget)?;
    }

    /// Same sweep under background maintenance: frozen generations,
    /// the flush thread and per-generation WAL segments in play. The
    /// flush thread retries against dead storage and gives up at
    /// shutdown; the WAL segments must still carry everything. This
    /// also exercises the liveness contract: an explicit `flush()`
    /// against a wedged flush thread must surface the thread's error,
    /// not wait forever for progress dead storage will never make.
    #[test]
    fn crash_under_background_maintenance_loses_no_acked_write(
        budget in 0..workload_bytes(background_opts()),
    ) {
        crash_and_recover(background_opts(), budget)?;
    }

    /// Bit rot inside a *data block* of a live v3 sstable — including
    /// the compression tag byte each block leads with and torn
    /// (truncation-shaped) damage to the compressed payload. Every
    /// subsequent read must return the correct value or an explicit
    /// `Corruption`: wrong data and panics are both format bugs. The
    /// envelope CRC covers tag and payload together, so a flipped tag
    /// is caught before the decompressor ever dispatches on it.
    #[test]
    fn block_payload_bit_rot_is_corruption_never_wrong_data(
        table_pick in 0usize..16,
        offset_pick in 0usize..8192,
    ) {
        let storage = Arc::new(CrashPointStorage::new());
        let mut acked = Acked::new();
        {
            let db = Lsm::open(storage.clone(), small_opts().wal(false)).unwrap();
            assert!(run_workload(&db, &mut acked, 120), "no crash budget set");
            db.flush().unwrap();
        }
        let survivors = storage.surviving();
        let mut tables: Vec<String> = survivors
            .list_blobs()
            .into_iter()
            .filter(|b| b.starts_with("sst-"))
            .collect();
        tables.sort();
        prop_assume!(!tables.is_empty());
        let name = &tables[table_pick % tables.len()];
        // Data blocks follow the observation section (which only the
        // planner reads); everything from the bloom filter on trails
        // them. The bloom carries no checksum (a flipped bloom bit can
        // only cause a false negative), so this property is about the
        // *block payload* region: from the observation section's length
        // to the bloom offset, the first two u64s of the v6 footer
        // (8 u64s + CRC32).
        let blob = survivors.read_blob(name).unwrap();
        let footer = &blob[blob.len() - 68..];
        let field = |i: usize| u64::from_le_bytes(footer[8 * i..8 * i + 8].try_into().unwrap()) as usize;
        let (data_start, data_end) = (field(0), field(1));
        prop_assume!(data_end > data_start);
        let offset = data_start + offset_pick % (data_end - data_start);
        prop_assert!(corrupt_blob_byte(&survivors, name, offset));

        let db = Lsm::open(Arc::new(survivors), small_opts().wal(false))
            .expect("table blocks are decoded lazily; open reads only tails");
        for (key, expected) in &acked {
            match db.get(*key) {
                Ok(got) => prop_assert_eq!(
                    got.as_deref(),
                    expected.as_deref(),
                    "get({}) returned wrong data from a corrupt block", key
                ),
                Err(Error::Corruption { .. }) => {}
                Err(other) => prop_assert!(false, "get: non-corruption error {other:?}"),
            }
        }
        // A scan streams until it meets the rotten block, then must
        // fail loudly; everything before it must match the oracle.
        let mut oracle = acked
            .iter()
            .filter_map(|(k, v)| v.as_ref().map(|v| (*k, v.clone())));
        for item in db.range(key_from_u64(0)..key_from_u64(u64::MAX)) {
            match item {
                Ok((k, v)) => {
                    let key = lsm_engine::key_to_u64(&k).unwrap();
                    prop_assert_eq!(
                        Some((key, v.to_vec())),
                        oracle.next(),
                        "scan yielded wrong data near a corrupt block"
                    );
                }
                Err(Error::Corruption { .. }) => break,
                Err(other) => prop_assert!(false, "scan: non-corruption error {other:?}"),
            }
        }
    }

    /// Bit rot at an arbitrary offset of an arbitrary blob: reopen
    /// either succeeds (the flip hit slack the formats tolerate, or a
    /// quarantined WAL frame was reported) or fails with an explicit
    /// `Corruption` error. Never a panic, never an I/O error.
    #[test]
    fn bit_rot_anywhere_is_explicit_or_survivable(blob_pick in 0usize..64, offset_pick in 0usize..8192) {
        let storage = Arc::new(CrashPointStorage::new());
        let mut acked = Acked::new();
        {
            let db = Lsm::open(storage.clone(), small_opts()).unwrap();
            run_workload(&db, &mut acked, 120);
        }
        let survivors = storage.surviving();
        let mut blobs = survivors.list_blobs();
        blobs.sort();
        prop_assume!(!blobs.is_empty());
        let name = &blobs[blob_pick % blobs.len()];
        let len = survivors.blob_len(name).unwrap() as usize;
        prop_assume!(len > 0);
        prop_assert!(corrupt_blob_byte(&survivors, name, offset_pick % len));
        match Lsm::open(Arc::new(survivors), small_opts()) {
            Ok(db) => {
                // Survived: every read must still be explicit about its
                // outcome (value, miss or corruption) — no panics.
                for key in acked.keys() {
                    let _ = db.get(*key);
                }
            }
            Err(Error::Corruption { .. }) => {}
            Err(other) => prop_assert!(false, "non-taxonomized reopen failure: {other:?}"),
        }
    }

    /// A crash mid-`delete_range` is all-or-nothing: the range tombstone
    /// is one WAL record, so recovery sees either the whole interval
    /// deleted or the whole interval intact — never a partially applied
    /// range. Sweeps the crash point across the record's bytes (and,
    /// when acked, the interval must always be gone).
    #[test]
    fn crash_mid_delete_range_is_all_or_nothing(
        budget in 0..=mutation_bytes(small_opts(), |db| db.delete_range(20u64, 80u64).unwrap()),
    ) {
        let storage = Arc::new(CrashPointStorage::new());
        let db = Lsm::open(storage.clone(), small_opts()).unwrap();
        for k in 0..100u64 {
            db.put(k, format!("v{k}").into_bytes()).unwrap();
        }
        db.flush().unwrap();

        storage.crash_after(budget);
        let acked = db.delete_range(20u64, 80u64).is_ok();
        // The top of the range is the record's exact size: it lands whole
        // and is acked; every budget below tears it.
        prop_assert!(storage.crashed() != acked);
        drop(db);

        let recovered = Lsm::open(Arc::new(storage.surviving()), small_opts())
            .expect("a torn range-delete record must recover, not corrupt");
        let inside: Vec<u64> = (20..80)
            .filter(|k| recovered.get(*k).unwrap().is_some())
            .collect();
        if acked {
            prop_assert!(
                inside.is_empty(),
                "acked delete_range lost after recovery: {inside:?} survive"
            );
        } else {
            prop_assert!(
                inside.is_empty() || inside.len() == 60,
                "partially applied range delete after crash: only {} of 60 keys survive",
                inside.len()
            );
        }
        // Keys outside the interval are untouched either way.
        for k in (0..20).chain(80..100) {
            let got = recovered.get(k).unwrap();
            let expect = format!("v{k}").into_bytes();
            prop_assert_eq!(
                got.as_deref(),
                Some(expect.as_slice()),
                "key {} outside the interval damaged", k
            );
        }
    }
}

/// Between two acknowledged calls a caller-driven store has run its
/// pipeline to the end: no generation sits frozen, and at most the
/// active generation's WAL segment is live — the flushed ones were
/// retired by the call that rotated them.
#[test]
fn caller_driven_store_is_quiescent_between_acked_calls() {
    let storage = Arc::new(MemoryStorage::new());
    let db = Lsm::open(storage.clone(), small_opts()).unwrap();
    let mut acked = Acked::new();
    let mut calls = 0u64;
    let completed = run_workload_checked(&db, &mut acked, SWEPT_OPS, |db| {
        calls += 1;
        assert_eq!(db.frozen_queue_depth(), 0, "after call {calls}");
        let live = Wal::live_segments(storage.as_ref());
        assert!(live.len() <= 1, "after call {calls}: {live:?}");
    });
    assert!(completed);
    assert_eq!(calls, SWEPT_OPS + SWEPT_OPS / 16);
    assert!(db.stats().flushes >= SWEPT_OPS / 16, "memtables rotated");
}

#[test]
fn crash_during_manifest_swap_keeps_previous_checkpoint() {
    let storage = Arc::new(CrashPointStorage::new());
    let mut acked = Acked::new();
    let db = Lsm::open(storage.clone(), small_opts()).unwrap();
    run_workload(&db, &mut acked, 64);
    db.flush().unwrap();
    // Next mutation bytes: kill the very next write outright (budget 0
    // tears at byte zero / fails the atomic swap entirely), which the
    // next flush will hit first at its sstable write.
    storage.crash_after(0);
    for i in 1000u64..1008 {
        let _ = db.put(i, b"doomed".to_vec());
    }
    let _ = db.flush();
    drop(db);
    assert_all_acked_recovered(storage.surviving(), &acked);
}

#[test]
fn torn_current_pointer_falls_back_to_newest_checkpoint() {
    let storage = Arc::new(CrashPointStorage::new());
    let mut acked = Acked::new();
    {
        let db = Lsm::open(storage.clone(), small_opts()).unwrap();
        run_workload(&db, &mut acked, 80);
        db.flush().unwrap();
    }
    // Simulate a backend that ignored the atomic hint and tore the
    // pointer mid-write: truncate CURRENT to half its bytes.
    let survivors = storage.surviving();
    let current = survivors.read_blob("CURRENT").unwrap();
    survivors
        .write_blob("CURRENT", &current[..current.len() / 2])
        .unwrap();
    assert_all_acked_recovered(survivors, &acked);
}

/// A store whose 32 acked writes live only in one WAL segment, with
/// one byte of that segment flipped at `offset`.
fn store_with_rotten_wal(offset: usize) -> (MemoryStorage, String) {
    let storage = Arc::new(CrashPointStorage::new());
    {
        let db = Lsm::open(storage.clone(), small_opts().memtable_capacity(1000)).unwrap();
        for i in 0u64..32 {
            db.put(i, vec![i as u8; 8]).unwrap();
        }
        // No flush: all 32 writes live only in the WAL.
    }
    let survivors = storage.surviving();
    let segment = Wal::live_segments(&survivors)
        .into_iter()
        .next()
        .expect("unflushed writes leave a live WAL segment");
    assert!(corrupt_blob_byte(&survivors, &segment, offset));
    (survivors, segment)
}

/// The two shapes of WAL bit rot: a flipped byte inside an early
/// frame's payload (past the 8-byte magic and the first frame header),
/// which leaves later frames salvageable, and a flipped byte inside the
/// magic, after which nothing in the segment is parsed as frames.
const WAL_ROT_OFFSETS: [(usize, bool); 2] = [(24, true), (0, false)];

#[test]
fn wal_bit_rot_is_quarantined_and_counted() {
    for (offset, salvageable) in WAL_ROT_OFFSETS {
        let (survivors, segment) = store_with_rotten_wal(offset);
        let survivors = Arc::new(survivors);
        let db = Lsm::open(survivors.clone(), small_opts()).unwrap();
        let stats = db.stats();
        assert!(
            stats.recovery_frames_quarantined > 0,
            "rot at {offset} must be counted, not silently skipped"
        );
        assert_eq!(stats.recovery_segments_quarantined, 1);
        assert_eq!(
            stats.recovery_frames_replayed > 0,
            salvageable,
            "valid frames after a rotten one are salvaged; a segment without \
             its magic is never parsed (rot at {offset})"
        );
        assert!(
            survivors.contains_blob(&format!("quarantined-{segment}")),
            "the rotten segment is preserved for forensics"
        );
    }
}

#[test]
fn strict_recovery_refuses_to_open_on_bit_rot() {
    for (offset, _) in WAL_ROT_OFFSETS {
        let (survivors, _) = store_with_rotten_wal(offset);
        let err = Lsm::open(Arc::new(survivors), small_opts().strict_recovery(true))
            .expect_err("strict recovery must refuse a gapped history");
        assert!(
            matches!(err, Error::Corruption { .. }),
            "strict refusal is a Corruption error, got {err:?}"
        );
    }
}

#[test]
fn torn_wal_tail_recovers_without_quarantine() {
    let storage = Arc::new(CrashPointStorage::new());
    {
        let db = Lsm::open(storage.clone(), small_opts().memtable_capacity(1000)).unwrap();
        for i in 0u64..16 {
            db.put(i, vec![i as u8; 8]).unwrap();
        }
    }
    let survivors = storage.surviving();
    let segment = Wal::live_segments(&survivors).into_iter().next().unwrap();
    let bytes = survivors.read_blob(&segment).unwrap();
    // Tear the tail mid-frame, the shape a crash mid-append leaves (the
    // torn final record counts as unacked): recovery truncates it and
    // reports zero quarantined frames.
    survivors
        .write_blob(&segment, &bytes[..bytes.len() - 5])
        .unwrap();

    let db = Lsm::open(Arc::new(survivors), small_opts()).unwrap();
    let stats = db.stats();
    assert_eq!(
        stats.recovery_frames_quarantined, 0,
        "a torn tail is not bit rot"
    );
    assert!(stats.recovery_bytes_truncated > 0);
    for i in 0u64..15 {
        assert_eq!(db.get(i).unwrap().as_deref(), Some(&[i as u8; 8][..]));
    }

    // A tear inside the segment's 8-byte magic (the first append of a
    // generation died before its header landed) is the same taxon: no
    // frame existed, so even strict recovery opens.
    for len in [1usize, 7] {
        let torn = MemoryStorage::new();
        torn.write_blob(&segment, &bytes[..len]).unwrap();
        let db = Lsm::open(Arc::new(torn), small_opts().strict_recovery(true)).unwrap();
        let stats = db.stats();
        assert_eq!(stats.recovery_frames_quarantined, 0);
        assert_eq!(stats.recovery_bytes_truncated, len as u64);
        assert_eq!(stats.recovery_records_replayed, 0);
    }
}

/// A WAL append that fails mid-frame leaves a torn tail in the segment.
/// Even if storage comes back, the store must refuse further writes: a
/// frame appended after the torn one would be acked yet unreachable on
/// replay (the length chain would read it as rot inside the torn frame).
#[test]
fn failed_wal_append_poisons_writes_until_reopen() {
    let storage = Arc::new(CrashPointStorage::new());
    let db = Lsm::open(storage.clone(), small_opts().memtable_capacity(1000)).unwrap();
    for i in 0u64..10 {
        db.put(i, vec![i as u8; 8]).unwrap();
    }
    storage.crash_after(11);
    assert!(db.put(10u64, b"torn".to_vec()).is_err());
    storage.crash_after(u64::MAX);
    assert!(
        db.put(11u64, b"after".to_vec()).is_err(),
        "the segment stays poisoned after storage revives"
    );
    drop(db);

    let db = Lsm::open(Arc::new(storage.surviving()), small_opts()).unwrap();
    let stats = db.stats();
    assert_eq!(stats.recovery_frames_quarantined, 0, "torn tail only");
    assert_eq!(stats.recovery_bytes_truncated, 11);
    assert_eq!(stats.recovery_records_replayed, 10);
    for i in 0u64..10 {
        assert_eq!(db.get(i).unwrap().as_deref(), Some(&[i as u8; 8][..]));
    }
    assert_eq!(db.get(10u64).unwrap(), None);
    assert_eq!(db.get(11u64).unwrap(), None);
}

#[test]
fn corrupt_checkpoint_with_valid_current_is_a_hard_error() {
    let storage = Arc::new(CrashPointStorage::new());
    {
        let db = Lsm::open(storage.clone(), small_opts()).unwrap();
        for i in 0u64..32 {
            db.put(i, b"x".to_vec()).unwrap();
        }
        db.flush().unwrap();
    }
    let survivors = storage.surviving();
    let checkpoint = survivors
        .list_blobs()
        .into_iter()
        .find(|b| b.starts_with("MANIFEST-"))
        .expect("a checkpoint exists");
    assert!(corrupt_blob_byte(&survivors, &checkpoint, 12));
    let err = Lsm::open(Arc::new(survivors), small_opts())
        .expect_err("a rotten checkpoint named by a valid CURRENT cannot be shed silently");
    assert!(matches!(err, Error::Corruption { .. }), "got {err:?}");
}

#[test]
fn crash_during_gc_flip_loses_no_live_data() {
    let storage = Arc::new(CrashPointStorage::new());
    let opts = small_opts().memtable_capacity(4);
    let db = Lsm::open(storage.clone(), opts.clone()).unwrap();
    // Two tables: one whose tombstones will be droppable, one peer.
    for i in 0u64..4 {
        db.put(i, b"keep".to_vec()).unwrap();
    }
    db.flush().unwrap();
    for i in 100u64..103 {
        db.put(i, b"tmp".to_vec()).unwrap();
        db.delete(i).unwrap();
    }
    db.flush().unwrap();
    // Kill the GC rewrite at its first write (the new sstable).
    storage.crash_after(0);
    let _ = db.gc_tombstones();
    drop(db);
    let db = Lsm::open(Arc::new(storage.surviving()), opts).expect("reopen after GC crash");
    for i in 0u64..4 {
        assert_eq!(
            db.get(i).unwrap().as_deref(),
            Some(b"keep".as_slice()),
            "live key {i} lost across a GC crash"
        );
    }
    for i in 100u64..103 {
        assert_eq!(db.get(i).unwrap(), None, "deleted key {i} resurrected");
    }
}

#[test]
fn completed_gc_survives_reopen() {
    let storage = Arc::new(CrashPointStorage::new());
    let opts = small_opts().memtable_capacity(4);
    let db = Lsm::open(storage.clone(), opts.clone()).unwrap();
    for i in 0u64..4 {
        db.put(i, b"keep".to_vec()).unwrap();
        db.delete(i + 100).unwrap();
    }
    db.flush().unwrap();
    let dropped = db.gc_tombstones().unwrap();
    assert!(dropped > 0, "tombstones shadowing nothing are droppable");
    assert_eq!(db.stats().tombstones_dropped, dropped);
    drop(db);
    let db = Lsm::open(Arc::new(storage.surviving()), opts).unwrap();
    for i in 0u64..4 {
        assert_eq!(db.get(i).unwrap().as_deref(), Some(b"keep".as_slice()));
        assert_eq!(db.get(i + 100).unwrap(), None);
    }
}
