//! Engine-level MVCC integration: a pinned snapshot's reads are
//! byte-identical across flush, compaction and tombstone GC; inverted
//! range-delete bounds are sequence-free no-ops; pins hold the
//! tombstone-GC floor down until released; and one range delete does
//! the work of a tombstone storm in one record.

use std::sync::Arc;

use lsm_engine::{CompactionPolicy, Lsm, LsmOptions, MemoryStorage, Storage};

fn opts() -> LsmOptions {
    LsmOptions::default()
        .memtable_capacity(32)
        .compaction_policy(CompactionPolicy::Threshold { live_tables: 2 })
        .block_size(256)
        .wal(false)
}

/// The acceptance criterion verbatim: capture every byte a snapshot
/// answers with, then overwrite, point-delete and range-delete the
/// whole world, flush, compact and GC — the snapshot must keep
/// answering with exactly the captured bytes, and the live view must
/// show only the new world.
#[test]
fn pinned_snapshot_reads_are_byte_identical_across_flush_compaction_and_gc() {
    let db = Lsm::open_in_memory(opts()).unwrap();
    for k in 0..200u64 {
        db.put(k, format!("old{k}").into_bytes()).unwrap();
    }
    db.flush().unwrap();

    let snap = db.snapshot();
    let baseline = snap.scan_all().unwrap();
    assert_eq!(baseline.len(), 200);

    // Second half of history: every key overwritten, a point delete, a
    // range delete over a third of the space, then the maintenance
    // machinery runs for real.
    for k in 0..200u64 {
        db.put(k, format!("new{k}").into_bytes()).unwrap();
    }
    db.delete(7).unwrap();
    db.delete_range(100u64, 170u64).unwrap();
    db.flush().unwrap();
    db.auto_compact().unwrap();
    db.gc_tombstones().unwrap();

    let replay = snap.scan_all().unwrap();
    assert_eq!(
        replay, baseline,
        "snapshot bytes drifted across maintenance"
    );
    for k in [0u64, 7, 100, 169, 199] {
        assert_eq!(
            snap.get(k).unwrap().as_deref(),
            Some(format!("old{k}").as_bytes()),
            "snapshot get({k})"
        );
    }

    // The live view has moved on: new values, both kinds of delete.
    let live = db.scan_all().unwrap();
    assert_eq!(live.len(), 200 - 1 - 70);
    assert_eq!(db.get(7).unwrap(), None);
    assert_eq!(db.get(150).unwrap(), None);
    assert_eq!(db.get(0).unwrap().as_deref(), Some(&b"new0"[..]));

    // Releasing the pin and re-running maintenance reclaims the old
    // versions without perturbing the live answers.
    drop(snap);
    db.flush().unwrap();
    db.auto_compact().unwrap();
    db.gc_tombstones().unwrap();
    assert_eq!(
        db.scan_all().unwrap(),
        live,
        "live view changed on pin release"
    );
}

/// Inverted and empty bounds are accepted no-ops: no record is written,
/// no sequence number is consumed, nothing is deleted.
#[test]
fn inverted_or_empty_delete_range_consumes_no_seqno() {
    let db = Lsm::open_in_memory(opts()).unwrap();
    db.put(7, b"keep".to_vec()).unwrap();

    let before = db.snapshot().lsn();
    db.delete_range(9u64, 3u64).unwrap();
    db.delete_range(5u64, 5u64).unwrap();
    // Snapshot creation itself allocates one LSN, so two no-op deletes
    // in between must leave consecutive snapshot LSNs.
    let after = db.snapshot().lsn();
    assert_eq!(after, before + 1, "a no-op delete_range consumed a seqno");
    assert_eq!(db.stats().range_deletes, 0, "no tombstone was recorded");
    assert_eq!(db.get(7).unwrap().as_deref(), Some(&b"keep"[..]));
}

/// A pin created below a tombstone's seqno blocks tombstone GC from
/// reclaiming it; releasing the pin (plus the manifest flip that resets
/// the barren memo) lets the same GC pass drop it.
#[test]
fn pins_block_tombstone_gc_until_released() {
    let db = Lsm::open_in_memory(LsmOptions::default().memtable_capacity(64).wal(false)).unwrap();
    let pin = db.snapshot();
    // Tombstones for keys never written anywhere else: with no pin they
    // provably shadow nothing and GC drops them all.
    for k in 1_000..1_020u64 {
        db.delete(k).unwrap();
    }
    db.flush().unwrap();

    assert_eq!(
        db.gc_tombstones().unwrap(),
        0,
        "tombstones above the pin floor must survive GC"
    );

    drop(pin);
    // No barren memo was taken for the pinned pass (barrenness is not
    // provable under a floor), so the very next pass reclaims.
    assert_eq!(
        db.gc_tombstones().unwrap(),
        20,
        "with the pin gone the tombstones are reclaimable"
    );
}

/// Bulk expiry, both ways over the same store: `delete_range` over a
/// 1 200-key prefix is **one** WAL append where point deletes are 1 200,
/// the survivors are identical, and once flush, compaction and GC have
/// settled, the interval is really reclaimed — the footprint shrinks
/// below the pre-expiry store and is no larger than what the tombstone
/// storm leaves behind.
#[test]
fn one_range_delete_expires_a_prefix_like_a_tombstone_storm_in_one_record() {
    const KEYS: u64 = 2_000;
    const EXPIRED: u64 = 1_200;
    let blob_bytes = |storage: &MemoryStorage| -> u64 {
        let names = storage.list_blobs();
        names.iter().map(|n| storage.blob_len(n).unwrap()).sum()
    };
    let settle = |db: &Lsm| {
        db.flush().unwrap();
        while db.auto_compact().unwrap().is_some() {}
        while db.gc_tombstones().unwrap() > 0 {}
    };
    // Returns (WAL appends the expiry cost, settled bytes, survivors).
    let expire = |range_delete: bool| {
        let storage = Arc::new(MemoryStorage::new());
        let db = Lsm::open(
            storage.clone() as Arc<dyn Storage>,
            LsmOptions::default()
                .memtable_capacity(100)
                .compaction_policy(CompactionPolicy::Threshold { live_tables: 4 })
                .tombstone_gc(true),
        )
        .unwrap();
        for key in 0..KEYS {
            db.put(key, vec![0x3c_u8; 32]).unwrap();
        }
        settle(&db);
        let loaded_bytes = blob_bytes(&storage);

        let appends_before = db.stats().wal_appends;
        if range_delete {
            db.delete_range(0u64, EXPIRED).unwrap();
        } else {
            for key in 0..EXPIRED {
                db.delete(key).unwrap();
            }
        }
        let appends = db.stats().wal_appends - appends_before;
        settle(&db);

        let settled_bytes = blob_bytes(&storage);
        assert!(
            settled_bytes < loaded_bytes,
            "expiring {EXPIRED} of {KEYS} keys must shrink the settled store: \
             {loaded_bytes} -> {settled_bytes} bytes (range_delete: {range_delete})"
        );
        (appends, settled_bytes, db.scan_all().unwrap())
    };

    let (storm_appends, storm_bytes, storm_survivors) = expire(false);
    let (range_appends, range_bytes, range_survivors) = expire(true);
    assert_eq!(storm_appends, EXPIRED);
    assert_eq!(range_appends, 1);
    assert_eq!(range_survivors.len() as u64, KEYS - EXPIRED);
    assert_eq!(range_survivors, storm_survivors);
    assert!(
        range_bytes <= storm_bytes,
        "the range tombstone left {range_bytes} bytes, the storm {storm_bytes}"
    );
}
