//! Fault-injection scan tests: the two nastiest schedules a range scan
//! can meet.
//!
//! 1. A compaction's **manifest flip lands mid-iteration**: the scan
//!    started against the pre-flip table set, the flip retires every
//!    table it pinned and deletes their blobs, and the scan must still
//!    return exactly the right keys (it transparently resumes from the
//!    post-flip snapshot). A gated storage backend freezes the
//!    compaction at its first output write so the interleaving is
//!    deterministic, not lucky.
//! 2. **Crash and reopen**: scans after WAL replay must see every
//!    acknowledged write — including batch writes and tombstones that
//!    never reached an sstable.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lsm_engine::test_support::GatedStorage;
use lsm_engine::{
    key_from_u64, key_to_u64, CompactionPolicy, Lsm, LsmOptions, MemoryStorage, Storage, WriteBatch,
};

#[test]
fn scan_survives_a_manifest_flip_landing_mid_iteration() {
    const KEYS: u64 = 400;
    let storage = Arc::new(GatedStorage::new());
    let db = Arc::new(
        Lsm::open(
            storage.clone() as Arc<dyn Storage>,
            LsmOptions::default()
                .memtable_capacity(50)
                .block_size(256)
                .compaction_threads(2)
                .wal(false),
        )
        .unwrap(),
    );
    for i in 0..KEYS {
        db.put(i, format!("value-{i}").into_bytes()).unwrap();
    }
    db.flush().unwrap();
    assert!(db.live_tables().len() >= 8);
    let pre_flip_ids: Vec<u64> = db.live_tables().iter().map(|t| t.table_id).collect();

    // Start the scan against the pre-compaction table set and pull a
    // prefix out of it.
    let mut scan = db.range(key_from_u64(0)..key_from_u64(KEYS));
    let mut collected: Vec<(u64, Vec<u8>)> = Vec::new();
    for _ in 0..100 {
        let (k, v) = scan.next().expect("scan prefix").unwrap();
        collected.push((key_to_u64(&k).unwrap(), v.to_vec()));
    }

    // Freeze the compaction at its first output write, on another
    // thread (it holds the engine's write mutex the whole time).
    storage.close_gate();
    let compaction_done = Arc::new(AtomicBool::new(false));
    let compactor = {
        let db = Arc::clone(&db);
        let done = Arc::clone(&compaction_done);
        std::thread::spawn(move || {
            let run = db.auto_compact().unwrap().expect("tables to merge");
            done.store(true, Ordering::SeqCst);
            run
        })
    };

    // While the compaction is frozen mid-write, the scan keeps
    // streaming from its pinned pre-flip snapshot.
    for _ in 0..100 {
        let (k, v) = scan.next().expect("scan mid-compaction").unwrap();
        collected.push((key_to_u64(&k).unwrap(), v.to_vec()));
    }
    assert!(
        !compaction_done.load(Ordering::SeqCst),
        "compaction finished before the gate opened — the interleaving \
         proved nothing"
    );

    // Let the flip land: manifest swapped, every pinned input blob
    // deleted. The scan's remaining tables vanish underneath it.
    storage.open_gate();
    compactor.join().unwrap();
    let post_ids: Vec<u64> = db.live_tables().iter().map(|t| t.table_id).collect();
    assert!(pre_flip_ids.iter().all(|id| !post_ids.contains(id)));
    let merged_len: u64 = db.live_tables().iter().map(|t| t.encoded_len).sum();
    let mid_flip_stats = db.stats();

    // The scan must finish correctly anyway (retry onto the post-flip
    // snapshot, resuming after the last returned key).
    for item in scan {
        let (k, v) = item.expect("scan after flip");
        collected.push((key_to_u64(&k).unwrap(), v.to_vec()));
    }
    assert_eq!(collected.len() as u64, KEYS, "keys lost or duplicated");
    for (i, (k, v)) in collected.iter().enumerate() {
        assert_eq!(*k, i as u64, "order broken at position {i}");
        assert_eq!(v, format!("value-{k}").as_bytes(), "wrong value for {k}");
    }

    // The rebuilt scan (and its readahead spans) must resume from the
    // block covering the last returned key, not refetch the half of
    // the keyspace it already consumed: the bytes it reads after the
    // flip stay well below the whole merged table. A restart-from-zero
    // would read essentially every data block again.
    let resumed_bytes = db.stats().data_block_read_bytes - mid_flip_stats.data_block_read_bytes;
    assert!(
        resumed_bytes < merged_len * 3 / 4,
        "post-flip resume re-read {resumed_bytes} of {merged_len} table \
         bytes — double-counting consumed blocks"
    );
}

#[test]
fn concurrent_scans_stay_correct_under_auto_compaction_churn() {
    // Non-gated variant: scans race real Threshold compactions driven
    // by a writer thread. Every scan must return a dense, sorted,
    // gap-free key sequence (values may legitimately be any version the
    // writer has already made visible at that key).
    let db = Arc::new(
        Lsm::open_in_memory(
            LsmOptions::default()
                .memtable_capacity(32)
                .compaction_policy(CompactionPolicy::Threshold { live_tables: 4 })
                .compaction_threads(2)
                .block_size(256)
                .wal(false),
        )
        .unwrap(),
    );
    const KEYS: u64 = 256;
    for i in 0..KEYS {
        db.put(i, 0u64.to_be_bytes().to_vec()).unwrap();
    }
    db.flush().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                for version in 1u64..=30 {
                    for i in 0..KEYS {
                        db.put(i, version.to_be_bytes().to_vec()).unwrap();
                    }
                }
                stop.store(true, Ordering::SeqCst);
            });
        }
        for reader in 0..2 {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut scans = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let keys: Vec<u64> = db
                        .range(key_from_u64(0)..key_from_u64(KEYS))
                        .map(|r| key_to_u64(&r.unwrap().0).unwrap())
                        .collect();
                    assert_eq!(
                        keys,
                        (0..KEYS).collect::<Vec<u64>>(),
                        "reader {reader}: scan lost or reordered keys (scan #{scans})"
                    );
                    scans += 1;
                }
                assert!(scans > 0);
            });
        }
    });
    assert!(
        db.stats().auto_compactions >= 1,
        "the policy never fired — the scans were not racing compaction"
    );
    assert!(db.stats().range_scans >= 2);
}

#[test]
fn scans_after_wal_replay_see_every_acked_write() {
    let storage: Arc<dyn Storage> = Arc::new(MemoryStorage::new());
    {
        let db = Lsm::open(
            Arc::clone(&storage),
            LsmOptions::default().memtable_capacity(40),
        )
        .unwrap();
        // Some writes reach sstables...
        for i in 0..100u64 {
            db.put(i, format!("flushed-{i}").into_bytes()).unwrap();
        }
        db.flush().unwrap();
        // ...some only the WAL: singles, a batch, overwrites, deletes.
        for i in 100..130u64 {
            db.put(i, format!("walled-{i}").into_bytes()).unwrap();
        }
        let mut batch = WriteBatch::new();
        batch
            .put(130, b"batched-130".to_vec().into())
            .put(131, b"batched-131".to_vec().into())
            .delete(5)
            .put(50, b"rewritten-50".to_vec().into());
        db.write_batch(batch).unwrap();
        db.delete(107).unwrap();
        // Crash: dropped with a dirty memtable; acked data is WAL-only.
    }

    let reopened = Lsm::open(storage, LsmOptions::default().memtable_capacity(40)).unwrap();
    let got: Vec<(u64, Vec<u8>)> = reopened
        .range(key_from_u64(0)..key_from_u64(1_000))
        .map(|r| {
            let (k, v) = r.unwrap();
            (key_to_u64(&k).unwrap(), v.to_vec())
        })
        .collect();

    let mut expect: Vec<(u64, Vec<u8>)> = Vec::new();
    for i in 0..100u64 {
        if i == 5 || i == 107 {
            continue; // deleted
        }
        if i == 50 {
            expect.push((50, b"rewritten-50".to_vec()));
        } else {
            expect.push((i, format!("flushed-{i}").into_bytes()));
        }
    }
    for i in 100..130u64 {
        if i == 107 {
            continue;
        }
        expect.push((i, format!("walled-{i}").into_bytes()));
    }
    expect.push((130, b"batched-130".to_vec()));
    expect.push((131, b"batched-131".to_vec()));
    assert_eq!(got, expect, "post-replay scan diverges from acked state");

    // A bounded window over the replayed region agrees too.
    let window: Vec<u64> = reopened
        .range(key_from_u64(105)..key_from_u64(112))
        .map(|r| key_to_u64(&r.unwrap().0).unwrap())
        .collect();
    assert_eq!(window, vec![105, 106, 108, 109, 110, 111]);
}
