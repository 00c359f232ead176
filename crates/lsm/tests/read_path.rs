//! Read-path integration tests: lazy readers, cache correctness and
//! invalidation, bloom-negative zero-I/O probes, and reads proceeding
//! concurrently with (and during) compaction.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lsm_engine::test_support::GatedStorage;
use lsm_engine::{CompactionPolicy, Lsm, LsmOptions, MemoryStorage, Storage};

fn get_vec(db: &Lsm, key: u64) -> Option<Vec<u8>> {
    db.get(key).unwrap().map(|v| v.to_vec())
}

/// A multi-table store with no memtable residue, so every read must go
/// through sstables.
fn multi_table_store(options: LsmOptions) -> Lsm {
    let db = Lsm::open_in_memory(options).unwrap();
    for i in 0..400u64 {
        db.put(i, format!("value-{i}").into_bytes()).unwrap();
    }
    db.flush().unwrap();
    assert_eq!(db.memtable_len(), 0);
    assert!(db.live_tables().len() >= 4, "need a multi-table store");
    db
}

#[test]
fn warm_point_read_loads_at_most_one_data_block() {
    let db = multi_table_store(
        LsmOptions::default()
            .memtable_capacity(100)
            .block_size(256)
            .wal(false),
    );

    // Cold read: opens readers lazily; per table probed it may fetch at
    // most one data block.
    let before = db.stats();
    assert_eq!(get_vec(&db, 250), Some(b"value-250".to_vec()));
    let cold = db.stats();
    let probed = cold.tables_probed - before.tables_probed;
    assert!(
        cold.data_block_reads - before.data_block_reads <= probed,
        "more than one block per probed table"
    );

    // Warm read of the same key: zero data blocks, zero storage bytes.
    let bytes_before = db.storage().bytes_read();
    assert_eq!(get_vec(&db, 250), Some(b"value-250".to_vec()));
    let warm = db.stats();
    assert_eq!(
        warm.data_block_reads, cold.data_block_reads,
        "warm read hit storage for a block"
    );
    assert_eq!(
        db.storage().bytes_read(),
        bytes_before,
        "warm read performed storage I/O"
    );

    // A different key in an already-cached block's table: at most one
    // new block fetch per probed table, and never a full-table read.
    let table_bytes: u64 = db.live_tables().iter().map(|t| t.encoded_len).sum();
    let bytes_before = db.storage().bytes_read();
    assert_eq!(get_vec(&db, 10), Some(b"value-10".to_vec()));
    let fetched = db.storage().bytes_read() - bytes_before;
    assert!(
        fetched < table_bytes / 4,
        "a single get read {fetched} of {table_bytes} total table bytes"
    );
}

/// The bar any reader that loads whole tables fails: over a ten-table
/// store with empty caches, a get averages at most a tenth of one
/// average table blob in storage reads (footer + tail per table open,
/// at most one data block per probe), and the same gets again read
/// nothing at all.
#[test]
fn cold_gets_read_at_most_a_tenth_of_a_table_blob_each() {
    let storage = Arc::new(MemoryStorage::new());
    let db = Lsm::open(
        storage.clone() as Arc<dyn Storage>,
        LsmOptions::default()
            .memtable_capacity(400)
            .block_size(1024)
            .wal(false),
    )
    .unwrap();
    for key in 0..4_000u64 {
        let mut value = key.to_le_bytes().to_vec();
        value.resize(64, b'v');
        db.put(key, value).unwrap();
    }
    db.flush().unwrap();
    assert_eq!(db.memtable_len(), 0, "reads must hit sstables only");
    let tables = db.live_tables();
    assert_eq!(tables.len(), 10);
    let average_blob = tables.iter().map(|t| t.encoded_len).sum::<u64>() / tables.len() as u64;

    // A fixed pseudo-uniform sample of present keys.
    let keys: Vec<u64> = (0..500u64).map(|i| (i * 7919 + 13) % 4_000).collect();
    let bytes_read_by_a_pass = || {
        let before = storage.bytes_read();
        for &key in &keys {
            assert!(db.get(key).unwrap().is_some(), "key {key}");
        }
        storage.bytes_read() - before
    };
    let cold_per_get = bytes_read_by_a_pass() / keys.len() as u64;
    assert!(
        cold_per_get <= average_blob / 10,
        "a cold get read {cold_per_get} bytes; a tenth of the average table blob is {}",
        average_blob / 10
    );
    assert_eq!(bytes_read_by_a_pass(), 0, "warm gets performed storage I/O");
}

#[test]
fn bloom_negative_probes_read_zero_data_blocks() {
    // Generous bloom budget so absent-key probes are (deterministically,
    // for this fixed data set) rejected without touching a block.
    let db = multi_table_store(
        LsmOptions::default()
            .memtable_capacity(100)
            .bloom_bits_per_key(16)
            .wal(false),
    );
    let before = db.stats();
    let absent = 1_000_000u64..1_000_050;
    for key in absent.clone() {
        assert_eq!(get_vec(&db, key), None);
    }
    let after = db.stats();
    let probes = after.tables_probed - before.tables_probed;
    assert_eq!(
        probes,
        50 * db.live_tables().len() as u64,
        "every absent get probes every table"
    );
    assert!(
        after.bloom_negative_probes - before.bloom_negative_probes >= probes * 9 / 10,
        "bloom/range rejections must dominate absent-key probes"
    );
    assert_eq!(
        after.data_block_reads, before.data_block_reads,
        "absent keys far outside the key range must read zero data blocks"
    );
}

#[test]
fn block_cache_evicts_under_a_tiny_budget_and_stays_correct() {
    let db = Lsm::open_in_memory(
        LsmOptions::default()
            .memtable_capacity(100)
            .block_size(256)
            // A budget far smaller than the data: constant eviction.
            .block_cache_capacity_bytes(4 * 1024)
            .wal(false),
    )
    .unwrap();
    for i in 0..600u64 {
        db.put(i, format!("v-{i}").into_bytes()).unwrap();
    }
    db.flush().unwrap();
    // Sweep everything twice: the second pass cannot fit in cache, so
    // evictions must have happened — and every value stays correct.
    for _ in 0..2 {
        for i in 0..600u64 {
            assert_eq!(get_vec(&db, i), Some(format!("v-{i}").into_bytes()));
        }
    }
    let stats = db.stats();
    assert!(stats.block_cache_evictions > 0, "tiny budget must evict");
    // The budget may overshoot by at most one block per cache shard
    // (oversized hot blocks stay resident). Blocks are charged at their
    // *decoded* in-memory footprint — struct overhead triples a
    // 256-byte encoded block, but it stays well under 2 KiB — so the
    // usage must stay within budget + 8 decoded blocks of slack.
    assert!(
        db.block_cache_usage_bytes() <= 4 * 1024 + 8 * 2048,
        "usage {} exceeds the byte budget plus per-shard slack",
        db.block_cache_usage_bytes()
    );
    // Honest accounting cuts the other way too: the decoded blocks the
    // cache holds must be charged at no less than their stored length
    // (compression makes stored ≤ logical, and the cache stores the
    // logical form).
    assert!(
        db.block_cache_usage_bytes() > 0,
        "the sweep left nothing cached"
    );
    // A sequential sweep is LRU's worst case, but a hot key re-read
    // back-to-back must hit even under eviction pressure.
    assert_eq!(get_vec(&db, 3), Some(b"v-3".to_vec()));
    let hits_before = db.stats().block_cache_hits;
    assert_eq!(get_vec(&db, 3), Some(b"v-3".to_vec()));
    assert!(
        db.stats().block_cache_hits > hits_before,
        "hot re-read missed the cache"
    );
}

#[test]
fn table_cache_bounds_open_readers() {
    let db = Lsm::open_in_memory(
        LsmOptions::default()
            .memtable_capacity(10)
            .table_cache_capacity(8)
            .wal(false),
    )
    .unwrap();
    for i in 0..300u64 {
        db.put(i, vec![i as u8]).unwrap();
    }
    db.flush().unwrap();
    assert!(db.live_tables().len() > 8, "more tables than cache slots");
    for i in 0..300u64 {
        assert_eq!(get_vec(&db, i), Some(vec![i as u8]));
    }
    let stats = db.stats();
    assert!(
        db.table_cache_len() <= 8,
        "table cache holds {} readers, capacity 8",
        db.table_cache_len()
    );
    assert!(stats.table_cache_evictions > 0);
    assert!(stats.table_cache_hits > 0);
}

#[test]
fn compaction_invalidates_cached_tables_and_blocks() {
    let db = multi_table_store(
        LsmOptions::default()
            .memtable_capacity(100)
            .block_size(256)
            .wal(false),
    );
    // Warm both caches over every table.
    for i in 0..400u64 {
        assert!(get_vec(&db, i).is_some());
    }
    assert!(db.table_cache_len() >= db.live_tables().len());
    assert!(db.block_cache_usage_bytes() > 0);
    let old_ids: Vec<u64> = db.live_tables().iter().map(|t| t.table_id).collect();

    let run = db.auto_compact().unwrap().expect("tables to merge");
    assert!(run.outcome.merge_ops >= 1);
    let new_ids: Vec<u64> = db.live_tables().iter().map(|t| t.table_id).collect();
    assert!(old_ids.iter().all(|id| !new_ids.contains(id)));

    // Retired readers were purged at the manifest flip: the only cached
    // readers now (before any new read) are none; after reads, only the
    // new table's.
    assert_eq!(db.table_cache_len(), 0, "retired readers purged");
    assert_eq!(db.block_cache_usage_bytes(), 0, "retired blocks purged");
    for i in 0..400u64 {
        assert_eq!(get_vec(&db, i), Some(format!("value-{i}").into_bytes()));
    }
    assert_eq!(db.table_cache_len(), new_ids.len());
}

#[test]
fn gets_are_served_while_a_compaction_is_frozen_mid_write() {
    let storage = Arc::new(GatedStorage::new());
    let db = Arc::new(
        Lsm::open(
            storage.clone() as Arc<dyn Storage>,
            LsmOptions::default()
                .memtable_capacity(50)
                .compaction_threads(2)
                .wal(false),
        )
        .unwrap(),
    );
    for i in 0..300u64 {
        db.put(i, format!("value-{i}").into_bytes()).unwrap();
    }
    db.flush().unwrap();
    assert!(db.live_tables().len() >= 2);

    // Freeze the next compaction at its first output write.
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

    // The compactor is (or will be) blocked inside the gated write while
    // holding the engine's write mutex. Point reads must not care.
    for round in 0..3 {
        for i in (0..300u64).step_by(7) {
            assert_eq!(
                get_vec(&db, i),
                Some(format!("value-{i}").into_bytes()),
                "round {round}: get blocked or failed during compaction"
            );
        }
    }
    assert!(
        !compaction_done.load(Ordering::SeqCst),
        "compaction finished before the gate opened — the reads above \
         proved nothing"
    );

    storage.open_gate();
    let run = compactor.join().unwrap();
    assert!(run.outcome.merge_ops >= 1);
    assert_eq!(db.live_tables().len(), 1);
    for i in 0..300u64 {
        assert_eq!(get_vec(&db, i), Some(format!("value-{i}").into_bytes()));
    }
}

#[test]
fn pressure_reports_the_in_progress_compaction_without_the_write_lock() {
    let storage = Arc::new(GatedStorage::new());
    let db = Arc::new(
        Lsm::open(
            storage.clone() as Arc<dyn Storage>,
            LsmOptions::default()
                .memtable_capacity(50)
                .compaction_policy(CompactionPolicy::Threshold { live_tables: 100 })
                .wal(false),
        )
        .unwrap(),
    );
    for i in 0..300u64 {
        db.put(i, format!("value-{i}").into_bytes()).unwrap();
    }
    db.flush().unwrap();
    let live = db.live_tables().len();
    assert!(live >= 2);

    // Idle: nothing running, no stall, counts reported.
    let idle = db.pressure();
    assert!(!idle.compaction_running);
    assert_eq!(idle.current_stall, Duration::ZERO);
    assert_eq!(idle.live_tables, live);
    assert_eq!(idle.memtable_capacity, 50);
    assert!(idle.memtable_len <= idle.memtable_capacity);
    assert_eq!(
        idle.compaction_backlog, 0,
        "trigger of 100 is nowhere near: no backlog"
    );

    // Freeze a compaction mid-write; the compactor holds the write
    // mutex for the whole (frozen) run.
    storage.close_gate();
    let compactor = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || db.auto_compact().unwrap().expect("tables to merge"))
    };
    // The stamp is set before planning; wait for it to appear.
    let mut observed = db.pressure();
    for _ in 0..2_000 {
        if observed.compaction_running {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        observed = db.pressure();
    }
    assert!(observed.compaction_running, "stamp never observed");
    std::thread::sleep(Duration::from_millis(5));
    let later = db.pressure();
    assert!(later.compaction_running);
    assert!(
        later.current_stall > observed.current_stall,
        "in-progress stall must grow while the compaction is frozen"
    );

    storage.open_gate();
    compactor.join().unwrap();
    let after = db.pressure();
    assert!(!after.compaction_running);
    assert_eq!(after.current_stall, Duration::ZERO);
    assert!(
        after.total_stall > Duration::ZERO,
        "completed stall folded into the total"
    );
    assert_eq!(after.live_tables, 1);
}

#[test]
fn pressure_counts_tables_at_or_past_the_threshold_trigger_as_backlog() {
    let storage: Arc<dyn Storage> = Arc::new(MemoryStorage::new());
    {
        // Build 5 live tables under Manual policy (nothing auto-fires).
        let db = Lsm::open(
            Arc::clone(&storage),
            LsmOptions::default().memtable_capacity(10).wal(false),
        )
        .unwrap();
        for batch in 0..5u64 {
            for i in 0..10u64 {
                db.put(batch * 100 + i, b"x".to_vec()).unwrap();
            }
            db.flush().unwrap();
        }
        assert_eq!(db.live_tables().len(), 5);
        assert_eq!(
            db.pressure().compaction_backlog,
            0,
            "manual policy: no debt"
        );
    }
    // Reopen with a Threshold trigger the table count already exceeds:
    // three tables sit at or past the trigger (3, 4 and 5).
    let db = Lsm::open(
        storage,
        LsmOptions::default()
            .memtable_capacity(10)
            .compaction_policy(CompactionPolicy::Threshold { live_tables: 3 })
            .wal(false),
    )
    .unwrap();
    assert_eq!(db.live_tables().len(), 5);
    assert_eq!(db.pressure().compaction_backlog, 3);
}

#[test]
fn concurrent_readers_stay_consistent_under_auto_compaction() {
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
    const KEYS: u64 = 128;
    for i in 0..KEYS {
        db.put(i, 0u64.to_be_bytes().to_vec()).unwrap();
    }
    db.flush().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        // Writer: monotonically increasing versions; flushes keep firing
        // Threshold compactions throughout.
        {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                for version in 1u64..=40 {
                    for i in 0..KEYS {
                        db.put(i, version.to_be_bytes().to_vec()).unwrap();
                    }
                }
                stop.store(true, Ordering::SeqCst);
            });
        }
        // Readers: every observed value must be a valid version, and
        // per-key versions must never go backwards (monotonic reads per
        // reader are implied by publish-before-clear plus newest-first
        // probing; we assert validity and no lost keys).
        for reader in 0..3 {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut last_seen = vec![0u64; KEYS as usize];
                while !stop.load(Ordering::SeqCst) {
                    for i in 0..KEYS {
                        let raw = db.get(i).unwrap().unwrap_or_else(|| {
                            panic!("reader {reader}: key {i} vanished mid-compaction")
                        });
                        let version = u64::from_be_bytes(raw.as_ref().try_into().unwrap());
                        assert!(version <= 40, "impossible version {version}");
                        assert!(
                            version >= last_seen[i as usize],
                            "reader {reader}: key {i} went backwards \
                             ({} -> {version})",
                            last_seen[i as usize]
                        );
                        last_seen[i as usize] = version;
                    }
                }
            });
        }
    });
    assert!(
        db.stats().auto_compactions >= 1,
        "the policy never fired — the readers were not racing compaction"
    );
    for i in 0..KEYS {
        let raw = db.get(i).unwrap().unwrap();
        assert_eq!(u64::from_be_bytes(raw.as_ref().try_into().unwrap()), 40);
    }
}
