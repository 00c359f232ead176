//! Integration tests for the LSM engine exercising whole-engine flows:
//! crash recovery, read amplification before/after compaction, bloom
//! filter effectiveness, k-way physical compaction and on-disk reopen.

use std::sync::Arc;

use lsm_engine::test_support::corrupt_blob_byte;
use lsm_engine::{
    key_from_u64, CompactionPolicy, CompactionStep, Lsm, LsmOptions, MemoryStorage, ReadContext,
    ReadPathCounters, SstableBuilder, SstableReader, Storage, Strategy,
};

/// Point read returning an owned `Vec<u8>` (test convenience over the
/// zero-copy `Option<Value>` the engine now returns).
fn get_vec(db: &Lsm, key: u64) -> Option<Vec<u8>> {
    db.get(key).unwrap().map(|v| v.to_vec())
}

/// Builds a left-to-right merge schedule over `n` live tables.
fn caterpillar(n: usize) -> Vec<CompactionStep> {
    let mut steps = Vec::new();
    let mut acc = 0usize;
    for next in 1..n {
        let output = n + steps.len();
        steps.push(CompactionStep::new(vec![acc, next]));
        acc = output;
    }
    steps
}

/// Builds a balanced (level-by-level) merge schedule over `n` live tables.
fn balanced(n: usize) -> Vec<CompactionStep> {
    let mut steps = Vec::new();
    let mut current: Vec<usize> = (0..n).collect();
    let mut next_slot = n;
    while current.len() > 1 {
        let mut next_level = Vec::new();
        for pair in current.chunks(2) {
            if pair.len() == 2 {
                steps.push(CompactionStep::new(vec![pair[0], pair[1]]));
                next_level.push(next_slot);
                next_slot += 1;
            } else {
                next_level.push(pair[0]);
            }
        }
        current = next_level;
    }
    steps
}

#[test]
fn read_amplification_drops_after_major_compaction() {
    let db = Lsm::open_in_memory(LsmOptions::default().memtable_capacity(50).wal(false)).unwrap();
    for i in 0u64..1_000 {
        db.put(i, vec![1, 2, 3]).unwrap();
    }
    db.flush().unwrap();
    let tables_before = db.live_tables().len();
    assert!(tables_before >= 10);

    // Reads of old keys before compaction probe many tables.
    for key in (0u64..1_000).step_by(97) {
        assert!(db.get(key).unwrap().is_some());
    }
    let probes_before = db.stats().tables_probed;

    db.major_compact(&balanced(tables_before)).unwrap();
    assert_eq!(db.live_tables().len(), 1);

    for key in (0u64..1_000).step_by(97) {
        assert!(db.get(key).unwrap().is_some());
    }
    let probes_after = db.stats().tables_probed - probes_before;
    assert!(
        probes_after < probes_before,
        "read amplification should drop after compaction ({probes_before} -> {probes_after})"
    );
}

#[test]
fn balanced_and_caterpillar_schedules_produce_identical_contents() {
    let build = |steps_for: &dyn Fn(usize) -> Vec<CompactionStep>| {
        let db =
            Lsm::open_in_memory(LsmOptions::default().memtable_capacity(64).wal(false)).unwrap();
        for i in 0u64..800 {
            db.put(i % 300, format!("v{}", i).into_bytes()).unwrap();
        }
        db.delete(7).unwrap();
        db.flush().unwrap();
        let n = db.live_tables().len();
        let outcome = db.major_compact(&steps_for(n)).unwrap();
        (db.scan_all().unwrap(), outcome)
    };
    let (scan_caterpillar, outcome_caterpillar) = build(&caterpillar);
    let (scan_balanced, outcome_balanced) = build(&balanced);
    assert_eq!(
        scan_caterpillar, scan_balanced,
        "contents are schedule-independent"
    );
    // The costs differ (that is the whole point of the paper) but both
    // write the same final table.
    assert!(
        outcome_caterpillar.entries_written >= outcome_balanced.entries_written
            || outcome_balanced.entries_written >= outcome_caterpillar.entries_written
    );
    assert!(outcome_caterpillar.final_table_id.is_some());
    assert!(outcome_balanced.final_table_id.is_some());
}

#[test]
fn kway_physical_compaction_with_wide_fanin() {
    let db = Lsm::open_in_memory(
        LsmOptions::default()
            .memtable_capacity(100)
            .compaction_fanin(4)
            .wal(false),
    )
    .unwrap();
    for i in 0u64..1_200 {
        db.put(i, b"x".to_vec()).unwrap();
    }
    db.flush().unwrap();
    let n = db.live_tables().len();
    assert!(n >= 8);

    // One 4-way merge wave then a final merge of the remainder.
    let mut steps = Vec::new();
    let mut current: Vec<usize> = (0..n).collect();
    let mut next_slot = n;
    while current.len() > 1 {
        let mut next_level = Vec::new();
        for chunk in current.chunks(4) {
            if chunk.len() >= 2 {
                steps.push(CompactionStep::new(chunk.to_vec()));
                next_level.push(next_slot);
                next_slot += 1;
            } else {
                next_level.push(chunk[0]);
            }
        }
        current = next_level;
    }
    let outcome = db.major_compact(&steps).unwrap();
    assert_eq!(db.live_tables().len(), 1);
    assert_eq!(outcome.entries_written as usize % 1_200, 0);
    for i in (0u64..1_200).step_by(111) {
        assert_eq!(get_vec(&db, i), Some(b"x".to_vec()));
    }
}

#[test]
fn compaction_fails_cleanly_on_malformed_schedules_without_losing_data() {
    let db = Lsm::open_in_memory(LsmOptions::default().memtable_capacity(10).wal(false)).unwrap();
    for i in 0u64..50 {
        db.put(i, vec![9]).unwrap();
    }
    db.flush().unwrap();
    let err = db
        .major_compact(&[CompactionStep::new(vec![0, 99])])
        .unwrap_err();
    assert!(err.to_string().contains("slot"));
    // The store still serves every key.
    for i in 0u64..50 {
        assert_eq!(get_vec(&db, i), Some(vec![9]));
    }
}

#[test]
fn bloom_filters_add_modest_overhead_and_preserve_read_correctness() {
    // Two stores, identical data, one without blooms. The observable
    // contract is: identical read results, and a storage-size overhead
    // bounded by the configured bits-per-key budget. 10 bits/key is
    // 1.25 bytes against ~26-byte entries (≈ 5%) — but v3 block
    // compression shrinks the *data* while the filter bits stay
    // incompressible, so the filter's relative share roughly doubles
    // against the ~11-byte compressed entries. Bound accordingly.
    let run = |bloom_bits: usize| {
        let storage = Arc::new(MemoryStorage::new());
        let db = Lsm::open(
            storage.clone(),
            LsmOptions::default()
                .memtable_capacity(500)
                .bloom_bits_per_key(bloom_bits)
                .wal(false),
        )
        .unwrap();
        for i in 0u64..2_000 {
            db.put(i * 2, b"even".to_vec()).unwrap();
        }
        db.flush().unwrap();
        for i in 0u64..2_000 {
            assert_eq!(get_vec(&db, i * 2 + 1), None, "absent key must miss");
            if i % 7 == 0 {
                assert_eq!(get_vec(&db, i * 2), Some(b"even".to_vec()));
            }
        }
        let table_bytes: u64 = db.live_tables().iter().map(|t| t.encoded_len).sum();
        table_bytes
    };
    let with_bloom = run(10);
    let without_bloom = run(0);
    assert!(with_bloom > without_bloom, "the filter occupies real space");
    assert!(
        (with_bloom as f64) <= without_bloom as f64 * 1.15,
        "10 bits/key should cost ~12% extra space over compressed blocks \
         ({with_bloom} vs {without_bloom})"
    );
}

#[test]
fn wal_recovery_preserves_writes_across_simulated_crash_and_compaction() {
    let storage: Arc<dyn Storage> = Arc::new(MemoryStorage::new());
    {
        let db = Lsm::open(
            Arc::clone(&storage),
            LsmOptions::default().memtable_capacity(100),
        )
        .unwrap();
        for i in 0u64..250 {
            db.put(i, format!("v{i}").into_bytes()).unwrap();
        }
        // 2 full flushes happened automatically; 50 writes remain in the
        // memtable and exist only in the WAL when we "crash" here.
    }
    let db = Lsm::open(
        Arc::clone(&storage),
        LsmOptions::default().memtable_capacity(100),
    )
    .unwrap();
    for i in 0u64..250 {
        assert_eq!(
            get_vec(&db, i),
            Some(format!("v{i}").into_bytes()),
            "key {i} lost across restart"
        );
    }
    db.flush().unwrap();
    let n = db.live_tables().len();
    db.major_compact(&caterpillar(n)).unwrap();
    assert_eq!(db.scan_all().unwrap().len(), 250);
}

#[test]
fn wal_recovery_across_auto_compaction_mid_write_stream() {
    // A store that compacts itself while a write stream is in flight,
    // then "crashes" with unflushed writes in the WAL. Reopening must
    // replay the WAL over the post-compaction manifest consistently.
    let storage: Arc<dyn Storage> = Arc::new(MemoryStorage::new());
    let auto_options = || {
        LsmOptions::default()
            .memtable_capacity(25)
            .compaction_policy(CompactionPolicy::Threshold { live_tables: 4 })
            .compaction_strategy(Strategy::SmallestOutput)
    };
    let compactions_before_crash;
    {
        let db = Lsm::open(Arc::clone(&storage), auto_options()).unwrap();
        // 0..470 wraps keys 0..200 unevenly: updates overlap tables, so
        // compactions triggered mid-stream do real merge work.
        for i in 0u64..470 {
            db.put(i % 200, format!("v{i}").into_bytes()).unwrap();
        }
        db.delete(13).unwrap();
        compactions_before_crash = db.stats().auto_compactions;
        assert!(
            compactions_before_crash >= 2,
            "the policy must have fired during the stream"
        );
        assert!(
            db.memtable_len() > 0,
            "crash with unflushed writes in the WAL"
        );
        // Dropped without flush: the tail exists only in the WAL.
    }
    let db = Lsm::open(Arc::clone(&storage), auto_options()).unwrap();
    // Every key carries its newest pre-crash value.
    for key in 0u64..200 {
        let newest = (0u64..470).rev().find(|i| i % 200 == key).unwrap();
        let expected = if key == 13 {
            None
        } else {
            Some(format!("v{newest}").into_bytes())
        };
        assert_eq!(get_vec(&db, key), expected, "key {key} after recovery");
    }
    // The manifest is consistent: every live table's blob exists and
    // every sstable blob is referenced by the manifest.
    let live_ids: Vec<u64> = db.live_tables().iter().map(|t| t.table_id).collect();
    for &id in &live_ids {
        assert!(
            storage.contains_blob(&SstableReader::blob_name(id)),
            "table {id}"
        );
    }
    for blob in storage.list_blobs() {
        if let Some(id) = SstableReader::id_from_blob_name(&blob) {
            assert!(live_ids.contains(&id), "orphan {blob} survived reopen");
        }
    }
    // The store keeps compacting itself after recovery.
    for i in 0u64..300 {
        db.put(i % 50, b"post-crash".to_vec()).unwrap();
    }
    db.flush().unwrap();
    assert!(db.live_tables().len() < 4, "policy active after recovery");
    assert_eq!(get_vec(&db, 13), Some(b"post-crash".to_vec()));
}

#[test]
fn auto_compaction_scan_is_identical_to_uncompacted_store() {
    // The same write stream through a self-compacting store and a
    // never-compacting store must read back identically.
    let write = |db: &Lsm| {
        for i in 0u64..900 {
            db.put(i % 250, format!("x{i}").into_bytes()).unwrap();
            if i % 97 == 0 {
                db.delete(i % 250).unwrap();
            }
        }
        db.flush().unwrap();
    };
    let compacting = Lsm::open_in_memory(
        LsmOptions::default()
            .memtable_capacity(40)
            .compaction_policy(CompactionPolicy::Threshold { live_tables: 5 })
            .compaction_strategy(Strategy::BalanceTreeInput)
            .compaction_threads(3)
            .wal(false),
    )
    .unwrap();
    let plain =
        Lsm::open_in_memory(LsmOptions::default().memtable_capacity(40).wal(false)).unwrap();
    write(&compacting);
    write(&plain);
    assert!(compacting.stats().auto_compactions >= 2);
    assert!(compacting.live_tables().len() < plain.live_tables().len());
    assert_eq!(compacting.scan_all().unwrap(), plain.scan_all().unwrap());
}

#[test]
fn sstables_written_by_builder_are_readable_by_the_engine_storage() {
    // Cross-module check: a table built directly with SstableBuilder and
    // registered through storage is indistinguishable from a flushed one.
    let storage = MemoryStorage::new();
    let mut builder = SstableBuilder::new(77, 256, 10);
    for i in 0u64..500 {
        builder.add(&lsm_engine::Entry::put(
            key_from_u64(i),
            bytes::Bytes::from(format!("direct-{i}")),
            i,
        ));
    }
    let (data, meta) = builder.finish();
    assert_eq!(meta.entry_count, 500);
    storage
        .write_blob(&SstableReader::blob_name(77), &data)
        .unwrap();
    let table = SstableReader::open(&storage, 77, None).unwrap();
    assert_eq!(table.entry_count(), 500);
    let counters = ReadPathCounters::default();
    let ctx = ReadContext::whole_table(&storage, &counters);
    let entry = table.get(&key_from_u64(123), ctx).unwrap().unwrap();
    assert_eq!(entry.value.as_ref(), b"direct-123");
}

/// A rotten block at the *end* of a compaction input is only met
/// mid-merge (the table opens fine). The compaction must fail with
/// nothing left behind, and the store must keep serving from its inputs.
#[test]
fn compaction_over_a_rotten_input_block_leaves_the_store_serving() {
    let storage = Arc::new(MemoryStorage::new());
    let db = Lsm::open(
        Arc::clone(&storage) as Arc<dyn Storage>,
        LsmOptions::default()
            .memtable_capacity(500)
            .block_size(256)
            .wal(false),
    )
    .unwrap();
    for i in 0u64..1_000 {
        db.put(i, format!("v{i}").into_bytes()).unwrap();
    }
    db.flush().unwrap();
    let tables = db.live_tables();
    assert_eq!(tables.len(), 2);

    let victim = &tables[0];
    let reader =
        SstableReader::open(storage.as_ref(), victim.table_id, Some(victim.encoded_len)).unwrap();
    assert!(reader.block_count() > 4);
    let data_end = (reader.encoded_len() - reader.open_bytes()) as usize;
    let name = SstableReader::blob_name(victim.table_id);
    assert!(corrupt_blob_byte(&storage, &name, data_end - 2));

    let sorted_blobs = || {
        let mut blobs = storage.list_blobs();
        blobs.sort();
        blobs
    };
    let blobs_before = sorted_blobs();
    let err = db
        .major_compact(&[CompactionStep::new(vec![0, 1])])
        .unwrap_err();
    assert!(matches!(err, lsm_engine::Error::Corruption { .. }), "{err}");
    assert_eq!(sorted_blobs(), blobs_before, "no output blob remains");
    assert_eq!(db.live_tables(), tables, "manifest untouched");
    assert_eq!(
        get_vec(&db, 0),
        Some(b"v0".to_vec()),
        "victim's sound blocks"
    );
    assert_eq!(get_vec(&db, 999), Some(b"v999".to_vec()), "the other input");
}

/// Three tables, oldest first: `1 = old`, `2 = two`, then a delete of
/// key 1 (a point tombstone, or a range tombstone over it). A schedule
/// merging only the two newest leaves the oldest out, so the merge must
/// keep the delete: the table left out still holds the key.
#[test]
fn a_partial_schedule_keeps_the_deletes_an_older_table_needs() {
    for range in [false, true] {
        let db = Lsm::open_in_memory(LsmOptions::default().wal(false)).unwrap();
        db.put(1u64, b"old".to_vec()).unwrap();
        db.flush().unwrap();
        db.put(2u64, b"two".to_vec()).unwrap();
        db.flush().unwrap();
        if range {
            db.delete_range(0u64, 2u64).unwrap();
        } else {
            db.delete(1u64).unwrap();
        }
        db.flush().unwrap();
        assert_eq!(db.live_tables().len(), 3);

        db.major_compact(&[CompactionStep::new(vec![1, 2])])
            .unwrap();
        assert_eq!(db.live_tables().len(), 2);
        assert_eq!(get_vec(&db, 1), None, "range delete: {range}");
        assert_eq!(get_vec(&db, 2), Some(b"two".to_vec()));

        // Once the oldest table is in the merge the delete has done its
        // work and goes, with the key it deleted.
        db.major_compact(&[CompactionStep::new(vec![0, 1])])
            .unwrap();
        assert_eq!(get_vec(&db, 1), None, "range delete: {range}");
        let last = db.live_tables();
        assert_eq!(last.len(), 1);
        assert_eq!((last[0].entry_count, last[0].range_tombstone_count), (1, 0));
    }
}

/// Three tables, oldest first: `1 = v1`, `1 = v2`, `3`. An output of
/// the oldest and the newest would span the middle table, and reads,
/// which stop at the newest table holding a key, would find `v1`. Such
/// a schedule is refused before any I/O; a complete schedule may still
/// merge non-adjacent tables on the way.
#[test]
fn a_schedule_whose_output_spans_a_table_it_leaves_out_is_refused() {
    let storage = Arc::new(MemoryStorage::new());
    let db = Lsm::open(
        Arc::clone(&storage) as Arc<dyn Storage>,
        LsmOptions::default().wal(false),
    )
    .unwrap();
    for (key, value) in [(1u64, "v1"), (1, "v2"), (3, "three")] {
        db.put(key, value.as_bytes().to_vec()).unwrap();
        db.flush().unwrap();
    }
    let tables = db.live_tables();
    let (blobs, written) = (storage.list_blobs().len(), storage.bytes_written());

    let err = db
        .major_compact(&[CompactionStep::new(vec![0, 2])])
        .unwrap_err();
    assert!(
        matches!(err, lsm_engine::Error::InvalidCompaction { .. }),
        "{err}"
    );
    assert_eq!(db.live_tables(), tables, "manifest untouched");
    assert_eq!(storage.list_blobs().len(), blobs, "no blob written");
    assert_eq!(storage.bytes_written(), written, "no I/O");
    assert_eq!(get_vec(&db, 1), Some(b"v2".to_vec()));

    db.major_compact(&[
        CompactionStep::new(vec![0, 2]),
        CompactionStep::new(vec![3, 1]),
    ])
    .unwrap();
    assert_eq!(db.live_tables().len(), 1);
    assert_eq!(get_vec(&db, 1), Some(b"v2".to_vec()));
    assert_eq!(get_vec(&db, 3), Some(b"three".to_vec()));
}

/// A policy-triggered compaction merges the newest run of tables, not
/// the whole store: a preloaded table far bigger than the flushes
/// outlives compactions while overwrites and deletes of its keys pile
/// up above it. Fresh keys above the preload are put and deleted a
/// round later: no older table holds them, so merges drop those
/// tombstones even with GC off. The store must read like a `BTreeMap`
/// fed the same writes after every compaction and after a reopen, with
/// and without tombstone GC.
#[test]
fn policy_compactions_merge_the_newest_run_and_match_an_oracle() {
    use std::collections::BTreeMap;

    const PRELOAD: u64 = 5_000;
    const FRESH_PER_ROUND: u64 = 10;
    for gc in [false, true] {
        let storage: Arc<dyn Storage> = Arc::new(MemoryStorage::new());
        let preload = Lsm::open(
            Arc::clone(&storage),
            LsmOptions::default()
                .memtable_capacity(PRELOAD as usize)
                .wal(false),
        )
        .unwrap();
        let mut oracle = BTreeMap::new();
        for key in 0..PRELOAD {
            preload.put(key, b"preload".to_vec()).unwrap();
            oracle.insert(key, b"preload".to_vec());
        }
        preload.flush().unwrap();
        let preloaded = preload.live_tables();
        assert_eq!(preloaded.len(), 1);
        let preload_id = preloaded[0].table_id;
        drop(preload);

        let options = LsmOptions::default()
            .memtable_capacity(100)
            .compaction_policy(CompactionPolicy::Threshold { live_tables: 4 })
            .tombstone_gc(gc);
        let db = Lsm::open(Arc::clone(&storage), options.clone()).unwrap();
        let matches_oracle = |db: &Lsm, oracle: &BTreeMap<u64, Vec<u8>>| {
            let scanned: Vec<(u64, Vec<u8>)> = db
                .scan_all()
                .unwrap()
                .into_iter()
                .map(|(k, v)| (lsm_engine::key_to_u64(&k).unwrap(), v.to_vec()))
                .collect();
            scanned.len() == oracle.len()
                && scanned
                    .iter()
                    .zip(oracle)
                    .all(|(a, b)| (a.0, &a.1) == (*b.0, b.1))
        };
        // Round r puts these keys; round r + 1 deletes them.
        let fresh =
            |round: u64| PRELOAD + round * FRESH_PER_ROUND..PRELOAD + (round + 1) * FRESH_PER_ROUND;
        let (mut seed, mut compactions, mut partial_runs) = (7u64, 0, 0);
        for round in 0..80u64 {
            for op in 0..50 {
                seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let key = (seed >> 33) % PRELOAD;
                if op % 5 == 0 {
                    db.delete(key).unwrap();
                    oracle.remove(&key);
                } else {
                    let value = format!("r{round}-{op}").into_bytes();
                    db.put(key, value.clone()).unwrap();
                    oracle.insert(key, value);
                }
            }
            for key in fresh(round) {
                db.put(key, b"fresh".to_vec()).unwrap();
                oracle.insert(key, b"fresh".to_vec());
            }
            if round > 0 {
                for key in fresh(round - 1) {
                    db.delete(key).unwrap();
                    oracle.remove(&key);
                }
            }
            db.maybe_compact().unwrap();
            let live = db.live_tables();
            assert!(live.len() < 4, "{} live tables", live.len());
            assert!(matches_oracle(&db, &oracle), "gc {gc}, round {round}");
            for key in fresh(round.saturating_sub(2)).start..fresh(round).end {
                assert_eq!(
                    get_vec(&db, key),
                    oracle.get(&key).cloned(),
                    "gc {gc}, round {round}, key {key}"
                );
            }
            let ran = db.stats().auto_compactions;
            if ran > compactions && live.iter().any(|t| t.table_id == preload_id) {
                partial_runs += 1;
            }
            compactions = ran;
        }
        assert!(compactions >= 10, "{compactions} compactions");
        assert!(partial_runs > 0, "the preload table never outlived a run");
        assert!(
            db.stats().tombstones_dropped > 0,
            "gc {gc}: no merge dropped a tombstone"
        );
        drop(db);
        let reopened = Lsm::open(storage, options).unwrap();
        assert!(matches_oracle(&reopened, &oracle), "gc {gc}, after reopen");
    }
}
