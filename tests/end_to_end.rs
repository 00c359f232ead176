//! Cross-crate integration tests: YCSB workload → simulator sstables →
//! compaction-core schedule → physical execution in the LSM engine.

use nosql_compaction::core::{schedule_with, KeySet, Strategy};
use nosql_compaction::lsm::{
    key_to_u64, CompactionPolicy, CompactionStep, Lsm, LsmOptions, MemoryStorage, Storage,
};
use nosql_compaction::sim::{run_strategy, SstableGenerator};
use nosql_compaction::ycsb::{Distribution, OperationKind, WorkloadSpec};
use std::sync::Arc;

/// Loads a workload into an LSM store and returns (store, model of the
/// expected final contents).
fn load_workload(
    spec: &WorkloadSpec,
    memtable_capacity: usize,
) -> (Lsm, std::collections::BTreeMap<u64, bool>) {
    let db = Lsm::open_in_memory(
        LsmOptions::default()
            .memtable_capacity(memtable_capacity)
            .wal(false),
    )
    .unwrap();
    let mut model = std::collections::BTreeMap::new();
    for op in spec.generator().write_operations() {
        match op.kind {
            OperationKind::Delete => {
                db.delete(op.key).unwrap();
                model.insert(op.key, false);
            }
            _ => {
                db.put(op.key, op.key.to_be_bytes().to_vec()).unwrap();
                model.insert(op.key, true);
            }
        }
    }
    db.flush().unwrap();
    (db, model)
}

#[test]
fn scheduled_physical_compaction_preserves_every_key() {
    let spec = WorkloadSpec::builder()
        .record_count(500)
        .operation_count(3_000)
        .update_proportion(0.5)
        .insert_proportion(0.4)
        .delete_proportion(0.1)
        .read_proportion(0.0)
        .distribution(Distribution::zipfian_default())
        .seed(5)
        .build()
        .unwrap();
    let (db, model) = load_workload(&spec, 200);
    assert!(
        db.live_tables().len() > 2,
        "need several runs for a real compaction"
    );

    // Schedule over the *actual* key sets of the live tables, derived via
    // the same memtable pipeline the simulator uses.
    let sets: Vec<KeySet> = db
        .live_tables()
        .iter()
        .map(|t| KeySet::from_range(0..t.entry_count)) // sizes drive the strategy
        .collect();
    let schedule = schedule_with(Strategy::SmallestInput, &sets, 2).unwrap();
    let steps: Vec<CompactionStep> = schedule
        .ops()
        .iter()
        .map(|op| CompactionStep::new(op.inputs.clone()))
        .collect();
    let outcome = db.major_compact(&steps).unwrap();
    assert_eq!(db.live_tables().len(), 1);
    assert_eq!(outcome.merge_ops, steps.len());

    // Every surviving key reads back; every deleted key stays deleted.
    for (&key, &live) in &model {
        let value = db.get(key).unwrap();
        if live {
            assert_eq!(
                value.as_deref(),
                Some(key.to_be_bytes().as_slice()),
                "key {key}"
            );
        } else {
            assert_eq!(value, None, "deleted key {key} resurrected");
        }
    }
    // The scan matches the model exactly.
    let scanned: Vec<u64> = db
        .scan_all()
        .unwrap()
        .into_iter()
        .map(|(k, _)| key_to_u64(&k).unwrap())
        .collect();
    let expected: Vec<u64> = model
        .iter()
        .filter(|(_, &live)| live)
        .map(|(&k, _)| k)
        .collect();
    assert_eq!(scanned, expected);
}

#[test]
fn simulator_cost_matches_physical_entry_cost_for_same_schedule() {
    // The simulator's cost_actual (in keys) must equal the LSM engine's
    // entry-level accounting when the same schedule is executed over the
    // same key sets: this ties the theory crate's cost function to the
    // bytes a real engine moves.
    let spec = WorkloadSpec::builder()
        .record_count(400)
        .operation_count(2_000)
        .update_percent(50)
        .distribution(Distribution::Latest)
        .seed(9)
        .build()
        .unwrap();
    let sstables = SstableGenerator::new(150).generate(&spec);
    let schedule = schedule_with(Strategy::BalanceTreeInput, &sstables, 2).unwrap();
    let model_cost = schedule.cost_actual(&sstables);

    // Build an LSM store containing exactly those key sets as its runs.
    let db = Lsm::open_in_memory(
        LsmOptions::default()
            .memtable_capacity(usize::MAX >> 1)
            .wal(false),
    )
    .unwrap();
    for table in &sstables {
        for key in table.iter() {
            db.put(key, b"x".to_vec()).unwrap();
        }
        db.flush().unwrap();
    }
    assert_eq!(db.live_tables().len(), sstables.len());

    let steps: Vec<CompactionStep> = schedule
        .ops()
        .iter()
        .map(|op| CompactionStep::new(op.inputs.clone()))
        .collect();
    let outcome = db.major_compact(&steps).unwrap();
    assert_eq!(
        outcome.entry_cost(),
        model_cost,
        "theoretical cost_actual must equal physical entries read + written"
    );
}

#[test]
fn hll_backed_so_schedule_is_close_to_exact_on_ycsb_data() {
    let spec = WorkloadSpec::builder()
        .record_count(1_000)
        .operation_count(8_000)
        .update_percent(80)
        .distribution(Distribution::zipfian_default())
        .seed(2)
        .build()
        .unwrap();
    let sstables = SstableGenerator::new(300).generate(&spec);
    let exact = run_strategy(Strategy::SmallestOutput, &sstables, 2).unwrap();
    let approx = run_strategy(Strategy::SmallestOutputHll { precision: 14 }, &sstables, 2).unwrap();
    assert!(
        (approx.cost_actual as f64) <= exact.cost_actual as f64 * 1.05,
        "HLL-backed SO ({}) drifted more than 5% from exact SO ({})",
        approx.cost_actual,
        exact.cost_actual
    );
}

/// Drives the identical YCSB write stream through a self-compacting
/// engine configured with `strategy`, returning the store.
fn drive_policy_engine(strategy: Strategy, spec: &WorkloadSpec) -> Lsm {
    let db = Lsm::open_in_memory(
        LsmOptions::default()
            .memtable_capacity(150)
            .compaction_policy(CompactionPolicy::Threshold { live_tables: 6 })
            .compaction_strategy(strategy)
            .compaction_threads(2)
            .wal(false),
    )
    .unwrap();
    for op in spec.generator().write_operations() {
        match op.kind {
            OperationKind::Delete => db.delete(op.key).unwrap(),
            _ => db.put(op.key, op.key.to_le_bytes().to_vec()).unwrap(),
        }
    }
    db.flush().unwrap();
    db
}

#[test]
fn policy_driven_engine_reproduces_figure7_ordering_live() {
    // The acceptance criterion of the self-compacting engine: opened with
    // CompactionPolicy::Threshold and a Strategy, the engine auto-compacts
    // under a YCSB write stream with no manual CompactionStep
    // construction, and the measured cost_actual preserves the paper's
    // Figure 7 ordering — SmallestOutput ≤ Random on the same stream.
    let spec = WorkloadSpec::builder()
        .record_count(500)
        .operation_count(4_000)
        .update_percent(60)
        .distribution(Distribution::Latest)
        .seed(7)
        .build()
        .unwrap();

    let so = drive_policy_engine(Strategy::SmallestOutput, &spec);
    let random = drive_policy_engine(Strategy::Random { seed: 11 }, &spec);

    // Both engines compacted themselves.
    assert!(
        so.stats().auto_compactions >= 2,
        "SO engine must auto-compact"
    );
    assert_eq!(
        so.stats().auto_compactions,
        random.stats().auto_compactions,
        "identical stream fires the policy identically"
    );
    assert_eq!(so.stats().flushes, random.stats().flushes);

    // Figure 7 ordering, live-engine edition.
    let so_cost = so.stats().compaction_entry_cost();
    let random_cost = random.stats().compaction_entry_cost();
    assert!(so_cost > 0);
    assert!(
        so_cost <= random_cost,
        "SmallestOutput ({so_cost}) must not cost more than Random ({random_cost})"
    );

    // The planner's model predicted the physical work exactly (u64 keys
    // observe exactly; no deletes in this stream).
    assert_eq!(so_cost, so.stats().compaction_predicted_cost);

    // And the engines still serve every key.
    let scanned = so.scan_all().unwrap();
    assert_eq!(
        scanned,
        random.scan_all().unwrap(),
        "contents strategy-independent"
    );
    assert!(!scanned.is_empty());
}

#[test]
fn crash_recovery_across_policy_driven_compaction() {
    // WAL replay + manifest consistency after compactions triggered
    // mid-write-stream, exercised through the umbrella crate.
    let storage: Arc<dyn Storage> = Arc::new(MemoryStorage::new());
    let options = || {
        LsmOptions::default()
            .memtable_capacity(50)
            .compaction_policy(CompactionPolicy::Threshold { live_tables: 3 })
            .compaction_strategy(Strategy::BalanceTreeInput)
    };
    let spec = WorkloadSpec::builder()
        .record_count(300)
        .operation_count(1_500)
        .update_percent(70)
        .distribution(Distribution::zipfian_default())
        .seed(21)
        .build()
        .unwrap();
    let mut model = std::collections::BTreeMap::new();
    {
        let db = Lsm::open(Arc::clone(&storage), options()).unwrap();
        for op in spec.generator().write_operations() {
            match op.kind {
                OperationKind::Delete => {
                    db.delete(op.key).unwrap();
                    model.remove(&op.key);
                }
                _ => {
                    db.put(op.key, op.key.to_le_bytes().to_vec()).unwrap();
                    model.insert(op.key, op.key.to_le_bytes().to_vec());
                }
            }
        }
        assert!(db.stats().auto_compactions >= 1, "policy fired mid-stream");
        // Crash: unflushed tail lives only in the WAL.
    }
    let db = Lsm::open(storage, options()).unwrap();
    for (&key, value) in &model {
        assert_eq!(
            db.get(key).unwrap().as_deref(),
            Some(value.as_slice()),
            "key {key} lost across crash + auto-compaction"
        );
    }
    let scanned: Vec<u64> = db
        .scan_all()
        .unwrap()
        .into_iter()
        .map(|(k, _)| key_to_u64(&k).unwrap())
        .collect();
    let expected: Vec<u64> = model.keys().copied().collect();
    assert_eq!(scanned, expected, "recovered scan equals the model");
}

#[test]
fn every_strategy_handles_the_full_ycsb_pipeline() {
    let spec = WorkloadSpec::builder()
        .record_count(300)
        .operation_count(3_000)
        .update_percent(30)
        .distribution(Distribution::Uniform)
        .seed(4)
        .build()
        .unwrap();
    let sstables = SstableGenerator::new(100).generate(&spec);
    let universe = KeySet::union_many(sstables.iter());
    for strategy in [
        Strategy::BalanceTree,
        Strategy::BalanceTreeInput,
        Strategy::BalanceTreeOutput,
        Strategy::SmallestInput,
        Strategy::SmallestOutput,
        Strategy::SmallestOutputHll { precision: 12 },
        Strategy::LargestMatch,
        Strategy::Random { seed: 3 },
        Strategy::Frequency,
    ] {
        let schedule = schedule_with(strategy, &sstables, 2).unwrap();
        assert_eq!(schedule.final_set(&sstables), universe, "{strategy}");
        let result = run_strategy(strategy, &sstables, 2).unwrap();
        assert!(result.cost_actual >= result.lopt.saturating_sub(universe.len() as u64));
    }
}
