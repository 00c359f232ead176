//! Property-based tests: the LSM store behaves like a model `BTreeMap`
//! under arbitrary sequences of puts, deletes, flushes and compactions.

use std::collections::BTreeMap;

use lsm_engine::{CompactionStep, Lsm, LsmOptions};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Put(u64, Vec<u8>),
    Delete(u64),
    Flush,
    MajorCompact,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u64..200, proptest::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(k, v)| Op::Put(k, v)),
        2 => (0u64..200).prop_map(Op::Delete),
        1 => Just(Op::Flush),
        1 => Just(Op::MajorCompact),
    ]
}

/// Builds a left-to-right (caterpillar) merge schedule over `n` tables.
fn caterpillar(n: usize) -> Vec<CompactionStep> {
    let mut steps = Vec::new();
    if n < 2 {
        return steps;
    }
    let mut acc = 0usize;
    for next in 1..n {
        let output_slot = n + steps.len();
        steps.push(CompactionStep::new(vec![acc, next]));
        acc = output_slot;
    }
    steps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After any operation sequence, every key reads back exactly what a
    /// model BTreeMap says it should be, and scan_all matches the model.
    #[test]
    fn store_matches_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let db = Lsm::open_in_memory(LsmOptions::default().memtable_capacity(8)).unwrap();
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();

        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    db.put(*k, v.clone()).unwrap();
                    model.insert(*k, v.clone());
                }
                Op::Delete(k) => {
                    db.delete(*k).unwrap();
                    model.remove(k);
                }
                Op::Flush => {
                    db.flush().unwrap();
                }
                Op::MajorCompact => {
                    db.flush().unwrap();
                    let n = db.live_tables().len();
                    let steps = caterpillar(n);
                    if !steps.is_empty() {
                        db.major_compact(&steps).unwrap();
                        prop_assert_eq!(db.live_tables().len(), 1);
                    }
                }
            }
        }

        for (k, v) in &model {
            let got = db.get(*k).unwrap();
            prop_assert_eq!(got.as_deref(), Some(v.as_slice()), "key {}", k);
        }
        // Spot-check some absent keys.
        for k in 200..205u64 {
            prop_assert_eq!(db.get(k).unwrap(), None);
        }
        // Full scan equals the model (keys and values).
        let scanned: Vec<(u64, Vec<u8>)> = db
            .scan_all()
            .unwrap()
            .into_iter()
            .map(|(k, v)| (lsm_engine::key_to_u64(&k).unwrap(), v.to_vec()))
            .collect();
        let expected: Vec<(u64, Vec<u8>)> =
            model.iter().map(|(k, v)| (*k, v.clone())).collect();
        prop_assert_eq!(scanned, expected);
    }

    /// Major compaction never changes the visible contents of the store.
    #[test]
    fn compaction_preserves_contents(
        keys in proptest::collection::vec(0u64..500, 1..300),
        deletes in proptest::collection::vec(0u64..500, 0..50),
    ) {
        let db = Lsm::open_in_memory(LsmOptions::default().memtable_capacity(16)).unwrap();
        for (i, k) in keys.iter().enumerate() {
            db.put(*k, format!("v{i}").into_bytes()).unwrap();
        }
        for k in &deletes {
            db.delete(*k).unwrap();
        }
        db.flush().unwrap();
        let before = db.scan_all().unwrap();

        let n = db.live_tables().len();
        let steps = caterpillar(n);
        if !steps.is_empty() {
            db.major_compact(&steps).unwrap();
        }
        let after = db.scan_all().unwrap();
        prop_assert_eq!(before, after);
        // After a major compaction a read probes at most one table.
        prop_assert!(db.live_tables().len() <= 1);
    }
}
