//! Property-based tests for the simulator: phase 1 invariants and the
//! consistency of the runner's measurements.

use compaction_core::Strategy;
use compaction_sim::{run_strategy, SstableGenerator};
use proptest::prelude::*;
use ycsb_gen::{Distribution, WorkloadSpec};

fn arb_distribution() -> impl proptest::strategy::Strategy<Value = Distribution> {
    prop_oneof![
        Just(Distribution::Uniform),
        Just(Distribution::zipfian_default()),
        Just(Distribution::Latest),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Phase 1 invariants: no sstable exceeds the memtable capacity, every
    /// written key appears in exactly the tables whose flush window
    /// covered it, and the union of all sstables equals the set of keys
    /// the workload wrote.
    #[test]
    fn phase1_respects_capacity_and_covers_all_written_keys(
        record_count in 50u64..400,
        operation_count in 0u64..3_000,
        update_pct in 0u32..=100,
        memtable in 10usize..300,
        dist in arb_distribution(),
        seed in any::<u64>(),
    ) {
        let spec = WorkloadSpec::builder()
            .record_count(record_count)
            .operation_count(operation_count)
            .update_percent(update_pct)
            .distribution(dist)
            .seed(seed)
            .build()
            .unwrap();
        let generator = SstableGenerator::new(memtable);
        let sstables = generator.generate(&spec);

        prop_assert!(sstables.iter().all(|s| s.len() <= memtable));
        prop_assert!(sstables.iter().all(|s| !s.is_empty()));

        let written: std::collections::BTreeSet<u64> = spec
            .generator()
            .write_operations()
            .iter()
            .map(|op| op.key)
            .collect();
        let covered: std::collections::BTreeSet<u64> = sstables
            .iter()
            .flat_map(|s| s.iter().collect::<Vec<_>>())
            .collect();
        prop_assert_eq!(written, covered);
    }

    /// Runner consistency: for any generated instance, cost ≥ LOPT,
    /// cost_actual ≥ cost − LOPT (every non-leaf node is written at least
    /// once), and the number of merge ops is n − 1 for k = 2.
    #[test]
    fn runner_measurements_are_internally_consistent(
        update_pct in 0u32..=100,
        seed in any::<u64>(),
    ) {
        let spec = WorkloadSpec::builder()
            .record_count(300)
            .operation_count(2_000)
            .update_percent(update_pct)
            .distribution(Distribution::Latest)
            .seed(seed)
            .build()
            .unwrap();
        let sstables = SstableGenerator::new(100).generate(&spec);
        prop_assume!(sstables.len() >= 2);
        for strategy in [
            Strategy::SmallestInput,
            Strategy::BalanceTreeInput,
            Strategy::SmallestOutputHll { precision: 12 },
        ] {
            let result = run_strategy(strategy, &sstables, 2).unwrap();
            prop_assert_eq!(result.n_sstables, sstables.len());
            prop_assert_eq!(result.merge_ops, sstables.len() - 1);
            prop_assert!(result.cost >= result.lopt);
            prop_assert!(result.cost_actual + result.lopt >= result.cost);
            prop_assert!(result.tree_height >= 1);
            prop_assert!(result.tree_height < sstables.len());
        }
    }
}
