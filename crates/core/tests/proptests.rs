//! Property-based tests for the scheduling library's core invariants.

use compaction_core::bounds::{lopt_lower_bound, ratio_to_lopt};
use compaction_core::heuristics::{
    max_key_frequency, CachedSmallestOutputPolicy, GreedyMerger, SmallestOutputPolicy,
};
use compaction_core::optimal::optimal_schedule;
use compaction_core::{
    schedule_with, Cardinality, ConstantOverhead, HllEstimator, KeySet, Strategy, WeightedKeys,
};
use proptest::prelude::*;
// The explicit `Strategy` enum import above shadows proptest's `Strategy`
// trait name; re-import the trait anonymously so its methods stay usable.
use proptest::strategy::Strategy as _;

/// A random instance: up to `max_sets` sets with keys drawn from a small
/// universe so overlaps are common (the interesting regime).
fn arb_instance(
    max_sets: usize,
    universe: u64,
) -> impl proptest::strategy::Strategy<Value = Vec<KeySet>> {
    proptest::collection::vec(
        proptest::collection::vec(0..universe, 1..40).prop_map(KeySet::from_vec),
        1..=max_sets,
    )
}

fn all_strategies() -> Vec<Strategy> {
    vec![
        Strategy::BalanceTree,
        Strategy::BalanceTreeInput,
        Strategy::BalanceTreeOutput,
        Strategy::SmallestInput,
        Strategy::SmallestOutput,
        Strategy::SmallestOutputHll { precision: 12 },
        Strategy::LargestMatch,
        Strategy::Random { seed: 17 },
        Strategy::Frequency,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strategy produces a valid schedule ending in the union of all
    /// keys, with exactly the expected number of merges for k = 2, and a
    /// cost of at least the LOPT lower bound.
    #[test]
    fn schedules_are_valid_and_complete(sets in arb_instance(10, 120)) {
        let universe = KeySet::union_many(sets.iter());
        for strategy in all_strategies() {
            let schedule = schedule_with(strategy, &sets, 2).unwrap();
            prop_assert_eq!(schedule.len(), sets.len() - 1, "{}", strategy);
            prop_assert_eq!(schedule.final_set(&sets), universe.clone(), "{}", strategy);
            prop_assert!(schedule.cost(&sets) >= lopt_lower_bound(&sets));
            // The root alone never costs more than the whole schedule.
            prop_assert!(schedule.cost(&sets) >= universe.len() as u64);
        }
    }

    /// The simplified cost equals its per-element reformulation (eq. 2.1
    /// vs eq. 2.2), and cost_actual = cost + (internal non-root output
    /// sizes) − (leaf sizes) ... verified via the direct identity
    /// cost_actual = 2·Σ outputs + Σ leaves − Σ leaves? Simplest exact
    /// relation: cost = Σ leaves + Σ outputs and cost_actual = Σ inputs +
    /// Σ outputs over ops; for binary schedules every leaf is an input
    /// exactly once and every non-final output is an input exactly once,
    /// so cost_actual = Σ leaves + 2·Σ outputs − |root|.
    #[test]
    fn cost_identities_hold(sets in arb_instance(8, 60)) {
        let schedule = schedule_with(Strategy::SmallestInput, &sets, 2).unwrap();
        prop_assert_eq!(schedule.cost(&sets), schedule.cost_reformulated(&sets));

        let leaves: u64 = sets.iter().map(|s| s.len() as u64).sum();
        let outputs: u64 = schedule.outputs(&sets).iter().map(|s| s.len() as u64).sum();
        let root = schedule.final_set(&sets).len() as u64;
        prop_assert_eq!(schedule.cost(&sets), leaves + outputs);
        if !schedule.is_empty() {
            prop_assert_eq!(schedule.cost_actual(&sets), leaves + 2 * outputs - root);
        }
    }

    /// The exhaustive optimum lower-bounds every heuristic and is itself
    /// lower-bounded by LOPT; greedy stays within its analytic bound of
    /// the optimum.
    #[test]
    fn optimal_is_a_true_lower_bound(sets in arb_instance(6, 40)) {
        let opt = optimal_schedule(&sets, 2).unwrap();
        let opt_cost = opt.cost(&sets);
        prop_assert!(opt_cost >= lopt_lower_bound(&sets));
        for strategy in all_strategies() {
            let cost = schedule_with(strategy, &sets, 2).unwrap().cost(&sets);
            prop_assert!(cost >= opt_cost, "{} beat the optimum: {} < {}", strategy, cost, opt_cost);
        }
        // Lemma 4.4 against OPT (stronger than against LOPT).
        let si = schedule_with(Strategy::SmallestInput, &sets, 2).unwrap().cost(&sets);
        let bound = compaction_core::bounds::greedy_approximation_bound(sets.len());
        prop_assert!(si as f64 <= bound * opt_cost as f64);
    }

    /// Lemma 4.6: FREQBINARYMERGING is an f-approximation.
    #[test]
    fn frequency_is_an_f_approximation(sets in arb_instance(6, 30)) {
        let f = max_key_frequency(&sets).max(1);
        let freq_cost = schedule_with(Strategy::Frequency, &sets, 2).unwrap().cost(&sets);
        let opt_cost = optimal_schedule(&sets, 2).unwrap().cost(&sets);
        prop_assert!(freq_cost <= f * opt_cost,
            "freq {freq_cost} > f {f} × opt {opt_cost}");
    }

    /// Lemma 4.3: on disjoint instances SI (Huffman) achieves the optimum.
    #[test]
    fn huffman_is_optimal_on_disjoint_sets(sizes in proptest::collection::vec(1u64..12, 2..7)) {
        let mut offset = 0u64;
        let sets: Vec<KeySet> = sizes
            .iter()
            .map(|&len| {
                let s = KeySet::from_range(offset..offset + len);
                offset += len + 1;
                s
            })
            .collect();
        let si = schedule_with(Strategy::SmallestInput, &sets, 2).unwrap().cost(&sets);
        let opt = optimal_schedule(&sets, 2).unwrap().cost(&sets);
        prop_assert_eq!(si, opt);
    }

    /// Larger fan-in never increases the *optimal* cost (every binary
    /// schedule is also a valid k-way schedule), and every k-way greedy
    /// schedule still ends in the full union. Note the greedy heuristics
    /// themselves are not monotone in k — only the optimum is.
    #[test]
    fn kway_optimal_cost_is_monotone_in_k(sets in arb_instance(6, 40)) {
        let universe = KeySet::union_many(sets.iter());
        let mut previous = u64::MAX;
        for k in [2usize, 3, 4] {
            let greedy = schedule_with(Strategy::SmallestInput, &sets, k).unwrap();
            prop_assert_eq!(greedy.final_set(&sets), universe.clone());
            let opt = optimal_schedule(&sets, k).unwrap();
            let cost = opt.cost(&sets);
            prop_assert!(cost <= previous, "k={k} optimal cost {cost} > previous {previous}");
            prop_assert!(greedy.cost(&sets) >= cost);
            previous = cost;
        }
    }

    /// Cost models: scaling weights scales costs; adding a constant
    /// overhead adds exactly (ops + n) × overhead under eq. 2.1 counting
    /// of non-empty nodes.
    #[test]
    fn cost_models_compose_sensibly(sets in arb_instance(7, 50)) {
        let schedule = schedule_with(Strategy::SmallestOutput, &sets, 2).unwrap();
        let base = schedule.cost_with(&sets, &Cardinality);
        let scaled = schedule.cost_with(&sets, &WeightedKeys::uniform(3));
        prop_assert_eq!(scaled, base * 3);

        let with_overhead = schedule.cost_with(&sets, &ConstantOverhead::new(Cardinality, 10));
        let nonempty_nodes =
            sets.iter().filter(|s| !s.is_empty()).count() as u64 + schedule.len() as u64;
        prop_assert_eq!(with_overhead, base + 10 * nonempty_nodes);
    }

    /// Caching sketches and pair estimates changes the work, not the
    /// schedule: the cached SO(HLL) policy builds exactly the schedule of
    /// the uncached one at every fan-in, ties included — the small
    /// universe makes partly tied estimates common, where a tie-break on
    /// anything but `(estimate, lower slot, higher slot)` shows.
    #[test]
    fn cached_hll_policy_builds_the_uncached_schedule(
        wide in arb_instance(10, 120),
        tied in arb_instance(10, 24),
    ) {
        for (sets, k) in [&wide, &tied].into_iter().flat_map(|s| [(s, 2), (s, 3), (s, 4)]) {
            let merger = GreedyMerger::new(sets, k).unwrap();
            let cached = merger.run(CachedSmallestOutputPolicy::new(12)).unwrap();
            let uncached = merger
                .run(SmallestOutputPolicy::new(HllEstimator::new(12).unwrap()))
                .unwrap();
            prop_assert_eq!(cached, uncached, "k = {}", k);
        }
    }

    /// The ratio to LOPT never exceeds the worst of the analytic bounds
    /// for the three O(log n) heuristics on random instances.
    #[test]
    fn ratios_stay_below_analytic_bounds(sets in arb_instance(10, 100)) {
        for strategy in [Strategy::BalanceTreeInput, Strategy::SmallestInput, Strategy::SmallestOutput] {
            let schedule = schedule_with(strategy, &sets, 2).unwrap();
            let ratio = ratio_to_lopt(&schedule, &sets);
            let log_bound = compaction_core::bounds::balance_tree_approximation_bound(sets.len());
            let greedy_bound = compaction_core::bounds::greedy_approximation_bound(sets.len());
            prop_assert!(ratio <= log_bound.max(greedy_bound) + 1e-9,
                "{} ratio {} exceeds bounds", strategy, ratio);
        }
    }
}
