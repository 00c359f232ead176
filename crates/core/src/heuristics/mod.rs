//! The greedy scheduling framework (Algorithm 1) and the paper's
//! heuristics.
//!
//! Every strategy is a policy for the `CHOOSETWOSETS` subroutine (here
//! generalized to choose up to `k` sets): the surrounding
//! [`GreedyMerger`] loop is shared, exactly as in the paper's
//! `GREEDYBINARYMERGING`. Section 4 proves `O(log n)` approximation for
//! BALANCETREE, SMALLESTINPUT and SMALLESTOUTPUT, an `Ω(n)` lower bound
//! for LARGESTMATCH, and an `f`-approximation for the relabel-and-replay
//! Algorithm 2 exposed here as [`Strategy::Frequency`].

mod balance_tree;
mod cached_output;
mod freq;
mod largest_match;
mod random;
mod smallest;

pub use balance_tree::BalanceTreePolicy;
pub use cached_output::CachedSmallestOutputPolicy;
pub use freq::{frequency_schedule, max_key_frequency};
pub use largest_match::LargestMatchPolicy;
pub use random::RandomPolicy;
pub use smallest::{SmallestInputPolicy, SmallestOutputPolicy};

use crate::estimator::{CardinalityEstimator, ExactEstimator};
use crate::{Error, KeySet, MergeOp, MergeSchedule};

/// One live set in the greedy collection `C`.
#[derive(Debug, Clone)]
pub struct CollectionItem {
    /// The slot this set occupies in the schedule being built.
    pub slot: usize,
    /// The materialized key set.
    pub set: KeySet,
    /// The BALANCETREE level annotation (initial sets start at level 1).
    pub level: u32,
}

/// A policy choosing which sets to merge next (the paper's
/// `CHOOSETWOSETS`, generalized to fan-in `k`).
pub trait ChoosePolicy: std::fmt::Debug {
    /// Chooses between 2 and `k` indices into `items` to merge in this
    /// iteration. `items` always holds at least two entries. Policies may
    /// mutate level annotations (BALANCETREE does).
    fn choose(&mut self, items: &mut [CollectionItem], k: usize) -> Vec<usize>;

    /// Told after every merge that slots `inputs` left the collection and
    /// their union entered as slot `output`, for policies caching per slot.
    fn merged(&mut self, _inputs: &[usize], _output: usize) {}
}

/// The generic greedy merger: repeatedly ask the policy for sets to
/// merge, replace them by their union, record the operation.
///
/// # Examples
///
/// ```
/// use compaction_core::heuristics::{GreedyMerger, SmallestInputPolicy};
/// use compaction_core::KeySet;
///
/// let sets = vec![
///     KeySet::from_iter([1u64, 2]),
///     KeySet::from_iter([3u64]),
///     KeySet::from_iter([4u64, 5, 6]),
/// ];
/// let schedule = GreedyMerger::new(&sets, 2)?.run(SmallestInputPolicy)?;
/// assert_eq!(schedule.len(), 2);
/// # Ok::<(), compaction_core::Error>(())
/// ```
#[derive(Debug)]
pub struct GreedyMerger {
    sets: Vec<KeySet>,
    fanin: usize,
}

impl GreedyMerger {
    /// Prepares a merger over `sets` with per-iteration fan-in `k`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyInput`] for zero sets and
    /// [`Error::InvalidFanIn`] for `k < 2`.
    pub fn new(sets: &[KeySet], k: usize) -> Result<Self, Error> {
        if sets.is_empty() {
            return Err(Error::EmptyInput);
        }
        if k < 2 {
            return Err(Error::InvalidFanIn { requested: k });
        }
        Ok(Self {
            sets: sets.to_vec(),
            fanin: k,
        })
    }

    /// Runs Algorithm 1 with the given choose policy and returns the
    /// resulting schedule.
    ///
    /// # Errors
    ///
    /// Propagates schedule-validation errors (these indicate a policy bug
    /// and cannot occur with the built-in policies).
    pub fn run<P: ChoosePolicy>(&self, mut policy: P) -> Result<MergeSchedule, Error> {
        let n = self.sets.len();
        let mut items: Vec<CollectionItem> = self
            .sets
            .iter()
            .cloned()
            .enumerate()
            .map(|(slot, set)| CollectionItem {
                slot,
                set,
                level: 1,
            })
            .collect();
        let mut ops: Vec<MergeOp> = Vec::with_capacity(n.saturating_sub(1));
        while items.len() > 1 {
            let mut chosen = policy.choose(&mut items, self.fanin);
            chosen.sort_unstable();
            chosen.dedup();
            debug_assert!(chosen.len() >= 2, "policy must choose at least two sets");
            let merged_set = KeySet::union_many(chosen.iter().map(|&i| &items[i].set));
            let merged_level = chosen.iter().map(|&i| items[i].level).max().unwrap_or(1) + 1;
            let input_slots: Vec<usize> = chosen.iter().map(|&i| items[i].slot).collect();
            let output_slot = n + ops.len();
            policy.merged(&input_slots, output_slot);
            ops.push(MergeOp::new(input_slots));
            // Remove chosen items (descending index order keeps indices valid).
            for &i in chosen.iter().rev() {
                items.remove(i);
            }
            items.push(CollectionItem {
                slot: output_slot,
                set: merged_set,
                level: merged_level,
            });
        }
        MergeSchedule::new(n, self.fanin, ops)
    }
}

/// The compaction strategies evaluated in the paper (Section 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Plain BALANCETREE (Section 4.3.1): level-by-level merging with
    /// arbitrary pairing inside each level, as drawn in Figure 4.
    BalanceTree,
    /// BALANCETREE with SMALLESTINPUT ordering inside each level — the
    /// paper's `BT(I)`, its recommended strategy.
    BalanceTreeInput,
    /// BALANCETREE with SMALLESTOUTPUT ordering inside each level — the
    /// paper's `BT(O)`.
    BalanceTreeOutput,
    /// SMALLESTINPUT (`SI`): merge the `k` smallest sets.
    SmallestInput,
    /// SMALLESTOUTPUT (`SO`) with exact union cardinalities.
    SmallestOutput,
    /// SMALLESTOUTPUT with HyperLogLog-estimated union cardinalities, as
    /// implemented in the paper's simulator: sketches and pair estimates
    /// cached, so an iteration makes only the fresh pair estimates that
    /// involve the newly merged table (`C(n−k, k−1)` at `k = 2`, Section
    /// 5.1). `precision` is the HLL precision `p` (14 in the evaluation).
    SmallestOutputHll {
        /// HyperLogLog precision (number of registers = `2^precision`).
        precision: u8,
    },
    /// LARGESTMATCH: merge the pair with the largest intersection.
    LargestMatch,
    /// RANDOM: merge `k` uniformly random sets (the evaluation's
    /// strawman baseline).
    Random {
        /// RNG seed, so experiments are reproducible.
        seed: u64,
    },
    /// FREQBINARYMERGING (Algorithm 2): relabel the sets to be disjoint,
    /// solve optimally with SMALLESTINPUT, replay the tree on the
    /// original sets. An `f`-approximation where `f` is the maximum key
    /// frequency.
    Frequency,
}

impl Strategy {
    /// Short name used in experiment reports (matches the paper's labels).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::BalanceTree => "BT",
            Strategy::BalanceTreeInput => "BT(I)",
            Strategy::BalanceTreeOutput => "BT(O)",
            Strategy::SmallestInput => "SI",
            Strategy::SmallestOutput => "SO",
            Strategy::SmallestOutputHll { .. } => "SO(HLL)",
            Strategy::LargestMatch => "LM",
            Strategy::Random { .. } => "RANDOM",
            Strategy::Frequency => "FREQ",
        }
    }

    /// The five strategies compared in Figure 7, in the paper's order,
    /// with `seed` for the RANDOM strawman and HLL-backed SO as in the
    /// paper's simulator.
    #[must_use]
    pub fn paper_lineup(seed: u64) -> Vec<Strategy> {
        vec![
            Strategy::SmallestInput,
            Strategy::SmallestOutputHll { precision: 14 },
            Strategy::BalanceTreeInput,
            Strategy::BalanceTreeOutput,
            Strategy::Random { seed },
        ]
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Builds a merge schedule for `sets` with fan-in `k` using `strategy`.
///
/// This is the crate's main entry point; see [`Strategy`] for the
/// available heuristics.
///
/// # Errors
///
/// Returns [`Error::EmptyInput`] for zero sets and
/// [`Error::InvalidFanIn`] for `k < 2`.
///
/// # Examples
///
/// ```
/// use compaction_core::{schedule_with, KeySet, Strategy};
///
/// let sets = vec![
///     KeySet::from_iter([1u64, 2, 3]),
///     KeySet::from_iter([2u64, 3, 4]),
///     KeySet::from_iter([9u64]),
/// ];
/// let schedule = schedule_with(Strategy::SmallestInput, &sets, 2)?;
/// assert_eq!(schedule.final_set(&sets).len(), 5);
/// # Ok::<(), compaction_core::Error>(())
/// ```
pub fn schedule_with(
    strategy: Strategy,
    sets: &[KeySet],
    k: usize,
) -> Result<MergeSchedule, Error> {
    let merger = GreedyMerger::new(sets, k)?;
    match strategy {
        Strategy::BalanceTree => merger.run(BalanceTreePolicy::arbitrary()),
        Strategy::BalanceTreeInput => merger.run(BalanceTreePolicy::with_smallest_input()),
        Strategy::BalanceTreeOutput => merger.run(BalanceTreePolicy::with_smallest_output()),
        Strategy::SmallestInput => merger.run(SmallestInputPolicy),
        Strategy::SmallestOutput => merger.run(SmallestOutputPolicy::new(ExactEstimator)),
        Strategy::SmallestOutputHll { precision } => {
            merger.run(CachedSmallestOutputPolicy::new(precision))
        }
        Strategy::LargestMatch => merger.run(LargestMatchPolicy),
        Strategy::Random { seed } => merger.run(RandomPolicy::new(seed)),
        Strategy::Frequency => frequency_schedule(sets, k),
    }
}

/// Picks, among `items`, the `count` indices whose sets have the smallest
/// cardinality (ties broken by slot for determinism). Shared by SI and by
/// BALANCETREE's within-level ordering.
pub(crate) fn smallest_by_len(
    items: &[CollectionItem],
    candidates: &[usize],
    count: usize,
) -> Vec<usize> {
    let mut sorted: Vec<usize> = candidates.to_vec();
    sorted.sort_by_key(|&i| (items[i].set.len(), items[i].slot));
    sorted.truncate(count);
    sorted
}

/// Picks, among `candidates`, the pair (then greedily up to `count`)
/// minimizing the estimated union cardinality. Shared by SO and by
/// BALANCETREE's within-level ordering.
pub(crate) fn smallest_by_union<E: CardinalityEstimator>(
    estimator: &E,
    items: &[CollectionItem],
    candidates: &[usize],
    count: usize,
) -> Vec<usize> {
    debug_assert!(candidates.len() >= 2);
    // Best pair first.
    let mut best: Option<(u64, usize, usize)> = None;
    for (a_pos, &a) in candidates.iter().enumerate() {
        for &b in &candidates[a_pos + 1..] {
            let est = estimator.union_estimate(&[&items[a].set, &items[b].set]);
            let candidate = (est, a, b);
            if best.is_none_or(|cur| candidate < cur) {
                best = Some(candidate);
            }
        }
    }
    let (_, a, b) = best.expect("at least one pair");
    let mut chosen = vec![a, b];
    // Greedily extend to `count` inputs for k-way merges.
    while chosen.len() < count {
        let mut best_ext: Option<(u64, usize)> = None;
        for &c in candidates {
            if chosen.contains(&c) {
                continue;
            }
            let mut refs: Vec<&KeySet> = chosen.iter().map(|&i| &items[i].set).collect();
            refs.push(&items[c].set);
            let est = estimator.union_estimate(&refs);
            if best_ext.is_none_or(|cur| (est, c) < cur) {
                best_ext = Some((est, c));
            }
        }
        match best_ext {
            Some((_, c)) => chosen.push(c),
            None => break,
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn working_example() -> Vec<KeySet> {
        vec![
            KeySet::from_iter([1u64, 2, 3, 5]),
            KeySet::from_iter([1u64, 2, 3, 4]),
            KeySet::from_iter([3u64, 4, 5]),
            KeySet::from_iter([6u64, 7, 8]),
            KeySet::from_iter([7u64, 8, 9]),
        ]
    }

    #[test]
    fn working_example_costs_match_paper_figures() {
        let sets = working_example();
        let bt = schedule_with(Strategy::BalanceTree, &sets, 2).unwrap();
        let si = schedule_with(Strategy::SmallestInput, &sets, 2).unwrap();
        let so = schedule_with(Strategy::SmallestOutput, &sets, 2).unwrap();
        assert_eq!(bt.cost(&sets), 45, "Figure 4");
        assert_eq!(si.cost(&sets), 47, "Figure 5");
        assert_eq!(so.cost(&sets), 40, "Figure 6");
    }

    #[test]
    fn every_strategy_produces_a_valid_complete_schedule() {
        let sets = working_example();
        let strategies = [
            Strategy::BalanceTree,
            Strategy::BalanceTreeInput,
            Strategy::BalanceTreeOutput,
            Strategy::SmallestInput,
            Strategy::SmallestOutput,
            Strategy::SmallestOutputHll { precision: 12 },
            Strategy::LargestMatch,
            Strategy::Random { seed: 1 },
            Strategy::Frequency,
        ];
        for strategy in strategies {
            let schedule = schedule_with(strategy, &sets, 2).unwrap();
            assert_eq!(schedule.len(), sets.len() - 1, "{strategy}");
            assert_eq!(
                schedule.final_set(&sets),
                KeySet::from_range(1..10),
                "{strategy} must produce the union of all keys"
            );
        }
    }

    #[test]
    fn kway_fanin_reduces_iterations() {
        let sets: Vec<KeySet> = (0..9u64).map(|i| KeySet::from_iter([i])).collect();
        let k2 = schedule_with(Strategy::SmallestInput, &sets, 2).unwrap();
        let k3 = schedule_with(Strategy::SmallestInput, &sets, 3).unwrap();
        assert_eq!(k2.len(), 8);
        assert_eq!(k3.len(), 4, "9 sets with k=3 need ⌈(9−1)/(3−1)⌉ = 4 merges");
        assert!(k3.cost(&sets) <= k2.cost(&sets));
    }

    #[test]
    fn strategy_names_and_lineup() {
        assert_eq!(Strategy::BalanceTree.name(), "BT");
        assert_eq!(Strategy::BalanceTreeInput.name(), "BT(I)");
        assert_eq!(Strategy::Random { seed: 3 }.to_string(), "RANDOM");
        let lineup = Strategy::paper_lineup(7);
        assert_eq!(lineup.len(), 5);
        assert_eq!(lineup[0], Strategy::SmallestInput);
        assert!(lineup.contains(&Strategy::BalanceTreeInput));
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(matches!(
            schedule_with(Strategy::SmallestInput, &[], 2),
            Err(Error::EmptyInput)
        ));
        let sets = working_example();
        assert!(matches!(
            schedule_with(Strategy::SmallestInput, &sets, 1),
            Err(Error::InvalidFanIn { requested: 1 })
        ));
    }

    #[test]
    fn single_set_schedules_are_empty() {
        let sets = vec![KeySet::from_iter([1u64, 2, 3])];
        for strategy in [
            Strategy::BalanceTree,
            Strategy::SmallestInput,
            Strategy::SmallestOutput,
            Strategy::LargestMatch,
            Strategy::Random { seed: 0 },
            Strategy::Frequency,
        ] {
            let schedule = schedule_with(strategy, &sets, 2).unwrap();
            assert!(schedule.is_empty(), "{strategy}");
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let sets: Vec<KeySet> = (0..12u64)
            .map(|i| KeySet::from_range(i * 3..i * 3 + 5))
            .collect();
        let a = schedule_with(Strategy::Random { seed: 9 }, &sets, 2).unwrap();
        let b = schedule_with(Strategy::Random { seed: 9 }, &sets, 2).unwrap();
        let c = schedule_with(Strategy::Random { seed: 10 }, &sets, 2).unwrap();
        assert_eq!(a, b);
        assert!(a != c || a.cost(&sets) == c.cost(&sets));
    }
}
