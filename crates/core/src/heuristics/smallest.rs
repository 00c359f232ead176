//! SMALLESTINPUT (Section 4.3.2) and SMALLESTOUTPUT (Section 4.3.3).

use crate::estimator::CardinalityEstimator;
use crate::heuristics::{smallest_by_len, smallest_by_union, ChoosePolicy, CollectionItem};

/// SMALLESTINPUT: merge the `k` sets of smallest cardinality.
///
/// Intuition (paper): defer the large sets so their sizes recur in as few
/// merge outputs as possible. `O(log n)`-approximate (Lemma 4.4) and
/// optimal when the sets are disjoint (Lemma 4.3, the Huffman case).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmallestInputPolicy;

impl ChoosePolicy for SmallestInputPolicy {
    fn choose(&mut self, items: &mut [CollectionItem], k: usize) -> Vec<usize> {
        let candidates: Vec<usize> = (0..items.len()).collect();
        smallest_by_len(items, &candidates, k.min(items.len()))
    }
}

/// SMALLESTOUTPUT: merge the sets whose union has the smallest
/// (estimated) cardinality.
///
/// With an exact estimator this is the paper's idealized SO; with a
/// [`HllEstimator`](crate::HllEstimator) it matches the simulator's
/// implementation, whose schedule can deviate slightly from exact SO when
/// the estimate misranks near-tied candidate pairs (Section 5.2 discusses
/// the resulting cost sensitivity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallestOutputPolicy<E> {
    estimator: E,
}

impl<E: CardinalityEstimator> SmallestOutputPolicy<E> {
    /// Creates the policy with the given union-cardinality estimator.
    #[must_use]
    pub fn new(estimator: E) -> Self {
        Self { estimator }
    }
}

impl<E: CardinalityEstimator> ChoosePolicy for SmallestOutputPolicy<E> {
    fn choose(&mut self, items: &mut [CollectionItem], k: usize) -> Vec<usize> {
        let candidates: Vec<usize> = (0..items.len()).collect();
        smallest_by_union(&self.estimator, items, &candidates, k.min(items.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::ExactEstimator;
    use crate::heuristics::GreedyMerger;
    use crate::{KeySet, Strategy};

    #[test]
    fn smallest_input_prefers_small_sets_first() {
        let sets = vec![
            KeySet::from_range(0..100),
            KeySet::from_iter([200u64]),
            KeySet::from_iter([300u64, 301]),
            KeySet::from_range(400..450),
        ];
        let schedule = GreedyMerger::new(&sets, 2)
            .unwrap()
            .run(SmallestInputPolicy)
            .unwrap();
        // First merge must combine the two smallest sets (slots 1 and 2).
        let first = &schedule.ops()[0];
        let mut inputs = first.inputs.clone();
        inputs.sort_unstable();
        assert_eq!(inputs, vec![1, 2]);
    }

    #[test]
    fn smallest_output_prefers_overlapping_sets() {
        // Two heavily-overlapping sets have a smaller union than two small
        // disjoint ones here, so SO and SI disagree.
        let sets = vec![
            KeySet::from_range(0..50),    // overlaps with 1
            KeySet::from_range(0..52),    // union with 0 has size 52
            KeySet::from_range(100..130), // 30 keys
            KeySet::from_range(200..230), // 30 keys; union with 2 = 60
        ];
        let so = GreedyMerger::new(&sets, 2)
            .unwrap()
            .run(SmallestOutputPolicy::new(ExactEstimator))
            .unwrap();
        let mut first = so.ops()[0].inputs.clone();
        first.sort_unstable();
        assert_eq!(first, vec![0, 1], "SO merges the overlapping pair first");

        let si = GreedyMerger::new(&sets, 2)
            .unwrap()
            .run(SmallestInputPolicy)
            .unwrap();
        let mut first = si.ops()[0].inputs.clone();
        first.sort_unstable();
        assert_eq!(first, vec![2, 3], "SI merges the two smallest sets first");
    }

    #[test]
    fn si_and_so_agree_on_disjoint_sets() {
        // Lemma: on disjoint sets SI and SO are the same algorithm (both
        // reduce to Huffman); their costs must coincide.
        let sets: Vec<KeySet> = (0..8u64)
            .map(|i| KeySet::from_range(i * 100..i * 100 + (i + 1) * 3))
            .collect();
        let si = crate::schedule_with(Strategy::SmallestInput, &sets, 2).unwrap();
        let so = crate::schedule_with(Strategy::SmallestOutput, &sets, 2).unwrap();
        assert_eq!(si.cost(&sets), so.cost(&sets));
    }

    #[test]
    fn hll_backed_so_stays_close_to_exact_so() {
        let sets: Vec<KeySet> = (0..10u64)
            .map(|i| KeySet::from_range(i * 500..(i * 500) + 1_000))
            .collect();
        let exact = crate::schedule_with(Strategy::SmallestOutput, &sets, 2).unwrap();
        let approx =
            crate::schedule_with(Strategy::SmallestOutputHll { precision: 14 }, &sets, 2).unwrap();
        let exact_cost = exact.cost(&sets) as f64;
        let approx_cost = approx.cost(&sets) as f64;
        assert!(
            approx_cost <= exact_cost * 1.10,
            "HLL-backed SO cost {approx_cost} drifted too far from exact {exact_cost}"
        );
    }
}
