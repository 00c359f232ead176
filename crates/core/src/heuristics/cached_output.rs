//! SMALLESTOUTPUT with cached HyperLogLog sketches and pair estimates.
//!
//! The paper's simulator (Section 5.1, strategy 2) notes that recomputing
//! union estimates for all `C(n, k)` combinations every iteration is
//! unnecessarily expensive: estimates not involving the sets removed in
//! the previous iteration can be reused, and only combinations involving
//! the newly created sstable need fresh estimates (`C(n−k, k−1)` of
//! them). This policy caches one HyperLogLog sketch per live *slot* and
//! every live pair's estimate, so the first iteration estimates all
//! `C(n, 2)` pairs and each later one only the `n − k` pairs with the new
//! slot (`C(n−2, 1)` at `k = 2`). A merged slot's sketch is the
//! register-wise maximum of its inputs' — exactly the sketch of their
//! union — so the policy makes the same choices as the uncached
//! [`SmallestOutputPolicy`](crate::heuristics::SmallestOutputPolicy) with
//! an [`HllEstimator`](crate::HllEstimator) of the same precision.

use std::collections::{BTreeSet, HashMap, HashSet};

use hll::HyperLogLog;

use crate::heuristics::{ChoosePolicy, CollectionItem};

/// SMALLESTOUTPUT with per-sstable sketch and pair-estimate caching (the
/// paper's implementation of the SO strategy).
#[derive(Debug, Clone)]
pub struct CachedSmallestOutputPolicy {
    precision: u8,
    /// One sketch per live slot.
    sketches: HashMap<usize, HyperLogLog>,
    /// `(estimated |A ∪ B|, slot_lo, slot_hi)` for every live pair. Items
    /// are in slot order (survivors keep theirs, an output gets the
    /// largest slot), so the first entry is the uncached policy's
    /// `(estimate, index_a, index_b)` minimum.
    pairs: BTreeSet<(u64, usize, usize)>,
}

impl CachedSmallestOutputPolicy {
    /// Creates the policy with the given HyperLogLog precision.
    #[must_use]
    pub fn new(precision: u8) -> Self {
        Self {
            precision,
            sketches: HashMap::new(),
            pairs: BTreeSet::new(),
        }
    }

    fn empty_sketch(&self) -> HyperLogLog {
        HyperLogLog::new(self.precision).unwrap_or_else(|_| HyperLogLog::with_default_precision())
    }

    /// Brings the cache in line with `items`: slots that left lose their
    /// sketch and pairs, new ones are sketched from their keys (under
    /// `GreedyMerger`, only on the first call: `merged` sketches outputs).
    fn sync(&mut self, items: &[CollectionItem]) {
        let live: HashSet<usize> = items.iter().map(|item| item.slot).collect();
        self.sketches.retain(|slot, _| live.contains(slot));
        self.pairs
            .retain(|(_, a, b)| live.contains(a) && live.contains(b));
        for item in items {
            if !self.sketches.contains_key(&item.slot) {
                let mut sketch = self.empty_sketch();
                sketch.extend(item.set.iter());
                self.insert(item.slot, sketch);
            }
        }
    }

    /// Caches `sketch` for `slot` and estimates its pair with every other
    /// cached slot.
    fn insert(&mut self, slot: usize, sketch: HyperLogLog) {
        for (&other, cached) in &self.sketches {
            let estimate = sketch.union_estimate(cached).expect("same precision");
            self.pairs
                .insert((estimate, other.min(slot), other.max(slot)));
        }
        #[cfg(test)]
        tests::PAIR_ESTIMATES.with(|count| count.set(count.get() + self.sketches.len()));
        self.sketches.insert(slot, sketch);
    }
}

impl ChoosePolicy for CachedSmallestOutputPolicy {
    fn choose(&mut self, items: &mut [CollectionItem], k: usize) -> Vec<usize> {
        self.sync(items);
        let &(_, lo, hi) = self.pairs.first().expect("at least two items");
        let index = |slot| items.iter().position(|it| it.slot == slot).expect("live");
        let mut chosen = vec![index(lo), index(hi)];

        // Greedy k-way extension: add the set minimizing the estimated
        // union with the running sketch of the chosen ones.
        let sketch = |i: usize| &self.sketches[&items[i].slot];
        let mut running = sketch(chosen[0]).clone();
        running.merge(sketch(chosen[1])).expect("same precision");
        while chosen.len() < k.min(items.len()) {
            let estimate = |i| running.union_estimate(sketch(i)).expect("same precision");
            let next = (0..items.len())
                .filter(|i| !chosen.contains(i))
                .min_by_key(|&i| (estimate(i), i))
                .expect("fewer chosen than items");
            running.merge(sketch(next)).expect("same precision");
            chosen.push(next);
        }
        chosen
    }

    /// The output's sketch is the register-wise maximum of its inputs'.
    /// Their pairs go at the next `sync`, and so does the output if an
    /// input was never sketched.
    fn merged(&mut self, inputs: &[usize], output: usize) {
        let mut union = self.empty_sketch();
        for slot in inputs {
            let Some(sketch) = self.sketches.remove(slot) else {
                return;
            };
            union.merge(&sketch).expect("same precision");
        }
        self.insert(output, union);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::heuristics::{GreedyMerger, SmallestOutputPolicy};
    use crate::{HllEstimator, KeySet};

    thread_local! {
        /// Pair estimates made on this thread.
        pub(super) static PAIR_ESTIMATES: Cell<usize> = const { Cell::new(0) };
    }

    fn instance() -> Vec<KeySet> {
        (0..12u64)
            .map(|i| KeySet::from_range(i * 400..i * 400 + 900))
            .collect()
    }

    #[test]
    fn cached_policy_matches_uncached_hll_schedule() {
        let sets = instance();
        let merger = GreedyMerger::new(&sets, 2).unwrap();
        let cached = merger.run(CachedSmallestOutputPolicy::new(12)).unwrap();
        let uncached = merger
            .run(SmallestOutputPolicy::new(HllEstimator::new(12).unwrap()))
            .unwrap();
        // Register-wise max of per-set sketches equals the sketch of the
        // union, so both policies see identical estimates and build
        // identical schedules.
        assert_eq!(cached, uncached);
    }

    /// The first iteration estimates every pair, each later one only the
    /// pairs with the newly merged slot: `C(32, 2) + C(31, 2) = 961`
    /// estimates for 32 sets at `k = 2`, where re-estimating every pair
    /// every iteration takes `Σ C(i, 2) = C(33, 3) = 5 456`.
    #[test]
    fn only_pairs_with_the_new_slot_are_estimated() {
        let sets: Vec<KeySet> = (0..32u64)
            .map(|i| KeySet::from_range(i * 300..i * 300 + 1_000))
            .collect();
        let before = PAIR_ESTIMATES.with(Cell::get);
        let schedule = GreedyMerger::new(&sets, 2)
            .unwrap()
            .run(CachedSmallestOutputPolicy::new(14))
            .unwrap();
        assert_eq!(schedule.len(), 31);
        assert_eq!(PAIR_ESTIMATES.with(Cell::get) - before, 496 + 465);
    }

    /// A caller driving `choose` without `merged` still gets choices over
    /// the collection it passes: stale slots are dropped, new ones
    /// sketched.
    #[test]
    fn choose_follows_a_collection_changed_behind_its_back() {
        let items = |sets: &[KeySet], first_slot: usize| -> Vec<CollectionItem> {
            sets.iter()
                .enumerate()
                .map(|(i, set)| CollectionItem {
                    slot: first_slot + i,
                    set: set.clone(),
                    level: 1,
                })
                .collect()
        };
        let sets = instance();
        let mut cached = CachedSmallestOutputPolicy::new(10);
        let mut uncached = SmallestOutputPolicy::new(HllEstimator::new(10).unwrap());
        let mut all = items(&sets, 0);
        assert_eq!(cached.choose(&mut all, 2), uncached.choose(&mut all, 2));

        let mut shrunk = items(&sets[5..9], 5);
        shrunk.extend(items(&sets[..2], 40));
        let chosen = cached.choose(&mut shrunk, 3);
        assert_eq!(chosen, uncached.choose(&mut shrunk, 3));
        assert!(chosen.iter().all(|&i| i < shrunk.len()));
    }

    #[test]
    fn kway_extension_uses_running_sketch() {
        let sets = vec![
            KeySet::from_range(0..1_000),
            KeySet::from_range(0..1_000),
            KeySet::from_range(100..1_100),
            KeySet::from_range(50_000..51_000),
        ];
        let schedule = GreedyMerger::new(&sets, 3)
            .unwrap()
            .run(CachedSmallestOutputPolicy::new(14))
            .unwrap();
        let mut first = schedule.ops()[0].inputs.clone();
        first.sort_unstable();
        assert_eq!(
            first,
            vec![0, 1, 2],
            "the three overlapping sets minimize the 3-way union"
        );
    }
}
