//! Lower bounds, the analytic approximation bounds and the paper's
//! adversarial instances.

use crate::{Cardinality, CostModel, KeySet, MergeSchedule};

/// The lower bound `LOPT = Σᵢ |Aᵢ|` on the optimal merge cost
/// (Section 4.1): every leaf of any merge tree is counted at least once
/// by the cost function.
#[must_use]
pub fn lopt_lower_bound(sets: &[KeySet]) -> u64 {
    lopt_lower_bound_with(sets, &Cardinality)
}

/// [`lopt_lower_bound`] under an arbitrary cost model (valid because the
/// models are monotone: each leaf is still counted once).
#[must_use]
pub fn lopt_lower_bound_with<M: CostModel>(sets: &[KeySet], model: &M) -> u64 {
    sets.iter().map(|s| model.cost(s)).sum()
}

/// A schedule's cost relative to the `LOPT` lower bound
/// (`cost / LOPT ≥ cost / OPT`, so this *over-estimates* the true
/// approximation ratio). This is the quantity Figure 8 plots.
#[must_use]
pub fn ratio_to_lopt(schedule: &MergeSchedule, sets: &[KeySet]) -> f64 {
    let lopt = lopt_lower_bound(sets);
    if lopt == 0 {
        return 1.0;
    }
    schedule.cost(sets) as f64 / lopt as f64
}

/// The theoretical `2·H_n + 1` approximation bound proved for
/// SMALLESTINPUT and SMALLESTOUTPUT in Lemma 4.4 (`H_n` is the `n`-th
/// harmonic number).
#[must_use]
pub fn greedy_approximation_bound(n: usize) -> f64 {
    2.0 * harmonic(n) + 1.0
}

/// The `⌈log₂ n⌉ + 1` approximation bound proved for BALANCETREE in
/// Lemma 4.1.
#[must_use]
pub fn balance_tree_approximation_bound(n: usize) -> f64 {
    (n.max(1) as f64).log2().ceil() + 1.0
}

/// The `n`-th harmonic number `H_n = Σ_{i=1..n} 1/i`.
#[must_use]
pub fn harmonic(n: usize) -> f64 {
    (1..=n).map(|i| 1.0 / i as f64).sum()
}

/// Adversarial instance generators from the paper's tightness arguments.
pub mod adversarial {
    use super::KeySet;

    /// Lemma 4.2's family: `n − 1` copies of `{1}` plus one set
    /// `{1, …, n}`. BALANCETREE pays `Ω(log n)`× the optimum here because
    /// the big set reappears at every level of the balanced tree, while
    /// the left-to-right merge is optimal.
    #[must_use]
    pub fn balance_tree_tight(n: usize) -> Vec<KeySet> {
        assert!(n >= 2);
        let mut sets: Vec<KeySet> = (0..n - 1).map(|_| KeySet::from_iter([1u64])).collect();
        sets.push(KeySet::from_vec((1..=n as u64).collect()));
        sets
    }

    /// Lemma 4.5's family: `n` disjoint singletons. SMALLESTINPUT and
    /// SMALLESTOUTPUT build a balanced tree of total cost `n·log₂ n +
    /// n ≈ log n · LOPT`, showing the analysis is tight *against the
    /// lower bound* (not necessarily against OPT).
    #[must_use]
    pub fn greedy_lopt_tight(n: usize) -> Vec<KeySet> {
        (0..n as u64).map(|i| KeySet::from_iter([i])).collect()
    }

    /// The LARGESTMATCH `Ω(n)` gap family (Section 4.3.4):
    /// `A_i = {1, …, 2^{i−1}}` for `i = 1..=n`. LARGESTMATCH always picks
    /// the largest set (it intersects everything maximally) and pays
    /// `≈ 2^{n−1}·(n−1)`, while the left-to-right merge pays `2^{n+1} − 3`
    /// in `cost_actual` terms.
    #[must_use]
    pub fn largest_match_gap(n: usize) -> Vec<KeySet> {
        assert!((1..=32).contains(&n), "sets grow as 2^n; keep n small");
        (1..=n)
            .map(|i| KeySet::from_range(1..(1u64 << (i - 1)) + 1))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{schedule_with, Strategy};

    #[test]
    fn lopt_is_sum_of_leaf_sizes() {
        let sets = vec![
            KeySet::from_iter([1u64, 2, 3]),
            KeySet::from_iter([3u64, 4]),
            KeySet::from_iter([9u64]),
        ];
        assert_eq!(lopt_lower_bound(&sets), 6);
        let weighted = crate::WeightedKeys::uniform(10);
        assert_eq!(lopt_lower_bound_with(&sets, &weighted), 60);
    }

    #[test]
    fn every_heuristic_respects_its_analytic_bound_vs_lopt_examples() {
        // On random-ish overlapping instances the greedy heuristics stay
        // well below their worst-case bounds relative to LOPT.
        let sets: Vec<KeySet> = (0..10u64)
            .map(|i| KeySet::from_range(i * 7..i * 7 + 20))
            .collect();
        for strategy in [
            Strategy::BalanceTree,
            Strategy::BalanceTreeInput,
            Strategy::SmallestInput,
            Strategy::SmallestOutput,
        ] {
            let schedule = schedule_with(strategy, &sets, 2).unwrap();
            let ratio = ratio_to_lopt(&schedule, &sets);
            let bound = match strategy {
                Strategy::BalanceTree | Strategy::BalanceTreeInput => {
                    balance_tree_approximation_bound(sets.len())
                }
                _ => greedy_approximation_bound(sets.len()),
            };
            assert!(
                ratio <= bound,
                "{strategy}: ratio {ratio} exceeds analytic bound {bound}"
            );
        }
    }

    #[test]
    fn lemma_4_2_balance_tree_pays_log_factor() {
        // BT's cost on the tight family is at least n·(log₂ n + 1) because
        // the big set appears at every level, whereas the optimal
        // left-to-right merge costs Θ(n).
        let n = 16usize;
        let sets = adversarial::balance_tree_tight(n);
        let bt = schedule_with(Strategy::BalanceTreeInput, &sets, 2).unwrap();
        assert!(bt.cost(&sets) >= (n as u64) * ((n as f64).log2() as u64));
        // The left-to-right merge is optimal on this family and its
        // simplified cost is 4n − 3 (Lemma 4.2).
        let l2r = crate::optimal::left_to_right_schedule(n, 2).unwrap();
        assert_eq!(l2r.cost(&sets), 4 * n as u64 - 3);
        assert!(
            bt.cost(&sets) as f64 >= 1.5 * l2r.cost(&sets) as f64,
            "BT must pay a super-constant factor over the caterpillar merge"
        );
    }

    #[test]
    fn lemma_4_5_greedy_is_log_n_times_lopt_on_disjoint_singletons() {
        let n = 32usize;
        let sets = adversarial::greedy_lopt_tight(n);
        assert_eq!(lopt_lower_bound(&sets), n as u64);
        for strategy in [Strategy::SmallestInput, Strategy::SmallestOutput] {
            let schedule = schedule_with(strategy, &sets, 2).unwrap();
            // cost = n (leaves) + n per internal level = n·(log₂ n + 1).
            let expected = n as u64 * ((n as f64).log2() as u64 + 1);
            assert_eq!(schedule.cost(&sets), expected, "{strategy}");
            let ratio = ratio_to_lopt(&schedule, &sets);
            assert!((ratio - ((n as f64).log2() + 1.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn harmonic_and_bound_helpers() {
        assert!((harmonic(1) - 1.0).abs() < 1e-12);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
        assert!(greedy_approximation_bound(1) > 2.9);
        assert_eq!(balance_tree_approximation_bound(8), 4.0);
        assert_eq!(balance_tree_approximation_bound(1), 1.0);
    }

    #[test]
    fn adversarial_generators_shapes() {
        let bt = adversarial::balance_tree_tight(8);
        assert_eq!(bt.len(), 8);
        assert_eq!(bt[7].len(), 8);
        let dj = adversarial::greedy_lopt_tight(5);
        assert!(dj.iter().all(|s| s.len() == 1));
        let lm = adversarial::largest_match_gap(4);
        assert_eq!(lm[3].len(), 8);
    }
}
