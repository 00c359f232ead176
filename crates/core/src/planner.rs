//! Planning: turning per-table size observations into executable merge
//! plans.
//!
//! The heuristics in [`crate::heuristics`] answer *"in what order should
//! these key sets merge?"*; an engine needs the next step too — an
//! executable artifact it can hand to its physical compaction machinery.
//! A [`Planner`] closes that gap: it consumes one [`TableObservation`]
//! per live sstable (exact key sets, hashed key sets, or anything else
//! that preserves sizes and overlaps) and produces a [`MergePlan`]
//! bundling the chosen [`MergeSchedule`] with its slot-step lowering,
//! its parallel dependency waves, and the predicted costs used for
//! planned-vs-actual validation.
//!
//! [`StrategyPlanner`] is the paper-backed implementation: any
//! [`Strategy`] plus a [`SizeEstimator`] knob selecting between exact
//! union counting and the HyperLogLog estimation of Section 5 (the
//! paper's `SO(E)` variant).
//!
//! # Examples
//!
//! ```
//! use compaction_core::{KeySet, Strategy};
//! use compaction_core::planner::{Planner, StrategyPlanner, TableObservation};
//!
//! let tables = vec![
//!     TableObservation::new(10, KeySet::from_iter([1u64, 2, 3, 5])),
//!     TableObservation::new(11, KeySet::from_iter([1u64, 2, 3, 4])),
//!     TableObservation::new(12, KeySet::from_iter([3u64, 4, 5])),
//! ];
//! let planner = StrategyPlanner::new(Strategy::SmallestOutput);
//! let plan = planner.plan(&tables, 2)?;
//! assert_eq!(plan.steps().len(), 2, "3 tables need 2 binary merges");
//! assert!(plan.predicted_cost_actual() > 0);
//! # Ok::<(), compaction_core::Error>(())
//! ```

use crate::{schedule_with, Error, KeySet, MergeSchedule, Strategy};

/// One live table as the planner sees it: an opaque identifier plus the
/// key set observed for the table.
///
/// Engines that do not track logical 64-bit keys can hash their user
/// keys into the set — sizes and overlap structure, which are all the
/// strategies consume, survive hashing (modulo negligible collisions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableObservation {
    /// Caller-chosen identifier (e.g. the engine's table id).
    pub table_id: u64,
    /// Observed keys of the table.
    pub keys: KeySet,
}

impl TableObservation {
    /// Convenience constructor.
    #[must_use]
    pub fn new(table_id: u64, keys: KeySet) -> Self {
        Self { table_id, keys }
    }
}

/// How a planner estimates union cardinalities while scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SizeEstimator {
    /// Exact two-pointer union counting.
    #[default]
    Exact,
    /// HyperLogLog sketches, the paper's Section 5 `SO(E)` variant.
    Hll {
        /// Sketch precision `p` (the paper's evaluation uses 14).
        precision: u8,
    },
}

impl SizeEstimator {
    /// Rewrites `strategy` so its union-size estimation matches this
    /// estimator. Only the SMALLESTOUTPUT family estimates unions, so
    /// every other strategy passes through unchanged.
    #[must_use]
    pub fn apply(self, strategy: Strategy) -> Strategy {
        match (self, strategy) {
            (
                Self::Hll { precision },
                Strategy::SmallestOutput | Strategy::SmallestOutputHll { .. },
            ) => Strategy::SmallestOutputHll { precision },
            (Self::Exact, Strategy::SmallestOutputHll { .. }) => Strategy::SmallestOutput,
            (_, other) => other,
        }
    }

    /// The paper's evaluation setting: HLL at precision 14.
    #[must_use]
    pub fn paper_hll() -> Self {
        Self::Hll {
            precision: hll::DEFAULT_PRECISION,
        }
    }
}

/// An executable compaction plan.
///
/// Produced by a [`Planner`]; consumed by physical executors. The plan
/// carries everything both sides need: the logical schedule (for cost
/// accounting), the slot-step lowering (for physical replay) and the
/// dependency waves (for parallel execution).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergePlan {
    strategy: Strategy,
    schedule: MergeSchedule,
    steps: Vec<Vec<usize>>,
    waves: Vec<Vec<usize>>,
    predicted_cost: u64,
    predicted_cost_actual: u64,
}

impl MergePlan {
    /// Builds a plan from a schedule and the observations it was planned
    /// over, precomputing lowering, waves and predicted costs.
    #[must_use]
    pub fn from_schedule(
        strategy: Strategy,
        schedule: MergeSchedule,
        observed_sets: &[KeySet],
    ) -> Self {
        let steps = schedule.slot_steps();
        let waves = schedule.dependency_waves();
        // Both predictions from one replay: eq. 2.1 counts the leaves and
        // every output, `cost_actual` every input read and output written.
        let mut predicted_cost: u64 = observed_sets.iter().map(|s| s.len() as u64).sum();
        let mut predicted_cost_actual = 0;
        schedule.replay(observed_sets, |inputs, output| {
            let read: usize = inputs.iter().map(|s| s.len()).sum();
            predicted_cost += output.len() as u64;
            predicted_cost_actual += (read + output.len()) as u64;
        });
        Self {
            strategy,
            schedule,
            steps,
            waves,
            predicted_cost,
            predicted_cost_actual,
        }
    }

    /// The strategy that produced this plan.
    #[must_use]
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The logical merge schedule.
    #[must_use]
    pub fn schedule(&self) -> &MergeSchedule {
        &self.schedule
    }

    /// The slot-step lowering: input slots per merge, execution order
    /// (see [`MergeSchedule::slot_steps`]).
    #[must_use]
    pub fn steps(&self) -> &[Vec<usize>] {
        &self.steps
    }

    /// Parallel dependency waves of step indices (see
    /// [`MergeSchedule::dependency_waves`]).
    #[must_use]
    pub fn waves(&self) -> &[Vec<usize>] {
        &self.waves
    }

    /// `true` when there is nothing to merge (fewer than two tables).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Predicted simplified cost (eq. 2.1) over the observed sets.
    #[must_use]
    pub fn predicted_cost(&self) -> u64 {
        self.predicted_cost
    }

    /// Predicted disk-I/O cost `cost_actual` (Section 2) over the
    /// observed sets, in keys. An engine executing this plan should
    /// measure entries read + written close to this number (exactly
    /// equal when observations are exact and no versions collapse).
    #[must_use]
    pub fn predicted_cost_actual(&self) -> u64 {
        self.predicted_cost_actual
    }
}

/// Plans merge schedules over observed tables.
///
/// The engine calls this at trigger time with one observation per live
/// table; implementations choose the merge order. The returned plan
/// references tables by *slot* (observation index), matching
/// [`MergeSchedule`] conventions.
pub trait Planner: std::fmt::Debug {
    /// Plans a full compaction of `tables` down to one, merging at most
    /// `fanin` tables per step.
    ///
    /// # Errors
    ///
    /// [`Error::EmptyInput`] if `tables` is empty, [`Error::InvalidFanIn`]
    /// if `fanin < 2`, plus any strategy-specific failure.
    fn plan(&self, tables: &[TableObservation], fanin: usize) -> Result<MergePlan, Error>;
}

/// The paper-backed planner: a greedy [`Strategy`] plus a
/// [`SizeEstimator`] knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrategyPlanner {
    strategy: Strategy,
    estimator: SizeEstimator,
}

impl StrategyPlanner {
    /// A planner using `strategy` with exact union counting.
    #[must_use]
    pub fn new(strategy: Strategy) -> Self {
        Self {
            strategy,
            estimator: SizeEstimator::Exact,
        }
    }

    /// Selects the union-size estimator (the `SO` vs `SO(E)` knob).
    #[must_use]
    pub fn with_estimator(mut self, estimator: SizeEstimator) -> Self {
        self.estimator = estimator;
        self
    }

    /// The strategy actually used for scheduling, after the estimator
    /// rewrite.
    #[must_use]
    pub fn effective_strategy(&self) -> Strategy {
        self.estimator.apply(self.strategy)
    }
}

impl Planner for StrategyPlanner {
    fn plan(&self, tables: &[TableObservation], fanin: usize) -> Result<MergePlan, Error> {
        let sets: Vec<KeySet> = tables.iter().map(|t| t.keys.clone()).collect();
        let strategy = self.effective_strategy();
        let schedule = schedule_with(strategy, &sets, fanin)?;
        Ok(MergePlan::from_schedule(strategy, schedule, &sets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observations() -> Vec<TableObservation> {
        vec![
            TableObservation::new(0, KeySet::from_iter([1u64, 2, 3, 5])),
            TableObservation::new(1, KeySet::from_iter([1u64, 2, 3, 4])),
            TableObservation::new(2, KeySet::from_iter([3u64, 4, 5])),
            TableObservation::new(3, KeySet::from_iter([6u64, 7, 8])),
            TableObservation::new(4, KeySet::from_iter([7u64, 8, 9])),
        ]
    }

    #[test]
    fn strategy_planner_reproduces_schedule_with() {
        let tables = observations();
        let sets: Vec<KeySet> = tables.iter().map(|t| t.keys.clone()).collect();
        let plan = StrategyPlanner::new(Strategy::SmallestOutput)
            .plan(&tables, 2)
            .unwrap();
        let direct = schedule_with(Strategy::SmallestOutput, &sets, 2).unwrap();
        assert_eq!(plan.schedule(), &direct);
        assert_eq!(plan.predicted_cost(), 40, "Figure 6");
        assert_eq!(plan.predicted_cost_actual(), direct.cost_actual(&sets));
        assert_eq!(plan.steps(), direct.slot_steps().as_slice());
        assert_eq!(plan.waves(), direct.dependency_waves().as_slice());
        assert_eq!(plan.strategy(), Strategy::SmallestOutput);
    }

    #[test]
    fn estimator_rewrites_only_smallest_output() {
        let hll = SizeEstimator::Hll { precision: 12 };
        assert_eq!(
            hll.apply(Strategy::SmallestOutput),
            Strategy::SmallestOutputHll { precision: 12 }
        );
        assert_eq!(
            hll.apply(Strategy::BalanceTreeInput),
            Strategy::BalanceTreeInput
        );
        assert_eq!(hll.apply(Strategy::SmallestInput), Strategy::SmallestInput);
        assert_eq!(
            SizeEstimator::Exact.apply(Strategy::SmallestOutputHll { precision: 14 }),
            Strategy::SmallestOutput
        );
        assert_eq!(
            hll.apply(Strategy::SmallestOutputHll { precision: 14 }),
            Strategy::SmallestOutputHll { precision: 12 }
        );
        assert_eq!(
            SizeEstimator::paper_hll(),
            SizeEstimator::Hll { precision: 14 }
        );
    }

    #[test]
    fn planner_with_estimator_plans_complete_schedules() {
        let tables = observations();
        let planner = StrategyPlanner::new(Strategy::SmallestOutput)
            .with_estimator(SizeEstimator::Hll { precision: 12 });
        assert_eq!(
            planner.effective_strategy(),
            Strategy::SmallestOutputHll { precision: 12 }
        );
        let plan = planner.plan(&tables, 2).unwrap();
        assert_eq!(plan.steps().len(), 4);
        assert!(!plan.is_empty());
    }

    #[test]
    fn single_table_plans_are_empty() {
        let tables = vec![TableObservation::new(9, KeySet::from_range(0..10))];
        let plan = StrategyPlanner::new(Strategy::BalanceTreeInput)
            .plan(&tables, 2)
            .unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.predicted_cost_actual(), 0);
    }

    #[test]
    fn planner_errors_propagate() {
        assert!(matches!(
            StrategyPlanner::new(Strategy::SmallestInput).plan(&[], 2),
            Err(Error::EmptyInput)
        ));
        let tables = observations();
        assert!(matches!(
            StrategyPlanner::new(Strategy::SmallestInput).plan(&tables, 1),
            Err(Error::InvalidFanIn { requested: 1 })
        ));
    }
}
