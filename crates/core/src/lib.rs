//! Merge-schedule optimization for LSM major compaction.
//!
//! This crate is the primary contribution of *Fast Compaction Algorithms
//! for NoSQL Databases* (Ghosh, Gupta, Gupta, Kumar — ICDCS 2015),
//! reproduced in Rust:
//!
//! * the **BINARYMERGING** optimization problem (Section 2): given `n`
//!   sstables modelled as key sets `A_1 … A_n`, find the sequence of
//!   pairwise merges that reduces them to one set while minimizing the
//!   total size of every set ever materialized (equivalently, total disk
//!   I/O);
//! * its generalizations **K-WAYMERGING** (merge at most `k` sets per
//!   iteration) and **SUBMODULARMERGING** (arbitrary monotone submodular
//!   merge cost, e.g. per-key weights or per-merge constant overhead);
//! * the four greedy heuristics of Section 4 — [`Strategy::BalanceTree`],
//!   [`Strategy::SmallestInput`], [`Strategy::SmallestOutput`],
//!   [`Strategy::LargestMatch`] — plus the `RANDOM` strawman used in the
//!   evaluation and the `f`-approximation `FREQBINARYMERGING`
//!   (Algorithm 2);
//! * exact reference solvers ([`optimal`]): exhaustive branch-and-bound
//!   for small `n`, the Huffman solver that is optimal for disjoint sets
//!   (Lemma 4.3), and the left-to-right caterpillar merge;
//! * the lower bound `LOPT = Σ|A_i|`, the ratio to it and the analytic
//!   approximation bounds ([`bounds`]), plus the adversarial instances from Lemmas 4.2 and 4.5
//!   and the `Ω(n)` LargestMatch gap;
//! * the constructions used in the NP-hardness proof (Appendix A) for
//!   empirical validation ([`hardness`]).
//!
//! # The model
//!
//! An sstable is a set of keys ([`KeySet`]); merging sstables is set
//! union; the cost of a merge is the size of the produced set under a
//! pluggable [`CostModel`] (cardinality by default). A
//! [`MergeSchedule`] is the ordered list of merge operations; its
//! [`cost`](MergeSchedule::cost) is the paper's simplified cost
//! (eq. 2.1) and [`cost_actual`](MergeSchedule::cost_actual) is the disk
//! I/O cost (inputs read + output written per merge).
//!
//! # Quick start
//!
//! ```
//! use compaction_core::{KeySet, Strategy, schedule_with};
//!
//! // The paper's working example (Section 4.3).
//! let tables = vec![
//!     KeySet::from_iter([1u64, 2, 3, 5]),
//!     KeySet::from_iter([1u64, 2, 3, 4]),
//!     KeySet::from_iter([3u64, 4, 5]),
//!     KeySet::from_iter([6u64, 7, 8]),
//!     KeySet::from_iter([7u64, 8, 9]),
//! ];
//!
//! let bt = schedule_with(Strategy::BalanceTree, &tables, 2)?;
//! let si = schedule_with(Strategy::SmallestInput, &tables, 2)?;
//! let so = schedule_with(Strategy::SmallestOutput, &tables, 2)?;
//! assert_eq!(bt.cost(&tables), 45);   // Figure 4
//! assert_eq!(si.cost(&tables), 47);   // Figure 5
//! assert_eq!(so.cost(&tables), 40);   // Figure 6
//! # Ok::<(), compaction_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod bounds;
pub mod cost;
mod error;
pub mod estimator;
pub mod hardness;
pub mod heuristics;
pub mod optimal;
pub mod planner;
mod schedule;
mod set;
pub mod submodular;
pub mod tree;

pub use cost::{Cardinality, ConstantOverhead, CostModel, WeightedKeys};
pub use error::Error;
pub use estimator::{CardinalityEstimator, ExactEstimator, HllEstimator};
pub use heuristics::{schedule_with, GreedyMerger, Strategy};
pub use planner::{MergePlan, Planner, SizeEstimator, StrategyPlanner, TableObservation};
pub use schedule::{dependency_waves, MergeOp, MergeSchedule};
pub use set::KeySet;
pub use tree::MergeTree;
