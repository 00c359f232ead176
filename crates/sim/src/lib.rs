//! The two-phase compaction simulator and experiment harness.
//!
//! Section 5.1 of *Fast Compaction Algorithms for NoSQL Databases*
//! describes the simulator used for the evaluation:
//!
//! 1. **Phase 1** ([`phase1`]): a YCSB workload's insert/update stream is
//!    pushed through a fixed-capacity memtable; every time the memtable
//!    fills it is flushed as an sstable. Because memtables collapse
//!    duplicate keys, the resulting sstables vary in size.
//! 2. **Phase 2** ([`runner`]): a compaction strategy schedules the merge
//!    of those sstables down to one, and the simulator measures the
//!    resulting cost (`cost_actual`, i.e. data read + written) and the
//!    wall-clock running time (strategy overhead plus the actual merge
//!    work). BALANCETREE merges within a level are executed in parallel
//!    with threads, as in the paper.
//!
//! The [`experiment`] module wraps the two phases into the exact
//! parameter sweeps behind the paper's Figure 7 (cost and time vs update
//! percentage), Figure 8 (BT(I) vs the `LOPT` lower bound as the memtable
//! size grows) and Figure 9 (cost vs time for SI), and [`report`] renders
//! the resulting series as text tables.
//!
//! The [`live_engine`] module goes one step beyond the paper: the same
//! YCSB stream is driven through the real, policy-driven `lsm-engine`
//! store under each strategy, validating the simulator's predicted
//! `cost_actual` against entries a physical engine actually moved.
//!
//! One binary prints all of it — `cargo run --release -p
//! compaction-bench --bin tables -- [7|8|9|live|theory] [--quick]` — and
//! `tests/paper_claims.rs` asserts the paper's claims on the `quick()`
//! configurations.
//!
//! # Examples
//!
//! ```
//! use compaction_sim::phase1::SstableGenerator;
//! use compaction_sim::runner::run_strategy;
//! use compaction_core::Strategy;
//! use ycsb_gen::{Distribution, WorkloadSpec};
//!
//! let spec = WorkloadSpec::builder()
//!     .record_count(200)
//!     .operation_count(2_000)
//!     .update_percent(60)
//!     .distribution(Distribution::Latest)
//!     .seed(1)
//!     .build()
//!     .unwrap();
//! let sstables = SstableGenerator::new(100).generate(&spec);
//! assert!(sstables.len() > 1);
//! let result = run_strategy(Strategy::SmallestInput, &sstables, 2).unwrap();
//! assert!(result.cost_actual > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod experiment;
pub mod live_engine;
pub mod phase1;
pub mod report;
pub mod runner;
pub mod stats;

pub use experiment::{Fig7Config, Fig7Row, Fig8Config, Fig8Row, Fig9Config, Fig9Row, Fig9Sweep};
pub use live_engine::{LiveEngineConfig, LiveEngineRow};
pub use phase1::SstableGenerator;
pub use runner::{run_strategy, run_strategy_parallel, RunResult};
pub use stats::Summary;
