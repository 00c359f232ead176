//! # nosql-compaction
//!
//! Umbrella crate for the reproduction of *Fast Compaction Algorithms for
//! NoSQL Databases* (Ghosh, Gupta, Gupta, Kumar — ICDCS 2015).
//!
//! The repository is organized as a workspace; this crate re-exports the
//! public API of every member so downstream users can depend on a single
//! crate:
//!
//! * [`core`] (`compaction-core`) — the paper's contribution: the
//!   BINARYMERGING / K-WAYMERGING / SUBMODULARMERGING optimization
//!   problems, merge schedules and trees, cost models, the greedy
//!   heuristics (BalanceTree, SmallestInput, SmallestOutput, LargestMatch,
//!   Random, FreqBinaryMerging), exact reference solvers and lower bounds.
//! * [`lsm`] (`lsm-engine`) — an embeddable LSM storage engine
//!   (memtable, sstables, bloom filters, WAL, manifest, merge iterators)
//!   that physically executes merge schedules — and, configured with a
//!   `CompactionPolicy`, plans and runs its own compactions with the
//!   paper's strategies (parallel across independent merge steps).
//!   A point read never waits on the write mutex: lazy sstable readers
//!   fetch one data block per hit through a table/block cache pair,
//!   probing a snapshot of the live tables whose read lock is held for
//!   one `Arc::clone`.
//! * [`ycsb`] (`ycsb-gen`) — a YCSB-style workload generator (uniform /
//!   zipfian / latest request distributions, load and run phases).
//! * [`hll`] — HyperLogLog cardinality estimation, used by the
//!   SmallestOutput heuristic exactly as in the paper's evaluation.
//! * [`sim`] (`compaction-sim`) — the two-phase simulator, the
//!   experiment configs behind Figures 7, 8 and 9 and the live-engine
//!   validation (printed by the `tables` binary, asserted by
//!   `tests/paper_claims.rs`). Serving is measured by the detached
//!   `benchmark/` package instead.
//! * [`service`] (`kv-service`) — the sharded concurrent KV service:
//!   shard router, batched per-shard writes, TCP front-end
//!   (`GET`/`PUT`/`DEL`/`BATCH`/`SCAN`/`METRICS`/…) and a worker-pool
//!   server;
//!   `GET`s never take a shard lock, so reads proceed while any shard —
//!   including their own — flushes or compacts.
//!
//! # Quick start
//!
//! ```
//! use nosql_compaction::core::{KeySet, Strategy, schedule_with};
//!
//! // The paper's working example (Section 4.3).
//! let tables = vec![
//!     KeySet::from_iter([1u64, 2, 3, 5]),
//!     KeySet::from_iter([1u64, 2, 3, 4]),
//!     KeySet::from_iter([3u64, 4, 5]),
//!     KeySet::from_iter([6u64, 7, 8]),
//!     KeySet::from_iter([7u64, 8, 9]),
//! ];
//! let schedule = schedule_with(Strategy::SmallestOutput, &tables, 2).unwrap();
//! assert_eq!(schedule.cost(&tables), 40);
//! ```

pub use compaction_core as core;
pub use compaction_sim as sim;
pub use hll;
pub use kv_service as service;
pub use lsm_engine as lsm;
pub use ycsb_gen as ycsb;
