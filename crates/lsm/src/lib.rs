//! An embeddable log-structured merge-tree (LSM) storage engine.
//!
//! The paper *Fast Compaction Algorithms for NoSQL Databases* (ICDCS 2015)
//! studies **major compaction**: the background process that merge-sorts a
//! server's sstables into a single sstable so reads stop fanning out over
//! many runs. Its evaluation exercises the standard NoSQL write path
//! (Figure 1 of the paper):
//!
//! 1. writes append to an in-memory **memtable**;
//! 2. when the memtable reaches a size threshold it is sorted by key and
//!    flushed to an immutable on-disk run, an **sstable**;
//! 3. reads consult the memtable and then every live sstable, newest
//!    first;
//! 4. **compaction** merge-sorts `k` sstables at a time into one, following
//!    a merge schedule chosen by a compaction strategy.
//!
//! This crate implements that entire substrate from scratch:
//!
//! * [`Memtable`] — a sorted, size-bounded in-memory buffer;
//! * [`SstableBuilder`] / [`SstableReader`] — an immutable sorted-run
//!   format with data blocks, a [`BloomFilter`], an index and a
//!   checksummed footer, and the one reader of it: a table opens with
//!   two ranged reads ([`Storage::read_blob_range`]) of its tail and
//!   fetches data blocks on demand — one per point lookup through the
//!   [`TableCache`] / [`BlockCache`] pair, a readahead span per scan
//!   step, the whole data section in one read for a compaction input;
//! * [`Wal`] — a write-ahead log for memtable durability;
//! * [`Manifest`] — the record of live sstables and compaction edits;
//! * [`Storage`] — pluggable backing store ([`MemoryStorage`] for
//!   simulation, [`FileStorage`] for real files);
//! * [`MergingIter`] — the one heap-based k-way merge, streaming over
//!   fallible sorted sources; compaction's retention rule and the scan
//!   visibility rule are thin filters over it;
//! * [`RangeIter`] — streaming, snapshot-consistent range scans
//!   ([`Lsm::range`]): that merge over the memtable view and the live
//!   tables, pruning tables by their persisted min/max keys before any
//!   bloom or block is touched (see the [`scan`] module);
//! * [`Lsm`] — the database facade: `put`/`get`/`delete`/`flush`, plus
//!   [`Lsm::delete_range`] (one [`RangeTombstone`] record erases a whole
//!   interval), [`Lsm::snapshot`] (a pinned-LSN [`Snapshot`] read view
//!   whose contents are immune to concurrent flush, compaction and
//!   tombstone GC), and [`Lsm::major_compact`], which physically
//!   executes a merge schedule produced by the `compaction-core` crate.
//!   Keys are anything implementing [`IntoKey`] (`&[u8]`, `&str`,
//!   `u64`, …). Every method takes `&self`; reads never wait on the
//!   write mutex: they clone the current live-table view (an `Arc`
//!   behind a lock held for that one clone, never across I/O).
//!
//! On top of the substrate, the engine **compacts itself** with the
//! paper's heuristics:
//!
//! * [`CompactionPolicy`] decides *when* — after every flush,
//!   [`Lsm::maybe_compact`] checks the live-table threshold and, when it
//!   fires, compacts the newest run of live tables (the whole store
//!   only when no older table is much bigger than the run);
//! * the configured [`Strategy`] and [`SizeEstimator`] decide *what
//!   merges in which order* — [`plan_compaction`] observes the live
//!   tables and asks `compaction-core`'s planner for an executable
//!   schedule (no manual [`CompactionStep`] construction);
//! * [`ParallelExecutor`] decides *how* — independent steps of a
//!   dependency wave (e.g. one BALANCETREE level) run on scoped threads,
//!   each streaming its inputs through the merge into one table writer
//!   (which LZ-encodes a large output on a helper thread), and manifest
//!   edits are applied atomically after the whole plan succeeds.
//!
//! The engine is deliberately synchronous and single-node: the paper's
//! problem is per-server merge scheduling, so distribution, replication
//! and group commit are out of scope. Everything on the compaction path —
//! reading k runs, merge-sorting them, writing one run — is real.
//!
//! # Examples
//!
//! A store that keeps itself compacted with the paper's recommended
//! strategy:
//!
//! ```
//! use lsm_engine::{CompactionPolicy, Lsm, LsmOptions, Strategy};
//!
//! # fn main() -> Result<(), lsm_engine::Error> {
//! let db = Lsm::open_in_memory(
//!     LsmOptions::default()
//!         .memtable_capacity(128)
//!         .compaction_policy(CompactionPolicy::Threshold { live_tables: 4 })
//!         .compaction_strategy(Strategy::BalanceTreeInput),
//! )?;
//! for i in 0u64..1_000 {
//!     db.put(i, format!("value-{i}").into_bytes())?;
//! }
//! db.flush()?;
//! assert_eq!(db.get(42)?.as_deref(), Some(b"value-42".as_slice()));
//! assert!(db.live_tables().len() < 4, "the engine compacted itself");
//! assert!(db.stats().auto_compactions >= 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod batch;
mod block;
mod bloom;
mod cache;
mod compaction;
mod compress;
mod crc;
mod db;
mod error;
mod iter;
mod manifest;
mod memtable;
pub mod metrics;
mod options;
mod parallel;
mod planner;
mod reader;
pub mod scan;
mod sstable;
mod storage;
pub mod test_support;
mod types;
mod wal;

pub use batch::{BatchOp, WriteBatch};
pub use block::{Block, BlockBuilder};
pub use bloom::BloomFilter;
pub use cache::{BlockCache, CacheCounters, TableCache};
pub use compaction::{CompactionOutcome, CompactionStep};
pub use compress::CompressionType;
pub use crc::crc32;
pub use db::{AutoCompaction, Lsm, LsmPressure, LsmStats, Snapshot, StallTier};
pub use error::Error;
pub use iter::MergingIter;
pub use manifest::{Manifest, ManifestEdit, TableMeta};
pub use memtable::Memtable;
pub use metrics::EngineMetrics;
pub use options::{CompactionPolicy, LsmOptions};
pub use parallel::ParallelExecutor;
pub use planner::{observe_tables, observed_key, plan_compaction};
pub use reader::{ReadContext, ReadPathCounters, SstableReader, SstableReaderIter};
pub use scan::RangeIter;
pub use sstable::SstableBuilder;
pub use storage::{FileStorage, MemoryStorage, Storage};
pub use types::{
    key_from_u64, key_to_u64, Entry, InternalKey, IntoKey, Key, RangeTombstone, SeqNo, Value,
    ValueKind,
};
pub use wal::{RecoveryReport, SegmentReplay, Wal, WalRecord};

// Re-exported so engine users can configure policies without adding a
// direct `compaction-core` dependency.
pub use compaction_core::{MergePlan, SizeEstimator, Strategy};

// Re-exported so engine users can consume metrics and events without
// adding a direct `obs` dependency.
pub use obs::{
    Event, EventDrain, EventKind, EventRing, HistogramSnapshot, LatencyHistogram, MetricsSnapshot,
};
