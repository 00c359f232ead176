//! A sharded, concurrent key-value **service** over the
//! [`lsm-engine`](lsm_engine) store.
//!
//! The paper behind this repository (*Fast Compaction Algorithms for
//! NoSQL Databases*, ICDCS 2015) motivates its compaction strategies
//! with a live NoSQL server that must keep answering reads and writes
//! *while* compaction runs. The engine crate provides the single-node,
//! single-threaded substrate; this crate turns it into something that
//! can actually serve that scenario:
//!
//! * [`ShardRouter`] — hashes keys across `N` shards, so load spreads
//!   and shards operate independently;
//! * [`ShardedKv`] — one [`Lsm`](lsm_engine::Lsm) per shard, each behind
//!   its own lock with its own
//!   [`CompactionPolicy`](lsm_engine::CompactionPolicy): a read on one
//!   shard proceeds while another shard compacts;
//! * batched writes — [`ShardedKv::apply_batch`] re-groups a
//!   [`WriteBatch`](lsm_engine::WriteBatch) per shard; each shard pays
//!   one WAL frame + one memtable pass
//!   ([`Lsm::write_batch`](lsm_engine::Lsm::write_batch));
//! * [`KvServer`] / [`KvClient`] — a minimal length-prefixed TCP wire
//!   protocol (`GET` / `PUT` / `DEL` / `BATCH` / `SCAN` / `DELRANGE` /
//!   `SNAP_*` / `METRICS` / `EVENTS`, `std::net` only) served by a fixed
//!   [`ThreadPool`];
//! * MVCC over the wire — [`ShardedKv::delete_range`] broadcasts one
//!   range-tombstone record per shard (`DELRANGE`), and
//!   [`ShardedKv::snapshot`] pins one LSN per shard into a
//!   [`ShardedSnapshot`] served remotely through server-held handles
//!   (`SNAP_CREATE` / `SNAP_GET` / `SNAP_SCAN` / `SNAP_RELEASE`);
//! * streaming range scans — [`ShardedKv::scan`] lazily k-way merges
//!   one snapshot-consistent engine scan per shard, and the `SCAN`
//!   request streams the result back as bounded `BATCH_VALUES` frames
//!   ([`KvClient::scan`] exposes a blocking iterator), so a scan over
//!   the whole keyspace runs in constant memory on both sides;
//! * acknowledged durability — a write is `OK`-ed only after the owning
//!   shard's WAL append returned, so acknowledged writes survive
//!   crash-and-reopen of every shard;
//! * pipelining — every frame carries its request's `u64` sequence id
//!   after the opcode/status byte, so [`PipelinedClient`] keeps up to
//!   `W` requests — scans included — in flight per connection, matched
//!   back to their requests by a reader thread;
//! * admission control — [`ServerOptions::admission`] arms a
//!   pressure-driven shed policy: writes to a shard past its
//!   stall/backlog budgets ([`Lsm::pressure`](lsm_engine::Lsm::pressure))
//!   are refused with `BUSY` instead of queueing unboundedly, the
//!   session cap refuses surplus connections the same way, and the
//!   shed/admit counters ride the `METRICS` frame. Reads are never shed.
//!
//! Serving is measured by the detached `benchmark/` package
//! (`wire-hot`); shedding under overload is asserted, with exact counter
//! reconciliation, in `tests/overload.rs`.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use kv_service::{KvClient, KvServer, ShardedKv};
//! use lsm_engine::{CompactionPolicy, LsmOptions};
//!
//! # fn main() -> Result<(), kv_service::Error> {
//! let store = Arc::new(ShardedKv::open_in_memory(
//!     4,
//!     LsmOptions::default()
//!         .memtable_capacity(256)
//!         .compaction_policy(CompactionPolicy::Threshold { live_tables: 4 }),
//! )?);
//! let handle = KvServer::bind(Arc::clone(&store), "127.0.0.1:0", 4)?.spawn();
//!
//! let mut client = KvClient::connect(handle.addr())?;
//! client.put(1, b"one".to_vec())?;
//! assert_eq!(client.get(1)?, Some(b"one".to_vec()));
//!
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod admission;
mod client;
mod error;
mod executor;
mod pipeline;
pub mod protocol;
mod router;
mod server;
mod store;
mod wire;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionCounters};
pub use client::{KvClient, ScanStream};
pub use error::Error;
pub use executor::ThreadPool;
pub use pipeline::PipelinedClient;
pub use protocol::{EventBatch, Request, Response, WireEvent, WireOp};
pub use router::ShardRouter;
pub use server::{KvServer, ServerHandle, ServerOptions};
pub use store::{ServiceStats, ShardScan, ShardStats, ShardedKv, ShardedSnapshot};
