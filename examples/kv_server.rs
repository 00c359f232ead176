//! The sharded KV service end to end: start a multi-shard server on an
//! ephemeral port, drive it from concurrent TCP clients with a
//! write-heavy YCSB mix while `Threshold` auto-compaction fires on the
//! shards, then print the service statistics.
//!
//! Run with: `cargo run --release --example kv_server`

use std::sync::Arc;

use nosql_compaction::core::Strategy;
use nosql_compaction::lsm::{CompactionPolicy, LsmOptions};
use nosql_compaction::service::{KvClient, KvServer, ShardedKv, WireOp};
use nosql_compaction::ycsb::{Distribution, OperationKind, WorkloadSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const SHARDS: usize = 4;
    const CLIENTS: usize = 4;

    let store = Arc::new(ShardedKv::open_in_memory(
        SHARDS,
        LsmOptions::default()
            .memtable_capacity(200)
            .compaction_policy(CompactionPolicy::Threshold { live_tables: 4 })
            .compaction_strategy(Strategy::BalanceTreeInput)
            .compaction_threads(2)
            .wal(false),
    )?);
    let handle = KvServer::bind(Arc::clone(&store), "127.0.0.1:0", CLIENTS)?.spawn();
    let addr = handle.addr();
    println!("kv-server: {SHARDS} shards, {CLIENTS} workers, listening on {addr}");

    let spec = WorkloadSpec::builder()
        .record_count(1_000)
        .operation_count(8_000)
        .update_percent(60)
        .distribution(Distribution::Latest)
        .seed(7)
        .build()?;

    // Load phase over the wire, batched: one BATCH frame per 256 keys,
    // re-grouped into per-shard WriteBatches server-side. Scoped so the
    // loader's connection releases its pool worker before the measured
    // clients connect.
    let load_keys: Vec<u64> = spec.generator().load_phase().map(|op| op.key).collect();
    {
        let mut loader = KvClient::connect(addr)?;
        for chunk in load_keys.chunks(256) {
            let ops: Vec<WireOp> = chunk
                .iter()
                .map(|&k| WireOp::put(k.to_be_bytes().to_vec(), k.to_le_bytes().to_vec()))
                .collect();
            loader.batch(ops)?;
        }
    }
    println!("loaded {} records in batches", load_keys.len());

    // Run phase: the workload dealt round-robin across closed-loop
    // clients, one thread (and one TCP connection) each.
    let partitions = spec.generator().client_partitions(CLIENTS);
    let started = std::time::Instant::now();
    std::thread::scope(
        |scope| -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
            let mut handles = Vec::new();
            for ops in &partitions {
                handles.push(scope.spawn(
                    move || -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
                        let mut client = KvClient::connect(addr)?;
                        for op in ops {
                            match op.kind {
                                OperationKind::Insert | OperationKind::Update => {
                                    client.put(op.key, op.key.to_le_bytes().to_vec())?;
                                }
                                OperationKind::Delete => client.delete(op.key)?,
                                OperationKind::Read | OperationKind::Scan => {
                                    let _ = client.get(op.key)?;
                                }
                            }
                        }
                        Ok(())
                    },
                ));
            }
            for h in handles {
                h.join().expect("client thread")?;
            }
            Ok(())
        },
    )
    .map_err(|e| -> Box<dyn std::error::Error> { e })?;
    let elapsed = started.elapsed();
    println!(
        "{} ops from {CLIENTS} clients in {:.2?} ({:.0} ops/s)",
        spec.operation_count(),
        elapsed,
        spec.operation_count() as f64 / elapsed.as_secs_f64()
    );

    // Server-side view, over the wire (fresh connection; the loader's
    // was closed before the run phase).
    let metrics = KvClient::connect(addr)?.metrics()?;
    let counter = |name: &str| metrics.counter(name).unwrap_or(0);
    println!(
        "server stats: {} puts, {} gets, {} batches, {} flushes, {} auto-compactions \
         ({} entries moved, {:.2} ms stalled), {} live tables",
        counter("stats_puts"),
        counter("stats_gets"),
        counter("stats_write_batches"),
        counter("stats_flushes"),
        counter("stats_auto_compactions"),
        counter("stats_compaction_entry_cost"),
        counter("stats_compaction_stall_micros") as f64 / 1e3,
        counter("stats_live_tables"),
    );
    assert!(
        counter("stats_auto_compactions") >= 1,
        "compaction fired while serving"
    );

    handle.shutdown();
    println!("server shut down cleanly");
    Ok(())
}
