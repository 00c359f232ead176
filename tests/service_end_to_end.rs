//! Acceptance: a multi-shard `KvServer` sustains concurrent TCP clients
//! through a YCSB write-heavy run with auto-compaction enabled and loses
//! no acknowledged write across crash-recovery of every shard.

use std::collections::HashSet;
use std::sync::Arc;

use nosql_compaction::core::Strategy;
use nosql_compaction::lsm::{CompactionPolicy, LsmOptions};
use nosql_compaction::service::{KvClient, KvServer, ShardedKv, WireOp};
use nosql_compaction::ycsb::{Distribution, WorkloadSpec};

/// Every acknowledged write of `key` stores this exact value, whichever
/// client issued it — so expectations stay deterministic even though
/// YCSB clients race on the same keys.
fn value_for(key: u64) -> Vec<u8> {
    key.to_le_bytes().repeat(3)
}

fn options() -> LsmOptions {
    LsmOptions::default()
        .memtable_capacity(60)
        .compaction_policy(CompactionPolicy::Threshold { live_tables: 4 })
        .compaction_strategy(Strategy::BalanceTreeInput)
}

#[test]
fn write_heavy_ycsb_run_survives_shard_crash_recovery() {
    const SHARDS: usize = 3;
    const CLIENTS: usize = 4;

    let dir = std::env::temp_dir().join(format!("kv-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let spec = WorkloadSpec::builder()
        .record_count(300)
        .operation_count(2_000)
        .update_percent(60) // write-heavy: updates + inserts only
        .distribution(Distribution::Latest)
        .seed(11)
        .build()
        .expect("valid spec");

    // Every key whose write was acknowledged over the wire.
    let acked_keys: HashSet<u64>;
    {
        let store = Arc::new(ShardedKv::open_on_disk(&dir, SHARDS, options()).expect("open"));
        let handle = KvServer::bind(Arc::clone(&store), "127.0.0.1:0", CLIENTS)
            .expect("bind")
            .spawn();
        let addr = handle.addr();

        // Load phase: batched over the wire. Scoped so the loader's
        // connection frees its pool worker before the CLIENTS
        // concurrent run-phase connections arrive.
        let load_keys: Vec<u64> = spec.generator().load_phase().map(|op| op.key).collect();
        {
            let mut loader = KvClient::connect(addr).expect("loader connect");
            for chunk in load_keys.chunks(128) {
                let ops: Vec<WireOp> = chunk
                    .iter()
                    .map(|&k| WireOp::put(k.to_be_bytes().to_vec(), value_for(k)))
                    .collect();
                loader.batch(ops).expect("load batch acknowledged");
            }
        }

        // Run phase: the YCSB stream dealt across concurrent clients.
        let partitions = spec.generator().client_partitions(CLIENTS);
        let per_client: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = partitions
                .iter()
                .map(|ops| {
                    scope.spawn(move || {
                        let mut client = KvClient::connect(addr).expect("client connect");
                        let mut acked = Vec::with_capacity(ops.len());
                        for op in ops {
                            client
                                .put(op.key, value_for(op.key))
                                .expect("write acknowledged");
                            acked.push(op.key);
                        }
                        acked
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        acked_keys = load_keys
            .into_iter()
            .chain(per_client.into_iter().flatten())
            .collect();

        // The serving-while-compacting scenario actually happened.
        let aggregate = store.stats().aggregate();
        assert!(
            aggregate.auto_compactions >= SHARDS as u64,
            "expected every shard to compact at least once, saw {}",
            aggregate.auto_compactions
        );
        assert!(aggregate.write_batches >= 1);

        handle.shutdown();
        // Crash: drop the store with memtables unflushed.
    }

    // Reopen every shard; all acknowledged writes must be visible.
    let reopened = ShardedKv::open_on_disk(&dir, SHARDS, options()).expect("reopen");
    for &key in &acked_keys {
        assert_eq!(
            reopened.get(key).expect("read after recovery"),
            Some(value_for(key).into()),
            "acknowledged write of key {key} lost in crash recovery"
        );
    }
    assert!(acked_keys.len() >= 300, "covered {} keys", acked_keys.len());
    std::fs::remove_dir_all(&dir).ok();
}
