//! Concurrent service correctness: K client threads issue mixed
//! GET/PUT/BATCH traffic against a multi-shard server while `Threshold`
//! auto-compaction fires; then every shard is crash-reopened and every
//! acknowledged write must still be there.

use std::collections::HashMap;
use std::sync::Arc;

use kv_service::{KvClient, KvServer, ShardedKv, WireOp};
use lsm_engine::test_support::GatedStorage;
use lsm_engine::{CompactionPolicy, LsmOptions, MemoryStorage, Storage};

/// What one client believes the store holds for its keys: the newest
/// value it got an `OK` for, or `None` after an acknowledged delete.
type Acknowledged = HashMap<u64, Option<Vec<u8>>>;

fn service_options() -> LsmOptions {
    LsmOptions::default()
        .memtable_capacity(40)
        .compaction_policy(CompactionPolicy::Threshold { live_tables: 4 })
        .compaction_threads(2)
}

/// One client's session: a write-heavy mix of PUT, BATCH, DEL and GET
/// over a key range disjoint from every other client (so expectations
/// are deterministic under concurrency).
fn run_client(addr: std::net::SocketAddr, client_id: u64, rounds: u64) -> Acknowledged {
    let mut client = KvClient::connect(addr).expect("connect");
    let base = client_id * 1_000_000;
    let mut acked = Acknowledged::new();
    for round in 0..rounds {
        let key = base + (round % 97);
        match round % 5 {
            // Single put.
            0 | 1 => {
                let value = format!("c{client_id}-r{round}").into_bytes();
                client.put(key, value.clone()).expect("put");
                acked.insert(key, Some(value));
            }
            // Batch of 8 puts (+ occasionally a delete inside).
            2 => {
                let mut ops = Vec::new();
                let mut staged = Vec::new();
                for j in 0..8u64 {
                    let bkey = base + ((round + j) % 97);
                    let value = format!("c{client_id}-b{round}-{j}").into_bytes();
                    ops.push(WireOp::put(bkey.to_be_bytes().to_vec(), value.clone()));
                    staged.push((bkey, Some(value)));
                }
                client.batch(ops).expect("batch");
                for (bkey, value) in staged {
                    acked.insert(bkey, value);
                }
            }
            // Delete.
            3 => {
                client.delete(key).expect("delete");
                acked.insert(key, None);
            }
            // Read-your-writes check, live, mid-compaction.
            _ => {
                let got = client.get(key).expect("get");
                assert_eq!(
                    got.as_ref(),
                    acked.get(&key).and_then(|v| v.as_ref()),
                    "client {client_id} read its own write back wrong (key {key})"
                );
            }
        }
    }
    acked
}

#[test]
fn concurrent_clients_survive_compaction_and_crash_recovery() {
    const CLIENTS: u64 = 4;
    const ROUNDS: u64 = 300;
    const SHARDS: usize = 3;

    let dir = std::env::temp_dir().join(format!("kv-service-crash-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let acked: Vec<Acknowledged>;
    {
        let store =
            Arc::new(ShardedKv::open_on_disk(&dir, SHARDS, service_options()).expect("open"));
        let handle = KvServer::bind(Arc::clone(&store), "127.0.0.1:0", CLIENTS as usize)
            .expect("bind")
            .spawn();
        let addr = handle.addr();

        acked = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client_id| scope.spawn(move || run_client(addr, client_id, ROUNDS)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });

        // Auto-compaction really fired while the clients were running.
        let stats = store.stats();
        let aggregate = stats.aggregate();
        assert!(
            aggregate.auto_compactions >= 1,
            "threshold policy never fired (flushes: {})",
            aggregate.flushes
        );
        assert!(aggregate.write_batches >= 1, "batch path never exercised");

        handle.shutdown();
        // Crash: the store is dropped here without any graceful flush —
        // whatever is not in the WAL/sstables is lost.
    }

    // Reopen every shard and verify all acknowledged writes.
    let reopened = ShardedKv::open_on_disk(&dir, SHARDS, service_options()).expect("reopen");
    let mut checked = 0usize;
    for (client_id, expectations) in acked.iter().enumerate() {
        for (&key, expected) in expectations {
            let got = reopened.get(key).expect("get after reopen");
            assert_eq!(
                got.as_deref(),
                expected.as_deref(),
                "client {client_id} lost acknowledged write for key {key}"
            );
            checked += 1;
        }
    }
    assert!(
        checked >= (CLIENTS * 97) as usize,
        "expected full key coverage, checked {checked}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reads_proceed_while_another_shard_compacts() {
    // Direct (in-process) demonstration of per-shard independence: pin
    // writes to one shard until it compacts, reading a different shard
    // from another thread the whole time.
    let store = Arc::new(
        ShardedKv::open_in_memory(
            2,
            LsmOptions::default()
                .memtable_capacity(16)
                .compaction_policy(CompactionPolicy::Threshold { live_tables: 3 })
                .wal(false),
        )
        .expect("open"),
    );
    let router = store.router();
    // A key owned by shard 0 that the reader polls.
    let read_key = (0u64..)
        .find(|&k| router.shard_for(&k.to_be_bytes()) == 0)
        .unwrap();
    store
        .put(read_key, b"stable".to_vec().into())
        .expect("seed");

    std::thread::scope(|scope| {
        let reader_store = Arc::clone(&store);
        let reader = scope.spawn(move || {
            let mut reads = 0u64;
            for _ in 0..2_000 {
                assert_eq!(
                    reader_store.get(read_key).expect("read"),
                    Some(b"stable".to_vec().into())
                );
                reads += 1;
            }
            reads
        });
        // Writer floods shard 1 (hash-picked keys) to force compactions.
        let writer_store = Arc::clone(&store);
        let writer = scope.spawn(move || {
            let keys: Vec<u64> = (0u64..)
                .filter(|&k| router.shard_for(&k.to_be_bytes()) == 1)
                .take(64)
                .collect();
            for round in 0..200u64 {
                for &k in &keys {
                    writer_store
                        .put(k, vec![round as u8].into())
                        .expect("write");
                }
            }
        });
        assert_eq!(reader.join().unwrap(), 2_000);
        writer.join().unwrap();
    });

    let stats = store.stats();
    assert!(
        stats.per_shard[1].stats.auto_compactions >= 1,
        "shard 1 never compacted"
    );
    assert_eq!(
        stats.per_shard[0].stats.auto_compactions, 0,
        "shard 0 should not have compacted (no writes routed there)"
    );
}

#[test]
fn gets_on_a_compacting_shard_are_served_over_tcp() {
    // The read-path acceptance test at the service layer: a shard's
    // compaction is frozen mid-write while TCP clients keep GETting keys
    // *of that same shard* — reads never wait on the write mutex, so
    // they all succeed before the compaction is allowed to finish.
    let gated = Arc::new(GatedStorage::new());
    let storages: Vec<Arc<dyn Storage>> = vec![
        Arc::clone(&gated) as Arc<dyn Storage>,
        Arc::new(MemoryStorage::new()),
    ];
    let store = Arc::new(
        ShardedKv::open_with_storages(
            storages,
            LsmOptions::default().memtable_capacity(40).wal(false),
        )
        .expect("open"),
    );
    let handle = KvServer::bind(Arc::clone(&store), "127.0.0.1:0", 4)
        .expect("bind")
        .spawn();
    let addr = handle.addr();

    // Load through the server, then flush so shard 0 has several tables.
    {
        let mut client = KvClient::connect(addr).expect("connect");
        for i in 0..200u64 {
            client
                .put(i, format!("value-{i}").into_bytes())
                .expect("put");
        }
    }
    store.flush_all().expect("flush");

    // Freeze shard 0's next compaction at its first output write.
    gated.close_gate();
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let compactor = {
        let store = Arc::clone(&store);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            store.compact_all().expect("compact");
            done.store(true, std::sync::atomic::Ordering::SeqCst);
        })
    };

    // GETs over TCP, including keys on the frozen shard, all succeed
    // while the compaction holds shard 0's write mutex.
    let mut client = KvClient::connect(addr).expect("connect");
    for round in 0..3 {
        for i in 0..200u64 {
            assert_eq!(
                client.get(i).expect("get"),
                Some(format!("value-{i}").into_bytes()),
                "round {round}: GET stalled or failed mid-compaction"
            );
        }
    }
    assert!(
        !done.load(std::sync::atomic::Ordering::SeqCst),
        "compaction finished before the gate opened — the GETs above proved nothing"
    );

    gated.open_gate();
    compactor.join().unwrap();
    let stats = store.stats();
    assert!(
        stats.per_shard[0].stats.compactions >= 1,
        "shard 0 never compacted"
    );
    // The wire-level METRICS frame carries the read-path counters.
    let metrics = client.metrics().expect("metrics");
    let counter = |name: &str| metrics.counter(name).expect(name);
    assert!(counter("stats_gets") >= 600);
    assert!(counter("stats_table_cache_hits") + counter("stats_table_cache_misses") > 0);
    assert!(
        counter("stats_block_cache_hits") > 0,
        "repeated GETs must hit the block cache"
    );
    handle.shutdown();
    for i in 0..200u64 {
        assert!(store.get(i).expect("get").is_some(), "key {i}");
    }
}
