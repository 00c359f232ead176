//! Overload acceptance: an open-loop pipelined client offers ~5× the
//! sustainable write rate against a 2-shard server under `Threshold`
//! auto-compaction with tight admission budgets. The server must shed
//! (`BUSY` / client window drops), admitted requests must keep a
//! bounded tail, and — the durability contract — **every acknowledged
//! write must survive a crash and reopen**, shed or no shed.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kv_service::{
    AdmissionConfig, Error, KvClient, KvServer, PipelinedClient, Request, Response, ServerOptions,
    ShardedKv,
};
use lsm_engine::test_support::GatedStorage;
use lsm_engine::{CompactionPolicy, LsmOptions, MemoryStorage, Storage};

const SHARDS: usize = 2;

/// WAL stays on: the point of the test is that acked writes survive the
/// crash below.
fn engine_options() -> LsmOptions {
    LsmOptions::default()
        .memtable_capacity(64)
        .compaction_policy(CompactionPolicy::Threshold { live_tables: 3 })
}

/// Zero-tolerance budgets: any write probing a shard mid-compaction (or
/// with any table at the trigger) is shed.
fn tight_admission() -> AdmissionConfig {
    AdmissionConfig::default()
        .stall_budget(Duration::ZERO)
        .backlog_budget(0)
}

#[test]
fn open_loop_overload_sheds_but_never_loses_acked_writes() {
    let storages: Vec<Arc<dyn Storage>> = (0..SHARDS)
        .map(|_| Arc::new(MemoryStorage::new()) as Arc<dyn Storage>)
        .collect();
    let store = Arc::new(
        ShardedKv::open_with_storages(storages.clone(), engine_options()).expect("open store"),
    );
    let handle = KvServer::bind_with(
        Arc::clone(&store),
        "127.0.0.1:0",
        ServerOptions::default()
            .workers(4)
            .admission(tight_admission()),
    )
    .expect("bind")
    .spawn();
    let addr = handle.addr();

    // Short closed-loop burst to measure a sustainable write rate (its
    // own key range; its BUSYs are tallied so the server counter can be
    // reconciled exactly at the end).
    let mut baseline_busy = 0u64;
    let mut baseline_acked: Vec<u64> = Vec::new();
    let sustainable = {
        let mut client = KvClient::connect(addr).expect("baseline connect");
        let started = Instant::now();
        for i in 0..400u64 {
            let key = 1_000_000 + i;
            match client.put(key, key.to_le_bytes().to_vec()) {
                Ok(()) => baseline_acked.push(key),
                Err(Error::Busy) => baseline_busy += 1,
                Err(e) => panic!("baseline put failed: {e}"),
            }
        }
        (baseline_acked.len().max(1) as f64) / started.elapsed().as_secs_f64().max(1e-9)
    };

    // Open loop at 5× the sustainable rate: 2 connections × window 32,
    // unique keys per (connection, tick) so an acked key maps to
    // exactly one expected value.
    const CONNS: u64 = 2;
    const OPS_PER_CONN: u64 = 2_500;
    let rate_per_conn = (sustainable * 5.0 / CONNS as f64).max(100.0);
    let interval = Duration::from_secs_f64(1.0 / rate_per_conn);

    struct DriverOutcome {
        acked: Vec<u64>,
        busy: u64,
        client_shed: u64,
        latencies_micros: Vec<u64>,
    }

    let outcomes: Vec<DriverOutcome> = std::thread::scope(|scope| {
        let drivers: Vec<_> = (0..CONNS)
            .map(|conn| {
                scope.spawn(move || {
                    let mut client = PipelinedClient::connect(addr, 32).expect("connect");
                    let mut outcome = DriverOutcome {
                        acked: Vec::new(),
                        busy: 0,
                        client_shed: 0,
                        latencies_micros: Vec::new(),
                    };
                    let mut pending: HashMap<u64, (u64, Instant)> = HashMap::new();
                    let absorb = |outcome: &mut DriverOutcome,
                                  pending: &mut HashMap<u64, (u64, Instant)>,
                                  seq: u64,
                                  response: Response| {
                        let (key, due) = pending.remove(&seq).expect("unknown seq");
                        match response {
                            Response::Ok => {
                                outcome.acked.push(key);
                                outcome
                                    .latencies_micros
                                    .push(due.elapsed().as_micros() as u64);
                            }
                            Response::Busy => outcome.busy += 1,
                            other => panic!("unexpected response {other:?}"),
                        }
                    };
                    let start = Instant::now();
                    for i in 0..OPS_PER_CONN {
                        let due = start + interval.mul_f64(i as f64);
                        loop {
                            while let Some((seq, response)) =
                                client.try_completion().expect("completion")
                            {
                                absorb(&mut outcome, &mut pending, seq, response);
                            }
                            let now = Instant::now();
                            if now >= due {
                                break;
                            }
                            std::thread::sleep((due - now).min(Duration::from_micros(200)));
                        }
                        let key = (conn + 1) * 10_000_000 + i;
                        let put = Request::Put {
                            key: key.to_be_bytes().to_vec(),
                            value: key.to_le_bytes().to_vec(),
                        };
                        match client.try_submit(&put).expect("submit") {
                            Some(seq) => {
                                pending.insert(seq, (key, due));
                            }
                            None => outcome.client_shed += 1,
                        }
                    }
                    for (seq, response) in client.drain().expect("drain") {
                        absorb(&mut outcome, &mut pending, seq, response);
                    }
                    assert!(pending.is_empty(), "every submitted request completed");
                    outcome
                })
            })
            .collect();
        drivers
            .into_iter()
            .map(|d| d.join().expect("driver thread"))
            .collect()
    });

    let acked: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.acked.iter().copied())
        .collect();
    let busy: u64 = outcomes.iter().map(|o| o.busy).sum();
    let client_shed: u64 = outcomes.iter().map(|o| o.client_shed).sum();
    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_micros.iter().copied())
        .collect();
    latencies.sort_unstable();

    // Overload must shed somewhere: the server refusing writes mid-
    // compaction, or the client window refusing the offered tick.
    assert!(
        busy + client_shed > 0,
        "5x offered load shed nothing (busy {busy}, client_shed {client_shed})"
    );
    assert!(!acked.is_empty(), "some writes must still be admitted");

    // Admitted requests keep a bounded tail (measured from the offered
    // tick, so client-side lag counts): seconds would mean the shed
    // path is not protecting admitted work.
    let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    assert!(
        p99 < 10_000_000,
        "p99 of admitted writes is unbounded: {p99}us"
    );

    // The server's shed/admit counters reconcile exactly with what the
    // clients observed.
    let metrics = KvClient::connect(addr)
        .expect("metrics connect")
        .metrics()
        .expect("metrics");
    let shed_writes = metrics.counter("stats_shed_writes").unwrap();
    assert_eq!(shed_writes, baseline_busy + busy, "server shed count");
    assert_eq!(
        metrics.counter("stats_admitted_writes").unwrap(),
        // Load-phase-free test: every admitted write came from the
        // baseline burst or the open-loop drivers.
        baseline_acked.len() as u64 + acked.len() as u64,
        "server admitted count"
    );
    assert!(shed_writes > 0 || client_shed > 0);

    // Crash the whole process state: server down, engine dropped
    // without flushing. The memtable contents survive only via WAL.
    handle.shutdown();
    drop(store);

    // Reopen from the same storage and verify every acked write.
    let reopened =
        ShardedKv::open_with_storages(storages, engine_options()).expect("reopen after crash");
    for key in baseline_acked.iter().chain(&acked) {
        let got = reopened.get(*key).expect("get after reopen");
        assert_eq!(
            got,
            Some(key.to_le_bytes().to_vec().into()),
            "acked write to key {key} lost by the crash"
        );
    }
}

/// Deterministic admission-control check: with a compaction frozen
/// mid-write on shard 0 and a zero stall budget, writes routed to
/// shard 0 are refused `BUSY`, writes to shard 1 and reads everywhere
/// proceed, and the shard recovers once the compaction completes.
#[test]
fn writes_to_a_stalled_shard_are_shed_while_reads_and_other_shards_proceed() {
    let gated = Arc::new(GatedStorage::new());
    let storages: Vec<Arc<dyn Storage>> = vec![
        Arc::clone(&gated) as Arc<dyn Storage>,
        Arc::new(MemoryStorage::new()),
    ];
    // Threshold high enough that only the explicit compact_all below
    // fires; WAL off (no crash in this test).
    let options = LsmOptions::default()
        .memtable_capacity(32)
        .compaction_policy(CompactionPolicy::Threshold { live_tables: 100 })
        .wal(false);
    let store = Arc::new(ShardedKv::open_with_storages(storages, options).expect("open store"));
    let handle = KvServer::bind_with(
        Arc::clone(&store),
        "127.0.0.1:0",
        ServerOptions::default()
            .workers(4)
            .admission(tight_admission()),
    )
    .expect("bind")
    .spawn();
    let addr = handle.addr();

    // Pre-shard keys: a pool routed to shard 0 and one to shard 1.
    let shard_key = |shard: usize, skip: u64| {
        (0u64..)
            .filter(|k| store.shard_index(&k.to_be_bytes()) == shard)
            .nth(skip as usize)
            .unwrap()
    };

    // Seed both shards with a few tables so compaction has work.
    let mut client = KvClient::connect(addr).expect("connect");
    for i in 0..200u64 {
        client.put(i, i.to_le_bytes().to_vec()).expect("seed put");
    }
    store.flush_all().expect("flush");
    assert!(store.shard_pressure(0).live_tables >= 2);

    // Freeze shard 0's compaction mid-write, from a helper thread.
    gated.close_gate();
    let compactor = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            store.compact_all().expect("compact_all");
        })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !store.shard_pressure(0).compaction_running {
        assert!(Instant::now() < deadline, "compaction never started");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Writes to the stalled shard: BUSY. Writes to the healthy shard
    // and reads everywhere: served.
    let stalled_key = shard_key(0, 500);
    let healthy_key = shard_key(1, 500);
    match client.put(stalled_key, b"x".to_vec()) {
        Err(Error::Busy) => {}
        other => panic!("write to the stalled shard must be BUSY, got {other:?}"),
    }
    client
        .put(healthy_key, b"y".to_vec())
        .expect("healthy shard still writable");
    let read_key = shard_key(0, 0);
    assert_eq!(
        client.get(read_key).expect("read on the stalled shard"),
        Some(read_key.to_le_bytes().to_vec()),
        "reads are never shed"
    );

    // Recovery: compaction completes, the shard admits writes again.
    gated.open_gate();
    compactor.join().unwrap();
    assert!(!store.shard_pressure(0).compaction_running);
    client
        .put(stalled_key, b"x".to_vec())
        .expect("stalled shard admits writes after the compaction");

    let metrics = client.metrics().expect("metrics");
    assert!(
        metrics.counter("stats_shed_writes").unwrap() >= 1,
        "the BUSY write was counted"
    );
    assert!(metrics.counter("stats_admitted_writes").unwrap() >= 202);
    handle.shutdown();
}

#[test]
fn session_cap_refuses_extra_connections_with_busy() {
    let store = Arc::new(
        ShardedKv::open_in_memory(1, LsmOptions::default().wal(false)).expect("open store"),
    );
    let handle = KvServer::bind_with(
        Arc::clone(&store),
        "127.0.0.1:0",
        ServerOptions::default().workers(1).max_sessions(1),
    )
    .expect("bind")
    .spawn();
    let addr = handle.addr();

    // Occupy the single session (the round-trip proves the server is
    // actually serving it, so the cap is known-reached).
    let mut held = KvClient::connect(addr).expect("first connect");
    held.put(1, b"v".to_vec()).expect("first put");

    // The second connection is accepted at the TCP level but refused
    // with one BUSY frame.
    let mut refused = KvClient::connect(addr).expect("second connect");
    match refused.put(2, b"w".to_vec()) {
        Err(Error::Busy) => {}
        other => panic!("expected BUSY at the session cap, got {other:?}"),
    }
    drop(refused);

    // Releasing the held session frees the slot; the server then serves
    // again and reports the refusal in METRICS.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(5);
    let metrics = loop {
        match KvClient::connect(addr).and_then(|mut c| c.metrics()) {
            Ok(metrics) => break metrics,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("metrics never became reachable: {e}"),
        }
    };
    assert!(
        metrics.counter("stats_shed_connections").unwrap() >= 1,
        "the refused connection must be counted: {:?}",
        metrics.counters
    );
    assert_eq!(
        metrics.counter("stats_puts"),
        Some(1),
        "the refused put must not have applied"
    );
    handle.shutdown();
}
