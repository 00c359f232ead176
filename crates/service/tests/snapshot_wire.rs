//! Wire-level MVCC integration: `DELRANGE` erases an interval with one
//! record per shard, `SNAP_CREATE`/`SNAP_GET`/`SNAP_SCAN` read a pinned
//! cut across every shard while the live store moves on, handles are
//! shared across connections, released handles answer errors, and the
//! pipelined client can ride `DELRANGE`/`SNAP_GET` but not `SNAP_SCAN`.

use std::sync::Arc;

use kv_service::{Error, KvClient, KvServer, PipelinedClient, Request, Response, ShardedKv};
use lsm_engine::LsmOptions;

fn spawn_server(shards: usize) -> (kv_service::ServerHandle, Arc<ShardedKv>) {
    let store = Arc::new(
        ShardedKv::open_in_memory(
            shards,
            LsmOptions::default().memtable_capacity(128).wal(false),
        )
        .expect("open"),
    );
    let handle = KvServer::bind(Arc::clone(&store), "127.0.0.1:0", 4)
        .expect("bind")
        .spawn();
    (handle, store)
}

#[test]
fn delrange_erases_an_interval_with_one_record_per_shard() {
    let (handle, store) = spawn_server(4);
    let mut client = KvClient::connect(handle.addr()).expect("connect");
    const RECORDS: u64 = 100_000;
    for chunk in (0..RECORDS).collect::<Vec<u64>>().chunks(1024) {
        let ops = chunk
            .iter()
            .map(|&k| kv_service::WireOp::put(k.to_be_bytes().to_vec(), b"x".to_vec()))
            .collect();
        client.batch(ops).expect("load");
    }

    // One wire request erases a 100k-key prefix: O(shards) records, not
    // O(keys) — the engines each log exactly one range tombstone.
    client.delete_range(0, RECORDS).expect("delrange");
    let stats = store.stats();
    for shard in &stats.per_shard {
        assert_eq!(
            shard.stats.range_deletes, 1,
            "one tombstone record per shard for the whole prefix"
        );
        assert_eq!(shard.stats.deletes, 0, "no per-key tombstones");
    }

    // Spot-check gets plus a full scan: the prefix is gone.
    for k in [0u64, 1, 4_999, 50_000, RECORDS - 1] {
        assert_eq!(client.get(k).expect("get"), None, "key {k}");
    }
    let leftovers = client.scan(0, RECORDS, 0).expect("scan").count();
    assert_eq!(leftovers, 0);

    // Inverted and empty bounds: OK no-ops, nothing else erased.
    client.put(7, b"keep".to_vec()).expect("put");
    client.delete_range(9, 3).expect("inverted is ok");
    client.delete_range(5, 5).expect("empty is ok");
    assert_eq!(client.get(7).expect("get"), Some(b"keep".to_vec()));
    handle.shutdown();
}

#[test]
fn snapshot_reads_survive_live_overwrites_and_cross_connections() {
    let (handle, store) = spawn_server(3);
    let mut writer = KvClient::connect(handle.addr()).expect("connect");
    for k in 0..500u64 {
        writer.put(k, format!("old{k}").into_bytes()).expect("put");
    }

    let snap = writer.snap_create().expect("snap_create");

    // Move the live world past the cut: overwrites, a point delete, a
    // range delete, then flush + compaction so the old versions only
    // survive because the pin holds them.
    for k in 0..500u64 {
        writer.put(k, format!("new{k}").into_bytes()).expect("put");
    }
    writer.delete(2).expect("del");
    writer.delete_range(300, 450).expect("delrange");
    store.flush_all().expect("flush");
    store.compact_all().expect("compact");

    // A *different* connection reads the same handle: registry state is
    // server-wide, not per-connection.
    let mut reader = KvClient::connect(handle.addr()).expect("connect");
    for k in [0u64, 2, 299, 300, 449, 499] {
        assert_eq!(
            reader.snap_get(snap, k).expect("snap_get"),
            Some(format!("old{k}").into_bytes()),
            "snapshot get({k})"
        );
        let live = reader.get(k).expect("get");
        if k == 2 || (300..450).contains(&k) {
            assert_eq!(live, None, "live get({k}) deleted");
        } else {
            assert_eq!(live, Some(format!("new{k}").into_bytes()));
        }
    }
    let snap_pairs: Vec<(u64, Vec<u8>)> = reader
        .snap_scan(snap, 0, 1_000, 0)
        .expect("snap_scan")
        .map(|item| {
            let (k, v) = item.expect("snap item");
            (u64::from_be_bytes(k.as_slice().try_into().unwrap()), v)
        })
        .collect();
    assert_eq!(snap_pairs.len(), 500, "the cut sees every pre-pin key");
    assert!(snap_pairs
        .iter()
        .all(|(k, v)| *v == format!("old{k}").into_bytes()));
    let live_count = reader.scan(0, 1_000, 0).expect("scan").count();
    assert_eq!(live_count, 500 - 1 - 150, "live world has the deletions");

    // Release, then both verbs report the dead handle.
    reader.snap_release(snap).expect("release");
    match reader.snap_release(snap) {
        Err(Error::Remote { .. }) => {}
        other => panic!("double release must fail remotely, got {other:?}"),
    }
    match reader.snap_get(snap, 0) {
        Err(Error::Remote { detail }) => {
            assert!(detail.contains("unknown snapshot handle"), "{detail}")
        }
        other => panic!("expected unknown-handle error, got {other:?}"),
    }
    let mut dead = reader.snap_scan(snap, 0, 10, 0).expect("send");
    match dead.next() {
        Some(Err(Error::Remote { detail })) => {
            assert!(detail.contains("unknown snapshot handle"), "{detail}")
        }
        other => panic!("expected unknown-handle stream error, got {other:?}"),
    }
    drop(dead);
    // The connection resynchronized after the errored stream.
    assert_eq!(reader.get(0).expect("get"), Some(b"new0".to_vec()));
    handle.shutdown();
}

#[test]
fn abandoned_snapshot_handles_are_evicted_at_the_cap() {
    let (handle, _store) = spawn_server(2);
    let mut client = KvClient::connect(handle.addr()).expect("connect");
    client.put(1, b"v".to_vec()).expect("put");

    let first = client.snap_create().expect("snap");
    assert_eq!(client.snap_get(first, 1).expect("get"), Some(b"v".to_vec()));
    // Create handles past the server's cap without releasing any: the
    // oldest (first) must be evicted rather than pinned forever.
    let mut last = first;
    for _ in 0..64 {
        last = client.snap_create().expect("snap");
    }
    match client.snap_get(first, 1) {
        Err(Error::Remote { detail }) => {
            assert!(detail.contains("unknown snapshot handle"), "{detail}")
        }
        other => panic!("evicted handle must error, got {other:?}"),
    }
    assert_eq!(
        client.snap_get(last, 1).expect("get"),
        Some(b"v".to_vec()),
        "the newest handle survives the eviction"
    );
    handle.shutdown();
}

#[test]
fn pipeline_rides_delrange_snap_get_and_snap_scan() {
    let (handle, _store) = spawn_server(2);
    let mut setup = KvClient::connect(handle.addr()).expect("connect");
    for k in 0..100u64 {
        setup.put(k, format!("p{k}").into_bytes()).expect("put");
    }
    let snap = setup.snap_create().expect("snap");

    let mut pipe = PipelinedClient::connect(handle.addr(), 8).expect("connect");
    let del_seq = pipe
        .submit(&Request::DeleteRange {
            start: 20u64.to_be_bytes().to_vec(),
            end: 80u64.to_be_bytes().to_vec(),
        })
        .expect("submit delrange");
    let snap_seq = pipe
        .submit(&Request::SnapGet {
            id: snap,
            key: 50u64.to_be_bytes().to_vec(),
        })
        .expect("submit snap_get");
    let live_seq = pipe.submit_get(&50u64.to_be_bytes()).expect("submit get");
    // SNAP_SCAN streams on the same pipelined connection, every frame
    // under the scan's id.
    let scan_seq = pipe
        .submit(&Request::SnapScan {
            id: snap,
            start: Vec::new(),
            end: Vec::new(),
            limit: 0,
        })
        .expect("submit snap_scan");

    let mut scanned = Vec::new();
    let mut ended = false;
    for (seq, response) in pipe.drain().expect("drain") {
        // The server processes one connection's frames in order, so the
        // snapshot reads (pinned before the DELRANGE) and the live read
        // (after it) are all deterministic.
        if seq == del_seq {
            assert_eq!(response, Response::Ok);
        } else if seq == snap_seq {
            assert_eq!(response, Response::Value(b"p50".to_vec()));
        } else if seq == live_seq {
            assert_eq!(response, Response::NotFound);
        } else {
            assert_eq!(seq, scan_seq);
            assert!(!ended, "no frame follows SCAN_END");
            match response {
                Response::BatchValues(pairs) => scanned.extend(pairs),
                Response::ScanEnd => ended = true,
                other => panic!("unexpected frame in the scan stream: {other:?}"),
            }
        }
    }
    assert!(ended);
    let expected: Vec<(Vec<u8>, Vec<u8>)> = (0..100u64)
        .map(|k| (k.to_be_bytes().to_vec(), format!("p{k}").into_bytes()))
        .collect();
    assert_eq!(scanned, expected, "the pinned cut predates the DELRANGE");
    handle.shutdown();
}
