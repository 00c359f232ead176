//! Wire-level scan integration: SCAN streams bounded BATCH_VALUES
//! chunks over real TCP, respects limits and bounds, interleaves with
//! point traffic on the same connection, and keeps streaming while a
//! shard is mid-compaction.

use std::sync::Arc;

use kv_service::{KvClient, KvServer, ShardedKv, WireOp};
use lsm_engine::{CompactionPolicy, LsmOptions};

fn spawn_server(shards: usize, records: u64) -> (kv_service::ServerHandle, Arc<ShardedKv>) {
    let store = Arc::new(
        ShardedKv::open_in_memory(
            shards,
            LsmOptions::default()
                .memtable_capacity(200)
                .compaction_policy(CompactionPolicy::Threshold { live_tables: 6 })
                .wal(false),
        )
        .expect("open"),
    );
    let handle = KvServer::bind(Arc::clone(&store), "127.0.0.1:0", 4)
        .expect("bind")
        .spawn();
    let mut client = KvClient::connect(handle.addr()).expect("connect");
    for chunk in (0..records).collect::<Vec<u64>>().chunks(512) {
        let ops: Vec<WireOp> = chunk
            .iter()
            .map(|&k| WireOp::put(k.to_be_bytes().to_vec(), format!("wire-{k}").into_bytes()))
            .collect();
        client.batch(ops).expect("load batch");
    }
    store.flush_all().expect("flush");
    (handle, store)
}

#[test]
fn scan_streams_in_bounded_chunks_with_bounds_and_limits() {
    const RECORDS: u64 = 3_000;
    let (handle, store) = spawn_server(3, RECORDS);
    let mut client = KvClient::connect(handle.addr()).expect("connect");

    // Bounded window.
    {
        let mut stream = client.scan_u64(500..800, 0).expect("scan");
        let mut keys = Vec::new();
        for item in stream.by_ref() {
            let (k, v) = item.expect("scan item");
            let key = u64::from_be_bytes(k.as_slice().try_into().unwrap());
            assert_eq!(v, format!("wire-{key}").into_bytes());
            keys.push(key);
        }
        assert_eq!(keys, (500..800).collect::<Vec<u64>>());
        assert!(stream.batches() >= 2, "300 keys must arrive chunked");
    }

    // Limit cuts the stream after exactly `limit` keys.
    {
        let stream = client.scan_u64(0..RECORDS, 37).expect("scan");
        let keys: Vec<u64> = stream
            .map(|r| u64::from_be_bytes(r.unwrap().0.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(keys, (0..37).collect::<Vec<u64>>());
    }

    // Empty end = unbounded: the whole keyspace streams back sorted.
    {
        let mut stream = client.scan(Vec::new(), Vec::new(), 0).expect("scan");
        let mut count = 0u64;
        let mut last: Option<Vec<u8>> = None;
        for item in stream.by_ref() {
            let (k, _) = item.expect("scan item");
            if let Some(prev) = &last {
                assert!(*prev < k, "stream out of order");
            }
            last = Some(k);
            count += 1;
        }
        assert_eq!(count, RECORDS);
        assert!(
            stream.batches() >= RECORDS / 256,
            "{} keys in only {} batches",
            RECORDS,
            stream.batches()
        );
    }

    // An empty window terminates immediately with SCAN_END.
    {
        let stream = client.scan_u64(10..10, 0).expect("scan");
        assert_eq!(stream.count(), 0);
    }

    // The engines counted the scans and pruned disjoint tables.
    let aggregate = store.stats().aggregate();
    assert!(
        aggregate.range_scans >= 4 * 3 - 2,
        "scans fanned out per shard"
    );
    handle.shutdown();
}

#[test]
fn connection_survives_an_abandoned_scan() {
    const RECORDS: u64 = 2_000;
    let (handle, _store) = spawn_server(2, RECORDS);
    let mut client = KvClient::connect(handle.addr()).expect("connect");

    // Pull a few keys, then drop the stream mid-flight: the drop drains
    // the remaining frames so the connection stays in protocol sync.
    {
        let mut stream = client.scan_u64(0..RECORDS, 0).expect("scan");
        for _ in 0..5 {
            stream.next().expect("item").expect("ok");
        }
    }
    // The same connection immediately serves point traffic again.
    assert_eq!(
        client.get_u64(1_234).expect("get after abandoned scan"),
        Some(b"wire-1234".to_vec())
    );
    // And a fresh scan still works end to end.
    let count = client.scan_u64(0..RECORDS, 0).expect("scan").count();
    assert_eq!(count as u64, RECORDS);
    handle.shutdown();
}

#[test]
fn scans_interleave_with_writes_and_stats_on_one_connection() {
    let (handle, _store) = spawn_server(2, 500);
    let mut client = KvClient::connect(handle.addr()).expect("connect");

    for round in 0..3 {
        client
            .put_u64(10_000 + round, b"late".to_vec())
            .expect("put");
        let keys = client.scan_u64(0..20_000, 0).expect("scan").count() as u64;
        assert_eq!(keys, 500 + round + 1, "round {round}");
        let metrics = client.metrics().expect("metrics");
        assert!(metrics.counter("stats_range_scans").unwrap() > round);
    }
    // The wire metrics carry the scan counters.
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.counter("stats_range_scans").unwrap() >= 3);
    handle.shutdown();
}
