//! Wire-level scan integration: SCAN streams bounded BATCH_VALUES
//! chunks over real TCP, respects limits and bounds, interleaves with
//! point traffic on the same connection — closed-loop and pipelined —
//! and keeps streaming while a shard is mid-compaction.

use std::collections::HashMap;
use std::sync::Arc;

use kv_service::{KvClient, KvServer, PipelinedClient, Request, Response, ShardedKv, WireOp};
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
        let mut stream = client.scan(500, 800, 0).expect("scan");
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
        let stream = client.scan(0, RECORDS, 37).expect("scan");
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
        let stream = client.scan(10, 10, 0).expect("scan");
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
        let mut stream = client.scan(0, RECORDS, 0).expect("scan");
        for _ in 0..5 {
            stream.next().expect("item").expect("ok");
        }
    }
    // The same connection immediately serves point traffic again.
    assert_eq!(
        client.get(1_234).expect("get after abandoned scan"),
        Some(b"wire-1234".to_vec())
    );
    // And a fresh scan still works end to end.
    let count = client.scan(0, RECORDS, 0).expect("scan").count();
    assert_eq!(count as u64, RECORDS);
    handle.shutdown();
}

#[test]
fn scans_interleave_with_writes_and_stats_on_one_connection() {
    let (handle, _store) = spawn_server(2, 500);
    let mut client = KvClient::connect(handle.addr()).expect("connect");

    for round in 0..3 {
        client.put(10_000 + round, b"late".to_vec()).expect("put");
        let keys = client.scan(0, 20_000, 0).expect("scan").count() as u64;
        assert_eq!(keys, 500 + round + 1, "round {round}");
        let metrics = client.metrics().expect("metrics");
        assert!(metrics.counter("stats_range_scans").unwrap() > round);
    }
    // The wire metrics carry the scan counters.
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.counter("stats_range_scans").unwrap() >= 3);
    handle.shutdown();
}

#[test]
fn pipelined_scan_interleaves_with_point_traffic_under_its_own_seq() {
    const RECORDS: u64 = 1_000;
    enum Asked {
        Put,
        Get(u64),
        Scan,
    }
    let (handle, _store) = spawn_server(2, RECORDS);
    let mut pipe = PipelinedClient::connect(handle.addr(), 8).expect("connect");
    let mut asked: HashMap<u64, Asked> = HashMap::new();
    let mut completions = Vec::new();

    for i in 0..40u64 {
        // Fresh keys land above the scanned range, so the scan's
        // result does not depend on where it falls among the PUTs.
        let key = (10_000 + i).to_be_bytes().to_vec();
        let seq = pipe.submit_put(key, b"late".to_vec()).expect("put");
        asked.insert(seq, Asked::Put);
        let key = i * 7;
        let seq = pipe.submit_get(&key.to_be_bytes()).expect("get");
        asked.insert(seq, Asked::Get(key));
        if i == 20 {
            let seq = pipe
                .submit(&Request::Scan {
                    start: 0u64.to_be_bytes().to_vec(),
                    end: RECORDS.to_be_bytes().to_vec(),
                    limit: 0,
                })
                .expect("scan");
            asked.insert(seq, Asked::Scan);
        }
        while let Some(completion) = pipe.try_completion().expect("completion") {
            completions.push(completion);
        }
    }
    completions.extend(pipe.drain().expect("drain"));
    assert_eq!(pipe.in_flight(), 0);
    assert_eq!(pipe.outstanding(), 0);

    let mut scanned = Vec::new();
    let mut scan_frames = Vec::new();
    let mut last_seq = 0;
    for (at, (seq, response)) in completions.into_iter().enumerate() {
        assert!(seq >= last_seq, "replies arrive in request order");
        last_seq = seq;
        match (&asked[&seq], response) {
            (Asked::Put, Response::Ok) => {}
            (Asked::Get(key), Response::Value(v)) => {
                assert_eq!(v, format!("wire-{key}").into_bytes(), "seq {seq}");
            }
            (Asked::Scan, Response::BatchValues(pairs)) => {
                scan_frames.push(at);
                scanned.extend(pairs);
            }
            (Asked::Scan, Response::ScanEnd) => scan_frames.push(at),
            (_, other) => panic!("seq {seq} was answered {other:?}"),
        }
    }
    let keys: Vec<u64> = scanned
        .iter()
        .map(|(k, _)| u64::from_be_bytes(k.as_slice().try_into().unwrap()))
        .collect();
    assert_eq!(keys, (0..RECORDS).collect::<Vec<u64>>());
    // 1 000 keys at 256 per chunk: four BATCH_VALUES and the SCAN_END,
    // with no other request's reply between them.
    assert!(scan_frames.len() >= 5, "{} scan frames", scan_frames.len());
    let (first, last) = (scan_frames[0], *scan_frames.last().unwrap());
    assert_eq!(
        last - first + 1,
        scan_frames.len(),
        "scan frames are contiguous"
    );
    handle.shutdown();
}
