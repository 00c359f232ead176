//! Tier-1 acceptance for the streaming scan pipeline: a wire-level scan
//! returns more than 10 000 keys in bounded `BATCH_VALUES` chunks —
//! engine iterators, per-shard k-way merge, SCAN protocol and the
//! blocking client iterator all exercised end to end — while the engine
//! stats prove key-range-partitioned probing pruned tables.

use std::sync::Arc;

use nosql_compaction::lsm::{CompactionPolicy, LsmOptions};
use nosql_compaction::service::{KvClient, KvServer, ShardedKv, WireOp};

#[test]
fn wire_scan_streams_more_than_ten_thousand_keys_in_bounded_chunks() {
    const RECORDS: u64 = 12_000;
    let store = Arc::new(
        ShardedKv::open_in_memory(
            3,
            LsmOptions::default()
                .memtable_capacity(500)
                .compaction_policy(CompactionPolicy::Threshold { live_tables: 8 })
                .wal(false),
        )
        .expect("open store"),
    );
    let handle = KvServer::bind(Arc::clone(&store), "127.0.0.1:0", 4)
        .expect("bind")
        .spawn();

    // Load over the wire in batches, then flush so the keys live in
    // many sstables per shard.
    let mut client = KvClient::connect(handle.addr()).expect("connect");
    for chunk in (0..RECORDS).collect::<Vec<u64>>().chunks(512) {
        let ops: Vec<WireOp> = chunk
            .iter()
            .map(|&k| WireOp::put(k.to_be_bytes().to_vec(), format!("v-{k}").into_bytes()))
            .collect();
        client.batch(ops).expect("load batch");
    }
    store.flush_all().expect("flush");

    // One unbounded SCAN: every key streams back, sorted, chunked.
    let mut stream = client.scan(Vec::new(), Vec::new(), 0).expect("scan");
    let mut expected_key = 0u64;
    for item in stream.by_ref() {
        let (key, value) = item.expect("scan item");
        let key = u64::from_be_bytes(key.as_slice().try_into().expect("8-byte key"));
        assert_eq!(key, expected_key, "stream out of order or lossy");
        assert_eq!(value, format!("v-{key}").into_bytes());
        expected_key += 1;
    }
    assert_eq!(expected_key, RECORDS, "scan returned {expected_key} keys");
    assert!(
        stream.keys() > 10_000,
        "acceptance: >10k keys over the wire"
    );
    let batches = stream.batches();
    assert!(
        batches >= RECORDS / 256,
        "{RECORDS} keys arrived in only {batches} frames — chunks not bounded"
    );
    drop(stream);

    // A narrow follow-up scan proves range pruning end to end: the
    // wire METRICS frame carries stats_range_pruned_tables > 0.
    let narrow = client.scan(100, 200, 0).expect("scan");
    assert_eq!(narrow.count(), 100);
    let metrics = client.metrics().expect("metrics");
    let counter = |name: &str| metrics.counter(name).expect(name);
    assert!(counter("stats_range_scans") >= 6, "per-shard scans counted");
    assert!(
        counter("stats_range_pruned_tables") > 0,
        "narrow scan pruned no tables across {} live tables",
        counter("stats_live_tables")
    );
    handle.shutdown();
}
