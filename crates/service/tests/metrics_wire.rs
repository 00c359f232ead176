//! End-to-end METRICS / EVENTS over a real server: the self-describing
//! frame must agree with the store's own statistics, the merged engine
//! histograms must have counted the traffic, and the event cursor must
//! tail the maintenance trace without loss.

use std::sync::Arc;

use kv_service::{KvClient, KvServer, ShardedKv};
use lsm_engine::{CompactionPolicy, LsmOptions};

fn serve(wal: bool) -> (kv_service::ServerHandle, Arc<ShardedKv>) {
    let store = Arc::new(
        ShardedKv::open_in_memory(
            3,
            LsmOptions::default()
                .memtable_capacity(16)
                .compaction_policy(CompactionPolicy::Threshold { live_tables: 3 })
                .wal(wal),
        )
        .unwrap(),
    );
    let handle = KvServer::bind(Arc::clone(&store), "127.0.0.1:0", 2)
        .unwrap()
        .spawn();
    (handle, store)
}

#[test]
fn metrics_frame_counts_traffic_and_agrees_with_stats() {
    let (handle, store) = serve(true);
    let mut client = KvClient::connect(handle.addr()).unwrap();

    for i in 0..200u64 {
        client.put(i, format!("v{i}").into_bytes()).unwrap();
    }
    for i in 0..100u64 {
        assert!(client.get(i).unwrap().is_some());
    }
    client.delete(7).unwrap();

    let metrics = client.metrics().unwrap();
    let stats = store.stats();
    let aggregate = stats.aggregate();

    // The engine statistics ride the frame as `stats_`-prefixed named
    // counters and agree with the store; the admission counters saw
    // every write (200 puts + 1 delete) and shed none.
    for (name, expect) in [
        ("stats_shards", 3),
        ("stats_puts", aggregate.puts),
        ("stats_deletes", aggregate.deletes),
        ("stats_gets", aggregate.gets),
        ("stats_memtable_hits", aggregate.memtable_hits),
        ("stats_flushes", aggregate.flushes),
        ("stats_compactions", aggregate.compactions),
        ("stats_live_tables", stats.live_tables() as u64),
        ("stats_admitted_writes", 201),
        ("stats_shed_writes", 0),
        ("stats_shed_connections", 0),
        ("stats_bg_flushes", aggregate.bg_flushes),
        // One WAL frame per acknowledged write, and the bytes they cost.
        ("stats_wal_appends", 201),
        ("stats_wal_bytes_written", aggregate.wal_bytes_written),
    ] {
        assert_eq!(metrics.counter(name), Some(expect), "counter {name}");
    }
    assert_eq!(aggregate.puts, 200);
    assert_eq!(aggregate.gets, 100);
    assert!(aggregate.wal_bytes_written > 201 * 16);

    assert!(
        metrics.counter("stats_manifest_checkpoint_seq").unwrap() >= 3,
        "every shard persists an initial manifest checkpoint at open"
    );
    for name in [
        "stats_wal_segments_live",
        "stats_wal_appends",
        "stats_wal_bytes_written",
        "stats_recovery_segments_scanned",
        "stats_recovery_frames_replayed",
        "stats_recovery_bytes_truncated",
        "stats_recovery_frames_quarantined",
        "stats_recovery_segments_quarantined",
        "stats_tombstones_dropped",
        "stats_gc_rewrites",
    ] {
        assert!(metrics.counter(name).is_some(), "counter {name} missing");
    }

    // The engine histograms merged across shards counted every op.
    assert_eq!(metrics.histogram("engine_put_us").unwrap().count(), 201);
    assert_eq!(metrics.histogram("engine_get_us").unwrap().count(), 100);
    // So did the server-side request histograms (one sample per frame).
    assert_eq!(metrics.histogram("server_put_us").unwrap().count(), 200);
    assert_eq!(metrics.histogram("server_get_us").unwrap().count(), 100);
    assert_eq!(metrics.histogram("server_delete_us").unwrap().count(), 1);

    // Server-observed latency can only be part of what the engine paid
    // plus wire/dispatch overhead — both are non-degenerate quantiles.
    let server_p99 = metrics
        .histogram("server_get_us")
        .unwrap()
        .quantile_permille(990);
    let engine_p99 = metrics
        .histogram("engine_get_us")
        .unwrap()
        .quantile_permille(990);
    assert!(server_p99 > 0 && engine_p99 > 0);
    assert!(
        server_p99 >= engine_p99,
        "the server path contains the engine path"
    );

    handle.shutdown();
}

#[test]
fn every_engine_counter_rides_the_frame_and_compaction_moves_its_cost() {
    let (handle, store) = serve(false);
    let mut client = KvClient::connect(handle.addr()).unwrap();

    // Every counter `LsmStats` declares is on the wire from the first
    // probe, before any traffic.
    let idle = client.metrics().unwrap();
    for (name, _) in store.stats().aggregate().counters() {
        let name = format!("stats_{name}");
        assert!(idle.counter(&name).is_some(), "counter {name} missing");
    }
    assert_eq!(idle.counter("stats_compaction_bytes_written"), Some(0));
    assert_eq!(idle.counter("stats_compaction_predicted_cost"), Some(0));

    // Capacity 16 across 3 shards: threshold compactions fire inline.
    for i in 0..600u64 {
        client.put(i, vec![i as u8]).unwrap();
    }
    let metrics = client.metrics().unwrap();
    let aggregate = store.stats().aggregate();
    assert!(aggregate.auto_compactions > 0, "threshold compaction fired");
    assert!(metrics.counter("stats_compaction_bytes_written").unwrap() > 0);
    assert!(metrics.counter("stats_compaction_predicted_cost").unwrap() > 0);
    // The frame is the counter list, value for value (maintenance is
    // inline, so nothing moved between the probe and the snapshot).
    for (name, value) in aggregate.counters() {
        let name = format!("stats_{name}");
        assert_eq!(metrics.counter(&name), Some(value), "counter {name}");
    }

    handle.shutdown();
}

#[test]
fn events_cursor_tails_the_maintenance_trace() {
    let (handle, store) = serve(false);
    let mut client = KvClient::connect(handle.addr()).unwrap();

    // Nothing has flushed yet: the trace is empty from cursor 0.
    let initial = client.events(0, 0).unwrap();
    assert_eq!(initial.dropped, 0);
    let mut cursor = initial.next_cursor;

    // Capacity 16 across 3 shards: 600 puts force freezes + flushes +
    // threshold compactions on every shard.
    for i in 0..600u64 {
        client.put(i, vec![i as u8]).unwrap();
    }
    store.flush_all().unwrap();
    store.compact_all().unwrap();

    // Tail the whole trace through the wire cursor, in bounded batches.
    let mut drained = Vec::new();
    loop {
        let batch = client.events(cursor, 8).unwrap();
        assert_eq!(batch.dropped, 0, "ring overflowed under test load");
        assert!(batch.events.len() <= 8);
        if batch.events.is_empty() {
            break;
        }
        cursor = batch.next_cursor;
        drained.extend(batch.events);
    }

    // Sequence numbers arrive strictly increasing across batches.
    assert!(drained.windows(2).all(|w| w[0].seq < w[1].seq));

    // The trace covers flush lifecycles on more than one shard, with
    // the structured fields intact end to end.
    let publishes: Vec<_> = drained
        .iter()
        .filter(|e| e.kind == "flush_publish")
        .collect();
    assert!(publishes.len() >= 3, "every shard flushed at least once");
    let shards: std::collections::BTreeSet<u32> = publishes.iter().map(|e| e.shard).collect();
    assert!(shards.len() >= 2, "events carry distinct shard tags");
    assert!(publishes.iter().all(|e| e.field("entries").is_some()));

    // Compactions traced with both cost fields on the flip.
    let flips: Vec<_> = drained
        .iter()
        .filter(|e| e.kind == "compaction_manifest_flip")
        .collect();
    assert!(!flips.is_empty(), "threshold compaction fired");
    assert!(flips
        .iter()
        .all(|e| e.field("predicted_cost").is_some() && e.field("measured_cost").is_some()));

    // The cursor is now at the head: a fresh poll returns nothing and
    // does not move.
    let idle = client.events(cursor, 0).unwrap();
    assert!(idle.events.is_empty());
    assert_eq!(idle.next_cursor, cursor);

    handle.shutdown();
}
