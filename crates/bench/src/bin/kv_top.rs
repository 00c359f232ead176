//! `kv-top`: a `top(1)`-style console over a live KV server's
//! observability surface. Each tick it fetches the self-describing
//! `METRICS` frame (named counters + latency histograms) and drains the
//! `EVENTS` ring from its cursor, then renders quantiles, op rates and
//! the recent maintenance trace — no server restart, no log scraping.
//!
//! Point it at a running server:
//! `cargo run --release --bin kv_top -- --addr 127.0.0.1:4100`
//!
//! Or let it spawn a self-contained demo server with synthetic traffic:
//! `cargo run --release --bin kv_top -- --spawn`
//!
//! Flags: `--once` samples a single tick and exits (CI smoke),
//! `--json` prints machine-readable JSON instead of the console view,
//! `--interval-ms N` sets the tick period (default 1000).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kv_service::{EventBatch, KvClient, KvServer, ServerHandle, ShardedKv, WireEvent};
use lsm_engine::{CompactionPolicy, HistogramSnapshot, LsmOptions, MetricsSnapshot};

/// Events shown per tick in the console view (the JSON view prints the
/// whole drained batch).
const CONSOLE_EVENT_TAIL: usize = 12;

#[derive(Debug)]
struct Args {
    addr: Option<String>,
    spawn: bool,
    once: bool,
    json: bool,
    interval: Duration,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| argv.iter().any(|a| a == name);
    let value = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let interval_ms: u64 = value("--interval-ms")
        .map(|v| v.parse().expect("--interval-ms takes milliseconds"))
        .unwrap_or(1_000);
    Args {
        addr: value("--addr"),
        spawn: flag("--spawn"),
        once: flag("--once"),
        json: flag("--json"),
        interval: Duration::from_millis(interval_ms.max(10)),
    }
}

/// The self-contained demo target: a small sharded server plus a
/// traffic thread, so every histogram and the event ring have something
/// to show. Dropping it stops the traffic and joins the server.
struct SpawnedServer {
    handle: Option<ServerHandle>,
    stop: Arc<AtomicBool>,
    traffic: Option<std::thread::JoinHandle<()>>,
}

impl SpawnedServer {
    fn start() -> Self {
        let store = Arc::new(
            ShardedKv::open_in_memory(
                2,
                LsmOptions::default()
                    .memtable_capacity(200)
                    .compaction_policy(CompactionPolicy::Threshold { live_tables: 4 })
                    .wal(false),
            )
            .expect("in-memory open cannot fail"),
        );
        let handle = KvServer::bind(Arc::clone(&store), "127.0.0.1:0", 2)
            .expect("bind ephemeral port")
            .spawn();
        let addr = handle.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let traffic_stop = Arc::clone(&stop);
        let traffic = std::thread::spawn(move || {
            let mut client = KvClient::connect(addr).expect("traffic client connect");
            let mut i: u64 = 0;
            while !traffic_stop.load(Ordering::Relaxed) {
                let key = i % 5_000;
                let sent = if i.is_multiple_of(4) {
                    client.get(key).map(|_| ())
                } else {
                    client.put(key, key.to_le_bytes().to_vec())
                };
                if sent.is_err() {
                    break;
                }
                i += 1;
                // A modest rate: enough to keep flushes and compactions
                // firing without saturating the host kv-top runs on.
                if i.is_multiple_of(64) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
        Self {
            handle: Some(handle),
            stop,
            traffic: Some(traffic),
        }
    }

    fn addr(&self) -> SocketAddr {
        self.handle.as_ref().expect("server running").addr()
    }
}

impl Drop for SpawnedServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(traffic) = self.traffic.take() {
            let _ = traffic.join();
        }
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

fn main() {
    let args = parse_args();
    let spawned = if args.spawn {
        Some(SpawnedServer::start())
    } else {
        None
    };
    let addr: String = match (&spawned, &args.addr) {
        (Some(server), _) => server.addr().to_string(),
        (None, Some(addr)) => addr.clone(),
        (None, None) => {
            eprintln!("kv-top: pass --addr HOST:PORT or --spawn");
            std::process::exit(2);
        }
    };
    // In spawn mode, give the traffic thread a head start so even a
    // `--once` sample has non-trivial histograms and events.
    if spawned.is_some() {
        std::thread::sleep(Duration::from_millis(300));
    }

    let mut client =
        KvClient::connect(&addr).unwrap_or_else(|e| panic!("kv-top: connecting to {addr}: {e}"));
    let mut cursor = 0u64;
    loop {
        let metrics = client
            .metrics()
            .unwrap_or_else(|e| panic!("kv-top: METRICS fetch failed: {e}"));
        let events = client
            .events(cursor, 0)
            .unwrap_or_else(|e| panic!("kv-top: EVENTS fetch failed: {e}"));
        cursor = events.next_cursor;
        if args.json {
            print!("{}", render_json(&addr, &metrics, &events));
        } else {
            print!("{}", render_console(&addr, &metrics, &events));
        }
        if args.once {
            break;
        }
        std::thread::sleep(args.interval);
    }
}

fn quantiles(hist: &HistogramSnapshot) -> [u64; 4] {
    hist.standard_quantiles()
}

/// Looks up a named counter; `None` when the server predates it.
fn counter(metrics: &MetricsSnapshot, name: &str) -> Option<u64> {
    metrics
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
}

/// The storage-lifecycle summary line: manifest checkpoint position,
/// live WAL segments, tombstone GC work and the last recovery's
/// taxonomy. Empty when the server doesn't expose these counters yet.
fn render_storage_line(metrics: &MetricsSnapshot) -> String {
    let Some(checkpoint) = counter(metrics, "stats_manifest_checkpoint_seq") else {
        return String::new();
    };
    let get = |name: &str| counter(metrics, name).unwrap_or(0);
    format!(
        "storage: checkpoint_seq={checkpoint} wal_segments_live={} wal_appends={} \
         wal_bytes={} gc_rewrites={} tombstones_dropped={} | recovery: frames_replayed={} \
         bytes_truncated={} quarantined={} frames / {} segments\n",
        get("stats_wal_segments_live"),
        get("stats_wal_appends"),
        get("stats_wal_bytes_written"),
        get("stats_gc_rewrites"),
        get("stats_tombstones_dropped"),
        get("stats_recovery_frames_replayed"),
        get("stats_recovery_bytes_truncated"),
        get("stats_recovery_frames_quarantined"),
        get("stats_recovery_segments_quarantined"),
    )
}

fn render_console(addr: &str, metrics: &MetricsSnapshot, events: &EventBatch) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "kv-top — {addr} — {} counters, {} histograms, {} new events (dropped {})\n",
        metrics.counters.len(),
        metrics.histograms.len(),
        events.events.len(),
        events.dropped
    ));
    out.push_str(&format!(
        "{:>28}  {:>12}  {:>10}  {:>10}  {:>10}  {:>10}\n",
        "histogram", "count", "p50_us", "p90_us", "p99_us", "p999_us"
    ));
    for (name, hist) in &metrics.histograms {
        if hist.count() == 0 {
            continue;
        }
        let [p50, p90, p99, p999] = quantiles(hist);
        out.push_str(&format!(
            "{name:>28}  {:>12}  {p50:>10}  {p90:>10}  {p99:>10}  {p999:>10}\n",
            hist.count()
        ));
    }
    out.push_str("counters: ");
    let mut first = true;
    for (name, value) in &metrics.counters {
        if *value == 0 {
            continue;
        }
        if !first {
            out.push_str("  ");
        }
        out.push_str(&format!("{name}={value}"));
        first = false;
    }
    out.push('\n');
    out.push_str(&render_storage_line(metrics));
    if !events.events.is_empty() {
        out.push_str("recent maintenance events:\n");
        let tail = events.events.len().saturating_sub(CONSOLE_EVENT_TAIL);
        for event in &events.events[tail..] {
            out.push_str(&format!(
                "  [{:>10}us] shard {} {}{}\n",
                event.at_micros,
                event.shard,
                event.kind,
                event
                    .fields
                    .iter()
                    .map(|(k, v)| format!(" {k}={v}"))
                    .collect::<String>()
            ));
        }
    }
    out.push('\n');
    out
}

/// One JSON document per tick (hand-rolled — the workspace is offline,
/// no serde). Metric and field names are `[a-z0-9_]`, so no escaping is
/// needed.
fn render_json(addr: &str, metrics: &MetricsSnapshot, events: &EventBatch) -> String {
    let mut out = String::new();
    out.push_str(&format!("{{\"addr\": \"{addr}\", \"counters\": {{"));
    for (i, (name, value)) in metrics.counters.iter().enumerate() {
        out.push_str(&format!(
            "\"{name}\": {value}{}",
            if i + 1 == metrics.counters.len() {
                ""
            } else {
                ", "
            }
        ));
    }
    out.push_str("}, \"histograms\": {");
    for (i, (name, hist)) in metrics.histograms.iter().enumerate() {
        let [p50, p90, p99, p999] = quantiles(hist);
        out.push_str(&format!(
            "\"{name}\": {{\"count\": {}, \"sum_us\": {}, \"p50_us\": {p50}, \
             \"p90_us\": {p90}, \"p99_us\": {p99}, \"p999_us\": {p999}}}{}",
            hist.count(),
            hist.sum(),
            if i + 1 == metrics.histograms.len() {
                ""
            } else {
                ", "
            }
        ));
    }
    out.push_str(&format!(
        "}}, \"events\": {{\"next_cursor\": {}, \"dropped\": {}, \"batch\": [",
        events.next_cursor, events.dropped
    ));
    for (i, event) in events.events.iter().enumerate() {
        out.push_str(&render_event_json(event));
        if i + 1 != events.events.len() {
            out.push_str(", ");
        }
    }
    out.push_str("]}}\n");
    out
}

fn render_event_json(event: &WireEvent) -> String {
    let mut out = format!(
        "{{\"seq\": {}, \"at_us\": {}, \"shard\": {}, \"kind\": \"{}\", \"fields\": {{",
        event.seq, event.at_micros, event.shard, event.kind
    );
    for (i, (name, value)) in event.fields.iter().enumerate() {
        out.push_str(&format!(
            "\"{name}\": {value}{}",
            if i + 1 == event.fields.len() {
                ""
            } else {
                ", "
            }
        ));
    }
    out.push_str("}}");
    out
}
