//! Open-loop (offered-load) serving over the live KV service.
//!
//! A closed-loop client (every `benchmark/` workload) waits for each
//! reply before sending the next request, so the server is never truly
//! saturated and compaction stalls are flattered: the clients politely
//! stop offering load exactly when the server slows down. This
//! experiment removes that mercy, in three cells:
//!
//! 1. **`closed`** — the closed-loop baseline at `C` connections: the
//!    throughput ceiling one-request-per-round-trip clients reach.
//! 2. **`pipelined`** — the same `C` connections driven through
//!    [`PipelinedClient`] with `W` requests in flight each, unthrottled:
//!    the server's actual capacity. This is the cell that must beat
//!    `closed` at equal connection count — pipelining removes the
//!    round-trip wait, not any server work.
//! 3. **`open-<m>x`** — fixed offered rates, `m ×` the measured
//!    pipelined capacity: each connection offers one operation per tick
//!    of an absolute schedule whether or not replies have come back.
//!    When the window is exhausted at a tick the operation is **shed at
//!    the client** (counted, not queued — queueing would just move the
//!    overload into the harness); when a shard is past its stall budget
//!    the server sheds it with `BUSY`. Latency for admitted operations
//!    is measured from the *scheduled* tick, so client-side lag counts
//!    against the tail (no coordinated omission).
//!
//! Together the cells produce a load curve — offered vs achieved
//! throughput with shed counts and p50/p99/p999 — instead of the single
//! closed-loop point, and they exercise the admission controller end to
//! end: past saturation, achieved throughput should hold (not collapse)
//! while the shed counters absorb the excess.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use compaction_core::Strategy;
use kv_service::{
    AdmissionConfig, KvClient, KvServer, PipelinedClient, Request, Response, ServerOptions,
    ShardedKv, WireOp,
};
use lsm_engine::{CompactionPolicy, HistogramSnapshot, LsmOptions, MetricsSnapshot};
use ycsb_gen::{Distribution, Operation, OperationKind, WorkloadSpec};

/// Configuration of the open-loop serving experiment.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// YCSB `recordcount` (loaded via BATCH frames before measuring).
    pub record_count: u64,
    /// Operations per cell (for open-loop cells: offered ticks).
    pub operation_count: u64,
    /// Percentage of run-phase operations that are point reads.
    pub read_percent: u32,
    /// Of the non-read operations, the percentage that are updates
    /// (the rest are inserts).
    pub update_percent: u32,
    /// Request distribution for non-insert keys.
    pub distribution: Distribution,
    /// Memtable capacity per shard, in distinct keys.
    pub memtable_capacity: usize,
    /// Live-table count per shard that triggers auto-compaction.
    pub trigger_tables: usize,
    /// Merge fan-in `k`.
    pub fanin: usize,
    /// Shards the server runs with.
    pub shards: usize,
    /// Compaction strategy every shard uses.
    pub strategy: Strategy,
    /// Client connections (same count in every cell).
    pub connections: usize,
    /// In-flight window per pipelined connection.
    pub window: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Server session cap (see [`ServerOptions::max_sessions`]).
    pub max_sessions: usize,
    /// Admission stall budget: writes to a shard whose in-progress
    /// compaction is older than this are shed with `BUSY`.
    pub stall_budget: Duration,
    /// Admission backlog budget in tables past the trigger.
    pub backlog_budget: usize,
    /// Offered rates of the open-loop cells, as multiples of the
    /// measured pipelined capacity.
    pub offered_multipliers: Vec<f64>,
    /// Run the shards with background maintenance (frozen-memtable
    /// queue + flush thread + compaction scheduler) instead of inline
    /// flush/compaction on the write path.
    pub background: bool,
    /// Workload seed.
    pub seed: u64,
}

impl OpenLoopConfig {
    /// The full-size sweep: enough operations per cell for stable
    /// p99/p999 tails.
    #[must_use]
    pub fn default_paper() -> Self {
        Self {
            record_count: 2_000,
            operation_count: 20_000,
            read_percent: 20,
            update_percent: 60,
            distribution: Distribution::Latest,
            memtable_capacity: 250,
            trigger_tables: 6,
            fanin: 2,
            shards: 2,
            strategy: Strategy::BalanceTreeInput,
            connections: 4,
            window: 64,
            workers: 4,
            max_sessions: 16,
            stall_budget: Duration::from_millis(20),
            backlog_budget: 2,
            offered_multipliers: vec![0.5, 1.0, 2.0, 5.0],
            background: false,
            seed: 7,
        }
    }

    /// A smoke-test size for CI and tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            record_count: 400,
            operation_count: 4_000,
            memtable_capacity: 100,
            trigger_tables: 4,
            offered_multipliers: vec![0.5, 2.0, 5.0],
            ..Self::default_paper()
        }
    }

    fn spec(&self) -> WorkloadSpec {
        let read = f64::from(self.read_percent.min(100)) / 100.0;
        let update = (1.0 - read) * f64::from(self.update_percent.min(100)) / 100.0;
        let insert = 1.0 - read - update;
        WorkloadSpec::builder()
            .record_count(self.record_count)
            .operation_count(self.operation_count)
            .read_proportion(read)
            .update_proportion(update)
            .insert_proportion(insert)
            .distribution(self.distribution)
            .seed(self.seed)
            .build()
            .expect("open-loop config produces a valid workload spec")
    }

    fn options(&self) -> LsmOptions {
        LsmOptions::default()
            .memtable_capacity(self.memtable_capacity)
            .compaction_policy(CompactionPolicy::Threshold {
                live_tables: self.trigger_tables,
            })
            .compaction_strategy(self.strategy)
            .compaction_fanin(self.fanin)
            .background_maintenance(self.background)
            .wal(false)
    }

    /// The engine mode every cell of this config runs with.
    fn mode(&self) -> &'static str {
        if self.background {
            "background"
        } else {
            "inline"
        }
    }

    fn server_options(&self) -> ServerOptions {
        ServerOptions::default()
            .workers(self.workers)
            .max_sessions(self.max_sessions)
            .admission(
                AdmissionConfig::default()
                    .stall_budget(self.stall_budget)
                    .backlog_budget(self.backlog_budget),
            )
    }

    /// Runs the three-phase experiment (closed baseline, pipelined
    /// capacity, offered-rate sweep). One fresh server per cell.
    #[must_use]
    pub fn run(&self) -> Vec<OpenLoopRow> {
        self.run_with_pinned_capacity(None).0
    }

    /// Like [`OpenLoopConfig::run`], but the offered rates of the
    /// open-loop cells are derived from `pinned` instead of this run's
    /// own measured pipelined capacity. Returns the rows plus the
    /// capacity this run measured.
    ///
    /// Pinning is how background-vs-inline comparisons stay honest: the
    /// background sweep is driven at the *inline* run's capacity
    /// multiples, so both engines face identical offered load and the
    /// shed/p999 columns compare cell-for-cell.
    #[must_use]
    pub fn run_with_pinned_capacity(&self, pinned: Option<f64>) -> (Vec<OpenLoopRow>, f64) {
        let spec = self.spec();
        let partitions = spec.generator().client_partitions(self.connections);
        let load_keys: Vec<u64> = spec.generator().load_phase().map(|op| op.key).collect();

        let mut rows = Vec::new();
        rows.push(self.run_closed(&load_keys, &partitions));
        let pipelined = self.run_pipelined(&load_keys, &partitions);
        let capacity = pipelined.achieved_ops_per_sec;
        rows.push(pipelined);
        let base = pinned.unwrap_or(capacity);
        for &multiplier in &self.offered_multipliers {
            let offered = base * multiplier;
            rows.push(self.run_open_loop(&load_keys, multiplier, offered));
        }
        (rows, capacity)
    }

    /// Starts a fresh loaded server; returns its handle, store and
    /// address.
    fn start_server(&self, load_keys: &[u64]) -> (kv_service::ServerHandle, Arc<ShardedKv>) {
        let store = Arc::new(
            ShardedKv::open_in_memory(self.shards, self.options())
                .expect("in-memory open cannot fail"),
        );
        let handle = KvServer::bind_with(Arc::clone(&store), "127.0.0.1:0", self.server_options())
            .expect("bind ephemeral port")
            .spawn();
        let mut client = KvClient::connect(handle.addr()).expect("load client connect");
        for chunk in load_keys.chunks(256) {
            let ops: Vec<WireOp> = chunk
                .iter()
                .map(|&k| WireOp::put(k.to_be_bytes().to_vec(), value_for(k)))
                .collect();
            // The server's admission control is armed during the load
            // phase too: a load batch that lands mid-compaction gets
            // BUSY — retry until the shard drains instead of panicking.
            loop {
                match client.batch(ops.clone()) {
                    Ok(()) => break,
                    Err(kv_service::Error::Busy) => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("load batch failed: {e}"),
                }
            }
        }
        (handle, store)
    }

    /// Cell 1: the closed-loop baseline at `connections` connections.
    fn run_closed(&self, load_keys: &[u64], partitions: &[Vec<Operation>]) -> OpenLoopRow {
        let (handle, store) = self.start_server(load_keys);
        let addr = handle.addr();
        let started = Instant::now();
        let outcomes: Vec<CellOutcome> = std::thread::scope(|scope| {
            let drivers: Vec<_> = partitions
                .iter()
                .map(|ops| {
                    scope.spawn(move || {
                        let mut client = KvClient::connect(addr).expect("client connect");
                        let mut outcome = CellOutcome::default();
                        for op in ops {
                            let t = Instant::now();
                            let result = match op.kind {
                                OperationKind::Insert | OperationKind::Update => {
                                    client.put(op.key, value_for(op.key))
                                }
                                OperationKind::Delete => client.delete(op.key),
                                OperationKind::Read | OperationKind::Scan => {
                                    client.get(op.key).map(|_| ())
                                }
                            };
                            match result {
                                Ok(()) => outcome.complete(t.elapsed()),
                                Err(kv_service::Error::Busy) => outcome.busy += 1,
                                Err(e) => panic!("closed-loop op failed: {e}"),
                            }
                        }
                        outcome
                    })
                })
                .collect();
            drivers
                .into_iter()
                .map(|d| d.join().expect("closed-loop driver"))
                .collect()
        });
        let elapsed = started.elapsed();
        self.finish_row("closed", 0, 0.0, outcomes, elapsed, &handle, &store)
    }

    /// Cell 2: unthrottled pipelined load — the capacity measurement.
    fn run_pipelined(&self, load_keys: &[u64], partitions: &[Vec<Operation>]) -> OpenLoopRow {
        let (handle, store) = self.start_server(load_keys);
        let addr = handle.addr();
        let window = self.window;
        let started = Instant::now();
        let outcomes: Vec<CellOutcome> = std::thread::scope(|scope| {
            let drivers: Vec<_> = partitions
                .iter()
                .map(|ops| {
                    scope.spawn(move || {
                        let mut client =
                            PipelinedClient::connect(addr, window).expect("pipelined connect");
                        let mut outcome = CellOutcome::default();
                        let mut sent_at: HashMap<u64, Instant> = HashMap::new();
                        for op in ops {
                            while let Some((seq, response)) =
                                client.try_completion().expect("completion")
                            {
                                outcome.record(&response, sent_at.remove(&seq));
                            }
                            let seq = client.submit(&request_for(op)).expect("submit");
                            sent_at.insert(seq, Instant::now());
                        }
                        for (seq, response) in client.drain().expect("drain") {
                            outcome.record(&response, sent_at.remove(&seq));
                        }
                        outcome
                    })
                })
                .collect();
            drivers
                .into_iter()
                .map(|d| d.join().expect("pipelined driver"))
                .collect()
        });
        let elapsed = started.elapsed();
        self.finish_row(
            "pipelined",
            self.window,
            0.0,
            outcomes,
            elapsed,
            &handle,
            &store,
        )
    }

    /// Cells 3+: offered load at a fixed aggregate rate.
    fn run_open_loop(&self, load_keys: &[u64], multiplier: f64, offered: f64) -> OpenLoopRow {
        // Re-deal the workload so every connection has enough cycled
        // operations for its share of the offered ticks.
        let per_conn = (self.operation_count as usize).div_ceil(self.connections);
        let partitions = self
            .spec()
            .generator()
            .client_partitions_cycled(self.connections, per_conn);
        let rate_per_conn = (offered / self.connections as f64).max(1.0);
        let interval = Duration::from_secs_f64(1.0 / rate_per_conn);

        let (handle, store) = self.start_server(load_keys);
        let addr = handle.addr();
        let window = self.window;
        let started = Instant::now();
        let outcomes: Vec<CellOutcome> = std::thread::scope(|scope| {
            let drivers: Vec<_> = partitions
                .iter()
                .map(|ops| {
                    scope.spawn(move || {
                        let mut client =
                            PipelinedClient::connect(addr, window).expect("pipelined connect");
                        let mut outcome = CellOutcome::default();
                        let mut sent_at: HashMap<u64, Instant> = HashMap::new();
                        let start = Instant::now();
                        for (i, op) in ops.iter().enumerate() {
                            let due = start + interval.mul_f64(i as f64);
                            // Drain completions while waiting for the tick.
                            loop {
                                while let Some((seq, response)) =
                                    client.try_completion().expect("completion")
                                {
                                    outcome.record(&response, sent_at.remove(&seq));
                                }
                                let now = Instant::now();
                                if now >= due {
                                    break;
                                }
                                std::thread::sleep((due - now).min(Duration::from_micros(200)));
                            }
                            // Offer the operation: shed at the client if
                            // the window is full (open loop never queues).
                            match client.try_submit(&request_for(op)).expect("submit") {
                                Some(seq) => {
                                    // Latency from the scheduled tick:
                                    // no coordinated omission.
                                    sent_at.insert(seq, due);
                                }
                                None => outcome.client_shed += 1,
                            }
                        }
                        for (seq, response) in client.drain().expect("drain") {
                            outcome.record(&response, sent_at.remove(&seq));
                        }
                        outcome
                    })
                })
                .collect();
            drivers
                .into_iter()
                .map(|d| d.join().expect("open-loop driver"))
                .collect()
        });
        let elapsed = started.elapsed();
        let label = format!("open-{multiplier:.1}x");
        self.finish_row(
            &label,
            self.window,
            offered,
            outcomes,
            elapsed,
            &handle,
            &store,
        )
    }

    /// Folds per-connection outcomes + server stats into one row.
    #[allow(clippy::too_many_arguments)]
    fn finish_row(
        &self,
        label: &str,
        window: usize,
        offered: f64,
        outcomes: Vec<CellOutcome>,
        elapsed: Duration,
        handle: &kv_service::ServerHandle,
        store: &Arc<ShardedKv>,
    ) -> OpenLoopRow {
        let metrics = fetch_metrics(handle.addr());
        // A missing counter would put a silent zero in the shed/admit
        // columns of the report.
        let counter = |name: &str| {
            metrics
                .counter(name)
                .unwrap_or_else(|| panic!("METRICS frame lacks counter {name}"))
        };
        // The server's own view of point-op latency: every timed request
        // kind the measured cell issues, merged into one histogram.
        // BATCH is deliberately excluded — the load phase is the only
        // issuer of batches, so leaving it out scopes the histogram to
        // the measurement window without snapshot-diffing. Sitting next
        // to the client-measured p99 this column makes the report
        // honest: in the closed cell (window 0, no queueing anywhere)
        // the two measure the same path and should agree within the
        // histogram's bucket error plus harness scheduling noise; in
        // windowed cells the client number is sojourn time through the
        // in-flight window, so the gap *is* the queueing delay — a
        // server-side regression moves both, a harness artifact moves
        // only the client column.
        let mut server_ops = HistogramSnapshot::default();
        for name in ["server_get_us", "server_put_us", "server_delete_us"] {
            if let Some(hist) = metrics.histogram(name) {
                server_ops.merge(hist);
            }
        }
        let engine = store.stats().aggregate();
        let mut latencies = Vec::new();
        let mut completed = 0u64;
        let mut busy = 0u64;
        let mut client_shed = 0u64;
        for outcome in outcomes {
            latencies.extend(outcome.latencies_micros);
            completed += outcome.completed;
            busy += outcome.busy;
            client_shed += outcome.client_shed;
        }
        latencies.sort_unstable();
        OpenLoopRow {
            label: label.to_owned(),
            mode: self.mode().to_owned(),
            shards: self.shards,
            strategy: self.strategy,
            connections: self.connections,
            window,
            offered_ops_per_sec: offered,
            achieved_ops_per_sec: completed as f64 / elapsed.as_secs_f64().max(1e-9),
            completed,
            busy,
            client_shed,
            server_admitted_writes: counter("stats_admitted_writes"),
            server_shed_writes: counter("stats_shed_writes"),
            server_shed_connections: counter("stats_shed_connections"),
            server_slowdown_stalls: counter("stats_slowdown_stalls"),
            server_stop_stalls: counter("stats_stop_stalls"),
            server_bg_flushes: counter("stats_bg_flushes"),
            p50_micros: percentile_permille(&latencies, 500),
            p99_micros: percentile_permille(&latencies, 990),
            p999_micros: percentile_permille(&latencies, 999),
            server_p99_micros: server_ops.quantile_permille(990),
            elapsed,
            auto_compactions: engine.auto_compactions,
            compaction_stall: engine.compaction_stall,
        }
    }
}

/// Per-connection tallies of one cell.
#[derive(Debug, Default)]
struct CellOutcome {
    latencies_micros: Vec<u64>,
    completed: u64,
    busy: u64,
    client_shed: u64,
}

impl CellOutcome {
    fn complete(&mut self, latency: Duration) {
        self.completed += 1;
        self.latencies_micros.push(latency.as_micros() as u64);
    }

    fn record(&mut self, response: &Response, sent: Option<Instant>) {
        match response {
            Response::Ok | Response::Value(_) | Response::NotFound => {
                self.completed += 1;
                if let Some(sent) = sent {
                    self.latencies_micros
                        .push(sent.elapsed().as_micros() as u64);
                }
            }
            Response::Busy => self.busy += 1,
            other => panic!("unexpected pipelined response {other:?}"),
        }
    }
}

/// The wire request for one workload operation (scans are excluded from
/// the open-loop mix).
fn request_for(op: &Operation) -> Request {
    let key = op.key.to_be_bytes().to_vec();
    match op.kind {
        OperationKind::Insert | OperationKind::Update => Request::Put {
            key,
            value: value_for(op.key),
        },
        OperationKind::Delete => Request::Delete { key },
        OperationKind::Read | OperationKind::Scan => Request::Get { key },
    }
}

/// The value every key stores (fixed small payload).
fn value_for(key: u64) -> Vec<u8> {
    key.to_le_bytes().to_vec()
}

/// Fetches the server's METRICS frame on a fresh connection, retrying
/// transient failures (e.g. a session slot not yet freed after the
/// drivers disconnected). Silently reporting zeros here would poison
/// the shed/admit columns of the report, so persistent failure is fatal
/// instead.
fn fetch_metrics(addr: std::net::SocketAddr) -> MetricsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match KvClient::connect(addr).and_then(|mut c| c.metrics()) {
            Ok(metrics) => return metrics,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("post-cell METRICS fetch never succeeded: {e}"),
        }
    }
}

/// The `permille`-th per-mille (‰) of sorted micros, nearest-rank:
/// 500 = p50, 990 = p99, 999 = p999.
fn percentile_permille(sorted: &[u64], permille: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((permille as usize * sorted.len()).div_ceil(1_000)).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One cell of the open-loop experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopRow {
    /// Cell label: `closed`, `pipelined`, or `open-<m>x`.
    pub label: String,
    /// Engine maintenance mode: `inline` (flush/compaction on the write
    /// path) or `background` (frozen queue + maintenance threads).
    pub mode: String,
    /// Shards the server ran with.
    pub shards: usize,
    /// Compaction strategy every shard used.
    pub strategy: Strategy,
    /// Client connections.
    pub connections: usize,
    /// In-flight window per connection (0 for the closed-loop cell).
    pub window: usize,
    /// Aggregate offered rate (0 = unthrottled).
    pub offered_ops_per_sec: f64,
    /// Operations completed OK per wall-clock second.
    pub achieved_ops_per_sec: f64,
    /// Operations completed OK.
    pub completed: u64,
    /// `BUSY` replies observed (server shed).
    pub busy: u64,
    /// Operations shed at the client because the window was full at
    /// their tick (0 for unthrottled cells).
    pub client_shed: u64,
    /// Writes the server's admission controller let through.
    pub server_admitted_writes: u64,
    /// Writes the server shed with `BUSY`.
    pub server_shed_writes: u64,
    /// Connections the server refused at its session cap.
    pub server_shed_connections: u64,
    /// Writes the engines delayed at the slowdown stall tier.
    pub server_slowdown_stalls: u64,
    /// Writes the engines blocked at the stop stall tier.
    pub server_stop_stalls: u64,
    /// Memtable flushes done by the background flush threads.
    pub server_bg_flushes: u64,
    /// Median latency of completed operations, in microseconds.
    pub p50_micros: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_micros: u64,
    /// 99.9th-percentile latency in microseconds.
    pub p999_micros: u64,
    /// The server's own 99th-percentile over the request kinds the
    /// measured cell issues (`server_get_us`/`put`/`delete`, merged;
    /// BATCH is load-phase-only and excluded), from the `METRICS`
    /// frame. The honesty column: in the closed cell (window 0) this
    /// and [`OpenLoopRow::p99_micros`] time the same path and should
    /// agree within histogram bucket error plus scheduling noise; in
    /// windowed cells the client number is sojourn time through the
    /// in-flight window, so the gap quantifies queueing delay. A
    /// server-side regression moves both columns together.
    pub server_p99_micros: u64,
    /// Wall-clock time of the cell.
    pub elapsed: Duration,
    /// Policy-triggered compactions across shards during the cell.
    pub auto_compactions: u64,
    /// Wall-clock time writes stalled behind compaction, across shards.
    pub compaction_stall: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permille_percentiles_are_nearest_rank() {
        let sorted: Vec<u64> = (1..=1_000).collect();
        assert_eq!(percentile_permille(&sorted, 500), 500);
        assert_eq!(percentile_permille(&sorted, 990), 990);
        assert_eq!(percentile_permille(&sorted, 999), 999);
        assert_eq!(percentile_permille(&[7], 999), 7);
        assert_eq!(percentile_permille(&[], 500), 0);
    }

    #[test]
    fn quick_open_loop_produces_the_three_cell_shapes() {
        let mut config = OpenLoopConfig::quick();
        config.operation_count = 1_500;
        config.offered_multipliers = vec![5.0];
        let rows = config.run();
        assert_eq!(rows.len(), 3);

        let closed = &rows[0];
        assert_eq!(closed.label, "closed");
        assert_eq!(closed.window, 0);
        assert!(closed.achieved_ops_per_sec > 0.0);
        assert!(closed.completed + closed.busy >= config.operation_count);

        let pipelined = &rows[1];
        assert_eq!(pipelined.label, "pipelined");
        assert_eq!(pipelined.window, config.window);
        assert!(pipelined.achieved_ops_per_sec > 0.0);
        // Shapes are asserted on counts only; the headline claim —
        // pipelining beats the closed loop at equal connection count —
        // is a wall-clock ratio and lives in the bench report.
        assert!(pipelined.completed + pipelined.busy >= config.operation_count);

        let overload = &rows[2];
        assert_eq!(overload.label, "open-5.0x");
        assert!(overload.offered_ops_per_sec > 0.0);
        assert!(
            overload.busy + overload.client_shed > 0,
            "offering 5x capacity must shed somewhere: {overload:?}"
        );

        // The honesty column arrived for every cell: the server timed
        // its own requests and reported a real quantile over METRICS.
        for row in &rows {
            assert!(row.p50_micros <= row.p99_micros, "{row:?}");
            assert!(row.p99_micros <= row.p999_micros, "{row:?}");
            assert!(
                row.server_p99_micros > 0,
                "server-side p99 missing in {}: {row:?}",
                row.label
            );
        }
    }

    #[test]
    fn background_mode_runs_at_pinned_rates_and_flushes_off_thread() {
        let mut config = OpenLoopConfig::quick();
        config.operation_count = 800;
        config.offered_multipliers = vec![2.0];
        config.background = true;
        let (rows, _capacity) = config.run_with_pinned_capacity(Some(5_000.0));
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.mode, "background");
        }
        let overload = &rows[2];
        assert_eq!(overload.label, "open-2.0x");
        assert!(
            (overload.offered_ops_per_sec - 10_000.0).abs() < 1e-6,
            "offered rate pinned to 2x the given capacity: {overload:?}"
        );
        assert!(
            rows.iter().any(|r| r.server_bg_flushes > 0),
            "flush threads must have done the flushing: {rows:?}"
        );
    }
}
