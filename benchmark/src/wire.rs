//! `wire-hot`: the KV service over TCP on the loopback interface.
//!
//! Two in-memory shards behind a two-worker server, two pipelined
//! connections with 32 requests in flight each, 50 % GET / 50 % PUT over
//! a key space that fits the block cache. The engine is cheap here, so
//! the frame codec, the per-connection worker, shard routing and the
//! client's reader thread are what the numbers move with.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kv_service::{KvServer, PipelinedClient, Request, Response, ServerHandle, ShardedKv};
use lsm_engine::{
    key_from_u64, HistogramSnapshot, LsmOptions, MemoryStorage, MetricsSnapshot, Storage,
};

use crate::check::{value_matches, Model, Tally};
use crate::engine::{counter_layers, preload_options, serving_options, stepped_options, Counters};
use crate::gen::{scatter, SplitMix64, Zipfian, RECORD_LEN};
use crate::measure::{closed_loop, mean, ratio, stored_bytes, Done, Edge, Kind};
use crate::report::{Layers, Report};
use crate::serve::{
    batches, median_setup, traced_layers, window_counts, window_layers, write_trace, Pass, THETA,
    WARMUP,
};
use crate::trace::Tracer;
use crate::Run;

const KEYS: usize = 20_000;
/// Connections, one generator thread each, each owning half the keys.
const CLIENTS: usize = 2;
/// A setup here takes some 40 ms, so the median of seven is cheap.
const SETUPS: usize = 7;
const SHARDS: usize = 2;
const WORKERS: usize = 2;
/// Requests each connection keeps in flight.
const PIPELINE: usize = 32;
const TRACED_OPS: u64 = 20_000;
/// The stepped pass flushes every shard after this many PUTs …
const STEP_FLUSH_PUTS: u64 = 1_000;
/// … and compacts every shard after this many flushes.
const STEP_COMPACT_FLUSHES: u64 = 6;
/// A reply this late means the server is gone; the run cannot go on.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A served store: the shards' backends, the store, the server, and one
/// connection per client.
struct Service {
    storages: Vec<Arc<dyn Storage>>,
    store: Arc<ShardedKv>,
    server: Option<ServerHandle>,
    connections: Vec<PipelinedClient>,
}

impl Service {
    /// Preloads every key of `models` into fresh shards, reopens them
    /// with `options` and serves them to `connections` connections.
    fn start(models: &mut [Model], options: LsmOptions, connections: usize, window: usize) -> Self {
        let storages: Vec<Arc<dyn Storage>> = (0..SHARDS)
            .map(|_| Arc::new(MemoryStorage::new()) as Arc<dyn Storage>)
            .collect();
        let loader = ShardedKv::open_with_storages(storages.clone(), preload_options(KEYS))
            .expect("opening the shards to preload");
        let records = models
            .iter_mut()
            .flat_map(|m| (0..m.slots()).map(move |slot| m.next_put(slot)));
        for batch in batches(records) {
            loader.apply_batch(batch).expect("preload batch");
        }
        loader.flush_all().expect("preload flush");
        drop(loader);

        let store = Arc::new(
            ShardedKv::open_with_storages(storages.clone(), options).expect("opening the shards"),
        );
        let server = KvServer::bind(Arc::clone(&store), "127.0.0.1:0", WORKERS)
            .expect("binding the server")
            .spawn();
        let connections = (0..connections)
            .map(|_| PipelinedClient::connect(server.addr(), window).expect("connecting"))
            .collect();
        Self {
            storages,
            store,
            server: Some(server),
            connections,
        }
    }

    /// Closes the connections and stops the server; the store stays open.
    fn stop_serving(&mut self) {
        self.connections.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_serving();
    }
}

/// Counter snapshot of every shard, added up.
fn read_counters(store: &ShardedKv, storages: &[Arc<dyn Storage>]) -> Counters {
    let metrics = store.metrics_snapshot();
    let hist = |name| metrics.histogram(name).cloned().unwrap_or_default();
    Counters::read(
        store.stats().aggregate(),
        storages,
        (hist("engine_flush_us"), hist("engine_compaction_step_us")),
    )
}

/// A request in flight: what was asked, and what the reply must be.
struct InFlight {
    seq: u64,
    kind: Kind,
    key: u64,
    /// For a GET, the version the key had when the GET was submitted.
    /// A connection's requests execute in order, so that is the version
    /// the reply must carry.
    version: u32,
    sent: Instant,
}

/// Draws the next request of the 50/50 mix and submits it.
fn submit_next(
    client: &mut PipelinedClient,
    model: &mut Model,
    zipf: &Zipfian,
    rng: &mut SplitMix64,
) -> InFlight {
    let slot = scatter(zipf.rank(rng), model.slots() as u64) as usize;
    if rng.below(2) == 0 {
        let key = model.key(slot);
        let version = model.version(slot);
        let sent = Instant::now();
        let seq = client
            .submit_get(&key.to_be_bytes())
            .expect("submitting a GET");
        InFlight {
            seq,
            kind: Kind::Get,
            key,
            version,
            sent,
        }
    } else {
        let (key, value) = model.next_put(slot);
        let (key_bytes, value) = (key.to_be_bytes().to_vec(), value.to_vec());
        let sent = Instant::now();
        let seq = client
            .submit_put(key_bytes, value)
            .expect("submitting a PUT");
        InFlight {
            seq,
            kind: Kind::Put,
            key,
            version: 0,
            sent,
        }
    }
}

/// Waits for the oldest request's reply and checks it.
fn complete(client: &mut PipelinedClient, asked: &InFlight) -> Done {
    let (seq, response) = client
        .wait_completion(REPLY_TIMEOUT)
        .expect("the connection to the server")
        .expect("a reply within the timeout");
    let end = Instant::now();
    let ok = seq == asked.seq
        && match (asked.kind, &response) {
            (Kind::Put, Response::Ok) => true,
            (Kind::Get, Response::Value(v)) => value_matches(asked.key, asked.version, Some(v)),
            (Kind::Get, Response::NotFound) => value_matches(asked.key, asked.version, None),
            _ => false,
        };
    Done {
        kind: asked.kind,
        start: asked.sent,
        end,
        ok,
        user_bytes: if ok && asked.kind == Kind::Put {
            RECORD_LEN
        } else {
            0
        },
        rows: 0,
    }
}

fn client_models() -> Vec<Model> {
    (0..CLIENTS)
        .map(|c| Model::new(c as u64, CLIENTS as u64, KEYS / CLIENTS))
        .collect()
}

/// Reads every key straight from the store and counts a full scan.
fn verify_store(store: &ShardedKv, models: &[Model]) -> Tally {
    let mut tally = Tally::default();
    for model in models {
        tally.absorb(model.verify_all(|key| match store.get(&key.to_be_bytes()) {
            Ok(value) => value.map(|v| v.to_vec()),
            Err(_) => Some(Vec::new()),
        }));
    }
    let live: u64 = models.iter().map(Model::live_keys).sum();
    let scanned = store.scan(..).filter(|row| row.is_ok()).count() as u64;
    tally.record(scanned == live);
    tally
}

/// Asks the server for its `METRICS` frame over an idle connection.
fn server_metrics(client: &mut PipelinedClient) -> MetricsSnapshot {
    client
        .submit(&Request::Metrics)
        .expect("submitting METRICS");
    match client.wait_completion(REPLY_TIMEOUT) {
        Ok(Some((_, Response::Metrics(snapshot)))) => snapshot,
        other => panic!("METRICS was answered by {other:?}"),
    }
}

pub fn wire_hot(run: &Run) -> Report {
    let ((mut service, mut models), setup_s) = median_setup(SETUPS, || {
        let mut models = client_models();
        let service = Service::start(&mut models, serving_options(), CLIENTS, PIPELINE);
        (service, models)
    });

    let zipf = Zipfian::new((KEYS / CLIENTS) as u64, THETA);
    let Service {
        storages,
        store,
        connections,
        ..
    } = &mut service;
    let clients: Vec<_> = connections
        .iter_mut()
        .zip(models.iter_mut())
        .enumerate()
        .map(|(lane, (client, model))| {
            let zipf = &zipf;
            let mut rng = SplitMix64::for_lane(run.seed, lane as u64);
            let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(PIPELINE);
            move || {
                while in_flight.len() < PIPELINE {
                    in_flight.push_back(submit_next(client, model, zipf, &mut rng));
                }
                let asked = in_flight.pop_front().expect("a full pipeline");
                complete(client, &asked)
            }
        })
        .collect();

    let mut edges = Vec::with_capacity(2);
    let mut stored = Vec::new();
    let mut queue_depth = Vec::new();
    let window = closed_loop(clients, WARMUP, run.seconds as usize, |edge| {
        if edge == Edge::Tick {
            stored.push(
                storages
                    .iter()
                    .map(|s| stored_bytes(s.as_ref()))
                    .sum::<u64>() as f64,
            );
            queue_depth.push(store.stats().aggregate().frozen_queue_depth as f64);
        } else {
            edges.push(read_counters(store, storages));
        }
    });
    let (open, close) = (&edges[0], &edges[1]);

    let mut layers = Layers::new();
    counter_layers(&mut layers, open, close, window.tally.attempted, CLIENTS);
    window_layers(&mut layers, &window);
    layers.insert("frozen_queue_depth", mean(&queue_depth));
    let write_amp = ratio(
        (close.bytes_written - open.bytes_written) as f64,
        window.user_bytes as f64,
    );
    let space_amp = ratio(mean(&stored), (KEYS as u64 * RECORD_LEN) as f64);

    // The replies still in flight when the window closed were abandoned
    // with the client closures; collect them so the connections are idle.
    let mut tally = window.tally;
    for client in &mut service.connections {
        let late = client.drain().expect("draining the pipeline");
        for (_, response) in late {
            tally.record(!matches!(response, Response::Busy | Response::Err(_)));
        }
    }
    let metrics = server_metrics(&mut service.connections[0]);
    let mut served = metrics
        .histogram("server_get_us")
        .cloned()
        .unwrap_or_default();
    served.merge(
        &metrics
            .histogram("server_put_us")
            .cloned()
            .unwrap_or_default(),
    );
    layers.insert("server.p99_us", served.quantile_permille(990) as f64);
    let shed = ["stats_shed_writes", "stats_shed_connections"]
        .iter()
        .map(|name| metrics.counter(name).unwrap_or(0))
        .sum::<u64>();
    layers.insert("admission.shed", shed as f64);

    // Stop serving, close every shard, reopen from the same backends.
    service.stop_serving();
    let storages = service.storages.clone();
    drop(service);
    let started = Instant::now();
    let store = ShardedKv::open_with_storages(storages, serving_options()).expect("reopening");
    layers.insert("recovery.reopen_s", started.elapsed().as_secs_f64());
    layers.insert(
        "recovery.records_replayed",
        store.stats().aggregate().recovery_records_replayed as f64,
    );
    if run.sabotage {
        let wrong = b"not the value the model expects".to_vec();
        store
            .put(key_from_u64(models[0].key(0)), wrong.into())
            .expect("sabotage put");
        store
            .delete(key_from_u64(models[1].key(0)))
            .expect("sabotage delete");
    }
    tally.absorb(verify_store(&store, &models));
    drop(store);

    let mut counts = window_counts(&window, SETUPS);
    if run.traced {
        tally.absorb(traced_wire(run, &mut layers, &mut counts));
    }
    Report {
        workload: "wire-hot",
        options: format!(
            "storage=memory shards={SHARDS} server_workers={WORKERS} admission=off \
             connections={CLIENTS} pipeline={PIPELINE} preload_keys={KEYS} \
             mix=50%get/50%put zipfian({THETA}) memtable=1000 policy=threshold(6) strategy=BT(I) \
             fanin=2 compression=lz wal=on background=on block_cache_bytes=8388608 warmup_s={} \
             setups={SETUPS} traced_ops={TRACED_OPS}",
            WARMUP.as_secs_f64(),
        ),
        tally,
        end_to_end: window.end_to_end(write_amp, space_amp, setup_s),
        layers,
        counts,
    }
}

/// Sum and count of the histograms `names`, added up.
fn hist_totals(metrics: &MetricsSnapshot, names: &[&str]) -> (u64, u64) {
    names
        .iter()
        .filter_map(|name| metrics.histogram(name))
        .fold((0, 0), |(sum, count), h: &HistogramSnapshot| {
            (sum + h.sum(), count + h.count())
        })
}

/// Mean of the samples `names` gained between two `METRICS` frames.
fn mean_between(a: &MetricsSnapshot, b: &MetricsSnapshot, names: &[&str]) -> f64 {
    let ((sum_a, count_a), (sum_b, count_b)) = (hist_totals(a, names), hist_totals(b, names));
    ratio((sum_b - sum_a) as f64, (count_b - count_a) as f64)
}

/// What one stepped pass over the wire measured.
struct WirePass {
    pass: Pass,
    /// Mean microseconds a request spent in the server, and in the engine.
    server_us: f64,
    engine_us: f64,
}

/// One stepped pass: one connection, one request in flight, every shard
/// flushed and compacted when the benchmark says so.
fn stepped_wire(seed: u64, tracer: &mut Tracer) -> WirePass {
    let mut models = vec![Model::new(0, 1, KEYS)];
    let mut service = tracer.span("setup", 0, |_| {
        Service::start(&mut models, stepped_options(), 1, 1)
    });
    let model = &mut models[0];
    let zipf = Zipfian::new(KEYS as u64, THETA);
    let mut rng = SplitMix64::for_lane(seed, 100);
    let mut tally = Tally::default();
    let (mut puts, mut flushes) = (0u64, 0u64);

    let metrics_before = server_metrics(&mut service.connections[0]);
    let before = read_counters(&service.store, &service.storages);
    for op in 1..=TRACED_OPS {
        let done = tracer.span("client.request", op, |_| {
            let client = &mut service.connections[0];
            let asked = submit_next(client, model, &zipf, &mut rng);
            complete(client, &asked)
        });
        tally.record(done.ok);
        if done.kind == Kind::Put {
            puts += 1;
            if puts.is_multiple_of(STEP_FLUSH_PUTS) {
                tracer.span("engine.flush", 0, |_| {
                    service.store.flush_all().expect("stepped flush")
                });
                flushes += 1;
                if flushes.is_multiple_of(STEP_COMPACT_FLUSHES) {
                    tracer.span("engine.compact", 0, |_| {
                        service.store.compact_all().expect("stepped compaction")
                    });
                }
            }
        }
    }
    let after = read_counters(&service.store, &service.storages);
    let metrics_after = server_metrics(&mut service.connections[0]);

    service.stop_serving();
    tally.absorb(tracer.span("oracle.verify", 0, |_| {
        verify_store(&service.store, &models)
    }));
    WirePass {
        pass: Pass {
            tally,
            ops_per_s: ratio(TRACED_OPS as f64, (after.at - before.at).as_secs_f64()),
            plan_ms: 0.0,
            delta: (before, after),
        },
        server_us: mean_between(
            &metrics_before,
            &metrics_after,
            &["server_get_us", "server_put_us"],
        ),
        engine_us: mean_between(
            &metrics_before,
            &metrics_after,
            &["engine_get_us", "engine_put_us"],
        ),
    }
}

/// The traced run of `wire-hot`: with one request in flight, the client's
/// latency minus the server's is what the wire costs, and the server's
/// minus the engine's is what the server adds.
fn traced_wire(run: &Run, layers: &mut Layers, counts: &mut BTreeMap<&'static str, u64>) -> Tally {
    let mut tracer = Tracer::new(true);
    let traced = tracer.span("workload", 0, |t| stepped_wire(run.seed, t));
    let untraced = stepped_wire(run.seed, &mut Tracer::new(false));

    let client_us = tracer.totals()["client.request"].mean_us();
    layers.insert("wire.overhead_us", client_us - traced.server_us);
    layers.insert("server.overhead_us", traced.server_us - traced.engine_us);
    traced_layers(
        layers,
        counts,
        &tracer,
        &traced.pass,
        &untraced.pass,
        TRACED_OPS,
    );
    write_trace("wire-hot", run.seed, &tracer);

    let mut tally = traced.pass.tally;
    tally.absorb(untraced.pass.tally);
    tally
}
