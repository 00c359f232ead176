//! The three embedded-engine serving workloads: `disk-write`,
//! `mem-write` and `mem-read-cold`.
//!
//! Each run sets its store up (several times, for a median), serves a
//! closed loop of two clients through a warm-up and a measured window,
//! reopens the store and checks every key against the model. A traced
//! run then repeats a fixed number of operations with one client and
//! maintenance stepped by the benchmark, one span per call.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsm_engine::{
    key_from_u64, plan_compaction, CompressionType, Lsm, LsmOptions, Storage, WriteBatch,
};

use crate::check::{Model, Tally};
use crate::engine::{
    counter_layers, out_dir, preload_options, serving_options, stepped_options, Backing, Counters,
};
use crate::gen::{scatter, SplitMix64, Zipfian, RECORD_LEN};
use crate::measure::{closed_loop, mean, median, ratio, stored_bytes, Done, Edge, Kind, Window};
use crate::report::{Layers, Report};
use crate::trace::Tracer;
use crate::Run;

/// Unmeasured lead-in: caches fill and compaction reaches its cycle.
pub const WARMUP: Duration = Duration::from_millis(1_500);
/// Zipfian exponent of the skewed workloads (the YCSB default).
pub const THETA: f64 = 0.99;
/// The stepped pass flushes after this many distinct keys …
const STEP_FLUSH_KEYS: usize = 1_000;
/// … and compacts after this many flushes.
const STEP_COMPACT_FLUSHES: u64 = 6;

/// A write workload: 100 % upserts, zipfian over a preloaded key space.
struct WriteSpec {
    name: &'static str,
    backing: fn() -> Backing,
    backing_label: &'static str,
    /// Keys preloaded, and the key space the upserts draw from.
    keys: usize,
    /// How often the run sets its store up; `setup_s` is the median.
    setups: usize,
    traced_ops: u64,
}

/// Writers of a write workload. One: two closed-loop writers convoy on
/// the engine's write mutex, whichever holds it barges back in, and the
/// median latency then flips between "did not wait" and "waited a whole
/// put" from run to run (spread above 1.0 measured). One writer keeps
/// p50 a property of the write path, not of lock hand-off.
const WRITERS: usize = 1;

pub fn disk_write(run: &Run) -> Report {
    let spec = WriteSpec {
        name: "disk-write",
        backing: Backing::disk,
        backing_label: "file",
        keys: 20_000,
        setups: 7,
        traced_ops: 4_000,
    };
    write_workload(&spec, run)
}

pub fn mem_write(run: &Run) -> Report {
    let spec = WriteSpec {
        name: "mem-write",
        backing: Backing::memory,
        backing_label: "memory",
        keys: 200_000,
        setups: 3,
        traced_ops: 12_000,
    };
    write_workload(&spec, run)
}

/// Builds `times` stores with `build`, timing each, and returns the last
/// together with the median build time in seconds.
pub fn median_setup<T>(times: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        // The previous store is torn down outside the timed region.
        drop(last.take());
        let started = Instant::now();
        last = Some(build());
        seconds.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup"), median(&mut seconds))
}

/// Groups `records` into write batches of 1 000, the unit every preload
/// writes in.
pub fn batches(
    records: impl Iterator<Item = (u64, [u8; 100])>,
) -> impl Iterator<Item = WriteBatch> {
    let mut records = records.peekable();
    std::iter::from_fn(move || {
        records.peek()?;
        let mut batch = WriteBatch::with_capacity(1_000);
        for (key, value) in records.by_ref().take(1_000) {
            batch.put(key_from_u64(key), value.to_vec().into());
        }
        Some(batch)
    })
}

/// Bulk-loads `records` into a fresh store on `storage`, one sstable per
/// `keys_per_table` distinct keys, and closes it.
pub fn preload(
    storage: &Arc<dyn Storage>,
    keys_per_table: usize,
    records: impl Iterator<Item = (u64, [u8; 100])>,
) {
    let db = Lsm::open(Arc::clone(storage), preload_options(keys_per_table))
        .expect("opening the store to preload");
    for batch in batches(records) {
        db.write_batch(batch).expect("preload batch");
    }
    db.flush().expect("preload flush");
}

/// Overwrites one key with a value the model does not expect and
/// deletes another, through the public API.
pub fn sabotage(db: &Lsm, stale: u64, lost: u64) {
    db.put(stale, b"not the value the model expects".to_vec())
        .expect("sabotage put");
    db.delete(lost).expect("sabotage delete");
}

/// Reads every key of `models` back and counts the rows of a full scan.
fn verify_store(db: &Lsm, models: &[Model]) -> Tally {
    let mut tally = Tally::default();
    for model in models {
        tally.absorb(model.verify_all(|key| match db.get(key) {
            Ok(value) => value.map(|v| v.to_vec()),
            // An error reads as a value no model expects.
            Err(_) => Some(Vec::new()),
        }));
    }
    let live: u64 = models.iter().map(Model::live_keys).sum();
    let scanned = db.range(..).filter(|row| row.is_ok()).count() as u64;
    tally.record(scanned == live);
    tally
}

/// `disk-write` and `mem-write`. Each writer owns every `WRITERS`-th key,
/// so its model of them is exact.
fn write_workload(spec: &WriteSpec, run: &Run) -> Report {
    let &WriteSpec {
        backing,
        keys,
        traced_ops,
        ..
    } = spec;
    let per_client = keys / WRITERS;
    // The store handle comes first so that a discarded set-up closes the
    // engine before its scratch directory is removed.
    let ((db, store, mut models), setup_s) = median_setup(spec.setups, || {
        let store = backing();
        let mut models: Vec<Model> = (0..WRITERS)
            .map(|c| Model::new(c as u64, WRITERS as u64, per_client))
            .collect();
        let records = models
            .iter_mut()
            .flat_map(|m| (0..per_client).map(move |slot| m.next_put(slot)));
        preload(&store.storage, keys, records);
        let db = Lsm::open(Arc::clone(&store.storage), serving_options())
            .expect("opening the preloaded store");
        (db, store, models)
    });

    let zipf = Zipfian::new(per_client as u64, THETA);
    let clients: Vec<_> = models
        .iter_mut()
        .enumerate()
        .map(|(lane, model)| {
            let (db, zipf) = (&db, &zipf);
            let mut rng = SplitMix64::for_lane(run.seed, lane as u64);
            move || {
                let slot = scatter(zipf.rank(&mut rng), per_client as u64) as usize;
                let (key, value) = model.next_put(slot);
                let value = value.to_vec();
                let start = Instant::now();
                let ok = db.put(key, value).is_ok();
                Done {
                    kind: Kind::Put,
                    start,
                    end: Instant::now(),
                    ok,
                    user_bytes: if ok { RECORD_LEN } else { 0 },
                    rows: 0,
                }
            }
        })
        .collect();

    let mut edges = Vec::with_capacity(2);
    let mut stored = Vec::new();
    let mut queue_depth = Vec::new();
    let window = closed_loop(clients, WARMUP, run.seconds as usize, |edge| {
        if edge == Edge::Tick {
            stored.push(stored_bytes(store.storage.as_ref()) as f64);
            queue_depth.push(db.frozen_queue_depth() as f64);
        } else {
            edges.push(Counters::of(&db, &store.storage));
        }
    });
    let (open, close) = (&edges[0], &edges[1]);

    let mut layers = Layers::new();
    counter_layers(&mut layers, open, close, window.tally.attempted, WRITERS);
    window_layers(&mut layers, &window);
    layers.insert("frozen_queue_depth", mean(&queue_depth));
    let write_amp = ratio(
        (close.bytes_written - open.bytes_written) as f64,
        window.user_bytes as f64,
    );
    let space_amp = ratio(mean(&stored), (keys as u64 * RECORD_LEN) as f64);

    // Every acknowledged write must survive a close and a reopen.
    drop(db);
    let started = Instant::now();
    let db = Lsm::open(Arc::clone(&store.storage), serving_options()).expect("reopening");
    layers.insert("recovery.reopen_s", started.elapsed().as_secs_f64());
    layers.insert(
        "recovery.records_replayed",
        db.stats().recovery_records_replayed as f64,
    );
    if run.sabotage {
        sabotage(&db, models[0].key(0), models[0].key(1));
    }
    let mut tally = window.tally;
    tally.absorb(verify_store(&db, &models));
    drop(db);

    let mut counts = window_counts(&window, spec.setups);
    if run.traced {
        tally.absorb(traced_writes(spec, run, &mut layers, &mut counts));
    }
    Report {
        workload: spec.name,
        options: format!(
            "storage={} preload_keys={keys} clients={WRITERS} mix=100%upsert zipfian({THETA}) \
             memtable=1000 policy=threshold(6) strategy=BT(I) fanin=2 compression=lz wal=on \
             background=on warmup_s={} setups={} traced_ops={traced_ops}",
            spec.backing_label,
            WARMUP.as_secs_f64(),
            spec.setups,
        ),
        tally,
        end_to_end: window.end_to_end(write_amp, space_amp, setup_s),
        layers,
        counts,
    }
}

/// The sample counts behind a window's timings.
pub fn window_counts(window: &Window, setups: usize) -> BTreeMap<&'static str, u64> {
    BTreeMap::from([
        ("window_samples", window.tally.attempted),
        ("min_slice_samples", window.min_slice_samples as u64),
        ("setups", setups as u64),
    ])
}

/// Layer metrics read off the client-side latency samples.
pub fn window_layers(layers: &mut Layers, window: &Window) {
    let get = window.by_kind[Kind::Get as usize];
    let scan = window.by_kind[Kind::Scan as usize];
    layers.insert("p999_us", window.p999_us);
    layers.insert("get.p99_us", get.p99_us);
    layers.insert("scan.p99_us", scan.p99_us);
    layers.insert(
        "scan.keys_per_s",
        ratio(
            window.scan_rows as f64,
            scan.mean_us * scan.count as f64 / 1e6,
        ),
    );
}

/// Stepped maintenance: the benchmark, not a policy or a timer, decides
/// when the store flushes and compacts, and every such call is a span.
struct Stepper<'a> {
    db: &'a Lsm,
    storage: &'a Arc<dyn Storage>,
    dirty: Vec<bool>,
    dirty_keys: usize,
    flushes: u64,
    plan_ns: u64,
    plans: u64,
}

impl<'a> Stepper<'a> {
    fn new(db: &'a Lsm, storage: &'a Arc<dyn Storage>, keys: usize) -> Self {
        Self {
            db,
            storage,
            dirty: vec![false; keys],
            dirty_keys: 0,
            flushes: 0,
            plan_ns: 0,
            plans: 0,
        }
    }

    /// Call after a put of key index `index`.
    fn wrote(&mut self, index: usize, tracer: &mut Tracer) {
        if !std::mem::replace(&mut self.dirty[index], true) {
            self.dirty_keys += 1;
            if self.dirty_keys == STEP_FLUSH_KEYS {
                self.flush(tracer);
                if self.flushes.is_multiple_of(STEP_COMPACT_FLUSHES) {
                    self.compact(tracer);
                }
            }
        }
    }

    fn flush(&mut self, tracer: &mut Tracer) {
        tracer.span("engine.flush", 0, |_| {
            self.db.flush().expect("stepped flush")
        });
        self.dirty.fill(false);
        self.dirty_keys = 0;
        self.flushes += 1;
    }

    /// Times the planner on its own, then lets the engine plan again and
    /// merge: `planner.plan` is the cost `engine.compact` contains.
    fn compact(&mut self, tracer: &mut Tracer) {
        let started = Instant::now();
        tracer.span("planner.plan", 0, |_| {
            plan_compaction(
                self.storage.as_ref(),
                &self.db.live_tables(),
                self.db.options(),
            )
            .expect("stepped plan")
        });
        self.plan_ns += started.elapsed().as_nanos() as u64;
        self.plans += 1;
        tracer.span("engine.compact", 0, |_| {
            self.db.auto_compact().expect("stepped compaction")
        });
    }

    /// Quiesces: whatever is buffered is flushed and the tables merged.
    fn finish(&mut self, tracer: &mut Tracer) {
        self.flush(tracer);
        self.compact(tracer);
    }

    fn plan_ms(&self) -> f64 {
        ratio(self.plan_ns as f64 / 1e6, self.plans as f64)
    }
}

/// What one stepped pass measured.
pub struct Pass {
    pub tally: Tally,
    pub ops_per_s: f64,
    /// Mean of the stand-alone `plan_compaction()` calls, 0 without any.
    pub plan_ms: f64,
    /// Counters before the first operation and after the last.
    pub delta: (Counters, Counters),
}

/// One stepped pass of `ops` upserts with one client. `put_span` names
/// the per-operation span, so passes with different options stay apart.
fn stepped_writes(
    spec: &WriteSpec,
    seed: u64,
    options: LsmOptions,
    put_span: &'static str,
    tracer: &mut Tracer,
) -> Pass {
    let (keys, ops) = (spec.keys, spec.traced_ops);
    let store = (spec.backing)();
    let mut model = Model::new(0, 1, keys);
    tracer.span("setup", 0, |_| {
        let records = (0..keys).map(|slot| model.next_put(slot));
        preload(&store.storage, keys, records);
    });
    let db = Lsm::open(Arc::clone(&store.storage), options.clone()).expect("stepped open");
    let zipf = Zipfian::new(keys as u64, THETA);
    let mut rng = SplitMix64::for_lane(seed, 100);
    let mut stepper = Stepper::new(&db, &store.storage, keys);
    let mut tally = Tally::default();
    let before = Counters::of(&db, &store.storage);
    for op in 1..=ops {
        let slot = scatter(zipf.rank(&mut rng), keys as u64) as usize;
        let (key, value) = model.next_put(slot);
        let value = value.to_vec();
        let ok = tracer.span(put_span, op, |_| db.put(key, value).is_ok());
        tally.record(ok);
        stepper.wrote(slot, tracer);
    }
    stepper.finish(tracer);
    let after = Counters::of(&db, &store.storage);
    let plan_ms = stepper.plan_ms();
    drop(db);
    let db = tracer.span("engine.reopen", 0, |_| {
        Lsm::open(Arc::clone(&store.storage), options).expect("stepped reopen")
    });
    tally.absorb(tracer.span("oracle.verify", 0, |_| {
        verify_store(&db, std::slice::from_ref(&model))
    }));
    Pass {
        tally,
        ops_per_s: ratio(ops as f64, (after.at - before.at).as_secs_f64()),
        plan_ms,
        delta: (before, after),
    }
}

/// The traced run of a write workload: the stepped pass with spans, the
/// same pass without (the difference is the tracing overhead), and the
/// same pass without a WAL (the difference is what the WAL costs a put).
fn traced_writes(
    spec: &WriteSpec,
    run: &Run,
    layers: &mut Layers,
    counts: &mut BTreeMap<&'static str, u64>,
) -> Tally {
    let mut tracer = Tracer::new(true);
    let (with_wal, no_wal) = tracer.span("workload", 0, |t| {
        let with_wal = t.span("pass.wal", 0, |t| {
            stepped_writes(spec, run.seed, stepped_options(), "engine.put", t)
        });
        let no_wal = t.span("pass.nowal", 0, |t| {
            let options = stepped_options().wal(false);
            stepped_writes(spec, run.seed, options, "engine.put.nowal", t)
        });
        (with_wal, no_wal)
    });
    let untraced = stepped_writes(
        spec,
        run.seed,
        stepped_options(),
        "engine.put",
        &mut Tracer::new(false),
    );

    let totals = tracer.totals();
    let put_us = totals["engine.put"].mean_us();
    let bare_us = totals["engine.put.nowal"].mean_us();
    layers.insert("wal.put_us", put_us - bare_us);
    layers.insert("memtable.put_us", bare_us);
    layers.insert("planner.plan_ms", with_wal.plan_ms);
    traced_layers(
        layers,
        counts,
        &tracer,
        &with_wal,
        &untraced,
        spec.traced_ops,
    );
    write_trace(spec.name, run.seed, &tracer);

    let mut tally = with_wal.tally;
    tally.absorb(no_wal.tally);
    tally.absorb(untraced.tally);
    tally
}

/// Layer metrics and exactly-repeating counts every traced pass yields.
pub fn traced_layers(
    layers: &mut Layers,
    counts: &mut BTreeMap<&'static str, u64>,
    tracer: &Tracer,
    traced: &Pass,
    untraced: &Pass,
    ops: u64,
) {
    layers.insert("trace.ops_per_s", traced.ops_per_s);
    layers.insert(
        "trace.overhead_share",
        1.0 - ratio(traced.ops_per_s, untraced.ops_per_s),
    );
    layers.insert("trace.spans", tracer.span_count() as f64);
    let (a, b) = (&traced.delta.0, &traced.delta.1);
    counts.insert("traced.ops", ops);
    counts.insert("traced.spans", tracer.span_count() as u64);
    counts.insert("traced.puts", b.stats.puts - a.stats.puts);
    counts.insert("traced.gets", b.stats.gets - a.stats.gets);
    counts.insert("traced.flushes", b.stats.flushes - a.stats.flushes);
    counts.insert(
        "traced.compactions",
        b.stats.compactions - a.stats.compactions,
    );
    counts.insert(
        "traced.cost_actual_entries",
        b.stats.compaction_entry_cost() - a.stats.compaction_entry_cost(),
    );
    counts.insert(
        "traced.storage_bytes_written",
        b.bytes_written - a.bytes_written,
    );
    counts.insert(
        "traced.block_reads",
        b.stats.data_block_reads - a.stats.data_block_reads,
    );
}

/// Writes `benchmark/out/trace-<workload>.json`.
pub fn write_trace(workload: &str, seed: u64, tracer: &Tracer) {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("creating benchmark/out");
    std::fs::write(
        dir.join(format!("trace-{workload}.json")),
        tracer.to_json(workload, seed),
    )
    .expect("writing the trace file");
}

// ---- mem-read-cold ----

/// Keys preloaded; every even key `2·slot` is present, every odd absent.
const COLD_KEYS: usize = 400_000;
/// Sstables the preload leaves: four of first versions and a fifth that
/// overwrites a quarter of the keys, all spanning the whole key range.
const COLD_TABLE_KEYS: usize = COLD_KEYS / 4;
/// A tenth of the ≈ 43 MB of logical data.
const COLD_BLOCK_CACHE: u64 = 4 * 1024 * 1024;
const COLD_TRACED_OPS: u64 = 30_000;
/// Reader threads; reads take no engine lock, so two do not convoy.
const COLD_READERS: usize = 2;
const COLD_SETUPS: usize = 3;

fn cold_options(compression: CompressionType) -> LsmOptions {
    preload_options(COLD_TABLE_KEYS)
        .block_cache_capacity_bytes(COLD_BLOCK_CACHE)
        .compression(compression)
}

/// Loads the cold store: every key once in a scattered order, then a
/// quarter of them again, so reads meet shadowed versions.
fn cold_store(seed: u64, compression: CompressionType) -> (Backing, Lsm, Model) {
    let store = Backing::memory();
    let mut model = Model::new(0, 2, COLD_KEYS);
    let db = Lsm::open(Arc::clone(&store.storage), cold_options(compression))
        .expect("opening the cold store");
    let mut rng = SplitMix64::for_lane(seed, 200);
    let offset = rng.below(COLD_KEYS as u64);
    let firsts =
        (0..COLD_KEYS as u64).map(|i| scatter((i + offset) % COLD_KEYS as u64, COLD_KEYS as u64));
    let seconds: Vec<u64> = (0..COLD_KEYS / 4)
        .map(|_| rng.below(COLD_KEYS as u64))
        .collect();
    let records = firsts
        .chain(seconds)
        .map(|slot| model.next_put(slot as usize));
    for batch in batches(records) {
        db.write_batch(batch).expect("cold preload batch");
    }
    db.flush().expect("cold preload flush");
    (store, db, model)
}

/// One read operation of the cold mix, by slot.
#[derive(Debug, Clone, Copy)]
enum ColdOp {
    /// GET of a key that is present.
    Present(usize),
    /// GET of the absent key just above a present one.
    Absent(usize),
    /// Scan of at most `.1` rows starting at a present key.
    Scan(usize, usize),
}

/// Draws from the cold mix: 80 % GET of a present key, 15 % GET of an
/// absent key, 5 % scan of 1 to 100 rows; keys uniform.
fn draw_cold(rng: &mut SplitMix64) -> ColdOp {
    let dice = rng.below(100);
    let slot = rng.below(COLD_KEYS as u64) as usize;
    if dice < 80 {
        ColdOp::Present(slot)
    } else if dice < 95 {
        ColdOp::Absent(slot)
    } else {
        ColdOp::Scan(slot, 1 + rng.below(100) as usize)
    }
}

/// Executes `op`, timing the engine call alone; the check comes after.
fn run_cold(db: &Lsm, model: &Model, op: ColdOp) -> Done {
    match op {
        ColdOp::Present(slot) => {
            let start = Instant::now();
            let got = db.get(model.key(slot));
            let end = Instant::now();
            let ok = got.is_ok_and(|v| model.matches(slot, v.as_deref()));
            done(Kind::Get, start, end, ok, 0)
        }
        ColdOp::Absent(slot) => {
            let start = Instant::now();
            let got = db.get(model.key(slot) + 1);
            let end = Instant::now();
            done(Kind::Get, start, end, matches!(got, Ok(None)), 0)
        }
        ColdOp::Scan(slot, limit) => {
            let start = Instant::now();
            let rows: Result<Vec<_>, _> = db
                .range(key_from_u64(model.key(slot))..)
                .take(limit)
                .collect();
            let end = Instant::now();
            match rows {
                Ok(rows) => {
                    let ok = model.scan_matches(slot, limit, &rows);
                    done(Kind::Scan, start, end, ok, rows.len() as u32)
                }
                Err(_) => done(Kind::Scan, start, end, false, 0),
            }
        }
    }
}

fn done(kind: Kind, start: Instant, end: Instant, ok: bool, rows: u32) -> Done {
    Done {
        kind,
        start,
        end,
        ok,
        user_bytes: 0,
        rows,
    }
}

pub fn mem_read_cold(run: &Run) -> Report {
    let ((store, db, model), setup_s) =
        median_setup(COLD_SETUPS, || cold_store(run.seed, CompressionType::Lz));
    // The window writes nothing, so both amplifications are the preload's.
    let loaded = (COLD_KEYS + COLD_KEYS / 4) as u64 * RECORD_LEN;
    let write_amp = ratio(store.storage.bytes_written() as f64, loaded as f64);
    let space_amp = ratio(
        stored_bytes(store.storage.as_ref()) as f64,
        (COLD_KEYS as u64 * RECORD_LEN) as f64,
    );

    let clients: Vec<_> = (0..COLD_READERS)
        .map(|lane| {
            let (db, model) = (&db, &model);
            let mut rng = SplitMix64::for_lane(run.seed, lane as u64);
            move || run_cold(db, model, draw_cold(&mut rng))
        })
        .collect();
    let mut edges = Vec::with_capacity(2);
    let window = closed_loop(clients, WARMUP, run.seconds as usize, |edge| {
        if edge != Edge::Tick {
            edges.push(Counters::of(&db, &store.storage));
        }
    });

    let mut layers = Layers::new();
    counter_layers(
        &mut layers,
        &edges[0],
        &edges[1],
        window.tally.attempted,
        COLD_READERS,
    );
    window_layers(&mut layers, &window);

    if run.sabotage {
        sabotage(&db, model.key(0), model.key(1));
    }
    let mut tally = window.tally;
    tally.absorb(verify_store(&db, std::slice::from_ref(&model)));
    drop(db);

    let mut counts = window_counts(&window, COLD_SETUPS);
    if run.traced {
        tally.absorb(traced_cold(run, &mut layers, &mut counts));
    }
    Report {
        workload: "mem-read-cold",
        options: format!(
            "storage=memory preload_keys={COLD_KEYS} tables=5 block_cache_bytes={COLD_BLOCK_CACHE} \
             clients={COLD_READERS} mix=80%get/15%get-absent/5%scan(1..100) uniform \
             memtable={COLD_TABLE_KEYS} policy=manual compression=lz wal=off background=off \
             warmup_s={} setups={COLD_SETUPS} traced_ops={COLD_TRACED_OPS}",
            WARMUP.as_secs_f64(),
        ),
        tally,
        end_to_end: window.end_to_end(write_amp, space_amp, setup_s),
        layers,
        counts,
    }
}

/// One stepped pass of the cold read mix with one client.
fn stepped_cold(
    seed: u64,
    compression: CompressionType,
    get_span: &'static str,
    tracer: &mut Tracer,
) -> Pass {
    let (store, db, model) = tracer.span("setup", 0, |_| cold_store(seed, compression));
    let mut rng = SplitMix64::for_lane(seed, 100);
    let mut tally = Tally::default();
    let before = Counters::of(&db, &store.storage);
    for op in 1..=COLD_TRACED_OPS {
        let cold = draw_cold(&mut rng);
        let name = match cold {
            ColdOp::Scan(..) => "engine.scan",
            _ => get_span,
        };
        tally.record(tracer.span(name, op, |_| run_cold(&db, &model, cold).ok));
    }
    let after = Counters::of(&db, &store.storage);
    Pass {
        tally,
        ops_per_s: ratio(COLD_TRACED_OPS as f64, (after.at - before.at).as_secs_f64()),
        plan_ms: 0.0,
        delta: (before, after),
    }
}

/// The traced run of `mem-read-cold`: the stepped pass over LZ blocks,
/// over raw blocks (the difference is what decompression costs a GET),
/// and over LZ blocks without spans.
fn traced_cold(run: &Run, layers: &mut Layers, counts: &mut BTreeMap<&'static str, u64>) -> Tally {
    let mut tracer = Tracer::new(true);
    let (lz, raw) = tracer.span("workload", 0, |t| {
        let lz = t.span("pass.lz", 0, |t| {
            stepped_cold(run.seed, CompressionType::Lz, "engine.get", t)
        });
        let raw = t.span("pass.raw", 0, |t| {
            stepped_cold(run.seed, CompressionType::None, "engine.get.raw", t)
        });
        (lz, raw)
    });
    let untraced = stepped_cold(
        run.seed,
        CompressionType::Lz,
        "engine.get",
        &mut Tracer::new(false),
    );
    let totals = tracer.totals();
    layers.insert(
        "probe.decompress_get_us",
        totals["engine.get"].mean_us() - totals["engine.get.raw"].mean_us(),
    );
    traced_layers(layers, counts, &tracer, &lz, &untraced, COLD_TRACED_OPS);
    write_trace("mem-read-cold", run.seed, &tracer);
    let mut tally = lz.tally;
    tally.absorb(raw.tally);
    tally.absorb(untraced.tally);
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::value_for;

    #[test]
    fn batches_keep_every_record_in_order() {
        let sizes = |n: u64| -> Vec<usize> {
            batches((0..n).map(|k| (k, value_for(k, 1))))
                .map(|b| b.len())
                .collect()
        };
        assert_eq!(sizes(0), Vec::<usize>::new());
        assert_eq!(sizes(1_000), vec![1_000]);
        assert_eq!(sizes(2_500), vec![1_000, 1_000, 500]);
    }
}
