//! `compact-bt` and `compact-soe`: the paper's experiment on the live
//! engine. Load a store of many small sstables, then time one
//! `auto_compact()` — plan, merge waves, manifest flip — and count what
//! it moved. BT(I) spends its time merging; SO(E) spends it planning.
//!
//! One repetition is load + compact + read every key back. A run repeats
//! until its time budget is spent (at least [`MIN_REPS`] times) and
//! reports medians.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use lsm_engine::{
    plan_compaction, CompactionPolicy, Lsm, LsmOptions, SizeEstimator, Storage, Strategy,
};

use crate::check::{Model, Tally};
use crate::engine::{counter_layers, Backing, Counters};
use crate::gen::{SplitMix64, Zipfian, RECORD_LEN};
use crate::measure::{median, percentile, ratio, stored_bytes};
use crate::report::{Layers, Report};
use crate::serve::{sabotage, write_trace, THETA};
use crate::trace::Tracer;
use crate::Run;

const MIN_REPS: usize = 3;
/// The loader flushes after this many distinct keys: the memtable size
/// of the paper's setup, stepped by the benchmark so a flush is a span.
const TABLE_KEYS: usize = 1_000;
/// Share of load operations that insert a new key; the rest update a
/// key chosen with latest-skew (recently inserted keys are hot).
const INSERT_PERCENT: u64 = 40;

struct Spec {
    name: &'static str,
    /// Operations loaded before the compaction.
    ops: u64,
    strategy: Strategy,
    estimator: SizeEstimator,
    threads: usize,
    label: &'static str,
}

pub fn compact_bt(run: &Run) -> Report {
    compaction_workload(
        &Spec {
            name: "compact-bt",
            ops: 150_000,
            strategy: Strategy::BalanceTreeInput,
            estimator: SizeEstimator::Exact,
            threads: 2,
            label: "strategy=BT(I) estimator=exact compaction_threads=2",
        },
        run,
    )
}

pub fn compact_soe(run: &Run) -> Report {
    compaction_workload(
        &Spec {
            name: "compact-soe",
            ops: 50_000,
            strategy: Strategy::SmallestOutput,
            estimator: SizeEstimator::Hll { precision: 14 },
            threads: 1,
            label: "strategy=SO estimator=hll(14) compaction_threads=1",
        },
        run,
    )
}

fn options(spec: &Spec) -> LsmOptions {
    LsmOptions::default()
        .memtable_capacity(1_000_000)
        .wal(false)
        .compaction_policy(CompactionPolicy::Manual)
        .compaction_strategy(spec.strategy)
        .planning_estimator(spec.estimator)
        .compaction_fanin(2)
        .compaction_threads(spec.threads)
}

/// Everything one repetition measured.
struct Rep {
    tally: Tally,
    setup_s: f64,
    compact_s: f64,
    /// A stand-alone `plan_compaction()` before the compaction, timed
    /// only on request: it doubles the planning work of a repetition.
    plan_ms: f64,
    cost_actual_entries: u64,
    predicted_cost_entries: u64,
    waves: usize,
    tables: usize,
    write_amp: f64,
    space_amp: f64,
    get_p50_us: f64,
    get_p99_us: f64,
    delta: (Counters, Counters),
}

/// Loads `spec.ops` operations, flushing every [`TABLE_KEYS`] distinct keys.
fn load(spec: &Spec, db: &Lsm, rng: &mut SplitMix64, tracer: &mut Tracer) -> (Model, Tally) {
    let mut model = Model::new(0, 1, 0);
    let mut tally = Tally::default();
    let latest = Zipfian::new((spec.ops * INSERT_PERCENT / 100).max(2), THETA);
    // `dirty[slot]` is the flush generation that last wrote the slot.
    let mut dirty: Vec<u32> = Vec::new();
    let (mut generation, mut dirty_keys) = (1u32, 0usize);
    for op in 1..=spec.ops {
        let slot = if model.slots() == 0 || rng.below(100) < INSERT_PERCENT {
            dirty.push(0);
            model.push_slot()
        } else {
            let age = latest.rank(rng) % model.slots() as u64;
            model.slots() - 1 - age as usize
        };
        let (key, value) = model.next_put(slot);
        let value = value.to_vec();
        tally.record(tracer.span("engine.put", op, |_| db.put(key, value).is_ok()));
        if std::mem::replace(&mut dirty[slot], generation) != generation {
            dirty_keys += 1;
            if dirty_keys == TABLE_KEYS {
                tracer.span("engine.flush", 0, |_| db.flush().expect("load flush"));
                generation += 1;
                dirty_keys = 0;
            }
        }
    }
    tracer.span("engine.flush", 0, |_| db.flush().expect("load flush"));
    (model, tally)
}

fn repetition(spec: &Spec, run: &Run, time_plan: bool, tracer: &mut Tracer) -> Rep {
    let store = Backing::memory();
    let storage: &Arc<dyn Storage> = &store.storage;
    let mut rng = SplitMix64::for_lane(run.seed, 0);

    let started = Instant::now();
    let (db, model, mut tally) = tracer.span("setup", 0, |t| {
        let db = Lsm::open(Arc::clone(storage), options(spec)).expect("opening the store");
        let (model, tally) = load(spec, &db, &mut rng, t);
        (db, model, tally)
    });
    let setup_s = started.elapsed().as_secs_f64();
    let tables = db.live_tables().len();

    let mut plan_ms = 0.0;
    if time_plan {
        let started = Instant::now();
        tracer.span("planner.plan", 0, |_| {
            plan_compaction(storage.as_ref(), &db.live_tables(), db.options()).expect("planning")
        });
        plan_ms = started.elapsed().as_secs_f64() * 1e3;
    }

    let before = Counters::of(&db, storage);
    let compaction = tracer
        .span("engine.compact", 0, |_| db.auto_compact())
        .expect("compaction")
        .expect("more than one table to compact");
    let after = Counters::of(&db, storage);
    let compact_s = (after.at - before.at).as_secs_f64();

    let write_amp = ratio(
        storage.bytes_written() as f64,
        (spec.ops * RECORD_LEN) as f64,
    );
    let space_amp = ratio(
        stored_bytes(storage.as_ref()) as f64,
        (model.live_keys() * RECORD_LEN) as f64,
    );

    // What the compaction bought: every key read back from one table.
    if run.sabotage {
        sabotage(&db, model.key(0), model.key(1));
    }
    let mut latencies = Vec::with_capacity(model.slots());
    tally.absorb(tracer.span("oracle.verify", 0, |_| {
        model.verify_all(|key| {
            let started = Instant::now();
            let got = db.get(key);
            latencies.push((started.elapsed().as_nanos() as u64) << 2);
            match got {
                Ok(value) => value.map(|v| v.to_vec()),
                Err(_) => Some(Vec::new()),
            }
        })
    }));
    let rows = db.range(..).filter(|row| row.is_ok()).count() as u64;
    tally.record(rows == model.live_keys());
    tally.record(db.live_tables().len() == 1);
    latencies.sort_unstable();

    Rep {
        tally,
        setup_s,
        compact_s,
        plan_ms,
        cost_actual_entries: compaction.outcome.entry_cost(),
        predicted_cost_entries: compaction.plan.predicted_cost_actual(),
        waves: compaction.plan.waves().len(),
        tables,
        write_amp,
        space_amp,
        get_p50_us: percentile(&latencies, 0.50) / 1e3,
        get_p99_us: percentile(&latencies, 0.99) / 1e3,
        delta: (before, after),
    }
}

fn compaction_workload(spec: &Spec, run: &Run) -> Report {
    let budget = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || budget.elapsed().as_secs() < run.seconds {
        reps.push(repetition(spec, run, false, &mut Tracer::new(false)));
    }
    let med = |f: fn(&Rep) -> f64| median(&mut reps.iter().map(f).collect::<Vec<_>>());
    let compact_s = med(|r| r.compact_s);
    let last = reps.last().expect("at least one repetition");

    let mut tally = Tally::default();
    for rep in &reps {
        tally.absorb(rep.tally);
    }
    let mut layers = Layers::new();
    counter_layers(&mut layers, &last.delta.0, &last.delta.1, spec.ops, 1);
    layers.insert("compact_s", compact_s);
    layers.insert("cost_actual_entries", last.cost_actual_entries as f64);
    layers.insert(
        "planner.predicted_cost_entries",
        last.predicted_cost_entries as f64,
    );
    layers.insert(
        "planner.cost_error",
        ratio(
            last.predicted_cost_entries as f64,
            last.cost_actual_entries as f64,
        ),
    );
    layers.insert("merge.waves", last.waves as f64);
    layers.insert("get.p99_us", med(|r| r.get_p99_us));
    let mut counts = BTreeMap::from([
        ("repetitions", reps.len() as u64),
        ("tables_compacted", last.tables as u64),
        ("cost_actual_entries", last.cost_actual_entries),
        (
            "get_samples_per_repetition",
            last.tally.attempted - spec.ops - 2,
        ),
    ]);
    // The same seed loads the same store, so the cost repeats exactly.
    tally.record(
        reps.iter()
            .all(|r| r.cost_actual_entries == last.cost_actual_entries),
    );

    if run.traced {
        let mut tracer = Tracer::new(true);
        let traced = tracer.span("workload", 0, |t| repetition(spec, run, true, t));
        tally.absorb(traced.tally);
        let merge_s = traced.compact_s - traced.plan_ms / 1e3;
        layers.insert("planner.plan_ms", traced.plan_ms);
        layers.insert(
            "merge.entries_per_s",
            ratio(traced.cost_actual_entries as f64, merge_s),
        );
        let untraced_load = ratio(spec.ops as f64, med(|r| r.setup_s));
        let traced_load = ratio(spec.ops as f64, traced.setup_s);
        layers.insert("trace.ops_per_s", traced_load);
        layers.insert(
            "trace.overhead_share",
            1.0 - ratio(traced_load, untraced_load),
        );
        layers.insert("trace.spans", tracer.span_count() as f64);
        counts.insert("traced.ops", spec.ops);
        counts.insert("traced.spans", tracer.span_count() as u64);
        counts.insert("traced.cost_actual_entries", traced.cost_actual_entries);
        counts.insert("traced.storage_bytes_written", traced.delta.1.bytes_written);
        counts.insert("traced.flushes", traced.delta.1.stats.flushes);
        write_trace(spec.name, run.seed, &tracer);
    }

    Report {
        workload: spec.name,
        options: format!(
            "storage=memory load_ops={} mix={INSERT_PERCENT}%insert/{}%update-latest({THETA}) \
             flush_every={TABLE_KEYS}keys {} fanin=2 compression=lz wal=off policy=manual \
             min_repetitions={MIN_REPS}",
            spec.ops,
            100 - INSERT_PERCENT,
            spec.label,
        ),
        tally,
        end_to_end: vec![
            ratio(spec.ops as f64, compact_s),
            med(|r| r.get_p50_us),
            med(|r| r.get_p99_us),
            med(|r| r.write_amp),
            med(|r| r.space_amp),
            med(|r| r.setup_s),
        ],
        layers,
        counts,
    }
}
