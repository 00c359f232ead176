//! Benchmarks of the substrates the evaluation depends on: HyperLogLog
//! estimation, YCSB workload generation, and the LSM engine's write /
//! flush / physical-compaction path.

use compaction_core::Strategy;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hll::HyperLogLog;
use lsm_engine::{CompactionStep, Lsm, LsmOptions};
use std::hint::black_box;
use ycsb_gen::{Distribution, WorkloadSpec};

fn bench_hll(c: &mut Criterion) {
    let mut group = c.benchmark_group("hll");
    group.bench_function("add_100k", |b| {
        b.iter(|| {
            let mut sketch = HyperLogLog::new(14).unwrap();
            for x in 0u64..100_000 {
                sketch.add_u64(black_box(x));
            }
            sketch.count()
        })
    });
    let mut a = HyperLogLog::new(14).unwrap();
    let mut bb = HyperLogLog::new(14).unwrap();
    for x in 0u64..100_000 {
        a.add_u64(x);
        bb.add_u64(x + 50_000);
    }
    group.bench_function("union_estimate", |b| {
        b.iter(|| black_box(&a).union_estimate(black_box(&bb)).unwrap())
    });
    group.finish();
}

fn bench_ycsb(c: &mut Criterion) {
    let mut group = c.benchmark_group("ycsb_generation");
    for dist in [
        Distribution::Uniform,
        Distribution::zipfian_default(),
        Distribution::Latest,
    ] {
        let spec = WorkloadSpec::builder()
            .record_count(1_000)
            .operation_count(100_000)
            .update_percent(60)
            .distribution(dist)
            .seed(1)
            .build()
            .unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(dist.name()),
            &spec,
            |b, spec| b.iter(|| black_box(spec).generator().run_phase().count()),
        );
    }
    group.finish();
}

/// A caterpillar schedule over `n` live tables, expressed in slots.
fn caterpillar(n: usize) -> Vec<CompactionStep> {
    let mut steps = Vec::new();
    let mut acc = 0usize;
    for next in 1..n {
        let output = n + steps.len();
        steps.push(CompactionStep::new(vec![acc, next]));
        acc = output;
    }
    steps
}

fn bench_lsm(c: &mut Criterion) {
    let mut group = c.benchmark_group("lsm_engine");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("put_flush_10k", |b| {
        b.iter(|| {
            let db = Lsm::open_in_memory(LsmOptions::default().memtable_capacity(1_000).wal(false))
                .unwrap();
            for i in 0u64..10_000 {
                db.put(black_box(i % 4_000), b"value".to_vec()).unwrap();
            }
            db.flush().unwrap();
            db.live_tables().len()
        })
    });
    group.bench_function("major_compact_10_tables", |b| {
        b.iter_batched(
            || {
                let db =
                    Lsm::open_in_memory(LsmOptions::default().memtable_capacity(500).wal(false))
                        .unwrap();
                for i in 0u64..5_000 {
                    db.put(i % 2_000, b"value".to_vec()).unwrap();
                }
                db.flush().unwrap();
                db
            },
            |db| {
                let n = db.live_tables().len();
                db.major_compact(&caterpillar(n)).unwrap().entry_cost()
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("point_reads_after_compaction", |b| {
        let db =
            Lsm::open_in_memory(LsmOptions::default().memtable_capacity(500).wal(false)).unwrap();
        for i in 0u64..5_000 {
            db.put(i, b"value".to_vec()).unwrap();
        }
        db.flush().unwrap();
        let n = db.live_tables().len();
        db.major_compact(&caterpillar(n)).unwrap();
        b.iter(|| db.get(black_box(2_345)).unwrap())
    });
    group.finish();
}

fn bench_schedule_to_physical(c: &mut Criterion) {
    // End-to-end: schedule with compaction-core, execute physically in the
    // LSM engine.
    let mut group = c.benchmark_group("schedule_then_physical_compaction");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("si_schedule_plus_lsm_execute", |b| {
        b.iter_batched(
            || {
                let db =
                    Lsm::open_in_memory(LsmOptions::default().memtable_capacity(400).wal(false))
                        .unwrap();
                for i in 0u64..4_000 {
                    db.put((i * 7) % 3_000, b"v".to_vec()).unwrap();
                }
                db.flush().unwrap();
                db
            },
            |db| {
                let sets: Vec<compaction_core::KeySet> = db
                    .live_tables()
                    .iter()
                    .map(|t| compaction_core::KeySet::from_range(0..t.entry_count))
                    .collect();
                let schedule =
                    compaction_core::schedule_with(Strategy::SmallestInput, &sets, 2).unwrap();
                let steps: Vec<CompactionStep> = schedule
                    .ops()
                    .iter()
                    .map(|op| CompactionStep::new(op.inputs.clone()))
                    .collect();
                db.major_compact(&steps).unwrap().entry_cost()
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hll,
    bench_ycsb,
    bench_lsm,
    bench_schedule_to_physical
);
criterion_main!(benches);
