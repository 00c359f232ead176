//! Benchmarks of the substrates the evaluation depends on: HyperLogLog
//! estimation, compaction planning, YCSB workload generation, and the
//! LSM engine's write / flush / physical-compaction path, merge path,
//! WAL append path and cold read path.

use compaction_core::{
    KeySet, Planner, SizeEstimator, Strategy, StrategyPlanner, TableObservation,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hll::HyperLogLog;
use lsm_engine::{
    crc32, key_from_u64, CompactionStep, Entry, Lsm, LsmOptions, Manifest, MemoryStorage,
    ParallelExecutor, ReadContext, ReadPathCounters, SstableBuilder, SstableReader, Storage,
    ValueKind, Wal, WalRecord,
};
use std::hint::black_box;
use std::sync::Arc;
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

/// Planning alone, over `compact-soe`'s shape: 32 tables of 1 000 keys,
/// each sharing 600 with the one before. SO over HyperLogLog(14) sketches
/// (`compact-soe`) and BT(I) (`compact-bt`): the owner of the benchmark's
/// `planner.plan_ms`.
fn bench_planner(c: &mut Criterion) {
    let tables: Vec<TableObservation> = (0..32u64)
        .map(|i| TableObservation::new(i, KeySet::from_range(i * 400..i * 400 + 1_000)))
        .collect();
    let mut group = c.benchmark_group("planner");
    for (name, planner) in [
        (
            "so_hll14_32x1k",
            StrategyPlanner::new(Strategy::SmallestOutput)
                .with_estimator(SizeEstimator::Hll { precision: 14 }),
        ),
        (
            "bt_i_32x1k",
            StrategyPlanner::new(Strategy::BalanceTreeInput),
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                planner
                    .plan(black_box(&tables), 2)
                    .unwrap()
                    .predicted_cost_actual()
            })
        });
    }
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

/// Eight 10 000-entry tables with interleaved key ranges (table `t`
/// holds keys `2i + t`, so tables of equal parity overlap), flushed by
/// the engine onto a fresh in-memory store.
fn eight_overlapping_tables() -> (Arc<MemoryStorage>, Manifest) {
    let storage = Arc::new(MemoryStorage::new());
    let db = Lsm::open(
        Arc::clone(&storage) as Arc<dyn Storage>,
        LsmOptions::default().memtable_capacity(10_000).wal(false),
    )
    .unwrap();
    for table in 0u64..8 {
        for i in 0u64..10_000 {
            db.put(2 * i + table, b"value-of-a-merge-path-entry".to_vec())
                .unwrap();
        }
        db.flush().unwrap();
    }
    assert_eq!(db.live_tables().len(), 8);
    drop(db);
    let manifest = Manifest::load(storage.as_ref()).unwrap();
    (storage, manifest)
}

/// The merge path in isolation — block decode, 8-way merge, sstable
/// build — as one 8-way step on one thread, in the unit the benchmark's
/// `merge.entries_per_s` uses (entries read + written per second).
fn bench_merge_path(c: &mut Criterion) {
    let options = LsmOptions::default()
        .compaction_fanin(8)
        .compaction_threads(1);
    let steps = [CompactionStep::new((0..8).collect())];
    let merge = |(storage, mut manifest): (Arc<MemoryStorage>, Manifest)| {
        let ids: Vec<u64> = manifest.tables().iter().map(|t| t.table_id).collect();
        let exec = ParallelExecutor::new(storage.clone(), options.clone());
        let prepared = exec.prepare(&mut manifest, &ids, &steps).unwrap();
        let merged = exec.merge_prepared(&prepared).unwrap();
        let outcome =
            ParallelExecutor::commit(&mut manifest, &merged, storage.as_ref(), |_| {}).unwrap();
        exec.retire_consumed(&merged).unwrap();
        outcome.entry_cost()
    };
    let mut group = c.benchmark_group("merge_path");
    group.sample_size(10);
    group.throughput(Throughput::Elements(merge(eight_overlapping_tables())));
    group.bench_function("eight_way_step_80k_entries", |b| {
        b.iter_batched(
            eight_overlapping_tables,
            merge,
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// The WAL append path in isolation — frame encode, CRC, storage append
/// — over the benchmark's record shape (8-byte key, 100-byte value) on a
/// fresh in-memory segment: 1 000 one-record frames (a put each) and one
/// 1 000-record frame (a batch). Elements are records, so both report
/// per record appended; this is the owner of the benchmark's
/// `wal.put_us`.
fn bench_wal_append(c: &mut Criterion) {
    let records: Vec<WalRecord> = (0u64..1_000)
        .map(|i| WalRecord {
            key: key_from_u64(i),
            value: vec![i as u8; 100].into(),
            seqno: i,
            kind: ValueKind::Put,
        })
        .collect();
    let mut group = c.benchmark_group("wal_append");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function("1000_single_record_frames", |b| {
        b.iter(|| {
            let storage = MemoryStorage::new();
            let mut wal = Wal::new("wal-bench");
            for record in &records {
                wal.append(&storage, black_box(record)).unwrap();
            }
            storage.bytes_written()
        })
    });
    group.bench_function("one_1000_record_frame", |b| {
        b.iter(|| {
            let storage = MemoryStorage::new();
            let mut wal = Wal::new("wal-bench");
            wal.append_batch(&storage, black_box(&records)).unwrap();
            storage.bytes_written()
        })
    });
    group.finish();
}

/// The cold read path one layer at a time, on `MemoryStorage` with no
/// block cache: the CRC-32 over a 4 KiB block, one 4 KiB LZ block
/// fetched and decoded (envelope CRC, LZ, entry offsets), and a whole
/// `SstableReader::get` (bloom, index search, that fetch and decode, the
/// in-block search). The owner of `mem-read-cold`'s per-get cost.
fn bench_read_path(c: &mut Criterion) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let noise: Vec<u8> = (0..4096)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect();
    // 8-byte keys and 100-byte values that compress about 2x, in 4 KiB
    // blocks: the shape of the benchmark's records.
    let storage = MemoryStorage::new();
    let mut builder = SstableBuilder::new(1, 4096, 10);
    for i in 0u64..20_000 {
        let mut value = format!("value-{i:012}-").into_bytes();
        value.extend_from_slice(&noise[(i as usize * 50) % 4000..][..50]);
        value.resize(100, b'.');
        builder.add(&Entry::put(key_from_u64(2 * i), value.into(), i + 1));
    }
    let (data, _) = builder.finish();
    storage
        .write_blob(&SstableReader::blob_name(1), &data)
        .unwrap();
    let reader = SstableReader::open(&storage, 1, None).unwrap();
    let counters = ReadPathCounters::default();
    let ctx = ReadContext {
        storage: &storage,
        block_cache: None,
        fill_cache: false,
        readahead_blocks: 1,
        counters: &counters,
    };

    let mut group = c.benchmark_group("read_path");
    group.sample_size(20_000);
    group.throughput(Throughput::Bytes(noise.len() as u64));
    group.bench_function("crc32_4k", |b| b.iter(|| crc32(black_box(&noise))));
    group.bench_function("block_fetch_decode_4k_lz", |b| {
        let mut idx = 0;
        b.iter(|| {
            idx = (idx + 1) % reader.block_count();
            reader.block(black_box(idx), ctx).unwrap().len()
        })
    });
    group.throughput(Throughput::Elements(1));
    group.bench_function("cold_get_no_cache", |b| {
        let mut key = 0u64;
        b.iter(|| {
            key = (key + 7_919) % 20_000;
            reader.get(&key_from_u64(black_box(2 * key)), ctx).unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hll,
    bench_planner,
    bench_ycsb,
    bench_lsm,
    bench_schedule_to_physical,
    bench_merge_path,
    bench_wal_append,
    bench_read_path
);
criterion_main!(benches);
