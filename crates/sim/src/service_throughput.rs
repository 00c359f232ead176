//! Closed-loop YCSB throughput over the live KV service.
//!
//! The paper motivates its compaction strategies with a serving
//! scenario: a NoSQL server must keep answering reads and writes
//! *while* compaction runs. This experiment measures exactly that — a
//! real [`KvServer`] over TCP, `K` concurrent closed-loop client
//! threads driving a YCSB mix (each client issues its next operation
//! when the previous response arrives), `Threshold` auto-compaction
//! firing on every shard as the run progresses — and reports throughput
//! and latency percentiles **per shard count and per compaction
//! strategy**: the first end-to-end "serving while compacting" numbers
//! in this reproduction.
//!
//! Reads ride the same wire as writes, so a shard stalled in a long
//! compaction shows up directly in the tail latencies; more shards (and
//! a cheaper strategy) shorten the stalls each key can get caught
//! behind.

use std::sync::Arc;
use std::time::{Duration, Instant};

use compaction_core::Strategy;
use kv_service::{KvClient, KvServer, ShardedKv, WireOp};
use lsm_engine::test_support::LatencyStorage;
use lsm_engine::{CompactionPolicy, LsmOptions, Storage};
use ycsb_gen::{Distribution, OperationKind, WorkloadSpec};

/// Configuration of the service throughput experiment.
#[derive(Debug, Clone)]
pub struct ServiceThroughputConfig {
    /// YCSB `recordcount` (loaded via BATCH frames before measuring).
    pub record_count: u64,
    /// YCSB `operationcount` (measured, split across clients).
    pub operation_count: u64,
    /// Percentage of run-phase operations that are range scans (SCANs),
    /// carved out first — the YCSB-E lever. Scan start keys follow the
    /// request distribution; lengths draw uniformly from
    /// `1..=max_scan_length`.
    pub scan_percent: u32,
    /// Per-scan length bound in keys (YCSB's `maxscanlength`).
    pub max_scan_length: u32,
    /// Percentage of the non-scan operations that are point reads
    /// (GETs) — the YCSB-B/C lever. The remainder splits per
    /// [`ServiceThroughputConfig::update_percent`].
    pub read_percent: u32,
    /// Of the non-read operations, the percentage that are updates; the
    /// remainder follows YCSB write-heavy composition (inserts).
    pub update_percent: u32,
    /// Request distribution for non-insert keys.
    pub distribution: Distribution,
    /// Memtable capacity per shard, in distinct keys.
    pub memtable_capacity: usize,
    /// Live-table count per shard that triggers auto-compaction.
    pub trigger_tables: usize,
    /// Merge fan-in `k`.
    pub fanin: usize,
    /// Shard counts to sweep (one server run each, per strategy).
    pub shard_counts: Vec<usize>,
    /// Strategies to sweep.
    pub strategies: Vec<Strategy>,
    /// Concurrent closed-loop client threads.
    pub clients: usize,
    /// Server worker threads (≥ clients to avoid queueing sessions).
    pub workers: usize,
    /// Run the shards with background maintenance (frozen-memtable
    /// queue + flush thread + compaction scheduler) instead of inline
    /// flush/compaction on the write path.
    pub background: bool,
    /// Scan readahead values to sweep: each value adds one full
    /// (shards × strategy) row set run with
    /// [`LsmOptions::scan_readahead_blocks`] set to it. Single-value
    /// sweeps (the point-op configs) add no extra cells.
    pub readahead_blocks: Vec<usize>,
    /// Per-round-trip read latency charged by every shard's storage
    /// backend, in microseconds (0 = plain in-memory storage). The
    /// scan-heavy configs set this so fetch *counts* — what readahead
    /// changes — show up in wall-clock throughput instead of hiding
    /// behind nanosecond memory reads.
    pub storage_read_micros: u64,
    /// Engine data-block size in bytes. The scan-heavy configs shrink
    /// it so a typical scan spans several blocks per table.
    pub block_size: usize,
    /// Workload seed.
    pub seed: u64,
}

impl ServiceThroughputConfig {
    /// A write-heavy sweep at a size that runs in tens of seconds.
    #[must_use]
    pub fn default_paper() -> Self {
        Self {
            record_count: 2_000,
            operation_count: 20_000,
            scan_percent: 0,
            max_scan_length: 100,
            read_percent: 0,
            update_percent: 60,
            distribution: Distribution::Latest,
            memtable_capacity: 250,
            trigger_tables: 6,
            fanin: 2,
            shard_counts: vec![1, 2, 4],
            strategies: vec![
                Strategy::BalanceTreeInput,
                Strategy::SmallestOutput,
                Strategy::Random { seed: 3 },
            ],
            clients: 4,
            workers: 4,
            background: false,
            readahead_blocks: vec![8],
            storage_read_micros: 0,
            block_size: 4 * 1024,
            seed: 7,
        }
    }

    /// A YCSB-B-style read-heavy sweep (95 % GETs, 5 % updates): the
    /// read-path acceptance workload, showing GET tails no longer
    /// spiking while compaction runs.
    #[must_use]
    pub fn read_heavy() -> Self {
        Self {
            read_percent: 95,
            update_percent: 100,
            // More records and tighter flush/trigger knobs than the
            // write-heavy sweep: with only 5 % updates the shards must
            // still accumulate enough tables to compact while serving.
            record_count: 4_000,
            memtable_capacity: 150,
            trigger_tables: 4,
            ..Self::default_paper()
        }
    }

    /// [`ServiceThroughputConfig::read_heavy`] at smoke-test size.
    #[must_use]
    pub fn quick_read_heavy() -> Self {
        Self {
            read_percent: 95,
            update_percent: 100,
            record_count: 800,
            memtable_capacity: 50,
            trigger_tables: 3,
            ..Self::quick()
        }
    }

    /// A YCSB-E-style scan-heavy sweep (95 % range scans, 5 % inserts):
    /// the workload that exercises the streaming scan pipeline end to
    /// end — zipfian start keys, bounded lengths, every scan touching
    /// memtable + multiple tables on every shard. Runs over a
    /// latency-charging backend with small blocks and sweeps readahead
    /// 1 vs 8, so the report shows directly what fewer round-trips per
    /// scan buy in keys/sec.
    #[must_use]
    pub fn scan_heavy() -> Self {
        Self {
            scan_percent: 95,
            max_scan_length: 100,
            read_percent: 0,
            update_percent: 0,
            record_count: 5_000,
            operation_count: 4_000,
            memtable_capacity: 250,
            trigger_tables: 5,
            distribution: Distribution::zipfian_default(),
            readahead_blocks: vec![1, 8],
            storage_read_micros: 250,
            block_size: 256,
            ..Self::default_paper()
        }
    }

    /// [`ServiceThroughputConfig::scan_heavy`] at smoke-test size.
    #[must_use]
    pub fn quick_scan_heavy() -> Self {
        Self {
            scan_percent: 95,
            max_scan_length: 80,
            read_percent: 0,
            update_percent: 0,
            record_count: 1_200,
            operation_count: 800,
            memtable_capacity: 100,
            trigger_tables: 4,
            distribution: Distribution::zipfian_default(),
            readahead_blocks: vec![1, 8],
            storage_read_micros: 250,
            block_size: 256,
            ..Self::quick()
        }
    }

    /// A smaller configuration for tests and CI smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            record_count: 400,
            operation_count: 3_000,
            scan_percent: 0,
            max_scan_length: 100,
            read_percent: 0,
            update_percent: 60,
            distribution: Distribution::Latest,
            memtable_capacity: 100,
            trigger_tables: 4,
            fanin: 2,
            shard_counts: vec![1, 2],
            strategies: vec![Strategy::BalanceTreeInput, Strategy::Random { seed: 3 }],
            clients: 4,
            workers: 4,
            background: false,
            readahead_blocks: vec![8],
            storage_read_micros: 0,
            block_size: 4 * 1024,
            seed: 7,
        }
    }

    fn spec(&self) -> WorkloadSpec {
        let scan = f64::from(self.scan_percent.min(100)) / 100.0;
        let read = (1.0 - scan) * f64::from(self.read_percent.min(100)) / 100.0;
        let update_share = f64::from(self.update_percent.min(100)) / 100.0;
        let update = (1.0 - scan - read) * update_share;
        let insert = 1.0 - scan - read - update;
        WorkloadSpec::builder()
            .record_count(self.record_count)
            .operation_count(self.operation_count)
            .scan_proportion(scan)
            .max_scan_length(self.max_scan_length)
            .read_proportion(read)
            .update_proportion(update)
            .insert_proportion(insert)
            .distribution(self.distribution)
            .seed(self.seed)
            .build()
            .expect("service-throughput config produces a valid workload spec")
    }

    fn options(&self, strategy: Strategy, readahead: usize) -> LsmOptions {
        LsmOptions::default()
            .memtable_capacity(self.memtable_capacity)
            .block_size(self.block_size)
            .scan_readahead_blocks(readahead)
            .compaction_policy(CompactionPolicy::Threshold {
                live_tables: self.trigger_tables,
            })
            .compaction_strategy(strategy)
            .compaction_fanin(self.fanin)
            .background_maintenance(self.background)
            // In-memory shards: WAL durability is exercised by the
            // crash-recovery tests; here it would only serialize every
            // write behind segment rewrites.
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

    /// Runs the sweep: one live server per (shard count, strategy) cell.
    #[must_use]
    pub fn run(&self) -> Vec<ServiceThroughputRow> {
        let spec = self.spec();
        let partitions = spec.generator().client_partitions(self.clients);
        let load_ops: Vec<u64> = spec.generator().load_phase().map(|op| op.key).collect();

        let mut rows = Vec::new();
        for &shards in &self.shard_counts {
            for &strategy in &self.strategies {
                for &readahead in &self.readahead_blocks {
                    rows.push(self.run_cell(shards, strategy, readahead, &load_ops, &partitions));
                }
            }
        }
        rows
    }

    fn run_cell(
        &self,
        shards: usize,
        strategy: Strategy,
        readahead: usize,
        load_keys: &[u64],
        partitions: &[Vec<ycsb_gen::Operation>],
    ) -> ServiceThroughputRow {
        let options = self.options(strategy, readahead);
        let store = Arc::new(if self.storage_read_micros > 0 {
            // Latency-charging backends, one per shard: every storage
            // round-trip costs wall-clock time, so the readahead column
            // measures fetch counts, not memcpy speed.
            let storages: Vec<Arc<dyn Storage>> = (0..shards)
                .map(|_| {
                    Arc::new(LatencyStorage::new(Duration::from_micros(
                        self.storage_read_micros,
                    ))) as Arc<dyn Storage>
                })
                .collect();
            ShardedKv::open_with_storages(storages, options)
                .expect("fresh backends cannot mismatch")
        } else {
            ShardedKv::open_in_memory(shards, options).expect("in-memory open cannot fail")
        });
        let handle = KvServer::bind(Arc::clone(&store), "127.0.0.1:0", self.workers)
            .expect("bind ephemeral port")
            .spawn();
        let addr = handle.addr();

        // Load phase, batched (not measured).
        {
            let mut client = KvClient::connect(addr).expect("load client connect");
            for chunk in load_keys.chunks(256) {
                let ops: Vec<WireOp> = chunk
                    .iter()
                    .map(|&k| WireOp::put(k.to_be_bytes().to_vec(), value_for(k)))
                    .collect();
                client.batch(ops).expect("load batch");
            }
        }

        // Measured run phase: closed loop, one thread per client. Each
        // sample is tagged write/read/scan so GET and SCAN tails report
        // separately — the metrics the read path and the streaming scan
        // pipeline exist to hold down.
        let started = Instant::now();
        let samples: Vec<Sample> = std::thread::scope(|scope| {
            let handles: Vec<_> = partitions
                .iter()
                .map(|ops| {
                    scope.spawn(move || {
                        let mut client = KvClient::connect(addr).expect("client connect");
                        let mut lat = Vec::with_capacity(ops.len());
                        for op in ops {
                            let t = Instant::now();
                            let (class, keys) = match op.kind {
                                OperationKind::Insert | OperationKind::Update => {
                                    client.put(op.key, value_for(op.key)).expect("put");
                                    (OpClass::Write, 1)
                                }
                                OperationKind::Delete => {
                                    client.delete(op.key).expect("delete");
                                    (OpClass::Write, 1)
                                }
                                OperationKind::Read => {
                                    let _ = client.get(op.key).expect("get");
                                    (OpClass::Read, 1)
                                }
                                OperationKind::Scan => {
                                    let mut keys = 0u64;
                                    let range = op.scan_range();
                                    let stream =
                                        client.scan(range.start, range.end, 0).expect("scan");
                                    for item in stream {
                                        item.expect("scan item");
                                        keys += 1;
                                    }
                                    (OpClass::Scan, keys)
                                }
                            };
                            lat.push(Sample {
                                class,
                                micros: t.elapsed().as_micros() as u64,
                                keys,
                            });
                        }
                        lat
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let elapsed = started.elapsed();

        let stats = store.stats().aggregate();
        handle.shutdown();

        let mut latencies: Vec<u64> = samples.iter().map(|s| s.micros).collect();
        let mut read_latencies: Vec<u64> = samples
            .iter()
            .filter(|s| s.class == OpClass::Read)
            .map(|s| s.micros)
            .collect();
        let mut scan_latencies: Vec<u64> = samples
            .iter()
            .filter(|s| s.class == OpClass::Scan)
            .map(|s| s.micros)
            .collect();
        let scan_keys: u64 = samples
            .iter()
            .filter(|s| s.class == OpClass::Scan)
            .map(|s| s.keys)
            .sum();
        latencies.sort_unstable();
        read_latencies.sort_unstable();
        scan_latencies.sort_unstable();
        let ops = latencies.len() as u64;
        ServiceThroughputRow {
            shards,
            strategy,
            mode: self.mode().to_owned(),
            clients: self.clients,
            read_percent: self.read_percent,
            scan_percent: self.scan_percent,
            readahead,
            operations: ops,
            read_operations: read_latencies.len() as u64,
            scan_operations: scan_latencies.len() as u64,
            scan_keys,
            elapsed,
            throughput_ops_per_sec: ops as f64 / elapsed.as_secs_f64().max(1e-9),
            scan_keys_per_sec: scan_keys as f64 / elapsed.as_secs_f64().max(1e-9),
            p50_micros: percentile(&latencies, 50),
            p95_micros: percentile(&latencies, 95),
            p99_micros: percentile(&latencies, 99),
            get_p50_micros: percentile(&read_latencies, 50),
            get_p99_micros: percentile(&read_latencies, 99),
            scan_p50_micros: percentile(&scan_latencies, 50),
            scan_p99_micros: percentile(&scan_latencies, 99),
            flushes: stats.flushes,
            auto_compactions: stats.auto_compactions,
            compaction_entry_cost: stats.compaction_entry_cost(),
            compaction_stall: stats.compaction_stall,
        }
    }
}

/// How one measured operation classifies for latency reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Write,
    Read,
    Scan,
}

/// One measured operation.
#[derive(Debug, Clone, Copy)]
struct Sample {
    class: OpClass,
    micros: u64,
    /// Keys the operation returned (1 for point ops, the streamed count
    /// for scans).
    keys: u64,
}

/// The value every key stores (fixed small payload).
fn value_for(key: u64) -> Vec<u8> {
    key.to_le_bytes().to_vec()
}

/// The `p`-th percentile of sorted micros (nearest-rank).
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p as usize * sorted.len()).div_ceil(100)).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One (shard count, strategy) cell of the throughput sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceThroughputRow {
    /// Shards the server ran with.
    pub shards: usize,
    /// Compaction strategy every shard used.
    pub strategy: Strategy,
    /// Engine maintenance mode: `inline` (flush/compaction on the write
    /// path) or `background` (frozen queue + maintenance threads).
    pub mode: String,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Percentage of operations that were GETs (configured).
    pub read_percent: u32,
    /// Percentage of operations that were SCANs (configured).
    pub scan_percent: u32,
    /// Scan readahead (consecutive blocks per ranged fetch) the engine
    /// ran with; 1 means one storage round-trip per block.
    pub readahead: usize,
    /// Operations measured (the run phase).
    pub operations: u64,
    /// GET operations among them.
    pub read_operations: u64,
    /// SCAN operations among them.
    pub scan_operations: u64,
    /// Total keys streamed back by SCAN operations.
    pub scan_keys: u64,
    /// Wall-clock time of the measured run phase.
    pub elapsed: Duration,
    /// Aggregate throughput in operations per second.
    pub throughput_ops_per_sec: f64,
    /// Scanned keys streamed per second (0 when no scans ran).
    pub scan_keys_per_sec: f64,
    /// Median request latency in microseconds.
    pub p50_micros: u64,
    /// 95th-percentile request latency in microseconds.
    pub p95_micros: u64,
    /// 99th-percentile request latency in microseconds.
    pub p99_micros: u64,
    /// Median GET latency in microseconds (0 when no reads ran).
    pub get_p50_micros: u64,
    /// 99th-percentile GET latency in microseconds (0 when no reads
    /// ran) — the tail the lock-free read path keeps flat while
    /// compaction runs.
    pub get_p99_micros: u64,
    /// Median SCAN latency in microseconds (0 when no scans ran).
    pub scan_p50_micros: u64,
    /// 99th-percentile SCAN latency in microseconds (0 when no scans
    /// ran).
    pub scan_p99_micros: u64,
    /// Memtable flushes across shards during the whole cell run.
    pub flushes: u64,
    /// Policy-triggered compactions across shards.
    pub auto_compactions: u64,
    /// Compaction cost in entries (read + written) across shards.
    pub compaction_entry_cost: u64,
    /// Wall-clock time writes stalled behind compaction, across shards.
    pub compaction_stall: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50), 50);
        assert_eq!(percentile(&sorted, 95), 95);
        assert_eq!(percentile(&sorted, 99), 99);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn read_heavy_spec_splits_proportions() {
        let config = ServiceThroughputConfig::quick_read_heavy();
        let spec = config.spec();
        assert!((spec.read_proportion() - 0.95).abs() < 1e-9);
        assert!((spec.update_proportion() - 0.05).abs() < 1e-9);
        assert!(spec.insert_proportion().abs() < 1e-9);
    }

    #[test]
    fn quick_read_heavy_sweep_reports_get_tails() {
        let mut config = ServiceThroughputConfig::quick_read_heavy();
        config.shard_counts = vec![2];
        config.strategies = vec![Strategy::BalanceTreeInput];
        let rows = config.run();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.read_percent, 95);
        assert!(
            row.read_operations >= row.operations * 9 / 10,
            "95% read mix must be read-dominated: {row:?}"
        );
        assert!(row.get_p50_micros <= row.get_p99_micros);
        assert!(row.get_p99_micros > 0, "read tail measured");
        assert!(
            row.auto_compactions >= 1,
            "updates must still trigger compaction: {row:?}"
        );
    }

    #[test]
    fn scan_heavy_spec_carves_scans_first() {
        let config = ServiceThroughputConfig::quick_scan_heavy();
        let spec = config.spec();
        assert!((spec.scan_proportion() - 0.95).abs() < 1e-9);
        assert!((spec.insert_proportion() - 0.05).abs() < 1e-9);
        assert!(spec.read_proportion().abs() < 1e-9);
        assert!(spec.update_proportion().abs() < 1e-9);
        assert_eq!(spec.max_scan_length(), 80);
    }

    #[test]
    fn quick_scan_heavy_sweep_reports_scan_tails_and_keys() {
        let mut config = ServiceThroughputConfig::quick_scan_heavy();
        config.shard_counts = vec![2];
        config.strategies = vec![Strategy::BalanceTreeInput];
        let rows = config.run();
        assert_eq!(rows.len(), 2, "one row per swept readahead value");
        for row in &rows {
            assert_eq!(row.scan_percent, 95);
            assert!(
                row.scan_operations >= row.operations * 9 / 10,
                "95% scan mix must be scan-dominated: {row:?}"
            );
            assert!(
                row.scan_keys > row.scan_operations,
                "scans must stream multiple keys each: {row:?}"
            );
            assert!(row.scan_keys_per_sec > 0.0);
            assert!(row.scan_p50_micros <= row.scan_p99_micros);
            assert!(row.scan_p99_micros > 0, "scan tail measured");
        }
        let (ra1, ra8) = (&rows[0], &rows[1]);
        assert_eq!(ra1.readahead, 1);
        assert_eq!(ra8.readahead, 8);
        // The latency-charging backend makes round-trip counts visible:
        // fetching 8 blocks per trip must stream keys faster than one
        // block per trip. (The ≥2x bench acceptance bar is asserted on
        // the full quick cell by CI's bench job, not this smoke test.)
        assert!(
            ra8.scan_keys_per_sec > ra1.scan_keys_per_sec,
            "readahead 8 did not beat readahead 1: {ra8:?} vs {ra1:?}"
        );
    }

    #[test]
    fn background_mode_serves_without_write_path_merges() {
        let mut config = ServiceThroughputConfig::quick();
        config.operation_count = 1_500;
        config.shard_counts = vec![2];
        config.strategies = vec![Strategy::BalanceTreeInput];
        config.background = true;
        let rows = config.run();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.mode, "background");
        assert_eq!(row.operations, config.operation_count);
        assert!(row.throughput_ops_per_sec > 0.0, "{row:?}");
        assert!(row.flushes >= 1, "flush threads kept up: {row:?}");
        // The write path never executes a merge in background mode, so
        // the only stall time left is the tiered-throttle pacing —
        // bounded per write, not merge-length.
        assert!(
            row.compaction_stall < Duration::from_secs(2),
            "background stall should be pacing, not merges: {row:?}"
        );
    }

    #[test]
    fn quick_sweep_produces_comparable_rows() {
        let config = ServiceThroughputConfig::quick();
        let rows = config.run();
        assert_eq!(
            rows.len(),
            config.shard_counts.len() * config.strategies.len()
        );
        for row in &rows {
            assert_eq!(row.operations, config.operation_count);
            assert!(row.throughput_ops_per_sec > 0.0, "{row:?}");
            assert!(
                row.p50_micros <= row.p95_micros && row.p95_micros <= row.p99_micros,
                "percentiles must be monotone: {row:?}"
            );
            assert!(
                row.auto_compactions >= 1,
                "compaction never fired while serving: {row:?}"
            );
            assert!(row.flushes >= 1);
        }
    }
}
