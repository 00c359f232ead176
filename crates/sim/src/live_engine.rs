//! Live-engine validation: the simulator's predictions against a real,
//! self-compacting LSM store.
//!
//! The paper evaluates its strategies in a simulator (sstables are key
//! sets, merges are set unions). This experiment closes the loop the
//! simulator leaves open: it drives the *same* YCSB write stream through
//! the real `lsm-engine` store configured with
//! [`CompactionPolicy::Threshold`], once per strategy, and reports
//!
//! * the **measured** compaction cost — entries physically read and
//!   written by every policy-triggered compaction
//!   ([`lsm_engine::LsmStats::compaction_entry_cost`]) — each merges
//!   the newest run of live tables ([`CompactionPolicy::Threshold`]),
//! * the **planner's prediction** — the schedule's `cost_actual` over
//!   the observed key sets, summed over the same compactions, and
//! * the **one-shot simulator** reference — phase 1 + one terminal
//!   major compaction of the whole run, the quantity Figure 7 plots.
//!
//! Because the engine flushes identically under every strategy (the
//! write stream and memtable capacity fix the flush sequence), rows are
//! directly comparable: differences in measured cost are differences in
//! merge scheduling alone — the paper's claim, now on a real engine.

use std::time::Duration;

use compaction_core::Strategy;
use lsm_engine::{CompactionPolicy, Lsm, LsmOptions};

use crate::phase1::SstableGenerator;
use crate::runner::run_strategy;
use ycsb_gen::{Distribution, OperationKind, WorkloadSpec};

/// Configuration of the live-engine experiment.
#[derive(Debug, Clone)]
pub struct LiveEngineConfig {
    /// YCSB `recordcount` (load-phase inserts).
    pub record_count: u64,
    /// YCSB `operationcount` (run-phase operations).
    pub operation_count: u64,
    /// Percentage of run-phase operations that are updates (the rest are
    /// inserts), as in Figure 7's x-axis.
    pub update_percent: u32,
    /// Request distribution for update keys.
    pub distribution: Distribution,
    /// Memtable capacity in distinct keys.
    pub memtable_capacity: usize,
    /// Live-table count that triggers automatic compaction.
    pub trigger_tables: usize,
    /// Strategies to compare (one engine run each).
    pub strategies: Vec<Strategy>,
    /// Merge fan-in `k`.
    pub fanin: usize,
    /// Per-wave merge concurrency inside the engine.
    pub threads: usize,
    /// Workload seed.
    pub seed: u64,
}

impl LiveEngineConfig {
    /// The paper's Figure 7 shape (update-heavy, latest distribution) at
    /// a size that runs in seconds on a laptop.
    #[must_use]
    pub fn default_paper() -> Self {
        Self {
            record_count: 1_000,
            operation_count: 10_000,
            update_percent: 60,
            distribution: Distribution::Latest,
            memtable_capacity: 250,
            trigger_tables: 8,
            strategies: Strategy::paper_lineup(7),
            fanin: 2,
            threads: 2,
            seed: 7,
        }
    }

    /// A smaller configuration, same strategy lineup: what
    /// `tables --quick live` prints and `tests/paper_claims.rs` asserts.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            record_count: 300,
            operation_count: 2_500,
            memtable_capacity: 100,
            trigger_tables: 6,
            ..Self::default_paper()
        }
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec::builder()
            .record_count(self.record_count)
            .operation_count(self.operation_count)
            .update_percent(self.update_percent)
            .distribution(self.distribution)
            .seed(self.seed)
            .build()
            .expect("live-engine config produces a valid workload spec")
    }

    /// Runs the experiment: one self-compacting engine per strategy over
    /// the identical write stream.
    #[must_use]
    pub fn run(&self) -> Vec<LiveEngineRow> {
        let spec = self.spec();
        let write_ops = spec.generator().write_operations();

        // One-shot simulator reference: identical stream through the
        // simulator's memtable pipeline, one terminal compaction.
        let sim_sstables = SstableGenerator::new(self.memtable_capacity).generate(&spec);

        self.strategies
            .iter()
            .map(|&strategy| {
                let options = LsmOptions::default()
                    .memtable_capacity(self.memtable_capacity)
                    .compaction_policy(CompactionPolicy::Threshold {
                        live_tables: self.trigger_tables,
                    })
                    .compaction_strategy(strategy)
                    .compaction_fanin(self.fanin)
                    .compaction_threads(self.threads)
                    .wal(false);
                let db = Lsm::open_in_memory(options).expect("in-memory open cannot fail");
                for op in &write_ops {
                    match op.kind {
                        OperationKind::Delete => db.delete(op.key),
                        _ => db.put(op.key, op.key.to_le_bytes().to_vec()),
                    }
                    .expect("in-memory writes cannot fail");
                }
                db.flush().expect("final flush");
                // Collapse the tail so every run ends in one sstable and
                // rows account for the same total work.
                db.auto_compact().expect("final compaction");

                let sim_cost_actual = if sim_sstables.len() >= 2 {
                    run_strategy(strategy, &sim_sstables, self.fanin)
                        .map(|r| r.cost_actual)
                        .unwrap_or(0)
                } else {
                    0
                };

                let stats = db.stats().clone();
                LiveEngineRow {
                    strategy,
                    flushes: stats.flushes,
                    auto_compactions: stats.auto_compactions,
                    cost_actual: stats.compaction_entry_cost(),
                    predicted_cost: stats.compaction_predicted_cost,
                    sim_cost_actual,
                    stall: stats.compaction_stall,
                    final_tables: db.live_tables().len(),
                }
            })
            .collect()
    }
}

/// One strategy's row of the live-engine experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveEngineRow {
    /// The compaction strategy the engine ran with.
    pub strategy: Strategy,
    /// Memtable flushes performed (identical across rows by design).
    pub flushes: u64,
    /// Policy-triggered compactions executed.
    pub auto_compactions: u64,
    /// Measured compaction cost: entries read + written by the engine.
    pub cost_actual: u64,
    /// The planner's predicted `cost_actual` summed over the same
    /// compactions.
    pub predicted_cost: u64,
    /// One-shot simulator reference: `cost_actual` of a single terminal
    /// compaction of the phase-1 sstables (Figure 7's quantity).
    pub sim_cost_actual: u64,
    /// Wall-clock time writes stalled behind compaction.
    pub stall: Duration,
    /// Live sstables at the end of the run.
    pub final_tables: usize,
}

impl LiveEngineRow {
    /// Measured over predicted cost: 1.0 means the planner's model
    /// matched the engine's physical work exactly.
    #[must_use]
    pub fn prediction_ratio(&self) -> f64 {
        if self.predicted_cost == 0 {
            return f64::NAN;
        }
        self.cost_actual as f64 / self.predicted_cost as f64
    }
}
