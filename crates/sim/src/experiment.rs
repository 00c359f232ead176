//! The paper's evaluation experiments (Figures 7, 8 and 9) as typed,
//! runnable configurations.
//!
//! Each config's `default_paper()` constructor carries the exact
//! parameters reported in Section 5; `quick()` scales them down so the
//! whole suite runs in seconds inside tests and CI. The `bench` crate's
//! `tables` binary prints either size (`tables 7|8|9 [--quick]`), and
//! `tests/paper_claims.rs` asserts the paper's claims on the quick ones.

use compaction_core::Strategy;
use ycsb_gen::{Distribution, WorkloadSpec};

use crate::phase1::SstableGenerator;
use crate::runner::{run_strategy, run_strategy_parallel, RunResult};
use crate::stats::Summary;

/// How many independent seeded runs each data point averages over (the
/// paper uses 3).
pub const DEFAULT_RUNS: usize = 3;

fn is_balance_tree(strategy: Strategy) -> bool {
    matches!(
        strategy,
        Strategy::BalanceTree | Strategy::BalanceTreeInput | Strategy::BalanceTreeOutput
    )
}

/// Runs one strategy the way the paper's simulator does: BALANCETREE
/// variants execute their per-level merges in parallel, everything else
/// runs sequentially.
fn run_as_paper(strategy: Strategy, sstables: &[compaction_core::KeySet], k: usize) -> RunResult {
    if is_balance_tree(strategy) {
        run_strategy_parallel(strategy, sstables, k).expect("non-empty instance")
    } else {
        run_strategy(strategy, sstables, k).expect("non-empty instance")
    }
}

// ---------------------------------------------------------------------------
// Figure 7: cost and time vs update percentage, per strategy.
// ---------------------------------------------------------------------------

/// Configuration of the Figure 7 sweep (cost and running time of the five
/// strategies as the workload moves from insert-heavy to update-heavy).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Config {
    /// Update percentages to sweep (the paper sweeps 0 → 100).
    pub update_percents: Vec<u32>,
    /// YCSB `operationcount` (paper: 100 000).
    pub operation_count: u64,
    /// YCSB `recordcount` (paper: 1 000).
    pub record_count: u64,
    /// Memtable size in keys (paper: 1 000).
    pub memtable_size: usize,
    /// Request distribution (paper reports the `latest` distribution).
    pub distribution: Distribution,
    /// Strategies to compare (paper: SI, SO, BT(I), BT(O), RANDOM).
    pub strategies: Vec<Strategy>,
    /// Independent runs per data point (paper: 3).
    pub runs: usize,
    /// Compaction fan-in `k` (paper: 2).
    pub fanin: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Fig7Config {
    /// The paper's full-size configuration.
    #[must_use]
    pub fn default_paper() -> Self {
        Self {
            update_percents: vec![0, 20, 40, 60, 80, 100],
            operation_count: 100_000,
            record_count: 1_000,
            memtable_size: 1_000,
            distribution: Distribution::Latest,
            strategies: Strategy::paper_lineup(42),
            runs: DEFAULT_RUNS,
            fanin: 2,
            seed: 42,
        }
    }

    /// A scaled-down configuration for tests (seconds instead of minutes).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            update_percents: vec![0, 50, 100],
            operation_count: 4_000,
            record_count: 200,
            memtable_size: 200,
            runs: 2,
            ..Self::default_paper()
        }
    }

    /// Runs the sweep and returns one row per (update %, strategy).
    #[must_use]
    pub fn run(&self) -> Vec<Fig7Row> {
        let mut rows = Vec::new();
        for &update_pct in &self.update_percents {
            for &strategy in &self.strategies {
                let mut costs = Vec::with_capacity(self.runs);
                let mut times_ms = Vec::with_capacity(self.runs);
                let mut n_tables = 0usize;
                for run_idx in 0..self.runs {
                    let spec = WorkloadSpec::builder()
                        .record_count(self.record_count)
                        .operation_count(self.operation_count)
                        .update_percent(update_pct)
                        .distribution(self.distribution)
                        .seed(self.seed + run_idx as u64)
                        .build()
                        .expect("valid spec");
                    let sstables = SstableGenerator::new(self.memtable_size).generate(&spec);
                    if sstables.is_empty() {
                        continue;
                    }
                    n_tables = sstables.len();
                    let result = run_as_paper(strategy, &sstables, self.fanin);
                    costs.push(result.cost_actual);
                    times_ms.push(result.total_time().as_secs_f64() * 1_000.0);
                }
                rows.push(Fig7Row {
                    update_percent: update_pct,
                    strategy,
                    n_sstables: n_tables,
                    cost: Summary::of_u64(costs),
                    time_ms: Summary::of(times_ms),
                });
            }
        }
        rows
    }
}

/// One data point of Figure 7: a strategy at an update percentage.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// The update percentage of the workload.
    pub update_percent: u32,
    /// The strategy measured.
    pub strategy: Strategy,
    /// Number of sstables phase 1 produced (last run).
    pub n_sstables: usize,
    /// `cost_actual` over the runs (Figure 7a).
    pub cost: Summary,
    /// Total compaction time in milliseconds over the runs (Figure 7b).
    pub time_ms: Summary,
}

// ---------------------------------------------------------------------------
// Figure 8: BT(I) cost vs the LOPT lower bound as the memtable size grows.
// ---------------------------------------------------------------------------

/// Configuration of the Figure 8 sweep (how close BT(I) is to the
/// lower-bounded optimum as sstables get larger).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Config {
    /// Memtable sizes to sweep (paper: 10 → 10 000, log-spaced).
    pub memtable_sizes: Vec<usize>,
    /// Number of sstables to aim for (paper: 100).
    pub num_sstables: usize,
    /// YCSB `recordcount` for the load phase (paper: 1 000).
    pub record_count: u64,
    /// Update proportion of the run phase (paper: 60:40 update:insert).
    pub update_proportion: f64,
    /// Distributions to evaluate (paper: all three).
    pub distributions: Vec<Distribution>,
    /// Strategy under test (paper: BT(I)).
    pub strategy: Strategy,
    /// Independent runs per data point (paper: 3).
    pub runs: usize,
    /// Compaction fan-in `k`.
    pub fanin: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Fig8Config {
    /// The paper's full-size configuration.
    #[must_use]
    pub fn default_paper() -> Self {
        Self {
            memtable_sizes: vec![10, 100, 1_000, 10_000],
            num_sstables: 100,
            record_count: 1_000,
            update_proportion: 0.6,
            distributions: vec![
                Distribution::Uniform,
                Distribution::zipfian_default(),
                Distribution::Latest,
            ],
            strategy: Strategy::BalanceTreeInput,
            runs: DEFAULT_RUNS,
            fanin: 2,
            seed: 7,
        }
    }

    /// A scaled-down configuration for tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            memtable_sizes: vec![10, 100, 500],
            num_sstables: 30,
            record_count: 300,
            runs: 2,
            distributions: vec![Distribution::Latest],
            ..Self::default_paper()
        }
    }

    /// Runs the sweep and returns one row per (distribution, memtable
    /// size).
    #[must_use]
    pub fn run(&self) -> Vec<Fig8Row> {
        let mut rows = Vec::new();
        for &distribution in &self.distributions {
            for &memtable_size in &self.memtable_sizes {
                let mut costs = Vec::with_capacity(self.runs);
                let mut lopts = Vec::with_capacity(self.runs);
                let mut n_tables = 0usize;
                for run_idx in 0..self.runs {
                    let base = WorkloadSpec::builder()
                        .record_count(self.record_count)
                        .operation_count(0)
                        .update_proportion(self.update_proportion)
                        .insert_proportion(1.0 - self.update_proportion)
                        .distribution(distribution)
                        .seed(self.seed + run_idx as u64)
                        .build()
                        .expect("valid spec");
                    let sstables = SstableGenerator::new(memtable_size)
                        .generate_fixed_count(&base, self.num_sstables);
                    if sstables.len() < 2 {
                        continue;
                    }
                    n_tables = sstables.len();
                    let result = run_as_paper(self.strategy, &sstables, self.fanin);
                    costs.push(result.cost_actual);
                    lopts.push(result.lopt);
                }
                rows.push(Fig8Row {
                    distribution,
                    memtable_size,
                    n_sstables: n_tables,
                    cost: Summary::of_u64(costs),
                    lopt: Summary::of_u64(lopts),
                });
            }
        }
        rows
    }
}

/// One data point of Figure 8.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    /// Request distribution of the workload.
    pub distribution: Distribution,
    /// Memtable size (keys before flush).
    pub memtable_size: usize,
    /// Number of sstables phase 1 produced (last run).
    pub n_sstables: usize,
    /// `cost_actual` of the strategy under test.
    pub cost: Summary,
    /// The `LOPT` lower bound (the "optimal" curve of Figure 8).
    pub lopt: Summary,
}

impl Fig8Row {
    /// The cost-to-lower-bound ratio; the paper's claim is that this stays
    /// a small constant across the sweep.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.lopt.mean == 0.0 {
            1.0
        } else {
            self.cost.mean / self.lopt.mean
        }
    }
}

// ---------------------------------------------------------------------------
// Figure 9: cost vs time for SI, sweeping update % (9a) and operationcount
// (9b) under all three distributions.
// ---------------------------------------------------------------------------

/// Which knob the Figure 9 sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig9Sweep {
    /// Figure 9a: vary the update percentage (Fig. 7 settings).
    UpdatePercent,
    /// Figure 9b: vary the operation count (Fig. 8-style data sizes).
    OperationCount,
}

/// Configuration of the Figure 9 experiment (validating that the cost
/// function predicts compaction running time).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Config {
    /// Which parameter to sweep.
    pub sweep: Fig9Sweep,
    /// Update percentages (used when sweeping update percent).
    pub update_percents: Vec<u32>,
    /// Operation counts (used when sweeping operation count).
    pub operation_counts: Vec<u64>,
    /// Fixed operation count for the update-percent sweep.
    pub operation_count: u64,
    /// Fixed update percentage for the operation-count sweep (paper 60:40).
    pub update_percent_fixed: u32,
    /// YCSB `recordcount`.
    pub record_count: u64,
    /// Memtable size in keys.
    pub memtable_size: usize,
    /// Distributions to evaluate (paper: all three).
    pub distributions: Vec<Distribution>,
    /// Strategy under test (paper: SI, chosen for its low overhead and
    /// single-threaded implementation).
    pub strategy: Strategy,
    /// Independent runs per data point.
    pub runs: usize,
    /// Compaction fan-in `k`.
    pub fanin: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Fig9Config {
    /// The paper's Figure 9a configuration (update-percent sweep).
    #[must_use]
    pub fn default_paper_update_sweep() -> Self {
        Self {
            sweep: Fig9Sweep::UpdatePercent,
            update_percents: vec![0, 20, 40, 60, 80, 100],
            operation_counts: vec![],
            operation_count: 100_000,
            update_percent_fixed: 60,
            record_count: 1_000,
            memtable_size: 1_000,
            distributions: vec![
                Distribution::Uniform,
                Distribution::zipfian_default(),
                Distribution::Latest,
            ],
            strategy: Strategy::SmallestInput,
            runs: DEFAULT_RUNS,
            fanin: 2,
            seed: 21,
        }
    }

    /// The paper's Figure 9b configuration (operation-count sweep).
    #[must_use]
    pub fn default_paper_operation_sweep() -> Self {
        Self {
            sweep: Fig9Sweep::OperationCount,
            update_percents: vec![],
            operation_counts: vec![10_000, 50_000, 100_000, 500_000, 1_000_000],
            ..Self::default_paper_update_sweep()
        }
    }

    /// A scaled-down configuration for tests.
    #[must_use]
    pub fn quick(sweep: Fig9Sweep) -> Self {
        Self {
            sweep,
            update_percents: vec![0, 50, 100],
            operation_counts: vec![2_000, 5_000, 10_000],
            operation_count: 5_000,
            record_count: 200,
            memtable_size: 200,
            runs: 2,
            distributions: vec![Distribution::Latest],
            ..Self::default_paper_update_sweep()
        }
    }

    /// Runs the sweep and returns one row per (distribution, x-value).
    #[must_use]
    pub fn run(&self) -> Vec<Fig9Row> {
        let xs: Vec<u64> = match self.sweep {
            Fig9Sweep::UpdatePercent => {
                self.update_percents.iter().map(|&p| u64::from(p)).collect()
            }
            Fig9Sweep::OperationCount => self.operation_counts.clone(),
        };
        let mut rows = Vec::new();
        for &distribution in &self.distributions {
            for &x in &xs {
                let mut costs = Vec::with_capacity(self.runs);
                let mut times_ms = Vec::with_capacity(self.runs);
                for run_idx in 0..self.runs {
                    let (update_pct, operation_count) = match self.sweep {
                        Fig9Sweep::UpdatePercent => (x as u32, self.operation_count),
                        Fig9Sweep::OperationCount => (self.update_percent_fixed, x),
                    };
                    let spec = WorkloadSpec::builder()
                        .record_count(self.record_count)
                        .operation_count(operation_count)
                        .update_percent(update_pct)
                        .distribution(distribution)
                        .seed(self.seed + run_idx as u64)
                        .build()
                        .expect("valid spec");
                    let sstables = SstableGenerator::new(self.memtable_size).generate(&spec);
                    if sstables.len() < 2 {
                        continue;
                    }
                    let result = run_as_paper(self.strategy, &sstables, self.fanin);
                    costs.push(result.cost_actual);
                    times_ms.push(result.total_time().as_secs_f64() * 1_000.0);
                }
                rows.push(Fig9Row {
                    distribution,
                    x,
                    sweep: self.sweep,
                    cost: Summary::of_u64(costs),
                    time_ms: Summary::of(times_ms),
                });
            }
        }
        rows
    }
}

/// One data point of Figure 9: cost and time at one x-value.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// Request distribution of the workload.
    pub distribution: Distribution,
    /// The swept value: update percentage (9a) or operation count (9b).
    pub x: u64,
    /// Which sweep this row belongs to.
    pub sweep: Fig9Sweep,
    /// `cost_actual` over the runs (x-axis of the paper's plot).
    pub cost: Summary,
    /// Total compaction time in milliseconds (y-axis of the paper's plot).
    pub time_ms: Summary,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_section_5_parameters() {
        let fig7 = Fig7Config::default_paper();
        assert_eq!(fig7.operation_count, 100_000);
        assert_eq!(fig7.record_count, 1_000);
        assert_eq!(fig7.memtable_size, 1_000);
        assert_eq!(fig7.strategies.len(), 5);

        let fig8 = Fig8Config::default_paper();
        assert_eq!(fig8.num_sstables, 100);
        assert_eq!(fig8.memtable_sizes, vec![10, 100, 1_000, 10_000]);
        assert_eq!(fig8.strategy, Strategy::BalanceTreeInput);
        assert!((fig8.update_proportion - 0.6).abs() < 1e-12);

        let fig9a = Fig9Config::default_paper_update_sweep();
        assert_eq!(fig9a.strategy, Strategy::SmallestInput);
        assert_eq!(fig9a.distributions.len(), 3);
        let fig9b = Fig9Config::default_paper_operation_sweep();
        assert_eq!(fig9b.sweep, Fig9Sweep::OperationCount);
    }
}
