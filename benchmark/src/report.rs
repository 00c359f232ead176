//! Metric names, units and the JSON a run prints.
//!
//! The two tables below are the benchmark's vocabulary: `BENCHMARK.json`
//! repeats them (a unit test keeps the two in step), and every later
//! change refers to metrics by these names.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::check::Tally;

/// What a user of the system sees; printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "ops/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("write_amp", "bytes/byte"),
    ("space_amp", "bytes/byte"),
    ("setup_s", "s"),
];

/// Single-layer metrics; printed by a traced run. A layer that is not
/// on a workload's path reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // lsm::storage
    ("storage.write_bytes_per_op", "bytes/op"),
    ("storage.read_bytes_per_op", "bytes/op"),
    ("storage.syscw_per_op", "calls/op"),
    ("storage.wchar_per_op", "bytes/op"),
    // lsm::wal and recovery
    ("wal.put_us", "us"),
    ("wal.segments_live", "count"),
    ("recovery.reopen_s", "s"),
    ("recovery.records_replayed", "count"),
    // lsm::memtable
    ("memtable.put_us", "us"),
    ("memtable.hit_share", "ratio"),
    // lsm::sstable + block + bloom + compress (table probe)
    ("probe.tables_per_get", "tables/op"),
    ("probe.bloom_negative_share", "ratio"),
    ("probe.block_reads_per_get", "reads/op"),
    ("probe.read_bytes_per_get", "bytes/op"),
    ("probe.compress_ratio", "ratio"),
    ("probe.decompress_get_us", "us"),
    // lsm::cache
    ("cache.block_hit_rate", "ratio"),
    ("cache.table_hit_rate", "ratio"),
    ("cache.block_evictions_per_op", "blocks/op"),
    // lsm::scan + iter
    ("scan.keys_per_s", "keys/s"),
    ("scan.p99_us", "us"),
    ("get.p99_us", "us"),
    ("scan.pruned_tables_per_scan", "tables/op"),
    // flush and stall (lsm::db maintenance)
    ("flush.count", "count"),
    ("flush.us_mean", "us"),
    ("stall.share", "ratio"),
    ("stall.slowdowns_per_kop", "1/kop"),
    ("stall.stops_per_kop", "1/kop"),
    ("frozen_queue_depth", "count"),
    // core + hll (planner)
    ("planner.plan_ms", "ms"),
    ("planner.predicted_cost_entries", "entries"),
    ("planner.cost_error", "ratio"),
    // lsm::parallel + compaction (merge)
    ("compact_s", "s"),
    ("cost_actual_entries", "entries"),
    ("merge.entries_per_s", "entries/s"),
    ("merge.waves", "count"),
    ("merge.bytes_written", "bytes"),
    // lsm::manifest
    ("manifest.checkpoint_seq", "count"),
    // service::wire + protocol + pipeline
    ("wire.overhead_us", "us"),
    // service::server + router + store + admission
    ("server.overhead_us", "us"),
    ("server.p99_us", "us"),
    ("admission.shed", "count"),
    // the window's tail and the traced pass itself
    ("p999_us", "us"),
    ("trace.ops_per_s", "ops/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Layer metrics by name; a name never set reads 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    /// The engine and load options of the workload, for the record.
    pub options: String,
    pub tally: Tally,
    /// In [`END_TO_END`] order.
    pub end_to_end: Vec<f64>,
    pub layers: Layers,
    /// Sample counts behind the timings, and the counts of the traced
    /// pass that must repeat exactly.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_line(&self, traced: bool) -> String {
        let metrics: Vec<(&str, &str, f64)> = if traced {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, unit, self.layers.get(name).copied().unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .zip(&self.end_to_end)
                .map(|(&(name, unit), &value)| (name, unit, value))
                .collect()
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        );
        for (i, (name, unit, value)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            );
        }
        out.push_str("}}");
        out
    }

    /// The full record: what `run.sh` collects and `compare.py` reads.
    pub fn detail_line(&self, run: &RunInfo) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"commit\": \"{}\", \"nproc\": {}, \"options\": \"{}\", \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failed_share\": {}, ",
            self.workload,
            run.seed,
            run.seconds,
            u8::from(run.traced),
            run.commit,
            run.nproc,
            self.options,
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            number(self.tally.failed as f64 / self.tally.attempted.max(1) as f64),
        );
        out.push_str("\"end_to_end\": {");
        for (i, (&(name, _), value)) in END_TO_END.iter().zip(&self.end_to_end).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {}", number(*value));
        }
        out.push_str("}, \"per_layer\": {");
        for (i, (name, value)) in self.layers.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {}", number(*value));
        }
        out.push_str("}, \"counts\": {");
        for (i, (name, value)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {value}");
        }
        out.push_str("}}");
        out
    }
}

/// The invocation a report came from.
#[derive(Debug, Clone)]
pub struct RunInfo {
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub commit: String,
    pub nproc: usize,
}

/// A JSON number with every digit measured; a non-finite value (a bug)
/// prints as -1 so the line stays parseable and the value stands out.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "-1".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            workload: "w",
            options: "o".to_owned(),
            tally: Tally {
                attempted: 10,
                failed: 0,
            },
            end_to_end: vec![1.5; END_TO_END.len()],
            layers: Layers::from([("flush.count", 3.0)]),
            counts: BTreeMap::from([("window_samples", 10)]),
        }
    }

    #[test]
    fn contract_line_carries_every_metric_of_its_kind() {
        let report = sample();
        let untraced = report.contract_line(false);
        for (name, _) in END_TO_END {
            assert!(untraced.contains(&format!("\"{name}\": {{\"value\": 1.5")));
        }
        assert!(!untraced.contains("flush.count"));
        let traced = report.contract_line(true);
        assert!(traced.contains("\"flush.count\": {\"value\": 3, \"unit\": \"count\"}"));
        assert!(traced.contains("\"wire.overhead_us\": {\"value\": 0, \"unit\": \"us\"}"));
        assert!(traced.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    /// `BENCHMARK.json` lives one directory up and must name the same
    /// metrics with the same units, and exactly the gated workloads.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let metrics = text.matches("\"unit\":").count();
        assert_eq!(metrics, END_TO_END.len() + PER_LAYER.len());
        for workload in crate::WORKLOADS {
            let listed = text.contains(&format!("\"name\": \"{}\"", workload.name));
            assert_eq!(listed, workload.gated, "{}", workload.name);
        }
    }
}
