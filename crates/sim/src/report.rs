//! Plain-text rendering of experiment series.
//!
//! The `tables` binary in the `compaction-bench` crate prints the same
//! rows the paper's figures plot (and the live-engine rows) through the
//! `*_table` renderers; the `open_loop` and `churn` binaries print theirs
//! the same way, or as CSV with `--csv`.

use crate::churn::ChurnRow;
use crate::experiment::{Fig7Row, Fig8Row, Fig9Row, Fig9Sweep};
use crate::live_engine::LiveEngineRow;
use crate::open_loop::OpenLoopRow;

/// Renders the churn-soak sample series as a fixed-width text table.
#[must_use]
pub fn churn_table(rows: &[ChurnRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>10}  {:>9}  {:>12}  {:>9}  {:>6}  {:>8}  {:>8}  {:>8}  {:>8}  {:>9}  {:>10}  {:>8}\n",
        "sample",
        "ops",
        "blob_bytes",
        "space_amp",
        "tables",
        "wal_segs",
        "ckpt_seq",
        "rec_segs",
        "rec_recs",
        "reopen_ms",
        "gc_dropped",
        "gc_rw"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>10}  {:>9}  {:>12}  {:>9.2}  {:>6}  {:>8}  {:>8}  {:>8}  {:>8}  {:>9.3}  {:>10}  {:>8}\n",
            row.label,
            row.ops,
            row.live_blob_bytes,
            row.space_amp,
            row.live_tables,
            row.wal_segments_live,
            row.manifest_checkpoint_seq,
            row.recovery_segments_scanned,
            row.recovery_records_replayed,
            row.reopen_ms,
            row.tombstones_dropped,
            row.gc_rewrites,
        ));
    }
    out
}

/// Renders the churn-soak sample series as CSV.
#[must_use]
pub fn churn_csv(rows: &[ChurnRow]) -> String {
    let mut out = String::from(
        "label,cycle,ops,live_blob_bytes,logical_bytes,space_amp,live_tables,\
         wal_segments_live,manifest_checkpoint_seq,recovery_segments_scanned,\
         recovery_records_replayed,reopen_ms,tombstones_dropped,gc_rewrites\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{:.4},{},{},{},{},{},{:.3},{},{}\n",
            row.label,
            row.cycle,
            row.ops,
            row.live_blob_bytes,
            row.logical_bytes,
            row.space_amp,
            row.live_tables,
            row.wal_segments_live,
            row.manifest_checkpoint_seq,
            row.recovery_segments_scanned,
            row.recovery_records_replayed,
            row.reopen_ms,
            row.tombstones_dropped,
            row.gc_rewrites,
        ));
    }
    out
}

/// Renders the open-loop serving cells (closed baseline, pipelined
/// capacity, offered-rate sweep) as a fixed-width text table.
#[must_use]
pub fn open_loop_table(rows: &[OpenLoopRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>10}  {:>10}  {:>6}  {:>5}  {:>6}  {:>10}  {:>10}  {:>9}  {:>6}  {:>9}  {:>9}  {:>9}  {:>8}  {:>8}  {:>11}  {:>8}  {:>6}  {:>10}\n",
        "cell",
        "mode",
        "shards",
        "conns",
        "window",
        "offered/s",
        "achieved/s",
        "completed",
        "busy",
        "cli_shed",
        "srv_shed",
        "admitted",
        "p50_us",
        "p99_us",
        "srv_p99_us",
        "p999_us",
        "autoc",
        "stall_ms"
    ));
    for row in rows {
        let offered = if row.offered_ops_per_sec > 0.0 {
            format!("{:.0}", row.offered_ops_per_sec)
        } else {
            "max".to_owned()
        };
        out.push_str(&format!(
            "{:>10}  {:>10}  {:>6}  {:>5}  {:>6}  {:>10}  {:>10.0}  {:>9}  {:>6}  {:>9}  {:>9}  {:>9}  {:>8}  {:>8}  {:>11}  {:>8}  {:>6}  {:>10.2}\n",
            row.label,
            row.mode,
            row.shards,
            row.connections,
            row.window,
            offered,
            row.achieved_ops_per_sec,
            row.completed,
            row.busy,
            row.client_shed,
            row.server_shed_writes,
            row.server_admitted_writes,
            row.p50_micros,
            row.p99_micros,
            row.server_p99_micros,
            row.p999_micros,
            row.auto_compactions,
            row.compaction_stall.as_secs_f64() * 1e3,
        ));
    }
    out
}

/// Renders the open-loop serving cells as CSV.
#[must_use]
pub fn open_loop_csv(rows: &[OpenLoopRow]) -> String {
    let mut out = String::from(
        "label,mode,shards,strategy,connections,window,offered_ops_per_sec,achieved_ops_per_sec,\
         completed,busy,client_shed,server_admitted_writes,server_shed_writes,\
         server_shed_connections,server_slowdown_stalls,server_stop_stalls,server_bg_flushes,\
         p50_us,p99_us,server_p99_us,p999_us,elapsed_ms,auto_compactions,stall_ms\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{:.1},{:.1},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.2},{},{:.4}\n",
            row.label,
            row.mode,
            row.shards,
            row.strategy.name(),
            row.connections,
            row.window,
            row.offered_ops_per_sec,
            row.achieved_ops_per_sec,
            row.completed,
            row.busy,
            row.client_shed,
            row.server_admitted_writes,
            row.server_shed_writes,
            row.server_shed_connections,
            row.server_slowdown_stalls,
            row.server_stop_stalls,
            row.server_bg_flushes,
            row.p50_micros,
            row.p99_micros,
            row.server_p99_micros,
            row.p999_micros,
            row.elapsed.as_secs_f64() * 1e3,
            row.auto_compactions,
            row.compaction_stall.as_secs_f64() * 1e3,
        ));
    }
    out
}

/// Renders the live-engine rows (measured vs predicted vs simulated
/// compaction cost per strategy) as a fixed-width text table.
#[must_use]
pub fn live_engine_table(rows: &[LiveEngineRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>10}  {:>8}  {:>6}  {:>14}  {:>14}  {:>14}  {:>10}  {:>7}\n",
        "strategy",
        "flushes",
        "autoc",
        "cost_actual",
        "predicted",
        "sim_one_shot",
        "stall_ms",
        "ratio"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>10}  {:>8}  {:>6}  {:>14}  {:>14}  {:>14}  {:>10.2}  {:>7.3}\n",
            row.strategy.name(),
            row.flushes,
            row.auto_compactions,
            row.cost_actual,
            row.predicted_cost,
            row.sim_cost_actual,
            row.stall.as_secs_f64() * 1e3,
            row.prediction_ratio(),
        ));
    }
    out
}

/// Renders the Figure 7 series (cost and time per strategy per update
/// percentage) as a fixed-width text table.
#[must_use]
pub fn fig7_table(rows: &[Fig7Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>8}  {:>8}  {:>10}  {:>18}  {:>18}\n",
        "update%", "strategy", "sstables", "cost_actual", "time_ms"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>8}  {:>8}  {:>10}  {:>18}  {:>18}\n",
            row.update_percent,
            row.strategy.name(),
            row.n_sstables,
            row.cost.to_string(),
            row.time_ms.to_string(),
        ));
    }
    out
}

/// Renders the Figure 8 series (BT(I) cost vs the LOPT lower bound) as a
/// fixed-width text table.
#[must_use]
pub fn fig8_table(rows: &[Fig8Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>10}  {:>14}  {:>10}  {:>18}  {:>18}  {:>7}\n",
        "dist", "memtable_size", "sstables", "bt_cost", "lopt_bound", "ratio"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>10}  {:>14}  {:>10}  {:>18}  {:>18}  {:>7.3}\n",
            row.distribution.name(),
            row.memtable_size,
            row.n_sstables,
            row.cost.to_string(),
            row.lopt.to_string(),
            row.ratio(),
        ));
    }
    out
}

/// Renders a Figure 9 series (cost vs time) as a fixed-width text table.
#[must_use]
pub fn fig9_table(rows: &[Fig9Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>10}  {:>16}  {:>18}  {:>18}\n",
        "dist", "x", "cost_actual", "time_ms"
    ));
    for row in rows {
        let x_label = match row.sweep {
            Fig9Sweep::UpdatePercent => format!("{}% updates", row.x),
            Fig9Sweep::OperationCount => format!("{} ops", row.x),
        };
        out.push_str(&format!(
            "{:>10}  {:>16}  {:>18}  {:>18}\n",
            row.distribution.name(),
            x_label,
            row.cost.to_string(),
            row.time_ms.to_string(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Fig7Config, Fig8Config, Fig9Config};
    use crate::Fig9Sweep;

    #[test]
    fn fig7_rendering_contains_all_strategies() {
        let rows = Fig7Config::quick().run();
        let table = fig7_table(&rows);
        for name in ["SI", "SO(HLL)", "BT(I)", "BT(O)", "RANDOM"] {
            assert!(table.contains(name), "missing {name} in:\n{table}");
        }
        assert_eq!(table.lines().count(), rows.len() + 1);
    }

    #[test]
    fn fig8_rendering_includes_ratio_column() {
        let rows = Fig8Config::quick().run();
        let table = fig8_table(&rows);
        assert!(table.contains("ratio"));
        assert!(table.contains("latest"));
        assert_eq!(table.lines().count(), rows.len() + 1);
    }

    #[test]
    fn fig9_rendering_labels_both_sweeps() {
        let a = Fig9Config::quick(Fig9Sweep::UpdatePercent).run();
        assert!(fig9_table(&a).contains("% updates"));
        let b = Fig9Config::quick(Fig9Sweep::OperationCount).run();
        assert!(fig9_table(&b).contains(" ops"));
    }
}
