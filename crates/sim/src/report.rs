//! Plain-text rendering of experiment series.
//!
//! The `tables` binary in the `compaction-bench` crate prints the same
//! rows the paper's figures plot (and the live-engine rows) through the
//! `*_table` renderers.

use crate::experiment::{Fig7Row, Fig8Row, Fig9Row, Fig9Sweep};
use crate::live_engine::LiveEngineRow;

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
