//! Per-store latency histograms and the maintenance event ring.
//!
//! Every [`Lsm`](crate::Lsm) owns one [`EngineMetrics`]: lock-free
//! log-bucketed histograms ([`obs::LatencyHistogram`]) for the
//! operation latencies the engine controls, plus a shared
//! [`obs::EventRing`] the maintenance lifecycle is traced into. A
//! sharded deployment aggregates shards by histogram merge
//! ([`EngineMetrics::named_snapshots`] + [`obs::HistogramSnapshot::merge`])
//! and injects one common event ring via
//! [`LsmOptions::event_sink`](crate::LsmOptions::event_sink) so events
//! from all shards interleave causally under a single drain cursor.

use obs::{EventRing, HistogramSnapshot, LatencyHistogram};

/// Default capacity of a store's own event ring when none is injected
/// via [`LsmOptions::event_sink`](crate::LsmOptions::event_sink).
pub const DEFAULT_EVENT_RING_CAPACITY: usize = 2048;

/// The per-store latency histograms, all in microseconds.
///
/// Histograms are cheap cloneable handles over shared atomics; the
/// struct itself is created by the store and exposed by
/// [`Lsm::metrics`](crate::Lsm::metrics).
#[derive(Debug, Clone, Default)]
pub struct EngineMetrics {
    /// Point-read latency ([`Lsm::get`](crate::Lsm::get)), end to end.
    pub get: LatencyHistogram,
    /// Single-key write latency (`put` and `delete`), including any
    /// write stall the operation paid.
    pub put: LatencyHistogram,
    /// [`Lsm::write_batch`](crate::Lsm::write_batch) latency per batch.
    pub write_batch: LatencyHistogram,
    /// Latency of one `next()` on a range scan iterator.
    pub scan_next: LatencyHistogram,
    /// Duration of one flush step (sstable build + publish + retire),
    /// on whichever thread drove it.
    pub flush: LatencyHistogram,
    /// Duration of one compaction merge step (read k runs, merge,
    /// write one run).
    pub compaction_step: LatencyHistogram,
    /// Per-write stall time: slowdown sleeps, stop blocks, and the
    /// compactions a caller's thread ran. The **single source of truth**
    /// for stall accounting — `LsmStats::compaction_stall` and
    /// `LsmPressure::total_stall` are both derived from this
    /// histogram's sum.
    pub stall: LatencyHistogram,
}

impl EngineMetrics {
    /// Fresh, empty histograms.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots every histogram under its stable exposition name.
    #[must_use]
    pub fn named_snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        vec![
            ("engine_get_us", self.get.snapshot()),
            ("engine_put_us", self.put.snapshot()),
            ("engine_write_batch_us", self.write_batch.snapshot()),
            ("engine_scan_next_us", self.scan_next.snapshot()),
            ("engine_flush_us", self.flush.snapshot()),
            ("engine_compaction_step_us", self.compaction_step.snapshot()),
            ("engine_stall_us", self.stall.snapshot()),
        ]
    }
}

/// Creates the store's event ring: the injected shared sink if the
/// options carry one, otherwise a private ring.
pub(crate) fn event_ring_for(options: &crate::LsmOptions) -> EventRing {
    options
        .event_sink_ring()
        .unwrap_or_else(|| EventRing::new(DEFAULT_EVENT_RING_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_snapshots_cover_every_histogram() {
        let m = EngineMetrics::new();
        m.get.record(1);
        m.put.record(2);
        m.write_batch.record(3);
        m.scan_next.record(4);
        m.flush.record(5);
        m.compaction_step.record(6);
        m.stall.record(7);
        let snaps = m.named_snapshots();
        assert_eq!(snaps.len(), 7);
        for (name, snap) in &snaps {
            assert_eq!(snap.count(), 1, "{name} lost its sample");
        }
        let names: Vec<&str> = snaps.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"engine_stall_us"));
        assert!(names.contains(&"engine_compaction_step_us"));
    }
}
