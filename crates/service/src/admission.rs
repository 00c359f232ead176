//! Pressure-driven admission control: shed writes instead of queueing
//! them behind a stalled shard.
//!
//! The paper's serving story is "keep answering while compaction runs".
//! The engine's read path already holds that property structurally
//! (reads never take a lock the compactor holds) — but under inline
//! maintenance a **write** whose flush trips the compaction policy
//! waits for as long as the merge takes, and so does every later write
//! that fills the memtable behind it. Under closed-loop load that shows
//! up as a latency spike; under *open-loop* load it is unbounded queue
//! growth: every queued write pins a server worker, new connections
//! pile into the accept queue, and the tail latency of everything
//! explodes.
//!
//! [`AdmissionController`] is the relief valve. Fed by the engine's
//! [`LsmPressure`] snapshots, read without the write mutex (compaction
//! stall, live-table backlog), it refuses writes with a `BUSY` reply *before*
//! they touch the engine whenever the owning shard is past its budgets.
//! A `BUSY` write was not applied and not logged — the client retries
//! later, and the shard drains its backlog at full speed instead of
//! accumulating a convoy. Reads are never shed: they never wait on the
//! write mutex and stay cheap even mid-compaction.
//!
//! The same controller also counts connections refused at the server's
//! session cap, so one `METRICS` probe shows the whole shed/admit
//! picture.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use lsm_engine::{LsmPressure, StallTier};

/// Budgets past which a shard's writes are shed.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use kv_service::AdmissionConfig;
///
/// let config = AdmissionConfig::default()
///     .stall_budget(Duration::from_millis(50))
///     .backlog_budget(2);
/// assert_ne!(config, AdmissionConfig::default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    stall_budget: Duration,
    backlog_budget: usize,
}

impl Default for AdmissionConfig {
    /// Generous defaults: shed only when a compaction has been stalling
    /// writes for more than 250 ms, or flushes have outrun compaction
    /// by more than 4 tables past the trigger.
    fn default() -> Self {
        Self {
            stall_budget: Duration::from_millis(250),
            backlog_budget: 4,
        }
    }
}

impl AdmissionConfig {
    /// Sets how long an in-progress compaction may stall a shard's
    /// writes before new writes to that shard are shed.
    #[must_use]
    pub fn stall_budget(mut self, budget: Duration) -> Self {
        self.stall_budget = budget;
        self
    }

    /// Sets how many live tables past the compaction trigger
    /// ([`LsmPressure::compaction_backlog`]) are tolerated before
    /// writes are shed.
    #[must_use]
    pub fn backlog_budget(mut self, tables: usize) -> Self {
        self.backlog_budget = tables;
        self
    }

    /// `true` when a shard with this pressure snapshot should have its
    /// writes shed.
    ///
    /// With background maintenance the engine throttles its own writers
    /// through tiered stalls, so admission is a backstop: a shard at
    /// [`StallTier::Stop`] is shed immediately (a write there would park
    /// a server worker until the backlog drains) in addition to the
    /// stall/backlog budgets that cover inline-compaction engines.
    #[must_use]
    pub fn over_budget(&self, pressure: &LsmPressure) -> bool {
        pressure.stall_tier >= StallTier::Stop
            || pressure.current_stall > self.stall_budget
            || pressure.compaction_backlog > self.backlog_budget
    }
}

/// The server's admission state: the (optional) shedding policy plus
/// the shed/admit counters surfaced in the `METRICS` frame.
///
/// With no policy configured every write is admitted (and counted), so
/// the counters are meaningful even on a server that never sheds.
#[derive(Debug, Default)]
pub struct AdmissionController {
    policy: Option<AdmissionConfig>,
    admitted_writes: AtomicU64,
    shed_writes: AtomicU64,
    shed_connections: AtomicU64,
}

/// A snapshot of the controller's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionCounters {
    /// Writes let through to the engine.
    pub admitted_writes: u64,
    /// Writes refused with `BUSY`.
    pub shed_writes: u64,
    /// Connections refused with `BUSY` at the session cap.
    pub shed_connections: u64,
}

impl AdmissionController {
    /// A controller enforcing `policy` (`None` admits everything).
    #[must_use]
    pub fn new(policy: Option<AdmissionConfig>) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// Decides one write (a point op, or a whole batch): admitted
    /// unless the policy finds any of the touched shards' pressure
    /// snapshots over budget. Counts the decision either way.
    pub fn admit_write<I>(&self, pressures: I) -> bool
    where
        I: IntoIterator<Item = LsmPressure>,
    {
        let shed = match &self.policy {
            None => false,
            Some(policy) => pressures.into_iter().any(|p| policy.over_budget(&p)),
        };
        if shed {
            self.shed_writes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.admitted_writes.fetch_add(1, Ordering::Relaxed);
        }
        !shed
    }

    /// Counts a connection refused at the session cap.
    pub fn record_shed_connection(&self) {
        self.shed_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// The counters, for the `METRICS` frame.
    #[must_use]
    pub fn counters(&self) -> AdmissionCounters {
        AdmissionCounters {
            admitted_writes: self.admitted_writes.load(Ordering::Relaxed),
            shed_writes: self.shed_writes.load(Ordering::Relaxed),
            shed_connections: self.shed_connections.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pressure(stall_ms: u64, backlog: usize) -> LsmPressure {
        LsmPressure {
            live_tables: backlog + 2,
            memtable_len: 0,
            memtable_capacity: 100,
            compaction_running: stall_ms > 0,
            current_stall: Duration::from_millis(stall_ms),
            total_stall: Duration::ZERO,
            compaction_backlog: backlog,
            frozen_queue_depth: 0,
            stall_tier: StallTier::None,
        }
    }

    #[test]
    fn no_policy_admits_everything_and_counts() {
        let ctrl = AdmissionController::new(None);
        assert!(ctrl.admit_write([pressure(10_000, 100)]));
        assert!(ctrl.admit_write([pressure(0, 0)]));
        let counters = ctrl.counters();
        assert_eq!(counters.admitted_writes, 2);
        assert_eq!(counters.shed_writes, 0);
    }

    #[test]
    fn stall_and_backlog_budgets_shed_independently() {
        let config = AdmissionConfig::default()
            .stall_budget(Duration::from_millis(5))
            .backlog_budget(1);
        let ctrl = AdmissionController::new(Some(config));
        assert!(ctrl.admit_write([pressure(0, 0)]), "idle shard admitted");
        assert!(ctrl.admit_write([pressure(5, 1)]), "at budget is fine");
        assert!(!ctrl.admit_write([pressure(6, 0)]), "stall over budget");
        assert!(!ctrl.admit_write([pressure(0, 2)]), "backlog over budget");
        let counters = ctrl.counters();
        assert_eq!(counters.admitted_writes, 2);
        assert_eq!(counters.shed_writes, 2);
    }

    #[test]
    fn batch_decision_sheds_on_any_touched_shard() {
        let config = AdmissionConfig::default().stall_budget(Duration::from_millis(5));
        let ctrl = AdmissionController::new(Some(config));
        assert!(!ctrl.admit_write([pressure(0, 0), pressure(50, 0)]));
        assert_eq!(ctrl.counters().shed_writes, 1, "one decision, one count");
        ctrl.record_shed_connection();
        assert_eq!(ctrl.counters().shed_connections, 1);
    }

    #[test]
    fn stop_tier_sheds_even_within_budgets() {
        let ctrl = AdmissionController::new(Some(AdmissionConfig::default()));
        let stopped = LsmPressure {
            stall_tier: StallTier::Stop,
            ..pressure(0, 0)
        };
        assert!(!ctrl.admit_write([stopped]), "stop tier sheds immediately");
        let slowed = LsmPressure {
            stall_tier: StallTier::Slowdown,
            frozen_queue_depth: 2,
            ..pressure(0, 0)
        };
        assert!(
            ctrl.admit_write([slowed]),
            "slowdown tier still admits — the engine paces those writes itself"
        );
    }
}
