//! The bounded structured event ring.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// What happened — the closed set of maintenance lifecycle events the
/// engine emits. The wire protocol carries the [`EventKind::as_str`]
/// name, so consumers that don't know a kind can still display it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EventKind {
    /// A full active memtable was swapped onto the frozen queue
    /// (background mode) or handed to an inline flush.
    MemtableFreeze,
    /// A flush began building an sstable from a memtable generation.
    FlushStart,
    /// A flush published its sstable into the read snapshot.
    FlushPublish,
    /// A WAL segment was retired after its generation became
    /// table-durable.
    WalSegmentRetire,
    /// The planner produced a compaction plan (predicted cost known).
    CompactionPlanned,
    /// One dependency wave of a compaction started executing.
    CompactionWaveStart,
    /// The manifest flipped to the post-compaction table set
    /// (measured cost known).
    CompactionManifestFlip,
    /// The consumed input tables were deleted from storage.
    CompactionInputsRetired,
    /// The write-stall tier changed (0 = none, 1 = slowdown, 2 = stop).
    StallTierChange,
    /// A tombstone-GC run replaced one table with a slimmer copy, or
    /// with nothing (output 0) (fields: input/output table ids,
    /// tombstones dropped, predicted cost = measured entry cost).
    CompactionGc,
    /// Open-time WAL recovery finished (fields: segments scanned,
    /// records replayed, bytes truncated, frames quarantined).
    WalRecovery,
}

impl EventKind {
    /// The stable wire name of this kind.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::MemtableFreeze => "memtable_freeze",
            Self::FlushStart => "flush_start",
            Self::FlushPublish => "flush_publish",
            Self::WalSegmentRetire => "wal_segment_retire",
            Self::CompactionPlanned => "compaction_planned",
            Self::CompactionWaveStart => "compaction_wave_start",
            Self::CompactionManifestFlip => "compaction_manifest_flip",
            Self::CompactionInputsRetired => "compaction_inputs_retired",
            Self::StallTierChange => "stall_tier_change",
            Self::CompactionGc => "compaction_gc",
            Self::WalRecovery => "wal_recovery",
        }
    }

    /// Parses a wire name back into a kind.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "memtable_freeze" => Self::MemtableFreeze,
            "flush_start" => Self::FlushStart,
            "flush_publish" => Self::FlushPublish,
            "wal_segment_retire" => Self::WalSegmentRetire,
            "compaction_planned" => Self::CompactionPlanned,
            "compaction_wave_start" => Self::CompactionWaveStart,
            "compaction_manifest_flip" => Self::CompactionManifestFlip,
            "compaction_inputs_retired" => Self::CompactionInputsRetired,
            "stall_tier_change" => Self::StallTierChange,
            "compaction_gc" => Self::CompactionGc,
            "wal_recovery" => Self::WalRecovery,
            _ => return None,
        })
    }
}

/// One structured event: when, where, what, plus named `u64` fields
/// (generation and table ids, predicted and measured costs, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number, the drain cursor's unit.
    pub seq: u64,
    /// Microseconds since the emitting store's epoch (its open time).
    pub at_micros: u64,
    /// Which shard emitted it (0 for unsharded stores).
    pub shard: u32,
    /// What happened.
    pub kind: EventKind,
    /// Named payload fields.
    pub fields: Vec<(&'static str, u64)>,
}

impl Event {
    /// Looks up a payload field by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// The result of draining an [`EventRing`] since a cursor.
#[derive(Debug, Clone, Default)]
pub struct EventDrain {
    /// The drained events, oldest first.
    pub events: Vec<Event>,
    /// Pass this as the next drain's cursor to continue where this one
    /// stopped.
    pub next_cursor: u64,
    /// Events at or after the requested cursor that were overwritten
    /// before this drain ran (ring overflow).
    pub dropped: u64,
}

#[derive(Debug, Default)]
struct RingState {
    events: VecDeque<Event>,
    next_seq: u64,
}

/// A bounded ring of structured events with overwrite-oldest semantics
/// and a monotonic drain cursor.
///
/// Cloning shares the ring (an `Arc`), so every shard of a sharded
/// store can record into one ring while a metrics endpoint drains it.
/// Recording takes a short mutex — fine for maintenance-rate events,
/// not meant for per-operation use.
///
/// # Examples
///
/// ```
/// use obs::{EventKind, EventRing};
///
/// let ring = EventRing::new(4);
/// ring.record(0, EventKind::FlushStart, 10, vec![("generation", 1)]);
/// ring.record(0, EventKind::FlushPublish, 25, vec![("generation", 1), ("table_id", 9)]);
/// let drain = ring.since(0, 16);
/// assert_eq!(drain.events.len(), 2);
/// assert_eq!(drain.dropped, 0);
/// assert_eq!(drain.events[1].field("table_id"), Some(9));
/// assert!(ring.since(drain.next_cursor, 16).events.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EventRing {
    state: Arc<Mutex<RingState>>,
    capacity: usize,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events (clamped ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Arc::new(Mutex::new(RingState::default())),
            capacity: capacity.max(1),
        }
    }

    /// Appends an event, evicting the oldest if the ring is full.
    /// Returns the event's sequence number.
    pub fn record(
        &self,
        shard: u32,
        kind: EventKind,
        at_micros: u64,
        fields: Vec<(&'static str, u64)>,
    ) -> u64 {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.events.len() == self.capacity {
            state.events.pop_front();
        }
        state.events.push_back(Event {
            seq,
            at_micros,
            shard,
            kind,
            fields,
        });
        seq
    }

    /// Drains up to `max` events with `seq >= cursor`, oldest first,
    /// reporting how many such events were already overwritten. Events
    /// stay in the ring (drains are read-only), so multiple consumers
    /// can hold independent cursors.
    #[must_use]
    pub fn since(&self, cursor: u64, max: usize) -> EventDrain {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let oldest = state.events.front().map_or(state.next_seq, |e| e.seq);
        let dropped = oldest.saturating_sub(cursor).min(
            state.next_seq.saturating_sub(cursor), // cursor past the end drops nothing
        );
        let events: Vec<Event> = state
            .events
            .iter()
            .filter(|e| e.seq >= cursor)
            .take(max)
            .cloned()
            .collect();
        let next_cursor = events.last().map_or(cursor.max(oldest), |e| e.seq + 1);
        EventDrain {
            events,
            next_cursor,
            dropped,
        }
    }

    /// `true` when `other` is a clone of this ring (shares its storage).
    /// Lets containers holding a ring define equality by identity.
    #[must_use]
    pub fn same_ring(&self, other: &EventRing) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }

    /// The sequence number the next recorded event will get. `since`
    /// with this cursor returns only events recorded after this call.
    #[must_use]
    pub fn head(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(ring: &EventRing, n: u64) {
        for i in 0..n {
            ring.record(0, EventKind::FlushStart, i, vec![("i", i)]);
        }
    }

    #[test]
    fn kind_names_roundtrip() {
        for kind in [
            EventKind::MemtableFreeze,
            EventKind::FlushStart,
            EventKind::FlushPublish,
            EventKind::WalSegmentRetire,
            EventKind::CompactionPlanned,
            EventKind::CompactionWaveStart,
            EventKind::CompactionManifestFlip,
            EventKind::CompactionInputsRetired,
            EventKind::StallTierChange,
            EventKind::CompactionGc,
            EventKind::WalRecovery,
        ] {
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(EventKind::parse("nope"), None);
    }

    #[test]
    fn overflow_drops_oldest_and_reports_it() {
        let ring = EventRing::new(3);
        fill(&ring, 5);
        let drain = ring.since(0, 16);
        assert_eq!(drain.dropped, 2, "events 0 and 1 overwritten");
        let seqs: Vec<u64> = drain.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(drain.next_cursor, 5);
    }

    #[test]
    fn cursor_pagination() {
        let ring = EventRing::new(16);
        fill(&ring, 6);
        let first = ring.since(0, 4);
        assert_eq!(first.events.len(), 4);
        let rest = ring.since(first.next_cursor, 4);
        assert_eq!(rest.events.len(), 2);
        assert_eq!(rest.dropped, 0);
        assert!(ring.since(rest.next_cursor, 4).events.is_empty());
    }

    #[test]
    fn cursor_past_head_drops_nothing() {
        let ring = EventRing::new(2);
        fill(&ring, 4);
        let drain = ring.since(100, 4);
        assert!(drain.events.is_empty());
        assert_eq!(drain.dropped, 0);
        assert_eq!(drain.next_cursor, 100);
    }

    #[test]
    fn head_skips_history() {
        let ring = EventRing::new(8);
        fill(&ring, 3);
        let cursor = ring.head();
        fill(&ring, 1);
        let drain = ring.since(cursor, 8);
        assert_eq!(drain.events.len(), 1);
        assert_eq!(drain.events[0].seq, 3);
    }
}
