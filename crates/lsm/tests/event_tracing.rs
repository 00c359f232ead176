//! Locks down the maintenance event trace: the exact lifecycle
//! sequences the engine promises for flushes and compactions, with the
//! generation/cost fields a trace consumer correlates on.
//!
//! The background-flush test uses [`GatedStorage`] to hold the flush
//! thread mid-lifecycle, proving events are emitted at the real
//! transition points rather than batched after the fact. The
//! caller-driven test pins the same lifecycle with no thread and no
//! clock: the writer that fills a memtable runs the steps itself.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lsm_engine::test_support::GatedStorage;
use lsm_engine::{Event, EventKind, Lsm, LsmOptions, Storage};

/// Polls `cond` until it holds or `deadline` elapses.
fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// All events recorded so far, oldest first.
fn drain(db: &Lsm) -> Vec<Event> {
    let drained = db.events().since(0, usize::MAX);
    assert_eq!(drained.dropped, 0, "ring overflowed during the test");
    drained.events
}

/// The events carrying a `generation` field equal to `generation`.
fn generation_events(events: &[Event], generation: u64) -> Vec<EventKind> {
    events
        .iter()
        .filter(|e| e.field("generation") == Some(generation))
        .map(|e| e.kind)
        .collect()
}

#[test]
fn background_flush_traces_exact_lifecycle_per_generation() {
    let gated = Arc::new(GatedStorage::new());
    gated.close_gate();
    let db = Lsm::open(
        Arc::clone(&gated) as Arc<dyn Storage>,
        LsmOptions::default()
            .memtable_capacity(4)
            .background_maintenance(true)
            .slowdown_trigger(100)
            .stop_trigger(100),
    )
    .unwrap();

    // Capacity 4 ⇒ generations 0 and 1 freeze after keys 3 and 7.
    for i in 0..10u64 {
        db.put(i, format!("v{i}").into_bytes()).unwrap();
    }
    assert!(db.frozen_queue_depth() >= 2);

    // With the flush thread parked on the storage gate, the freezes are
    // traced but no generation has published or retired anything.
    let while_gated = drain(&db);
    let freezes = while_gated
        .iter()
        .filter(|e| e.kind == EventKind::MemtableFreeze)
        .count();
    assert!(freezes >= 2, "one freeze event per frozen generation");
    assert!(
        !while_gated.iter().any(|e| matches!(
            e.kind,
            EventKind::FlushPublish | EventKind::WalSegmentRetire
        )),
        "nothing publishes or retires while the sstable write is gated"
    );

    gated.open_gate();
    db.flush().unwrap();
    assert!(
        wait_until(Duration::from_secs(2), || db.frozen_queue_depth() == 0),
        "flush drained the frozen queue"
    );

    // Every frozen generation now shows the exact four-step lifecycle,
    // in order, under its own generation id.
    let events = drain(&db);
    for generation in 0..2u64 {
        assert_eq!(
            generation_events(&events, generation),
            GENERATION_LIFECYCLE,
            "generation {generation} lifecycle"
        );
    }

    // The freeze events carried the queue state at freeze time.
    let first_freeze = events
        .iter()
        .find(|e| e.kind == EventKind::MemtableFreeze)
        .unwrap();
    assert_eq!(first_freeze.field("entries"), Some(4));
    assert_eq!(first_freeze.field("queue_depth"), Some(1));

    // Flush durations landed in the engine histogram.
    assert!(db.metrics().flush.count() >= 2);
}

/// The four-step lifecycle every flushed generation traces, in order.
const GENERATION_LIFECYCLE: [EventKind; 4] = [
    EventKind::MemtableFreeze,
    EventKind::FlushStart,
    EventKind::FlushPublish,
    EventKind::WalSegmentRetire,
];

#[test]
fn caller_driven_flush_traces_the_same_lifecycle_per_generation() {
    let db = Lsm::open_in_memory(LsmOptions::default().memtable_capacity(4)).unwrap();
    // Capacity 4 ⇒ the puts of keys 3 and 7 fill generations 0 and 1 and
    // flush them before returning; the explicit flush rotates the rest.
    for i in 0..10u64 {
        db.put(i, format!("v{i}").into_bytes()).unwrap();
        assert_eq!(db.frozen_queue_depth(), 0, "after put {i}");
    }
    db.flush().unwrap();

    let events = drain(&db);
    for generation in 0..3u64 {
        assert_eq!(
            generation_events(&events, generation),
            GENERATION_LIFECYCLE,
            "generation {generation} lifecycle"
        );
    }
    // One thread ran every step, so the generations do not interleave.
    let generations: Vec<u64> = events
        .iter()
        .filter_map(|e| e.field("generation"))
        .collect();
    assert!(generations.windows(2).all(|w| w[0] <= w[1]));

    let freezes: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::MemtableFreeze)
        .collect();
    let entries: Vec<Option<u64>> = freezes.iter().map(|e| e.field("entries")).collect();
    assert_eq!(entries, [Some(4), Some(4), Some(2)]);
    assert!(freezes.iter().all(|e| e.field("queue_depth") == Some(1)));
    assert_eq!(db.metrics().flush.count(), 3);
}

#[test]
fn inline_compaction_traces_planned_waves_flip_and_retire_with_costs() {
    let db = Lsm::open_in_memory(
        LsmOptions::default()
            .memtable_capacity(10)
            .wal(false)
            .compaction_threads(2),
    )
    .unwrap();
    for i in 0..40u64 {
        db.put(i % 20, format!("v{i}").into_bytes()).unwrap();
    }
    db.flush().unwrap();
    assert!(db.live_tables().len() >= 2);

    let run = db.auto_compact().unwrap().expect("tables to merge");
    assert_eq!(db.live_tables().len(), 1);

    let compaction: Vec<Event> = drain(&db)
        .into_iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::CompactionPlanned
                    | EventKind::CompactionWaveStart
                    | EventKind::CompactionManifestFlip
                    | EventKind::CompactionInputsRetired
            )
        })
        .collect();

    // Exact shape: one plan, its waves, one flip, one retire — in order.
    let planned = &compaction[0];
    assert_eq!(planned.kind, EventKind::CompactionPlanned);
    let waves = planned.field("waves").unwrap() as usize;
    let steps = planned.field("steps").unwrap() as usize;
    assert!(waves >= 1 && steps >= 1);
    // `auto_compact` merges the whole store.
    assert_eq!(planned.field("tables"), planned.field("live_tables"));
    let kinds: Vec<EventKind> = compaction.iter().map(|e| e.kind).collect();
    let mut expected = vec![EventKind::CompactionPlanned];
    expected.extend(std::iter::repeat_n(EventKind::CompactionWaveStart, waves));
    expected.push(EventKind::CompactionManifestFlip);
    expected.push(EventKind::CompactionInputsRetired);
    assert_eq!(kinds, expected, "planned → waves → flip → retired");

    // Predicted and measured costs are non-zero and stamped throughout.
    let predicted = planned.field("predicted_cost").unwrap();
    assert!(predicted > 0, "planner predicted a real cost");
    assert_eq!(predicted, run.plan.predicted_cost_actual());
    let flip = &compaction[kinds.len() - 2];
    assert_eq!(flip.kind, EventKind::CompactionManifestFlip);
    assert_eq!(flip.field("predicted_cost"), Some(predicted));
    let measured = flip.field("measured_cost").unwrap();
    assert!(measured > 0, "merge measured a real cost");
    assert_eq!(measured, run.outcome.entry_cost());
    let retired = compaction.last().unwrap();
    assert_eq!(retired.field("measured_cost"), Some(measured));
    assert!(retired.field("inputs").unwrap() >= 2);

    // The wave hook stamped every wave with the plan's prediction, and
    // every merge step landed in the step histogram.
    for event in compaction
        .iter()
        .filter(|e| e.kind == EventKind::CompactionWaveStart)
    {
        assert_eq!(event.field("predicted_cost"), Some(predicted));
    }
    assert_eq!(db.metrics().compaction_step.count(), steps as u64);

    // Inline compaction is write-path stall: the unified stall source
    // saw it.
    assert!(db.stats().compaction_stall > Duration::ZERO);
}

/// A policy-triggered compaction merges only the newest run of tables:
/// once one output dwarfs the flushes above it, the plan event reports
/// `tables < live_tables`.
#[test]
fn a_partial_run_traces_fewer_tables_than_are_live() {
    use lsm_engine::CompactionPolicy;

    let db = Lsm::open_in_memory(
        LsmOptions::default()
            .memtable_capacity(10)
            .wal(false)
            .compaction_policy(CompactionPolicy::Threshold { live_tables: 4 }),
    )
    .unwrap();
    for key in 0..100u64 {
        db.put(key, b"v".to_vec()).unwrap();
    }
    let planned: Vec<(u64, u64)> = drain(&db)
        .iter()
        .filter(|e| e.kind == EventKind::CompactionPlanned)
        .map(|e| (e.field("tables").unwrap(), e.field("live_tables").unwrap()))
        .collect();
    // Flushes of 10 keys: 4 tables merge into 40, then 40 + 3 × 10 into
    // 70, then 70 stays out of the next run: it is more than twice the
    // 30 entries above it.
    assert_eq!(planned, [(4, 4), (4, 4), (3, 4)]);
}
