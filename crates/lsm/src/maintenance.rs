//! The maintenance pipeline: everything between a full memtable and a
//! compacted table set, as a further `impl` block on the engine state
//! declared in `db.rs`.
//!
//! # Steps
//!
//! * **freeze** ([`LsmInner::freeze_active`]; under the write mutex,
//!   O(1), no I/O): the active memtable moves onto the frozen queue with
//!   the WAL segment that made it durable, and a fresh segment becomes
//!   the active one.
//! * **flush step** ([`LsmInner::flush_step`]): the oldest frozen
//!   generation is written to an sstable with no engine lock held,
//!   published under a brief write-lock section, popped off the queue,
//!   and its WAL segment deleted — in that order, one generation at a
//!   time.
//! * **compaction step** ([`LsmInner::compact_step`]): if the policy
//!   fires, one run of the compaction driver
//!   ([`LsmInner::run_compaction`]) over the newest run of live tables
//!   ([`newest_run`]), not the whole store as [`Lsm::auto_compact`]
//!   does; else, with [`LsmOptions::tombstone_gc`] on, one tombstone-GC
//!   run: a one-table run through the same driver and executor. All GC
//!   keeps to itself is its choice of table.
//!
//! A step knows nothing about who called it.
//!
//! # Drivers
//!
//! [`LsmInner::drive`] is the one place that asks which driver the store
//! was opened with. *Caller-driven* (`background_maintenance(false)`):
//! the thread that rotated a memtable, or called `flush()` /
//! `maybe_compact()`, runs flush steps until the queue is empty and
//! compaction steps until none is due, so between two acknowledged
//! calls nothing is pending; a merge it ran is one stall-histogram
//! sample. *Threaded*: `drive` only wakes [`LsmInner::flush_worker`] and
//! [`LsmInner::compaction_worker`], which loop over the same two steps,
//! and writers are paced by the stall tiers
//! ([`LsmInner::throttle_write`]) instead. The tiers stay off when the
//! caller drives: a stopped writer would wait for a thread that does
//! not exist.
//!
//! # Lock order
//!
//! `flush_mx` (one flush step at a time) or `compaction_mx` (one
//! compaction run, GC included, at a time) is taken **before** the write
//! mutex, and never both at once. So no step may start from under the
//! write guard: a writer that fills the memtable freezes it under the
//! guard, drops the guard, and only then drives. The write mutex covers
//! bookkeeping only (allocate a table id, apply and persist a manifest
//! edit, publish the read view), never a table build or a merge.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, OnceLock};
use std::time::{Duration, Instant};

use compaction_core::MergePlan;
use obs::EventKind;
use parking_lot::Mutex;

#[cfg(doc)]
use super::Lsm;
use super::{AutoCompaction, LsmInner, StallTier, WriteState};
use crate::compaction::{CompactionOutcome, CompactionStep};
use crate::manifest::{Manifest, ManifestEdit, TableMeta};
use crate::memtable::Memtable;
use crate::options::CompactionPolicy;
use crate::parallel::ParallelExecutor;
use crate::planner::{newest_run, plan_compaction};
use crate::sstable::write_table;
use crate::types::SeqNo;
use crate::wal::Wal;
use crate::Error;
#[cfg(doc)]
use crate::LsmOptions;

/// Bounded delay one write pays in the slowdown stall tier.
const SLOWDOWN_SLEEP: Duration = Duration::from_micros(500);
/// Re-check period for blocked waits (stop-tier writers, queue drains,
/// worker idle loops): a safety net against missed condvar wakeups.
const STALL_WAIT_SLICE: Duration = Duration::from_millis(10);
/// Back-off before a maintenance worker retries a failed flush/merge.
const WORKER_RETRY_DELAY: Duration = Duration::from_millis(5);

/// Consecutive background-flush failures after which a blocked
/// `flush()` caller gives up and surfaces the flush thread's error
/// instead of waiting for progress that a dead storage backend will
/// never make.
const FLUSH_FAILURE_GIVE_UP: u64 = 3;

/// One frozen memtable generation: the immutable map plus the WAL
/// segment that made it durable (retired only after *its* flush).
#[derive(Debug)]
pub(super) struct FrozenGen {
    /// Generation id carried by this generation's trace events.
    generation: u64,
    pub(super) memtable: Memtable,
    wal_segment: Option<String>,
    /// The sstable this generation was flushed into, set at publish —
    /// what a `flush()` that rotated this generation returns.
    table: OnceLock<u64>,
}

/// Signals between writers and the maintenance threads. Uses std
/// condvars (the vendored `parking_lot` shim has none); every wait is
/// time-sliced so a missed wakeup costs at most one slice.
#[derive(Debug, Default)]
pub(super) struct Maintenance {
    shutdown: AtomicBool,
    /// Kicked when the frozen queue gains work.
    flush_signal: Signal,
    /// Kicked when the compaction policy may be due.
    compact_signal: Signal,
    /// Kicked whenever maintenance makes progress (a flush or merge
    /// completed) — what stalled writers and queue drains wait on.
    progress_signal: Signal,
    /// Consecutive background-flush failures since the last success.
    /// Non-zero while the flush thread is retrying against a failing
    /// backend; explicit `flush()` callers read it to turn an endless
    /// wait into an explicit error.
    flush_failure_streak: AtomicU64,
    /// Display form of the most recent background-flush error, so the
    /// error a blocked `flush()` caller surfaces names the real cause.
    last_flush_error: Mutex<Option<String>>,
}

#[derive(Debug, Default)]
struct Signal {
    mx: Mutex<()>,
    cv: Condvar,
}

impl Signal {
    fn notify(&self) {
        let _guard = self.mx.lock();
        self.cv.notify_all();
    }

    fn wait_timeout(&self, timeout: Duration) {
        let _ = self.cv.wait_timeout(self.mx.lock(), timeout);
    }
}

impl LsmInner {
    // ---- steps ----

    /// O(1) memtable rotation: swap the active memtable onto the frozen
    /// queue and park its WAL segment with it; a fresh segment becomes
    /// the active one (which also leaves a poisoned segment behind).
    ///
    /// The swap and the queue publication happen inside one
    /// memtable-write-lock critical section, so a concurrent reader sees
    /// either the pre-swap active memtable or the published frozen
    /// generation — never the empty in-between.
    ///
    /// If the queue already holds [`LsmOptions::stop_trigger`]
    /// generations the rotation is skipped (`None`): the active
    /// memtable keeps absorbing writes past capacity, and the stop stall
    /// tier that depth alone puts in force bounds how far it grows.
    pub(super) fn freeze_active(&self, w: &mut WriteState) -> Option<Arc<FrozenGen>> {
        let queue = self.frozen_queue();
        if queue.len() >= self.options.stop_trigger_debt() {
            return None;
        }
        let wal_segment = w.wal.take().map(|wal| wal.segment_name().to_string());
        if self.options.wal_enabled() {
            let generation = w.next_wal_generation;
            w.next_wal_generation += 1;
            w.wal = Some(Wal::new(Wal::generation_blob_name(generation)));
        }
        let generation = self.next_flush_generation.fetch_add(1, Ordering::Relaxed);
        // The replacement memtable inherits the current retention floor
        // so pinned snapshots keep their versions across the rotation.
        let mut fresh = Memtable::new(self.options.memtable_capacity_keys());
        fresh.set_retain_floor(self.pin_floor());
        let gen = {
            let mut active = self.memtable.write();
            let gen = Arc::new(FrozenGen {
                generation,
                memtable: std::mem::replace(&mut *active, fresh),
                wal_segment,
                table: OnceLock::new(),
            });
            let mut next: Vec<Arc<FrozenGen>> = queue.as_ref().clone();
            next.push(Arc::clone(&gen));
            *self.frozen.write() = Arc::new(next);
            gen
        };
        self.emit(
            EventKind::MemtableFreeze,
            vec![
                ("generation", generation),
                ("entries", gen.memtable.len() as u64),
                ("queue_depth", queue.len() as u64 + 1),
            ],
        );
        Some(gen)
    }

    /// One flush step: flush the oldest frozen generation, if any, and
    /// report whether there was one. `flush_mx` makes the step exclusive,
    /// so generations reach the manifest oldest first and none is flushed
    /// twice, whichever threads drive. On an error the generation stays
    /// queued and its segment live: nothing is lost, a later step retries.
    fn flush_step(&self) -> Result<bool, Error> {
        let _serial = self.flush_mx.lock();
        let Some(gen) = self.frozen_queue().first().cloned() else {
            return Ok(false);
        };
        // A generation holding only range tombstones still flushes — the
        // records must out-live the WAL segment retired below.
        let started = Instant::now();
        self.emit(
            EventKind::FlushStart,
            vec![
                ("generation", gen.generation),
                ("entries", gen.memtable.len() as u64),
            ],
        );
        let table_id = self.write.lock().manifest.allocate_table_id();
        let entries = gen.memtable.iter().map(Ok);
        let range_dels = gen.memtable.range_dels().iter().cloned();
        let meta = write_table(
            self.storage.as_ref(),
            &self.options,
            table_id,
            entries,
            range_dels,
        )?;
        self.retire_frozen(&gen, meta)?;
        self.metrics.flush.record_duration(started.elapsed());
        self.stats.lock().flushes += 1;
        self.maint.progress_signal.notify();
        Ok(true)
    }

    /// Commits a flushed generation: publish its sstable, pop the
    /// generation off the frozen queue, and retire its WAL segment —
    /// strictly in that order, so a concurrent reader finds the data in
    /// the table or the queue (duplicates deduplicate by source
    /// precedence) and a crash at any point leaves it recoverable from
    /// the table or the segment.
    fn retire_frozen(&self, gen: &Arc<FrozenGen>, meta: TableMeta) -> Result<(), Error> {
        {
            let mut w = self.write.lock();
            let (table_id, entry_count) = (meta.table_id, meta.entry_count);
            w.manifest.apply(ManifestEdit::AddTable(meta))?;
            w.manifest.persist(self.storage.as_ref())?;
            self.publish_snapshot(&w.manifest);
            gen.table
                .set(table_id)
                .expect("flush_mx admits one flush per generation");
            self.emit(
                EventKind::FlushPublish,
                vec![
                    ("generation", gen.generation),
                    ("table", table_id),
                    ("entries", entry_count),
                ],
            );
            let remaining: Vec<Arc<FrozenGen>> = self
                .frozen_queue()
                .iter()
                .filter(|g| !Arc::ptr_eq(g, gen))
                .cloned()
                .collect();
            *self.frozen.write() = Arc::new(remaining);
        }
        if let Some(segment) = &gen.wal_segment {
            self.storage.delete_blob(segment)?;
            self.emit(
                EventKind::WalSegmentRetire,
                vec![("generation", gen.generation)],
            );
        }
        Ok(())
    }

    /// One compaction step: run the planned compaction if the policy
    /// fires, else, with GC on, one tombstone-GC run. Merge work always
    /// outranks space reclamation, so GC competes for the driver without
    /// delaying the compactions the stall tiers depend on.
    fn compact_step(&self) -> Result<Option<CompactionRun>, Error> {
        // Checked here as well as inside the run: a step that is not
        // due must not queue on `compaction_mx` behind another merge.
        let live_tables = self.write.lock().manifest.table_count();
        if self.compaction_backlog(live_tables) > 0 {
            return self.run_compaction(Schedule::Planned { if_due: true });
        }
        if self.options.tombstone_gc_enabled() {
            return self.run_compaction(Schedule::TombstoneGc);
        }
        Ok(None)
    }

    // ---- drivers ----

    /// Maintenance may be due — a memtable was rotated, or the caller
    /// asked. The one place the two drivers part: a threaded store wakes
    /// its workers and returns; a caller-driven one runs the steps on
    /// this thread until none is due. A merge run here made the caller
    /// wait: it is one stall sample, and the last one is returned.
    pub(super) fn drive(&self) -> Result<Option<AutoCompaction>, Error> {
        if self.background() {
            self.maint.flush_signal.notify();
            self.maint.compact_signal.notify();
            return Ok(None);
        }
        while self.flush_step()? {}
        let mut last = None;
        while let Some((plan, outcome, stall)) = self.compact_step()? {
            if let Some(plan) = plan {
                self.metrics.stall.record_duration(stall);
                last = Some(AutoCompaction {
                    plan,
                    outcome,
                    stall,
                });
            }
        }
        Ok(last)
    }

    pub(super) fn flush(&self) -> Result<Option<u64>, Error> {
        loop {
            let (pending, rotated) = {
                let mut w = self.write.lock();
                let pending = !self.memtable.read().is_empty();
                let rotated = pending.then(|| self.freeze_active(&mut w)).flatten();
                (pending, rotated)
            };
            self.drain_frozen_queue()?;
            // Pending but not rotated: a saturated queue refused. It has
            // drained now, so the retry goes through.
            if rotated.is_some() || !pending {
                return Ok(rotated.and_then(|gen| gen.table.get().copied()));
            }
        }
    }

    /// Returns once the frozen queue is empty (or at shutdown), driving
    /// the pipeline until then: a caller-driven store runs the steps
    /// right here, a threaded one waits on the flush thread's progress.
    ///
    /// Gives up with the flush thread's own error once it has failed
    /// [`FLUSH_FAILURE_GIVE_UP`] consecutive attempts: a dead backend
    /// would otherwise wedge every explicit `flush()` caller forever.
    /// (The streak only resets on a successful flush, and the queue
    /// only drains through successes, so a stale streak cannot outlive
    /// the condition it reports while the queue is non-empty.)
    fn drain_frozen_queue(&self) -> Result<(), Error> {
        loop {
            self.drive()?;
            if self.frozen_queue().is_empty() || self.maint.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            if self.maint.flush_failure_streak.load(Ordering::SeqCst) >= FLUSH_FAILURE_GIVE_UP {
                let detail = self.maint.last_flush_error.lock().clone();
                let detail = detail.unwrap_or_else(|| "unknown error".into());
                return Err(Error::Io(std::io::Error::other(format!(
                    "background flush cannot make progress: {detail}"
                ))));
            }
            self.maint.progress_signal.wait_timeout(STALL_WAIT_SLICE);
        }
    }

    /// The flush thread's main loop: flush steps until the queue is
    /// empty, then doze until a rotation kicks the signal. Keeps
    /// draining after shutdown is signalled until the queue is empty,
    /// so drop never abandons an acked write to a memory-only memtable.
    pub(super) fn flush_worker(&self) {
        loop {
            match self.flush_step() {
                Ok(true) => {
                    self.bg_flushes.fetch_add(1, Ordering::Relaxed);
                    self.maint.flush_failure_streak.store(0, Ordering::SeqCst);
                    self.maint.compact_signal.notify();
                }
                Ok(false) => {
                    if self.maint.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    self.maint.flush_signal.wait_timeout(STALL_WAIT_SLICE);
                }
                Err(e) => {
                    // Retry after a pause; at shutdown, give up — the
                    // WAL still has the generation.
                    *self.maint.last_flush_error.lock() = Some(e.to_string());
                    self.maint
                        .flush_failure_streak
                        .fetch_add(1, Ordering::SeqCst);
                    // Wake blocked flush() callers so they can observe
                    // the streak rather than sleep out their slice.
                    self.maint.progress_signal.notify();
                    if self.maint.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(WORKER_RETRY_DELAY);
                }
            }
        }
    }

    /// The scheduler thread's main loop: compaction steps while there
    /// is work, otherwise doze until a flush kicks the signal. No
    /// writer waits on these merges, so nothing is recorded into the
    /// stall histogram.
    pub(super) fn compaction_worker(&self) {
        while !self.maint.shutdown.load(Ordering::SeqCst) {
            match self.compact_step() {
                Ok(None) => self.maint.compact_signal.wait_timeout(STALL_WAIT_SLICE),
                Ok(Some(_)) => {}
                Err(_) => std::thread::sleep(WORKER_RETRY_DELAY),
            }
        }
    }

    /// Tells both workers (and anyone blocked on them) to wind down.
    pub(super) fn signal_shutdown(&self) {
        self.maint.shutdown.store(true, Ordering::SeqCst);
        self.maint.flush_signal.notify();
        self.maint.compact_signal.notify();
        self.maint.progress_signal.notify();
    }

    // ---- stall tiers ----

    /// How many of `live_tables` sit at or beyond the
    /// [`CompactionPolicy::Threshold`] trigger (0 for other policies):
    /// the policy fires when it is positive.
    pub(super) fn compaction_backlog(&self, live_tables: usize) -> usize {
        match self.options.policy() {
            CompactionPolicy::Threshold {
                live_tables: trigger,
            } => (live_tables + 1).saturating_sub(trigger),
            _ => 0,
        }
    }

    /// The maintenance debt writers are throttled on: frozen-queue
    /// depth + compaction backlog.
    fn maintenance_debt(&self) -> usize {
        self.frozen_queue().len() + self.compaction_backlog(self.read_view().tables.len())
    }

    /// The stall tier currently in force. [`StallTier::None`] when the
    /// caller drives maintenance: the writer that rotates a memtable
    /// pays for the steps itself, and a stopped writer with no worker
    /// thread to wait for would wait forever.
    pub(super) fn stall_tier(&self) -> StallTier {
        if !self.background() {
            return StallTier::None;
        }
        let debt = self.maintenance_debt();
        if debt >= self.options.stop_trigger_debt() {
            StallTier::Stop
        } else if debt >= self.options.slowdown_trigger_debt() {
            StallTier::Slowdown
        } else {
            StallTier::None
        }
    }

    /// Tiered write throttling, applied **before** the write mutex is
    /// taken (a stalled writer holding the mutex would deadlock the
    /// flush thread it is waiting on). Slowdown delays the write by one
    /// bounded sleep; stop blocks until maintenance drains below the
    /// trigger (or shutdown). Every paced microsecond is recorded into
    /// the stall histogram — the single source `compaction_stall` and
    /// `total_stall` are derived from — alongside the
    /// `slowdown_stalls` / `stop_stalls` occurrence counters.
    pub(super) fn throttle_write(&self) {
        let tier = self.stall_tier();
        self.note_stall_tier(tier);
        match tier {
            StallTier::None => {}
            StallTier::Slowdown => {
                self.slowdown_stalls.fetch_add(1, Ordering::Relaxed);
                let stalled = Instant::now();
                std::thread::sleep(SLOWDOWN_SLEEP);
                self.metrics.stall.record_duration(stalled.elapsed());
            }
            StallTier::Stop => {
                self.stop_stalls.fetch_add(1, Ordering::Relaxed);
                let stalled = Instant::now();
                while self.stall_tier() == StallTier::Stop
                    && !self.maint.shutdown.load(Ordering::SeqCst)
                {
                    self.maint.flush_signal.notify();
                    self.maint.compact_signal.notify();
                    self.maint.progress_signal.wait_timeout(STALL_WAIT_SLICE);
                }
                self.metrics.stall.record_duration(stalled.elapsed());
            }
        }
    }

    /// Traces stall-tier *edges*: emits [`EventKind::StallTierChange`]
    /// only when `tier` differs from what the previous writer saw.
    fn note_stall_tier(&self, tier: StallTier) {
        let code = tier as u64;
        let previous = self.stall_tier_seen.swap(code, Ordering::Relaxed);
        if previous != code {
            self.emit(
                EventKind::StallTierChange,
                vec![("from", previous), ("to", code)],
            );
        }
    }

    // ---- the compaction driver ----

    /// The one compaction driver, run on whichever thread asks: snapshot
    /// the table list (for an `if_due` request, only its newest run; for
    /// tombstone GC, only its candidate), plan, `prepare` under a brief
    /// write lock, merge unlocked, commit and flip the manifest under a
    /// brief write lock, delete the consumed blobs unlocked.
    /// `compaction_mx` serializes whole runs, so every planned input
    /// still exists at prepare time: flushes can only *add* tables
    /// meanwhile, and those are newer than any run. `Ok(None)` means
    /// nothing flipped: nothing to plan, a policy that does not fire, no
    /// GC candidate, an empty schedule or a rewrite that dropped nothing.
    /// Otherwise: the executed plan (`None` for a manual or GC
    /// schedule), what it moved, and the run's planning + merging
    /// wall-clock from when it held `compaction_mx`.
    pub(super) fn run_compaction(
        &self,
        schedule: Schedule<'_>,
    ) -> Result<Option<CompactionRun>, Error> {
        let _serial = self.compaction_mx.lock();
        let _mark = self.mark_compacting();
        let start = Instant::now();
        let if_due = matches!(schedule, Schedule::Planned { if_due: true });
        let gc = matches!(schedule, Schedule::TombstoneGc);
        // Sampled before the table set, as `with_retain_floor` asks.
        let floor = self.pin_floor();
        let (live_tables, tables) = {
            let w = self.write.lock();
            let live = w.manifest.tables();
            let backlog = self.compaction_backlog(live.len());
            if if_due && backlog == 0 {
                return Ok(None);
            }
            // Merging `backlog + 1` tables into one clears the backlog.
            let tables = match schedule {
                Schedule::Planned { if_due: true } => newest_run(live, backlog + 1),
                Schedule::TombstoneGc => match self.gc_candidate(live, floor) {
                    Some(candidate) => vec![candidate],
                    None => return Ok(None),
                },
                _ => live.to_vec(),
            };
            (live.len() as u64, tables)
        };
        let initial: Vec<u64> = tables.iter().map(|t| t.table_id).collect();
        // Planning reads each table's observation section (I/O), which
        // is why it works from the snapshot rather than under the write
        // mutex.
        let (plan, steps) = match schedule {
            Schedule::Planned { .. } => {
                let Some(plan) = plan_compaction(self.storage.as_ref(), &tables, &self.options)?
                else {
                    return Ok(None);
                };
                let steps: Vec<CompactionStep> = plan
                    .steps()
                    .iter()
                    .map(|inputs| CompactionStep::new(inputs.clone()))
                    .collect();
                (Some(plan), steps)
            }
            Schedule::Manual(steps) => (None, steps.to_vec()),
            Schedule::TombstoneGc => (None, vec![CompactionStep::new(vec![0])]),
        };
        let predicted = plan.as_ref().map_or(0, MergePlan::predicted_cost_actual);
        // Wired to the compaction-step histogram and wave-start trace
        // events; `predicted_cost` is stamped on each wave so a trace
        // consumer can follow one compaction end to end.
        let (events, shard, epoch) = (self.events.clone(), self.shard, self.epoch);
        let executor = ParallelExecutor::new(Arc::clone(&self.storage), self.options.clone())
            .with_retain_floor(floor)
            .with_step_timer(self.metrics.compaction_step.clone())
            .with_wave_hook(move |wave, steps| {
                events.record(
                    shard,
                    EventKind::CompactionWaveStart,
                    epoch.elapsed().as_micros() as u64,
                    vec![
                        ("wave", wave as u64),
                        ("steps", steps as u64),
                        ("predicted_cost", predicted),
                    ],
                );
            });
        let prepared = executor.prepare(&mut self.write.lock().manifest, &initial, &steps)?;
        // `tables < live_tables` marks a partial run.
        self.emit(
            EventKind::CompactionPlanned,
            vec![
                ("tables", initial.len() as u64),
                ("live_tables", live_tables),
                ("steps", steps.len() as u64),
                ("waves", prepared.wave_count() as u64),
                ("predicted_cost", predicted),
            ],
        );
        let Some(merged) = executor.merge_prepared(&prepared)? else {
            // Barren at this floor: retried after a flip or a rise.
            if gc {
                self.gc_barren.lock().insert(initial[0], floor);
            }
            return Ok(None);
        };
        let outcome = {
            let mut w = self.write.lock();
            let outcome = ParallelExecutor::commit(
                &mut w.manifest,
                &merged,
                self.storage.as_ref(),
                |manifest| self.on_manifest_flip(&initial, manifest),
            )?;
            self.emit(
                EventKind::CompactionManifestFlip,
                vec![
                    ("tables_after", w.manifest.table_count() as u64),
                    ("predicted_cost", predicted),
                    ("measured_cost", outcome.entry_cost()),
                ],
            );
            outcome
        };
        executor.retire_consumed(&merged)?;
        self.emit(
            EventKind::CompactionInputsRetired,
            vec![
                ("inputs", merged.consumed_count() as u64),
                ("predicted_cost", predicted),
                ("measured_cost", outcome.entry_cost()),
            ],
        );
        if gc {
            // GC has no planner: its prediction is what it measured.
            self.emit(
                EventKind::CompactionGc,
                vec![
                    ("input_table", initial[0]),
                    ("output_table", outcome.final_table_id.unwrap_or(0)),
                    ("tombstones_dropped", outcome.tombstones_dropped),
                    ("predicted_cost", outcome.entry_cost()),
                ],
            );
        }
        {
            let mut stats = self.stats.lock();
            stats.record_compaction(&outcome);
            if plan.is_some() {
                stats.auto_compactions += 1;
                stats.compaction_predicted_cost += predicted;
            } else if gc {
                stats.gc_rewrites += 1;
                stats.compaction_predicted_cost += outcome.entry_cost();
            }
        }
        self.maint.progress_signal.notify();
        let elapsed = start.elapsed();
        // A caller that asked for a merge waited on it; `drive` samples
        // policy runs, and GC is never a stall.
        if !if_due && !gc {
            self.metrics.stall.record_duration(elapsed);
        }
        Ok(Some((plan, outcome, elapsed)))
    }

    /// Stamps the in-progress-compaction marker for [`Lsm::pressure`];
    /// the returned guard clears it on every exit path. Called with
    /// `compaction_mx` held, so stamps never overlap.
    fn mark_compacting(&self) -> CompactionMark<'_> {
        self.compaction_started.store(
            self.epoch.elapsed().as_micros() as u64 + 1,
            Ordering::Relaxed,
        );
        CompactionMark(self)
    }

    /// Publishes the post-flip read view and purges retired tables from
    /// the caches. Runs after the manifest is persisted but before the
    /// consumed input blobs are deleted, so readers migrate to the new
    /// tables while the old ones still exist.
    fn on_manifest_flip(&self, previous_ids: &[u64], manifest: &Manifest) {
        self.publish_snapshot(manifest);
        for &id in previous_ids {
            if manifest.table(id).is_none() {
                self.table_cache.evict_table(id);
                self.block_cache.evict_table(id);
            }
        }
        // Retiring a table can unblock tombstones its bloom was
        // shadowing, so GC's examined-and-barren memo resets.
        self.gc_barren.lock().clear();
    }

    /// The table tombstone GC rewrites next: the one of `tables`
    /// carrying the most tombstones (at least one) that has not proven
    /// barren at `floor` or a higher one.
    fn gc_candidate(&self, tables: &[TableMeta], floor: SeqNo) -> Option<TableMeta> {
        let barren = self.gc_barren.lock();
        tables
            .iter()
            .filter(|t| {
                t.tombstone_count > 0 && barren.get(&t.table_id).is_none_or(|&at| at < floor)
            })
            .max_by_key(|t| t.tombstone_count)
            .cloned()
    }
}

/// Where one compaction run's merge schedule comes from.
pub(super) enum Schedule<'a> {
    /// The planner, configured by the store's options. With `if_due` the
    /// run is abandoned unless the policy fires once it holds
    /// `compaction_mx`: a trigger that queued behind another run must
    /// not re-merge that run's output.
    Planned { if_due: bool },
    /// A caller-supplied slot schedule ([`Lsm::major_compact`]); with no
    /// planner prediction its cost fields trace `predicted_cost = 0`.
    Manual(&'a [CompactionStep]),
    /// Tombstone GC: one one-table step over [`LsmInner::gc_candidate`],
    /// traced like `Manual` plus a `compaction_gc` event.
    TombstoneGc,
}

/// What one [`LsmInner::run_compaction`] did: plan, outcome, elapsed.
pub(super) type CompactionRun = (Option<MergePlan>, CompactionOutcome, Duration);

/// Clears the in-progress-compaction stamp when the compacting scope
/// exits, success or error.
struct CompactionMark<'a>(&'a LsmInner);

impl Drop for CompactionMark<'_> {
    fn drop(&mut self) {
        self.0.compaction_started.store(0, Ordering::Relaxed);
    }
}
