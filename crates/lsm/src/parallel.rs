//! Parallel, atomic execution of compaction plans — the one executor
//! every compaction goes through (`compaction_threads(1)` is the serial
//! case):
//!
//! * **streaming** — a step opens each input through
//!   [`SstableReader`] (no cache, one read of its data section), feeds
//!   the cursors to the k-way [`MergingIter`](crate::MergingIter) under
//!   the retention rule and drains that into the one table writer, so
//!   it holds one decoded block per input, never a decoded table;
//! * **parallel** — steps are grouped into dependency waves (see
//!   [`MergeSchedule::dependency_waves`](compaction_core::MergeSchedule::dependency_waves));
//!   independent steps of one wave (e.g. the merges inside one
//!   BALANCETREE level) run concurrently on scoped threads, bounded by
//!   [`LsmOptions::threads`], and a lone step on the calling thread;
//!   a large output is compressed beside its merge (`merge_step`);
//! * **atomic** — the manifest is only edited after *every* step has
//!   succeeded: all output runs are written first, then the manifest
//!   flips from the old table set to the new one in a single persisted
//!   update, and only then are the consumed input blobs deleted. A crash
//!   mid-compaction therefore leaves either the old state plus orphan
//!   blobs (cleaned on reopen) or the new state plus stale inputs
//!   (likewise cleaned) — never a manifest referencing missing tables.
//!
//! A one-table step is a rewrite (how tombstone GC runs); a run of one
//! that dropped no entry does not flip, and an empty output is not added.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use obs::LatencyHistogram;

use crate::compaction::{CompactionOutcome, CompactionStep};
use crate::iter::{MergingIter, Retained};
use crate::manifest::{Manifest, ManifestEdit, TableMeta};
use crate::options::LsmOptions;
use crate::reader::{ReadContext, ReadPathCounters, SstableReader};
use crate::sstable::write_table;
use crate::storage::Storage;
use crate::types::{RangeTombstone, SeqNo};
use crate::Error;

/// What one merge step produced, reported back from a worker.
#[derive(Debug)]
struct StepResult {
    /// The output table, as the manifest will record it.
    output: TableMeta,
    entries_read: u64,
    bytes_read: u64,
    /// Point tombstones the retention rule dropped.
    tombstones_dropped: u64,
}

/// A validated merge schedule with its output table ids pre-allocated
/// from the manifest — everything the heavy merge I/O needs, captured
/// under a brief manifest lock so the merge itself can run with no lock
/// held. Produced by [`ParallelExecutor::prepare`], consumed by
/// [`ParallelExecutor::merge_prepared`].
#[derive(Debug)]
pub struct PreparedMerge {
    step_inputs: Vec<Vec<u64>>,
    output_ids: Vec<u64>,
    surviving_outputs: Vec<usize>,
    consumed_initial: Vec<u64>,
    waves: Vec<Vec<usize>>,
    /// Per step, the tables its tombstones are judged against
    /// ([`tombstone_peers`]).
    step_peers: Vec<Vec<u64>>,
}

impl PreparedMerge {
    /// How many dependency waves the merge runs in.
    #[must_use]
    pub fn wave_count(&self) -> usize {
        self.waves.len()
    }
}

/// The physical results of an executed [`PreparedMerge`]: every output
/// run is durable in storage, but the manifest still references the old
/// table set. [`ParallelExecutor::commit`] flips it;
/// [`ParallelExecutor::retire_consumed`] then deletes the consumed
/// blobs.
#[derive(Debug)]
pub struct MergedOutputs {
    results: Vec<StepResult>,
    surviving_outputs: Vec<usize>,
    consumed_initial: Vec<u64>,
}

impl MergedOutputs {
    /// How many input tables this merge consumed (what
    /// [`ParallelExecutor::retire_consumed`] will delete).
    #[must_use]
    pub fn consumed_count(&self) -> usize {
        self.consumed_initial.len()
    }
}

/// Called as each dependency wave starts: `(wave index, steps in wave)`.
type WaveHook = Box<dyn Fn(usize, usize) + Send + Sync>;

/// Executes compaction steps wave-parallel with atomic manifest edits.
pub struct ParallelExecutor {
    storage: Arc<dyn Storage>,
    options: LsmOptions,
    /// Records each merge step's wall-clock duration when set.
    step_timer: Option<LatencyHistogram>,
    wave_hook: Option<WaveHook>,
    /// Visibility floor for shadowed-version reclamation: versions are
    /// only dropped when doing so is invisible to every reader pinned at
    /// or above this sequence number. `SeqNo::MAX` (the default) means
    /// no pinned snapshots — classic newest-wins compaction.
    retain_floor: SeqNo,
}

impl std::fmt::Debug for ParallelExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelExecutor")
            .field("options", &self.options)
            .field("step_timer", &self.step_timer)
            .field("wave_hook", &self.wave_hook.as_ref().map(|_| "Fn"))
            .field("retain_floor", &self.retain_floor)
            .finish_non_exhaustive()
    }
}

impl ParallelExecutor {
    /// Creates an executor reading and writing through `storage`.
    #[must_use]
    pub fn new(storage: Arc<dyn Storage>, options: LsmOptions) -> Self {
        Self {
            storage,
            options,
            step_timer: None,
            wave_hook: None,
            retain_floor: SeqNo::MAX,
        }
    }

    /// Sets the snapshot retention floor: versions shadowed by newer
    /// writes or range tombstones are reclaimed only when the shadowing
    /// record's visibility does not extend below `floor` — i.e. no
    /// pinned snapshot could still observe the shadowed version. Sample
    /// the floor *before* capturing the input table set; pins created
    /// later only raise it, never lower it, so a once-sampled floor
    /// stays safe for the whole merge.
    #[must_use]
    pub fn with_retain_floor(mut self, floor: SeqNo) -> Self {
        self.retain_floor = floor;
        self
    }

    /// Records every merge step's duration into `histogram` (the
    /// engine's `compaction_step` latency histogram).
    #[must_use]
    pub fn with_step_timer(mut self, histogram: LatencyHistogram) -> Self {
        self.step_timer = Some(histogram);
        self
    }

    /// Invokes `hook(wave index, steps in wave)` as each dependency
    /// wave starts executing — where the engine emits its
    /// wave-start trace events.
    #[must_use]
    pub fn with_wave_hook(mut self, hook: impl Fn(usize, usize) + Send + Sync + 'static) -> Self {
        self.wave_hook = Some(Box::new(hook));
        self
    }

    /// Phase 1 — validate the schedule, group its steps into dependency
    /// waves ([`compaction_core::dependency_waves`]), settle each step's
    /// tombstone verdict (`tombstone_peers`) and pre-allocate one
    /// output table id per step. Cheap and I/O-free: this is the only
    /// phase that needs `&mut Manifest`, so a background scheduler holds
    /// the write lock just long enough to call it.
    ///
    /// Slot `i` is `initial_table_ids[i]`; step `j` reads 1 to k slots
    /// and writes slot `n + j`. An output left standing must not span,
    /// by `max_seqno`, a live table it does not merge (reads stop at the
    /// first table holding a key).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidCompaction`] for malformed schedules;
    /// nothing is read, written or allocated in that case.
    pub fn prepare(
        &self,
        manifest: &mut Manifest,
        initial_table_ids: &[u64],
        steps: &[CompactionStep],
    ) -> Result<PreparedMerge, Error> {
        let n = initial_table_ids.len();
        // The live input tables under each slot, taken once consumed:
        // that catches duplicate inputs within one step as well as
        // reuse across steps.
        let mut under: Vec<Option<Vec<u64>>> =
            initial_table_ids.iter().map(|&id| Some(vec![id])).collect();
        let mut step_peers = Vec::with_capacity(steps.len());
        for (step_idx, step) in steps.iter().enumerate() {
            if step.inputs.is_empty() || step.inputs.len() > self.options.fanin() {
                return Err(Error::invalid_compaction(format!(
                    "step {step_idx} reads {} tables, need 1 to k = {}",
                    step.inputs.len(),
                    self.options.fanin()
                )));
            }
            let mut merged = Vec::new();
            for &slot in &step.inputs {
                merged.extend(under.get_mut(slot).and_then(Option::take).ok_or_else(|| {
                    Error::invalid_compaction(format!(
                        "step {step_idx} references slot {slot} which is unknown or consumed"
                    ))
                })?);
            }
            step_peers.push(tombstone_peers(manifest.tables(), &merged));
            under.push(Some(merged));
        }
        for (step_idx, tables) in under[n..].iter().enumerate() {
            let Some(tables) = tables else { continue };
            let (inside, left_out): (Vec<&TableMeta>, Vec<&TableMeta>) = manifest
                .tables()
                .iter()
                .partition(|t| tables.contains(&t.table_id));
            let oldest = inside.iter().map(|t| t.max_seqno).min().unwrap_or(0);
            let newest = inside.iter().map(|t| t.max_seqno).max().unwrap_or(0);
            if let Some(t) = left_out
                .iter()
                .find(|t| oldest < t.max_seqno && t.max_seqno < newest)
            {
                return Err(Error::invalid_compaction(format!(
                    "step {step_idx}'s output would span live table {} without merging it",
                    t.table_id
                )));
            }
        }

        let output_ids: Vec<u64> = steps.iter().map(|_| manifest.allocate_table_id()).collect();
        let slot_id = |slot: usize| {
            initial_table_ids
                .get(slot)
                .copied()
                .unwrap_or_else(|| output_ids[slot - n])
        };
        Ok(PreparedMerge {
            step_inputs: steps
                .iter()
                .map(|step| step.inputs.iter().map(|&slot| slot_id(slot)).collect())
                .collect(),
            surviving_outputs: (0..steps.len())
                .filter(|&i| under[n + i].is_some())
                .collect(),
            consumed_initial: (0..n)
                .filter(|&s| under[s].is_none())
                .map(slot_id)
                .collect(),
            waves: compaction_core::dependency_waves(
                n,
                steps.iter().map(|step| step.inputs.as_slice()),
            ),
            step_peers,
            output_ids,
        })
    }

    /// Phase 2 — the heavy I/O: open the steps' peers once, then run
    /// every merge step, wave-parallel, with **no lock required**. On
    /// success every output run is durable in storage; the manifest is
    /// untouched either way. `None`: nothing to commit — no steps, or
    /// one one-table step that dropped no entry (its copy is deleted).
    ///
    /// # Errors
    ///
    /// Propagates storage/corruption errors; every output blob is
    /// removed first (best-effort).
    pub fn merge_prepared(&self, prepared: &PreparedMerge) -> Result<Option<MergedOutputs>, Error> {
        let peer_ids: BTreeSet<u64> = prepared.step_peers.iter().flatten().copied().collect();
        let open = |id| SstableReader::open(self.storage.as_ref(), id, None).map(|r| (id, r));
        let peers: BTreeMap<u64, SstableReader> =
            peer_ids.into_iter().map(open).collect::<Result<_, _>>()?;
        let steps = prepared.step_inputs.len();
        let mut results: Vec<Option<StepResult>> = (0..steps).map(|_| None).collect();
        let run_step = |step_idx: usize| {
            let started = Instant::now();
            let step_peers: Vec<_> = prepared.step_peers[step_idx]
                .iter()
                .map(|id| &peers[id])
                .collect();
            let result = self.merge_step(
                &prepared.step_inputs[step_idx],
                prepared.output_ids[step_idx],
                &step_peers,
            );
            if let Some(timer) = &self.step_timer {
                timer.record_duration(started.elapsed());
            }
            (step_idx, result)
        };
        // Removes every output this merge may have written, a sibling's
        // or (best-effort) the failed step's own; the manifest was never
        // touched.
        let roll_back = |e: Error| {
            for &id in &prepared.output_ids {
                let _ = self.storage.delete_blob(&SstableReader::blob_name(id));
            }
            e
        };
        for (wave_idx, wave) in prepared.waves.iter().enumerate() {
            if let Some(hook) = &self.wave_hook {
                hook(wave_idx, wave.len());
            }
            for chunk in wave.chunks(self.options.threads().max(1)) {
                // A lone step runs here: a thread spawn and join costs
                // about 50 µs.
                let chunk_results: Vec<_> = match chunk {
                    [step_idx] => vec![run_step(*step_idx)],
                    _ => std::thread::scope(|scope| {
                        let handles: Vec<_> = chunk
                            .iter()
                            .map(|&step_idx| scope.spawn(move || run_step(step_idx)))
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("compaction worker panicked"))
                            .collect()
                    }),
                };
                for (step_idx, result) in chunk_results {
                    results[step_idx] = Some(result.map_err(roll_back)?);
                }
            }
        }
        let results: Vec<StepResult> = results.into_iter().map(|r| r.expect("step ran")).collect();
        match (prepared.step_inputs.as_slice(), results.as_slice()) {
            ([], _) => return Ok(None),
            ([inputs], [result])
                if inputs.len() == 1 && result.entries_read == result.output.entry_count =>
            {
                let copy = SstableReader::blob_name(result.output.table_id);
                self.storage.delete_blob(&copy)?;
                return Ok(None);
            }
            _ => {}
        }
        // An output nothing survived into is not worth a table.
        let mut surviving_outputs = prepared.surviving_outputs.clone();
        surviving_outputs.retain(|&i| {
            results[i].output.entry_count + results[i].output.range_tombstone_count > 0
        });
        Ok(Some(MergedOutputs {
            results,
            surviving_outputs,
            consumed_initial: prepared.consumed_initial.clone(),
        }))
    }

    /// Phase 3 — flip the manifest in one atomic update: remove the
    /// consumed inputs, add the surviving non-empty outputs, persist,
    /// and invoke `on_flip` (where the engine publishes its read
    /// snapshot). Brief — one small blob write — so a background
    /// scheduler re-takes the write lock only for this call. The
    /// consumed input blobs still exist afterwards; delete them with
    /// [`ParallelExecutor::retire_consumed`].
    ///
    /// # Errors
    ///
    /// Propagates manifest and storage errors.
    pub fn commit(
        manifest: &mut Manifest,
        merged: &MergedOutputs,
        storage: &dyn Storage,
        on_flip: impl FnOnce(&Manifest),
    ) -> Result<CompactionOutcome, Error> {
        let mut outcome = CompactionOutcome::default();
        for result in &merged.results {
            outcome.merge_ops += 1;
            outcome.entries_read += result.entries_read;
            outcome.bytes_read += result.bytes_read;
            outcome.entries_written += result.output.entry_count;
            outcome.bytes_written += result.output.encoded_len;
            outcome.tombstones_dropped += result.tombstones_dropped;
        }
        let last = merged
            .surviving_outputs
            .last()
            .filter(|&&i| i + 1 == merged.results.len());
        outcome.final_table_id = last.map(|&i| merged.results[i].output.table_id);

        for &table_id in &merged.consumed_initial {
            manifest.apply(ManifestEdit::RemoveTable { table_id })?;
        }
        for &step_idx in &merged.surviving_outputs {
            let output = merged.results[step_idx].output.clone();
            manifest.apply(ManifestEdit::AddTable(output))?;
        }
        manifest.persist(storage)?;
        on_flip(manifest);
        Ok(outcome)
    }

    /// Phase 4 — delete the consumed input blobs, the intermediates and
    /// the empty outputs. Only safe after [`ParallelExecutor::commit`]:
    /// readers migrated to the new table set at the flip. Needs no lock.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn retire_consumed(&self, merged: &MergedOutputs) -> Result<(), Error> {
        for &table_id in &merged.consumed_initial {
            self.storage
                .delete_blob(&SstableReader::blob_name(table_id))?;
        }
        for (step_idx, result) in merged.results.iter().enumerate() {
            if !merged.surviving_outputs.contains(&step_idx) {
                self.storage
                    .delete_blob(&SstableReader::blob_name(result.output.table_id))?;
            }
        }
        Ok(())
    }

    /// One merge step: stream the input runs through the k-way merge
    /// under the retention rule into [`write_table`] under `output_id`,
    /// judging tombstones against `peers`. Each input is open as its
    /// resident tail, the raw bytes of its data section (one read) and
    /// one decoded block; a corrupt block therefore surfaces mid-merge,
    /// before anything is written. This thread decodes and merges; past
    /// `LANE_START_BLOCKS` (64) output blocks the writer's compression
    /// lane LZ-encodes and CRCs them on a second one — not sooner, as a
    /// lane per 30-block flush cost 6–17 % more `setup_s` on
    /// `compact-bt` / `compact-soe`.
    fn merge_step(
        &self,
        input_ids: &[u64],
        output_id: u64,
        peers: &[&SstableReader],
    ) -> Result<StepResult, Error> {
        let storage = self.storage.as_ref();
        let readers = input_ids
            .iter()
            .map(|&id| SstableReader::open(storage, id, None))
            .collect::<Result<Vec<_>, _>>()?;
        let mut range_dels: Vec<RangeTombstone> = readers
            .iter()
            .flat_map(|r| r.range_dels().iter().cloned())
            .collect();
        // Deterministic output order regardless of which input held each
        // tombstone: start asc, then newest first.
        range_dels.sort_by(|a, b| {
            a.start
                .cmp(&b.start)
                .then(b.seqno.cmp(&a.seqno))
                .then(a.end.cmp(&b.end))
        });
        let floor = self.retain_floor;
        let counters = ReadPathCounters::default();
        let ctx = ReadContext::whole_table(storage, &counters);
        let mut merged = Retained::new(
            MergingIter::new(readers.iter().map(|r| r.iter(ctx)).collect()),
            floor,
            &range_dels,
            |tombstone| !peers.iter().any(|p| p.may_contain(&tombstone.key)),
        );
        // Range tombstones ride along into the output so they keep
        // shadowing older tables outside this merge; with no peers the
        // step retires those at or below the floor — everything they
        // could ever delete was merged here, and no pinned snapshot can
        // still observe a version they shadow.
        let carried = range_dels
            .iter()
            .filter(|rd| !(peers.is_empty() && rd.seqno <= floor))
            .cloned();
        let output = write_table(storage, &self.options, output_id, merged.by_ref(), carried)?;
        Ok(StepResult {
            output,
            entries_read: readers.iter().map(SstableReader::entry_count).sum(),
            bytes_read: readers.iter().map(SstableReader::encoded_len).sum(),
            tombstones_dropped: merged.tombstones_dropped(),
        })
    }
}

/// The one tombstone rule, pure and I/O-free. A step's *peers* are the
/// live tables outside its `leaves` (the live tables under its inputs)
/// whose `max_seqno` is not above its newest leaf. A point tombstone at
/// or below the pin floor is dropped when no peer's min/max and bloom
/// admit its key; range tombstones at or below it are retired only when
/// there are no peers. Newer tables need no check: reads probe them
/// first. Leaves carrying no tombstone need no peers.
fn tombstone_peers(live: &[TableMeta], leaves: &[u64]) -> Vec<u64> {
    let inside = || live.iter().filter(|t| leaves.contains(&t.table_id));
    if inside().all(|t| t.tombstone_count + t.range_tombstone_count == 0) {
        return Vec::new();
    }
    let newest = inside().map(|t| t.max_seqno).max().unwrap_or(0);
    live.iter()
        .filter(|t| !leaves.contains(&t.table_id) && t.max_seqno <= newest)
        .map(|t| t.table_id)
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::storage::MemoryStorage;
    use crate::test_support::{corrupt_blob_byte, read_table};
    use crate::types::{key_from_u64, Entry};
    use bytes::Bytes;

    /// Runs the four phases back to back over a manifest the test owns
    /// outright. On error the manifest's table set is untouched.
    pub(crate) fn execute(
        exec: &ParallelExecutor,
        manifest: &mut Manifest,
        initial_table_ids: &[u64],
        steps: &[CompactionStep],
    ) -> Result<CompactionOutcome, Error> {
        let prepared = exec.prepare(manifest, initial_table_ids, steps)?;
        let Some(merged) = exec.merge_prepared(&prepared)? else {
            return Ok(CompactionOutcome::default());
        };
        let outcome = ParallelExecutor::commit(manifest, &merged, exec.storage.as_ref(), |_| {})?;
        exec.retire_consumed(&merged)?;
        Ok(outcome)
    }

    fn make_table(storage: &dyn Storage, manifest: &mut Manifest, keys: &[u64], seq: u64) -> u64 {
        make_table_with(&LsmOptions::default(), storage, manifest, keys, seq)
    }

    fn make_table_with(
        options: &LsmOptions,
        storage: &dyn Storage,
        manifest: &mut Manifest,
        keys: &[u64],
        seq: u64,
    ) -> u64 {
        let id = manifest.allocate_table_id();
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let entries = sorted.iter().map(|&k| {
            Ok(Entry::put(
                key_from_u64(k),
                Bytes::from(format!("v{k}-s{seq}")),
                seq,
            ))
        });
        let meta = write_table(storage, options, id, entries, []).unwrap();
        manifest.apply(ManifestEdit::AddTable(meta)).unwrap();
        id
    }

    fn setup(threads: usize) -> (Arc<MemoryStorage>, Manifest, ParallelExecutor) {
        let storage = Arc::new(MemoryStorage::new());
        let manifest = Manifest::new();
        let exec = ParallelExecutor::new(
            storage.clone(),
            LsmOptions::default().compaction_threads(threads),
        );
        (storage, manifest, exec)
    }

    #[test]
    fn waves_group_independent_steps() {
        let (storage, mut manifest, exec) = setup(2);
        let ids: Vec<u64> = (1..=4)
            .map(|seq| make_table(storage.as_ref(), &mut manifest, &[seq], seq))
            .collect();
        let waves = |ids: &[u64], steps: &[CompactionStep], manifest: &mut Manifest| {
            exec.prepare(manifest, ids, steps).unwrap().waves
        };
        let balanced = vec![
            CompactionStep::new(vec![0, 1]),
            CompactionStep::new(vec![2, 3]),
            CompactionStep::new(vec![4, 5]),
        ];
        assert_eq!(
            waves(&ids, &balanced, &mut manifest),
            vec![vec![0, 1], vec![2]]
        );
        let caterpillar = vec![
            CompactionStep::new(vec![0, 1]),
            CompactionStep::new(vec![3, 2]),
        ];
        assert_eq!(
            waves(&ids[1..], &caterpillar, &mut manifest),
            vec![vec![0], vec![1]]
        );
        assert!(waves(&ids, &[], &mut manifest).is_empty());
    }

    #[test]
    fn parallel_execution_matches_sequential_contents() {
        for threads in [1, 4] {
            let (storage, mut manifest, exec) = setup(threads);
            let ids = vec![
                make_table(storage.as_ref(), &mut manifest, &[1, 2, 3, 5], 1),
                make_table(storage.as_ref(), &mut manifest, &[1, 2, 3, 4], 2),
                make_table(storage.as_ref(), &mut manifest, &[3, 4, 5], 3),
                make_table(storage.as_ref(), &mut manifest, &[6, 7], 4),
            ];
            // Balanced schedule: wave 1 = {(0,1), (2,3)}, wave 2 = {(4,5)}.
            let steps = vec![
                CompactionStep::new(vec![0, 1]),
                CompactionStep::new(vec![2, 3]),
                CompactionStep::new(vec![4, 5]),
            ];
            let outcome = execute(&exec, &mut manifest, &ids, &steps).unwrap();
            assert_eq!(outcome.merge_ops, 3, "threads={threads}");
            assert_eq!(manifest.table_count(), 1);
            let final_id = outcome.final_table_id.unwrap();
            let entries = read_table(storage.as_ref(), final_id).unwrap();
            assert_eq!(entries.len(), 7, "keys 1..=7 deduplicated");
            // Newest version of key 3 came from seq 3.
            assert_eq!(entries[2].key, key_from_u64(3));
            assert_eq!(entries[2].value.as_ref(), b"v3-s3");
            // All inputs and intermediates are gone from storage.
            for id in &ids {
                assert!(!storage.contains_blob(&SstableReader::blob_name(*id)));
            }
            let blobs = storage.list_blobs();
            let sst_blobs: Vec<_> = blobs.iter().filter(|b| b.starts_with("sst-")).collect();
            assert_eq!(sst_blobs.len(), 1, "only the final table remains");
            // Accounting: reads 4+4, 3+2, 5+5 = 23; writes 5+5+7 = 17.
            assert_eq!(outcome.entries_read, 23);
            assert_eq!(outcome.entries_written, 17);
        }
    }

    #[test]
    fn malformed_schedules_fail_before_any_io() {
        let (storage, mut manifest, exec) = setup(2);
        let ids = vec![
            make_table(storage.as_ref(), &mut manifest, &[1], 1),
            make_table(storage.as_ref(), &mut manifest, &[2], 2),
        ];
        let bytes_before = storage.bytes_written();
        for steps in [
            vec![CompactionStep::new(vec![])],
            vec![CompactionStep::new(vec![0, 9])],
            vec![CompactionStep::new(vec![0, 0])],
            vec![
                CompactionStep::new(vec![0, 1]),
                CompactionStep::new(vec![0, 2]),
            ],
        ] {
            let err = execute(&exec, &mut manifest, &ids, &steps).unwrap_err();
            assert!(matches!(err, Error::InvalidCompaction { .. }));
        }
        assert_eq!(manifest.table_count(), 2, "manifest untouched on error");
        assert_eq!(storage.bytes_written(), bytes_before, "no I/O on error");
    }

    /// An input whose *last* data block is rotten opens fine (its tail
    /// is intact) and fails mid-merge. Nothing of the schedule may
    /// remain: not the failed step's output, not the output its healthy
    /// wave sibling already wrote.
    #[test]
    fn corrupt_input_block_fails_mid_merge_and_rolls_back() {
        let (storage, mut manifest, exec) = setup(2);
        let keys: Vec<u64> = (0..2_000).collect();
        let ids: Vec<u64> = (1..=4)
            .map(|seq| make_table(storage.as_ref(), &mut manifest, &keys, seq))
            .collect();
        let victim = SstableReader::open(storage.as_ref(), ids[3], None).unwrap();
        assert!(victim.block_count() > 4);
        let data_end = (victim.encoded_len() - victim.open_bytes()) as usize;
        let name = SstableReader::blob_name(ids[3]);
        assert!(corrupt_blob_byte(&storage, &name, data_end - 2));

        let mut blobs_before = storage.list_blobs();
        blobs_before.sort();
        let manifest_before = manifest.clone();
        let steps = vec![
            CompactionStep::new(vec![0, 1]),
            CompactionStep::new(vec![2, 3]),
            CompactionStep::new(vec![4, 5]),
        ];
        let prepared = exec.prepare(&mut manifest, &ids, &steps).unwrap();
        let err = exec.merge_prepared(&prepared).unwrap_err();
        assert!(matches!(err, Error::Corruption { .. }), "{err}");

        let mut blobs_after = storage.list_blobs();
        blobs_after.sort();
        assert_eq!(blobs_after, blobs_before, "every output rolled back");
        assert_eq!(manifest.tables(), manifest_before.tables());
        // The healthy inputs are still whole.
        assert_eq!(read_table(storage.as_ref(), ids[0]).unwrap().len(), 2_000);
    }

    /// The same rollback once the output's compression lane runs: the
    /// rotten block is the last of an input three lane starts long, so
    /// the error reaches the table writer with its lane mid-build —
    /// inline at one thread, beside a healthy sibling step at two.
    #[test]
    fn corrupt_input_block_fails_after_the_lane_started_and_rolls_back() {
        for threads in [1, 2] {
            let storage = Arc::new(MemoryStorage::new());
            let mut manifest = Manifest::new();
            let options = LsmOptions::default()
                .block_size(256)
                .compaction_threads(threads);
            let exec = ParallelExecutor::new(storage.clone(), options.clone());
            let keys: Vec<u64> = (0..3_000).collect();
            let ids: Vec<u64> = (1..=4)
                .map(|seq| make_table_with(&options, storage.as_ref(), &mut manifest, &keys, seq))
                .collect();
            let victim = SstableReader::open(storage.as_ref(), ids[3], None).unwrap();
            assert!(victim.block_count() >= 3 * crate::sstable::LANE_START_BLOCKS);
            let data_end = (victim.encoded_len() - victim.open_bytes()) as usize;
            let name = SstableReader::blob_name(ids[3]);
            assert!(corrupt_blob_byte(&storage, &name, data_end - 2));

            let mut blobs_before = storage.list_blobs();
            blobs_before.sort();
            let manifest_before = manifest.clone();
            let steps = vec![
                CompactionStep::new(vec![0, 1]),
                CompactionStep::new(vec![2, 3]),
                CompactionStep::new(vec![4, 5]),
            ];
            let prepared = exec.prepare(&mut manifest, &ids, &steps).unwrap();
            let err = exec.merge_prepared(&prepared).unwrap_err();
            assert!(
                matches!(err, Error::Corruption { .. }),
                "threads={threads}: {err}"
            );

            let mut blobs_after = storage.list_blobs();
            blobs_after.sort();
            assert_eq!(
                blobs_after, blobs_before,
                "threads={threads}: every output rolled back"
            );
            assert_eq!(manifest.tables(), manifest_before.tables());
            assert_eq!(read_table(storage.as_ref(), ids[0]).unwrap().len(), 3_000);
        }
    }

    #[test]
    fn empty_schedule_is_a_noop() {
        let (storage, mut manifest, exec) = setup(2);
        make_table(storage.as_ref(), &mut manifest, &[1], 1);
        let ids: Vec<u64> = manifest.tables().iter().map(|t| t.table_id).collect();
        let outcome = execute(&exec, &mut manifest, &ids, &[]).unwrap();
        assert_eq!(outcome, CompactionOutcome::default());
        assert_eq!(manifest.table_count(), 1);
    }

    #[test]
    fn instrumentation_observes_every_wave_and_step() {
        use std::sync::Mutex;

        let (storage, mut manifest, _) = setup(2);
        let ids = vec![
            make_table(storage.as_ref(), &mut manifest, &[1, 2], 1),
            make_table(storage.as_ref(), &mut manifest, &[3, 4], 2),
            make_table(storage.as_ref(), &mut manifest, &[5, 6], 3),
            make_table(storage.as_ref(), &mut manifest, &[7, 8], 4),
        ];
        // Balanced: wave 0 = steps {0, 1}, wave 1 = step {2}.
        let steps = vec![
            CompactionStep::new(vec![0, 1]),
            CompactionStep::new(vec![2, 3]),
            CompactionStep::new(vec![4, 5]),
        ];
        let timer = LatencyHistogram::new();
        let waves: Arc<Mutex<Vec<(usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&waves);
        let exec =
            ParallelExecutor::new(storage.clone(), LsmOptions::default().compaction_threads(2))
                .with_step_timer(timer.clone())
                .with_wave_hook(move |wave, n| seen.lock().unwrap().push((wave, n)));
        execute(&exec, &mut manifest, &ids, &steps).unwrap();
        assert_eq!(timer.count(), 3, "one duration sample per merge step");
        assert_eq!(*waves.lock().unwrap(), vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn manifest_persisted_atomically() {
        let (storage, mut manifest, exec) = setup(2);
        let ids = vec![
            make_table(storage.as_ref(), &mut manifest, &[1, 2], 1),
            make_table(storage.as_ref(), &mut manifest, &[2, 3], 2),
        ];
        let steps = vec![CompactionStep::new(vec![0, 1])];
        execute(&exec, &mut manifest, &ids, &steps).unwrap();
        // The persisted manifest equals the in-memory one.
        let reloaded = Manifest::load(storage.as_ref()).unwrap();
        assert_eq!(reloaded, manifest);
    }
}
