//! The vocabulary of a physical compaction: the steps of a merge
//! schedule and the I/O executing them incurred.
//!
//! The scheduling problem (which sstables to merge in which order) is
//! solved by the `compaction-core` crate, and
//! [`ParallelExecutor`](crate::ParallelExecutor) carries a chosen
//! schedule out against real sstables: read the `k` input runs,
//! merge-sort them with newest-wins semantics, write one output run, and
//! retire the inputs. The outcome reports the disk I/O the schedule
//! actually incurred, which is the quantity the paper's cost function
//! (`cost_actual`, Section 2) models.

/// One merge operation of a schedule, expressed over *slots*.
///
/// Slots number the sstables participating in a major compaction: slots
/// `0..n` are the initial live tables (in the order the caller lists
/// them), and each executed step appends one new slot for its output.
/// This mirrors how `compaction-core` merge schedules reference sets, so
/// a schedule can be replayed physically without translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionStep {
    /// Slot indices of the tables this step reads.
    pub inputs: Vec<usize>,
}

impl CompactionStep {
    /// Convenience constructor.
    #[must_use]
    pub fn new(inputs: Vec<usize>) -> Self {
        Self { inputs }
    }
}

/// Aggregate result of executing a schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Number of merge operations executed.
    pub merge_ops: usize,
    /// Total entries read from input tables across all merges.
    pub entries_read: u64,
    /// Total entries written to output tables across all merges.
    pub entries_written: u64,
    /// Total bytes read from storage for input tables.
    pub bytes_read: u64,
    /// Total bytes written to storage for output tables.
    pub bytes_written: u64,
    /// Point tombstones the merges dropped.
    pub tombstones_dropped: u64,
    /// Table id of the final output table, if at least one merge ran
    /// and something survived into it.
    pub final_table_id: Option<u64>,
}

impl CompactionOutcome {
    /// The paper's `cost_actual` in *entries*: every input entry is read
    /// once and every output entry is written once, summed over all merge
    /// operations.
    #[must_use]
    pub fn entry_cost(&self) -> u64 {
        self.entries_read + self.entries_written
    }

    /// `cost_actual` in bytes of storage traffic.
    #[must_use]
    pub fn byte_cost(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::manifest::{Manifest, ManifestEdit};
    use crate::options::LsmOptions;
    use crate::parallel::tests::execute;
    use crate::parallel::ParallelExecutor;
    use crate::reader::SstableReader;
    use crate::sstable::write_table;
    use crate::storage::{MemoryStorage, Storage};
    use crate::test_support::read_table;
    use crate::types::{key_from_u64, Entry};
    use crate::Error;
    use bytes::Bytes;

    /// Builds an sstable holding `keys` and registers it in the manifest.
    fn make_table(
        storage: &dyn Storage,
        manifest: &mut Manifest,
        keys: &[u64],
        seq_base: u64,
    ) -> u64 {
        let id = manifest.allocate_table_id();
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let entries = sorted.iter().map(|&k| {
            Ok(Entry::put(
                key_from_u64(k),
                Bytes::from(format!("v{k}-s{seq_base}")),
                seq_base,
            ))
        });
        let meta = write_table(storage, &LsmOptions::default(), id, entries, []).unwrap();
        manifest.apply(ManifestEdit::AddTable(meta)).unwrap();
        id
    }

    /// One merge at a time: the serial case of the wave executor.
    fn serial_executor(storage: Arc<MemoryStorage>, options: LsmOptions) -> ParallelExecutor {
        ParallelExecutor::new(storage, options.compaction_threads(1))
    }

    fn setup() -> (Arc<MemoryStorage>, Manifest, ParallelExecutor) {
        let storage = Arc::new(MemoryStorage::new());
        let exec = serial_executor(storage.clone(), LsmOptions::default());
        (storage, Manifest::new(), exec)
    }

    #[test]
    fn binary_merge_schedule_produces_single_table() {
        let (storage, mut manifest, exec) = setup();
        let t0 = make_table(
            storage.as_ref() as &dyn Storage,
            &mut manifest,
            &[1, 2, 3, 5],
            1,
        );
        let t1 = make_table(
            storage.as_ref() as &dyn Storage,
            &mut manifest,
            &[1, 2, 3, 4],
            2,
        );
        let t2 = make_table(
            storage.as_ref() as &dyn Storage,
            &mut manifest,
            &[3, 4, 5],
            3,
        );
        assert_eq!(manifest.table_count(), 3);

        // Merge slots (0,1) -> slot 3, then (3,2) -> slot 4.
        let steps = vec![
            CompactionStep::new(vec![0, 1]),
            CompactionStep::new(vec![3, 2]),
        ];
        let outcome = execute(&exec, &mut manifest, &[t0, t1, t2], &steps).unwrap();

        assert_eq!(outcome.merge_ops, 2);
        assert_eq!(manifest.table_count(), 1);
        let final_id = outcome.final_table_id.unwrap();
        let entries = read_table(storage.as_ref(), final_id).unwrap();
        assert_eq!(entries.len(), 5, "keys 1..=5 deduplicated");
        // Newest version wins: key 3 was written by t2 (seq 3) last.
        assert_eq!(entries[2].key, key_from_u64(3));
        assert_eq!(entries[2].value.as_ref(), b"v3-s3");
        // Inputs are gone from storage.
        for id in [t0, t1, t2] {
            assert!(!storage.contains_blob(&SstableReader::blob_name(id)));
        }
        // Entry accounting: step1 reads 4+4=8 writes 5; step2 reads 5+3 writes 5.
        assert_eq!(outcome.entries_read, 16);
        assert_eq!(outcome.entries_written, 10);
        assert_eq!(outcome.entry_cost(), 26);
        assert!(outcome.byte_cost() > 0);
    }

    /// Registers a table holding `entries` (internal-key order).
    fn table_of(storage: &dyn Storage, manifest: &mut Manifest, entries: Vec<Entry>) -> u64 {
        let id = manifest.allocate_table_id();
        let entries = entries.into_iter().map(Ok);
        let meta = write_table(storage, &LsmOptions::default(), id, entries, []).unwrap();
        manifest.apply(ManifestEdit::AddTable(meta)).unwrap();
        id
    }

    fn sst_blobs(storage: &MemoryStorage) -> Vec<String> {
        let mut blobs: Vec<String> = storage
            .list_blobs()
            .into_iter()
            .filter(|b| b.starts_with("sst-"))
            .collect();
        blobs.sort();
        blobs
    }

    #[test]
    fn a_merge_with_no_older_table_left_out_drops_its_tombstones() {
        let (storage, mut manifest, exec) = setup();
        let t0 = make_table(storage.as_ref() as &dyn Storage, &mut manifest, &[1, 2], 1);
        // Table with a tombstone for key 1 (newer).
        let id = table_of(
            storage.as_ref(),
            &mut manifest,
            vec![Entry::tombstone(key_from_u64(1), 5)],
        );

        let steps = vec![CompactionStep::new(vec![0, 1])];
        let outcome = execute(&exec, &mut manifest, &[t0, id], &steps).unwrap();
        let entries = read_table(storage.as_ref(), outcome.final_table_id.unwrap()).unwrap();
        assert_eq!(entries.len(), 1, "key 1 deleted, key 2 survives");
        assert_eq!(entries[0].key, key_from_u64(2));
        assert_eq!(outcome.tombstones_dropped, 1);
    }

    /// A partial run judges each tombstone on its own: the older table
    /// it leaves out holds key 1, so key 1's tombstone must stay to
    /// shadow it; nothing older holds key 2, so key 2's goes.
    #[test]
    fn a_partial_run_keeps_only_the_tombstones_an_older_table_needs() {
        let (storage, mut manifest, exec) = setup();
        let t0 = make_table(storage.as_ref() as &dyn Storage, &mut manifest, &[1], 1);
        let t1 = make_table(storage.as_ref() as &dyn Storage, &mut manifest, &[2], 2);
        let t2 = table_of(
            storage.as_ref(),
            &mut manifest,
            vec![
                Entry::tombstone(key_from_u64(1), 3),
                Entry::tombstone(key_from_u64(2), 3),
            ],
        );

        let steps = vec![CompactionStep::new(vec![0, 1])];
        let outcome = execute(&exec, &mut manifest, &[t1, t2], &steps).unwrap();
        let entries = read_table(storage.as_ref(), outcome.final_table_id.unwrap()).unwrap();
        assert_eq!(entries, vec![Entry::tombstone(key_from_u64(1), 3)]);
        assert_eq!(outcome.tombstones_dropped, 1);
        assert_eq!(manifest.table_count(), 2);
        assert!(manifest.table(t0).is_some(), "the older table is left out");
    }

    /// A one-input step is a rewrite: it drops the shadowed version and
    /// the tombstone nothing older needs, and keeps the rest. Rewriting
    /// the result again drops nothing, so it flips nothing and leaves no
    /// copy behind.
    #[test]
    fn a_one_input_step_rewrites_a_table_dropping_only_garbage() {
        let (storage, mut manifest, exec) = setup();
        let t0 = make_table(storage.as_ref() as &dyn Storage, &mut manifest, &[3, 4], 1);
        let t1 = table_of(
            storage.as_ref(),
            &mut manifest,
            vec![
                Entry::put(key_from_u64(1), Bytes::from_static(b"new"), 5),
                Entry::put(key_from_u64(1), Bytes::from_static(b"old"), 4),
                Entry::tombstone(key_from_u64(2), 4),
                Entry::tombstone(key_from_u64(3), 5),
            ],
        );

        let rewrite = [CompactionStep::new(vec![0])];
        let outcome = execute(&exec, &mut manifest, &[t1], &rewrite).unwrap();
        let output = outcome.final_table_id.unwrap();
        assert_eq!(
            read_table(storage.as_ref(), output).unwrap(),
            vec![
                Entry::put(key_from_u64(1), Bytes::from_static(b"new"), 5),
                Entry::tombstone(key_from_u64(3), 5),
            ]
        );
        assert_eq!((outcome.entries_read, outcome.entries_written), (4, 2));
        assert_eq!(outcome.tombstones_dropped, 1);
        assert!(manifest.table(t1).is_none() && manifest.table(t0).is_some());
        assert!(!storage.contains_blob(&SstableReader::blob_name(t1)));

        let (manifest_before, blobs_before) = (manifest.clone(), sst_blobs(&storage));
        let outcome = execute(&exec, &mut manifest, &[output], &rewrite).unwrap();
        assert_eq!(outcome, CompactionOutcome::default());
        assert_eq!(manifest.tables(), manifest_before.tables());
        assert_eq!(
            sst_blobs(&storage),
            blobs_before,
            "the barren copy is deleted"
        );
    }

    #[test]
    fn a_run_whose_output_is_empty_adds_no_table_and_leaves_no_blob() {
        let (storage, mut manifest, exec) = setup();
        let t0 = make_table(storage.as_ref() as &dyn Storage, &mut manifest, &[1], 1);
        let t1 = table_of(
            storage.as_ref(),
            &mut manifest,
            vec![Entry::tombstone(key_from_u64(1), 2)],
        );

        let steps = vec![CompactionStep::new(vec![0, 1])];
        let outcome = execute(&exec, &mut manifest, &[t0, t1], &steps).unwrap();
        assert_eq!(outcome.entries_written, 0);
        assert_eq!(outcome.final_table_id, None);
        assert_eq!(manifest.table_count(), 0);
        assert!(sst_blobs(&storage).is_empty(), "{:?}", sst_blobs(&storage));
        assert_eq!(Manifest::load(storage.as_ref()).unwrap(), manifest);
    }

    #[test]
    fn invalid_steps_are_rejected() {
        let (storage, mut manifest, exec) = setup();
        let t0 = make_table(storage.as_ref() as &dyn Storage, &mut manifest, &[1], 1);
        let t1 = make_table(storage.as_ref() as &dyn Storage, &mut manifest, &[2], 2);

        // Zero-input step.
        let err = execute(
            &exec,
            &mut manifest,
            &[t0, t1],
            &[CompactionStep::new(vec![])],
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidCompaction { .. }));

        // Unknown slot.
        let err = execute(
            &exec,
            &mut manifest,
            &[t0, t1],
            &[CompactionStep::new(vec![0, 7])],
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidCompaction { .. }));

        // Fan-in larger than k = 2.
        let err = execute(
            &exec,
            &mut manifest,
            &[t0, t1],
            &[CompactionStep::new(vec![0, 1, 1])],
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidCompaction { .. }));
    }

    #[test]
    fn kway_fanin_allows_wider_merges() {
        let storage = Arc::new(MemoryStorage::new());
        let mut manifest = Manifest::new();
        let exec = serial_executor(storage.clone(), LsmOptions::default().compaction_fanin(4));
        let ids: Vec<u64> = (0..4)
            .map(|i| {
                make_table(
                    storage.as_ref() as &dyn Storage,
                    &mut manifest,
                    &[i, i + 10, i + 20],
                    i + 1,
                )
            })
            .collect();
        let steps = vec![CompactionStep::new(vec![0, 1, 2, 3])];
        let outcome = execute(&exec, &mut manifest, &ids, &steps).unwrap();
        assert_eq!(outcome.merge_ops, 1);
        assert_eq!(manifest.table_count(), 1);
        let entries = read_table(storage.as_ref(), outcome.final_table_id.unwrap()).unwrap();
        assert_eq!(entries.len(), 12);
    }

    #[test]
    fn empty_schedule_is_a_noop() {
        let (storage, mut manifest, exec) = setup();
        let t0 = make_table(storage.as_ref() as &dyn Storage, &mut manifest, &[1], 1);
        let outcome = execute(&exec, &mut manifest, &[t0], &[]).unwrap();
        assert_eq!(outcome.merge_ops, 0);
        assert_eq!(outcome.final_table_id, None);
        assert_eq!(manifest.table_count(), 1);
    }
}
