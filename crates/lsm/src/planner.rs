//! Observing live sstables and planning their compaction.
//!
//! This is the bridge between the engine's physical world (sstables on
//! storage, identified by table id) and `compaction-core`'s logical one
//! (key sets in slots). [`observe_tables`] reduces each live table to a
//! [`TableObservation`] — 8-byte big-endian keys are decoded directly,
//! anything else is hashed, which preserves the sizes and overlap
//! structure the strategies consume. [`plan_compaction`]
//! then asks a [`StrategyPlanner`] configured from [`LsmOptions`] for an
//! executable [`MergePlan`].

use compaction_core::{KeySet, MergePlan, Planner, StrategyPlanner, TableObservation};

use crate::manifest::TableMeta;
use crate::options::LsmOptions;
use crate::reader::{ReadContext, ReadPathCounters, SstableReader};
use crate::sstable::read_observation;
use crate::storage::Storage;
use crate::types::key_to_u64;
use crate::Error;

/// Builds one observation per listed table, in the given (manifest)
/// order — observation index `i` becomes plan slot `i`.
///
/// Each table's key set is its blob's observation section (a footer
/// probe plus one ranged read), so planning does not read the full
/// tables that the executor is about to read for the merge.
///
/// Tombstones count as keys: they occupy space and must be read and
/// rewritten by merges, exactly as the paper's model assumes.
///
/// # Errors
///
/// Propagates storage and corruption errors.
pub fn observe_tables(
    storage: &dyn Storage,
    tables: &[TableMeta],
) -> Result<Vec<TableObservation>, Error> {
    let mut observations = Vec::with_capacity(tables.len());
    for meta in tables {
        // The section is derivable from the table's entries: a rotten
        // one falls back to reading them, since wedging every future
        // compaction on it would turn a flipped bit into a read-only
        // store.
        let keys = match read_observation(storage, meta.table_id, meta.encoded_len) {
            Err(Error::Corruption { .. }) => {
                let reader = SstableReader::open(storage, meta.table_id, Some(meta.encoded_len))?;
                let counters = ReadPathCounters::default();
                reader
                    .iter(ReadContext::whole_table(storage, &counters))
                    .map(|entry| entry.map(|e| observed_key(&e.key)))
                    .collect::<Result<Vec<u64>, Error>>()?
            }
            keys => keys?,
        };
        observations.push(TableObservation::new(meta.table_id, KeySet::from_vec(keys)));
    }
    Ok(observations)
}

/// Maps a user key to the logical 64-bit key space the planner models.
#[must_use]
pub fn observed_key(user_key: &[u8]) -> u64 {
    key_to_u64(user_key).unwrap_or_else(|| hll::hash_bytes(user_key))
}

/// Plans a full compaction of `tables` using the strategy, estimator and
/// fan-in configured in `options`.
///
/// Returns `Ok(None)` when there are fewer than two tables (nothing to
/// merge). The returned plan references tables by slot in `tables`
/// order: lower it with
/// [`MergePlan::steps`](compaction_core::MergePlan::steps) and
/// [`MergePlan::waves`](compaction_core::MergePlan::waves) for
/// [`ParallelExecutor::prepare`](crate::ParallelExecutor::prepare).
///
/// # Errors
///
/// Propagates storage errors from observation and planning errors from
/// `compaction-core`.
pub fn plan_compaction(
    storage: &dyn Storage,
    tables: &[TableMeta],
    options: &LsmOptions,
) -> Result<Option<MergePlan>, Error> {
    if tables.len() < 2 {
        return Ok(None);
    }
    let observations = observe_tables(storage, tables)?;
    let planner = StrategyPlanner::new(options.strategy()).with_estimator(options.estimator());
    let plan = planner
        .plan(&observations, options.fanin())
        .map_err(|e| Error::invalid_compaction(format!("planning failed: {e}")))?;
    Ok(Some(plan))
}

/// A next-older table joins a run while it holds at most this many
/// times the entries the run has gathered.
const RUN_GROWTH_RATIO: u64 = 2;

/// The tables a policy-triggered compaction merges, in `tables` order:
/// the `at_least` newest by `max_seqno`, then each next-older table
/// holding at most [`RUN_GROWTH_RATIO`] times the entries gathered so
/// far. The run is newest and contiguous in age because reads stop at
/// the first table holding a key: an output spanning a table left out
/// would shadow that table's newer versions.
pub(crate) fn newest_run(tables: &[TableMeta], at_least: usize) -> Vec<TableMeta> {
    let mut by_age: Vec<&TableMeta> = tables.iter().collect();
    by_age.sort_by_key(|t| std::cmp::Reverse(t.max_seqno));
    let mut len = at_least.min(tables.len());
    let mut gathered: u64 = by_age[..len].iter().map(|t| t.entry_count).sum();
    while let Some(next) = by_age.get(len) {
        if next.entry_count > RUN_GROWTH_RATIO * gathered {
            break;
        }
        gathered += next.entry_count;
        len += 1;
    }
    let run = &by_age[..len];
    tables
        .iter()
        .filter(|t| run.iter().any(|r| r.table_id == t.table_id))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{Manifest, ManifestEdit};
    use crate::sstable::{Footer, SstableBuilder};
    use crate::storage::MemoryStorage;
    use crate::test_support::corrupt_blob_byte;
    use crate::types::{key_from_u64, Entry};
    use bytes::Bytes;
    use compaction_core::Strategy;

    fn make_table(
        storage: &dyn Storage,
        manifest: &mut Manifest,
        keys: &[u64],
        seq: u64,
    ) -> TableMeta {
        let id = manifest.allocate_table_id();
        let mut builder = SstableBuilder::new(id, 4096, 10);
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for &k in &sorted {
            builder.add(&Entry::put(key_from_u64(k), Bytes::from_static(b"v"), seq));
        }
        let (data, meta) = builder.finish();
        storage
            .write_blob(&SstableReader::blob_name(id), &data)
            .unwrap();
        manifest
            .apply(ManifestEdit::AddTable(meta.clone()))
            .unwrap();
        meta
    }

    #[test]
    fn observations_reflect_table_contents() {
        let storage = MemoryStorage::new();
        let mut manifest = Manifest::new();
        let t0 = make_table(&storage, &mut manifest, &[1, 2, 3, 5], 1);
        let t1 = make_table(&storage, &mut manifest, &[3, 4, 5], 2);
        let obs = observe_tables(&storage, manifest.tables()).unwrap();
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].table_id, t0.table_id);
        assert_eq!(obs[0].keys, KeySet::from_iter([1u64, 2, 3, 5]));
        assert_eq!(obs[1].table_id, t1.table_id);
        assert_eq!(obs[1].keys.intersection_size(&obs[0].keys), 2);
    }

    /// Planning reads each table's footer and observation section and
    /// nothing else — no tail, no data block.
    #[test]
    fn planning_reads_only_footers_and_observation_sections() {
        let storage = MemoryStorage::new();
        let mut manifest = Manifest::new();
        let keys: Vec<u64> = (0..500).collect();
        make_table(&storage, &mut manifest, &keys, 1);
        make_table(&storage, &mut manifest, &keys[100..300], 2);
        let budget: u64 = manifest
            .tables()
            .iter()
            .map(|t| {
                let name = SstableReader::blob_name(t.table_id);
                let footer = Footer::read(&storage, &name, t.encoded_len).unwrap();
                (Footer::LEN + footer.observation_len) as u64
            })
            .sum();
        let read_before = storage.bytes_read();
        let obs = observe_tables(&storage, manifest.tables()).unwrap();
        assert_eq!(obs[1].keys, KeySet::from_range(100..300));
        assert!(
            storage.bytes_read() - read_before <= budget,
            "planning read {} bytes, more than footers + sections ({budget})",
            storage.bytes_read() - read_before
        );
    }

    #[test]
    fn corrupt_observation_sections_fall_back_instead_of_wedging_planning() {
        let storage = MemoryStorage::new();
        let mut manifest = Manifest::new();
        let t0 = make_table(&storage, &mut manifest, &[1, 2, 3], 1);
        // A byte inside the first key fails the section CRC, which must
        // send planning to the table's entries, not fail it.
        let name = SstableReader::blob_name(t0.table_id);
        assert!(corrupt_blob_byte(&storage, &name, 4));
        assert!(read_observation(&storage, t0.table_id, t0.encoded_len).is_err());
        let obs = observe_tables(&storage, manifest.tables()).unwrap();
        assert_eq!(
            obs[0].keys,
            KeySet::from_iter([1u64, 2, 3]),
            "fell back to reading the table"
        );
    }

    #[test]
    fn non_integer_keys_hash_consistently() {
        let a = observed_key(b"customer/1234");
        let b = observed_key(b"customer/1234");
        let c = observed_key(b"customer/1235");
        assert_eq!(a, b, "hashing is deterministic");
        assert_ne!(a, c);
        assert_eq!(
            observed_key(&key_from_u64(7)),
            7,
            "8-byte keys decode exactly"
        );
    }

    #[test]
    fn plan_compaction_lowers_to_steps() {
        let storage = MemoryStorage::new();
        let mut manifest = Manifest::new();
        make_table(&storage, &mut manifest, &[1, 2, 3, 5], 1);
        make_table(&storage, &mut manifest, &[1, 2, 3, 4], 2);
        make_table(&storage, &mut manifest, &[3, 4, 5], 3);
        let options = LsmOptions::default().compaction_strategy(Strategy::SmallestInput);
        let plan = plan_compaction(&storage, manifest.tables(), &options)
            .unwrap()
            .unwrap();
        assert_eq!(plan.steps().len(), 2, "3 tables, binary fan-in");
        assert!(plan.steps().iter().all(|inputs| inputs.len() == 2));
        assert_eq!(plan.waves().iter().map(Vec::len).sum::<usize>(), 2);
        assert!(plan.predicted_cost_actual() > 0);
    }

    /// A live table of `entries` entries whose newest record is `max_seqno`.
    fn aged(table_id: u64, entries: u64, max_seqno: u64) -> TableMeta {
        TableMeta {
            table_id,
            entry_count: entries,
            encoded_len: entries * 16,
            tombstone_count: 0,
            range_tombstone_count: 0,
            max_seqno,
        }
    }

    /// The run a policy with `trigger` merges: one that takes at least
    /// `n + 2 - trigger` tables brings the live count back under it.
    fn run_ids(tables: &[TableMeta], trigger: usize) -> Vec<u64> {
        newest_run(tables, tables.len() + 2 - trigger)
            .iter()
            .map(|t| t.table_id)
            .collect()
    }

    #[test]
    fn newest_run_leaves_a_dominant_oldest_table_out() {
        let tables = [
            aged(0, 200_000, 100),
            aged(1, 1_000, 200),
            aged(2, 1_000, 300),
            aged(3, 1_000, 400),
        ];
        assert_eq!(run_ids(&tables, 4), vec![1, 2, 3]);
    }

    #[test]
    fn newest_run_of_comparable_tables_is_the_whole_store() {
        let tables: Vec<TableMeta> = (0..6).map(|i| aged(i, 1_000 + i * 300, i)).collect();
        assert_eq!(run_ids(&tables, 6), vec![0, 1, 2, 3, 4, 5]);
    }

    /// Seven live tables under a trigger of 4: a merge of the two
    /// newest would leave six, so the run takes five even though the
    /// third-newest is fifty times bigger than the two before it.
    #[test]
    fn newest_run_is_long_enough_to_get_back_under_the_trigger() {
        let sizes = [100_000, 50_000, 1_000, 1_000, 1_000, 10, 10];
        let tables: Vec<TableMeta> = (0..7).map(|i| aged(i, sizes[i as usize], i)).collect();
        let run = run_ids(&tables, 4);
        assert_eq!(run, vec![2, 3, 4, 5, 6]);
        assert!(tables.len() - run.len() + 1 < 4);
    }

    /// A GC rewrite (or a compaction output) re-appends old data at the
    /// manifest tail: age comes from `max_seqno`, not position, and the
    /// run keeps manifest order.
    #[test]
    fn newest_run_orders_by_seqno_not_manifest_position() {
        let tables = [
            aged(7, 1_000, 500),
            aged(8, 1_000, 600),
            aged(9, 1_000, 700),
            aged(10, 90_000, 50),
        ];
        assert_eq!(run_ids(&tables, 4), vec![7, 8, 9]);
    }

    #[test]
    fn fewer_than_two_tables_is_a_noop_plan() {
        let storage = MemoryStorage::new();
        let mut manifest = Manifest::new();
        let options = LsmOptions::default();
        assert!(plan_compaction(&storage, manifest.tables(), &options)
            .unwrap()
            .is_none());
        make_table(&storage, &mut manifest, &[1], 1);
        assert!(plan_compaction(&storage, manifest.tables(), &options)
            .unwrap()
            .is_none());
    }
}
