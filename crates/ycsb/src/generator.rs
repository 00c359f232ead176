//! The deterministic workload generator: load phase + run phase.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::distribution::AnyChooser;
use crate::{Operation, OperationKind, WorkloadSpec};

/// Generates the operation streams of a [`WorkloadSpec`].
///
/// Two generators constructed from equal specs emit identical streams;
/// the compaction experiments rely on this to average over independent
/// seeded runs (the paper reports mean ± stddev over 3 runs).
///
/// # Examples
///
/// ```
/// use ycsb_gen::{OperationKind, WorkloadSpec};
///
/// let spec = WorkloadSpec::builder()
///     .record_count(100)
///     .operation_count(500)
///     .update_percent(100)
///     .build()?;
/// let mut gen = spec.generator();
/// assert_eq!(gen.load_phase().count(), 100);
/// assert!(gen.run_phase().all(|op| op.kind == OperationKind::Update));
/// # Ok::<(), ycsb_gen::Error>(())
/// ```
#[derive(Debug)]
pub struct WorkloadGenerator {
    spec: WorkloadSpec,
}

impl WorkloadGenerator {
    /// Creates a generator for `spec`.
    #[must_use]
    pub fn new(spec: WorkloadSpec) -> Self {
        Self { spec }
    }

    /// The specification driving this generator.
    #[must_use]
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The load phase: `record_count` inserts of keys `0, 1, 2, …`.
    pub fn load_phase(&self) -> impl Iterator<Item = Operation> + '_ {
        (0..self.spec.record_count()).map(|key| Operation::new(OperationKind::Insert, key))
    }

    /// The run phase: `operation_count` operations whose kinds follow the
    /// configured proportions and whose keys follow the configured request
    /// distribution. Run-phase inserts append new keys after the loaded
    /// ones, growing the key space as they go (as in YCSB).
    pub fn run_phase(&self) -> RunPhase {
        RunPhase {
            rng: StdRng::seed_from_u64(self.spec.seed()),
            chooser: AnyChooser::for_distribution(self.spec.distribution()),
            spec: self.spec.clone(),
            emitted: 0,
            next_insert_key: self.spec.record_count(),
        }
    }

    /// Convenience: the full workload, load phase followed by run phase,
    /// as a single vector.
    #[must_use]
    pub fn all_operations(&self) -> Vec<Operation> {
        self.load_phase().chain(self.run_phase()).collect()
    }

    /// Convenience: only the operations that write to the memtable
    /// (inserts, updates and deletes), in order. This is exactly the
    /// stream the compaction simulator consumes.
    #[must_use]
    pub fn write_operations(&self) -> Vec<Operation> {
        self.all_operations()
            .into_iter()
            .filter(|op| op.kind.is_write())
            .collect()
    }

    /// Deals the run phase round-robin across `clients` independent
    /// client streams, preserving relative order inside each stream.
    /// This is how a closed-loop service client runs one logical
    /// workload from K concurrent threads: the union of the partitions is exactly
    /// [`WorkloadGenerator::run_phase`], so aggregate mix and skew match
    /// the single-client workload while each client runs its slice as a
    /// closed loop (next operation issued when the previous response
    /// arrives).
    ///
    /// `clients` is clamped to ≥ 1. With fewer operations than clients,
    /// trailing partitions are empty.
    #[must_use]
    pub fn client_partitions(&self, clients: usize) -> Vec<Vec<Operation>> {
        let clients = clients.max(1);
        let total = self.spec.operation_count() as usize;
        let mut partitions: Vec<Vec<Operation>> = (0..clients)
            .map(|_| Vec::with_capacity(total / clients + 1))
            .collect();
        for (i, op) in self.run_phase().enumerate() {
            partitions[i % clients].push(op);
        }
        partitions
    }
}

/// Iterator over the run phase of a workload.
///
/// Produced by [`WorkloadGenerator::run_phase`].
#[derive(Debug)]
pub struct RunPhase {
    rng: StdRng,
    chooser: AnyChooser,
    spec: WorkloadSpec,
    emitted: u64,
    next_insert_key: u64,
}

impl Iterator for RunPhase {
    type Item = Operation;

    fn next(&mut self) -> Option<Operation> {
        if self.emitted >= self.spec.operation_count() {
            return None;
        }
        self.emitted += 1;

        let kind = self.pick_kind();
        let op = match kind {
            OperationKind::Insert => {
                let key = self.next_insert_key;
                self.next_insert_key += 1;
                Operation::new(OperationKind::Insert, key)
            }
            OperationKind::Scan => {
                // Scan start follows the request distribution (zipfian
                // start keys in the YCSB-E configuration); the length is
                // a uniform draw bounded by `maxscanlength`.
                let start = self.chooser.next_key(&mut self.rng, self.next_insert_key);
                let bound = u64::from(self.spec.max_scan_length().max(1));
                let len = self.rng.gen_range(1..bound + 1) as u32;
                Operation::scan(start, len)
            }
            other => {
                let key = self.chooser.next_key(&mut self.rng, self.next_insert_key);
                Operation::new(other, key)
            }
        };
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.spec.operation_count() - self.emitted) as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for RunPhase {}

impl RunPhase {
    fn pick_kind(&mut self) -> OperationKind {
        let roll: f64 = self.rng.gen();
        let spec = &self.spec;
        let mut acc = spec.insert_proportion();
        if roll < acc {
            return OperationKind::Insert;
        }
        acc += spec.update_proportion();
        if roll < acc {
            return OperationKind::Update;
        }
        acc += spec.read_proportion();
        if roll < acc {
            return OperationKind::Read;
        }
        acc += spec.delete_proportion();
        if roll < acc {
            return OperationKind::Delete;
        }
        OperationKind::Scan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Distribution;

    fn spec(update_percent: u32, dist: Distribution) -> WorkloadSpec {
        WorkloadSpec::builder()
            .record_count(1_000)
            .operation_count(20_000)
            .update_percent(update_percent)
            .distribution(dist)
            .seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn load_phase_is_sequential_inserts() {
        let s = spec(100, Distribution::Uniform);
        let gen = s.generator();
        let ops: Vec<_> = gen.load_phase().collect();
        assert_eq!(ops.len(), 1_000);
        assert!(ops
            .iter()
            .enumerate()
            .all(|(i, op)| { op.kind == OperationKind::Insert && op.key == i as u64 }));
    }

    #[test]
    fn run_phase_length_matches_operation_count() {
        let s = spec(50, Distribution::Uniform);
        let gen = s.generator();
        assert_eq!(gen.run_phase().count(), 20_000);
        let run = gen.run_phase();
        assert_eq!(run.len(), 20_000);
    }

    #[test]
    fn run_phase_is_deterministic_per_seed() {
        let s = spec(50, Distribution::zipfian_default());
        let a: Vec<_> = s.generator().run_phase().collect();
        let b: Vec<_> = s.generator().run_phase().collect();
        assert_eq!(a, b);

        let s2 = WorkloadSpec::builder()
            .record_count(1_000)
            .operation_count(20_000)
            .update_percent(50)
            .distribution(Distribution::zipfian_default())
            .seed(12)
            .build()
            .unwrap();
        let c: Vec<_> = s2.generator().run_phase().collect();
        assert_ne!(a, c, "different seeds should give different streams");
    }

    #[test]
    fn proportions_are_respected_approximately() {
        let s = spec(60, Distribution::Uniform);
        let ops: Vec<_> = s.generator().run_phase().collect();
        let updates = ops
            .iter()
            .filter(|o| o.kind == OperationKind::Update)
            .count();
        let inserts = ops
            .iter()
            .filter(|o| o.kind == OperationKind::Insert)
            .count();
        let frac = updates as f64 / ops.len() as f64;
        assert!((frac - 0.6).abs() < 0.02, "update fraction {frac}");
        assert_eq!(updates + inserts, ops.len());
    }

    #[test]
    fn pure_insert_workload_has_all_unique_keys() {
        let s = spec(0, Distribution::Latest);
        let ops: Vec<_> = s.generator().run_phase().collect();
        assert!(ops.iter().all(|o| o.kind == OperationKind::Insert));
        let mut keys: Vec<u64> = ops.iter().map(|o| o.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), ops.len());
    }

    #[test]
    fn run_phase_inserts_extend_key_space() {
        let s = WorkloadSpec::builder()
            .record_count(10)
            .operation_count(100)
            .update_proportion(0.5)
            .insert_proportion(0.5)
            .seed(5)
            .build()
            .unwrap();
        let ops: Vec<_> = s.generator().run_phase().collect();
        let max_insert = ops
            .iter()
            .filter(|o| o.kind == OperationKind::Insert)
            .map(|o| o.key)
            .max()
            .unwrap();
        assert!(max_insert >= 10, "inserts must go beyond loaded keys");
        // Updates may target newly inserted keys but never beyond.
        for window in ops.windows(ops.len()) {
            let _ = window; // ops processed above; key-range check below
        }
        let mut seen_max = 9u64;
        for op in &ops {
            match op.kind {
                OperationKind::Insert => seen_max = seen_max.max(op.key),
                _ => assert!(op.key <= seen_max, "non-insert references unseen key"),
            }
        }
    }

    #[test]
    fn write_operations_excludes_reads_and_scans() {
        let s = WorkloadSpec::builder()
            .record_count(100)
            .operation_count(1_000)
            .update_proportion(0.3)
            .insert_proportion(0.1)
            .read_proportion(0.5)
            .delete_proportion(0.05)
            .scan_proportion(0.05)
            .seed(3)
            .build()
            .unwrap();
        let writes = s.generator().write_operations();
        assert!(writes.iter().all(|o| o.kind.is_write()));
        // Load phase (100 inserts) is included.
        assert!(writes.len() >= 100);
        let all = s.generator().all_operations();
        assert_eq!(all.len(), 1_100);
    }

    #[test]
    fn scan_operations_have_bounded_lengths_and_existing_start_keys() {
        let s = WorkloadSpec::builder()
            .record_count(2_000)
            .operation_count(10_000)
            .update_proportion(0.0)
            .insert_proportion(0.05)
            .scan_proportion(0.95)
            .max_scan_length(40)
            .distribution(Distribution::zipfian_default())
            .seed(21)
            .build()
            .unwrap();
        let ops: Vec<_> = s.generator().run_phase().collect();
        let scans: Vec<_> = ops
            .iter()
            .filter(|o| o.kind == OperationKind::Scan)
            .collect();
        assert!(
            scans.len() > ops.len() * 9 / 10,
            "95% scan mix must be scan-dominated"
        );
        let mut seen_max = 1_999u64;
        for op in &ops {
            if op.kind == OperationKind::Insert {
                seen_max = seen_max.max(op.key);
            }
        }
        for scan in &scans {
            assert!(
                (1..=40).contains(&scan.scan_len),
                "length {}",
                scan.scan_len
            );
            assert!(scan.key <= seen_max, "scan starts at an unseen key");
            assert_eq!(scan.scan_range().start, scan.key);
        }
        // Lengths actually vary (a uniform draw, not a constant).
        let distinct: std::collections::HashSet<u32> = scans.iter().map(|s| s.scan_len).collect();
        assert!(
            distinct.len() > 10,
            "only {} distinct lengths",
            distinct.len()
        );
        // Non-scan operations carry no length.
        assert!(ops
            .iter()
            .filter(|o| o.kind != OperationKind::Scan)
            .all(|o| o.scan_len == 0));
    }

    #[test]
    fn client_partitions_cover_the_run_phase_exactly() {
        let s = spec(50, Distribution::zipfian_default());
        let gen = s.generator();
        let partitions = gen.client_partitions(4);
        assert_eq!(partitions.len(), 4);
        // Re-interleave round-robin: must equal the single stream.
        let mut rebuilt = Vec::new();
        let mut cursors = [0usize; 4];
        'outer: loop {
            for (c, cursor) in cursors.iter_mut().enumerate() {
                match partitions[c].get(*cursor) {
                    Some(&op) => {
                        rebuilt.push(op);
                        *cursor += 1;
                    }
                    None => break 'outer,
                }
            }
        }
        let direct: Vec<_> = gen.run_phase().collect();
        assert_eq!(rebuilt, direct);
        // Balanced to within one operation.
        let sizes: Vec<usize> = partitions.iter().map(Vec::len).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        // Degenerate client counts.
        assert_eq!(gen.client_partitions(0).len(), 1);
        assert_eq!(gen.client_partitions(1)[0], direct);
    }

    #[test]
    fn latest_distribution_targets_recent_keys_more() {
        let s = WorkloadSpec::builder()
            .record_count(10_000)
            .operation_count(20_000)
            .update_percent(100)
            .distribution(Distribution::Latest)
            .seed(9)
            .build()
            .unwrap();
        let ops: Vec<_> = s.generator().run_phase().collect();
        let high = ops.iter().filter(|o| o.key >= 9_000).count();
        let low = ops.iter().filter(|o| o.key < 1_000).count();
        assert!(
            high > low * 3,
            "latest should hit recent keys: high={high} low={low}"
        );
    }
}
