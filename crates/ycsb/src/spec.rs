//! Workload specification and its builder.

use crate::{Distribution, Error, WorkloadGenerator};

/// Complete specification of a YCSB-style workload.
///
/// Mirrors the YCSB parameters the paper's evaluation varies:
/// `recordcount`, `operationcount`, the insert/update proportions and the
/// request distribution. Construct through [`WorkloadSpec::builder`].
///
/// # Examples
///
/// ```
/// use ycsb_gen::{Distribution, WorkloadSpec};
///
/// let spec = WorkloadSpec::builder()
///     .record_count(1_000)
///     .operation_count(100_000)
///     .update_proportion(0.5)
///     .insert_proportion(0.5)
///     .distribution(Distribution::Latest)
///     .build()?;
/// assert_eq!(spec.record_count(), 1_000);
/// # Ok::<(), ycsb_gen::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    record_count: u64,
    operation_count: u64,
    insert_proportion: f64,
    update_proportion: f64,
    read_proportion: f64,
    delete_proportion: f64,
    scan_proportion: f64,
    max_scan_length: u32,
    distribution: Distribution,
    seed: u64,
}

impl WorkloadSpec {
    /// Starts building a specification. The default mix is 100 % updates
    /// with the uniform distribution and seed 0.
    #[must_use]
    pub fn builder() -> WorkloadSpecBuilder {
        WorkloadSpecBuilder::default()
    }

    /// Number of records inserted by the load phase.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Number of operations issued by the run phase.
    #[must_use]
    pub fn operation_count(&self) -> u64 {
        self.operation_count
    }

    /// Fraction of run-phase operations that are inserts.
    #[must_use]
    pub fn insert_proportion(&self) -> f64 {
        self.insert_proportion
    }

    /// Fraction of run-phase operations that are updates.
    #[must_use]
    pub fn update_proportion(&self) -> f64 {
        self.update_proportion
    }

    /// Fraction of run-phase operations that are reads.
    #[must_use]
    pub fn read_proportion(&self) -> f64 {
        self.read_proportion
    }

    /// Fraction of run-phase operations that are deletes.
    #[must_use]
    pub fn delete_proportion(&self) -> f64 {
        self.delete_proportion
    }

    /// Fraction of run-phase operations that are scans.
    #[must_use]
    pub fn scan_proportion(&self) -> f64 {
        self.scan_proportion
    }

    /// Upper bound on a scan operation's length in keys (YCSB's
    /// `maxscanlength`); each scan draws a length uniformly from
    /// `1..=max_scan_length`.
    #[must_use]
    pub fn max_scan_length(&self) -> u32 {
        self.max_scan_length
    }

    /// The request distribution used to pick keys for non-insert
    /// operations.
    #[must_use]
    pub fn distribution(&self) -> Distribution {
        self.distribution
    }

    /// The RNG seed; two generators built from equal specs produce
    /// identical operation streams.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Creates the deterministic generator for this specification.
    #[must_use]
    pub fn generator(&self) -> WorkloadGenerator {
        WorkloadGenerator::new(self.clone())
    }
}

/// Builder for [`WorkloadSpec`]; see the paper's Section 5.1 for how the
/// knobs map onto the evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpecBuilder {
    record_count: u64,
    operation_count: u64,
    insert_proportion: f64,
    update_proportion: f64,
    read_proportion: f64,
    delete_proportion: f64,
    scan_proportion: f64,
    max_scan_length: u32,
    distribution: Distribution,
    seed: u64,
}

impl Default for WorkloadSpecBuilder {
    fn default() -> Self {
        Self {
            record_count: 1_000,
            operation_count: 10_000,
            insert_proportion: 0.0,
            update_proportion: 1.0,
            read_proportion: 0.0,
            delete_proportion: 0.0,
            scan_proportion: 0.0,
            max_scan_length: 100,
            distribution: Distribution::Uniform,
            seed: 0,
        }
    }
}

impl WorkloadSpecBuilder {
    /// Sets the number of load-phase records (`recordcount`).
    #[must_use]
    pub fn record_count(mut self, count: u64) -> Self {
        self.record_count = count;
        self
    }

    /// Sets the number of run-phase operations (`operationcount`).
    #[must_use]
    pub fn operation_count(mut self, count: u64) -> Self {
        self.operation_count = count;
        self
    }

    /// Sets the insert proportion.
    #[must_use]
    pub fn insert_proportion(mut self, p: f64) -> Self {
        self.insert_proportion = p;
        self
    }

    /// Sets the update proportion.
    #[must_use]
    pub fn update_proportion(mut self, p: f64) -> Self {
        self.update_proportion = p;
        self
    }

    /// Sets the read proportion.
    #[must_use]
    pub fn read_proportion(mut self, p: f64) -> Self {
        self.read_proportion = p;
        self
    }

    /// Sets the delete proportion.
    #[must_use]
    pub fn delete_proportion(mut self, p: f64) -> Self {
        self.delete_proportion = p;
        self
    }

    /// Sets the scan proportion.
    #[must_use]
    pub fn scan_proportion(mut self, p: f64) -> Self {
        self.scan_proportion = p;
        self
    }

    /// Sets the per-scan length bound (`maxscanlength`); clamped to ≥ 1.
    #[must_use]
    pub fn max_scan_length(mut self, len: u32) -> Self {
        self.max_scan_length = len.max(1);
        self
    }

    /// Sets the request distribution.
    #[must_use]
    pub fn distribution(mut self, distribution: Distribution) -> Self {
        self.distribution = distribution;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Convenience: sets the insert/update split used throughout the
    /// paper's Figure 7 sweep, where `update_percent` of operations are
    /// updates and the remainder are inserts.
    #[must_use]
    pub fn update_percent(mut self, update_percent: u32) -> Self {
        let update = f64::from(update_percent.min(100)) / 100.0;
        self.update_proportion = update;
        self.insert_proportion = 1.0 - update;
        self.read_proportion = 0.0;
        self.delete_proportion = 0.0;
        self.scan_proportion = 0.0;
        self
    }

    /// Validates and builds the specification.
    ///
    /// # Errors
    ///
    /// Returns an error if any proportion is negative, the proportions do
    /// not sum to 1, the record count is zero, or the zipfian constant is
    /// out of range.
    pub fn build(self) -> Result<WorkloadSpec, Error> {
        let fields = [
            ("insert", self.insert_proportion),
            ("update", self.update_proportion),
            ("read", self.read_proportion),
            ("delete", self.delete_proportion),
            ("scan", self.scan_proportion),
        ];
        for (field, value) in fields {
            if value < 0.0 {
                return Err(Error::NegativeProportion { field, value });
            }
        }
        let sum: f64 = fields.iter().map(|(_, v)| v).sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(Error::ProportionsDoNotSumToOne { sum });
        }
        if self.record_count == 0 {
            return Err(Error::EmptyRecordCount);
        }
        if let Distribution::Zipfian { theta } = self.distribution {
            if !(theta > 0.0 && theta < 1.0) {
                return Err(Error::InvalidZipfianConstant { value: theta });
            }
        }
        Ok(WorkloadSpec {
            record_count: self.record_count,
            operation_count: self.operation_count,
            insert_proportion: self.insert_proportion,
            update_proportion: self.update_proportion,
            read_proportion: self.read_proportion,
            delete_proportion: self.delete_proportion,
            scan_proportion: self.scan_proportion,
            max_scan_length: self.max_scan_length,
            distribution: self.distribution,
            seed: self.seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builder_builds() {
        let spec = WorkloadSpec::builder().build().unwrap();
        assert_eq!(spec.record_count(), 1_000);
        assert_eq!(spec.update_proportion(), 1.0);
    }

    #[test]
    fn rejects_bad_proportions() {
        assert!(matches!(
            WorkloadSpec::builder()
                .update_proportion(0.5)
                .insert_proportion(0.2)
                .build(),
            Err(Error::ProportionsDoNotSumToOne { .. })
        ));
        assert!(matches!(
            WorkloadSpec::builder()
                .update_proportion(-0.5)
                .insert_proportion(1.5)
                .build(),
            Err(Error::NegativeProportion {
                field: "update",
                ..
            })
        ));
    }

    #[test]
    fn rejects_zero_records() {
        assert!(matches!(
            WorkloadSpec::builder().record_count(0).build(),
            Err(Error::EmptyRecordCount)
        ));
    }

    #[test]
    fn rejects_bad_zipfian_theta() {
        assert!(matches!(
            WorkloadSpec::builder()
                .distribution(Distribution::Zipfian { theta: 1.2 })
                .build(),
            Err(Error::InvalidZipfianConstant { .. })
        ));
    }

    #[test]
    fn update_percent_helper_sets_split() {
        let spec = WorkloadSpec::builder().update_percent(60).build().unwrap();
        assert!((spec.update_proportion() - 0.6).abs() < 1e-12);
        assert!((spec.insert_proportion() - 0.4).abs() < 1e-12);
        let spec = WorkloadSpec::builder().update_percent(250).build().unwrap();
        assert_eq!(spec.update_proportion(), 1.0);
    }

    #[test]
    fn read_heavy_mix_builds() {
        let spec = WorkloadSpec::builder()
            .update_proportion(0.05)
            .insert_proportion(0.0)
            .read_proportion(0.90)
            .delete_proportion(0.03)
            .scan_proportion(0.02)
            .build()
            .unwrap();
        assert!((spec.read_proportion() - 0.9).abs() < 1e-12);
    }
}
