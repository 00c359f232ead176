//! Cardinality estimation for the SMALLESTOUTPUT heuristic.
//!
//! Choosing the pair of sstables with the smallest union requires knowing
//! `|A ∪ B|` for every candidate pair *without* merging them. The paper's
//! simulator estimates these cardinalities with HyperLogLog (Section 5.1,
//! strategy 2); the exact two-pointer count is the idealized baseline.

use hll::HyperLogLog;

use crate::KeySet;

/// Estimates the cardinality of a union of key sets.
pub trait CardinalityEstimator: std::fmt::Debug {
    /// Estimated `|S_1 ∪ … ∪ S_m|` for the given sets.
    fn union_estimate(&self, sets: &[&KeySet]) -> u64;
}

/// Exact union cardinality (two-pointer merge counting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactEstimator;

impl CardinalityEstimator for ExactEstimator {
    fn union_estimate(&self, sets: &[&KeySet]) -> u64 {
        match sets {
            [] => 0,
            [only] => only.len() as u64,
            [a, b] => a.union_size(b) as u64,
            many => KeySet::union_many(many.iter().copied()).len() as u64,
        }
    }
}

/// HyperLogLog-based union estimation, as used by the paper's simulator.
///
/// Each call hashes every key of the operand sets into one sketch; the
/// [`CachedSmallestOutputPolicy`](crate::heuristics::CachedSmallestOutputPolicy)
/// caches sketches and pair estimates instead, with identical results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HllEstimator {
    precision: u8,
}

impl HllEstimator {
    /// Creates an estimator with the given HyperLogLog precision.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`hll::Error`] if the precision is outside
    /// the supported range.
    pub fn new(precision: u8) -> Result<Self, hll::Error> {
        // Validate eagerly so later sketch construction cannot fail.
        HyperLogLog::new(precision)?;
        Ok(Self { precision })
    }

    /// The configured precision.
    #[must_use]
    pub fn precision(&self) -> u8 {
        self.precision
    }
}

impl Default for HllEstimator {
    fn default() -> Self {
        Self {
            precision: hll::DEFAULT_PRECISION,
        }
    }
}

impl CardinalityEstimator for HllEstimator {
    fn union_estimate(&self, sets: &[&KeySet]) -> u64 {
        let mut merged = HyperLogLog::new(self.precision).expect("precision validated in new()");
        merged.extend(sets.iter().flat_map(|set| set.iter()));
        merged.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_estimator_matches_true_union() {
        let a = KeySet::from_range(0..100);
        let b = KeySet::from_range(50..150);
        let c = KeySet::from_range(140..160);
        assert_eq!(ExactEstimator.union_estimate(&[]), 0);
        assert_eq!(ExactEstimator.union_estimate(&[&a]), 100);
        assert_eq!(ExactEstimator.union_estimate(&[&a, &b]), 150);
        assert_eq!(ExactEstimator.union_estimate(&[&a, &b, &c]), 160);
    }

    #[test]
    fn hll_estimator_tracks_exact_within_tolerance() {
        let est = HllEstimator::new(14).unwrap();
        let a = KeySet::from_range(0..20_000);
        let b = KeySet::from_range(10_000..30_000);
        let exact = ExactEstimator.union_estimate(&[&a, &b]) as f64;
        let approx = est.union_estimate(&[&a, &b]) as f64;
        assert!(
            (approx - exact).abs() / exact < 0.05,
            "exact={exact} approx={approx}"
        );
    }

    #[test]
    fn hll_estimator_rejects_bad_precision_and_defaults() {
        assert!(HllEstimator::new(2).is_err());
        let default = HllEstimator::default();
        assert_eq!(default.precision(), hll::DEFAULT_PRECISION);
    }

    #[test]
    fn sketch_caching_path_matches_direct_estimation() {
        let est = HllEstimator::new(12).unwrap();
        let a = KeySet::from_range(0..5_000);
        let b = KeySet::from_range(2_500..7_500);
        let sketch = |set: &KeySet| {
            let mut sketch = HyperLogLog::new(12).unwrap();
            sketch.extend(set.iter());
            sketch
        };
        assert_eq!(
            sketch(&a).union_estimate(&sketch(&b)).unwrap(),
            est.union_estimate(&[&a, &b])
        );
    }
}
