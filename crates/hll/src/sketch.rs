//! The HyperLogLog sketch itself.

use crate::{hash_bytes, hash_u64, Error, Registers, DEFAULT_PRECISION};

/// A HyperLogLog cardinality sketch.
///
/// The sketch supports adding 64-bit keys or byte strings, estimating the
/// number of distinct items added, and lossless merging with other
/// sketches of the same precision. Merging is what makes HyperLogLog
/// attractive for compaction scheduling: the SmallestOutput heuristic can
/// estimate `|A ∪ B|` for every candidate pair of sstables by merging
/// their per-sstable sketches, without reading either sstable from disk.
///
/// # Examples
///
/// ```
/// use hll::HyperLogLog;
///
/// # fn main() -> Result<(), hll::Error> {
/// let mut sketch = HyperLogLog::new(12)?;
/// for key in 0u64..1_000 {
///     sketch.add_u64(key);
///     sketch.add_u64(key); // duplicates do not change the estimate
/// }
/// let est = sketch.count();
/// assert!((est as f64 - 1_000.0).abs() < 100.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HyperLogLog {
    registers: Registers,
}

impl HyperLogLog {
    /// Creates an empty sketch with `2^precision` registers.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidPrecision`] if `precision` is outside the
    /// supported range.
    ///
    /// # Examples
    ///
    /// ```
    /// let sketch = hll::HyperLogLog::new(14)?;
    /// assert_eq!(sketch.count(), 0);
    /// # Ok::<(), hll::Error>(())
    /// ```
    pub fn new(precision: u8) -> Result<Self, Error> {
        Ok(Self {
            registers: Registers::new(precision)?,
        })
    }

    /// Creates a sketch with the crate-default precision
    /// ([`DEFAULT_PRECISION`]).
    #[must_use]
    pub fn with_default_precision() -> Self {
        Self::new(DEFAULT_PRECISION).expect("default precision is always valid")
    }

    /// The precision `p` of this sketch.
    #[must_use]
    pub fn precision(&self) -> u8 {
        self.registers.precision()
    }

    /// Returns `true` if no item has been added yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.registers.is_empty()
    }

    /// Borrows the underlying registers.
    #[must_use]
    pub fn registers(&self) -> &Registers {
        &self.registers
    }

    /// Adds a pre-hashed 64-bit value to the sketch.
    ///
    /// Use this when the caller already applies its own uniform hash; the
    /// value is used as-is for register selection.
    pub fn add_hash(&mut self, hash: u64) {
        let p = u32::from(self.precision());
        let index = (hash >> (64 - p)) as usize;
        // The remaining (64 - p) bits, shifted up so that leading_zeros
        // counts only those bits; +1 gives the rank in 1..=(64 - p + 1).
        let suffix = hash << p;
        let rank = if suffix == 0 {
            (64 - p + 1) as u8
        } else {
            (suffix.leading_zeros() + 1) as u8
        };
        self.registers.observe(index, rank);
    }

    /// Adds a 64-bit key to the sketch.
    pub fn add_u64(&mut self, key: u64) {
        self.add_hash(hash_u64(key));
    }

    /// Adds a byte-string key to the sketch.
    pub fn add_bytes(&mut self, key: &[u8]) {
        self.add_hash(hash_bytes(key));
    }

    /// Estimates the number of distinct items added so far.
    ///
    /// Applies the standard corrections: linear counting when the raw
    /// estimate is small and some registers are still zero, and the
    /// large-range correction near `2^64`.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.estimate().round().max(0.0) as u64
    }

    /// The estimate as a floating-point value (before rounding).
    #[must_use]
    pub fn estimate(&self) -> f64 {
        let histogram = self.registers.max_rank_histogram(&self.registers);
        estimate_from(&histogram.expect("a sketch has its own precision"))
    }

    /// Merges `other` into `self` (register-wise maximum). After merging,
    /// `self.count()` estimates the cardinality of the union of the two
    /// underlying multisets.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PrecisionMismatch`] if the sketches have different
    /// precisions.
    ///
    /// # Examples
    ///
    /// ```
    /// use hll::HyperLogLog;
    /// # fn main() -> Result<(), hll::Error> {
    /// let mut a = HyperLogLog::new(12)?;
    /// let mut b = HyperLogLog::new(12)?;
    /// a.add_u64(1);
    /// b.add_u64(2);
    /// a.merge(&b)?;
    /// assert!(a.count() >= 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn merge(&mut self, other: &Self) -> Result<(), Error> {
        self.registers.merge_from(&other.registers)
    }

    /// Estimates `|A ∪ B|` without modifying either sketch and without
    /// allocating: one pass over both register arrays. Bit for bit the
    /// `count()` of the merged sketch.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PrecisionMismatch`] if the sketches have different
    /// precisions.
    pub fn union_estimate(&self, other: &Self) -> Result<u64, Error> {
        let histogram = self.registers.max_rank_histogram(&other.registers)?;
        Ok(estimate_from(&histogram).round().max(0.0) as u64)
    }

    /// Removes all items from the sketch, keeping the allocation.
    pub fn clear(&mut self) {
        self.registers.clear();
    }
}

impl Default for HyperLogLog {
    fn default() -> Self {
        Self::with_default_precision()
    }
}

impl Extend<u64> for HyperLogLog {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, iter: T) {
        for key in iter {
            self.add_u64(key);
        }
    }
}

impl FromIterator<u64> for HyperLogLog {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let mut sketch = Self::with_default_precision();
        sketch.extend(iter);
        sketch
    }
}

/// The one estimator, over a register array's rank histogram. Every
/// partial sum of `2^-r` terms is a multiple of `2^-r_max` at most `2^p`,
/// so while ranks stay at most `53 − p` (a hash reaches rank `r` with
/// probability `2^-r`) the sum is exact and equals the register-order
/// sum bit for bit.
fn estimate_from(histogram: &[u32; 256]) -> f64 {
    let registers: u32 = histogram.iter().sum();
    let m = f64::from(registers);
    let harmonic_sum: f64 = (0u64..)
        .zip(histogram)
        // `2^-rank`, built exactly from its exponent bits.
        .map(|(rank, &count)| f64::from(count) * f64::from_bits((1023 - rank) << 52))
        .sum();
    let raw = alpha(registers as usize) * m * m / harmonic_sum;

    if raw <= 2.5 * m {
        let zeros = histogram[0];
        if zeros > 0 {
            // Linear counting.
            return m * (m / f64::from(zeros)).ln();
        }
        return raw;
    }
    let two64 = 2f64.powi(64);
    if raw > two64 / 30.0 {
        // Large-range correction.
        return -two64 * (1.0 - raw / two64).ln();
    }
    raw
}

/// Bias-correction constant `alpha_m` from the HyperLogLog paper.
fn alpha(m: usize) -> f64 {
    match m {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(estimate: u64, truth: u64, tolerance: f64) {
        let err = (estimate as f64 - truth as f64).abs() / truth as f64;
        assert!(
            err <= tolerance,
            "estimate {estimate} vs truth {truth}: relative error {err:.4} > {tolerance}"
        );
    }

    #[test]
    fn empty_sketch_counts_zero() {
        let sketch = HyperLogLog::new(10).unwrap();
        assert_eq!(sketch.count(), 0);
        assert!(sketch.is_empty());
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut sketch = HyperLogLog::new(12).unwrap();
        for _ in 0..100 {
            sketch.add_u64(7);
        }
        assert_eq!(sketch.count(), 1);
    }

    #[test]
    fn small_cardinalities_are_exactish() {
        // Linear counting should make small cardinalities accurate.
        let mut sketch = HyperLogLog::new(12).unwrap();
        for x in 0u64..100 {
            sketch.add_u64(x);
        }
        assert_close(sketch.count(), 100, 0.05);
    }

    #[test]
    fn medium_cardinalities_within_error_bound() {
        let mut sketch = HyperLogLog::new(14).unwrap();
        let truth = 200_000u64;
        for x in 0..truth {
            sketch.add_u64(x);
        }
        // 5x the relative standard error as a generous deterministic bound.
        assert_close(
            sketch.count(),
            truth,
            5.0 * crate::relative_standard_error(14),
        );
    }

    #[test]
    fn bytes_and_u64_apis_are_consistent_on_distinctness() {
        let mut sketch = HyperLogLog::new(12).unwrap();
        for x in 0u64..1000 {
            sketch.add_bytes(&x.to_be_bytes());
        }
        assert_close(sketch.count(), 1000, 0.1);
    }

    #[test]
    fn merge_estimates_union() {
        let mut a = HyperLogLog::new(14).unwrap();
        let mut b = HyperLogLog::new(14).unwrap();
        for x in 0u64..50_000 {
            a.add_u64(x);
        }
        for x in 25_000u64..75_000 {
            b.add_u64(x);
        }
        let est = a.union_estimate(&b).unwrap();
        assert_close(est, 75_000, 0.05);
        // union_estimate must not mutate either operand.
        assert_close(a.count(), 50_000, 0.05);
        assert_close(b.count(), 50_000, 0.05);
    }

    #[test]
    fn merge_is_commutative_in_estimate() {
        let mut a = HyperLogLog::new(10).unwrap();
        let mut b = HyperLogLog::new(10).unwrap();
        for x in 0u64..3_000 {
            a.add_u64(x * 2);
        }
        for x in 0u64..3_000 {
            b.add_u64(x * 3);
        }
        let ab = a.union_estimate(&b).unwrap();
        let ba = b.union_estimate(&a).unwrap();
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_rejects_precision_mismatch() {
        let a = HyperLogLog::new(10).unwrap();
        let b = HyperLogLog::new(12).unwrap();
        assert!(a.union_estimate(&b).is_err());
    }

    #[test]
    fn from_iterator_and_extend() {
        let sketch: HyperLogLog = (0u64..500).collect();
        assert!((sketch.count() as i64 - 500).abs() < 50);
        let mut sketch2 = HyperLogLog::default();
        sketch2.extend(0u64..500);
        assert!((sketch2.count() as i64 - 500).abs() < 50);
    }

    #[test]
    fn clear_resets() {
        let mut sketch: HyperLogLog = (0u64..500).collect();
        sketch.clear();
        assert_eq!(sketch.count(), 0);
    }

    #[test]
    fn sketch_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HyperLogLog>();
    }
}
