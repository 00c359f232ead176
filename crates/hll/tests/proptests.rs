//! Property-based tests for the HyperLogLog sketch.

use hll::HyperLogLog;
use proptest::prelude::*;
use std::collections::HashSet;

/// A sketch at precision `p` with arbitrary register contents, drawn from
/// `seed`: a register is zero with probability `zero_eighths / 8`, else
/// holds a rank in `1..=max_rank` (at most `65 − p`, the largest rank a
/// hash can produce). Each rank is written through `add_hash` with a hash
/// built to have it.
fn arbitrary_sketch(p: u8, seed: u64, zero_eighths: u64, max_rank: u64) -> HyperLogLog {
    let suffix_bits = 64 - u64::from(p);
    let mut sketch = HyperLogLog::new(p).unwrap();
    let mut state = seed;
    for index in 0..1u64 << p {
        state = hll::hash_u64(state);
        if state % 8 < zero_eighths {
            continue;
        }
        let rank = 1 + (state >> 3) % max_rank;
        let suffix = if rank > suffix_bits {
            0
        } else {
            1 << (suffix_bits - rank)
        };
        sketch.add_hash(index << suffix_bits | suffix);
    }
    sketch
}

/// The estimator as it was before the rank histogram: a harmonic sum and
/// a zero count, each a pass over the registers in register order.
fn reference_estimate(sketch: &HyperLogLog) -> f64 {
    let registers = sketch.registers();
    let m = registers.len() as f64;
    let alpha = match registers.len() {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        n => 0.7213 / (1.0 + 1.079 / n as f64),
    };
    let harmonic_sum: f64 = registers.iter().map(|r| 2f64.powi(-i32::from(r))).sum();
    let raw = alpha * m * m / harmonic_sum;
    if raw <= 2.5 * m {
        let zeros = registers.iter().filter(|&r| r == 0).count();
        if zeros > 0 {
            return m * (m / zeros as f64).ln();
        }
        return raw;
    }
    let two64 = 2f64.powi(64);
    if raw > two64 / 30.0 {
        return -two64 * (1.0 - raw / two64).ln();
    }
    raw
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The estimate tracks the true distinct count within a generous bound
    /// for arbitrary (possibly duplicated) inputs.
    #[test]
    fn estimate_tracks_truth(keys in proptest::collection::vec(0u64..50_000, 0..4_000)) {
        let truth = keys.iter().copied().collect::<HashSet<_>>().len() as f64;
        let mut sketch = HyperLogLog::new(14).unwrap();
        for k in &keys {
            sketch.add_u64(*k);
        }
        let est = sketch.count() as f64;
        if truth == 0.0 {
            prop_assert_eq!(est, 0.0);
        } else {
            let rel_err = (est - truth).abs() / truth;
            // p=14 has ~0.8% RSE; allow a wide 10% band to keep the test
            // deterministic-failure-free across proptest seeds.
            prop_assert!(rel_err < 0.10, "rel_err={rel_err} truth={truth} est={est}");
        }
    }

    /// Merging two sketches gives the same registers as building one sketch
    /// over the concatenation of inputs.
    #[test]
    fn merge_equals_union_build(
        a in proptest::collection::vec(any::<u64>(), 0..2_000),
        b in proptest::collection::vec(any::<u64>(), 0..2_000),
    ) {
        let mut sa = HyperLogLog::new(12).unwrap();
        let mut sb = HyperLogLog::new(12).unwrap();
        let mut sab = HyperLogLog::new(12).unwrap();
        for k in &a {
            sa.add_u64(*k);
            sab.add_u64(*k);
        }
        for k in &b {
            sb.add_u64(*k);
            sab.add_u64(*k);
        }
        sa.merge(&sb).unwrap();
        prop_assert_eq!(sa, sab);
    }

    /// Estimates are monotone under adding more elements: merging can never
    /// reduce any register, so the harmonic-sum based raw estimate cannot
    /// shrink by more than the linear-counting switch-over wiggle.
    #[test]
    fn adding_elements_never_reduces_count_substantially(
        a in proptest::collection::vec(any::<u64>(), 1..1_000),
        b in proptest::collection::vec(any::<u64>(), 1..1_000),
    ) {
        let mut sketch = HyperLogLog::new(12).unwrap();
        for k in &a {
            sketch.add_u64(*k);
        }
        let before = sketch.count() as f64;
        for k in &b {
            sketch.add_u64(*k);
        }
        let after = sketch.count() as f64;
        // Allow a tiny slack for the estimator switching between regimes.
        prop_assert!(after >= before * 0.9 - 2.0, "before={before} after={after}");
    }

    /// union_estimate is symmetric.
    #[test]
    fn union_estimate_symmetric(
        a in proptest::collection::vec(any::<u64>(), 0..1_000),
        b in proptest::collection::vec(any::<u64>(), 0..1_000),
    ) {
        let sa: HyperLogLog = a.into_iter().collect();
        let sb: HyperLogLog = b.into_iter().collect();
        prop_assert_eq!(sa.union_estimate(&sb).unwrap(), sb.union_estimate(&sa).unwrap());
    }

    /// The one-pass union estimate is the merged sketch's count, for any
    /// register contents a hash can produce; sketches of different
    /// precisions still refuse to combine.
    #[test]
    fn fused_union_estimate_equals_merge_then_count(
        p in 4u8..=16,
        seeds in (any::<u64>(), any::<u64>()),
        zero_eighths in (0u64..=8, 0u64..=8),
        rank_draws in (any::<u64>(), any::<u64>()),
    ) {
        let max_rank = |draw: u64| 1 + draw % (65 - u64::from(p));
        let a = arbitrary_sketch(p, seeds.0, zero_eighths.0, max_rank(rank_draws.0));
        let b = arbitrary_sketch(p, seeds.1, zero_eighths.1, max_rank(rank_draws.1));
        let mut merged = a.clone();
        merged.merge(&b).unwrap();
        prop_assert_eq!(a.union_estimate(&b).unwrap(), merged.count());
        prop_assert_eq!(b.union_estimate(&a).unwrap(), merged.count());
        let other_precision = HyperLogLog::new(if p == 16 { 15 } else { p + 1 }).unwrap();
        prop_assert!(a.union_estimate(&other_precision).is_err());
    }

    /// Summing the harmonic term by rank gives the register-order sum bit
    /// for bit while every rank is at most `53 − p`, where both sums are
    /// exact — any realistic sketch (a rank above 37 at `p = 16` takes a
    /// 1-in-2^37 hash).
    #[test]
    fn rank_histogram_estimate_equals_the_register_order_formula(
        p in 4u8..=16,
        seed in any::<u64>(),
        zero_eighths in 0u64..=8,
        rank_draw in any::<u64>(),
        keys in proptest::collection::vec(any::<u64>(), 0..2_000),
    ) {
        let sketch = arbitrary_sketch(p, seed, zero_eighths, 1 + rank_draw % (53 - u64::from(p)));
        prop_assert_eq!(sketch.estimate().to_bits(), reference_estimate(&sketch).to_bits());
        prop_assert_eq!(sketch.count(), reference_estimate(&sketch).round() as u64);
        let mut hashed = HyperLogLog::new(p).unwrap();
        hashed.extend(keys);
        prop_assert_eq!(hashed.estimate().to_bits(), reference_estimate(&hashed).to_bits());
    }
}
