//! Dense register storage for HyperLogLog sketches.

use crate::{Error, MAX_PRECISION, MIN_PRECISION};

/// Dense array of HyperLogLog registers.
///
/// A sketch with precision `p` owns `m = 2^p` registers; register `j`
/// stores the maximum observed "rank" (number of leading zeros plus one of
/// the hash suffix) among all values routed to bucket `j`. Ranks never
/// exceed `64 - p + 1 ≤ 61`, so a byte per register is ample.
///
/// `Registers` is intentionally a thin, reusable building block: the
/// estimation maths lives in [`HyperLogLog`](crate::HyperLogLog).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registers {
    precision: u8,
    slots: Vec<u8>,
}

impl Registers {
    /// Creates `2^precision` zeroed registers.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidPrecision`] if `precision` is outside
    /// `MIN_PRECISION..=MAX_PRECISION`.
    ///
    /// # Examples
    ///
    /// ```
    /// let regs = hll::Registers::new(8)?;
    /// assert_eq!(regs.len(), 256);
    /// # Ok::<(), hll::Error>(())
    /// ```
    pub fn new(precision: u8) -> Result<Self, Error> {
        if !(MIN_PRECISION..=MAX_PRECISION).contains(&precision) {
            return Err(Error::InvalidPrecision {
                requested: precision,
            });
        }
        Ok(Self {
            precision,
            slots: vec![0; 1usize << precision],
        })
    }

    /// The precision `p` these registers were created with.
    #[must_use]
    pub fn precision(&self) -> u8 {
        self.precision
    }

    /// Number of registers (`m = 2^p`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if every register is still zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|&r| r == 0)
    }

    /// Value of register `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn get(&self, index: usize) -> u8 {
        self.slots[index]
    }

    /// Raises register `index` to `rank` if `rank` is larger than the
    /// current value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn observe(&mut self, index: usize, rank: u8) {
        let slot = &mut self.slots[index];
        if rank > *slot {
            *slot = rank;
        }
    }

    /// Register-wise maximum with `other`, the lossless HyperLogLog union.
    ///
    /// # Errors
    ///
    /// Returns [`Error::PrecisionMismatch`] if the two register arrays have
    /// different precisions.
    pub fn merge_from(&mut self, other: &Self) -> Result<(), Error> {
        self.same_precision(other)?;
        for (dst, &src) in self.slots.iter_mut().zip(&other.slots) {
            if src > *dst {
                *dst = src;
            }
        }
        Ok(())
    }

    /// How many registers of the register-wise maximum of `self` and
    /// `other` hold each rank, counted in one pass without building that
    /// maximum (`x.max_rank_histogram(x)` describes `x`). Four interleaved
    /// tables keep consecutive increments off one counter.
    pub(crate) fn max_rank_histogram(&self, other: &Self) -> Result<[u32; 256], Error> {
        self.same_precision(other)?;
        let mut lanes = [[0u32; 256]; 4];
        // `2^p` with `p ≥ MIN_PRECISION` is a multiple of 4: no remainder.
        for (a, b) in self.slots.chunks_exact(4).zip(other.slots.chunks_exact(4)) {
            for (lane, (&x, &y)) in lanes.iter_mut().zip(a.iter().zip(b)) {
                lane[usize::from(x.max(y))] += 1;
            }
        }
        Ok(std::array::from_fn(|rank| {
            lanes.iter().map(|lane| lane[rank]).sum()
        }))
    }

    fn same_precision(&self, other: &Self) -> Result<(), Error> {
        if self.precision == other.precision {
            return Ok(());
        }
        Err(Error::PrecisionMismatch {
            left: self.precision,
            right: other.precision,
        })
    }

    /// Iterates over the raw register values.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.slots.iter().copied()
    }

    /// Resets every register to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_bad_precision() {
        assert!(matches!(
            Registers::new(3),
            Err(Error::InvalidPrecision { requested: 3 })
        ));
        assert!(matches!(
            Registers::new(19),
            Err(Error::InvalidPrecision { requested: 19 })
        ));
        assert!(Registers::new(4).is_ok());
        assert!(Registers::new(18).is_ok());
    }

    #[test]
    fn observe_keeps_maximum() {
        let mut r = Registers::new(4).unwrap();
        r.observe(3, 5);
        r.observe(3, 2);
        assert_eq!(r.get(3), 5);
        r.observe(3, 9);
        assert_eq!(r.get(3), 9);
    }

    #[test]
    fn merge_is_register_wise_max() {
        let mut a = Registers::new(4).unwrap();
        let mut b = Registers::new(4).unwrap();
        a.observe(0, 7);
        b.observe(0, 3);
        b.observe(1, 4);
        a.merge_from(&b).unwrap();
        assert_eq!(a.get(0), 7);
        assert_eq!(a.get(1), 4);
    }

    #[test]
    fn merge_rejects_mismatched_precision() {
        let mut a = Registers::new(4).unwrap();
        let b = Registers::new(5).unwrap();
        assert!(matches!(
            a.merge_from(&b),
            Err(Error::PrecisionMismatch { left: 4, right: 5 })
        ));
    }

    #[test]
    fn histogram_counts_ranks_and_clear_empties() {
        let mut r = Registers::new(4).unwrap();
        assert_eq!(r.max_rank_histogram(&r).unwrap()[0], 16);
        r.observe(2, 1);
        r.observe(7, 3);
        r.observe(15, 255);
        let histogram = r.max_rank_histogram(&r).unwrap();
        assert_eq!(
            (histogram[0], histogram[1], histogram[3], histogram[255]),
            (13, 1, 1, 1)
        );
        assert!(!r.is_empty());
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.max_rank_histogram(&r).unwrap()[0], 16);
    }

    #[test]
    fn histogram_of_two_arrays_counts_their_maximum() {
        let mut a = Registers::new(4).unwrap();
        let mut b = Registers::new(4).unwrap();
        a.observe(0, 7);
        b.observe(0, 3);
        b.observe(1, 4);
        let histogram = a.max_rank_histogram(&b).unwrap();
        assert_eq!((histogram[0], histogram[4], histogram[7]), (14, 1, 1));
        assert_eq!(
            histogram[3], 0,
            "the smaller rank of a register is not counted"
        );
        assert!(matches!(
            a.max_rank_histogram(&Registers::new(5).unwrap()),
            Err(Error::PrecisionMismatch { left: 4, right: 5 })
        ));
    }
}
