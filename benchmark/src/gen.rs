//! The benchmark's own seeded load generator.
//!
//! Deliberately independent of `crates/ycsb`: a later change to that
//! crate must not be able to shift the traffic this benchmark offers.
//! Everything here is a pure function of the seed.

/// Bytes in every key: a big-endian `u64`, so byte order is numeric order.
pub const KEY_LEN: usize = 8;
/// Bytes in every value.
pub const VALUE_LEN: usize = 100;
/// User bytes one acknowledged put carries.
pub const RECORD_LEN: u64 = (KEY_LEN + VALUE_LEN) as u64;

/// SplitMix64 (Steele, Lea, Flood 2014): one add and three xor-shift
/// multiplies per draw, full period, and any seed is a good seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for `lane` (a thread, a phase) of `seed`.
    pub fn for_lane(seed: u64, lane: u64) -> Self {
        Self(mix(seed ^ mix(lane.wrapping_add(1))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix_tail(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero. The modulo bias is
    /// below 2⁻⁴⁰ for every `n` this benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn mix_tail(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 output function as a stand-alone 64-bit mixer.
pub fn mix(x: u64) -> u64 {
    mix_tail(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Zipfian ranks over `[0, n)` with exponent `theta`, after Gray et al.,
/// "Quickly generating billion-record synthetic databases" (the YCSB
/// generator): rank 0 is the most popular.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2, "zipfian needs at least two items");
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zeta_n = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zeta_n);
        Self {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zeta_n,
            eta,
        }
    }

    pub fn rank(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// Spreads zipfian ranks over `[0, n)` so popular items are not
/// neighbours in key order. A bijection: `STRIDE` is prime and larger
/// than any `n` in use, hence coprime with it.
pub fn scatter(rank: u64, n: u64) -> u64 {
    const STRIDE: u64 = 2_147_483_647;
    ((rank as u128 * STRIDE as u128) % n as u128) as u64
}

/// The 100-byte value of `(key, version)`: a 16-byte header naming both,
/// 42 pseudo-random bytes, then the key repeated, so a block of values
/// compresses by roughly a third and any row a read returns can be
/// verified without a table of stored bytes.
pub fn value_for(key: u64, version: u32) -> [u8; VALUE_LEN] {
    let mut out = [0u8; VALUE_LEN];
    out[..8].copy_from_slice(&key.to_be_bytes());
    out[8..16].copy_from_slice(&u64::from(version).to_be_bytes());
    let mut rng = SplitMix64::new(key ^ mix(u64::from(version)));
    for chunk in out[16..56].chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let tail = rng.next_u64().to_le_bytes();
    out[56..58].copy_from_slice(&tail[..2]);
    for (i, byte) in out[58..].iter_mut().enumerate() {
        *byte = b'a' + (key.to_be_bytes()[i % KEY_LEN] & 0x0f);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::for_lane(7, 1);
        let mut b = SplitMix64::for_lane(7, 1);
        let mut c = SplitMix64::for_lane(7, 2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = SplitMix64::new(3);
        let mut top10 = 0;
        for _ in 0..100_000 {
            let r = z.rank(&mut rng);
            assert!(r < 10_000);
            if r < 10 {
                top10 += 1;
            }
        }
        // zeta(10)/zeta(10000) at theta 0.99 is about 0.30.
        assert!((25_000..35_000).contains(&top10), "top10 = {top10}");
    }

    #[test]
    fn scatter_is_a_bijection() {
        let n = 10_007;
        let mut seen = vec![false; n as usize];
        for r in 0..n {
            let k = scatter(r, n) as usize;
            assert!(!seen[k]);
            seen[k] = true;
        }
    }

    #[test]
    fn values_differ_by_key_and_version() {
        assert_ne!(value_for(1, 1), value_for(1, 2));
        assert_ne!(value_for(1, 1), value_for(2, 1));
        assert_eq!(value_for(9, 4), value_for(9, 4));
    }
}
