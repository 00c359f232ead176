//! Request-key distributions: uniform, (scrambled) zipfian, and latest.
//!
//! These mirror YCSB's `UniformGenerator`, `ScrambledZipfianGenerator` and
//! `SkewedLatestGenerator`. The zipfian generator uses the Gray/Jacobson
//! incremental method so that the item count can grow as the run phase
//! inserts new records, exactly like YCSB does.

use rand::Rng;

use crate::DEFAULT_ZIPFIAN_CONSTANT;

/// Which request distribution the run phase draws keys from.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Distribution {
    /// Every existing key is equally likely to be chosen.
    #[default]
    Uniform,
    /// A scrambled power-law over the key space: a few keys are hot
    /// regardless of when they were inserted. `theta` is the zipfian
    /// constant (YCSB default 0.99).
    Zipfian {
        /// The zipfian skew constant, in `(0, 1)`.
        theta: f64,
    },
    /// A power-law over recency: the most recently inserted keys are the
    /// hottest (YCSB's `latest` distribution).
    Latest,
}

impl Distribution {
    /// The paper's three distributions with YCSB-default parameters.
    #[must_use]
    pub fn zipfian_default() -> Self {
        Distribution::Zipfian {
            theta: DEFAULT_ZIPFIAN_CONSTANT,
        }
    }

    /// Short lowercase name, used in experiment reports ("uniform",
    /// "zipfian", "latest").
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Distribution::Uniform => "uniform",
            Distribution::Zipfian { .. } => "zipfian",
            Distribution::Latest => "latest",
        }
    }
}

impl std::fmt::Display for Distribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Chooses which existing key an update/read/delete targets.
///
/// Implementations are stateful because the zipfian normalization constant
/// is maintained incrementally as the key space grows.
pub trait KeyChooser: std::fmt::Debug {
    /// Draws a key index in `0..item_count`.
    ///
    /// `item_count` is the number of keys currently present in the
    /// database (load-phase records plus run-phase inserts so far). It is
    /// always at least 1.
    fn next_key<R: Rng + ?Sized>(&mut self, rng: &mut R, item_count: u64) -> u64
    where
        Self: Sized;
}

/// Uniform key chooser: every key equally likely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UniformChooser;

impl KeyChooser for UniformChooser {
    fn next_key<R: Rng + ?Sized>(&mut self, rng: &mut R, item_count: u64) -> u64 {
        rng.gen_range(0..item_count.max(1))
    }
}

/// Zipfian key chooser using the Gray et al. incremental algorithm, with
/// FNV-style scrambling so that hot keys are spread over the key space
/// (YCSB's `ScrambledZipfianGenerator`).
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfianChooser {
    theta: f64,
    /// Number of items zeta was computed for.
    count_for_zeta: u64,
    zeta_n: f64,
    zeta2: f64,
    alpha: f64,
    eta: f64,
    scramble: bool,
}

impl ZipfianChooser {
    /// Creates a chooser with the given zipfian constant, scrambling item
    /// ranks over the key space.
    #[must_use]
    pub fn new(theta: f64) -> Self {
        Self {
            theta,
            count_for_zeta: 0,
            zeta_n: 0.0,
            zeta2: zeta_static(2, theta),
            alpha: 1.0 / (1.0 - theta),
            eta: 0.0,
            scramble: true,
        }
    }

    /// Creates an unscrambled chooser (rank 0 is always the hottest key).
    /// Used by the latest distribution, which maps rank to recency.
    #[must_use]
    pub fn new_unscrambled(theta: f64) -> Self {
        let mut c = Self::new(theta);
        c.scramble = false;
        c
    }

    fn update_zeta(&mut self, n: u64) {
        if n == self.count_for_zeta {
            return;
        }
        if n > self.count_for_zeta {
            // Incremental extension of the zeta sum.
            let mut zeta = self.zeta_n;
            for i in self.count_for_zeta..n {
                zeta += 1.0 / ((i + 1) as f64).powf(self.theta);
            }
            self.zeta_n = zeta;
        } else {
            // Shrinking the item count is rare (never happens in YCSB);
            // recompute from scratch for correctness.
            self.zeta_n = zeta_static(n, self.theta);
        }
        self.count_for_zeta = n;
        self.eta =
            (1.0 - (2.0 / n as f64).powf(1.0 - self.theta)) / (1.0 - self.zeta2 / self.zeta_n);
    }

    /// Draws a zipfian rank in `0..n` (0 = hottest).
    fn next_rank<R: Rng + ?Sized>(&mut self, rng: &mut R, n: u64) -> u64 {
        let n = n.max(1);
        if n == 1 {
            return 0;
        }
        self.update_zeta(n);
        let u: f64 = rng.gen();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(n - 1)
    }
}

impl KeyChooser for ZipfianChooser {
    fn next_key<R: Rng + ?Sized>(&mut self, rng: &mut R, item_count: u64) -> u64 {
        let n = item_count.max(1);
        let rank = self.next_rank(rng, n);
        if self.scramble {
            // Spread the hot ranks over the key space deterministically.
            fnv_scramble(rank) % n
        } else {
            rank
        }
    }
}

/// Latest-distribution chooser: zipfian over recency, so the most recently
/// inserted keys are the most popular.
#[derive(Debug, Clone, PartialEq)]
pub struct LatestChooser {
    zipf: ZipfianChooser,
}

impl LatestChooser {
    /// Creates a latest chooser with the YCSB-default zipfian constant.
    #[must_use]
    pub fn new() -> Self {
        Self {
            zipf: ZipfianChooser::new_unscrambled(DEFAULT_ZIPFIAN_CONSTANT),
        }
    }
}

impl Default for LatestChooser {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyChooser for LatestChooser {
    fn next_key<R: Rng + ?Sized>(&mut self, rng: &mut R, item_count: u64) -> u64 {
        let n = item_count.max(1);
        let recency_rank = self.zipf.next_rank(rng, n);
        // Rank 0 = newest key = highest key id.
        n - 1 - recency_rank
    }
}

/// A unified chooser that dispatches on [`Distribution`].
#[derive(Debug, Clone, PartialEq)]
pub enum AnyChooser {
    /// Uniform.
    Uniform(UniformChooser),
    /// Scrambled zipfian.
    Zipfian(ZipfianChooser),
    /// Latest (zipfian over recency).
    Latest(LatestChooser),
}

impl AnyChooser {
    /// Builds the stateful chooser for a distribution.
    #[must_use]
    pub fn for_distribution(dist: Distribution) -> Self {
        match dist {
            Distribution::Uniform => AnyChooser::Uniform(UniformChooser),
            Distribution::Zipfian { theta } => AnyChooser::Zipfian(ZipfianChooser::new(theta)),
            Distribution::Latest => AnyChooser::Latest(LatestChooser::new()),
        }
    }

    /// Draws a key in `0..item_count`.
    pub fn next_key<R: Rng + ?Sized>(&mut self, rng: &mut R, item_count: u64) -> u64 {
        match self {
            AnyChooser::Uniform(c) => c.next_key(rng, item_count),
            AnyChooser::Zipfian(c) => c.next_key(rng, item_count),
            AnyChooser::Latest(c) => c.next_key(rng, item_count),
        }
    }
}

/// `zeta(n, theta) = sum_{i=1..n} 1 / i^theta`, computed from scratch.
fn zeta_static(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// FNV-1a-style 64-bit scramble used to spread zipfian ranks over the key
/// space (mirrors YCSB's `FNVhash64`).
fn fnv_scramble(value: u64) -> u64 {
    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = FNV_OFFSET;
    let mut v = value;
    for _ in 0..8 {
        let octet = v & 0xFF;
        v >>= 8;
        hash ^= octet;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn histogram<C: KeyChooser>(chooser: &mut C, n: u64, draws: usize) -> HashMap<u64, usize> {
        let mut rng = StdRng::seed_from_u64(7);
        let mut hist = HashMap::new();
        for _ in 0..draws {
            *hist.entry(chooser.next_key(&mut rng, n)).or_insert(0) += 1;
        }
        hist
    }

    #[test]
    fn uniform_stays_in_range_and_covers_keys() {
        let mut c = UniformChooser;
        let hist = histogram(&mut c, 100, 20_000);
        assert!(hist.keys().all(|&k| k < 100));
        // Every key should appear at least once with overwhelming probability.
        assert!(hist.len() > 95);
        // No key should be wildly over-represented under uniform.
        let max = *hist.values().max().unwrap();
        assert!(max < 500, "max bucket {max} too large for uniform");
    }

    #[test]
    fn zipfian_is_skewed() {
        let mut c = ZipfianChooser::new(0.99);
        let hist = histogram(&mut c, 1_000, 50_000);
        let mut counts: Vec<usize> = hist.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_10: usize = counts.iter().take(10).sum();
        // The 10 hottest keys should receive a large share of requests.
        assert!(
            top_10 as f64 / 50_000.0 > 0.2,
            "zipfian not skewed enough: top-10 share {}",
            top_10 as f64 / 50_000.0
        );
    }

    #[test]
    fn latest_prefers_recent_keys() {
        let mut c = LatestChooser::new();
        let n = 1_000;
        let hist = histogram(&mut c, n, 50_000);
        let recent: usize = (n - 50..n)
            .map(|k| hist.get(&k).copied().unwrap_or(0))
            .sum();
        let old: usize = (0..50).map(|k| hist.get(&k).copied().unwrap_or(0)).sum();
        assert!(
            recent > old * 5,
            "latest distribution should favour recent keys: recent={recent} old={old}"
        );
    }

    #[test]
    fn zipfian_handles_growing_item_count() {
        let mut c = ZipfianChooser::new(0.99);
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1u64, 2, 10, 100, 1_000, 10_000] {
            for _ in 0..100 {
                let k = c.next_key(&mut rng, n);
                assert!(k < n);
            }
        }
    }

    #[test]
    fn zipfian_handles_shrinking_item_count() {
        let mut c = ZipfianChooser::new(0.99);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(c.next_key(&mut rng, 10_000) < 10_000);
        }
        for _ in 0..100 {
            assert!(c.next_key(&mut rng, 10) < 10);
        }
    }

    #[test]
    fn single_item_always_key_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(UniformChooser.next_key(&mut rng, 1), 0);
        assert_eq!(ZipfianChooser::new(0.99).next_key(&mut rng, 1), 0);
        assert_eq!(LatestChooser::new().next_key(&mut rng, 1), 0);
    }

    #[test]
    fn distribution_names() {
        assert_eq!(Distribution::Uniform.name(), "uniform");
        assert_eq!(Distribution::zipfian_default().name(), "zipfian");
        assert_eq!(Distribution::Latest.to_string(), "latest");
    }

    #[test]
    fn fnv_scramble_is_deterministic_and_spreading() {
        assert_eq!(fnv_scramble(5), fnv_scramble(5));
        assert_ne!(fnv_scramble(0), fnv_scramble(1));
    }
}
