//! Seeded generator randomness: SplitMix64 streams derived from the
//! workload seed. Only the input generators draw from it.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `seed`, separated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(mix(seed ^ mix(salt)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A skewed index in `0..n`: `n * u^skew`, so low indices repeat
    /// often and the tail is rarely drawn.
    pub fn skewed(&mut self, n: usize, skew: f64) -> usize {
        ((n as f64 * self.unit().powf(skew)) as usize).min(n - 1)
    }
}

/// SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A sub-seed of `seed` for generator `salt` and index `i`.
pub fn derive(seed: u64, salt: u64, i: u64) -> u64 {
    mix(mix(seed ^ mix(salt)) ^ i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(8, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn skewed_prefers_low_indices() {
        let mut r = Rng::new(1, 2);
        let draws: Vec<usize> = (0..10_000).map(|_| r.skewed(100, 3.0)).collect();
        assert!(draws.iter().all(|&d| d < 100));
        let low = draws.iter().filter(|&&d| d < 10).count();
        let high = draws.iter().filter(|&&d| d >= 90).count();
        assert!(low > 4 * high, "low={low} high={high}");
    }
}
