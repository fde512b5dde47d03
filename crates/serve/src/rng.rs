//! Decision-kind salts of the serving layer's SplitMix64 decision
//! hashing ([`memphis_matrix::hash::hash4`], the same idiom as
//! `memphis_sparksim::fault`): every probabilistic serving decision
//! (task faults, arrival jitter, request shapes) is a pure function of
//! `(seed, salt, coordinates)`, so a run is bit-identical across
//! repetitions and worker-thread counts.

/// Decision-kind salts (arbitrary, distinct).
pub(crate) mod salt {
    /// Per-attempt request fault decisions.
    pub const FAULT: u64 = 0x5e7e;
    /// Open-loop arrival-gap jitter.
    pub const ARRIVAL: u64 = 0xa771;
    /// Request shape (priority, item, size, service time).
    pub const SHAPE: u64 = 0x51a9;
    /// Skewed-trace tenant draw.
    pub const TENANT: u64 = 0xc1a0_0001;
    /// Skewed-trace hot-or-cold decision.
    pub const SKEW: u64 = 0xc1a0_0002;
    /// Skewed-trace draw among the hot items.
    pub const HOT: u64 = 0xc1a0_0003;
    /// Skewed-trace draw among the cold items.
    pub const COLD: u64 = 0xc1a0_0004;
}

#[cfg(test)]
mod tests {
    use super::*;
    use memphis_matrix::hash::decide4;

    #[test]
    fn decisions_are_pure_and_uniformish() {
        assert_eq!(
            decide4(42, salt::FAULT, [1, 2, 3, 4]),
            decide4(42, salt::FAULT, [1, 2, 3, 4])
        );
        assert_ne!(
            decide4(42, salt::FAULT, [1, 2, 3, 4]),
            decide4(42, salt::ARRIVAL, [1, 2, 3, 4])
        );
        let n = 4000;
        let mean = (0..n)
            .map(|i| decide4(7, salt::SHAPE, [i, 0, 0, 0]))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from uniform");
    }
}
