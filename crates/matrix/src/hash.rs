//! The workspace's one home for non-cryptographic hashing: the
//! SplitMix64 finalizer behind every seeded decision, FNV-1a for
//! content hashes and digests, and the two decision-hash shapes built
//! from them.
//!
//! Every formula here is pinned: lineage content hashes, matrix
//! fingerprints, served digests, fault schedules and the gated counters
//! are all functions of these bits, so a change to any of them is a
//! re-baseline.

/// The SplitMix64 increment (2^64 / φ, odd).
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Multiplier of the served-object digests (cluster, latency and
/// dispatcher folds). It is *not* [`FNV_PRIME`] — it has one more hex
/// zero — but those digests are pinned, so it stays.
pub const DIGEST_MUL: u64 = 0x1000_0000_01b3;

/// Salt multiplier of the four-coordinate decision hash.
const SALT_MUL: u64 = 0xa076_1d64_78bd_642f;

/// SplitMix64 finalizer: a bijective avalanche mix that turns
/// `(seed, coordinates)` into an i.i.d.-looking decision stream.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Byte-wise FNV-1a: folds `bytes` into the running hash `h` (start
/// from [`FNV_OFFSET`]).
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Word-wise fold `h ^= w; h *= mul`: the order-sensitive digest of a
/// stream of 64-bit values ([`FNV_PRIME`] or [`DIGEST_MUL`]).
#[inline]
pub fn fold(h: u64, w: u64, mul: u64) -> u64 {
    (h ^ w).wrapping_mul(mul)
}

/// A hash's top 53 bits as a uniform value in `[0, 1)`.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Decision hash of the seed, a per-decision-kind salt and four
/// coordinates (sparksim fault plans, the serving layer).
#[inline]
pub fn hash4(seed: u64, salt: u64, coords: [u64; 4]) -> u64 {
    let mut h = mix(seed ^ salt.wrapping_mul(SALT_MUL));
    for c in coords {
        h = mix(h ^ c);
    }
    h
}

/// [`hash4`] as a uniform value in `[0, 1)`.
#[inline]
pub fn decide4(seed: u64, salt: u64, coords: [u64; 4]) -> f64 {
    unit(hash4(seed, salt, coords))
}

/// Decision hash of the seed, a salt and one coordinate (the cluster
/// and latency harnesses).
#[inline]
pub fn hash1(seed: u64, salt: u64, coord: u64) -> u64 {
    mix(mix(seed ^ mix(salt)) ^ coord)
}

/// [`hash1`] as a uniform value in `[0, 1)`.
#[inline]
pub fn decide1(seed: u64, salt: u64, coord: u64) -> f64 {
    unit(hash1(seed, salt, coord))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_values() {
        // SplitMix64's published first output for state 0.
        assert_eq!(mix(0), 0xe220_a839_7b1d_cdaf);
        // FNV-1a test vectors: "" and "a".
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fold(FNV_OFFSET, 0x61, FNV_PRIME), fnv1a(FNV_OFFSET, b"a"));
    }
}
