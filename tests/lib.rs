//! Support crate for the cross-crate integration tests (see `tests/tests/`).

/// The seed of the chaos-seeded suites: `CHAOS_SEED` from the
/// environment (`ci.sh` runs the whole suite under 42 and 1337),
/// defaulting to 42.
pub fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// README's Rust examples, compiled and run as doctests so README cannot
/// drift from the code.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
