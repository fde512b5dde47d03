//! Integration tests for the cache's tiers: concurrent probe/put over
//! the split locks, and property checks that eviction follows the eq. (1)
//! cost&size and eq. (2) GPU scoring of the shared `EvictionPolicy`.

use memphis_core::cache::config::CacheConfig;
use memphis_core::cache::entry::CachedObject;
use memphis_core::cache::{Admit, LineageCache};
use memphis_core::lineage::LineageItem;
use memphis_core::EvictionPolicy;
use memphis_matrix::Matrix;
use proptest::prelude::*;
use std::sync::Arc;

// ----------------------------------------------------------------------
// Concurrent probe/put smoke test over the split locks
// ----------------------------------------------------------------------

#[test]
fn concurrent_probe_put_smoke() {
    let mut cfg = CacheConfig::test();
    cfg.local_budget = 64 << 10;
    let cache = Arc::new(LineageCache::new(cfg));
    let threads = 4;
    let rounds = 200;

    std::thread::scope(|s| {
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            s.spawn(move || {
                for i in 0..rounds {
                    // Shared keys collide across threads; private keys
                    // churn the local tier through its budget.
                    let shared = LineageItem::leaf(&format!("shared{}", i % 8));
                    let private = LineageItem::leaf(&format!("t{t}_i{i}"));
                    let m = Matrix::zeros(8, 8);
                    cache.put(
                        &shared,
                        CachedObject::Matrix(Arc::new(m.clone())),
                        Admit::new(2.0, m.size_bytes()),
                    );
                    cache.put(
                        &private,
                        CachedObject::Matrix(Arc::new(m)),
                        Admit::new(1.0, 512),
                    );
                    let _ = cache.probe(&shared);
                    let _ = cache.probe(&private);
                }
            });
        }
    });

    // Per-tier accounting stayed within budget and the probe map is
    // consistent with the attached tiers.
    for s in cache.backend_snapshots() {
        if s.budget != usize::MAX {
            assert!(
                s.used <= s.budget,
                "{} used {} exceeds budget {}",
                s.id,
                s.used,
                s.budget
            );
        }
    }
    assert!(cache.stats().hits > 0, "shared keys must produce hits");
}

// ----------------------------------------------------------------------
// Eviction-order and budget properties
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streaming puts of equal-size entries with distinct costs and room
    /// for all but one: the single eviction must pick the minimum eq. (1)
    /// score, i.e. the cheapest entry.
    #[test]
    fn eviction_order_follows_eq1(costs in proptest::collection::vec(1.0f64..1000.0, 3..10)) {
        // Index-scaled epsilon keeps scores distinct even if the
        // generator repeats a value, so the victim is unambiguous.
        let costs: Vec<f64> = costs
            .iter()
            .enumerate()
            .map(|(i, c)| c + i as f64 * 1e-3)
            .collect();
        // The eviction fires while the last entry is admitted, so the
        // victim is the minimum score among the already-present entries.
        let min_idx = costs[..costs.len() - 1]
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();

        let size = Matrix::zeros(8, 8).size_bytes();
        let mut cfg = CacheConfig::test();
        cfg.spill_to_disk = false;
        cfg.local_budget = size * (costs.len() - 1);
        let cache = LineageCache::new(cfg);
        let items: Vec<_> = (0..costs.len())
            .map(|i| LineageItem::leaf(&format!("m{i}")))
            .collect();
        for (item, cost) in items.iter().zip(&costs) {
            let m = Matrix::zeros(8, 8);
            cache.put(item, CachedObject::Matrix(Arc::new(m)), Admit::new(*cost, size));
        }
        for (i, item) in items.iter().enumerate() {
            let hit = cache.probe(item).is_some();
            if i == min_idx {
                prop_assert!(!hit, "minimum-score entry must be evicted");
            } else {
                prop_assert!(hit, "higher-score entries must survive");
            }
        }
    }

    /// After every put, every bounded tier's accounted bytes stay within
    /// its budget (spill enabled: drops flow into the disk tier).
    #[test]
    fn per_backend_used_within_budget(
        sizes in proptest::collection::vec(1usize..64, 1..30),
        budget_kb in 4usize..32,
    ) {
        let mut cfg = CacheConfig::test();
        cfg.local_budget = budget_kb << 10;
        let cache = LineageCache::new(cfg);
        for (i, rows) in sizes.iter().enumerate() {
            let m = Matrix::zeros(*rows, 8);
            let item = LineageItem::leaf(&format!("s{i}"));
            cache.put(&item, CachedObject::Matrix(Arc::new(m)), Admit::new(1.0, rows * 64));
            for s in cache.backend_snapshots() {
                if s.budget != usize::MAX {
                    prop_assert!(s.used <= s.budget, "{} over budget", s.id);
                }
            }
        }
    }

    /// Eq. (2) ordering: staler, shorter-lineage, cheaper pointers score
    /// lower (are recycled/freed first).
    #[test]
    fn gpu_score_monotonic_in_eq2_terms(
        last in 0u64..100,
        clock in 100u64..200,
        height in 1u32..50,
        cost in 0.0f64..100.0,
    ) {
        let max_cost = 100.0;
        let s = EvictionPolicy::gpu_score(last, clock, height, cost, max_cost);
        prop_assert!(EvictionPolicy::gpu_score(last + 1, clock, height, cost, max_cost) >= s);
        prop_assert!(EvictionPolicy::gpu_score(last, clock, height + 1, cost, max_cost) <= s);
        prop_assert!(EvictionPolicy::gpu_score(last, clock, height, cost + 1.0, max_cost) >= s);
    }
}
