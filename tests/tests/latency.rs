//! Latency-aware eviction/admission integration: TTNA tracking, the
//! delayed-hits score, MURS-style admission shedding, and the policy
//! switch — chaos-seeded like `concurrency.rs` (`CHAOS_SEED` selects
//! the trace seed; `ci.sh` runs 42 and 1337).
//!
//! The contract under test: `CachePolicy` is a *cost model* switch,
//! never a correctness switch. Both policies serve bit-identical byte
//! streams on any trace; `Paper` keeps the three delayed-hits counters
//! at exactly zero; an entry with no observed coalescing pressure
//! scores exactly eq. (1) under either policy; and on the gated skewed
//! trace the delayed-hits score strictly cuts the p99 of per-arrival
//! virtual latency.

use memphis_core::cache::entry::{CacheEntry, TTNA_ALPHA};
use memphis_core::{
    Admit, CacheConfig, CachePolicy, CachedObject, EvictionPolicy, LineageCache, LineageItem,
    MemoryPressure, Probed, ReuseStats,
};
use memphis_integration::chaos_seed;
use memphis_workloads::latency::{latency_payload, LatencyParams};
use memphis_workloads::{percentile, run_latency};
use proptest::prelude::*;
use std::sync::Arc;

fn payload(i: usize) -> CachedObject {
    latency_payload(0x7e57, i)
}

fn payload_bytes() -> usize {
    match payload(0) {
        CachedObject::Matrix(m) => m.size_bytes(),
        _ => unreachable!(),
    }
}

// ---------------------------------------------------------------------
// TTNA EWMA under a scripted probe sequence
// ---------------------------------------------------------------------

#[test]
fn ttna_ewma_follows_scripted_probe_gaps() {
    let item = LineageItem::leaf("latency/ttna_script");
    let mut e = CacheEntry::cached(&item, payload(0), 10.0, 1 << 10);

    // No probes yet: TTNA is unknown, not zero.
    assert_eq!(e.probe_gaps, 0);
    assert!(e.estimated_ttna().is_infinite());

    // First observed probe only seeds the reference tick — one probe
    // is zero gaps.
    e.observe_probe(100);
    assert_eq!(e.probe_gaps, 0);
    assert!(e.estimated_ttna().is_infinite());

    // Second probe: the first gap seeds the EWMA directly.
    e.observe_probe(110);
    assert_eq!(e.probe_gaps, 1);
    assert_eq!(e.estimated_ttna(), 10.0);

    // Third probe: gap 20 folds in at alpha.
    e.observe_probe(130);
    assert_eq!(e.probe_gaps, 2);
    let want = TTNA_ALPHA * 20.0 + (1.0 - TTNA_ALPHA) * 10.0;
    assert!((e.estimated_ttna() - want).abs() < 1e-12);

    // A stale clock (same tick) must not record a zero gap.
    e.observe_probe(130);
    assert_eq!(e.probe_gaps, 2);

    // A long absence drags the estimate up toward the new gap.
    e.observe_probe(1130);
    let want = TTNA_ALPHA * 1000.0 + (1.0 - TTNA_ALPHA) * want;
    assert!((e.estimated_ttna() - want).abs() < 1e-9);
}

#[test]
fn probe_path_feeds_ttna_and_waiters_into_entry_meta() {
    let mut config = CacheConfig::test();
    config.policy = CachePolicy::DelayedHits;
    let cache = LineageCache::new(config);
    let item = LineageItem::leaf("latency/meta");

    let Probed::Compute(g) = cache.probe_or_begin(&item) else {
        panic!("first probe must own the computation");
    };
    cache.complete(g, payload(1), Admit::new(10.0, payload_bytes()));
    cache.note_miss_waiters(&item, 7);

    // Admission seeds the probe tick, so the first post-admission hit
    // already yields a TTNA gap sample.
    assert!(cache.probe(&item).is_some());
    assert!(cache.probe(&item).is_some());
    let meta = cache.entry_reuse_meta(&item).expect("entry resident");
    assert_eq!(meta.miss_waiters, 7);
    assert!(meta.probe_gaps >= 2, "gaps = {}", meta.probe_gaps);
    assert!(meta.ttna_ewma > 0.0);
}

// ---------------------------------------------------------------------
// Zero-pressure fixed point: no waiters => exactly eq. (1)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An entry nobody ever queued behind scores *bit-identically* to
    /// eq. (1) under the delayed-hits model, whatever its TTNA history:
    /// `DelayedHits` extends the paper's score, it never perturbs it.
    #[test]
    fn zero_waiter_entries_score_exactly_eq1(
        hits in 0u64..500,
        misses in 0u64..50,
        jobs in 0u64..20,
        cost in 0.5f64..2000.0,
        size in 1usize..(1 << 20),
        gaps in proptest::collection::vec(1u64..5000, 0..12),
    ) {
        let item = LineageItem::leaf("latency/fixed_point");
        let mut e = CacheEntry::cached(&item, payload(2), cost, size);
        e.hits = hits;
        e.misses = misses;
        e.jobs = jobs;
        let mut clock = 1u64;
        e.observe_probe(clock);
        for g in gaps {
            clock += g;
            e.observe_probe(clock);
        }
        e.miss_waiters = 0;
        prop_assert_eq!(
            EvictionPolicy::delayed_hits_score(&e).to_bits(),
            EvictionPolicy::entry_score(&e).to_bits()
        );
    }

    /// Any generated trace serves the same byte stream under both
    /// policies: eviction order may differ, results may not.
    #[test]
    fn policies_agree_on_served_bytes_for_any_trace(
        seed in 0u64..1 << 48,
        rounds in 20usize..80,
        fanout in 2usize..12,
        fanout_prob in 0.1f64..0.9,
        steady_prob in 0.2f64..0.9,
        cold_prob in 0.0f64..0.3,
        budget_slots in 6usize..20,
        stream_per_round in 0usize..5,
    ) {
        let mut p = LatencyParams::tiny(seed);
        p.rounds = rounds;
        p.warmup_rounds = rounds / 4;
        p.fanout = fanout;
        p.fanout_prob = fanout_prob;
        p.steady_prob = steady_prob;
        p.cold_prob = cold_prob;
        p.budget_slots = budget_slots;
        p.stream_per_round = stream_per_round;
        let paper = run_latency(&p, CachePolicy::Paper);
        let delayed = run_latency(&p, CachePolicy::DelayedHits);
        prop_assert_eq!(paper.digest, delayed.digest);
        prop_assert_eq!(paper.served, delayed.served);
        prop_assert_eq!(paper.latencies.len(), delayed.latencies.len());
        // Paper is the published behavior: its new counters stay zero.
        prop_assert_eq!(paper.reuse.mad_evictions, 0);
        prop_assert_eq!(paper.reuse.ttna_admission_rejects, 0);
        prop_assert_eq!(paper.reuse.delayed_hit_ticks_saved, 0);
    }
}

// ---------------------------------------------------------------------
// MURS-style admission shedding
// ---------------------------------------------------------------------

/// Fills the cache past its budget so `victim` gets drop-evicted (its
/// TTNA lands in the ghost table), then re-puts it under `pressure`.
/// Returns whether the re-put was admitted, plus the cache.
fn evict_then_readmit(policy: CachePolicy, pressure: MemoryPressure) -> (bool, LineageCache) {
    let mut config = CacheConfig::test();
    config.policy = policy;
    config.spill_to_disk = false;
    config.local_budget = 4 * payload_bytes();
    config.shards = 2;
    let cache = LineageCache::new(config);

    let victim = LineageItem::leaf("latency/shed_victim");
    // Never probed after admission: estimated TTNA is unknown
    // (infinite), which any finite expected lifetime rejects.
    assert!(cache.put(&victim, payload(100), Admit::new(5.0, payload_bytes())));
    for i in 0..8 {
        let filler = LineageItem::leaf(&format!("latency/shed_filler{i}"));
        let ok = cache.put(&filler, payload(i), Admit::new(1000.0, payload_bytes()));
        assert!(ok, "filler {i} must admit");
        // Probing builds up refs so fillers out-score the victim.
        assert!(cache.probe(&filler).is_some());
        assert!(cache.probe(&filler).is_some());
    }
    assert!(
        cache.probe(&victim).is_none(),
        "victim must have been evicted by the fillers"
    );

    cache.set_memory_pressure(pressure);
    let readmitted = cache.put(&victim, payload(100), Admit::new(5.0, payload_bytes()));
    (readmitted, cache)
}

#[test]
fn shed_pressure_rejects_readmission_of_distant_ttna_entries() {
    let (readmitted, cache) = evict_then_readmit(CachePolicy::DelayedHits, MemoryPressure::Shed);
    assert!(!readmitted, "Shed + ghost TTNA past lifetime must reject");
    assert_eq!(cache.stats().ttna_admission_rejects, 1);
    assert!(
        cache
            .probe(&LineageItem::leaf("latency/shed_victim"))
            .is_none(),
        "a rejected put must not leave a resident entry"
    );
    assert!(cache.stats().mad_evictions > 0);
}

#[test]
fn normal_pressure_admits_the_same_entry_and_clears_the_ghost() {
    let (readmitted, cache) = evict_then_readmit(CachePolicy::DelayedHits, MemoryPressure::Normal);
    assert!(readmitted, "no pressure: admission must proceed");
    assert_eq!(cache.stats().ttna_admission_rejects, 0);
    assert!(cache
        .probe(&LineageItem::leaf("latency/shed_victim"))
        .is_some());

    // The gate is selective, not a blanket reject: the victim is probed
    // right after readmission, so its second eviction records a *near*
    // ghost TTNA (a one-tick inter-probe gap), and even the Shed window
    // readmits an entry expected back that soon.
    let victim = LineageItem::leaf("latency/shed_victim");
    for i in 8..16 {
        let filler = LineageItem::leaf(&format!("latency/shed_filler{i}"));
        assert!(cache.put(&filler, payload(i), Admit::new(1000.0, payload_bytes())));
        assert!(cache.probe(&filler).is_some());
        assert!(cache.probe(&filler).is_some());
    }
    assert!(cache.probe(&victim).is_none(), "second eviction expected");
    cache.set_memory_pressure(MemoryPressure::Shed);
    assert!(
        cache.put(&victim, payload(100), Admit::new(5.0, payload_bytes())),
        "near-TTNA entries pass the admission gate even under Shed"
    );
    assert_eq!(cache.stats().ttna_admission_rejects, 0);
}

#[test]
fn paper_policy_never_sheds_admissions() {
    let (readmitted, cache) = evict_then_readmit(CachePolicy::Paper, MemoryPressure::Shed);
    assert!(readmitted, "Paper must ignore the admission gate entirely");
    let s = cache.stats();
    assert_eq!(s.ttna_admission_rejects, 0);
    assert_eq!(s.mad_evictions, 0);
    assert_eq!(s.delayed_hit_ticks_saved, 0);
}

#[test]
fn new_counters_flow_through_metrics_registry() {
    let stats = ReuseStats::default();
    let names: Vec<&str> = memphis_obs::IntoMetrics::metrics(&stats.snapshot())
        .into_iter()
        .map(|m| m.0)
        .collect();
    for key in [
        "ttna_admission_rejects",
        "delayed_hit_ticks_saved",
        "mad_evictions",
    ] {
        assert!(
            names.contains(&key),
            "{key} missing from metrics: {names:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Gate-scale trace (CHAOS_SEED-driven, ci.sh runs 42 and 1337)
// ---------------------------------------------------------------------

#[test]
fn gate_scale_p99_drops_under_delayed_hits() {
    let params = LatencyParams::gate(chaos_seed());
    let paper = run_latency(&params, CachePolicy::Paper);
    let delayed = run_latency(&params, CachePolicy::DelayedHits);

    assert_eq!(paper.digest, delayed.digest, "policy changed served bytes");
    assert_eq!(paper.served, delayed.served);
    let (p99_paper, p99_delayed) = (
        percentile(&paper.latencies, 99.0),
        percentile(&delayed.latencies, 99.0),
    );
    assert!(
        p99_delayed < p99_paper,
        "p99 paper={p99_paper} delayed={p99_delayed}"
    );
    assert!(delayed.reuse.mad_evictions > 0);
    assert!(delayed.reuse.ttna_admission_rejects > 0);
    assert!(delayed.reuse.delayed_hit_ticks_saved > 0);
    assert_eq!(paper.reuse.mad_evictions, 0);
    assert_eq!(paper.reuse.ttna_admission_rejects, 0);
    assert_eq!(paper.reuse.delayed_hit_ticks_saved, 0);

    // Full determinism: repeated runs are sample- and counter-exact.
    let again = run_latency(&params, CachePolicy::DelayedHits);
    assert_eq!(again.digest, delayed.digest);
    assert_eq!(again.latencies, delayed.latencies);
    assert_eq!(again.reuse, delayed.reuse);
}

#[test]
fn delayed_hits_protects_coalesced_batches_concurrently() {
    // The miss_waiters feed also works from real concurrent coalescing:
    // many threads stack behind one in-flight compute, and the resolved
    // waiter count lands on the entry.
    let mut config = CacheConfig::test();
    config.policy = CachePolicy::DelayedHits;
    let cache = Arc::new(LineageCache::new(config));
    let item = LineageItem::leaf("latency/conc_batch");

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let item = item.clone();
            std::thread::spawn(move || match cache.probe_or_begin(&item) {
                Probed::Compute(g) => {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    cache.complete(g, payload(3), Admit::new(50.0, 1 << 10));
                    0u64
                }
                // Only coalesced probes actually waited on the flight;
                // a plain hit arrived after completion.
                Probed::Coalesced(_) => 1,
                Probed::Hit(_) => 0,
            })
        })
        .collect();
    let waited: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    let meta = cache.entry_reuse_meta(&item).expect("entry resident");
    assert_eq!(
        meta.miss_waiters, waited,
        "every coalesced waiter must be counted on the entry"
    );
}
