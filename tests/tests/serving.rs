//! Serving-layer integration: the scheduler's determinism contract and
//! the multi-tenant isolation acceptance property, chaos-seeded like
//! `concurrency.rs` (`CHAOS_SEED` selects the trace/fault seed; `ci.sh`
//! runs 42 and 1337).
//!
//! The contract under test: all scheduling decisions are made by the
//! dispatcher over virtual time, so every deterministic counter and
//! every per-request outcome is a pure function of (trace seed, config)
//! — the worker-thread count may only change wall clock.

use memphis_core::cache::config::CacheConfig;
use memphis_core::cache::LineageCache;
use memphis_integration::chaos_seed;
use memphis_serve::{
    open_loop, Outcome, Priority, Scheduler, ServeConfig, ServeReport, StreamSpec,
};
use memphis_sparksim::FaultPlan;
use proptest::prelude::*;
use std::sync::Arc;

/// The hog tenant in [`spec`]'s stream (private items, 4x memory).
const HOG: u16 = 3;

fn spec(requests: usize) -> StreamSpec {
    StreamSpec {
        requests,
        deadline_slack: 3,
        ..StreamSpec::test()
    }
}

/// One serving run: a mixed multi-tenant open-loop trace with a
/// cache-hogging tenant under a soft quota, a local budget tight enough
/// to evict and pressurize the monitor, and a per-attempt transient
/// fault rate (the same shape as the committed bench gate).
fn run(seed: u64, requests: usize, workers: usize, fault_rate: f64) -> ServeReport {
    let mut ccfg = CacheConfig::test();
    ccfg.local_budget = 24 << 10;
    ccfg.spill_to_disk = false;
    let cache = Arc::new(LineageCache::new(ccfg));

    let mut cfg = ServeConfig::test();
    cfg.workers = workers;
    cfg.slots = 2;
    cfg.tenant_quotas.insert(HOG, 4 << 10);
    cfg.faults = FaultPlan::seeded(seed).with_task_failure_rate(fault_rate);

    Scheduler::new(cache, cfg).run(open_loop(seed, &spec(requests)))
}

fn assert_invariants(r: &ServeReport, label: &str) {
    assert_eq!(r.counters.duplicates, 0, "{label}: duplicate computes");
    assert!(r.hard_caps_respected(), "{label}: hard cap overshoot");
    assert!(
        r.counters.terminally_complete(),
        "{label}: an admitted request starved"
    );
    assert!(r.invariants_hold(), "{label}: serving invariants failed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Worker-count invariance: for any worker-pool size, the full
    /// deterministic counter slice and the per-request outcome map are
    /// identical to the single-worker run of the same seeded scenario.
    #[test]
    fn counters_and_outcomes_invariant_under_worker_count(
        workers in 1usize..9,
        fault_tenths in 0u32..4,
    ) {
        let seed = chaos_seed();
        let fault_rate = f64::from(fault_tenths) / 10.0;
        let reference = run(seed, 48, 1, fault_rate);
        let varied = run(seed, 48, workers, fault_rate);
        prop_assert_eq!(
            reference.counters.deterministic_slice(),
            varied.counters.deterministic_slice()
        );
        prop_assert_eq!(&reference.outcomes, &varied.outcomes);
        assert_invariants(&varied, "proptest");
    }
}

/// Same scenario, same seed, run twice back to back: bit-identical
/// reports (outcomes, counters, tenant high-water marks).
#[test]
fn repeat_runs_are_bit_identical() {
    let seed = chaos_seed();
    let a = run(seed, 64, 4, 0.1);
    let b = run(seed, 64, 4, 0.1);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(
        a.tenants.iter().map(|t| t.high_water).collect::<Vec<_>>(),
        b.tenants.iter().map(|t| t.high_water).collect::<Vec<_>>()
    );
    assert_invariants(&a, "repeat");
}

/// The acceptance property from the issue: with one tenant hogging the
/// cache past its quota AND a 30% transient-fault rate, higher-priority
/// on-time requests of other tenants still complete. A shed is only
/// legal for an interactive request already past its deadline, the hog
/// pays the quota evictions, and at least 7 of 8 admitted non-hog
/// interactive requests complete.
#[test]
fn isolation_under_hog_and_faults() {
    let seed = chaos_seed();
    let requests = 96;
    let r = run(seed, requests, 4, 0.3);
    assert_invariants(&r, "isolation");
    assert!(r.counters.retries > 0, "30% faults must force retries");
    assert!(
        r.counters.quota_evictions > 0,
        "the over-quota hog must pay quota evictions"
    );

    let trace = open_loop(seed, &spec(requests));
    let mut admitted = 0u64;
    let mut completed = 0u64;
    for req in &trace {
        if req.tenant == HOG || req.priority != Priority::Interactive {
            continue;
        }
        let o = r.outcome_of(req.id).expect("every request has an outcome");
        if !o.was_admitted() {
            continue;
        }
        admitted += 1;
        match o {
            Outcome::Completed { .. } => completed += 1,
            Outcome::Shed { at } => assert!(
                at > req.deadline,
                "interactive request {} shed while still on time",
                req.id
            ),
            Outcome::Failed { .. } => {} // genuine fault exhaustion
            _ => unreachable!("admitted outcomes only"),
        }
    }
    assert!(
        admitted > 0 && completed * 8 >= admitted * 7,
        "non-hog interactive traffic must overwhelmingly complete \
         ({completed}/{admitted})"
    );
}

/// Fault-free runs never retry, never fail, and complete every admitted
/// request; the shared items coalesce or hit instead of recomputing.
#[test]
fn fault_free_run_is_clean() {
    let seed = chaos_seed();
    let r = run(seed, 48, 4, 0.0);
    assert_invariants(&r, "fault-free");
    assert_eq!(r.counters.retries, 0);
    assert_eq!(r.counters.failed, 0);
    assert!(
        r.counters.hits + r.counters.coalesced > 0,
        "shared items must reuse across requests"
    );
}

/// Warm restart across the durable tier: a serving cache spills its
/// proven shared working set, restarts, and the recovered tier serves
/// warm hits while the coalescing ledger proves exactly-once compute of
/// everything the restart lost (seeded by `CHAOS_SEED` like the rest of
/// the suite).
#[test]
fn warm_restart_recovers_shared_set_with_exactly_once_compute() {
    let seed = chaos_seed();
    let p = memphis_workloads::serve::ServeParams::test(6, seed);
    let dir = std::env::temp_dir().join(format!(
        "memphis_serving_warm_restart_{seed}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let r = memphis_workloads::serve::run_warm_restart(&p, &dir);
    let _ = std::fs::remove_dir_all(&dir);

    // The restart must actually cross the durable tier...
    assert!(r.spilled_before_restart > 0, "{r:?}");
    assert_eq!(r.entries_recovered, r.spilled_before_restart, "{r:?}");
    assert!(r.disk_warm_hits > 0, "warm hits must come from disk: {r:?}");
    // ...and the ledger must show exactly-once compute of the lost ids.
    assert_eq!(r.duplicate_shared_computes, 0, "{r:?}");
    assert!(r.max_completions_per_id <= 1, "{r:?}");
    assert_eq!(
        r.phase_b_computes + r.entries_recovered,
        p.shared_items as u64,
        "computed exactly the ids the restart lost: {r:?}"
    );
    assert_eq!(r.reuse.checksum_rejects, 0, "{r:?}");
    assert_eq!(r.reuse.hits + r.reuse.misses, r.reuse.probes, "{r:?}");
}
