//! Concurrency stress suite for the sharded lineage cache: racing
//! prefetches collapse to one Spark job, concurrent probes of the same
//! lineage id compute exactly once, and a seeded multi-threaded
//! probe/put/evict mix preserves the coalescing and accounting
//! invariants at any thread count (run under `CHAOS_SEED` 42 and 1337
//! by `ci.sh`, parallel and single-threaded).

use memphis_core::cache::config::CacheConfig;
use memphis_core::cache::entry::CachedObject;
use memphis_core::cache::{Admit, LineageCache, Probed};
use memphis_core::lineage::{LItem, LineageItem};
use memphis_engine::{EngineConfig, ExecutionContext, ReuseMode};
use memphis_integration::chaos_seed;
use memphis_matrix::Matrix;
use memphis_sparksim::SparkConfig;
use memphis_workloads::harness::Backends;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

fn payload() -> Matrix {
    Matrix::zeros(16, 16)
}

// ----------------------------------------------------------------------
// Regression: racing prefetches of one lineage run one Spark job
// ----------------------------------------------------------------------

/// Before in-flight coalescing, two prefetch threads racing on the same
/// `collect` lineage both probed, both missed, and both ran the Spark
/// job (the old racing-prefetch double-compute). The in-flight marker
/// makes the loser block on the winner, so any number of sessions
/// prefetching the same RDD runs exactly one collect job.
#[test]
fn racing_prefetches_run_one_spark_job() {
    let sessions = 8;
    let b = Backends::with_spark(SparkConfig::local_test());
    let cache = {
        let mut c = memphis_core::cache::LineageCache::new(CacheConfig::test());
        c = c.with_spark(b.sc.clone().unwrap());
        Arc::new(c)
    };
    let (x, _) = memphis_workloads::data::regression(64, 8, 0.1, chaos_seed());
    let jobs_before = b.sc.as_ref().unwrap().stats().jobs;

    let start = Barrier::new(sessions);
    let checks: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..sessions)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let sc = b.sc.clone();
                let x = x.clone();
                let start = &start;
                s.spawn(move || {
                    let mut cfg = EngineConfig::test().with_reuse(ReuseMode::Memphis);
                    cfg.async_ops = true;
                    cfg.spark_threshold_bytes = 512; // X becomes an RDD
                    let mut ctx = ExecutionContext::new(cfg, cache, sc, None);
                    ctx.read("X", x, "conc/prefetch/X").unwrap();
                    start.wait();
                    ctx.prefetch("X").unwrap();
                    // Forces the future join (and the PUT of the result).
                    ctx.get_matrix("X").unwrap().get(0, 0).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let jobs = b.sc.as_ref().unwrap().stats().jobs - jobs_before;
    assert_eq!(
        jobs, 1,
        "{sessions} racing prefetches of one lineage must run exactly one collect job"
    );
    for c in &checks {
        assert_eq!(*c, checks[0], "all sessions must see the same matrix");
    }
    let s = cache.stats();
    assert_eq!(s.hits + s.misses, s.probes);
}

// ----------------------------------------------------------------------
// Regression: concurrent probes of one lineage id compute once
// ----------------------------------------------------------------------

/// The core double-compute fix: with every session probing the same item
/// simultaneously and the owner completing only once all others are
/// parked, exactly one computation runs and every other session gets a
/// coalesced hit.
#[test]
fn concurrent_probes_compute_exactly_once() {
    let sessions = 8usize;
    let cache = Arc::new(LineageCache::new(CacheConfig::test()));
    let item = LineageItem::leaf("conc/once");
    let computes = AtomicU64::new(0);
    let coalesced = AtomicU64::new(0);
    let start = Barrier::new(sessions);

    std::thread::scope(|s| {
        for _ in 0..sessions {
            let cache = Arc::clone(&cache);
            let item = item.clone();
            let computes = &computes;
            let coalesced = &coalesced;
            let start = &start;
            s.spawn(move || {
                start.wait();
                match cache.probe_or_begin(&item) {
                    Probed::Compute(g) => {
                        while cache.inflight_waiters(&item) < (sessions as u64) - 1 {
                            std::thread::yield_now();
                        }
                        computes.fetch_add(1, Ordering::Relaxed);
                        let m = payload();
                        let size = m.size_bytes();
                        cache.complete(
                            g,
                            CachedObject::Matrix(Arc::new(m)),
                            Admit::new(10.0, size),
                        );
                    }
                    Probed::Coalesced(_) => {
                        coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                    Probed::Hit(_) => panic!("no plain hit is possible before completion"),
                }
            });
        }
    });

    assert_eq!(computes.load(Ordering::Relaxed), 1);
    assert_eq!(coalesced.load(Ordering::Relaxed), sessions as u64 - 1);
    let s = cache.stats();
    assert_eq!(s.coalesced_hits, sessions as u64 - 1);
    assert_eq!(s.inflight_waits, sessions as u64 - 1);
    assert_eq!(s.inflight_begins, 1);
    assert_eq!(s.hits + s.misses, s.probes);
}

/// A dropped guard (failed computation) must wake waiters to retry, not
/// deadlock them or hand them a result.
#[test]
fn abandoned_computation_wakes_waiters_to_retry() {
    let cache = Arc::new(LineageCache::new(CacheConfig::test()));
    let item = LineageItem::leaf("conc/abandon");

    let guard = match cache.probe_or_begin(&item) {
        Probed::Compute(g) => g,
        _ => unreachable!("first probe owns the computation"),
    };
    let waiter = {
        let cache = Arc::clone(&cache);
        let item = item.clone();
        std::thread::spawn(move || match cache.probe_or_begin(&item) {
            // After the abandon, the waiter retries and becomes the
            // owner itself.
            Probed::Compute(g) => {
                let m = payload();
                let size = m.size_bytes();
                cache.complete(g, CachedObject::Matrix(Arc::new(m)), Admit::new(1.0, size));
                true
            }
            _ => false,
        })
    };
    while cache.inflight_waiters(&item) < 1 {
        std::thread::yield_now();
    }
    drop(guard); // abandon
    assert!(waiter.join().unwrap(), "waiter must take over ownership");
    assert!(cache.probe(&item).is_some());
    assert_eq!(cache.stats().inflight_abandoned, 1);
}

// ----------------------------------------------------------------------
// Seeded multi-threaded stress: mixed probe/put/evict under pressure
// ----------------------------------------------------------------------

/// Outcome of one stress run; the deterministic fields must not depend
/// on the thread count.
#[derive(Debug, PartialEq, Eq)]
struct StressOutcome {
    distinct_shared_computes: usize,
    concurrent_duplicates: u64,
    probes: u64,
    puts: u64,
}

/// Runs `threads` sessions over one cache: each sweeps a rotated order
/// of `shared` pinned items (compute-on-ownership) interleaved with
/// private churn puts against a budget sized to force eviction, plus
/// occasional unpins/re-pins of its least-recently-touched shared item.
fn stress(threads: usize, shared: usize, churn: usize, seed: u64) -> StressOutcome {
    let psize = payload().size_bytes();
    let mut cfg = CacheConfig::test();
    cfg.spill_to_disk = false;
    // Room for the pinned shared set plus one churn round; every thread
    // writes `churn` private entries, so the tier turns over many times
    // while always keeping more headroom than threads in flight.
    cfg.local_budget = psize * (shared + churn);
    let cache = Arc::new(LineageCache::new(cfg));

    let ledger: Mutex<(HashMap<usize, u64>, HashSet<usize>, u64)> =
        Mutex::new((HashMap::new(), HashSet::new(), 0));
    let start = Barrier::new(threads);

    std::thread::scope(|s| {
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            let ledger = &ledger;
            let start = &start;
            s.spawn(move || {
                start.wait();
                for r in 0..churn {
                    // Shared sweep step: session-rotated index, order
                    // further scrambled by the seed.
                    let idx = (t + r + seed as usize) % shared;
                    let item: LItem = LineageItem::leaf(&format!("stress/shared{idx}"));
                    match cache.probe_or_begin(&item) {
                        Probed::Hit(_) | Probed::Coalesced(_) => {}
                        Probed::Compute(g) => {
                            {
                                let mut led = ledger.lock().unwrap();
                                if !led.1.insert(idx) {
                                    led.2 += 1;
                                }
                            }
                            let m = payload();
                            // Pinned completion: the shared set can never
                            // be evicted, so each id computes exactly once
                            // globally.
                            cache.complete(
                                g,
                                CachedObject::Matrix(Arc::new(m)),
                                Admit {
                                    pin: true,
                                    ..Admit::new(50.0, psize)
                                },
                            );
                            let mut led = ledger.lock().unwrap();
                            led.1.remove(&idx);
                            *led.0.entry(idx).or_insert(0) += 1;
                        }
                    }
                    // Private churn put: drives the local tier through
                    // its budget, forcing evictions of unpinned entries.
                    let churn_item = LineageItem::leaf(&format!("stress/churn_t{t}_r{r}"));
                    cache.put(
                        &churn_item,
                        CachedObject::Matrix(Arc::new(payload())),
                        Admit::new(1.0, psize),
                    );
                    let _ = cache.probe(&churn_item);
                }
            });
        }
    });

    // No deadlock (we got here), accounting within budget.
    for s in cache.backend_snapshots() {
        if s.budget != usize::MAX {
            assert!(s.used <= s.budget, "{} over budget", s.id);
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, stats.probes);
    // Pinned shared entries all survived the churn.
    for idx in 0..shared {
        assert!(
            cache
                .probe(&LineageItem::leaf(&format!("stress/shared{idx}")))
                .is_some(),
            "pinned shared{idx} must survive eviction pressure"
        );
    }

    let led = ledger.into_inner().unwrap();
    StressOutcome {
        distinct_shared_computes: led.0.len(),
        concurrent_duplicates: led.2,
        probes: stats.probes,
        puts: stats.puts,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// 8-32 threads, seeded: no concurrent duplicate computation of a
    /// shared id, every shared id computed exactly once (pinned entries
    /// defer eviction), and the deterministic counters depend only on
    /// the workload shape — not on the thread count or interleaving.
    #[test]
    fn stress_invariants_hold_at_any_thread_count(
        threads in 8usize..33,
        shared in 4usize..13,
    ) {
        let churn = 48;
        let seed = chaos_seed();
        let o = stress(threads, shared, churn, seed);
        prop_assert_eq!(o.concurrent_duplicates, 0);
        prop_assert_eq!(o.distinct_shared_computes, shared);
        // Per thread and round: one shared probe_or_begin, one churn
        // probe. Churn puts all count; shared completes count once per
        // distinct id.
        let expected_probes = (threads * churn * 2) as u64;
        prop_assert_eq!(o.probes, expected_probes);
        let expected_puts = (threads * churn + shared) as u64;
        prop_assert_eq!(o.puts, expected_puts);
    }
}

/// The same workload shape must produce identical deterministic
/// counters at different thread counts: per-thread work is fixed, so
/// the totals are pure functions of (threads, shared, churn) and any
/// interleaving-dependence would show up as a mismatch.
#[test]
fn stress_counters_invariant_across_thread_counts() {
    let seed = chaos_seed();
    let a = stress(8, 8, 32, seed);
    let b = stress(32, 8, 32, seed);
    assert_eq!(a.concurrent_duplicates, 0);
    assert_eq!(b.concurrent_duplicates, 0);
    assert_eq!(a.distinct_shared_computes, 8);
    assert_eq!(b.distinct_shared_computes, 8);
    // Probes and puts scale linearly in the thread count; normalized
    // per-thread they are identical.
    assert_eq!(a.probes / 8, b.probes / 32);
    assert_eq!((a.puts - 8) / 8, (b.puts - 8) / 32);
}

// ----------------------------------------------------------------------
// Observability: a waiter's inflight_wait span overlaps the owner
// ----------------------------------------------------------------------

/// Under a 2-session rendezvous, the waiter's `cache/inflight_wait` span
/// must exist and the waiter must register as a coalesced hit — the
/// span is what makes a stalled serving session diagnosable in traces.
#[test]
fn inflight_wait_span_recorded_for_coalesced_probe() {
    // The obs recorder is process-global; serialize with other obs
    // tests via a file lock on the recorder itself being drained.
    memphis_obs::enable();
    let _ = memphis_obs::drain();

    let cache = Arc::new(LineageCache::new(CacheConfig::test()));
    let item = LineageItem::leaf("conc/obs");
    let guard = match cache.probe_or_begin(&item) {
        Probed::Compute(g) => g,
        _ => unreachable!(),
    };
    let waiter = {
        let cache = Arc::clone(&cache);
        let item = item.clone();
        std::thread::spawn(move || matches!(cache.probe_or_begin(&item), Probed::Coalesced(_)))
    };
    while cache.inflight_waiters(&item) < 1 {
        std::thread::yield_now();
    }
    let m = payload();
    let size = m.size_bytes();
    cache.complete(
        guard,
        CachedObject::Matrix(Arc::new(m)),
        Admit::new(1.0, size),
    );
    assert!(waiter.join().unwrap(), "second probe coalesces");

    let trace = memphis_obs::drain();
    memphis_obs::disable();
    // The recorder is process-global and sibling tests may run in
    // parallel, so assert presence, not exact counts.
    let waits = trace.spans(memphis_obs::cat::CACHE, "inflight_wait");
    assert!(!waits.is_empty(), "coalesced probe records a wait span");
    let probes = trace.spans(memphis_obs::cat::CACHE, "probe");
    assert!(probes.len() >= 2, "both probes traced");
}
