//! Multi-session serving harness: N session threads sharing one lineage
//! cache, exercising the sharded probe map and in-flight coalescing under
//! eviction pressure.
//!
//! The harness runs four phases:
//!
//! 1. **Rendezvous** — every session probes the same lineage item at
//!    once. Exactly one becomes the owner; it waits (spinning on
//!    [`LineageCache::inflight_waiters`]) until all other sessions are
//!    parked on the in-flight marker, then completes. This makes the
//!    coalesced-hit count deterministic: `sessions - 1`.
//! 2. **Shared working set** — sessions sweep a common set of lineage
//!    items in rotated orders. Whoever wins ownership computes and
//!    completes (the first few pinned at admission with
//!    [`Admit::pin`]); everyone else hits or coalesces. An overlap set
//!    tracks concurrent computations of the same id — with coalescing
//!    it must stay empty.
//! 3. **Pipeline mix + churn** — each session builds its own
//!    [`ExecutionContext`](memphis_engine::ExecutionContext) over the
//!    shared cache and runs one of the
//!    paper's pipelines (hcv / pnmf / hband / tlvis), then churns
//!    session-private puts to drive the local tier through its budget.
//!    Sessions assigned the same pipeline share lineage end-to-end, so
//!    their checksums must agree.
//! 4. **Verify** — after joining, pinned shared entries must still be
//!    resident (eviction deferred), and the global counters must satisfy
//!    `hits + misses == probes`.

use crate::pipelines;
use memphis_core::cache::config::CacheConfig;
use memphis_core::cache::entry::CachedObject;
use memphis_core::cache::{Admit, LineageCache, Probed};
use memphis_core::lineage::{LItem, LineageItem};
use memphis_core::stats::ReuseStatsSnapshot;
use memphis_matrix::Matrix;
use memphis_obs::cat;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Parameters of one serving run.
#[derive(Debug, Clone)]
pub struct ServeParams {
    /// Concurrent session threads.
    pub sessions: usize,
    /// Base seed; also selects each session's pipeline.
    pub seed: u64,
    /// Size of the shared working set swept in phase 2.
    pub shared_items: usize,
    /// Leading shared items pinned on completion (must survive churn).
    pub pinned_items: usize,
    /// Session-private churn puts in phase 3 (eviction pressure).
    pub churn_rounds: usize,
    /// Local-tier budget in bytes (small => churn evicts).
    pub local_budget: usize,
    /// Probe-map shards.
    pub shards: usize,
}

impl ServeParams {
    /// Small deterministic configuration for tests.
    pub fn test(sessions: usize, seed: u64) -> Self {
        Self {
            sessions,
            seed,
            shared_items: 12,
            pinned_items: 3,
            churn_rounds: 64,
            local_budget: 96 << 10,
            shards: 8,
        }
    }

    /// Benchmark scale: more churn, tighter budget relative to traffic.
    pub fn benchmark(sessions: usize, seed: u64) -> Self {
        Self {
            sessions,
            seed,
            shared_items: 32,
            pinned_items: 6,
            churn_rounds: 256,
            local_budget: 256 << 10,
            shards: 16,
        }
    }
}

/// Outcome of one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Session threads that ran.
    pub sessions: usize,
    /// Wall-clock for all phases.
    pub elapsed: Duration,
    /// Coalesced hits observed in the rendezvous phase (deterministic:
    /// `sessions - 1`).
    pub rendezvous_coalesced: u64,
    /// Distinct shared-working-set ids computed at least once.
    pub unique_shared_computes: u64,
    /// Shared-set completions beyond the first per id (recompute after
    /// eviction; legal, but bounded).
    pub shared_recomputes: u64,
    /// Times a session began computing a shared id while another
    /// session's computation of the same id was still in flight. The
    /// coalescing protocol makes this impossible; must be 0.
    pub duplicate_shared_computes: u64,
    /// Pinned shared entries still resident after churn.
    pub pinned_survivors: usize,
    /// Per-session `(pipeline, checksum)` pairs, in session order.
    pub checks: Vec<(String, f64)>,
    /// Global cache counters at the end of the run.
    pub reuse: ReuseStatsSnapshot,
}

impl ServeReport {
    /// True when every deterministic serving invariant holds.
    pub fn invariants_hold(&self, p: &ServeParams) -> bool {
        self.rendezvous_coalesced == (p.sessions as u64).saturating_sub(1)
            && self.duplicate_shared_computes == 0
            && self.unique_shared_computes == p.shared_items as u64
            && self.pinned_survivors == p.pinned_items
            && self.reuse.hits + self.reuse.misses == self.reuse.probes
    }
}

/// Shared-compute bookkeeping: per-id completion counts plus the set of
/// ids currently being computed (to detect concurrent duplicates).
#[derive(Default)]
struct SharedLedger {
    counts: HashMap<usize, u64>,
    in_progress: HashSet<usize>,
    duplicates: u64,
}

/// Deterministic payload of shared item `idx` (seeded matrix).
fn shared_payload(idx: usize) -> Matrix {
    crate::data::embeddings(16, 16, 0x5EED + idx as u64)
}

fn shared_item(idx: usize) -> LItem {
    LineageItem::leaf(&format!("serve/shared{idx}"))
}

/// Runs one serving experiment and reports its counters.
pub fn run_serve(p: &ServeParams) -> ServeReport {
    let _serve_span = memphis_obs::span(cat::SERVE, "serve");
    let t0 = Instant::now();

    let mut cfg = CacheConfig::test();
    cfg.local_budget = p.local_budget;
    cfg.shards = p.shards;
    // Eviction means gone: survival of a pinned entry is then exactly
    // "eviction was deferred", not "it came back from disk".
    cfg.spill_to_disk = false;
    let cache = Arc::new(LineageCache::new(cfg));

    let start = Barrier::new(p.sessions);
    let rendezvous_item = LineageItem::leaf("serve/rendezvous");
    let rendezvous_coalesced = AtomicU64::new(0);
    let ledger = Mutex::new(SharedLedger::default());
    let mut checks: Vec<(String, f64)> = Vec::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p.sessions);
        for s in 0..p.sessions {
            let cache = Arc::clone(&cache);
            let start = &start;
            let rendezvous_item = &rendezvous_item;
            let rendezvous_coalesced = &rendezvous_coalesced;
            let ledger = &ledger;
            handles.push(scope.spawn(move || {
                let _session_span = memphis_obs::span(cat::SERVE, "session");
                start.wait();
                run_rendezvous(&cache, rendezvous_item, p, rendezvous_coalesced);
                run_shared_sweep(&cache, p, s, ledger);
                run_session_pipeline(&cache, p, s)
            }));
        }
        for h in handles {
            checks.push(h.join().expect("session thread panicked"));
        }
    });

    // Phase 4: verification on the joined state.
    let pinned_survivors = (0..p.pinned_items)
        .filter(|i| cache.probe(&shared_item(*i)).is_some())
        .count();
    for i in 0..p.pinned_items {
        cache.unpin(&shared_item(i));
    }

    let ledger = ledger.into_inner();
    let unique = ledger.counts.len() as u64;
    let recomputes: u64 = ledger.counts.values().map(|c| c.saturating_sub(1)).sum();
    memphis_obs::instant_val(
        cat::SERVE,
        "coalesced",
        "n",
        rendezvous_coalesced.load(Ordering::Relaxed),
    );

    ServeReport {
        sessions: p.sessions,
        elapsed: t0.elapsed(),
        rendezvous_coalesced: rendezvous_coalesced.load(Ordering::Relaxed),
        unique_shared_computes: unique,
        shared_recomputes: recomputes,
        duplicate_shared_computes: ledger.duplicates,
        pinned_survivors,
        checks,
        reuse: cache.stats(),
    }
}

/// Outcome of a warm-restart run ([`run_warm_restart`]).
#[derive(Debug, Clone)]
pub struct WarmRestartReport {
    /// Shared entries spilled to the durable tier before the restart.
    pub spilled_before_restart: u64,
    /// Durable entries rebuilt into the probe map at restart.
    pub entries_recovered: u64,
    /// Recovered entries promoted straight back to driver memory.
    pub entries_rehydrated: u64,
    /// Post-restart probes served by materializing a durable entry.
    pub disk_warm_hits: u64,
    /// Shared ids computed at least once after the restart (the ids the
    /// crash lost; warm ids must not appear here).
    pub phase_b_computes: u64,
    /// Concurrent duplicate computations of one shared id after the
    /// restart; coalescing makes this impossible — must be 0.
    pub duplicate_shared_computes: u64,
    /// Maximum completions of any single shared id after the restart
    /// (exactly-once: must be <= 1).
    pub max_completions_per_id: u64,
    /// Global cache counters of the restarted cache.
    pub reuse: ReuseStatsSnapshot,
}

/// Serving warm restart: phase A completes the shared working set over a
/// persistent disk tier whose local budget is too small to hold it —
/// every entry is re-probed (proven) immediately, so eq. (1) eviction
/// spills instead of dropping — then the cache is dropped mid-workload
/// (the restart). Phase B reopens the same directory and runs the
/// concurrent shared sweep: recovered entries serve warm hits from disk
/// (or from memory, if rehydrated), lost entries are computed exactly
/// once under in-flight coalescing.
pub fn run_warm_restart(p: &ServeParams, dir: &std::path::Path) -> WarmRestartReport {
    let _span = memphis_obs::span(cat::SERVE, "warm_restart");
    let payload_bytes = shared_payload(0).size_bytes();

    // Phase A: warm the durable tier. The budget holds only a third of
    // the shared set, so completing the full set evicts — and, because
    // every entry is proven by its immediate re-probe, spills — the rest.
    let spilled_before_restart;
    {
        let mut cfg = CacheConfig::test();
        cfg.persist_dir = Some(dir.to_path_buf());
        cfg.local_budget = (p.shared_items * payload_bytes) / 3;
        cfg.shards = p.shards;
        let cache = LineageCache::new(cfg);
        for idx in 0..p.shared_items {
            if let Probed::Compute(guard) = cache.probe_or_begin(&shared_item(idx)) {
                let m = shared_payload(idx);
                let size = m.size_bytes();
                cache.complete(
                    guard,
                    CachedObject::Matrix(Arc::new(m)),
                    Admit::new(100.0, size),
                );
            }
            // Prove reuse before eviction pressure reaches this entry.
            cache.probe(&shared_item(idx)).expect("just completed");
        }
        spilled_before_restart = cache.stats().local_spills;
        // Dropping the cache is the restart: resident entries are lost,
        // the durable tier keeps everything spilled so far.
    }

    // Phase B: reopen over the surviving files. A small rehydration
    // budget promotes the hottest couple of entries eagerly; the rest
    // stay on disk and must serve warm hits lazily.
    let mut cfg = CacheConfig::test();
    cfg.persist_dir = Some(dir.to_path_buf());
    cfg.local_budget = p.local_budget;
    cfg.shards = p.shards;
    cfg.rehydrate_budget = Some(2 * payload_bytes);
    let cache = Arc::new(LineageCache::new(cfg));
    let entries_recovered = cache.stats().entries_recovered;
    let entries_rehydrated = cache.stats().entries_rehydrated;

    let start = Barrier::new(p.sessions);
    let ledger = Mutex::new(SharedLedger::default());
    std::thread::scope(|scope| {
        for s in 0..p.sessions {
            let cache = Arc::clone(&cache);
            let start = &start;
            let ledger = &ledger;
            scope.spawn(move || {
                start.wait();
                run_shared_sweep(&cache, p, s, ledger);
            });
        }
    });
    for i in 0..p.pinned_items {
        cache.unpin(&shared_item(i));
    }

    let ledger = ledger.into_inner();
    let reuse = cache.stats();
    WarmRestartReport {
        spilled_before_restart,
        entries_recovered,
        entries_rehydrated,
        disk_warm_hits: reuse.hits_disk,
        phase_b_computes: ledger.counts.len() as u64,
        duplicate_shared_computes: ledger.duplicates,
        max_completions_per_id: ledger.counts.values().copied().max().unwrap_or(0),
        reuse,
    }
}

/// Phase 1: all sessions collide on one item; the owner completes only
/// once every other session is parked on the in-flight marker.
fn run_rendezvous(cache: &LineageCache, item: &LItem, p: &ServeParams, coalesced: &AtomicU64) {
    let _span = memphis_obs::span(cat::SERVE, "rendezvous");
    match cache.probe_or_begin(item) {
        Probed::Compute(guard) => {
            // Every non-owner session is guaranteed to reach the marker
            // (no session can pass rendezvous before it resolves), so
            // this spin terminates.
            while cache.inflight_waiters(item) < (p.sessions as u64).saturating_sub(1) {
                std::thread::yield_now();
            }
            let m = shared_payload(0);
            let size = m.size_bytes();
            cache.complete(
                guard,
                CachedObject::Matrix(Arc::new(m)),
                Admit::new(50.0, size),
            );
        }
        Probed::Coalesced(_) => {
            coalesced.fetch_add(1, Ordering::Relaxed);
        }
        Probed::Hit(_) => {
            // Unreachable by construction (the owner waits for everyone),
            // but a plain hit is not an invariant violation — just not a
            // coalesced one, which the report's invariant check catches.
        }
    }
}

/// Phase 2: sweep the shared working set in a session-rotated order,
/// computing-on-ownership and recording concurrent duplicates.
fn run_shared_sweep(cache: &LineageCache, p: &ServeParams, s: usize, ledger: &Mutex<SharedLedger>) {
    let _span = memphis_obs::span(cat::SERVE, "shared_sweep");
    for j in 0..p.shared_items {
        let idx = (s + j) % p.shared_items;
        let item = shared_item(idx);
        match cache.probe_or_begin(&item) {
            Probed::Hit(_) | Probed::Coalesced(_) => {}
            Probed::Compute(guard) => {
                {
                    let mut led = ledger.lock();
                    if !led.in_progress.insert(idx) {
                        led.duplicates += 1;
                    }
                }
                let m = shared_payload(idx);
                let size = m.size_bytes();
                let obj = CachedObject::Matrix(Arc::new(m));
                // High cost keeps unpinned shared entries score-favoured
                // over cheap churn, without exempting them from eviction.
                let admit = Admit {
                    pin: idx < p.pinned_items,
                    ..Admit::new(100.0, size)
                };
                cache.complete(guard, obj, admit);
                let mut led = ledger.lock();
                led.in_progress.remove(&idx);
                *led.counts.entry(idx).or_insert(0) += 1;
            }
        }
    }
}

/// Phase 3: run the session's pipeline over the shared cache, then churn
/// private puts through the local budget.
fn run_session_pipeline(cache: &Arc<LineageCache>, p: &ServeParams, s: usize) -> (String, f64) {
    let _span = memphis_obs::span(cat::SERVE, "pipeline");
    let kind = pipelines::session_kind(p.seed, s);
    let mut ctx = pipelines::session_context(cache);
    let check = pipelines::run_session_kind(&mut ctx, kind).expect("serving pipeline failed");

    let _churn_span = memphis_obs::span(cat::SERVE, "churn");
    for r in 0..p.churn_rounds {
        let item = LineageItem::leaf(&format!("serve/churn_s{s}_r{r}"));
        let m = Matrix::zeros(16, 16);
        let size = m.size_bytes();
        cache.put(
            &item,
            CachedObject::Matrix(Arc::new(m)),
            Admit::new(1.0, size),
        );
    }
    (kind.to_string(), check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_coalesces_and_defers_pinned_eviction() {
        let p = ServeParams::test(4, 42);
        let r = run_serve(&p);
        assert!(r.invariants_hold(&p), "invariants failed: {r:?}");
        assert_eq!(r.rendezvous_coalesced, 3);
        assert_eq!(r.duplicate_shared_computes, 0);
        assert_eq!(r.pinned_survivors, p.pinned_items);
        assert!(r.reuse.coalesced_hits >= 3);
    }

    #[test]
    fn same_pipeline_sessions_agree_on_checksums() {
        // 8 sessions, 4 pipelines: each pipeline runs twice; both runs
        // share lineage through the common cache and must agree.
        let p = ServeParams::test(8, 7);
        let r = run_serve(&p);
        let mut by_kind: HashMap<&str, Vec<f64>> = HashMap::new();
        for (k, c) in &r.checks {
            by_kind.entry(k.as_str()).or_default().push(*c);
        }
        assert_eq!(by_kind.len(), 4);
        for (k, cs) in by_kind {
            assert_eq!(cs.len(), 2);
            assert!(
                (cs[0] - cs[1]).abs() < 1e-9,
                "{k} checksums diverged: {cs:?}"
            );
        }
    }

    #[test]
    fn warm_restart_serves_disk_hits_exactly_once() {
        let p = ServeParams::test(4, 42);
        let dir = std::env::temp_dir().join(format!("memphis_warm_restart_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = run_warm_restart(&p, &dir);
        let _ = std::fs::remove_dir_all(&dir);

        assert!(r.spilled_before_restart > 0, "{r:?}");
        assert_eq!(r.entries_recovered, r.spilled_before_restart, "{r:?}");
        assert!(r.entries_rehydrated > 0, "{r:?}");
        assert!(r.disk_warm_hits > 0, "{r:?}");
        assert_eq!(r.duplicate_shared_computes, 0, "{r:?}");
        assert!(r.max_completions_per_id <= 1, "{r:?}");
        // Everything the restart lost is computed; everything durable is
        // served warm.
        assert_eq!(
            r.phase_b_computes + r.entries_recovered,
            p.shared_items as u64,
            "{r:?}"
        );
        assert_eq!(r.reuse.hits + r.reuse.misses, r.reuse.probes, "{r:?}");
    }

    #[test]
    fn single_session_degenerates_cleanly() {
        let p = ServeParams::test(1, 1);
        let r = run_serve(&p);
        assert_eq!(r.rendezvous_coalesced, 0);
        assert!(r.invariants_hold(&p));
    }
}
