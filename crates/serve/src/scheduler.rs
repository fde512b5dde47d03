//! The virtual-time serving scheduler.
//!
//! All scheduling decisions — admission, queueing, shedding, suspension,
//! retry, and every cache interaction — happen on the dispatcher thread
//! over a virtual tick clock; real worker threads execute only pure
//! payload computation between two sequential phases. Per dispatched
//! batch:
//!
//! 1. **Classify** (dispatcher, in dispatch order): decide the attempt's
//!    transient fault from a SplitMix64 hash of `(request id, attempt)`
//!    (mirroring the PR 2 [`FaultPlan`] task-fault semantics: failures
//!    strike at launch, before side effects); deduplicate same-item
//!    requests within the batch (followers ride the first request's
//!    outcome — serve-level coalescing); probe the shared lineage cache
//!    via [`LineageCache::probe_or_begin`], holding the
//!    [`ComputeGuard`] of every miss.
//! 2. **Execute** (parallel): compute owned payloads and run pipeline
//!    requests on a pool of `workers` threads — the dispatcher itself
//!    plus `workers - 1` scoped helpers, so one worker spawns nothing.
//! 3. **Commit** (dispatcher, in dispatch order): complete each guard,
//!    charging the entry to the request's tenant — so every cache
//!    mutation (admissions, eq. (1)/quota evictions, spills) happens in
//!    a deterministic order.
//!
//! The consequence is the serving determinism the experiments gate on:
//! every counter in [`ServeCounters::deterministic_slice`] is identical
//! across repeated runs *and across worker-thread counts*, because the
//! worker pool never makes a decision — it only burns CPU.
//!
//! Memory pressure measures *unevictable demand* (executing reservations
//! plus queued estimates) against the cache's local budget — see
//! [`crate::pressure`]. A run drains gracefully: arrivals stop, the
//! queue empties, suspended requests are force-resumed once nothing else
//! can lower pressure, and every admitted request reaches exactly one
//! terminal [`Outcome`].

use crate::admission::{TenantCaps, TokenBucket};
use crate::pressure::{PressureLevel, PressureMonitor};
use crate::queue::RequestQueue;
use crate::request::{Outcome, Request, TenantId, Work};
use crate::rng::salt;
use crate::stats::ServeCounters;
use memphis_core::cache::entry::CachedObject;
use memphis_core::cache::{Admit, ComputeGuard, LineageCache, MemoryPressure, Probed};
use memphis_core::lineage::LineageId;
use memphis_core::stats::ReuseStatsSnapshot;
use memphis_matrix::hash::decide4;
use memphis_matrix::Matrix;
use memphis_obs::cat;
use memphis_sparksim::FaultPlan;
use memphis_workloads::pipelines;
use memphis_workloads::serve::{shared_item, shared_payload, SHARED_ITEM_COST};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Virtual execution slots (logical concurrency; determines batch
    /// sizes and queueing delay, independent of real threads).
    pub slots: usize,
    /// Real worker threads for the parallel execute phase.
    pub workers: usize,
    /// Bound of the priority/deadline queue (new admissions only;
    /// retries of already-admitted requests are exempt).
    pub queue_capacity: usize,
    /// Token-bucket burst capacity.
    pub token_capacity: u64,
    /// Token-bucket refill per virtual tick.
    pub tokens_per_tick: u64,
    /// Shed threshold as a fraction of the cache's local budget.
    pub shed_frac: f64,
    /// Suspend threshold as a fraction of the cache's local budget.
    pub suspend_frac: f64,
    /// Requests with `mem_estimate` at or above this are
    /// memory-intensive (suspended while pressure is at suspend).
    pub intensive_bytes: usize,
    /// Hard in-flight memory cap for tenants without an override.
    pub default_tenant_cap: usize,
    /// Per-tenant hard-cap overrides.
    pub tenant_caps: HashMap<TenantId, usize>,
    /// Per-tenant soft cache quotas, applied to the cache at scheduler
    /// construction (see [`LineageCache::set_tenant_quota`]).
    pub tenant_quotas: HashMap<TenantId, usize>,
    /// Retry budget per request (1 = no retries).
    pub max_attempts: u32,
    /// Exponential-backoff base in ticks (attempt n waits
    /// `base << (n-1)`, capped).
    pub backoff_base: u64,
    /// Backoff cap in ticks.
    pub backoff_cap: u64,
    /// Transient-fault plan (PR 2 style); `seed` and
    /// `task_failure_rate` drive per-attempt request faults.
    pub faults: FaultPlan,
}

impl ServeConfig {
    /// Small deterministic configuration for tests.
    pub fn test() -> Self {
        Self {
            slots: 4,
            workers: 4,
            queue_capacity: 32,
            token_capacity: 8,
            tokens_per_tick: 2,
            shed_frac: 0.5,
            suspend_frac: 0.8,
            intensive_bytes: 8 << 10,
            default_tenant_cap: 64 << 10,
            tenant_caps: HashMap::new(),
            tenant_quotas: HashMap::new(),
            max_attempts: 4,
            backoff_base: 2,
            backoff_cap: 32,
            faults: FaultPlan::none(),
        }
    }
}

/// Per-tenant terminal accounting in the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantReport {
    /// Tenant id.
    pub tenant: TenantId,
    /// The tenant's hard in-flight cap.
    pub cap: usize,
    /// High-water mark of the tenant's executing bytes (must stay
    /// `<= cap`).
    pub high_water: usize,
    /// Completed requests.
    pub completed: u64,
    /// Shed requests.
    pub shed: u64,
    /// Requests that exhausted retries.
    pub failed: u64,
    /// Requests rejected at admission (tokens, cap, or queue bound).
    pub rejected: u64,
}

/// Outcome of one scheduler run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Serving counters.
    pub counters: ServeCounters,
    /// `(request id, terminal outcome)` in input order.
    pub outcomes: Vec<(u64, Outcome)>,
    /// Per-tenant rows, sorted by tenant id.
    pub tenants: Vec<TenantReport>,
    /// Pipeline `(kind, checksum)` pairs in completion order.
    pub checks: Vec<(String, f64)>,
    /// Cache counters at the end of the run.
    pub reuse: ReuseStatsSnapshot,
    /// Final virtual time.
    pub ticks: u64,
    /// Wall-clock of the run.
    pub elapsed: Duration,
}

impl ServeReport {
    /// The terminal outcome of request `id`.
    pub fn outcome_of(&self, id: u64) -> Option<Outcome> {
        self.outcomes
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, o)| *o)
    }

    /// Zero hard-cap overshoots: no tenant's executing bytes ever
    /// exceeded its cap.
    pub fn hard_caps_respected(&self) -> bool {
        self.tenants.iter().all(|t| t.high_water <= t.cap)
    }

    /// The deterministic serving invariants: every admitted request
    /// reached exactly one terminal state (nothing starved), no
    /// duplicate computes, and no hard-cap overshoot.
    pub fn invariants_hold(&self) -> bool {
        self.counters.terminally_complete()
            && self.counters.duplicates == 0
            && self.hard_caps_respected()
    }
}

/// Mutable per-request scheduling state.
struct ReqState {
    req: Request,
    attempts: u32,
    started: Option<u64>,
    fault_pending: bool,
    outcome: Option<Outcome>,
}

/// One unit of parallel-phase work.
enum Job {
    /// Compute the payload of a shared item this batch owns.
    Payload { item: usize },
    /// Run a session pipeline end-to-end.
    Pipe { kind: &'static str },
}

/// Result of one [`Job`].
enum JobOut {
    Matrix(Matrix),
    Check(Result<f64, String>),
}

/// The admission-controlled, deadline-aware request scheduler over a
/// shared lineage cache.
pub struct Scheduler {
    cache: Arc<LineageCache>,
    cfg: ServeConfig,
}

impl Scheduler {
    /// Creates a scheduler over `cache`, applying the configured tenant
    /// quotas to it.
    pub fn new(cache: Arc<LineageCache>, cfg: ServeConfig) -> Self {
        for (t, q) in &cfg.tenant_quotas {
            cache.set_tenant_quota(*t, *q);
        }
        Self { cache, cfg }
    }

    /// The shared cache.
    pub fn cache(&self) -> &Arc<LineageCache> {
        &self.cache
    }

    /// The configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Runs the full request trace to drain and reports. Request ids
    /// must be unique.
    pub fn run(&self, requests: Vec<Request>) -> ServeReport {
        let _run_span = memphis_obs::span(cat::SERVE, "serve_run");
        let t0 = Instant::now();
        let reuse_before = self.cache.stats();

        let mut table: Vec<ReqState> = requests
            .into_iter()
            .map(|req| ReqState {
                req,
                attempts: 0,
                started: None,
                fault_pending: false,
                outcome: None,
            })
            .collect();
        let mut by_id: HashMap<u64, usize> = HashMap::new();
        for (i, st) in table.iter().enumerate() {
            assert!(
                by_id.insert(st.req.id, i).is_none(),
                "duplicate request id {}",
                st.req.id
            );
        }
        let mut order: Vec<usize> = (0..table.len()).collect();
        order.sort_by_key(|&i| (table[i].req.arrival, table[i].req.id));

        let monitor = PressureMonitor::new(
            self.cache.config().local_budget,
            self.cfg.shed_frac,
            self.cfg.suspend_frac,
            self.cfg.intensive_bytes,
        );
        let mut bucket = TokenBucket::new(self.cfg.token_capacity, self.cfg.tokens_per_tick);
        let mut caps = TenantCaps::new(self.cfg.default_tenant_cap, self.cfg.tenant_caps.clone());
        let mut queue = RequestQueue::new(self.cfg.queue_capacity);
        let mut suspended: Vec<u64> = Vec::new();
        // Min-heaps over (tick, request id).
        let mut completions: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut retries: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut counters = ServeCounters::default();
        // Keyed on the interned lineage identity: membership checks are
        // integer compares, and the ledger speaks the same key type as the
        // cache it audits.
        let mut computed_before: HashSet<LineageId> = HashSet::new();
        let mut in_progress: HashSet<LineageId> = HashSet::new();
        let mut checks: Vec<(String, f64)> = Vec::new();
        let mut slots_free = self.cfg.slots.max(1);
        let mut inflight_bytes = 0usize;
        let mut ai = 0usize;
        let mut now = 0u64;

        loop {
            // ---- completions due ----
            while let Some(&Reverse((t, id))) = completions.peek() {
                if t > now {
                    break;
                }
                completions.pop();
                let i = by_id[&id];
                let st = &mut table[i];
                let (tenant, mem) = (st.req.tenant, st.req.mem_estimate);
                slots_free += 1;
                inflight_bytes = inflight_bytes.saturating_sub(mem);
                caps.finish(tenant, mem);
                if st.fault_pending {
                    st.fault_pending = false;
                    if st.attempts >= self.cfg.max_attempts {
                        st.outcome = Some(Outcome::Failed {
                            attempts: st.attempts,
                        });
                        counters.failed += 1;
                        caps.uncommit(tenant, mem);
                        memphis_obs::instant_val(
                            cat::SERVE,
                            "request_failed",
                            "attempts",
                            st.attempts as u64,
                        );
                    } else {
                        counters.retries += 1;
                        let exp = st.attempts.saturating_sub(1).min(16);
                        let backoff = self
                            .cfg
                            .backoff_base
                            .saturating_mul(1u64 << exp)
                            .clamp(1, self.cfg.backoff_cap.max(1));
                        retries.push(Reverse((now + backoff, id)));
                        memphis_obs::instant_val(cat::SERVE, "retry", "backoff_ticks", backoff);
                    }
                } else {
                    let started = st.started.unwrap_or(now);
                    let late = started > st.req.deadline;
                    st.outcome = Some(Outcome::Completed {
                        started,
                        finished: now,
                        attempts: st.attempts,
                        late,
                    });
                    counters.completed += 1;
                    if late {
                        counters.completed_late += 1;
                    }
                    caps.uncommit(tenant, mem);
                }
            }

            // ---- retries ready (already admitted: bypass admission and
            // the queue bound, still committed against their cap) ----
            while let Some(&Reverse((t, id))) = retries.peek() {
                if t > now {
                    break;
                }
                retries.pop();
                queue.push(&table[by_id[&id]].req);
            }

            // ---- arrivals ----
            {
                let _adm_span = memphis_obs::span(cat::SERVE, "admission");
                bucket.refill(now);
                while ai < order.len() && table[order[ai]].req.arrival <= now {
                    let i = order[ai];
                    ai += 1;
                    counters.arrivals += 1;
                    let (tenant, mem) = (table[i].req.tenant, table[i].req.mem_estimate);
                    if !bucket.try_take() {
                        table[i].outcome = Some(Outcome::RejectedTokens);
                        counters.rejected_tokens += 1;
                        continue;
                    }
                    if !caps.admits(tenant, mem) {
                        table[i].outcome = Some(Outcome::RejectedCap);
                        counters.rejected_cap += 1;
                        memphis_obs::instant_val(cat::SERVE, "reject_cap", "bytes", mem as u64);
                        continue;
                    }
                    let committed = inflight_bytes + queue.queued_bytes();
                    if monitor.level(committed) >= PressureLevel::Suspend
                        && monitor.is_intensive(mem)
                    {
                        caps.commit(tenant, mem);
                        counters.admitted += 1;
                        counters.suspended += 1;
                        suspended.push(table[i].req.id);
                        memphis_obs::instant_val(cat::SERVE, "suspend", "bytes", mem as u64);
                        continue;
                    }
                    if queue.is_full() {
                        table[i].outcome = Some(Outcome::RejectedQueueFull);
                        counters.rejected_queue_full += 1;
                        continue;
                    }
                    caps.commit(tenant, mem);
                    counters.admitted += 1;
                    queue.push(&table[i].req);
                }
            }

            // ---- resume suspended once pressure drops below suspend ----
            if !suspended.is_empty() {
                let committed = inflight_bytes + queue.queued_bytes();
                if monitor.level(committed) < PressureLevel::Suspend {
                    for id in suspended.drain(..) {
                        counters.resumed += 1;
                        queue.push(&table[by_id[&id]].req);
                    }
                }
            }

            // ---- shed queued past-deadline requests under pressure ----
            {
                let mut committed = inflight_bytes + queue.queued_bytes();
                // Mirror the monitor's level into the cache once per
                // tick so the DelayedHits admission gate (MURS-style
                // TTNA shedding) sees the same pressure the dispatcher
                // acts on. A no-op under the Paper policy.
                self.cache
                    .set_memory_pressure(match monitor.level(committed) {
                        PressureLevel::Normal => MemoryPressure::Normal,
                        PressureLevel::Shed => MemoryPressure::Shed,
                        PressureLevel::Suspend => MemoryPressure::Suspend,
                    });
                if monitor.level(committed) >= PressureLevel::Shed && !queue.is_empty() {
                    let expired = queue.shed_expired(now, |id| table[by_id[&id]].req.mem_estimate);
                    for id in expired {
                        let i = by_id[&id];
                        if monitor.level(committed) < PressureLevel::Shed {
                            // Pressure relieved: the remaining expired
                            // requests keep their chance (they complete
                            // late or shed in a later pass).
                            queue.push(&table[i].req);
                            continue;
                        }
                        let (tenant, mem) = (table[i].req.tenant, table[i].req.mem_estimate);
                        table[i].outcome = Some(Outcome::Shed { at: now });
                        counters.shed += 1;
                        committed = committed.saturating_sub(mem);
                        caps.uncommit(tenant, mem);
                        memphis_obs::instant_val(cat::SERVE, "shed", "bytes", mem as u64);
                    }
                }
            }

            // ---- dispatch a batch into free slots ----
            if slots_free > 0 && !queue.is_empty() {
                let mut batch: Vec<u64> = Vec::new();
                while slots_free > 0 {
                    let Some(id) = queue.pop(|id| table[by_id[&id]].req.mem_estimate) else {
                        break;
                    };
                    let i = by_id[&id];
                    let st = &mut table[i];
                    slots_free -= 1;
                    st.attempts += 1;
                    st.started = Some(now);
                    inflight_bytes += st.req.mem_estimate;
                    caps.start(st.req.tenant, st.req.mem_estimate);
                    counters.dispatched += 1;
                    memphis_obs::instant_val(
                        cat::SERVE,
                        "queue_wait",
                        "ticks",
                        now.saturating_sub(st.req.arrival),
                    );
                    batch.push(id);
                }
                if !batch.is_empty() {
                    self.execute_batch(
                        &mut table,
                        &by_id,
                        &batch,
                        &mut counters,
                        &mut computed_before,
                        &mut in_progress,
                        &mut checks,
                    );
                    for &id in &batch {
                        let st = &table[by_id[&id]];
                        completions.push(Reverse((now + st.req.service_ticks.max(1), id)));
                    }
                }
            }

            // ---- advance virtual time ----
            let t_arr = order.get(ai).map(|&i| table[i].req.arrival);
            let t_cmp = completions.peek().map(|&Reverse((t, _))| t);
            let t_rty = retries.peek().map(|&Reverse((t, _))| t);
            match [t_arr, t_cmp, t_rty].into_iter().flatten().min() {
                Some(t) => now = t,
                None => {
                    if !suspended.is_empty() {
                        // Graceful drain: nothing in flight or queued can
                        // lower pressure further — force-resume so every
                        // admitted request reaches a terminal state.
                        for id in suspended.drain(..) {
                            counters.resumed += 1;
                            queue.push(&table[by_id[&id]].req);
                        }
                        continue;
                    }
                    if queue.is_empty() {
                        break;
                    }
                    // A non-empty queue with free slots dispatches above;
                    // without free slots, completions exist. Unreachable,
                    // but exit rather than spin.
                    debug_assert_eq!(slots_free, 0, "stalled queue with free slots");
                    break;
                }
            }
        }

        // ---- report ----
        let reuse = self.cache.stats();
        counters.quota_evictions = reuse
            .quota_evictions
            .saturating_sub(reuse_before.quota_evictions);
        let outcomes: Vec<(u64, Outcome)> = table
            .iter()
            .map(|st| {
                (
                    st.req.id,
                    st.outcome.expect("every request reaches a terminal state"),
                )
            })
            .collect();
        let mut rows: HashMap<TenantId, TenantReport> = HashMap::new();
        for st in &table {
            let t = st.req.tenant;
            let row = rows.entry(t).or_insert(TenantReport {
                tenant: t,
                cap: caps.cap(t),
                high_water: caps.high_water(t),
                completed: 0,
                shed: 0,
                failed: 0,
                rejected: 0,
            });
            match st.outcome.expect("terminal") {
                Outcome::Completed { .. } => row.completed += 1,
                Outcome::Shed { .. } => row.shed += 1,
                Outcome::Failed { .. } => row.failed += 1,
                Outcome::RejectedTokens | Outcome::RejectedCap | Outcome::RejectedQueueFull => {
                    row.rejected += 1
                }
            }
        }
        let mut tenants: Vec<TenantReport> = rows.into_values().collect();
        tenants.sort_by_key(|r| r.tenant);

        ServeReport {
            counters,
            outcomes,
            tenants,
            checks,
            reuse,
            ticks: now,
            elapsed: t0.elapsed(),
        }
    }

    /// The three-phase batch execution protocol (see the module doc).
    #[allow(clippy::too_many_arguments)]
    fn execute_batch(
        &self,
        table: &mut [ReqState],
        by_id: &HashMap<u64, usize>,
        batch: &[u64],
        counters: &mut ServeCounters,
        computed_before: &mut HashSet<LineageId>,
        in_progress: &mut HashSet<LineageId>,
        checks: &mut Vec<(String, f64)>,
    ) {
        let _exec_span =
            memphis_obs::span_with(cat::SERVE, "execute", || format!("batch={}", batch.len()));

        // Phase 1: classify sequentially on the dispatcher.
        let mut jobs: Vec<Job> = Vec::new();
        let mut guards: Vec<(ComputeGuard, usize, TenantId)> = Vec::new(); // (guard, job, tenant)
        let mut pipes: Vec<(usize, usize, &'static str)> = Vec::new(); // (table idx, job, kind)
        let mut batch_items: HashSet<usize> = HashSet::new();
        for &id in batch {
            let i = by_id[&id];
            let st = &mut table[i];
            let faulted = decide4(
                self.cfg.faults.seed,
                salt::FAULT,
                [st.req.id, st.attempts as u64, 0, 0],
            ) < self.cfg.faults.task_failure_rate;
            if faulted {
                // Strikes at launch, before side effects (FaultPlan task
                // semantics): the slot is burned, the cache untouched.
                st.fault_pending = true;
                continue;
            }
            match st.req.work {
                Work::SharedItem(idx) => {
                    if !batch_items.insert(idx) {
                        // A same-batch request already owns this item's
                        // outcome: ride it (serve-level coalescing).
                        counters.coalesced += 1;
                        continue;
                    }
                    match self.cache.probe_or_begin(&shared_item(idx)) {
                        Probed::Hit(_) | Probed::Coalesced(_) => counters.hits += 1,
                        Probed::Compute(g) => {
                            let key = g.key();
                            counters.computes += 1;
                            if in_progress.contains(&key) {
                                counters.duplicates += 1;
                            }
                            if computed_before.contains(&key) {
                                counters.recomputes += 1;
                            }
                            in_progress.insert(key);
                            jobs.push(Job::Payload { item: idx });
                            guards.push((g, jobs.len() - 1, st.req.tenant));
                        }
                    }
                }
                Work::Pipeline(kind) => {
                    jobs.push(Job::Pipe { kind });
                    pipes.push((i, jobs.len() - 1, kind));
                }
            }
        }

        // Phase 2: execute in parallel (pure computation only).
        let mut results: Vec<Option<JobOut>> = if jobs.is_empty() {
            Vec::new()
        } else {
            let slots: Vec<Mutex<Option<JobOut>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            let cache = &self.cache;
            let work = || loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= jobs.len() {
                    break;
                }
                let out = match &jobs[j] {
                    Job::Payload { item } => JobOut::Matrix(shared_payload(*item)),
                    Job::Pipe { kind } => {
                        let mut ctx = pipelines::session_context(cache);
                        JobOut::Check(
                            pipelines::run_session_kind(&mut ctx, kind)
                                .map_err(|e| format!("{e:?}")),
                        )
                    }
                };
                *slots[j].lock() = Some(out);
            };
            // The dispatcher runs the job loop too: `workers - 1` helpers.
            let helpers = self.cfg.workers.clamp(1, jobs.len()) - 1;
            std::thread::scope(|scope| {
                for _ in 0..helpers {
                    scope.spawn(work);
                }
                work();
            });
            slots.into_iter().map(|m| m.into_inner()).collect()
        };

        // Phase 3: commit sequentially on the dispatcher, in dispatch
        // order — cache admissions and evictions are fully ordered.
        for (guard, j, tenant) in guards {
            let Some(JobOut::Matrix(m)) = results[j].take() else {
                unreachable!("payload job produced a matrix");
            };
            let m = Arc::new(m);
            let key = guard.key();
            let admit = Admit {
                tenant: Some(tenant),
                ..Admit::new(SHARED_ITEM_COST, m.size_bytes())
            };
            self.cache.complete(guard, CachedObject::Matrix(m), admit);
            in_progress.remove(&key);
            computed_before.insert(key);
        }
        for (i, j, kind) in pipes {
            match results[j].take() {
                Some(JobOut::Check(Ok(v))) => checks.push((kind.to_string(), v)),
                // An engine error is treated like a task fault: the
                // attempt burns its slot and retries with backoff.
                Some(JobOut::Check(Err(_))) | Some(JobOut::Matrix(_)) | None => {
                    table[i].fault_pending = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{open_loop, StreamSpec};
    use crate::request::Priority;
    use memphis_core::cache::config::CacheConfig;

    fn cache_with_budget(budget: usize) -> Arc<LineageCache> {
        let mut cfg = CacheConfig::test();
        cfg.local_budget = budget;
        cfg.spill_to_disk = false;
        Arc::new(LineageCache::new(cfg))
    }

    fn simple(id: u64, tenant: TenantId, mem: usize, arrival: u64, deadline: u64) -> Request {
        Request {
            id,
            tenant,
            priority: Priority::Normal,
            arrival,
            deadline,
            mem_estimate: mem,
            service_ticks: 2,
            work: Work::SharedItem(id as usize % 4),
        }
    }

    #[test]
    fn fault_free_trace_completes_everything() {
        let sched = Scheduler::new(cache_with_budget(1 << 20), ServeConfig::test());
        let trace: Vec<Request> = (0..8).map(|i| simple(i, 0, 2048, i, i + 100)).collect();
        let report = sched.run(trace);
        assert_eq!(report.counters.arrivals, 8);
        assert_eq!(report.counters.completed, 8);
        assert_eq!(report.counters.failed, 0);
        assert_eq!(report.counters.duplicates, 0);
        assert!(report.invariants_hold());
        // 4 distinct items across 8 requests: at most 4 owner computes,
        // the rest hits or same-batch coalesced followers.
        assert_eq!(
            report.counters.hits + report.counters.computes + report.counters.coalesced,
            8
        );
        assert_eq!(report.counters.computes, 4);
    }

    #[test]
    fn counters_identical_across_runs_and_worker_counts() {
        for seed in [42u64, 1337] {
            let spec = StreamSpec::test();
            let mut reports = Vec::new();
            for workers in [1usize, 4, 4] {
                let mut cfg = ServeConfig::test();
                cfg.workers = workers;
                cfg.faults = FaultPlan::seeded(seed).with_task_failure_rate(0.2);
                let sched = Scheduler::new(cache_with_budget(1 << 20), cfg);
                reports.push(sched.run(open_loop(seed, &spec)));
            }
            // 1 MB budget, ~2 KiB entries: no evictions, so the *full*
            // counter structs must match, not just the deterministic
            // slice.
            assert_eq!(reports[0].counters, reports[1].counters, "seed {seed}");
            assert_eq!(reports[1].counters, reports[2].counters, "seed {seed}");
            assert_eq!(
                reports[0].reuse.local_spills + reports[0].reuse.local_drops,
                0
            );
            assert!(reports[0].invariants_hold());
            assert_eq!(reports[0].outcomes, reports[1].outcomes);
        }
    }

    #[test]
    fn transient_faults_retry_with_backoff_and_converge() {
        let mut cfg = ServeConfig::test();
        cfg.faults = FaultPlan::seeded(7).with_task_failure_rate(0.4);
        let sched = Scheduler::new(cache_with_budget(1 << 20), cfg);
        let trace: Vec<Request> = (0..16).map(|i| simple(i, 0, 2048, i, i + 200)).collect();
        let report = sched.run(trace);
        assert!(report.counters.retries > 0, "40% faults must retry");
        assert!(report.counters.terminally_complete());
        assert!(report.invariants_hold());
        // Every dispatched attempt ends as exactly one of: success,
        // a retry re-enqueue, or the final failing attempt.
        assert_eq!(
            report.counters.dispatched,
            report.counters.completed + report.counters.retries + report.counters.failed
        );
    }

    #[test]
    fn token_bucket_rejects_bursts() {
        let mut cfg = ServeConfig::test();
        cfg.token_capacity = 2;
        cfg.tokens_per_tick = 1;
        let sched = Scheduler::new(cache_with_budget(1 << 20), cfg);
        let trace: Vec<Request> = (0..5).map(|i| simple(i, 0, 1024, 0, 100)).collect();
        let report = sched.run(trace);
        assert_eq!(report.counters.rejected_tokens, 3);
        assert_eq!(report.counters.admitted, 2);
        assert!(report.invariants_hold());
    }

    #[test]
    fn tenant_hard_cap_rejects_and_never_overshoots() {
        let mut cfg = ServeConfig::test();
        cfg.default_tenant_cap = 8 << 10;
        let sched = Scheduler::new(cache_with_budget(1 << 20), cfg);
        let mut trace: Vec<Request> = (0..4).map(|i| simple(i, 1, 4 << 10, 0, 100)).collect();
        trace.push(simple(4, 2, 4 << 10, 0, 100));
        let report = sched.run(trace);
        assert_eq!(report.counters.rejected_cap, 2, "tenant 1 fits only two");
        assert_eq!(report.counters.completed, 3);
        assert!(report.hard_caps_respected());
        let t1 = report.tenants.iter().find(|t| t.tenant == 1).unwrap();
        assert!(t1.high_water <= t1.cap);
        assert_eq!(t1.rejected, 2);
    }

    #[test]
    fn pressure_sheds_expired_low_priority_work() {
        let mut cfg = ServeConfig::test();
        cfg.slots = 1;
        cfg.intensive_bytes = 8 << 10; // 4 KiB requests are not intensive
        let sched = Scheduler::new(cache_with_budget(32 << 10), cfg);
        // Eight 4 KiB requests at tick 0 with immediate deadlines: the
        // queue holds 28 KiB (over the 16 KiB shed threshold), so once
        // the clock moves everything still queued is past deadline.
        let trace: Vec<Request> = (0..8)
            .map(|i| {
                let mut r = simple(i, (i % 2) as TenantId, 4 << 10, 0, 0);
                r.priority = if i < 4 {
                    Priority::Batch
                } else {
                    Priority::Interactive
                };
                r
            })
            .collect();
        let report = sched.run(trace);
        assert!(report.counters.shed > 0, "expired queued work must shed");
        assert!(report.counters.terminally_complete());
        // Interactive pops first, so every shed request is Batch.
        for (id, o) in &report.outcomes {
            if matches!(o, Outcome::Shed { .. }) {
                assert!(*id < 4, "only batch requests shed, got {id}");
            }
        }
    }

    #[test]
    fn suspend_parks_intensive_requests_then_resumes() {
        let mut cfg = ServeConfig::test();
        cfg.slots = 1;
        cfg.intensive_bytes = 8 << 10;
        let sched = Scheduler::new(cache_with_budget(32 << 10), cfg);
        // 8 KiB intensive requests; committed crosses the 25.6 KiB
        // suspend threshold after three, so later arrivals park.
        let trace: Vec<Request> = (0..6).map(|i| simple(i, 0, 8 << 10, 0, 500)).collect();
        let report = sched.run(trace);
        assert!(report.counters.suspended > 0, "suspend gate must trip");
        assert_eq!(report.counters.resumed, report.counters.suspended);
        assert_eq!(report.counters.completed, 6, "drain completes everyone");
        assert!(report.invariants_hold());
    }

    #[test]
    fn pipeline_requests_run_through_the_session_helper() {
        let cfg = ServeConfig::test();
        let sched = Scheduler::new(cache_with_budget(4 << 20), cfg);
        let trace = vec![
            Request {
                id: 0,
                tenant: 0,
                priority: Priority::Interactive,
                arrival: 0,
                deadline: 100,
                mem_estimate: 4 << 10,
                service_ticks: 2,
                work: Work::Pipeline("hcv"),
            },
            simple(1, 1, 2048, 0, 100),
        ];
        let report = sched.run(trace);
        assert_eq!(report.counters.completed, 2);
        assert_eq!(report.checks.len(), 1);
        assert_eq!(report.checks[0].0, "hcv");
        assert!(report.checks[0].1.is_finite());
    }
}
