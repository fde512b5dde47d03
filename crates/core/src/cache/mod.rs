//! The hierarchical, multi-backend lineage cache (paper §3.3, §4).
//!
//! Probing is unified: one hash map from lineage keys to entries,
//! regardless of where the cached object lives. Admission, eviction, and
//! memory management are backend-local and pluggable: every tier —
//! including the built-in four — is a [`CacheBackend`] registered in a
//! [`BackendRegistry`], and the cache itself holds no backend-concrete
//! state:
//!
//! - **Local**: matrices and scalars against a byte budget, with eq. (1)
//!   cost&size eviction spilling into the disk tier
//!   ([`backends::LocalBackend`]).
//! - **Disk**: spilled binaries, read back and optionally promoted on
//!   hit ([`backends::DiskBackend`]).
//! - **Spark**: RDD handles reused even while unmaterialized; delayed
//!   `persist()`; eq. (1) eviction via `unpersist`; lazy garbage
//!   collection of dangling child RDD/broadcast references; asynchronous
//!   `count()` materialization after `k` unmaterialized reuses
//!   ([`backends::SparkTier`]).
//! - **GPU**: pointers managed by the unified [`gpu::GpuMemoryManager`]
//!   (Live/Free lists, recycling, eq. (2) scoring, eviction injection,
//!   device-to-host eviction) ([`backends::GpuTier`]).
//!
//! Cache traffic has four entry points. [`LineageCache::probe_or_begin`]
//! and [`LineageCache::complete`] are the pair every computing caller
//! uses; [`LineageCache::probe`] reads without claiming a computation,
//! and [`LineageCache::put`] admits without probing. An [`Admit`] says
//! how `complete` and `put` store an object: cost, size, delayed caching,
//! pinning, the charged tenant and the tier.
//!
//! The probe map is sharded ([`sharded::ShardedEntryMap`]) so concurrent
//! sessions probing disjoint lineage ids never contend, and each shard
//! carries in-flight computation markers ([`sharded::Inflight`]): a
//! session that misses claims ownership via [`LineageCache::probe_or_begin`]
//! and later [`LineageCache::complete`]s; any other session probing the
//! same lineage id meanwhile blocks on the marker and consumes the
//! owner's result directly — a *coalesced hit* instead of a duplicate
//! computation. Lock discipline is documented in [`sharded`] and
//! DESIGN.md §6: one shard lock at a time, shard before backend
//! accounting locks, and no condvar wait under a shard lock.

pub mod backends;
pub mod config;
pub mod durable;
pub mod entry;
pub mod gpu;
pub mod sharded;
pub mod spark;

use crate::backend::{BackendId, BackendRegistry, BackendSnapshot, CacheBackend, Materialized};
use crate::lineage::{self, LItem, LineageId};
use crate::pool::Pool;
use crate::stats::{ReuseStats, ReuseStatsSnapshot};
use backends::{DiskBackend, GpuTier, LocalBackend, SparkTier};
use config::{CacheConfig, CachePolicy};
use entry::{CacheEntry, CachedObject, EntryStatus};
use gpu::{GpuAlloc, GpuMemoryManager};
use memphis_gpusim::{GpuDevice, GpuError, GpuPtr};
use sharded::{Inflight, InflightOutcome, ShardedEntryMap};
use spark::SparkBackend;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Outcome of [`LineageCache::probe_or_begin`].
pub enum Probed {
    /// The object was already cached (cloned handle).
    Hit(CachedObject),
    /// Another session was computing the same lineage item; this probe
    /// blocked on its in-flight marker and consumed that result.
    Coalesced(CachedObject),
    /// Nothing cached and nothing in flight: this session owns the
    /// computation. Execute the instruction, then pass the guard to
    /// [`LineageCache::complete`] (dropping it abandons the flight and
    /// wakes waiters to retry).
    Compute(ComputeGuard),
}

/// Ownership of one in-flight computation, returned by
/// [`LineageCache::probe_or_begin`]. Dropping the guard without
/// completing resolves the flight as abandoned so waiters retry instead
/// of blocking forever (the owner may have hit an error path).
pub struct ComputeGuard {
    item: LItem,
    flight: Arc<Inflight>,
    stats: Arc<ReuseStats>,
    armed: bool,
}

impl ComputeGuard {
    /// The lineage item this guard owns the computation of.
    pub fn item(&self) -> &LItem {
        &self.item
    }

    /// The interned identity this guard owns the computation of.
    pub fn key(&self) -> LineageId {
        self.item.lid
    }

    /// Takes the item and flight out, defusing the drop-abandon.
    fn disarm(mut self) -> (LItem, Arc<Inflight>) {
        self.armed = false;
        (self.item.clone(), self.flight.clone())
    }
}

impl Drop for ComputeGuard {
    fn drop(&mut self) {
        if self.armed {
            // Owner errored out (or forgot to complete): wake waiters to
            // retry. The stale marker in the shard is replaced by the
            // next prober.
            ReuseStats::inc(&self.stats.inflight_abandoned);
            if self.flight.resolve(InflightOutcome::Abandoned) > 0 {
                ReuseStats::inc(&self.stats.wakeup_batches);
            } else {
                ReuseStats::inc(&self.stats.wakeup_skips);
            }
        }
    }
}

/// How [`LineageCache::complete`] and [`LineageCache::put`] admit an
/// object. [`Admit::new`] covers the common case; set the other fields
/// with struct-update syntax:
/// `Admit { pin: true, ..Admit::new(cost, size) }`.
#[derive(Debug, Clone, Copy)]
pub struct Admit {
    /// Analytical compute cost `c(o)`.
    pub cost: f64,
    /// Estimated worst-case size `s(o)` in bytes (used for RDDs before
    /// materialization).
    pub size: usize,
    /// Delayed-caching factor n: the object is stored on the n-th offer
    /// of its lineage (1 = at once).
    pub delay: u32,
    /// Pin the entry atomically at admission: it is never an eviction
    /// victim until [`LineageCache::unpin`]. Pinning after a plain put
    /// would race with eviction; this cannot. A pinned admission is
    /// never deferred, whatever `delay` says.
    pub pin: bool,
    /// Serving tenant charged for the entry's bytes against its soft
    /// quota (see [`LineageCache::set_tenant_quota`]).
    pub tenant: Option<u16>,
    /// The tier to admit on; `None` routes to the tier owning the
    /// object's representation. External tiers receive objects in
    /// whatever representation they accept.
    pub tier: Option<BackendId>,
}

impl Admit {
    /// Admission at `cost` and `size`: delay 1, unpinned, no tenant, on
    /// the tier of the object's representation.
    pub fn new(cost: f64, size: usize) -> Self {
        Self {
            cost,
            size,
            delay: 1,
            pin: false,
            tenant: None,
            tier: None,
        }
    }
}

/// A resident (materialized) entry exported for cluster migration:
/// the interned identity plus the standing needed to re-admit the
/// object on another node ([`LineageCache::export_resident`]).
#[derive(Debug, Clone)]
pub struct ResidentEntry {
    /// Interned lineage identity.
    pub key: LineageId,
    /// Cloned handle to the cached object.
    pub object: CachedObject,
    /// Analytical compute cost `c(o)`.
    pub cost: f64,
    /// Size in bytes `s(o)`.
    pub size: usize,
    /// Reuse hits `r_h` (proven-reuse standing).
    pub hits: u64,
}

/// How an admission attempt ended (see [`LineageCache::admit`]).
enum Admitted {
    /// Stored and inserted into the probe map.
    Stored,
    /// The owning tier rejected the object (e.g. oversized).
    Rejected,
    /// Another session admitted the same lineage item first; this
    /// attempt backed out its accounting.
    Raced,
}

static NEXT_CACHE_ID: AtomicU64 = AtomicU64::new(0);

/// The hierarchical lineage cache: a unified sharded probe map plus a
/// registry of pluggable tier backends. One instance serves any number
/// of concurrent sessions.
pub struct LineageCache {
    map: ShardedEntryMap,
    registry: BackendRegistry,
    config: CacheConfig,
    stats: Arc<ReuseStats>,
    /// Recycled in-flight markers (see [`Pool`]): the steady-state
    /// miss→own→complete cycle reuses markers instead of allocating.
    flight_pool: Pool<Arc<Inflight>>,
    /// Last memory-pressure level reported by an external monitor
    /// (0 = Normal, 1 = Shed, 2 = Suspend). Read by the `DelayedHits`
    /// admission gate; never acted on under `Paper`.
    pressure: AtomicU8,
}

/// Memory-pressure level reported to the cache by an external monitor
/// (the serving layer's `PressureMonitor`). Under the `DelayedHits`
/// policy, `Shed` and above arm MURS-style admission shedding: entries
/// whose estimated time-to-next-access exceeds their expected cache
/// lifetime are rejected at admission. Under `Paper` the level is
/// recorded but never acted on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum MemoryPressure {
    /// Committed bytes within budget; admit normally.
    #[default]
    Normal,
    /// Monitor is shedding load; reject long-TTNA admissions.
    Shed,
    /// Monitor is suspending streams; reject long-TTNA admissions.
    Suspend,
}

/// Expected-lifetime heuristic: each budget slot an entry's size could
/// occupy is worth this many virtual-clock ticks of expected residency.
const LIFETIME_TICKS_PER_SLOT: f64 = 16.0;

/// Point-in-time TTNA/coalescing metadata of one cache entry (see
/// [`LineageCache::entry_reuse_meta`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryReuseMeta {
    /// EWMA of inter-probe virtual-clock gaps.
    pub ttna_ewma: f64,
    /// Gap samples folded into the EWMA (0 = TTNA unknown).
    pub probe_gaps: u64,
    /// Tick of the most recent probe.
    pub last_probe_tick: u64,
    /// Coalesced waiters observed stacked behind this entry's misses.
    pub miss_waiters: u64,
}

impl LineageCache {
    /// Creates a cache with the local (driver) and disk tiers registered.
    ///
    /// Without `persist_dir`, disk-evicted binaries go to a cache-unique
    /// subdirectory of the configured spill dir, removed when the disk
    /// tier is dropped. With `persist_dir`, the disk tier is a durable
    /// segment store in exactly that directory: committed entries found
    /// there are recovered (manifest scan, checksum verification,
    /// probe-map rebuild, budgeted rehydration into the local tier), and
    /// the directory survives the cache's drop for the next restart.
    pub fn new(mut config: CacheConfig) -> Self {
        match &config.persist_dir {
            Some(dir) => config.spill_dir = dir.clone(),
            None => {
                config.spill_dir = config.spill_dir.join(format!(
                    "c{}_{}",
                    std::process::id(),
                    NEXT_CACHE_ID.fetch_add(1, Ordering::Relaxed)
                ));
            }
        }
        let stats = Arc::new(ReuseStats::default());
        let disk = Arc::new(DiskBackend::new(&config, stats.clone()));
        let local = Arc::new(LocalBackend::new(
            &config,
            stats.clone(),
            Some(disk.clone()),
        ));
        let mut registry = BackendRegistry::new();
        registry.register(local);
        registry.register(disk);
        let cache = Self {
            map: ShardedEntryMap::new(config.shards),
            registry,
            config,
            stats,
            flight_pool: Pool::new(256),
            pressure: AtomicU8::new(0),
        };
        cache.recover_from_disk();
        cache
    }

    /// Reports the current memory-pressure level (typically wired from
    /// the serving layer's pressure monitor once per scheduler tick).
    pub fn set_memory_pressure(&self, level: MemoryPressure) {
        self.pressure.store(level as u8, Ordering::Relaxed);
    }

    /// The last reported memory-pressure level.
    pub fn memory_pressure(&self) -> MemoryPressure {
        match self.pressure.load(Ordering::Relaxed) {
            0 => MemoryPressure::Normal,
            1 => MemoryPressure::Shed,
            _ => MemoryPressure::Suspend,
        }
    }

    /// Expected cache lifetime (in virtual-clock ticks) of an entry of
    /// `size` bytes: the more budget slots its size class has, the
    /// longer an admitted entry can expect to stay resident.
    fn expected_lifetime_ticks(&self, size: usize) -> f64 {
        let slots = (self.config.local_budget / size.max(1)).max(1);
        slots as f64 * LIFETIME_TICKS_PER_SLOT
    }

    /// Rebuilds probe-map entries from the disk tier's recovered records:
    /// each record's embedded lineage log is re-interned and its
    /// `content_hash` cross-checked (a mismatch is a checksum-grade
    /// reject), then the entry joins the map disk-backed with its
    /// persisted cost/hits standing. The hottest entries (eq. 1 score,
    /// content-hash tie-break for determinism) are rehydrated into the
    /// local tier up to the configured budget; the rest materialize
    /// lazily on first probe.
    fn recover_from_disk(&self) {
        let Some(disk) = self.registry.downcast::<DiskBackend>(BackendId::Disk) else {
            return;
        };
        let records = disk.take_recovered();
        if records.is_empty() {
            return;
        }
        let mut candidates: Vec<(LineageId, usize, f64)> = Vec::new();
        for rec in records {
            let item = match lineage::deserialize(&rec.lineage_log) {
                Ok(item) if item.lid.content_hash() == rec.content_hash => item,
                // The record's lineage does not reproduce its identity
                // tag: it cannot be trusted to stand for that lineage.
                _ => {
                    ReuseStats::inc(&self.stats.checksum_rejects);
                    disk.discard(rec.content_hash, rec.matrix_len);
                    continue;
                }
            };
            let entry = CacheEntry::recovered(&item, rec.compute_cost, rec.matrix_len, rec.hits);
            let score = entry.cost_size_score();
            let key = item.lid;
            {
                let mut shard = self.map.lock_of(key);
                if shard.entries.contains_key(&key) {
                    drop(shard);
                    disk.discard(rec.content_hash, rec.matrix_len);
                    continue;
                }
                shard.entries.insert(key, entry);
            }
            ReuseStats::inc(&self.stats.entries_recovered);
            candidates.push((key, rec.matrix_len, score));
        }
        let budget = self
            .config
            .rehydrate_budget
            .unwrap_or(self.config.local_budget / 2)
            .min(self.config.local_budget);
        if budget == 0 {
            return;
        }
        let Some(local) = self.registry.downcast::<LocalBackend>(BackendId::Local) else {
            return;
        };
        candidates.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.content_hash().cmp(&b.0.content_hash()))
        });
        let mut spent = 0usize;
        for (key, size, _) in candidates {
            if spent + size > budget {
                continue; // a smaller, colder entry may still fit
            }
            let Some(m) = disk.read_matrix_raw(key.content_hash()) else {
                continue;
            };
            if local.admit_existing(&self.map, key, Arc::new(m)) {
                disk.discard(key.content_hash(), size);
                ReuseStats::inc(&self.stats.entries_rehydrated);
                spent += size;
            }
        }
    }

    /// A fresh (or recycled) in-flight marker in the pending state.
    fn take_flight(&self) -> Arc<Inflight> {
        self.flight_pool.take().unwrap_or_else(Inflight::new)
    }

    /// Recycles a retired marker if nothing else holds it (waiters still
    /// reading the outcome keep their clones; uniqueness via
    /// `Arc::get_mut` guarantees no one can observe the reset).
    fn recycle_flight(&self, mut flight: Arc<Inflight>) {
        if let Some(inner) = Arc::get_mut(&mut flight) {
            inner.reset();
            if self.flight_pool.put(flight) {
                ReuseStats::inc(&self.stats.inflight_recycled);
            }
        }
    }

    /// Attaches the simulated Spark cluster as a registered tier.
    pub fn with_spark(mut self, sc: memphis_sparksim::SparkContext) -> Self {
        let b = SparkBackend::new(sc, self.config.spark_reuse_fraction);
        self.registry.register(Arc::new(SparkTier::new(
            b,
            &self.config,
            self.stats.clone(),
        )));
        self
    }

    /// Attaches a Spark tier in deterministic (inline materialization)
    /// mode for tests.
    pub fn with_spark_sync(mut self, sc: memphis_sparksim::SparkContext) -> Self {
        let mut b = SparkBackend::new(sc, self.config.spark_reuse_fraction);
        b.sync_materialize = true;
        self.registry.register(Arc::new(SparkTier::new(
            b,
            &self.config,
            self.stats.clone(),
        )));
        self
    }

    /// Attaches a simulated GPU device as a registered tier.
    pub fn with_gpu(mut self, device: Arc<GpuDevice>) -> Self {
        let mgr = Arc::new(GpuMemoryManager::new(device, self.stats.clone()));
        self.registry
            .register(Arc::new(GpuTier::new(mgr, self.stats.clone())));
        self
    }

    /// Registers an additional (or replacement) tier — external backends
    /// plug in here without any change to the cache itself.
    pub fn with_backend(mut self, backend: Arc<dyn CacheBackend>) -> Self {
        self.registry.register(backend);
        self
    }

    /// Cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Reuse counters, with shard-lock contention filled from the map.
    pub fn stats(&self) -> ReuseStatsSnapshot {
        let mut s = self.stats.snapshot();
        s.shard_contention = self.map.contended_locks();
        s
    }

    /// Shared handle to the stats (for backend managers and experiments).
    pub fn stats_handle(&self) -> &Arc<ReuseStats> {
        &self.stats
    }

    /// The registered tier backends.
    pub fn registry(&self) -> &BackendRegistry {
        &self.registry
    }

    /// Number of probe-map shards.
    pub fn shard_count(&self) -> usize {
        self.map.shard_count()
    }

    /// The GPU memory manager, if a device is attached.
    pub fn gpu_manager(&self) -> Option<&Arc<GpuMemoryManager>> {
        self.registry
            .downcast::<GpuTier>(BackendId::Gpu)
            .map(|t| t.manager())
    }

    /// The Spark backend, if attached.
    pub fn spark_backend(&self) -> Option<&SparkBackend> {
        self.registry
            .downcast::<SparkTier>(BackendId::Spark)
            .map(|t| t.spark())
    }

    /// Number of entries (placeholders included).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of local matrices currently cached on the driver.
    pub fn local_used(&self) -> usize {
        self.registry
            .get(BackendId::Local)
            .map(|b| b.used())
            .unwrap_or(0)
    }

    /// Estimated bytes of reuse-persisted RDDs.
    pub fn rdd_est_bytes(&self) -> usize {
        self.registry
            .get(BackendId::Spark)
            .map(|b| b.used())
            .unwrap_or(0)
    }

    /// Per-backend stats reports ([`CacheBackend::snapshot`]), with entry
    /// counts filled from the probe map.
    pub fn backend_snapshots(&self) -> Vec<BackendSnapshot> {
        let mut snaps = self.registry.snapshots();
        let mut counts: HashMap<BackendId, usize> = HashMap::new();
        self.map.for_each(|_, e| {
            *counts.entry(e.backend).or_insert(0) += 1;
        });
        for s in &mut snaps {
            s.entries = counts.get(&s.id).copied().unwrap_or(0);
        }
        snaps
    }

    /// The unified per-backend stats report, one line per tier.
    pub fn backend_report(&self) -> String {
        self.backend_snapshots()
            .iter()
            .map(|s| format!("  {s}"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Drops every entry and resets accounting (used between experiment
    /// configurations). GPU pointers are unmarked, RDDs unpersisted,
    /// spill files removed. In-flight markers are left for their owners
    /// to resolve.
    pub fn clear(&self) {
        for (_, e) in self.map.drain_entries() {
            if let Some(b) = self.registry.get(e.backend) {
                b.release(&e);
            }
        }
    }

    // ------------------------------------------------------------------
    // CLUSTER SUPPORT (control-plane reads/removals)
    // ------------------------------------------------------------------

    /// Control-plane read: clones the resident object for `key` without
    /// touching reuse stats, hit counts, or recency — a migration or
    /// replica copy must not inflate the entry's eq.(1) standing the way
    /// a real probe would. Placeholders and non-resident tiers (disk,
    /// spilled) return `None`.
    pub fn peek(&self, key: LineageId) -> Option<ResidentEntry> {
        self.map.with_entry(key, |e| {
            let e = e?;
            let object = e.object.clone()?;
            if matches!(object, CachedObject::Disk(_)) {
                return None;
            }
            Some(ResidentEntry {
                key,
                object,
                cost: e.compute_cost,
                size: e.size,
                hits: e.hits,
            })
        })
    }

    /// Exports every resident (materialized, in-memory) entry, sorted by
    /// content hash so migration plans built from the export are
    /// deterministic regardless of shard iteration order.
    pub fn export_resident(&self) -> Vec<ResidentEntry> {
        let mut out = Vec::new();
        self.map.for_each(|key, e| {
            if let Some(object) = e.object.clone() {
                if !matches!(object, CachedObject::Disk(_)) {
                    out.push(ResidentEntry {
                        key,
                        object,
                        cost: e.compute_cost,
                        size: e.size,
                        hits: e.hits,
                    });
                }
            }
        });
        out.sort_by_key(|r| r.key.content_hash());
        out
    }

    /// Control-plane removal: drops the entry for `key` (releasing its
    /// backend accounting) without counting an eviction. Used when the
    /// cluster layer migrates a primary away or invalidates a replica.
    /// Returns false when no entry was present.
    pub fn remove(&self, key: LineageId) -> bool {
        match self.map.remove_entry(key) {
            Some(e) => {
                if let Some(b) = self.registry.get(e.backend) {
                    b.release(&e);
                }
                true
            }
            None => false,
        }
    }

    // ------------------------------------------------------------------
    // REUSE
    // ------------------------------------------------------------------

    /// One probe attempt: entry lookup plus backend materialization.
    /// Does not count probes/misses — callers decide how a `None` is
    /// accounted (plain miss, or the start of an in-flight computation).
    ///
    /// The hit path is allocation-free: the key is a `Copy` interned id,
    /// the shard lookup hashes one `u64`, and the object is a cloned
    /// handle (refcount bump only).
    fn probe_once(&self, key: LineageId) -> Option<CachedObject> {
        let clock = self.map.tick();
        let (is_function, backend_id) = {
            let mut shard = self.map.lock_of(key);
            let e = shard.entries.get_mut(&key)?;
            e.last_access = clock;
            // Fold this probe's inter-arrival gap into the TTNA EWMA
            // (pure bookkeeping; only `DelayedHits` ever reads it).
            e.observe_probe(clock);
            // TO-BE-CACHED placeholder: not reusable yet.
            e.object.as_ref()?;
            (e.is_function, e.backend)
        };
        // Materialize with no shard lock held: tiers lock the shards
        // (and their own accounting) themselves.
        let outcome = match self.registry.get(backend_id) {
            Some(b) => b.materialize(&self.map, &self.registry, key),
            None => Materialized::Stale, // tier was unregistered
        };
        match outcome {
            Materialized::Hit(object) => {
                ReuseStats::inc(&self.stats.hits);
                if is_function {
                    ReuseStats::inc(&self.stats.hits_func);
                }
                Some(object)
            }
            Materialized::Stale => {
                if let Some(e) = self.map.remove_entry(key) {
                    if let Some(b) = self.registry.get(e.backend) {
                        b.release(&e);
                    }
                }
                None
            }
        }
    }

    /// REUSE without claiming the computation: probes the cache for the
    /// output identified by `item`. Returns the cached object (with
    /// backend-specific acquisition) or `None`, in which case the caller
    /// executes the instruction and may [`put`](Self::put) its result.
    /// Callers that compute on a miss use
    /// [`probe_or_begin`](Self::probe_or_begin) instead.
    pub fn probe(&self, item: &LItem) -> Option<CachedObject> {
        let _probe_span = memphis_obs::span(memphis_obs::cat::CACHE, "probe");
        ReuseStats::inc(&self.stats.probes);
        let hit = self.probe_once(item.lid);
        if hit.is_none() {
            ReuseStats::inc(&self.stats.misses);
        }
        hit
    }

    /// REUSE with computation coalescing: like [`probe`](Self::probe),
    /// but a miss claims ownership of the computation by parking an
    /// in-flight marker in the key's shard. A second session probing the
    /// same lineage item meanwhile blocks on the marker and consumes the
    /// owner's result directly (a coalesced hit) instead of recomputing.
    ///
    /// The owner must pass its [`ComputeGuard`] to
    /// [`complete`](Self::complete) (or drop it to abandon, waking
    /// waiters to retry). Never hold a shard lock while calling this.
    pub fn probe_or_begin(&self, item: &LItem) -> Probed {
        let _probe_span = memphis_obs::span(memphis_obs::cat::CACHE, "probe");
        ReuseStats::inc(&self.stats.probes);
        let key = item.lid;
        loop {
            if let Some(object) = self.probe_once(key) {
                return Probed::Hit(object);
            }
            // Miss: wait on a pending flight, or claim ownership.
            enum Step {
                Retry,
                Wait(Arc<Inflight>),
                Own(Arc<Inflight>),
            }
            // A stale resolved marker displaced under the shard lock is
            // recycled after the lock is released (pool is a leaf lock,
            // but keep the critical section minimal).
            let mut displaced: Option<Arc<Inflight>> = None;
            let step = {
                let mut shard = self.map.lock_of(key);
                if shard
                    .entries
                    .get(&key)
                    .map(|e| e.object.is_some())
                    .unwrap_or(false)
                {
                    // Entry appeared between the probe and this lock.
                    Step::Retry
                } else {
                    match shard.inflight.get(&key) {
                        Some(f) if f.is_pending() => Step::Wait(f.clone()),
                        _ => {
                            // No marker, or a stale resolved marker left
                            // by an abandoning owner: install a fresh
                            // flight and become the owner.
                            let f = self.take_flight();
                            displaced = shard.inflight.insert(key, f.clone());
                            Step::Own(f)
                        }
                    }
                }
            };
            if let Some(stale) = displaced {
                self.recycle_flight(stale);
            }
            match step {
                Step::Retry => continue,
                Step::Own(flight) => {
                    ReuseStats::inc(&self.stats.inflight_begins);
                    ReuseStats::inc(&self.stats.misses);
                    return Probed::Compute(ComputeGuard {
                        item: item.clone(),
                        flight,
                        stats: self.stats.clone(),
                        armed: true,
                    });
                }
                Step::Wait(flight) => {
                    ReuseStats::inc(&self.stats.inflight_waits);
                    let outcome = {
                        let _wait_span =
                            memphis_obs::span(memphis_obs::cat::CACHE, "inflight_wait");
                        flight.wait()
                    };
                    match outcome {
                        InflightOutcome::Done(object) => {
                            // GPU pointers must be re-acquired per
                            // consumer; a failure means the pointer was
                            // recycled before we woke — retry the probe.
                            if let CachedObject::Gpu { ptr, .. } = &object {
                                let acquired =
                                    self.gpu_manager().map(|g| g.acquire(*ptr)).unwrap_or(false);
                                if !acquired {
                                    continue;
                                }
                            }
                            self.map.with_entry(key, |e| {
                                if let Some(e) = e {
                                    e.hits += 1;
                                }
                            });
                            ReuseStats::inc(&self.stats.hits);
                            ReuseStats::inc(&self.stats.coalesced_hits);
                            return Probed::Coalesced(object);
                        }
                        InflightOutcome::Abandoned => continue,
                    }
                }
            }
        }
    }

    /// Completes an in-flight computation: offers the result to the
    /// cache (like [`put`](Self::put)) and hands the object to every
    /// session blocked on the flight. Returns true if the cache stored
    /// the object (waiters receive it either way).
    pub fn complete(&self, guard: ComputeGuard, object: CachedObject, admit: Admit) -> bool {
        let (item, flight) = guard.disarm();
        let key = item.lid;
        let stored = self.put(&item, object.clone(), admit);
        // Remove our marker (if still ours) under the shard lock.
        let removed = {
            let mut shard = self.map.lock_of(key);
            if shard
                .inflight
                .get(&key)
                .map(|f| Arc::ptr_eq(f, &flight))
                .unwrap_or(false)
            {
                shard.inflight.remove(&key)
            } else {
                None
            }
        };
        let woken = flight.resolve(InflightOutcome::Done(object));
        if woken > 0 {
            ReuseStats::inc(&self.stats.wakeup_batches);
            // The waiters this miss kept stacked are the entry's
            // aggregate-delay evidence for delayed-hits scoring.
            self.map.with_entry(key, |e| {
                if let Some(e) = e {
                    e.miss_waiters += woken;
                }
            });
        } else {
            ReuseStats::inc(&self.stats.wakeup_skips);
        }
        // Our clone of the flight must drop before the marker can be
        // recycled (the pool requires sole ownership).
        drop(flight);
        if let Some(marker) = removed {
            self.recycle_flight(marker);
        }
        stored
    }

    /// Updates the `r_j` job counter of an entry (a job consumed it).
    pub fn note_job(&self, item: &LItem) {
        self.map.with_entry(item.lid, |e| {
            if let Some(e) = e {
                e.jobs += 1;
            }
        });
    }

    /// Records `n` coalesced waiters observed stacked behind a miss of
    /// `item` — the aggregate-delay evidence of the `DelayedHits`
    /// policy. The concurrent path feeds this automatically from
    /// in-flight wakeups; single-threaded virtual-time harnesses (which
    /// coalesce batched arrivals without ever blocking) call it
    /// directly after completing the miss.
    pub fn note_miss_waiters(&self, item: &LItem, n: u64) {
        if n == 0 {
            return;
        }
        self.map.with_entry(item.lid, |e| {
            if let Some(e) = e {
                e.miss_waiters += n;
            }
        });
    }

    /// Point-in-time TTNA/coalescing metadata of an entry, if cached
    /// (tests and harnesses; not part of the probe hot path).
    pub fn entry_reuse_meta(&self, item: &LItem) -> Option<EntryReuseMeta> {
        self.map.with_entry(item.lid, |e| {
            e.map(|e| EntryReuseMeta {
                ttna_ewma: e.ttna_ewma,
                probe_gaps: e.probe_gaps,
                last_probe_tick: e.last_probe_tick,
                miss_waiters: e.miss_waiters,
            })
        })
    }

    /// Pins an existing entry (never an eviction victim). Returns false
    /// when the item is not cached.
    pub fn pin(&self, item: &LItem) -> bool {
        self.map.with_entry(item.lid, |e| match e {
            Some(e) => {
                e.pinned = true;
                true
            }
            None => false,
        })
    }

    /// Unpins an entry, making it evictable again.
    pub fn unpin(&self, item: &LItem) -> bool {
        self.map.with_entry(item.lid, |e| match e {
            Some(e) => {
                e.pinned = false;
                true
            }
            None => false,
        })
    }

    /// Sessions currently blocked on `item`'s in-flight computation
    /// (0 when nothing is in flight).
    pub fn inflight_waiters(&self, item: &LItem) -> u64 {
        self.map
            .inflight_of(item.lid)
            .map(|f| f.waiters())
            .unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // PUT
    // ------------------------------------------------------------------

    /// PUT: offers the result of an executed instruction to the cache,
    /// routed to the tier `admit` names (by default the one owning the
    /// object's representation), without probing or claiming the
    /// computation. Decides under the key's shard lock whether to skip,
    /// defer, or store, then admits with no shard lock held. Returns true
    /// if the object was stored (vs. deferred, rejected, or already
    /// cached).
    pub fn put(&self, item: &LItem, object: CachedObject, admit: Admit) -> bool {
        let backend = admit.tier.unwrap_or_else(|| object.backend());
        let _put_span = memphis_obs::span_with(memphis_obs::cat::CACHE, "put", || {
            backend.as_str().to_string()
        });
        let key = item.lid;
        let clock = self.map.tick();
        /// What the shard-lock inspection decided.
        enum Plan {
            /// Entry already stored (e.g. a racing session): nothing to do.
            AlreadyCached,
            /// Placeholder created or advanced; delay not reached yet.
            Deferred,
            /// Admit now; `carry` holds a matured placeholder's reuse
            /// counters (the key itself is the interned id — identical
            /// for every structurally-equal construction).
            Store { carry: Option<(u64, u64, u64)> },
        }
        let plan = {
            let mut shard = self.map.lock_of(key);
            match shard.entries.get_mut(&key) {
                Some(e) if e.object.is_some() => {
                    e.last_access = clock;
                    Plan::AlreadyCached
                }
                Some(e) => {
                    // Placeholder: advance, store when the delay is reached.
                    let (seen, needed) = match e.status {
                        EntryStatus::ToBeCached { seen, needed } => (seen + 1, needed),
                        EntryStatus::Cached => unreachable!("cached entries have objects"),
                    };
                    if seen >= needed || admit.pin {
                        // Carry the placeholder's reuse statistics into
                        // the admitted entry so eq. (1) scoring does not
                        // restart from zero for proven repeaters.
                        Plan::Store {
                            carry: Some((e.hits, e.misses, e.jobs)),
                        }
                    } else {
                        e.status = EntryStatus::ToBeCached { seen, needed };
                        e.last_access = clock;
                        Plan::Deferred
                    }
                }
                None => {
                    if admit.delay <= 1 || admit.pin {
                        Plan::Store { carry: None }
                    } else {
                        let mut ph =
                            CacheEntry::placeholder(item, admit.cost, admit.size, admit.delay);
                        ph.backend = backend;
                        ph.last_access = clock;
                        ph.tenant = admit.tenant;
                        shard.entries.insert(key, ph);
                        Plan::Deferred
                    }
                }
            }
        };
        match plan {
            Plan::AlreadyCached => false,
            Plan::Deferred => {
                ReuseStats::inc(&self.stats.puts_deferred);
                false
            }
            Plan::Store { carry } => {
                // MURS-style admission shedding: under pressure, an
                // entry that a previous eviction proved unlikely to be
                // re-accessed within its expected residency is not
                // worth the evictions its admission would force.
                if self.config.policy == CachePolicy::DelayedHits
                    && self.memory_pressure() >= MemoryPressure::Shed
                {
                    if let Some(ttna) = self.map.ghost_ttna(key) {
                        if ttna > self.expected_lifetime_ticks(admit.size) {
                            ReuseStats::inc(&self.stats.ttna_admission_rejects);
                            let mut shard = self.map.lock_of(key);
                            if shard
                                .entries
                                .get(&key)
                                .map(|e| e.object.is_none())
                                .unwrap_or(false)
                            {
                                shard.entries.remove(&key);
                            }
                            return false;
                        }
                    }
                }
                match self.admit(item, object, admit, backend, clock) {
                    Admitted::Stored => {
                        if let Some((hits, misses, jobs)) = carry {
                            self.map.with_entry(key, |e| {
                                if let Some(e) = e {
                                    e.hits = hits;
                                    e.misses = misses;
                                    e.jobs = jobs;
                                }
                            });
                        }
                        ReuseStats::inc(&self.stats.puts);
                        true
                    }
                    Admitted::Rejected => {
                        // Rejected by the tier (e.g. oversized): drop a
                        // leftover placeholder so later puts restart
                        // cleanly (but never a racing session's stored
                        // entry).
                        let mut shard = self.map.lock_of(key);
                        if shard
                            .entries
                            .get(&key)
                            .map(|e| e.object.is_none())
                            .unwrap_or(false)
                        {
                            shard.entries.remove(&key);
                        }
                        false
                    }
                    Admitted::Raced => false,
                }
            }
        }
    }

    /// Configures a tenant's soft cache quota (bytes of driver-local
    /// cache). Over-quota tenants' entries become preferred eq. (1)
    /// eviction victims (counted as `quota_evictions`). No-op without a
    /// local tier.
    pub fn set_tenant_quota(&self, tenant: u16, bytes: usize) {
        if let Some(local) = self.registry.downcast::<LocalBackend>(BackendId::Local) {
            local.set_quota(tenant, bytes);
        }
    }

    /// Driver-local cache bytes currently charged to `tenant`.
    pub fn tenant_local_used(&self, tenant: u16) -> usize {
        self.registry
            .downcast::<LocalBackend>(BackendId::Local)
            .map(|local| local.tenant_used(tenant))
            .unwrap_or(0)
    }

    /// Stores an object through its tier's admission (MAKE_SPACE +
    /// accounting + side effects), then inserts the entry under the shard
    /// lock. If a racing session inserted the same lineage item
    /// meanwhile, the tier accounting is backed out via `release`.
    fn admit(
        &self,
        item: &LItem,
        object: CachedObject,
        how: Admit,
        backend: BackendId,
        clock: u64,
    ) -> Admitted {
        let Some(b) = self.registry.get(backend) else {
            return Admitted::Rejected;
        };
        let key = item.lid;
        let mut e = CacheEntry::cached(item, object, how.cost, how.size);
        e.backend = backend;
        e.last_access = clock;
        // Admission is an access: seeding the probe tick lets the first
        // post-admission hit already yield a TTNA gap sample.
        e.last_probe_tick = clock;
        e.pinned = how.pin;
        e.tenant = how.tenant;
        // Tier admission (MAKE_SPACE, persist, accounting) runs with no
        // shard lock held — it may evict across shards.
        if !b.put(&self.map, &self.registry, key, &mut e) {
            return Admitted::Rejected;
        }
        let mut shard = self.map.lock_of(key);
        match shard.entries.get(&key) {
            Some(existing) if existing.object.is_some() => {
                // Lost the admission race: another session stored this
                // lineage item between our plan and now. Keep theirs and
                // reverse our tier accounting.
                drop(shard);
                b.release(&e);
                Admitted::Raced
            }
            _ => {
                shard.entries.insert(key, e);
                drop(shard);
                if self.config.policy == CachePolicy::DelayedHits {
                    // Residency restarts the evidence: a later eviction
                    // re-records a fresh TTNA ghost.
                    self.map.clear_ghost(key);
                }
                Admitted::Stored
            }
        }
    }

    // ------------------------------------------------------------------
    // GPU integration
    // ------------------------------------------------------------------

    /// Serves a GPU output allocation through the unified memory manager,
    /// dropping any cache entries invalidated by recycling and falling
    /// back to device-to-host eviction of cached pointers on OOM (the
    /// evicted matrix is re-admitted through the local tier).
    ///
    /// # Panics
    /// Panics if no GPU is attached.
    pub fn gpu_request(&self, size: usize, height: u32, cost: f64) -> Result<GpuAlloc, GpuError> {
        let g = self.gpu_manager().expect("GPU backend attached").clone();
        loop {
            match g.request_with(size, height, cost, true) {
                Ok(alloc) => {
                    self.remove_keys(&alloc.invalidated);
                    return Ok(alloc);
                }
                Err(GpuError::OutOfMemory { .. }) => {
                    // Device-to-host eviction: move the least valuable
                    // cached free pointer to driver memory, free it, retry.
                    match g.pop_cached_for_host_eviction() {
                        Some((ptr, key)) => {
                            let host = g.device().copy_to_host(ptr).ok();
                            g.device().free(ptr).ok();
                            ReuseStats::inc(&self.stats.gpu_evicted_to_host);
                            memphis_obs::instant_val(
                                memphis_obs::cat::CACHE,
                                "gpu_evict_to_host",
                                "bytes",
                                ptr.size as u64,
                            );
                            let admitted = match host {
                                Some(m) => self
                                    .registry
                                    .downcast::<LocalBackend>(BackendId::Local)
                                    .map(|local| local.admit_existing(&self.map, key, Arc::new(m)))
                                    .unwrap_or(false),
                                None => false,
                            };
                            if !admitted {
                                // Pointer already freed: plain removal.
                                self.map.remove_entry(key);
                            }
                        }
                        None => {
                            // Nothing left to evict: final OOM.
                            return g.request_with(size, height, cost, false);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Releases a live GPU pointer reference (variable went out of scope).
    pub fn gpu_release(&self, ptr: GpuPtr, height: u32, cost: f64) {
        if let Some(g) = self.gpu_manager() {
            g.release(ptr, height, cost);
        }
    }

    /// Allocation without recycling (naive per-output `cudaMalloc`).
    ///
    /// # Panics
    /// Panics if no GPU is attached.
    pub fn gpu_request_no_recycle(&self, size: usize, cost: f64) -> Result<GpuAlloc, GpuError> {
        let g = self.gpu_manager().expect("GPU backend attached");
        g.request_no_recycle(size, cost)
    }

    /// Release + immediate `cudaFree` (recycling disabled), dropping any
    /// invalidated cache entry.
    pub fn gpu_release_and_free(&self, ptr: GpuPtr) {
        let Some(g) = self.gpu_manager() else { return };
        if let Some(key) = g.release_and_free(ptr) {
            self.remove_keys(&[key]);
        }
    }

    /// The `evict(p)` instruction: frees `fraction` of the GPU free list
    /// and drops the invalidated entries.
    pub fn evict_gpu_fraction(&self, fraction: f64) {
        let Some(g) = self.gpu_manager() else { return };
        let keys = g.evict_fraction(fraction);
        self.remove_keys(&keys);
    }

    /// Removes entries whose GPU pointers were recycled or freed. The
    /// pointers themselves are gone, so GPU-owned entries are dropped
    /// without a release; anything that migrated to another tier in the
    /// meantime is released there.
    fn remove_keys(&self, keys: &[LineageId]) {
        for k in keys {
            if let Some(e) = self.map.remove_entry(*k) {
                if e.backend != BackendId::Gpu {
                    if let Some(b) = self.registry.get(e.backend) {
                        b.release(&e);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::LineageItem;
    use memphis_matrix::rand_gen::rand_uniform;
    use memphis_matrix::{BlockedMatrix, Matrix};
    use memphis_sparksim::{SparkConfig, SparkContext};
    use std::sync::Arc as StdArc;

    fn item(name: &str) -> LItem {
        LineageItem::new("op", vec![name.to_string()], vec![LineageItem::leaf("X")])
    }

    fn cache_kb(kb: usize) -> LineageCache {
        let mut cfg = CacheConfig::test();
        cfg.local_budget = kb << 10;
        LineageCache::new(cfg)
    }

    fn mat(m: &Matrix) -> CachedObject {
        CachedObject::Matrix(StdArc::new(m.clone()))
    }

    /// An admission charged to `tenant`.
    fn charged(tenant: u16, cost: f64, size: usize) -> Admit {
        Admit {
            tenant: Some(tenant),
            ..Admit::new(cost, size)
        }
    }

    #[test]
    fn put_probe_roundtrip_local() {
        let c = cache_kb(64);
        let it = item("a");
        assert!(c.probe(&it).is_none());
        let m = rand_uniform(8, 8, 0.0, 1.0, 1);
        c.put(&it, mat(&m), Admit::new(10.0, m.size_bytes()));
        match c.probe(&it).expect("hit") {
            CachedObject::Matrix(got) => assert!(got.approx_eq(&m, 0.0)),
            other => panic!("unexpected {other:?}"),
        }
        let s = c.stats();
        assert_eq!(s.probes, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits_local, 1);
    }

    #[test]
    fn probe_hits_share_not_copy() {
        let c = cache_kb(64);
        let it = item("shared");
        let m = StdArc::new(rand_uniform(8, 8, 0.0, 1.0, 1));
        c.put(
            &it,
            CachedObject::Matrix(m.clone()),
            Admit::new(10.0, m.size_bytes()),
        );
        match c.probe(&it).expect("hit") {
            CachedObject::Matrix(got) => {
                assert!(StdArc::ptr_eq(&got, &m), "hit shares the cached Arc")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn structurally_equal_items_share_entries() {
        let c = cache_kb(64);
        let a = item("same");
        let b = item("same");
        c.put(&a, CachedObject::Scalar(5.0), Admit::new(1.0, 16));
        let hit = c.probe(&b).expect("structural match");
        assert!(matches!(hit, CachedObject::Scalar(v) if v == 5.0));
    }

    #[test]
    fn delayed_caching_stores_on_nth_execution() {
        let c = cache_kb(64);
        let it = item("delayed");
        let delayed = Admit {
            delay: 2,
            ..Admit::new(1.0, 16)
        };
        // Execution 1: put defers.
        assert!(!c.put(&it, CachedObject::Scalar(1.0), delayed));
        assert!(c.probe(&it).is_none(), "placeholder is not reusable");
        // Execution 2: put stores.
        assert!(c.put(&it, CachedObject::Scalar(1.0), delayed));
        assert!(c.probe(&it).is_some());
        let s = c.stats();
        assert_eq!(s.puts_deferred, 1);
        assert_eq!(s.puts, 1);
    }

    #[test]
    fn delay_three_takes_three_puts() {
        let c = cache_kb(64);
        let it = item("d3");
        let delayed = Admit {
            delay: 3,
            ..Admit::new(1.0, 16)
        };
        assert!(!c.put(&it, CachedObject::Scalar(1.0), delayed));
        assert!(!c.put(&it, CachedObject::Scalar(1.0), delayed));
        assert!(c.put(&it, CachedObject::Scalar(1.0), delayed));
        assert!(c.probe(&it).is_some());
    }

    #[test]
    fn local_eviction_spills_to_disk_and_reloads() {
        // Budget fits one 8 KB matrix, not two.
        let c = cache_kb(12);
        let m1 = rand_uniform(32, 32, 0.0, 1.0, 1); // 8 KB
        let m2 = rand_uniform(32, 32, 0.0, 1.0, 2);
        let i1 = item("m1");
        let i2 = item("m2");
        c.put(&i1, mat(&m1), Admit::new(1.0, m1.size_bytes()));
        c.probe(&i1).expect("hit"); // proven reusable → spill, not drop
        c.put(&i2, mat(&m2), Admit::new(100.0, m2.size_bytes()));
        assert_eq!(c.stats().local_spills, 1, "cheaper m1 spilled");
        // m1 still reusable from disk.
        match c.probe(&i1).expect("disk hit") {
            CachedObject::Matrix(got) => assert!(got.approx_eq(&m1, 0.0)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.stats().hits_disk, 1);
        // Unproven entries drop instead of spilling.
        let m3 = rand_uniform(32, 32, 0.0, 1.0, 3);
        c.put(&item("m3"), mat(&m3), Admit::new(1.0, m3.size_bytes()));
        let m4 = rand_uniform(32, 32, 0.0, 1.0, 4);
        c.put(&item("m4"), mat(&m4), Admit::new(200.0, m3.size_bytes()));
        assert!(c.stats().local_drops >= 1, "never-hit victim dropped");
    }

    #[test]
    fn disk_tier_accounts_spilled_bytes() {
        let c = cache_kb(12);
        let m1 = rand_uniform(32, 32, 0.0, 1.0, 1); // 8 KB
        let m2 = rand_uniform(32, 32, 0.0, 1.0, 2);
        let i1 = item("m1");
        c.put(&i1, mat(&m1), Admit::new(1.0, m1.size_bytes()));
        c.probe(&i1).expect("hit");
        c.put(&item("m2"), mat(&m2), Admit::new(100.0, m2.size_bytes()));
        let disk_used = c.registry().get(BackendId::Disk).unwrap().used();
        assert_eq!(disk_used, m1.size_bytes(), "spill accounted to disk tier");
        // Promote-on-hit moves the bytes back to the local tier.
        c.probe(&i1).expect("disk hit");
        assert_eq!(c.registry().get(BackendId::Disk).unwrap().used(), 0);
    }

    #[test]
    fn disk_read_after_a_concurrent_promotion_is_a_hit() {
        // Two probers see the same entry on the disk tier; the first
        // promotes it to local memory before the second reaches the disk
        // backend. The second must be served the promoted copy: a Stale
        // verdict would drop the entry and recompute a durable result.
        let c = cache_kb(12);
        let m1 = rand_uniform(32, 32, 0.0, 1.0, 1); // 8 KB
        let m2 = rand_uniform(32, 32, 0.0, 1.0, 2);
        let i1 = item("m1");
        c.put(&i1, mat(&m1), Admit::new(1.0, m1.size_bytes()));
        c.probe(&i1).expect("hit");
        c.put(&item("m2"), mat(&m2), Admit::new(100.0, m2.size_bytes()));
        assert_eq!(c.stats().local_spills, 1);
        c.probe(&i1).expect("disk hit promotes");

        let disk = c.registry().get(BackendId::Disk).unwrap();
        match disk.materialize(&c.map, c.registry(), i1.lid) {
            Materialized::Hit(CachedObject::Matrix(got)) => assert!(got.approx_eq(&m1, 0.0)),
            other => panic!("promoted entry not served: {other:?}"),
        }
        assert!(c.probe(&i1).is_some(), "the promoted entry survives");
    }

    #[test]
    fn oversized_object_not_cached() {
        let c = cache_kb(1);
        let m = rand_uniform(64, 64, 0.0, 1.0, 3); // 32 KB > 1 KB budget
        let it = item("big");
        c.put(&it, mat(&m), Admit::new(1.0, m.size_bytes()));
        assert!(c.probe(&it).is_none());
        assert_eq!(c.local_used(), 0);
    }

    #[test]
    fn scalar_entries_are_cheap() {
        let c = cache_kb(1);
        for i in 0..100 {
            c.put(
                &item(&format!("s{i}")),
                CachedObject::Scalar(i as f64),
                Admit::new(1.0, 16),
            );
        }
        assert_eq!(c.len(), 100);
    }

    fn spark_cache() -> (LineageCache, SparkContext) {
        let sc = SparkContext::new(SparkConfig::local_test());
        let c = cache_kb(1024).with_spark_sync(sc.clone());
        (c, sc)
    }

    #[test]
    fn rdd_reuse_returns_handle_and_counts_misses() {
        let (c, sc) = spark_cache();
        let m = rand_uniform(16, 4, 0.0, 1.0, 4);
        let b = BlockedMatrix::from_dense(&m, 4).unwrap();
        let src = sc.parallelize_blocked(&b, "X");
        let mapped = sc.map(&src, "id", StdArc::new(|k, m| (*k, m.deep_clone())));
        let it = item("rdd");
        c.put(
            &it,
            CachedObject::Rdd {
                rdd: mapped.clone(),
                rows: 16,
                cols: 4,
            },
            Admit::new(50.0, m.size_bytes()),
        );
        assert!(mapped.persist_level().is_some(), "admission persists");
        // Unmaterialized reuse works (compute sharing).
        for _ in 0..2 {
            let hit = c.probe(&it).expect("rdd hit");
            assert!(matches!(hit, CachedObject::Rdd { .. }));
        }
        // Third unmaterialized reuse triggers the count() materialization.
        let hit = c.probe(&it).expect("rdd hit");
        assert!(matches!(hit, CachedObject::Rdd { .. }));
        let s = c.stats();
        assert_eq!(s.rdd_materialize_jobs, 1);
        assert!(sc.is_fully_cached(&mapped), "sync materialization ran");
        // Next probe sees it materialized.
        c.probe(&it).expect("hit");
    }

    #[test]
    fn rdd_budget_evicts_worst_entry() {
        let sc = SparkContext::new(SparkConfig::local_test());
        let mut cfg = CacheConfig::test();
        cfg.local_budget = 1 << 20;
        let c = LineageCache::new(cfg).with_spark_sync(sc.clone());
        let budget = c.spark_backend().unwrap().reuse_budget;
        let m = rand_uniform(16, 4, 0.0, 1.0, 5);
        let b = BlockedMatrix::from_dense(&m, 4).unwrap();

        let mk = |name: &str| {
            let src = sc.parallelize_blocked(&b, name);
            sc.map(&src, "id", StdArc::new(|k, m| (*k, m.deep_clone())))
        };
        let r1 = mk("r1");
        let r2 = mk("r2");
        // r1 cheap, fills the whole budget; r2 expensive, forces eviction.
        c.put(
            &item("r1"),
            CachedObject::Rdd {
                rdd: r1.clone(),
                rows: 16,
                cols: 4,
            },
            Admit::new(1.0, budget),
        );
        assert_eq!(c.rdd_est_bytes(), budget);
        c.put(
            &item("r2"),
            CachedObject::Rdd {
                rdd: r2.clone(),
                rows: 16,
                cols: 4,
            },
            Admit::new(100.0, budget / 2),
        );
        let s = c.stats();
        assert_eq!(s.rdd_unpersists, 1);
        assert!(c.probe(&item("r1")).is_none(), "r1 evicted");
        assert!(c.probe(&item("r2")).is_some());
        assert!(r1.persist_level().is_none(), "unpersisted");
    }

    #[test]
    fn materialized_rdd_hit_runs_lazy_gc() {
        let (c, sc) = spark_cache();
        let m = rand_uniform(16, 4, 0.0, 1.0, 6);
        let b = BlockedMatrix::from_dense(&m, 4).unwrap();
        let src = sc.parallelize_blocked(&b, "X");
        let bc = sc.broadcast(Matrix::scalar(2.0));
        let mapped = sc.map_with_broadcast(
            &src,
            "scale",
            &bc,
            StdArc::new(|k, m, s| {
                (
                    *k,
                    memphis_matrix::ops::binary::binary_scalar(
                        m,
                        s.at(0, 0),
                        memphis_matrix::ops::binary::BinaryOp::Mul,
                        false,
                    ),
                )
            }),
        );
        let it = item("gc");
        c.put(
            &it,
            CachedObject::Rdd {
                rdd: mapped.clone(),
                rows: 16,
                cols: 4,
            },
            Admit::new(10.0, m.size_bytes()),
        );
        sc.count(&mapped); // materialize
        assert!(!bc.is_destroyed());
        c.probe(&it).expect("materialized hit");
        assert!(bc.is_destroyed(), "lazy GC destroyed the broadcast");
        assert!(c.stats().gc_broadcasts_destroyed >= 1);
    }

    #[test]
    fn gpu_put_probe_acquires_pointer() {
        let device = StdArc::new(GpuDevice::new(memphis_gpusim::GpuConfig::zero_cost(
            1 << 20,
        )));
        let c = cache_kb(64).with_gpu(device);
        let g = c.gpu_manager().unwrap().clone();
        let alloc = c.gpu_request(1024, 2, 5.0).unwrap();
        let it = item("gpu");
        c.put(
            &it,
            CachedObject::Gpu {
                ptr: alloc.ptr,
                rows: 1,
                cols: 128,
            },
            Admit::new(5.0, 1024),
        );
        // Variable releases its reference; pointer goes to the free list
        // but stays reusable.
        c.gpu_release(alloc.ptr, 2, 5.0);
        assert_eq!(g.free_pointers(), 1);
        let hit = c.probe(&it).expect("gpu hit");
        assert!(matches!(hit, CachedObject::Gpu { ptr: p, .. } if p == alloc.ptr));
        assert_eq!(g.live_pointers(), 1, "probe re-acquired the pointer");
        assert_eq!(c.stats().hits_gpu, 1);
    }

    #[test]
    fn gpu_recycle_invalidates_entry() {
        let device = StdArc::new(GpuDevice::new(memphis_gpusim::GpuConfig::zero_cost(
            1 << 20,
        )));
        let c = cache_kb(64).with_gpu(device);
        let alloc = c.gpu_request(512, 2, 1.0).unwrap();
        let it = item("victim");
        c.put(
            &it,
            CachedObject::Gpu {
                ptr: alloc.ptr,
                rows: 1,
                cols: 128,
            },
            Admit::new(1.0, 512),
        );
        c.gpu_release(alloc.ptr, 2, 1.0);
        // Same-size request recycles the pointer, killing the entry.
        let again = c.gpu_request(512, 2, 1.0).unwrap();
        assert!(again.recycled);
        assert!(c.probe(&it).is_none(), "entry invalidated by recycling");
    }

    #[test]
    fn gpu_oom_evicts_cached_pointer_to_host() {
        let device = StdArc::new(GpuDevice::new(memphis_gpusim::GpuConfig::zero_cost(2048)));
        let c = cache_kb(64).with_gpu(device.clone());
        // Fill the device with one cached 1536-byte result.
        let m = rand_uniform(8, 24, 0.0, 1.0, 7); // 1536 bytes
        let a = c.gpu_request(1536, 2, 9.0).unwrap();
        device.copy_to_device(&m, a.ptr).unwrap();
        let it = item("precious");
        c.put(
            &it,
            CachedObject::Gpu {
                ptr: a.ptr,
                rows: 1,
                cols: 64,
            },
            Admit::new(9.0, 1536),
        );
        c.gpu_release(a.ptr, 2, 9.0);
        // A different-size request that cannot fit alongside it.
        let b = c.gpu_request(1024, 2, 1.0).unwrap();
        assert!(!b.recycled);
        // The cached result moved to the host and is still reusable.
        match c.probe(&it).expect("still reusable") {
            CachedObject::Matrix(got) => assert!(got.approx_eq(&m, 0.0)),
            other => panic!("expected host matrix, got {other:?}"),
        }
        assert_eq!(c.stats().gpu_evicted_to_host, 1);
        assert_eq!(c.local_used(), m.size_bytes(), "re-admitted locally");
    }

    #[test]
    fn evict_instruction_drops_fraction() {
        let device = StdArc::new(GpuDevice::new(memphis_gpusim::GpuConfig::zero_cost(
            1 << 20,
        )));
        let c = cache_kb(64).with_gpu(device);
        let g = c.gpu_manager().unwrap().clone();
        // Allocate all four up front so sequential requests cannot recycle
        // each other's pointers.
        let allocs: Vec<_> = (0..4)
            .map(|i| c.gpu_request(256, 2, i as f64).unwrap())
            .collect();
        for (i, a) in allocs.iter().enumerate() {
            c.put(
                &item(&format!("e{i}")),
                CachedObject::Gpu {
                    ptr: a.ptr,
                    rows: 1,
                    cols: 64,
                },
                Admit::new(i as f64, 256),
            );
            c.gpu_release(a.ptr, 2, i as f64);
        }
        assert_eq!(g.free_pointers(), 4);
        c.evict_gpu_fraction(1.0);
        assert_eq!(g.free_pointers(), 0);
        for i in 0..4 {
            assert!(c.probe(&item(&format!("e{i}"))).is_none());
        }
    }

    #[test]
    fn clear_resets_everything() {
        let (c, sc) = spark_cache();
        let m = rand_uniform(16, 4, 0.0, 1.0, 8);
        let b = BlockedMatrix::from_dense(&m, 4).unwrap();
        let src = sc.parallelize_blocked(&b, "X");
        let mapped = sc.map(&src, "id", StdArc::new(|k, m| (*k, m.deep_clone())));
        c.put(
            &item("r"),
            CachedObject::Rdd {
                rdd: mapped.clone(),
                rows: 16,
                cols: 4,
            },
            Admit::new(1.0, 1024),
        );
        c.put(&item("m"), mat(&m), Admit::new(1.0, m.size_bytes()));
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.local_used(), 0);
        assert_eq!(c.rdd_est_bytes(), 0);
        assert!(mapped.persist_level().is_none());
    }

    #[test]
    fn function_hits_counted_separately() {
        let c = cache_kb(64);
        let f = LineageItem::new("func:l2svm", vec![], vec![LineageItem::leaf("X")]);
        c.put(&f, CachedObject::Scalar(0.95), Admit::new(100.0, 16));
        c.probe(&f).expect("hit");
        assert_eq!(c.stats().hits_func, 1);
    }

    #[test]
    fn backend_snapshots_cover_registered_tiers() {
        let (c, _sc) = spark_cache();
        let m = rand_uniform(8, 8, 0.0, 1.0, 9);
        c.put(&item("m"), mat(&m), Admit::new(1.0, m.size_bytes()));
        let snaps = c.backend_snapshots();
        let ids: Vec<_> = snaps.iter().map(|s| s.id).collect();
        assert!(ids.contains(&BackendId::Local));
        assert!(ids.contains(&BackendId::Disk));
        assert!(ids.contains(&BackendId::Spark));
        let local = snaps.iter().find(|s| s.id == BackendId::Local).unwrap();
        assert_eq!(local.entries, 1);
        assert_eq!(local.used, m.size_bytes());
        assert!(!c.backend_report().is_empty());
    }

    // --------------------------------------------------------------
    // Concurrency: in-flight coalescing, pinning
    // --------------------------------------------------------------

    #[test]
    fn probe_or_begin_owner_then_hit() {
        let c = cache_kb(64);
        let it = item("own");
        let guard = match c.probe_or_begin(&it) {
            Probed::Compute(g) => g,
            _ => panic!("empty cache must yield ownership"),
        };
        assert!(c.complete(guard, CachedObject::Scalar(3.0), Admit::new(1.0, 16)));
        match c.probe_or_begin(&it) {
            Probed::Hit(h) => assert!(matches!(h, CachedObject::Scalar(v) if v == 3.0)),
            _ => panic!("completed entry must hit"),
        }
        let s = c.stats();
        assert_eq!(s.inflight_begins, 1);
        assert_eq!(s.probes, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.puts, 1);
    }

    #[test]
    fn concurrent_probes_coalesce_on_owner_result() {
        let c = StdArc::new(cache_kb(64));
        let it = item("coalesce");
        let guard = match c.probe_or_begin(&it) {
            Probed::Compute(g) => g,
            _ => panic!("owner"),
        };
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let c = c.clone();
                let it = it.clone();
                std::thread::spawn(move || match c.probe_or_begin(&it) {
                    Probed::Coalesced(h) => {
                        matches!(h, CachedObject::Scalar(v) if v == 42.0)
                    }
                    Probed::Hit(_) => true, // raced past completion: also fine
                    Probed::Compute(_) => false,
                })
            })
            .collect();
        // Wait until all three block on the flight, then complete.
        while c.inflight_waiters(&it) < 3 {
            std::thread::yield_now();
        }
        c.complete(guard, CachedObject::Scalar(42.0), Admit::new(1.0, 16));
        for w in waiters {
            assert!(w.join().unwrap(), "waiter saw the owner's result");
        }
        let s = c.stats();
        assert_eq!(s.coalesced_hits, 3);
        assert_eq!(s.inflight_waits, 3);
        assert_eq!(s.hits + s.misses, s.probes, "coalesced counts as hit");
    }

    #[test]
    fn dropped_guard_abandons_and_waiter_takes_over() {
        let c = StdArc::new(cache_kb(64));
        let it = item("abandon");
        let guard = match c.probe_or_begin(&it) {
            Probed::Compute(g) => g,
            _ => panic!("owner"),
        };
        let c2 = c.clone();
        let it2 = it.clone();
        let waiter = std::thread::spawn(move || match c2.probe_or_begin(&it2) {
            Probed::Compute(g) => {
                c2.complete(g, CachedObject::Scalar(7.0), Admit::new(1.0, 16));
                true
            }
            _ => false,
        });
        while c.inflight_waiters(&it) < 1 {
            std::thread::yield_now();
        }
        drop(guard); // owner errors out
        assert!(waiter.join().unwrap(), "waiter became the new owner");
        assert!(c.probe(&it).is_some(), "second owner's result cached");
        let s = c.stats();
        assert_eq!(s.inflight_abandoned, 1);
        assert_eq!(s.inflight_begins, 2);
    }

    #[test]
    fn pinned_complete_is_never_deferred_and_survives_eviction() {
        // Budget fits one 8 KB matrix; the pinned one must survive.
        // Spill is off so eviction means gone (not demoted to disk).
        let mut cfg = CacheConfig::test();
        cfg.local_budget = 12 << 10;
        cfg.spill_to_disk = false;
        let c = LineageCache::new(cfg);
        let it = item("pinned");
        let m = rand_uniform(32, 32, 0.0, 1.0, 1); // 8 KB
        let guard = match c.probe_or_begin(&it) {
            Probed::Compute(g) => g,
            _ => panic!("owner"),
        };
        // A pinned admission ignores the delay: stored on the first offer.
        let pinned = Admit {
            pin: true,
            delay: 3,
            ..Admit::new(1.0, m.size_bytes())
        };
        assert!(c.complete(guard, mat(&m), pinned));
        assert_eq!(c.stats().puts_deferred, 0);
        // An expensive newcomer would evict the cheap entry — but it is
        // pinned, so the newcomer is rejected for space instead.
        let m2 = rand_uniform(32, 32, 0.0, 1.0, 2);
        c.put(
            &item("intruder"),
            mat(&m2),
            Admit::new(1e9, m2.size_bytes()),
        );
        assert!(c.probe(&it).is_some(), "pinned entry survived");
        assert!(c.unpin(&it));
        let m3 = rand_uniform(32, 32, 0.0, 1.0, 3);
        c.put(
            &item("intruder2"),
            mat(&m3),
            Admit::new(1e9, m3.size_bytes()),
        );
        assert!(c.probe(&it).is_none(), "unpinned entry evictable again");
    }

    #[test]
    fn racing_admission_backs_out_cleanly() {
        // Two "sessions" computing the same item: one completes through
        // its guard, the other plain-puts. Accounting must stay single.
        let c = cache_kb(64);
        let it = item("race");
        let m = rand_uniform(8, 8, 0.0, 1.0, 1);
        let guard = match c.probe_or_begin(&it) {
            Probed::Compute(g) => g,
            _ => panic!("owner"),
        };
        // Racing plain put lands first.
        assert!(c.put(&it, mat(&m), Admit::new(1.0, m.size_bytes())));
        // Owner's completion sees the entry and does not double-account.
        assert!(!c.complete(guard, mat(&m), Admit::new(1.0, m.size_bytes())));
        assert_eq!(c.local_used(), m.size_bytes(), "no double accounting");
        assert_eq!(c.len(), 1);
    }

    // --------------------------------------------------------------
    // Tenant quotas (serving layer)
    // --------------------------------------------------------------

    #[test]
    fn tenant_bytes_are_accounted_and_released() {
        let c = cache_kb(64);
        let m = rand_uniform(8, 8, 0.0, 1.0, 1);
        assert!(c.put(&item("t0"), mat(&m), charged(7, 1.0, m.size_bytes())));
        assert_eq!(c.tenant_local_used(7), m.size_bytes());
        assert_eq!(c.tenant_local_used(8), 0);
        c.clear();
        assert_eq!(c.tenant_local_used(7), 0, "clear releases tenant bytes");
    }

    #[test]
    fn guard_completion_charges_its_tenant() {
        let c = cache_kb(64);
        let it = item("guarded");
        let m = rand_uniform(8, 8, 0.0, 1.0, 2);
        let guard = match c.probe_or_begin(&it) {
            Probed::Compute(g) => g,
            _ => panic!("owner"),
        };
        assert!(c.complete(guard, mat(&m), charged(3, 1.0, m.size_bytes())));
        assert_eq!(c.tenant_local_used(3), m.size_bytes());
        assert_eq!(c.tenant_local_used(4), 0);
    }

    #[test]
    fn over_quota_tenant_evicts_first_despite_higher_score() {
        // Budget fits two 8 KB matrices, not three. Tenant 1 is over its
        // 4 KB quota, so its entry is the victim even though its eq. (1)
        // score is far higher than tenant 2's.
        let mut cfg = CacheConfig::test();
        cfg.local_budget = 20 << 10;
        cfg.spill_to_disk = false;
        let c = LineageCache::new(cfg);
        c.set_tenant_quota(1, 4 << 10);
        let m1 = rand_uniform(32, 32, 0.0, 1.0, 1); // 8 KB
        let m2 = rand_uniform(32, 32, 0.0, 1.0, 2);
        assert!(c.put(&item("hog"), mat(&m1), charged(1, 1e9, m1.size_bytes())));
        assert!(c.put(&item("meek"), mat(&m2), charged(2, 1.0, m2.size_bytes())));
        let m3 = rand_uniform(32, 32, 0.0, 1.0, 3);
        assert!(c.put(
            &item("newcomer"),
            mat(&m3),
            Admit::new(5.0, m3.size_bytes())
        ));
        assert!(c.probe(&item("hog")).is_none(), "over-quota victim first");
        assert!(c.probe(&item("meek")).is_some(), "in-quota entry survives");
        let s = c.stats();
        assert_eq!(s.quota_evictions, 1);
        assert_eq!(c.tenant_local_used(1), 0);
    }

    #[test]
    fn no_quotas_means_plain_eq1_eviction() {
        let mut cfg = CacheConfig::test();
        cfg.local_budget = 20 << 10;
        cfg.spill_to_disk = false;
        let c = LineageCache::new(cfg);
        let m1 = rand_uniform(32, 32, 0.0, 1.0, 1);
        let m2 = rand_uniform(32, 32, 0.0, 1.0, 2);
        assert!(c.put(&item("a"), mat(&m1), charged(1, 1e9, m1.size_bytes())));
        assert!(c.put(&item("b"), mat(&m2), charged(2, 1.0, m2.size_bytes())));
        let m3 = rand_uniform(32, 32, 0.0, 1.0, 3);
        assert!(c.put(&item("c"), mat(&m3), Admit::new(5.0, m3.size_bytes())));
        assert!(c.probe(&item("a")).is_some(), "high score survives");
        assert!(
            c.probe(&item("b")).is_none(),
            "lowest eq. (1) score evicted"
        );
        assert_eq!(c.stats().quota_evictions, 0);
    }

    #[test]
    fn within_quota_tenants_fall_back_to_score() {
        // Tenant 1 has a generous quota: no quota pass, normal eviction.
        let mut cfg = CacheConfig::test();
        cfg.local_budget = 20 << 10;
        cfg.spill_to_disk = false;
        let c = LineageCache::new(cfg);
        c.set_tenant_quota(1, 1 << 20);
        let m1 = rand_uniform(32, 32, 0.0, 1.0, 1);
        let m2 = rand_uniform(32, 32, 0.0, 1.0, 2);
        assert!(c.put(&item("a"), mat(&m1), charged(1, 1e9, m1.size_bytes())));
        assert!(c.put(&item("b"), mat(&m2), charged(1, 1.0, m2.size_bytes())));
        let m3 = rand_uniform(32, 32, 0.0, 1.0, 3);
        assert!(c.put(&item("c"), mat(&m3), Admit::new(5.0, m3.size_bytes())));
        assert!(c.probe(&item("a")).is_some());
        assert_eq!(c.stats().quota_evictions, 0);
    }

    #[test]
    fn quota_eviction_spills_keep_tenant_tag_for_promotion() {
        // A spilled over-quota entry keeps its tenant; promotion back to
        // local recharges the tenant's bytes.
        let mut cfg = CacheConfig::test();
        cfg.local_budget = 20 << 10;
        let c = LineageCache::new(cfg);
        c.set_tenant_quota(1, 4 << 10);
        let m1 = rand_uniform(32, 32, 0.0, 1.0, 1);
        let i1 = item("spillme");
        assert!(c.put(&i1, mat(&m1), charged(1, 1e9, m1.size_bytes())));
        c.probe(&i1).expect("hit"); // proven → spill, not drop
        let m2 = rand_uniform(32, 32, 0.0, 1.0, 2);
        assert!(c.put(&item("b"), mat(&m2), Admit::new(1.0, m2.size_bytes())));
        let m3 = rand_uniform(32, 32, 0.0, 1.0, 3);
        assert!(c.put(&item("c"), mat(&m3), Admit::new(5.0, m3.size_bytes())));
        assert_eq!(c.stats().local_spills, 1, "over-quota entry spilled");
        assert_eq!(c.tenant_local_used(1), 0, "spill released local bytes");
        // Disk hit promotes it back (evicting someone to make room) and
        // the tenant is charged again.
        c.probe(&i1).expect("disk hit");
        assert_eq!(c.tenant_local_used(1), m1.size_bytes());
    }
}
