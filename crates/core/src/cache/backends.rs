//! The four built-in cache tiers as [`CacheBackend`] implementations:
//! driver-local memory, driver-local disk spill, Spark, and GPU.
//!
//! Each tier owns its byte accounting behind its own lock and cooperates
//! with the others through the registry: the local tier spills cold
//! matrices into the disk tier, the disk tier promotes hot matrices back
//! through the local tier, and the GPU's device-to-host eviction
//! re-admits matrices through the local tier as well.
//!
//! Tiers receive the *sharded* probe map with no shard lock held and
//! lock the shards they touch themselves (at most one at a time).
//! Victim selection scans shards sequentially, so every eviction path
//! re-validates its victim under the victim's shard lock before acting —
//! a concurrent session may have promoted, migrated, or removed the
//! entry between selection and eviction. Pinned entries are filtered out
//! of victim selection entirely.

use crate::backend::{
    BackendId, BackendRegistry, BackendSnapshot, CacheBackend, EvictionPolicy, Materialized,
};
use crate::cache::config::{CacheConfig, CachePolicy, MATERIALIZE_AFTER_MISSES};
use crate::cache::durable::{DurableRecord, RecoveredMeta, SegmentStore};
use crate::cache::entry::{CacheEntry, CachedObject};
use crate::cache::gpu::GpuMemoryManager;
use crate::cache::sharded::ShardedEntryMap;
use crate::cache::spark::SparkBackend;
use crate::lineage::{self, LineageId};
use crate::stats::ReuseStats;
use memphis_matrix::io as mio;
use memphis_matrix::Matrix;
use memphis_sparksim::StorageLevel;
use parking_lot::Mutex;
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

// ----------------------------------------------------------------------
// Local (driver memory)
// ----------------------------------------------------------------------

/// Per-tenant byte accounting for the serving layer: local bytes held by
/// each tenant's entries plus the soft quotas configured for them.
#[derive(Debug, Default)]
struct TenantLedger {
    used: HashMap<u16, usize>,
    quotas: HashMap<u16, usize>,
}

/// A spill victim of the running eviction pass: already on the disk
/// tier in the probe map, with `matrix` still attached, until the pass
/// commits it.
struct Spill {
    key: LineageId,
    matrix: Arc<Matrix>,
    cost: f64,
    hits: u64,
}

/// Driver-local in-memory tier: matrices and scalars against a byte
/// budget, eq. (1) eviction with spill into the disk tier.
pub struct LocalBackend {
    budget: usize,
    spill_enabled: bool,
    policy: EvictionPolicy,
    used: Mutex<usize>,
    tenants: Mutex<TenantLedger>,
    stats: Arc<ReuseStats>,
    spill: Option<Arc<DiskBackend>>,
}

impl LocalBackend {
    /// Creates the tier; `spill` receives evicted-but-proven entries.
    pub fn new(
        config: &CacheConfig,
        stats: Arc<ReuseStats>,
        spill: Option<Arc<DiskBackend>>,
    ) -> Self {
        Self {
            budget: config.local_budget,
            spill_enabled: config.spill_to_disk,
            policy: EvictionPolicy::with_policy(config.policy),
            used: Mutex::new(0),
            tenants: Mutex::new(TenantLedger::default()),
            stats,
            spill,
        }
    }

    /// Sets a tenant's soft cache quota in bytes. Entries of tenants over
    /// their quota become preferred eviction victims.
    pub fn set_quota(&self, tenant: u16, bytes: usize) {
        self.tenants.lock().quotas.insert(tenant, bytes);
    }

    /// Local bytes currently charged to `tenant`.
    pub fn tenant_used(&self, tenant: u16) -> usize {
        self.tenants.lock().used.get(&tenant).copied().unwrap_or(0)
    }

    fn charge_tenant(&self, tenant: Option<u16>, bytes: usize) {
        if let Some(t) = tenant {
            *self.tenants.lock().used.entry(t).or_insert(0) += bytes;
        }
    }

    fn credit_tenant(&self, tenant: Option<u16>, bytes: usize) {
        if let Some(t) = tenant {
            if let Some(u) = self.tenants.lock().used.get_mut(&t) {
                *u = u.saturating_sub(bytes);
            }
        }
    }

    /// Tenants currently above their configured quota.
    fn over_quota(&self) -> HashSet<u16> {
        let ledger = self.tenants.lock();
        ledger
            .quotas
            .iter()
            .filter(|(t, q)| ledger.used.get(t).copied().unwrap_or(0) > **q)
            .map(|(t, _)| *t)
            .collect()
    }

    /// Evicts one eq. (1) victim (spill or drop). Returns bytes freed,
    /// or `None` when no victim remains. A spill victim joins `spills`,
    /// which the pass commits when it ends ([`finish_pass`](Self::finish_pass)).
    ///
    /// Tenant quotas fold into the score lexicographically: while any
    /// tenant is over its soft quota, the victim is the lowest-score
    /// entry *of an over-quota tenant*; only when none remain does the
    /// plain eq. (1) pass over all entries run. With no quotas configured
    /// the first pass is skipped entirely and behavior is unchanged.
    fn evict_one(
        &self,
        map: &ShardedEntryMap,
        skip: Option<LineageId>,
        spills: &mut Vec<Spill>,
    ) -> Option<usize> {
        let over = self.over_quota();
        if !over.is_empty() {
            if let Some(freed) = self.evict_one_matching(map, skip, Some(&over), spills) {
                ReuseStats::inc(&self.stats.quota_evictions);
                return Some(freed);
            }
        }
        self.evict_one_matching(map, skip, None, spills)
    }

    /// One eviction restricted (when `tenants` is set) to entries owned
    /// by the given tenants.
    fn evict_one_matching(
        &self,
        map: &ShardedEntryMap,
        skip: Option<LineageId>,
        tenants: Option<&HashSet<u16>>,
        spills: &mut Vec<Spill>,
    ) -> Option<usize> {
        loop {
            let victim = map.select_victim(&self.policy, |k, e| {
                e.backend == BackendId::Local
                    && matches!(e.object, Some(CachedObject::Matrix(_)))
                    && skip.map(|s| k != s).unwrap_or(true)
                    && tenants
                        .map(|set| e.tenant.map(|t| set.contains(&t)).unwrap_or(false))
                        .unwrap_or(true)
            })?;
            let mut shard = map.lock_of(victim);
            // Re-validate under the shard lock: a concurrent session may
            // have removed, migrated, or pinned the victim since
            // selection; if so, select again.
            let Some(e) = shard.entries.get_mut(&victim) else {
                continue;
            };
            if e.backend != BackendId::Local || e.pinned {
                continue;
            }
            let Some(CachedObject::Matrix(m)) = e.object.clone() else {
                continue;
            };
            let msize = m.size_bytes();
            let tenant = e.tenant;
            if self.policy.policy == CachePolicy::DelayedHits {
                // Leave the victim's TTNA estimate behind so the
                // pressure-gated admission path can recognize it cycling
                // back, and count the eviction against the MAD score.
                map.record_ghost(victim, e.estimated_ttna());
                ReuseStats::inc(&self.stats.mad_evictions);
            }
            // Spill only entries with proven reuse (at least one hit) to
            // disk; unproven entries are dropped — avoiding disk-write
            // storms when a stream of never-reused intermediates thrashes
            // the budget (the robustness concern of §6.2).
            if self.spill_enabled && e.hits > 0 && self.spill.is_some() {
                // The victim moves to the disk tier with its matrix still
                // attached until the pass commits: a concurrent probe is
                // served from memory, and no scan selects it again.
                e.backend = BackendId::Disk;
                spills.push(Spill {
                    key: e.key,
                    matrix: m,
                    cost: e.compute_cost,
                    hits: e.hits,
                });
            } else {
                shard.entries.remove(&victim);
                ReuseStats::inc(&self.stats.local_drops);
                memphis_obs::instant_val(memphis_obs::cat::CACHE, "drop", "bytes", msize as u64);
            }
            {
                let mut used = self.used.lock();
                *used = used.saturating_sub(msize);
            }
            self.credit_tenant(tenant, msize);
            return Some(msize);
        }
    }

    /// MAKE_SPACE + reservation in one step: evicts until `size` extra
    /// bytes fit, then charges them to the accounting under the same
    /// lock acquisition that verified the headroom. A check-evict-charge
    /// sequence split across lock acquisitions would let two concurrent
    /// admissions each observe enough room and jointly overshoot the
    /// budget; the combined reserve cannot. Returns false (charging
    /// nothing) when eviction runs out of victims first.
    fn try_reserve(&self, map: &ShardedEntryMap, size: usize, skip: Option<LineageId>) -> bool {
        if size > self.budget {
            return false;
        }
        let mut spills = Vec::new();
        let mut evicting = false;
        let reserved = loop {
            {
                let mut used = self.used.lock();
                if *used + size <= self.budget {
                    *used += size;
                    break true;
                }
            }
            if !evicting {
                evicting = true;
                memphis_obs::instant_val(
                    memphis_obs::cat::CACHE,
                    "make_space",
                    "bytes",
                    size as u64,
                );
            }
            if self.evict_one(map, skip, &mut spills).is_none() {
                break false;
            }
        };
        self.finish_pass(map, spills);
        reserved
    }

    /// Ends an eviction pass: commits its spill victims to the disk tier
    /// in one group commit (one segment fsync, one manifest fsync), then
    /// points each victim at its durable record — or, when the commit
    /// fails, drops it as a failed spill is dropped. A victim that left
    /// the disk tier meanwhile (removed, promoted, re-admitted) has its
    /// fresh record discarded. A pass without spill victims returns at
    /// once.
    fn finish_pass(&self, map: &ShardedEntryMap, spills: Vec<Spill>) {
        if spills.is_empty() {
            return;
        }
        let Some(disk) = &self.spill else { return };
        let committed = disk.store(spills.iter().map(|s| (&*s.matrix, s.key, s.cost, s.hits)));
        for s in spills {
            let hash = s.key.content_hash();
            let msize = s.matrix.size_bytes();
            let mut shard = map.lock_of(s.key);
            let pending = shard.entries.get_mut(&s.key).filter(|e| {
                e.backend == BackendId::Disk
                    && matches!(&e.object, Some(CachedObject::Matrix(m)) if Arc::ptr_eq(m, &s.matrix))
            });
            if committed {
                match pending {
                    Some(e) => e.object = Some(CachedObject::Disk(hash)),
                    None => {
                        drop(shard);
                        disk.discard(hash, msize);
                    }
                }
                ReuseStats::inc(&self.stats.local_spills);
                memphis_obs::instant_val(memphis_obs::cat::CACHE, "spill", "bytes", msize as u64);
            } else {
                if pending.is_some() {
                    shard.entries.remove(&s.key);
                }
                ReuseStats::inc(&self.stats.local_drops);
                memphis_obs::instant_val(memphis_obs::cat::CACHE, "drop", "bytes", msize as u64);
            }
        }
    }

    /// Admits a matrix into an *existing* entry (disk promotion,
    /// device-to-host eviction): reserves space, rewrites the entry to
    /// the local tier. Returns false (releasing the reservation) when
    /// the matrix does not fit or the entry vanished meanwhile. Called
    /// with no shard lock held.
    pub fn admit_existing(&self, map: &ShardedEntryMap, key: LineageId, m: Arc<Matrix>) -> bool {
        let size = m.size_bytes();
        if !self.try_reserve(map, size, Some(key)) {
            return false;
        }
        let mut shard = map.lock_of(key);
        let Some(e) = shard.entries.get_mut(&key) else {
            drop(shard);
            let mut used = self.used.lock();
            *used = used.saturating_sub(size);
            return false;
        };
        e.object = Some(CachedObject::Matrix(m));
        e.size = size;
        e.backend = BackendId::Local;
        let tenant = e.tenant;
        drop(shard);
        self.charge_tenant(tenant, size);
        true
    }
}

impl CacheBackend for LocalBackend {
    fn id(&self) -> BackendId {
        BackendId::Local
    }

    fn put(
        &self,
        map: &ShardedEntryMap,
        _reg: &BackendRegistry,
        _key: LineageId,
        entry: &mut CacheEntry,
    ) -> bool {
        match &entry.object {
            Some(CachedObject::Matrix(m)) => {
                let size = m.size_bytes();
                // Oversized, or eviction cannot free enough (e.g. the
                // budget is filled by pinned entries): skip caching.
                if !self.try_reserve(map, size, None) {
                    return false;
                }
                entry.size = size;
                self.charge_tenant(entry.tenant, size);
                true
            }
            Some(CachedObject::Scalar(_)) => {
                entry.size = 16;
                true
            }
            _ => false,
        }
    }

    fn materialize(
        &self,
        map: &ShardedEntryMap,
        _reg: &BackendRegistry,
        key: LineageId,
    ) -> Materialized {
        let mut shard = map.lock_of(key);
        let Some(e) = shard.entries.get_mut(&key) else {
            return Materialized::Stale;
        };
        let Some(object) = e.object.clone() else {
            return Materialized::Stale;
        };
        e.hits += 1;
        let saved = if self.policy.policy == CachePolicy::DelayedHits && e.miss_waiters > 0 {
            // Every resident hit of a fan-out entry avoids re-imposing
            // the stacked delay its misses were observed to cause.
            (e.miss_waiters as f64 * e.compute_cost) as u64
        } else {
            0
        };
        drop(shard);
        if saved > 0 {
            self.stats
                .delayed_hit_ticks_saved
                .fetch_add(saved, Ordering::Relaxed);
        }
        ReuseStats::inc(&self.stats.hits_local);
        Materialized::Hit(object)
    }

    fn evict_until(
        &self,
        map: &ShardedEntryMap,
        _reg: &BackendRegistry,
        bytes: usize,
        skip: Option<LineageId>,
    ) -> usize {
        let mut spills = Vec::new();
        let mut freed = 0;
        while freed < bytes {
            match self.evict_one(map, skip, &mut spills) {
                Some(n) => freed += n,
                None => break,
            }
        }
        self.finish_pass(map, spills);
        freed
    }

    fn used(&self) -> usize {
        *self.used.lock()
    }

    fn budget(&self) -> usize {
        self.budget
    }

    fn snapshot(&self) -> BackendSnapshot {
        let s = self.stats.snapshot();
        BackendSnapshot {
            id: self.id(),
            used: self.used(),
            budget: self.budget,
            entries: 0,
            detail: vec![
                ("hits", s.hits_local),
                ("spills", s.local_spills),
                ("drops", s.local_drops),
                ("quota_evicts", s.quota_evictions),
                ("ttna_rejects", s.ttna_admission_rejects),
                ("delay_ticks_saved", s.delayed_hit_ticks_saved),
                ("mad_evicts", s.mad_evictions),
            ],
        }
    }

    fn release(&self, entry: &CacheEntry) {
        if let Some(CachedObject::Matrix(m)) = &entry.object {
            let size = m.size_bytes();
            {
                let mut used = self.used.lock();
                *used = used.saturating_sub(size);
            }
            self.credit_tenant(entry.tenant, size);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

// ----------------------------------------------------------------------
// Disk (durable log-structured segment store)
// ----------------------------------------------------------------------

/// Driver-local disk tier over the crash-safe
/// [`SegmentStore`]: spilled
/// matrices become CRC-checksummed records keyed by lineage
/// `content_hash` (with their serialized lineage embedded for
/// re-interning), committed through an append-only manifest, read back
/// on hit and promoted to memory again when it fits. With a persistent
/// directory the tier survives restarts: construction recovers the
/// manifest and hands verified entry metadata to the cache.
pub struct DiskBackend {
    store: SegmentStore,
    policy: EvictionPolicy,
    /// Persistent stores keep their directory on drop; classic
    /// cache-unique spill directories are removed.
    persistent: bool,
    used: Mutex<usize>,
    recovered: Mutex<Vec<RecoveredMeta>>,
    stats: Arc<ReuseStats>,
}

impl DiskBackend {
    /// Opens the tier over `config.spill_dir`, recovering any committed
    /// durable state found there. The directory is removed on drop
    /// unless `config.persist_dir` marked it persistent.
    pub fn new(config: &CacheConfig, stats: Arc<ReuseStats>) -> Self {
        let (store, recovered) = SegmentStore::open(
            config.spill_dir.clone(),
            config.segment_max_bytes,
            config.compact_min_dead_bytes,
            config.disk_faults.clone(),
            stats.clone(),
        );
        let used = recovered.iter().map(|r| r.matrix_len).sum();
        Self {
            store,
            policy: EvictionPolicy::with_policy(config.policy),
            persistent: config.persist_dir.is_some(),
            used: Mutex::new(used),
            recovered: Mutex::new(recovered),
            stats,
        }
    }

    /// Verified entry metadata found by recovery, taken once by the
    /// cache to rebuild its probe map.
    pub fn take_recovered(&self) -> Vec<RecoveredMeta> {
        std::mem::take(&mut *self.recovered.lock())
    }

    /// The underlying durable store (sync-point instrumentation for the
    /// crash-recovery harness).
    pub fn segment_store(&self) -> &SegmentStore {
        &self.store
    }

    /// Commits `(matrix, key, compute cost, hits)` spill victims as
    /// durable records carrying their serialized lineage, cost, and
    /// reuse standing, in one group commit: two sync points however
    /// many records (a lone store is a batch of one). Returns false,
    /// committing none of them, on I/O failure or injected crash; the
    /// caller degrades to a clean drop, never a dangling entry.
    pub fn store<'a>(
        &self,
        victims: impl IntoIterator<Item = (&'a Matrix, LineageId, f64, u64)>,
    ) -> bool {
        let mut bytes = 0;
        let records: Vec<DurableRecord> = victims
            .into_iter()
            .map(|(m, key, compute_cost, hits)| {
                bytes += m.size_bytes();
                let item = lineage::resolve(key);
                DurableRecord {
                    content_hash: key.content_hash(),
                    compute_cost,
                    hits,
                    height: item.height,
                    lineage_log: lineage::serialize(&item),
                    matrix_bytes: mio::to_bytes(m).to_vec(),
                }
            })
            .collect();
        let committed = self.store.commit(&records);
        if committed {
            *self.used.lock() += bytes;
        }
        committed
    }

    /// Reads a committed record's matrix without hit accounting
    /// (recovery-time rehydration).
    pub(crate) fn read_matrix_raw(&self, hash: u64) -> Option<Matrix> {
        let rec = self.store.read(hash)?;
        mio::from_bytes(rec.matrix_bytes.into()).ok()
    }

    /// Tombstones a record and reverses its byte accounting.
    pub fn discard(&self, hash: u64, size: usize) {
        self.store.remove(hash);
        let mut used = self.used.lock();
        *used = used.saturating_sub(size);
    }
}

impl CacheBackend for DiskBackend {
    fn id(&self) -> BackendId {
        BackendId::Disk
    }

    fn put(
        &self,
        _map: &ShardedEntryMap,
        _reg: &BackendRegistry,
        _key: LineageId,
        entry: &mut CacheEntry,
    ) -> bool {
        // Direct admission of an already-committed record. Reject hashes
        // the store does not hold (a dangling admission would poison
        // every later probe with a read failure).
        if let Some(CachedObject::Disk(hash)) = &entry.object {
            if !self.store.contains(*hash) {
                ReuseStats::inc(&self.stats.disk_io_errors);
                return false;
            }
            *self.used.lock() += entry.size;
            true
        } else {
            false
        }
    }

    fn materialize(
        &self,
        map: &ShardedEntryMap,
        reg: &BackendRegistry,
        key: LineageId,
    ) -> Materialized {
        let (hash, size) = {
            let shard = map.lock_of(key);
            let Some(e) = shard.entries.get(&key) else {
                return Materialized::Stale;
            };
            match &e.object {
                Some(CachedObject::Disk(hash)) => (*hash, e.size),
                // A spill victim whose eviction pass has not committed
                // yet, or an entry a concurrent probe promoted to the
                // local tier after our caller saw it on this tier: the
                // attached matrix is the hit. Reporting Stale would drop
                // the entry and recompute a durable result.
                Some(CachedObject::Matrix(m)) => {
                    ReuseStats::inc(&self.stats.hits_disk);
                    return Materialized::Hit(CachedObject::Matrix(m.clone()));
                }
                _ => return Materialized::Stale,
            }
        };
        // A checksum rejection inside `read` tombstones the record and
        // returns nothing: the probe sees Stale, drops the entry cleanly,
        // and falls through to recompute — corrupt bytes never surface.
        match self
            .store
            .read(hash)
            .and_then(|rec| mio::from_bytes(rec.matrix_bytes.into()).ok())
        {
            Some(m) => {
                let m = Arc::new(m);
                map.with_entry(key, |e| {
                    if let Some(e) = e {
                        e.hits += 1;
                    }
                });
                ReuseStats::inc(&self.stats.hits_disk);
                let promoted = reg
                    .downcast::<LocalBackend>(BackendId::Local)
                    .map(|local| local.admit_existing(map, key, m.clone()))
                    .unwrap_or(false);
                if promoted {
                    self.discard(hash, size);
                }
                Materialized::Hit(CachedObject::Matrix(m))
            }
            None => {
                // A concurrent probe of the same key may have promoted
                // the entry to driver memory (discarding the durable
                // copy) between our snapshot and the read. The promotion
                // is the hit; only a still-disk-backed entry is a real
                // read failure (and gets dropped for recompute).
                let promoted = {
                    let shard = map.lock_of(key);
                    shard.entries.get(&key).and_then(|e| match &e.object {
                        Some(CachedObject::Matrix(m)) => Some(m.clone()),
                        _ => None,
                    })
                };
                match promoted {
                    Some(m) => {
                        ReuseStats::inc(&self.stats.hits_disk);
                        Materialized::Hit(CachedObject::Matrix(m))
                    }
                    None => {
                        ReuseStats::inc(&self.stats.disk_io_errors);
                        Materialized::Stale
                    }
                }
            }
        }
    }

    fn evict_until(
        &self,
        map: &ShardedEntryMap,
        _reg: &BackendRegistry,
        bytes: usize,
        skip: Option<LineageId>,
    ) -> usize {
        let mut freed = 0;
        while freed < bytes {
            let victim = map.select_victim(&self.policy, |k, e| {
                e.backend == BackendId::Disk && skip.map(|s| k != s).unwrap_or(true)
            });
            let Some(k) = victim else { break };
            let removed = {
                let mut shard = map.lock_of(k);
                match shard.entries.get(&k) {
                    Some(e) if e.backend == BackendId::Disk && !e.pinned => {
                        shard.entries.remove(&k)
                    }
                    _ => None, // victim changed hands meanwhile: reselect
                }
            };
            let Some(e) = removed else { continue };
            if let Some(CachedObject::Disk(hash)) = &e.object {
                self.discard(*hash, e.size);
            }
            freed += e.size;
        }
        freed
    }

    fn used(&self) -> usize {
        *self.used.lock()
    }

    fn budget(&self) -> usize {
        usize::MAX
    }

    fn snapshot(&self) -> BackendSnapshot {
        let s = self.stats.snapshot();
        BackendSnapshot {
            id: self.id(),
            used: self.used(),
            budget: usize::MAX,
            entries: 0,
            detail: vec![
                ("hits", s.hits_disk),
                ("spilled_in", s.local_spills),
                ("io_errors", s.disk_io_errors),
                ("recovered", s.entries_recovered),
                ("rehydrated", s.entries_rehydrated),
                ("crc_rejects", s.checksum_rejects),
                ("swaps", s.manifest_swaps),
            ],
        }
    }

    fn release(&self, entry: &CacheEntry) {
        if let Some(CachedObject::Disk(hash)) = &entry.object {
            self.discard(*hash, entry.size);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Drop for DiskBackend {
    fn drop(&mut self) {
        if self.persistent {
            // Persistent stores outlive the process by design: a clean
            // close makes the buffered tombstones durable.
            self.store.close();
        } else {
            // The spill directory is cache-unique (see
            // `LineageCache::new`): safe to remove.
            std::fs::remove_dir_all(self.store.dir()).ok();
        }
    }
}

// ----------------------------------------------------------------------
// Spark (distributed RDDs)
// ----------------------------------------------------------------------

/// Follow-up work a Spark materialization schedules for after the shard
/// lock is released (lazy GC and async `count()` both take cluster
/// locks, so they must not run under a shard lock).
enum SparkFollowUp {
    None,
    LazyGc(memphis_sparksim::RddRef),
    Trigger(memphis_sparksim::RddRef),
}

/// Spark tier: RDD handles reused even while unmaterialized, delayed
/// `persist()`, eq. (1) budget eviction via `unpersist`, asynchronous
/// `count()` materialization, and lazy GC of dangling references.
pub struct SparkTier {
    backend: SparkBackend,
    policy: EvictionPolicy,
    est: Mutex<usize>,
    stats: Arc<ReuseStats>,
}

impl SparkTier {
    /// Wraps an attached cluster.
    pub fn new(backend: SparkBackend, config: &CacheConfig, stats: Arc<ReuseStats>) -> Self {
        Self {
            backend,
            policy: EvictionPolicy::with_policy(config.policy),
            est: Mutex::new(0),
            stats,
        }
    }

    /// The wrapped Spark attachment (cluster handle + reuse budget).
    pub fn spark(&self) -> &SparkBackend {
        &self.backend
    }

    /// Evicts the lowest-score stored RDD entry (eq. 1). Returns bytes
    /// freed, or `None` when none exist.
    fn evict_worst(&self, map: &ShardedEntryMap) -> Option<usize> {
        loop {
            let victim = map.select_victim(&self.policy, |_, e| e.backend == BackendId::Spark)?;
            let e = {
                let mut shard = map.lock_of(victim);
                match shard.entries.get(&victim) {
                    Some(e) if e.backend == BackendId::Spark && !e.pinned => {
                        shard.entries.remove(&victim)
                    }
                    _ => None, // victim changed hands meanwhile: reselect
                }
            };
            let Some(e) = e else { continue };
            {
                let mut est = self.est.lock();
                *est = est.saturating_sub(e.size);
            }
            if let Some(CachedObject::Rdd { rdd, .. }) = &e.object {
                self.backend.sc.unpersist(rdd);
                self.backend.sc.cleanup_shuffle(rdd);
            }
            ReuseStats::inc(&self.stats.rdd_unpersists);
            memphis_obs::instant_val(
                memphis_obs::cat::CACHE,
                "rdd_unpersist",
                "bytes",
                e.size as u64,
            );
            return Some(e.size);
        }
    }

    /// Lazy garbage collection from a freshly materialized cached RDD.
    /// Called with no shard lock held; scans shards one at a time.
    fn run_lazy_gc(&self, map: &ShardedEntryMap, root: &memphis_sparksim::RddRef) {
        // Protected sets: RDDs referenced by any entry; broadcasts
        // reachable from unmaterialized RDD entries.
        let mut cached_rdds: HashSet<u64> = HashSet::new();
        let mut protected_bc: HashSet<u64> = HashSet::new();
        map.for_each(|_, e| {
            if let Some(CachedObject::Rdd { rdd: r, .. }) = &e.object {
                cached_rdds.insert(r.id().0);
                if !self.backend.sc.is_fully_cached(r) {
                    protected_bc.extend(SparkBackend::reachable_broadcasts(r));
                }
            }
        });
        self.backend
            .lazy_gc(root, &cached_rdds, &protected_bc, &self.stats);
    }
}

impl CacheBackend for SparkTier {
    fn id(&self) -> BackendId {
        BackendId::Spark
    }

    fn put(
        &self,
        map: &ShardedEntryMap,
        _reg: &BackendRegistry,
        _key: LineageId,
        entry: &mut CacheEntry,
    ) -> bool {
        let Some(CachedObject::Rdd { rdd, .. }) = &entry.object else {
            return false;
        };
        // Eq. (1) budget eviction before persisting a new RDD.
        while *self.est.lock() + entry.size > self.backend.reuse_budget {
            if self.evict_worst(map).is_none() {
                break;
            }
        }
        rdd.persist(StorageLevel::MemoryAndDisk);
        *self.est.lock() += entry.size;
        true
    }

    fn materialize(
        &self,
        map: &ShardedEntryMap,
        _reg: &BackendRegistry,
        key: LineageId,
    ) -> Materialized {
        let (object, follow_up) = {
            let mut shard = map.lock_of(key);
            let Some(e) = shard.entries.get_mut(&key) else {
                return Materialized::Stale;
            };
            let Some(CachedObject::Rdd { rdd, rows, cols }) = e.object.clone() else {
                return Materialized::Stale;
            };
            let follow_up = if self.backend.sc.is_fully_cached(&rdd) {
                e.hits += 1;
                let gc_pending = !e.gc_done;
                e.gc_done = true;
                if gc_pending {
                    SparkFollowUp::LazyGc(rdd.clone())
                } else {
                    SparkFollowUp::None
                }
            } else {
                // Reuse of an unmaterialized RDD: compute sharing still
                // applies, but count the miss toward async
                // materialization.
                e.misses += 1;
                let trigger = !e.materialize_triggered && e.misses >= MATERIALIZE_AFTER_MISSES;
                if trigger {
                    e.materialize_triggered = true;
                    SparkFollowUp::Trigger(rdd.clone())
                } else {
                    SparkFollowUp::None
                }
            };
            (CachedObject::Rdd { rdd, rows, cols }, follow_up)
        };
        ReuseStats::inc(&self.stats.hits_rdd);
        match follow_up {
            SparkFollowUp::LazyGc(rdd) => self.run_lazy_gc(map, &rdd),
            SparkFollowUp::Trigger(rdd) => self.backend.trigger_materialize(&rdd, &self.stats),
            SparkFollowUp::None => {}
        }
        Materialized::Hit(object)
    }

    fn evict_until(
        &self,
        map: &ShardedEntryMap,
        _reg: &BackendRegistry,
        bytes: usize,
        _skip: Option<LineageId>,
    ) -> usize {
        let mut freed = 0;
        while freed < bytes {
            match self.evict_worst(map) {
                Some(n) => freed += n,
                None => break,
            }
        }
        freed
    }

    fn used(&self) -> usize {
        *self.est.lock()
    }

    fn budget(&self) -> usize {
        self.backend.reuse_budget
    }

    fn snapshot(&self) -> BackendSnapshot {
        let s = self.stats.snapshot();
        let mut detail = vec![
            ("hits", s.hits_rdd),
            ("unpersists", s.rdd_unpersists),
            ("mat_jobs", s.rdd_materialize_jobs),
            ("gc_rdds", s.gc_rdds_released),
            ("gc_bcasts", s.gc_broadcasts_destroyed),
            ("gc_bcast_unpersists", s.gc_broadcasts_unpersisted),
        ];
        detail.extend(self.backend.sc.stats().pairs());
        BackendSnapshot {
            id: self.id(),
            used: self.used(),
            budget: self.backend.reuse_budget,
            entries: 0,
            detail,
        }
    }

    fn release(&self, entry: &CacheEntry) {
        if let Some(CachedObject::Rdd { rdd, .. }) = &entry.object {
            self.backend.sc.unpersist(rdd);
            self.backend.sc.cleanup_shuffle(rdd);
            let mut est = self.est.lock();
            *est = est.saturating_sub(entry.size);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

// ----------------------------------------------------------------------
// GPU (device pointers)
// ----------------------------------------------------------------------

/// GPU tier: cached device pointers managed by the unified
/// [`GpuMemoryManager`] (Live/Free lists, recycling, eq. (2) scoring).
pub struct GpuTier {
    mgr: Arc<GpuMemoryManager>,
    stats: Arc<ReuseStats>,
}

impl GpuTier {
    /// Wraps a memory manager.
    pub fn new(mgr: Arc<GpuMemoryManager>, stats: Arc<ReuseStats>) -> Self {
        Self { mgr, stats }
    }

    /// The unified GPU memory manager.
    pub fn manager(&self) -> &Arc<GpuMemoryManager> {
        &self.mgr
    }
}

impl CacheBackend for GpuTier {
    fn id(&self) -> BackendId {
        BackendId::Gpu
    }

    fn put(
        &self,
        _map: &ShardedEntryMap,
        _reg: &BackendRegistry,
        key: LineageId,
        entry: &mut CacheEntry,
    ) -> bool {
        let Some(CachedObject::Gpu { ptr, .. }) = &entry.object else {
            return false;
        };
        self.mgr.mark_cached(*ptr, key);
        entry.size = ptr.size;
        true
    }

    fn materialize(
        &self,
        map: &ShardedEntryMap,
        _reg: &BackendRegistry,
        key: LineageId,
    ) -> Materialized {
        let mut shard = map.lock_of(key);
        let Some(e) = shard.entries.get_mut(&key) else {
            return Materialized::Stale;
        };
        let Some(CachedObject::Gpu { ptr, rows, cols }) = e.object.clone() else {
            return Materialized::Stale;
        };
        if self.mgr.acquire(ptr) {
            e.hits += 1;
            drop(shard);
            ReuseStats::inc(&self.stats.hits_gpu);
            Materialized::Hit(CachedObject::Gpu { ptr, rows, cols })
        } else {
            // Pointer no longer managed — stale entry.
            Materialized::Stale
        }
    }

    fn evict_until(
        &self,
        map: &ShardedEntryMap,
        _reg: &BackendRegistry,
        bytes: usize,
        _skip: Option<LineageId>,
    ) -> usize {
        let (freed, invalidated) = self.mgr.evict_bytes(bytes);
        for k in invalidated {
            // Pointers are already freed: remove without release.
            map.remove_entry(k);
        }
        freed
    }

    fn used(&self) -> usize {
        self.mgr.device().mem_used()
    }

    fn budget(&self) -> usize {
        self.mgr.device().capacity()
    }

    fn snapshot(&self) -> BackendSnapshot {
        let s = self.stats.snapshot();
        let mut detail = vec![
            ("hits", s.hits_gpu),
            ("recycled", s.gpu_recycled),
            ("reused", s.gpu_reused),
            ("freed", s.gpu_freed),
            ("to_host", s.gpu_evicted_to_host),
        ];
        detail.extend(self.mgr.device().stats().pairs());
        BackendSnapshot {
            id: self.id(),
            used: self.used(),
            budget: self.mgr.device().capacity(),
            entries: 0,
            detail,
        }
    }

    fn release(&self, entry: &CacheEntry) {
        if let Some(CachedObject::Gpu { ptr, .. }) = &entry.object {
            self.mgr.unmark_cached(*ptr);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::LineageItem;
    use memphis_matrix::rand_gen::rand_uniform;
    use memphis_sparksim::FaultPlan;

    /// A local tier spilling into a fresh disk tier, plus a probe map
    /// holding `names` as spill victims mid-pass: flipped to the disk
    /// tier with their matrices attached.
    fn pass_of(
        names: &[&str],
        faults: FaultPlan,
    ) -> (LocalBackend, Arc<DiskBackend>, ShardedEntryMap, Vec<Spill>) {
        let mut cfg = CacheConfig::test();
        cfg.spill_dir = std::env::temp_dir().join(format!(
            "memphis_finish_pass_{}_{}",
            names.join("_"),
            std::process::id()
        ));
        cfg.disk_faults = faults;
        let stats = Arc::new(ReuseStats::default());
        let disk = Arc::new(DiskBackend::new(&cfg, stats.clone()));
        let local = LocalBackend::new(&cfg, stats, Some(disk.clone()));
        let map = ShardedEntryMap::new(4);
        let mut spills = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let item = LineageItem::leaf(name);
            let m = Arc::new(rand_uniform(8, 8, 0.0, 1.0, i as u64));
            let mut e =
                CacheEntry::cached(&item, CachedObject::Matrix(m.clone()), 1.0, m.size_bytes());
            e.backend = BackendId::Disk;
            map.lock_of(item.lid).entries.insert(item.lid, e);
            spills.push(Spill {
                key: item.lid,
                matrix: m,
                cost: 1.0,
                hits: 1,
            });
        }
        (local, disk, map, spills)
    }

    #[test]
    fn a_victim_that_left_before_its_pass_committed_leaves_no_record() {
        let (local, disk, map, spills) = pass_of(&["pass/kept", "pass/gone"], FaultPlan::none());
        let (kept, gone) = (spills[0].key, spills[1].key);
        let size = spills[0].matrix.size_bytes();
        map.remove_entry(gone);
        let syncs = disk.segment_store().sync_points();
        local.finish_pass(&map, spills);
        assert_eq!(disk.segment_store().sync_points(), syncs + 2, "one commit");
        let object = map.with_entry(kept, |e| e.and_then(|e| e.object.clone()));
        assert!(matches!(object, Some(CachedObject::Disk(h)) if h == kept.content_hash()));
        assert!(disk.segment_store().contains(kept.content_hash()));
        assert!(!disk.segment_store().contains(gone.content_hash()));
        assert_eq!(disk.used(), size, "only the kept victim is accounted");
        assert_eq!(local.stats.snapshot().local_spills, 2);
    }

    #[test]
    fn a_failed_pass_commit_drops_its_victims() {
        let (local, disk, map, spills) = pass_of(
            &["pass/fail_a", "pass/fail_b"],
            FaultPlan::seeded(5).with_disk_kill_at_sync(1),
        );
        let keys: Vec<LineageId> = spills.iter().map(|s| s.key).collect();
        local.finish_pass(&map, spills);
        for key in keys {
            assert!(map.with_entry(key, |e| e.is_none()), "victim dropped");
            assert!(!disk.segment_store().contains(key.content_hash()));
        }
        assert_eq!(disk.used(), 0);
        let s = local.stats.snapshot();
        assert_eq!((s.local_spills, s.local_drops), (0, 2));
    }
}
