//! The driver's two cache tiers: driver-local memory and its disk spill.
//! (The Spark tier lives in [`super::spark`], the GPU tier is the
//! [`GpuMemoryManager`](super::gpu::GpuMemoryManager).)
//!
//! Each tier owns its byte accounting behind its own lock. The two
//! cooperate by taking each other as an argument: the local tier spills
//! cold matrices into the disk tier, the disk tier promotes hot matrices
//! back through the local tier, and the GPU's device-to-host eviction
//! and recovery rehydration re-admit matrices through the local tier.
//!
//! Tiers receive the *sharded* probe map with no shard lock held and
//! lock the shards they touch themselves (at most one at a time).
//! Victim selection scans shards sequentially, so every eviction path
//! re-validates its victim under the victim's shard lock before acting —
//! a concurrent session may have promoted, migrated, or removed the
//! entry between selection and eviction. Pinned entries are filtered out
//! of victim selection entirely.

use crate::backend::{BackendId, BackendSnapshot, EvictionPolicy, Materialized};
use crate::cache::config::{CacheConfig, CachePolicy};
use crate::cache::durable::{DurableRecord, RecoveredMeta, SegmentStore};
use crate::cache::entry::{CacheEntry, CachedObject};
use crate::cache::sharded::ShardedEntryMap;
use crate::lineage::{self, LineageId};
use crate::stats::ReuseStats;
use memphis_matrix::io as mio;
use memphis_matrix::Matrix;
use parking_lot::Mutex;
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
}

impl LocalBackend {
    /// Creates the tier. Evicted-but-proven matrices spill into the disk
    /// tier each eviction pass is handed.
    pub(crate) fn new(config: &CacheConfig, stats: Arc<ReuseStats>) -> Self {
        Self {
            budget: config.local_budget,
            spill_enabled: config.spill_to_disk,
            policy: EvictionPolicy::with_policy(config.policy),
            used: Mutex::new(0),
            tenants: Mutex::new(TenantLedger::default()),
            stats,
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
            if self.spill_enabled && e.hits > 0 {
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
    /// nothing) when eviction runs out of victims first. Spill victims
    /// are committed to `disk`.
    fn try_reserve(
        &self,
        map: &ShardedEntryMap,
        disk: &DiskBackend,
        size: usize,
        skip: Option<LineageId>,
    ) -> bool {
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
        self.finish_pass(map, disk, spills);
        reserved
    }

    /// Ends an eviction pass: commits its spill victims to `disk` in one
    /// group commit (one segment fsync, one manifest fsync), then
    /// points each victim at its durable record — or, when the commit
    /// fails, drops it as a failed spill is dropped. A victim that left
    /// the disk tier meanwhile (removed, promoted, re-admitted) has its
    /// fresh record discarded. A pass without spill victims returns at
    /// once.
    fn finish_pass(&self, map: &ShardedEntryMap, disk: &DiskBackend, spills: Vec<Spill>) {
        if spills.is_empty() {
            return;
        }
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
    /// with no shard lock held; the space it makes spills into `disk`.
    pub(crate) fn admit_existing(
        &self,
        map: &ShardedEntryMap,
        disk: &DiskBackend,
        key: LineageId,
        m: Arc<Matrix>,
    ) -> bool {
        let size = m.size_bytes();
        if !self.try_reserve(map, disk, size, Some(key)) {
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

    /// MAKE_SPACE + admission of a matrix or scalar entry (not yet in the
    /// map), sizing it and charging its tenant. Returns false for any
    /// other object, or when the matrix cannot be made to fit.
    pub(crate) fn put(
        &self,
        map: &ShardedEntryMap,
        disk: &DiskBackend,
        entry: &mut CacheEntry,
    ) -> bool {
        match &entry.object {
            Some(CachedObject::Matrix(m)) => {
                let size = m.size_bytes();
                // Oversized, or eviction cannot free enough (e.g. the
                // budget is filled by pinned entries): skip caching.
                if !self.try_reserve(map, disk, size, None) {
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

    /// Hit-side reuse of a resident matrix or scalar.
    pub(crate) fn materialize(&self, map: &ShardedEntryMap, key: LineageId) -> Materialized {
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

    /// Bytes of driver memory charged to cached matrices.
    pub(crate) fn used(&self) -> usize {
        *self.used.lock()
    }

    /// The tier's stats report.
    pub(crate) fn snapshot(&self) -> BackendSnapshot {
        let s = self.stats.snapshot();
        BackendSnapshot {
            id: BackendId::Local,
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

    /// Reverses a departing matrix entry's byte and tenant accounting.
    pub(crate) fn release(&self, entry: &CacheEntry) {
        if let Some(CachedObject::Matrix(m)) = &entry.object {
            let size = m.size_bytes();
            {
                let mut used = self.used.lock();
                *used = used.saturating_sub(size);
            }
            self.credit_tenant(entry.tenant, size);
        }
    }
}

// ----------------------------------------------------------------------
// Disk (durable log-structured segment store)
// ----------------------------------------------------------------------

/// Driver-local disk tier over the crash-safe [`SegmentStore`]: spilled
/// matrices become CRC-checksummed records keyed by lineage
/// `content_hash` (with their serialized lineage embedded for
/// re-interning), committed through an append-only manifest, read back
/// on hit and promoted to memory again when it fits. With a persistent
/// directory the tier survives restarts: construction recovers the
/// manifest and hands verified entry metadata to the cache.
pub struct DiskBackend {
    store: SegmentStore,
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

    /// Hit-side read of a spilled matrix, promoted back into `local` when
    /// it fits there.
    pub(crate) fn materialize(
        &self,
        map: &ShardedEntryMap,
        local: &LocalBackend,
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
                if local.admit_existing(map, self, key, m.clone()) {
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

    /// Bytes of committed spill records the tier accounts.
    pub fn used(&self) -> usize {
        *self.used.lock()
    }

    /// The tier's stats report.
    pub(crate) fn snapshot(&self) -> BackendSnapshot {
        let s = self.stats.snapshot();
        BackendSnapshot {
            id: BackendId::Disk,
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

    /// Tombstones a departing entry's committed record.
    pub(crate) fn release(&self, entry: &CacheEntry) {
        if let Some(CachedObject::Disk(hash)) = &entry.object {
            self.discard(*hash, entry.size);
        }
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
    ) -> (LocalBackend, DiskBackend, ShardedEntryMap, Vec<Spill>) {
        let mut cfg = CacheConfig::test();
        cfg.spill_dir = std::env::temp_dir().join(format!(
            "memphis_finish_pass_{}_{}",
            names.join("_"),
            std::process::id()
        ));
        cfg.disk_faults = faults;
        let stats = Arc::new(ReuseStats::default());
        let disk = DiskBackend::new(&cfg, stats.clone());
        let local = LocalBackend::new(&cfg, stats);
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
        local.finish_pass(&map, &disk, spills);
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
        local.finish_pass(&map, &disk, spills);
        for key in keys {
            assert!(map.with_entry(key, |e| e.is_none()), "victim dropped");
            assert!(!disk.segment_store().contains(key.content_hash()));
        }
        assert_eq!(disk.used(), 0);
        let s = local.stats.snapshot();
        assert_eq!((s.local_spills, s.local_drops), (0, 2));
    }
}
