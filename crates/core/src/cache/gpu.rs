//! Unified GPU memory manager: combined reuse and recycling with Live/Free
//! pointer lists (paper §4.2, Figure 8, Algorithm 1).
//!
//! Every device pointer is managed from allocation to deallocation:
//!
//! - **Live list**: pointers referenced by live variables, with reference
//!   counts (multiple variables may share one reused pointer).
//! - **Free list**: a map from allocation size to a pool of free pointers.
//!   Free pointers may still carry a cached lineage result — they are
//!   simultaneously recyclable memory and reusable intermediates.
//! - **Allocation (Algorithm 1)**: recycle an exact-size free pointer
//!   (no `cudaMalloc`, no device synchronization); otherwise `cudaMalloc`;
//!   otherwise free the next-larger pointer; otherwise free pointers until
//!   the malloc succeeds; otherwise free the whole free list; otherwise
//!   report OOM so the cache can evict to host / defragment.
//! - **Eviction ordering (eq. 2)**: `T_a(o) + 1/h(o) + c(o)` — recycle
//!   least-recently-used, tall-lineage, cheap intermediates first.
//!
//! The manager is the cache's GPU tier itself: it admits, materializes
//! and reports GPU entries directly.

use crate::backend::{BackendId, BackendSnapshot, EvictionPolicy, Materialized};
use crate::cache::entry::{CacheEntry, CachedObject};
use crate::cache::sharded::ShardedEntryMap;
use crate::lineage::LineageId;
use crate::stats::ReuseStats;
use memphis_gpusim::{GpuDevice, GpuError, GpuPtr};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

#[allow(dead_code)] // `ptr` documents the full handle; lookups key on addr
struct LivePtr {
    ptr: GpuPtr,
    refcount: u32,
    cached_key: Option<LineageId>,
}

struct FreePtr {
    ptr: GpuPtr,
    cached_key: Option<LineageId>,
    last_access: u64,
    height: u32,
    cost: f64,
}

struct Inner {
    live: HashMap<u64, LivePtr>,
    free: HashMap<usize, Vec<FreePtr>>,
    clock: u64,
    max_cost: f64,
}

impl Inner {
    /// Eq. (2) score — smaller is recycled/freed first. One shared
    /// scoring function ([`EvictionPolicy::gpu_score`]) parameterized by
    /// this manager's clock and cost normalizer.
    fn score_with(clock: u64, max_cost: f64, f: &FreePtr) -> f64 {
        EvictionPolicy::gpu_score(f.last_access, clock, f.height, f.cost, max_cost)
    }

    /// Removes and returns the min-score pointer from the pool of `size`,
    /// optionally restricted to pointers with no cached key.
    fn pop_best_filtered(&mut self, size: usize, uncached_only: bool) -> Option<FreePtr> {
        let (clock, max_cost) = (self.clock, self.max_cost);
        let pool = self.free.get_mut(&size)?;
        let mut best: Option<(usize, f64)> = None;
        for (i, f) in pool.iter().enumerate() {
            if uncached_only && f.cached_key.is_some() {
                continue;
            }
            let score = Self::score_with(clock, max_cost, f);
            if best.map(|(_, b)| score < b).unwrap_or(true) {
                best = Some((i, score));
            }
        }
        let (i, _) = best?;
        let f = pool.swap_remove(i);
        if pool.is_empty() {
            self.free.remove(&size);
        }
        Some(f)
    }

    /// Removes and returns the min-score pointer from the pool of `size`.
    fn pop_best(&mut self, size: usize) -> Option<FreePtr> {
        self.pop_best_filtered(size, false)
    }

    /// Like [`Inner::pop_best`], restricted to pointers with no cached key.
    fn pop_best_uncached(&mut self, size: usize) -> Option<FreePtr> {
        self.pop_best_filtered(size, true)
    }
}

/// Outcome of a successful allocation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuAlloc {
    /// The granted pointer (live, refcount 1).
    pub ptr: GpuPtr,
    /// True when the memory was recycled from the free list (no
    /// `cudaMalloc`, no synchronization barrier).
    pub recycled: bool,
    /// Lineage entries invalidated because their pointers were recycled or
    /// freed to satisfy this request. The cache must drop these entries.
    pub invalidated: Vec<LineageId>,
}

/// The unified GPU memory manager.
pub struct GpuMemoryManager {
    device: Arc<GpuDevice>,
    inner: Mutex<Inner>,
    stats: Arc<ReuseStats>,
}

impl GpuMemoryManager {
    /// Wraps a device.
    pub fn new(device: Arc<GpuDevice>, stats: Arc<ReuseStats>) -> Self {
        Self {
            device,
            inner: Mutex::new(Inner {
                live: HashMap::new(),
                free: HashMap::new(),
                clock: 0,
                max_cost: 0.0,
            }),
            stats,
        }
    }

    /// The wrapped device.
    pub fn device(&self) -> &Arc<GpuDevice> {
        &self.device
    }

    /// Serves an output allocation of `size` bytes per Algorithm 1.
    ///
    /// `height` and `cost` seed the eviction metadata of the new pointer.
    pub fn request(&self, size: usize, height: u32, cost: f64) -> Result<GpuAlloc, GpuError> {
        self.request_with(size, height, cost, false)
    }

    /// Like [`GpuMemoryManager::request`], but when `preserve_cached` is
    /// set the OOM fallback only frees *uncached* free pointers; cached
    /// ones are left for the lineage cache to evict to host memory first
    /// (the device-to-host eviction process of §4.2). Exact-size recycling
    /// still consumes cached pointers — eq. (2) scoring decides which.
    pub fn request_with(
        &self,
        size: usize,
        height: u32,
        cost: f64,
        preserve_cached: bool,
    ) -> Result<GpuAlloc, GpuError> {
        let _ = height; // metadata is attached at release time
        let size = size.max(8);
        let mut invalidated = Vec::new();
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        inner.max_cost = inner.max_cost.max(cost);

        // Step 1: recycle an exact-size free pointer.
        if let Some(f) = inner.pop_best(size) {
            if let Some(k) = f.cached_key {
                invalidated.push(k);
            }
            inner.live.insert(
                f.ptr.addr,
                LivePtr {
                    ptr: f.ptr,
                    refcount: 1,
                    cached_key: None,
                },
            );
            ReuseStats::inc(&self.stats.gpu_recycled);
            return Ok(GpuAlloc {
                ptr: f.ptr,
                recycled: true,
                invalidated,
            });
        }

        // Step 2: plain cudaMalloc.
        loop {
            drop(inner);
            match self.device.alloc(size) {
                Ok(ptr) => {
                    let mut inner = self.inner.lock();
                    inner.live.insert(
                        ptr.addr,
                        LivePtr {
                            ptr,
                            refcount: 1,
                            cached_key: None,
                        },
                    );
                    inner.clock = inner.clock.max(clock);
                    return Ok(GpuAlloc {
                        ptr,
                        recycled: false,
                        invalidated,
                    });
                }
                Err(GpuError::OutOfMemory { .. }) => {
                    // Step 3/4: free the next-larger pointer, else any
                    // pointer (min score first), else give up on this path.
                    inner = self.inner.lock();
                    let eligible = |pool: &Vec<FreePtr>| {
                        !preserve_cached || pool.iter().any(|f| f.cached_key.is_none())
                    };
                    let candidate_size = inner
                        .free
                        .iter()
                        .filter(|(&s, pool)| s > size && eligible(pool))
                        .map(|(&s, _)| s)
                        .min()
                        .or_else(|| {
                            inner
                                .free
                                .iter()
                                .filter(|(_, pool)| eligible(pool))
                                .map(|(&s, _)| s)
                                .max()
                        });
                    match candidate_size {
                        Some(s) => {
                            let popped = if preserve_cached {
                                inner.pop_best_uncached(s)
                            } else {
                                inner.pop_best(s)
                            };
                            if let Some(f) = popped {
                                if let Some(k) = f.cached_key {
                                    invalidated.push(k);
                                }
                                drop(inner);
                                self.device.free(f.ptr).ok();
                                ReuseStats::inc(&self.stats.gpu_freed);
                                inner = self.inner.lock();
                            }
                        }
                        None => {
                            // Step 5 exhausted: no (eligible) free pointers
                            // remain.
                            return Err(GpuError::OutOfMemory {
                                requested: size,
                                largest_free: self.device.largest_free(),
                                total_free: self.device.capacity() - self.device.mem_used(),
                            });
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Allocation bypassing the free-list pools (recycling disabled — the
    /// naive cudaMalloc-per-output baseline of Figure 2(d)). The pointer is
    /// still tracked in the Live list for reference counting.
    pub fn request_no_recycle(&self, size: usize, cost: f64) -> Result<GpuAlloc, GpuError> {
        let size = size.max(8);
        let ptr = self.device.alloc(size)?;
        let mut inner = self.inner.lock();
        inner.clock += 1;
        inner.max_cost = inner.max_cost.max(cost);
        inner.live.insert(
            ptr.addr,
            LivePtr {
                ptr,
                refcount: 1,
                cached_key: None,
            },
        );
        Ok(GpuAlloc {
            ptr,
            recycled: false,
            invalidated: Vec::new(),
        })
    }

    /// Releases a reference and `cudaFree`s the pointer at refcount zero
    /// instead of pooling it (recycling disabled). Returns the invalidated
    /// cache key, if the pointer carried one.
    pub fn release_and_free(&self, ptr: GpuPtr) -> Option<LineageId> {
        let mut inner = self.inner.lock();
        let live = inner.live.get_mut(&ptr.addr)?;
        live.refcount = live.refcount.saturating_sub(1);
        if live.refcount == 0 {
            let live = inner.live.remove(&ptr.addr).expect("present");
            drop(inner);
            self.device.free(ptr).ok();
            ReuseStats::inc(&self.stats.gpu_freed);
            return live.cached_key;
        }
        None
    }

    /// REUSE: re-acquires a cached pointer (Free → Live, or refcount bump
    /// when already live). Returns false if the pointer is no longer
    /// managed (entry should have been invalidated).
    pub fn acquire(&self, ptr: GpuPtr) -> bool {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(live) = inner.live.get_mut(&ptr.addr) {
            live.refcount += 1;
            ReuseStats::inc(&self.stats.gpu_reused);
            return true;
        }
        // Search the free pool of this size.
        if let Some(pool) = inner.free.get_mut(&ptr.size) {
            if let Some(idx) = pool.iter().position(|f| f.ptr.addr == ptr.addr) {
                let f = pool.swap_remove(idx);
                if pool.is_empty() {
                    inner.free.remove(&ptr.size);
                }
                inner.live.insert(
                    ptr.addr,
                    LivePtr {
                        ptr,
                        refcount: 1,
                        cached_key: f.cached_key,
                    },
                );
                inner.clock = clock;
                ReuseStats::inc(&self.stats.gpu_reused);
                return true;
            }
        }
        false
    }

    /// Releases one live reference; at zero the pointer moves to the Free
    /// list (with its cached key, if any, so the cached value remains
    /// reusable until recycled).
    ///
    /// `height`/`cost` refresh the eviction metadata.
    pub fn release(&self, ptr: GpuPtr, height: u32, cost: f64) {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let Some(live) = inner.live.get_mut(&ptr.addr) else {
            return;
        };
        live.refcount = live.refcount.saturating_sub(1);
        if live.refcount == 0 {
            let live = inner.live.remove(&ptr.addr).expect("present");
            inner.max_cost = inner.max_cost.max(cost);
            inner.free.entry(ptr.size).or_default().push(FreePtr {
                ptr,
                cached_key: live.cached_key,
                last_access: clock,
                height,
                cost,
            });
        }
    }

    /// Marks a live pointer as holding the cached result for `key`.
    pub fn mark_cached(&self, ptr: GpuPtr, key: LineageId) {
        let mut inner = self.inner.lock();
        if let Some(live) = inner.live.get_mut(&ptr.addr) {
            live.cached_key = Some(key);
            return;
        }
        if let Some(pool) = inner.free.get_mut(&ptr.size) {
            if let Some(f) = pool.iter_mut().find(|f| f.ptr.addr == ptr.addr) {
                f.cached_key = Some(key);
            }
        }
    }

    /// Forgets the cache association of a pointer (entry removed).
    pub fn unmark_cached(&self, ptr: GpuPtr) {
        let mut inner = self.inner.lock();
        if let Some(live) = inner.live.get_mut(&ptr.addr) {
            live.cached_key = None;
            return;
        }
        if let Some(pool) = inner.free.get_mut(&ptr.size) {
            if let Some(f) = pool.iter_mut().find(|f| f.ptr.addr == ptr.addr) {
                f.cached_key = None;
            }
        }
    }

    /// Admission of a GPU entry: marks its pointer as holding the cached
    /// result for `key` and sizes the entry by the allocation. Returns
    /// false for any other object.
    pub(crate) fn put(&self, key: LineageId, entry: &mut CacheEntry) -> bool {
        let Some(CachedObject::Gpu { ptr, .. }) = &entry.object else {
            return false;
        };
        self.mark_cached(*ptr, key);
        entry.size = ptr.size;
        true
    }

    /// Hit-side reuse of a cached pointer: re-acquires it, or reports the
    /// entry stale when the pointer is no longer managed.
    pub(crate) fn materialize(&self, map: &ShardedEntryMap, key: LineageId) -> Materialized {
        let mut shard = map.lock_of(key);
        let Some(e) = shard.entries.get_mut(&key) else {
            return Materialized::Stale;
        };
        let Some(CachedObject::Gpu { ptr, rows, cols }) = e.object.clone() else {
            return Materialized::Stale;
        };
        if self.acquire(ptr) {
            e.hits += 1;
            drop(shard);
            ReuseStats::inc(&self.stats.hits_gpu);
            Materialized::Hit(CachedObject::Gpu { ptr, rows, cols })
        } else {
            Materialized::Stale
        }
    }

    /// The tier's stats report, with the device's own counters appended.
    pub(crate) fn snapshot(&self) -> BackendSnapshot {
        let s = self.stats.snapshot();
        let mut detail = vec![
            ("hits", s.hits_gpu),
            ("recycled", s.gpu_recycled),
            ("reused", s.gpu_reused),
            ("freed", s.gpu_freed),
            ("to_host", s.gpu_evicted_to_host),
        ];
        detail.extend(self.device.stats().pairs());
        BackendSnapshot {
            id: BackendId::Gpu,
            used: self.device.mem_used(),
            budget: self.device.capacity(),
            entries: 0,
            detail,
        }
    }

    /// The `evict(p)` instruction (paper §5.2): frees the lowest-score
    /// `fraction` of free-list bytes with `cudaFree`, returning the lineage
    /// keys whose entries must be dropped.
    pub fn evict_fraction(&self, fraction: f64) -> Vec<LineageId> {
        let fraction = fraction.clamp(0.0, 1.0);
        let total = self.free_bytes();
        let target = (total as f64 * fraction) as usize;
        self.evict_bytes(target)
    }

    /// Frees the lowest-score free-list pointers until at least `bytes`
    /// are released (or the free list runs dry). Returns the lineage keys
    /// whose entries must be dropped.
    fn evict_bytes(&self, bytes: usize) -> Vec<LineageId> {
        let mut inner = self.inner.lock();
        let (clock, max_cost) = (inner.clock, inner.max_cost);
        let mut freed = 0usize;
        let mut invalidated = Vec::new();
        let mut to_free = Vec::new();
        while freed < bytes {
            // Global min-score pointer across all pools.
            let mut best: Option<(usize, usize, f64)> = None;
            for (&s, pool) in inner.free.iter() {
                for (i, f) in pool.iter().enumerate() {
                    let score = Inner::score_with(clock, max_cost, f);
                    if best.map(|(_, _, b)| score < b).unwrap_or(true) {
                        best = Some((s, i, score));
                    }
                }
            }
            let Some((s, i, _)) = best else { break };
            let pool = inner.free.get_mut(&s).expect("pool exists");
            let f = pool.swap_remove(i);
            if pool.is_empty() {
                inner.free.remove(&s);
            }
            freed += f.ptr.size;
            if let Some(k) = f.cached_key {
                invalidated.push(k);
            }
            to_free.push(f.ptr);
        }
        drop(inner);
        if !to_free.is_empty() {
            memphis_obs::instant_val(memphis_obs::cat::CACHE, "gpu_evict", "bytes", freed as u64);
        }
        for ptr in to_free {
            self.device.free(ptr).ok();
            ReuseStats::inc(&self.stats.gpu_freed);
        }
        invalidated
    }

    /// Pops a cached free pointer for device-to-host eviction (highest
    /// value first — we keep precious results by moving them to the host
    /// rather than discarding). Returns the pointer and its key.
    pub fn pop_cached_for_host_eviction(&self) -> Option<(GpuPtr, LineageId)> {
        let mut inner = self.inner.lock();
        let (clock, max_cost) = (inner.clock, inner.max_cost);
        let mut best: Option<(usize, usize, f64)> = None;
        for (&s, pool) in inner.free.iter() {
            for (i, f) in pool.iter().enumerate() {
                if f.cached_key.is_some() {
                    let score = Inner::score_with(clock, max_cost, f);
                    if best.map(|(_, _, b)| score < b).unwrap_or(true) {
                        best = Some((s, i, score));
                    }
                }
            }
        }
        let (s, i, _) = best?;
        let pool = inner.free.get_mut(&s).expect("pool exists");
        let f = pool.swap_remove(i);
        if pool.is_empty() {
            inner.free.remove(&s);
        }
        Some((f.ptr, f.cached_key.expect("filtered to cached")))
    }

    /// Number of pointers in the Free list.
    pub fn free_pointers(&self) -> usize {
        self.inner.lock().free.values().map(|p| p.len()).sum()
    }

    /// Number of live pointers.
    pub fn live_pointers(&self) -> usize {
        self.inner.lock().live.len()
    }

    /// Total bytes of free-list pointers (allocated but recyclable).
    pub fn free_bytes(&self) -> usize {
        self.inner
            .lock()
            .free
            .values()
            .flat_map(|p| p.iter())
            .map(|f| f.ptr.size)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::LineageItem;
    use memphis_gpusim::GpuConfig;

    fn mgr(capacity: usize) -> GpuMemoryManager {
        GpuMemoryManager::new(
            Arc::new(GpuDevice::new(GpuConfig::zero_cost(capacity))),
            Arc::new(ReuseStats::default()),
        )
    }

    fn key(name: &str) -> LineageId {
        LineageItem::leaf(name).lid
    }

    #[test]
    fn release_then_request_recycles_exact_size() {
        let m = mgr(1 << 16);
        let a = m.request(1024, 2, 1.0).unwrap();
        assert!(!a.recycled);
        m.release(a.ptr, 2, 1.0);
        assert_eq!(m.free_pointers(), 1);
        let b = m.request(1024, 2, 1.0).unwrap();
        assert!(b.recycled, "exact-size request must recycle");
        assert_eq!(b.ptr.addr, a.ptr.addr);
        assert_eq!(m.free_pointers(), 0);
        // No extra device allocation happened.
        assert_eq!(m.device().stats().allocs, 1);
    }

    #[test]
    fn recycling_invalidates_cached_key() {
        let m = mgr(1 << 16);
        let a = m.request(512, 3, 2.0).unwrap();
        m.mark_cached(a.ptr, key("r1"));
        m.release(a.ptr, 3, 2.0);
        let b = m.request(512, 3, 2.0).unwrap();
        assert!(b.recycled);
        assert_eq!(b.invalidated.len(), 1, "cached entry must be invalidated");
    }

    #[test]
    fn acquire_moves_free_to_live_and_refcounts() {
        let m = mgr(1 << 16);
        let a = m.request(256, 2, 1.0).unwrap();
        m.mark_cached(a.ptr, key("x"));
        m.release(a.ptr, 2, 1.0);
        assert!(m.acquire(a.ptr), "reuse from free list");
        assert_eq!(m.live_pointers(), 1);
        assert!(m.acquire(a.ptr), "second variable shares the pointer");
        m.release(a.ptr, 2, 1.0);
        assert_eq!(m.live_pointers(), 1, "refcount keeps it live");
        m.release(a.ptr, 2, 1.0);
        assert_eq!(m.live_pointers(), 0);
        assert_eq!(m.free_pointers(), 1);
    }

    #[test]
    fn acquire_unknown_pointer_fails() {
        let m = mgr(1 << 16);
        assert!(!m.acquire(GpuPtr { addr: 99, size: 64 }));
    }

    #[test]
    fn oom_frees_larger_then_any_pointer() {
        let m = mgr(4096);
        // Fill with two 2048-byte blocks, release one.
        let a = m.request(2048, 2, 1.0).unwrap();
        let b = m.request(2048, 2, 1.0).unwrap();
        m.release(a.ptr, 2, 1.0);
        // Request 1024: no exact match; malloc fails (0 free in arena);
        // the manager must free the 2048 free pointer and retry.
        let c = m.request(1024, 2, 1.0).unwrap();
        assert!(!c.recycled);
        assert_eq!(m.device().stats().frees, 1);
        m.release(b.ptr, 2, 1.0);
        m.release(c.ptr, 2, 1.0);
    }

    #[test]
    fn oom_with_no_free_pointers_errors() {
        let m = mgr(1024);
        let _a = m.request(1024, 1, 1.0).unwrap();
        let err = m.request(64, 1, 1.0).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
    }

    #[test]
    fn eq2_recycles_least_valuable_first() {
        let m = mgr(1 << 16);
        // Two same-size pointers: one tall lineage + cheap (low score),
        // one short lineage + expensive (high score).
        let a = m.request(128, 10, 1.0).unwrap(); // tall, cheap → victim
        let b = m.request(128, 1, 100.0).unwrap(); // short, precious
        m.release(a.ptr, 10, 1.0);
        m.release(b.ptr, 1, 100.0);
        let c = m.request(128, 2, 1.0).unwrap();
        assert!(c.recycled);
        assert_eq!(c.ptr.addr, a.ptr.addr, "eq.2 must pick the tall+cheap one");
    }

    #[test]
    fn evict_fraction_frees_by_score() {
        let m = mgr(1 << 16);
        let mut ptrs = Vec::new();
        for i in 0..4 {
            let a = m.request(256, 2, i as f64).unwrap();
            m.mark_cached(a.ptr, key(&format!("k{i}")));
            ptrs.push(a.ptr);
        }
        for p in &ptrs {
            m.release(*p, 2, 1.0);
        }
        assert_eq!(m.free_pointers(), 4);
        let invalidated = m.evict_fraction(0.5);
        assert_eq!(m.free_pointers(), 2);
        assert_eq!(invalidated.len(), 2);
        let invalidated = m.evict_fraction(1.0);
        assert_eq!(m.free_pointers(), 0);
        assert_eq!(invalidated.len(), 2);
    }

    #[test]
    fn pop_cached_for_host_eviction_returns_cached_only() {
        let m = mgr(1 << 16);
        let a = m.request(64, 2, 1.0).unwrap();
        let b = m.request(64, 2, 1.0).unwrap();
        m.mark_cached(b.ptr, key("cached"));
        m.release(a.ptr, 2, 1.0);
        m.release(b.ptr, 2, 1.0);
        let (ptr, _k) = m.pop_cached_for_host_eviction().unwrap();
        assert_eq!(ptr.addr, b.ptr.addr);
        assert!(m.pop_cached_for_host_eviction().is_none());
    }

    #[test]
    fn mini_batch_pattern_allocates_once() {
        // Fixed batch sizes: after the first iteration, every allocation
        // is served by recycling (the paper's mini-batch benefit).
        let m = mgr(1 << 20);
        let sizes = [4096usize, 2048, 4096, 1024];
        for iter in 0..10 {
            let mut held = Vec::new();
            for &s in &sizes {
                let a = m.request(s, 3, 1.0).unwrap();
                if iter > 0 {
                    assert!(a.recycled, "iteration {iter} size {s}");
                }
                held.push(a.ptr);
            }
            for p in held {
                m.release(p, 3, 1.0);
            }
        }
        assert_eq!(m.device().stats().allocs, 4, "one cudaMalloc per size"); // 4096 shared? no: two 4096 live at once → 4 allocs? sizes has 4096 twice concurrently → 2 allocs of 4096 + 2048 + 1024 = 4
    }
}
