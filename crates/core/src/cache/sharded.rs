//! The sharded probe map and in-flight computation placeholders that let
//! many sessions share one lineage cache (paper §2, §4: multi-user
//! serving).
//!
//! The map is hash-partitioned by the interned lineage id's
//! content-derived hash, one mutex per shard, so concurrent sessions
//! probing disjoint lineage ids never contend. A global atomic logical
//! clock preserves the recency ordering that eq. (1)/(2) scoring relies
//! on across shards.
//!
//! Each shard additionally tracks *in-flight* computations: when a
//! session begins computing a missing entry, it parks an [`Inflight`]
//! placeholder in the shard; a second session probing the same lineage id
//! blocks on the placeholder's condvar and receives the first session's
//! result — the object alone, since structural twins are one lineage
//! node — instead of recomputing (a coalesced hit). Placeholders live
//! outside the entry map, so eviction can never select an in-flight
//! computation as a victim.
//!
//! Lock discipline (see DESIGN.md §6):
//! 1. At most one shard lock is held at a time — cross-shard scans
//!    (victim selection, lazy GC, reports) lock shards sequentially.
//! 2. A shard lock may be taken before a backend accounting lock, never
//!    the reverse.
//! 3. Nothing blocks on an [`Inflight`] condvar while holding a shard
//!    lock.

use crate::backend::{EntryMap, EvictionPolicy};
use crate::cache::entry::{CacheEntry, CachedObject};
use crate::lineage::LineageId;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How an in-flight computation ended, as observed by its waiters.
#[derive(Debug, Clone)]
pub enum InflightOutcome {
    /// The owner completed and offered the object to the cache; waiters
    /// consume the object directly (coalesced hit), whether or not the
    /// cache admitted it.
    Done(CachedObject),
    /// The owner abandoned the computation (error or dropped guard);
    /// waiters retry the probe and one of them becomes the new owner.
    Abandoned,
}

enum InflightState {
    /// Owner still computing; `waiters` sessions are blocked.
    Pending {
        /// Number of sessions currently blocked on the condvar.
        waiters: u64,
    },
    Resolved(InflightOutcome),
}

/// A per-key in-flight computation marker: one owner computes, any number
/// of waiters block until the owner resolves it.
pub struct Inflight {
    state: Mutex<InflightState>,
    cv: Condvar,
}

impl Inflight {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(InflightState::Pending { waiters: 0 }),
            cv: Condvar::new(),
        })
    }

    /// True while the owner has neither completed nor abandoned.
    pub fn is_pending(&self) -> bool {
        matches!(*self.state.lock(), InflightState::Pending { .. })
    }

    /// Number of sessions currently blocked on this computation.
    pub fn waiters(&self) -> u64 {
        match *self.state.lock() {
            InflightState::Pending { waiters } => waiters,
            InflightState::Resolved(_) => 0,
        }
    }

    /// Blocks until the owner resolves, returning the outcome.
    pub(crate) fn wait(&self) -> InflightOutcome {
        let mut state = self.state.lock();
        if let InflightState::Pending { waiters } = &mut *state {
            *waiters += 1;
        }
        loop {
            match &*state {
                InflightState::Resolved(outcome) => return outcome.clone(),
                InflightState::Pending { .. } => self.cv.wait(&mut state),
            }
        }
    }

    /// Resolves the computation. Idempotent: the first resolution wins.
    ///
    /// Wakeups are batched: the whole waiter set is woken with one
    /// `notify_all`, and when no session is blocked (the common
    /// uncontended case) the broadcast is skipped entirely. Returns how
    /// many waiters were woken so callers can account the batch.
    pub(crate) fn resolve(&self, outcome: InflightOutcome) -> u64 {
        let mut state = self.state.lock();
        if let InflightState::Pending { waiters } = *state {
            *state = InflightState::Resolved(outcome);
            if waiters > 0 {
                self.cv.notify_all();
            }
            waiters
        } else {
            0
        }
    }

    /// Returns a recycled marker to its pristine pending state. Only
    /// callable with exclusive access (the pool holds the sole `Arc`), so
    /// no waiter can observe the transition.
    pub(crate) fn reset(&mut self) {
        *self.state.get_mut() = InflightState::Pending { waiters: 0 };
    }
}

/// The unified probe map, hash-partitioned into independently locked
/// shards, with one global logical clock for recency scoring.
pub struct ShardedEntryMap {
    shards: Box<[Mutex<EntryMap>]>,
    mask: u64,
    clock: AtomicU64,
    contention: AtomicU64,
    /// TTNA "ghost" table: evicted entries leave their last
    /// time-to-next-access estimate behind, keyed by content hash, so
    /// the `DelayedHits` admission gate can recognize a long-TTNA entry
    /// cycling back under memory pressure. Bounded; only written while
    /// the delayed-hits policy is active.
    ghosts: Mutex<HashMap<u64, f64>>,
}

/// Ghost-table bound: once full the table is cleared wholesale (the
/// estimates are advisory; forgetting them only means admitting).
const GHOST_CAP: usize = 4096;

impl ShardedEntryMap {
    /// Creates a map with `shards` partitions (rounded up to a power of
    /// two, clamped to `1..=1024`).
    pub fn new(shards: usize) -> Self {
        let n = shards.clamp(1, 1024).next_power_of_two();
        let shards: Vec<Mutex<EntryMap>> = (0..n).map(|_| Mutex::new(EntryMap::new())).collect();
        Self {
            shards: shards.into_boxed_slice(),
            mask: (n - 1) as u64,
            clock: AtomicU64::new(0),
            contention: AtomicU64::new(0),
            ghosts: Mutex::new(HashMap::new()),
        }
    }

    /// Records an evicted entry's TTNA estimate in the ghost table.
    pub fn record_ghost(&self, key: LineageId, ttna: f64) {
        let mut g = self.ghosts.lock();
        if g.len() >= GHOST_CAP {
            g.clear();
        }
        g.insert(key.content_hash(), ttna);
    }

    /// Last TTNA estimate an eviction recorded for `key`, if any.
    pub fn ghost_ttna(&self, key: LineageId) -> Option<f64> {
        self.ghosts.lock().get(&key.content_hash()).copied()
    }

    /// Drops `key`'s ghost record (called when the entry is admitted
    /// again, so a later eviction re-records fresh evidence).
    pub fn clear_ghost(&self, key: LineageId) {
        self.ghosts.lock().remove(&key.content_hash());
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key lives in. The id's content hash is precomputed and
    /// deterministic (FNV over the trace), so shard assignment is stable
    /// across runs, threads, and processes — the raw interned index is
    /// allocation-ordered and never used here.
    pub fn shard_index(&self, key: LineageId) -> usize {
        (key.content_hash() & self.mask) as usize
    }

    /// Locks one shard by index, counting contended acquisitions.
    pub fn lock_shard(&self, idx: usize) -> MutexGuard<'_, EntryMap> {
        match self.shards[idx].try_lock() {
            Some(g) => g,
            None => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                self.shards[idx].lock()
            }
        }
    }

    /// Locks the shard owning `key`.
    pub fn lock_of(&self, key: LineageId) -> MutexGuard<'_, EntryMap> {
        self.lock_shard(self.shard_index(key))
    }

    /// Advances and returns the global logical clock.
    pub fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Current logical clock value.
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Lock acquisitions that found the shard already held (a coarse
    /// contention gauge for the metrics registry).
    pub fn contended_locks(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }

    /// Total entries across shards (placeholders included).
    pub fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock_shard(i).entries.len())
            .sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every entry, one shard lock at a time.
    pub fn for_each<F: FnMut(LineageId, &CacheEntry)>(&self, mut f: F) {
        for i in 0..self.shards.len() {
            let shard = self.lock_shard(i);
            for (k, e) in shard.entries.iter() {
                f(*k, e);
            }
        }
    }

    /// Runs `f` on the (mutable) entry for `key` under its shard lock.
    pub fn with_entry<R>(&self, key: LineageId, f: impl FnOnce(Option<&mut CacheEntry>) -> R) -> R {
        let mut shard = self.lock_of(key);
        f(shard.entries.get_mut(&key))
    }

    /// Removes and returns the entry for `key`.
    pub fn remove_entry(&self, key: LineageId) -> Option<CacheEntry> {
        self.lock_of(key).entries.remove(&key)
    }

    /// Drains every entry out of the map (in-flight markers are left in
    /// place; their owners resolve them independently).
    pub fn drain_entries(&self) -> Vec<(LineageId, CacheEntry)> {
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            out.extend(std::mem::take(&mut self.lock_shard(i).entries));
        }
        out
    }

    /// Selects the minimum eq. (1) score victim among entries matching
    /// `filter`, sampling up to `policy.sample_limit` candidates per
    /// shard. Shards are scanned sequentially (one lock at a time), so a
    /// concurrent insertion may be missed — callers re-validate the
    /// victim under its shard lock before acting on it. The running best
    /// is a `Copy` id: nothing is cloned during the scan.
    pub fn select_victim<F>(&self, policy: &EvictionPolicy, filter: F) -> Option<LineageId>
    where
        F: Fn(LineageId, &CacheEntry) -> bool,
    {
        let mut best: Option<(LineageId, f64)> = None;
        for i in 0..self.shards.len() {
            let shard = self.lock_shard(i);
            for (k, e) in shard
                .entries
                .iter()
                .filter(|(k, e)| !e.pinned && filter(**k, e))
                .take(policy.sample_limit)
            {
                let score = policy.score(e);
                // Score ties break on the content-derived lineage hash,
                // not map iteration order: victim identity (and with it
                // every downstream eviction counter) stays identical run
                // over run.
                let better = match best {
                    None => true,
                    Some((bk, bs)) => {
                        score < bs || (score == bs && k.content_hash() < bk.content_hash())
                    }
                };
                if better {
                    best = Some((*k, score));
                }
            }
        }
        best.map(|(k, _)| k)
    }

    /// The in-flight marker for `key`, if a computation is pending.
    pub fn inflight_of(&self, key: LineageId) -> Option<Arc<Inflight>> {
        self.lock_of(key).inflight.get(&key).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::entry::CacheEntry;
    use crate::lineage::{LItem, LineageItem};

    fn leaf(name: &str) -> LItem {
        LineageItem::leaf(name)
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedEntryMap::new(1).shard_count(), 1);
        assert_eq!(ShardedEntryMap::new(3).shard_count(), 4);
        assert_eq!(ShardedEntryMap::new(8).shard_count(), 8);
        assert_eq!(ShardedEntryMap::new(0).shard_count(), 1);
    }

    #[test]
    fn shard_assignment_is_deterministic() {
        let m = ShardedEntryMap::new(8);
        let a = leaf("x");
        let b = leaf("x");
        assert_eq!(m.shard_index(a.lid), m.shard_index(b.lid));
    }

    #[test]
    fn clock_is_global_across_shards() {
        let m = ShardedEntryMap::new(4);
        assert_eq!(m.tick(), 1);
        assert_eq!(m.tick(), 2);
        assert_eq!(m.clock(), 2);
    }

    #[test]
    fn entries_distribute_and_drain() {
        let m = ShardedEntryMap::new(4);
        for i in 0..32 {
            let item = leaf(&format!("e{i}"));
            let e = CacheEntry::cached(&item, CachedObject::Scalar(i as f64), 1.0, 16);
            m.lock_of(item.lid).entries.insert(item.lid, e);
        }
        assert_eq!(m.len(), 32);
        let mut seen = 0;
        m.for_each(|_, _| seen += 1);
        assert_eq!(seen, 32);
        assert_eq!(m.drain_entries().len(), 32);
        assert!(m.is_empty());
    }

    #[test]
    fn select_victim_scans_all_shards_and_skips_pinned() {
        let m = ShardedEntryMap::new(8);
        let policy = EvictionPolicy::default();
        for (name, cost, pinned) in [("a", 50.0, false), ("b", 2.0, true), ("c", 9.0, false)] {
            let item = leaf(name);
            let mut e = CacheEntry::cached(&item, CachedObject::Scalar(0.0), cost, 16);
            e.pinned = pinned;
            m.lock_of(item.lid).entries.insert(item.lid, e);
        }
        let victim = m.select_victim(&policy, |_, _| true).expect("victim");
        let cost = m.with_entry(victim, |e| e.unwrap().compute_cost);
        assert_eq!(cost, 9.0, "cheapest unpinned entry wins");
    }

    #[test]
    fn inflight_wait_sees_done_outcome() {
        let f = Inflight::new();
        assert!(f.is_pending());
        let f2 = f.clone();
        let t = std::thread::spawn(move || f2.wait());
        while f.waiters() == 0 {
            std::thread::yield_now();
        }
        let woken = f.resolve(InflightOutcome::Done(CachedObject::Scalar(7.0)));
        assert_eq!(woken, 1, "one blocked waiter in the batch");
        match t.join().unwrap() {
            InflightOutcome::Done(object) => {
                assert!(matches!(object, CachedObject::Scalar(v) if v == 7.0))
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!f.is_pending());
    }

    #[test]
    fn inflight_resolution_is_idempotent() {
        let f = Inflight::new();
        assert_eq!(
            f.resolve(InflightOutcome::Abandoned),
            0,
            "no waiters, no wakeup"
        );
        assert_eq!(
            f.resolve(InflightOutcome::Done(CachedObject::Scalar(1.0))),
            0,
            "second resolution is a no-op"
        );
        assert!(matches!(f.wait(), InflightOutcome::Abandoned));
    }

    #[test]
    fn inflight_reset_restores_pending() {
        let mut f = Inflight::new();
        f.resolve(InflightOutcome::Abandoned);
        assert!(!f.is_pending());
        Arc::get_mut(&mut f).expect("sole owner").reset();
        assert!(f.is_pending());
        assert_eq!(f.waiters(), 0);
    }

    #[test]
    fn contended_locks_counted() {
        let m = Arc::new(ShardedEntryMap::new(1));
        let g = m.lock_shard(0);
        let m2 = m.clone();
        let t = std::thread::spawn(move || {
            let _g = m2.lock_shard(0);
        });
        while m.contended_locks() == 0 {
            std::thread::yield_now();
        }
        drop(g);
        t.join().unwrap();
        assert!(m.contended_locks() >= 1);
    }
}
