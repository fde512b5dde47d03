//! The Spark tier of the lineage cache (paper §4.1): RDD handles reused
//! even while unmaterialized, delayed `persist()`, eq. (1) budget
//! eviction via `unpersist`, asynchronous `count()` materialization, and
//! lazy garbage collection of dangling RDD/broadcast references.

use crate::backend::{BackendId, BackendSnapshot, EvictionPolicy, Materialized};
use crate::cache::config::{CacheConfig, MATERIALIZE_AFTER_MISSES, SPARK_REUSE_FRACTION};
use crate::cache::entry::{CacheEntry, CachedObject};
use crate::cache::sharded::ShardedEntryMap;
use crate::lineage::LineageId;
use crate::stats::ReuseStats;
use memphis_sparksim::{RddRef, SparkContext, StorageLevel};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

/// Follow-up work a Spark materialization schedules for after the shard
/// lock is released (lazy GC and async `count()` both take cluster
/// locks, so they must not run under a shard lock).
enum SparkFollowUp {
    None,
    LazyGc(RddRef),
    Trigger(RddRef),
}

/// The Spark tier: the attached cluster, its reuse budget, and the
/// estimated bytes of the RDDs the cache persisted.
pub struct SparkTier {
    /// Driver handle to the simulated cluster.
    sc: SparkContext,
    /// Bytes of storage memory the cache may use for reuse-persisted RDDs
    /// (the paper's 80% heuristic; the rest is reserved for broadcasts and
    /// compiler checkpoints).
    reuse_budget: usize,
    /// Run materialization `count()` jobs inline instead of on a spawned
    /// thread — deterministic mode for tests.
    sync_materialize: bool,
    policy: EvictionPolicy,
    est: Mutex<usize>,
    stats: Arc<ReuseStats>,
}

impl SparkTier {
    /// Attaches a cluster, reserving the paper's 80% of its storage
    /// memory for reuse. With `sync_materialize`, `count()`
    /// materialization runs inline (deterministic mode for tests).
    pub(crate) fn new(
        sc: SparkContext,
        config: &CacheConfig,
        stats: Arc<ReuseStats>,
        sync_materialize: bool,
    ) -> Self {
        let reuse_budget = (sc.storage_capacity() as f64 * SPARK_REUSE_FRACTION) as usize;
        Self {
            sc,
            reuse_budget,
            sync_materialize,
            policy: EvictionPolicy::with_policy(config.policy),
            est: Mutex::new(0),
            stats,
        }
    }

    /// Bytes of storage memory the cache may use for reuse-persisted RDDs.
    pub fn budget(&self) -> usize {
        self.reuse_budget
    }

    /// Estimated bytes of the RDDs the cache persisted.
    pub(crate) fn used(&self) -> usize {
        *self.est.lock()
    }

    /// MAKE_SPACE + admission of an RDD entry: evicts eq. (1) victims
    /// until the estimate fits the reuse budget, then persists the RDD.
    /// Returns false for any other object.
    pub(crate) fn put(&self, map: &ShardedEntryMap, entry: &CacheEntry) -> bool {
        let Some(CachedObject::Rdd { rdd, .. }) = &entry.object else {
            return false;
        };
        while *self.est.lock() + entry.size > self.reuse_budget {
            if self.evict_worst(map).is_none() {
                break;
            }
        }
        rdd.persist(StorageLevel::MemoryAndDisk);
        *self.est.lock() += entry.size;
        true
    }

    /// Hit-side reuse of a cached RDD handle. A materialized RDD counts a
    /// hit and runs its lazy GC once; an unmaterialized one still shares
    /// the computation but counts a miss toward the asynchronous
    /// `count()` that materializes it.
    pub(crate) fn materialize(&self, map: &ShardedEntryMap, key: LineageId) -> Materialized {
        let (object, follow_up) = {
            let mut shard = map.lock_of(key);
            let Some(e) = shard.entries.get_mut(&key) else {
                return Materialized::Stale;
            };
            let Some(CachedObject::Rdd { rdd, rows, cols }) = e.object.clone() else {
                return Materialized::Stale;
            };
            let follow_up = if self.sc.is_fully_cached(&rdd) {
                e.hits += 1;
                let gc_pending = !e.gc_done;
                e.gc_done = true;
                if gc_pending {
                    SparkFollowUp::LazyGc(rdd.clone())
                } else {
                    SparkFollowUp::None
                }
            } else {
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
            SparkFollowUp::Trigger(rdd) => self.trigger_materialize(&rdd),
            SparkFollowUp::None => {}
        }
        Materialized::Hit(object)
    }

    /// Unpersists a departing entry's RDD, cleans its shuffle files and
    /// reverses its byte estimate.
    pub(crate) fn release(&self, entry: &CacheEntry) {
        if let Some(CachedObject::Rdd { rdd, .. }) = &entry.object {
            self.sc.unpersist(rdd);
            self.sc.cleanup_shuffle(rdd);
            let mut est = self.est.lock();
            *est = est.saturating_sub(entry.size);
        }
    }

    /// The tier's stats report, with the cluster's own counters appended.
    pub(crate) fn snapshot(&self) -> BackendSnapshot {
        let s = self.stats.snapshot();
        let mut detail = vec![
            ("hits", s.hits_rdd),
            ("unpersists", s.rdd_unpersists),
            ("mat_jobs", s.rdd_materialize_jobs),
            ("gc_rdds", s.gc_rdds_released),
            ("gc_bcasts", s.gc_broadcasts_destroyed),
            ("gc_bcast_unpersists", s.gc_broadcasts_unpersisted),
        ];
        detail.extend(self.sc.stats().pairs());
        BackendSnapshot {
            id: BackendId::Spark,
            used: self.used(),
            budget: self.reuse_budget,
            entries: 0,
            detail,
        }
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
                self.sc.unpersist(rdd);
                self.sc.cleanup_shuffle(rdd);
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
    fn run_lazy_gc(&self, map: &ShardedEntryMap, root: &RddRef) {
        // Protected sets: RDDs referenced by any entry; broadcasts
        // reachable from unmaterialized RDD entries.
        let mut cached_rdds: HashSet<u64> = HashSet::new();
        let mut protected_bc: HashSet<u64> = HashSet::new();
        map.for_each(|_, e| {
            if let Some(CachedObject::Rdd { rdd: r, .. }) = &e.object {
                cached_rdds.insert(r.id().0);
                if !self.sc.is_fully_cached(r) {
                    protected_bc.extend(Self::reachable_broadcasts(r));
                }
            }
        });
        self.lazy_gc(root, &cached_rdds, &protected_bc);
    }

    /// Triggers the cheap `count()` materialization job for an RDD whose
    /// reuse kept it lazy for too long (paper: after `k` cache misses),
    /// either inline or on a background thread.
    fn trigger_materialize(&self, rdd: &RddRef) {
        ReuseStats::inc(&self.stats.rdd_materialize_jobs);
        if self.sync_materialize {
            self.sc.count(rdd);
        } else {
            let sc = self.sc.clone();
            let rdd = rdd.clone();
            std::thread::spawn(move || {
                sc.count(&rdd);
            });
        }
    }

    /// Lazy garbage collection (paper Figure 6): once `root` is
    /// materialized, walk its ancestor chain and release stale resources —
    /// shuffle files of non-cached ancestors and broadcast variables not
    /// protected by other (unmaterialized) cache entries.
    ///
    /// `cached_rdds` are RDD ids referenced by live cache entries (never
    /// cleaned here; their own GC runs when they materialize), and
    /// `protected_broadcasts` are broadcast ids still needed by
    /// unmaterialized entries.
    ///
    /// When the cluster runs with fault injection enabled, "materialized"
    /// is never permanent — an executor kill or a cached-block drop can
    /// force recomputation through any ancestor at any time — so instead
    /// of `destroy()`ing broadcasts (which would dangle under recompute,
    /// the failure of §2.2) GC downgrades to `unpersist()`: executor
    /// copies are released but the driver value stays fetchable.
    ///
    /// Returns `(shuffles_cleaned, broadcasts_released)`.
    fn lazy_gc(
        &self,
        root: &RddRef,
        cached_rdds: &HashSet<u64>,
        protected_broadcasts: &HashSet<u64>,
    ) -> (u64, u64) {
        let stats = &self.stats;
        let mut shuffles = 0;
        let mut broadcasts = 0;
        let recompute_possible = self.sc.config().fault_plan.is_active();
        let mut release = |bc: &memphis_sparksim::BroadcastRef| {
            if protected_broadcasts.contains(&bc.id().0) {
                return;
            }
            if recompute_possible {
                if bc.unpersist() {
                    broadcasts += 1;
                    ReuseStats::inc(&stats.gc_broadcasts_unpersisted);
                }
            } else if !bc.is_destroyed() {
                bc.destroy();
                broadcasts += 1;
                ReuseStats::inc(&stats.gc_broadcasts_destroyed);
            }
        };
        // The root's own broadcast (e.g. the vector of a broadcast-based
        // matmul) is releasable too: the materialized partitions no longer
        // need it.
        if let Some(bc) = root.broadcast() {
            release(&bc);
        }
        // Ancestor shuffle files may still be needed to recompute lost or
        // evicted partitions of the root: only release them when the root
        // is disk-backed (its partitions can never be dropped silently).
        let root_disk_backed = matches!(
            root.persist_level(),
            Some(StorageLevel::MemoryAndDisk) | Some(StorageLevel::Disk)
        );
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack: Vec<RddRef> = root.parents();
        while let Some(rdd) = stack.pop() {
            if !visited.insert(rdd.id().0) {
                continue;
            }
            if cached_rdds.contains(&rdd.id().0) {
                // Another cache entry owns this RDD; stop descending — its
                // own lazy GC handles its ancestors.
                continue;
            }
            if root_disk_backed && rdd.shuffle_id().is_some() {
                self.sc.cleanup_shuffle(&rdd);
                shuffles += 1;
                ReuseStats::inc(&stats.gc_rdds_released);
            }
            if let Some(bc) = rdd.broadcast() {
                release(&bc);
            }
            stack.extend(rdd.parents());
        }
        (shuffles, broadcasts)
    }

    /// Collects the broadcast ids reachable from an RDD's lineage —
    /// used to compute the protected set for unmaterialized entries.
    fn reachable_broadcasts(root: &RddRef) -> HashSet<u64> {
        let mut out = HashSet::new();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack = vec![root.clone()];
        while let Some(rdd) = stack.pop() {
            if !visited.insert(rdd.id().0) {
                continue;
            }
            if let Some(bc) = rdd.broadcast() {
                out.insert(bc.id().0);
            }
            stack.extend(rdd.parents());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memphis_matrix::{BlockedMatrix, Matrix};
    use memphis_sparksim::SparkConfig;
    use std::sync::Arc as StdArc;

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConfig::local_test())
    }

    /// A tier over `sc` with fresh stats.
    fn tier(sc: &SparkContext, sync_materialize: bool) -> SparkTier {
        let stats = StdArc::new(ReuseStats::default());
        SparkTier::new(sc.clone(), &CacheConfig::test(), stats, sync_materialize)
    }

    #[test]
    fn budget_is_fraction_of_storage() {
        let sc = ctx();
        assert_eq!(
            tier(&sc, false).budget(),
            (sc.storage_capacity() as f64 * 0.8) as usize
        );
    }

    #[test]
    fn lazy_gc_cleans_shuffles_and_broadcasts() {
        let sc = ctx();
        let backend = tier(&sc, false);
        let m = Matrix::filled(16, 4, 1.0);
        let b = BlockedMatrix::from_dense(&m, 4).unwrap();
        let src = sc.parallelize_blocked(&b, "X");
        let bc = sc.broadcast(Matrix::filled(1, 4, 2.0));
        let mapped = sc.map_with_broadcast(
            &src,
            "withB",
            &bc,
            StdArc::new(|k, m, _| (*k, m.deep_clone())),
        );
        let shuffled = sc.reduce_by_key(
            &mapped,
            "agg",
            StdArc::new(|k, m| vec![(*k, m.deep_clone())]),
            StdArc::new(|a, _| a),
            2,
        );
        sc.count(&shuffled); // materialize shuffle files
        assert!(sc.runtime().shuffle.retained() > 0);

        let final_rdd = sc.map(&shuffled, "final", StdArc::new(|k, m| (*k, m.deep_clone())));
        // Ancestor shuffle cleanup requires a disk-backed root (otherwise
        // recomputing lost partitions would need the shuffle files).
        final_rdd.persist(memphis_sparksim::StorageLevel::MemoryAndDisk);
        let (shf, bcs) = backend.lazy_gc(&final_rdd, &HashSet::new(), &HashSet::new());
        assert_eq!(shf, 1);
        assert_eq!(bcs, 1);
        assert!(bc.is_destroyed());
        assert_eq!(sc.runtime().shuffle.retained(), 0);
    }

    #[test]
    fn lazy_gc_respects_protected_sets() {
        let sc = ctx();
        let backend = tier(&sc, false);
        let m = Matrix::filled(8, 4, 1.0);
        let b = BlockedMatrix::from_dense(&m, 4).unwrap();
        let src = sc.parallelize_blocked(&b, "X");
        let bc = sc.broadcast(Matrix::filled(1, 4, 2.0));
        let mapped = sc.map_with_broadcast(
            &src,
            "withB",
            &bc,
            StdArc::new(|k, m, _| (*k, m.deep_clone())),
        );
        let final_rdd = sc.map(&mapped, "final", StdArc::new(|k, m| (*k, m.deep_clone())));

        // Protect the broadcast.
        let protected: HashSet<u64> = [bc.id().0].into_iter().collect();
        backend.lazy_gc(&final_rdd, &HashSet::new(), &protected);
        assert!(!bc.is_destroyed());

        // Protect the intermediate RDD: traversal must stop there.
        let cached: HashSet<u64> = [mapped.id().0].into_iter().collect();
        backend.lazy_gc(&final_rdd, &cached, &HashSet::new());
        assert!(!bc.is_destroyed(), "stopped before reaching the broadcast");
    }

    #[test]
    fn lazy_gc_unpersists_instead_of_destroying_under_faults() {
        // With fault injection active, a "materialized" RDD can lose
        // cached partitions at any time; GC must keep broadcasts
        // recomputable (unpersist) rather than destroying them.
        let mut cfg = SparkConfig::local_test();
        cfg.fault_plan = memphis_sparksim::FaultPlan::seeded(7).with_executor_kill(u64::MAX, 0, 0); // active plan, never fires
        let sc = SparkContext::new(cfg);
        let backend = tier(&sc, false);
        let m = Matrix::filled(16, 4, 1.0);
        let b = BlockedMatrix::from_dense(&m, 4).unwrap();
        let src = sc.parallelize_blocked(&b, "X");
        let bc = sc.broadcast(Matrix::filled(1, 4, 2.0));
        let mapped = sc.map_with_broadcast(
            &src,
            "withB",
            &bc,
            StdArc::new(|k, m, _| (*k, m.deep_clone())),
        );
        sc.count(&mapped); // executors pull the chunks
        assert!(bc.delivered_executors() > 0);

        let (_, released) = backend.lazy_gc(&mapped, &HashSet::new(), &HashSet::new());
        assert_eq!(released, 1);
        assert!(!bc.is_destroyed(), "faulty cluster must not destroy");
        assert_eq!(bc.delivered_executors(), 0, "executor copies released");
        assert_eq!(backend.stats.snapshot().gc_broadcasts_unpersisted, 1);
        assert_eq!(backend.stats.snapshot().gc_broadcasts_destroyed, 0);

        // Recompute through the broadcast still works.
        assert_eq!(sc.count(&mapped), 4, "one record per block");
    }

    #[test]
    fn reachable_broadcasts_traverses_dag() {
        let sc = ctx();
        let m = Matrix::filled(8, 4, 1.0);
        let b = BlockedMatrix::from_dense(&m, 4).unwrap();
        let src = sc.parallelize_blocked(&b, "X");
        let bc1 = sc.broadcast(Matrix::scalar(1.0));
        let bc2 = sc.broadcast(Matrix::scalar(2.0));
        let a = sc.map_with_broadcast(&src, "a", &bc1, StdArc::new(|k, m, _| (*k, m.deep_clone())));
        let b2 = sc.map_with_broadcast(&a, "b", &bc2, StdArc::new(|k, m, _| (*k, m.deep_clone())));
        let set = SparkTier::reachable_broadcasts(&b2);
        assert!(set.contains(&bc1.id().0));
        assert!(set.contains(&bc2.id().0));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn sync_materialize_runs_inline() {
        let sc = ctx();
        let backend = tier(&sc, true);
        let m = Matrix::filled(8, 4, 1.0);
        let b = BlockedMatrix::from_dense(&m, 4).unwrap();
        let src = sc.parallelize_blocked(&b, "X");
        let mapped = sc.map(&src, "id", StdArc::new(|k, m| (*k, m.deep_clone())));
        mapped.persist(sc.default_storage_level());
        backend.trigger_materialize(&mapped);
        assert!(sc.is_fully_cached(&mapped));
        assert_eq!(backend.stats.snapshot().rdd_materialize_jobs, 1);
    }
}
