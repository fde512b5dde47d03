//! The driver-side entry point: RDD creation, broadcast registration,
//! actions, and cache control — the surface MEMPHIS's runtime integrates
//! with.

use crate::block_manager::{BlockManager, RddStorageInfo, StorageLevel};
use crate::broadcast::BroadcastRef;
use crate::config::{CostModel, SparkConfig};
use crate::rdd::{
    next_rdd_id, next_shuffle_id, partition_of, CombineFn, EmitFn, MapBcFn, MapFn, RddInner,
    RddKind, RddRef, Record, ZipFn,
};
use crate::scheduler::{fully_cached, ExecutorPool, Runtime};
use crate::shuffle::ShuffleManager;
use crate::stats::{SparkStats, StatsSnapshot};
use memphis_matrix::{BlockedMatrix, Matrix};
use parking_lot::Mutex;
use std::sync::{Arc, Weak};

/// Handle to the simulated Spark cluster. Cheap to clone; all clones share
/// the same executors, storage, and shuffle service.
#[derive(Clone)]
pub struct SparkContext {
    rt: Arc<Runtime>,
    broadcasts: Arc<Mutex<Vec<Weak<crate::broadcast::BroadcastInner>>>>,
}

impl SparkContext {
    /// Boots a simulated cluster with the given configuration.
    pub fn new(config: SparkConfig) -> Self {
        let stats = Arc::new(SparkStats::default());
        let block_manager = BlockManager::new(
            config.storage_capacity,
            config.spill_dir.clone(),
            stats.clone(),
        );
        let shuffle = ShuffleManager::new(stats.clone(), config.cost.clone());
        let pool = ExecutorPool::new(config.num_executors, config.cores_per_executor);
        Self {
            rt: Arc::new(Runtime {
                config,
                stats,
                block_manager,
                shuffle,
                pool,
            }),
            broadcasts: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The shared runtime (for advanced tests and the MEMPHIS core).
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    /// Cluster configuration.
    pub fn config(&self) -> &SparkConfig {
        &self.rt.config
    }

    /// Snapshot of all cluster counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.rt.stats.snapshot()
    }

    // ------------------------------------------------------------------
    // RDD creation
    // ------------------------------------------------------------------

    fn make_rdd(&self, kind: RddKind, num_partitions: usize, name: impl Into<String>) -> RddRef {
        RddRef(Arc::new(RddInner {
            id: next_rdd_id(),
            kind,
            num_partitions,
            persist_level: Mutex::new(None),
            name: name.into(),
        }))
    }

    /// Distributes keyed records over `num_partitions` hash partitions.
    pub fn parallelize(
        &self,
        records: Vec<Record>,
        num_partitions: usize,
        name: impl Into<String>,
    ) -> RddRef {
        let n = num_partitions.max(1);
        let mut partitions: Vec<Vec<Record>> = (0..n).map(|_| Vec::new()).collect();
        for (k, m) in records {
            partitions[partition_of(&k, n)].push((k, m));
        }
        self.make_rdd(
            RddKind::Parallelize {
                partitions: Arc::new(partitions),
            },
            n,
            name,
        )
    }

    /// Distributes a blocked matrix as one record per tile, using the
    /// default parallelism.
    pub fn parallelize_blocked(&self, m: &BlockedMatrix, name: impl Into<String>) -> RddRef {
        self.parallelize(
            m.blocks().to_vec(),
            self.rt.config.default_parallelism,
            name,
        )
    }

    /// Narrow per-record transformation (key-preserving).
    pub fn map(&self, parent: &RddRef, name: impl Into<String>, f: MapFn) -> RddRef {
        self.make_rdd(
            RddKind::Map {
                parent: parent.clone(),
                f,
            },
            parent.num_partitions(),
            name,
        )
    }

    /// Narrow transformation reading a broadcast matrix.
    pub fn map_with_broadcast(
        &self,
        parent: &RddRef,
        name: impl Into<String>,
        bc: &BroadcastRef,
        f: MapBcFn,
    ) -> RddRef {
        self.make_rdd(
            RddKind::MapWithBroadcast {
                parent: parent.clone(),
                bc: bc.clone(),
                f,
            },
            parent.num_partitions(),
            name,
        )
    }

    /// Narrow binary zip-join over co-partitioned RDDs with equal keys.
    ///
    /// # Panics
    /// Panics if the partition counts differ (MEMPHIS plans always
    /// co-partition zip inputs).
    pub fn zip_join(
        &self,
        left: &RddRef,
        right: &RddRef,
        name: impl Into<String>,
        f: ZipFn,
    ) -> RddRef {
        assert_eq!(
            left.num_partitions(),
            right.num_partitions(),
            "zip_join requires co-partitioned inputs"
        );
        self.make_rdd(
            RddKind::ZipJoin {
                left: left.clone(),
                right: right.clone(),
                f,
            },
            left.num_partitions(),
            name,
        )
    }

    /// Wide dependency: map-side `emit` re-keys records, the shuffle groups
    /// them, and `combine` folds each group.
    pub fn reduce_by_key(
        &self,
        parent: &RddRef,
        name: impl Into<String>,
        emit: EmitFn,
        combine: CombineFn,
        num_partitions: usize,
    ) -> RddRef {
        self.make_rdd(
            RddKind::ReduceByKey {
                parent: parent.clone(),
                emit,
                combine,
                shuffle: next_shuffle_id(),
            },
            num_partitions.max(1),
            name,
        )
    }

    // ------------------------------------------------------------------
    // Broadcast
    // ------------------------------------------------------------------

    /// Registers a broadcast variable (torrent-chunked, lazily shipped).
    pub fn broadcast(&self, value: Matrix) -> BroadcastRef {
        let b = BroadcastRef::new(value, self.rt.config.broadcast_chunk_size);
        self.broadcasts.lock().push(Arc::downgrade(&b.0));
        b
    }

    /// Total bytes currently pinned in the driver by live, undestroyed
    /// broadcast variables — the dangling-reference gauge of paper §2.2.
    pub fn driver_held_broadcast_bytes(&self) -> usize {
        let mut list = self.broadcasts.lock();
        list.retain(|w| w.strong_count() > 0);
        list.iter()
            .filter_map(|w| w.upgrade())
            .map(|inner| BroadcastRef(inner).driver_held_bytes())
            .sum()
    }

    // ------------------------------------------------------------------
    // Actions (trigger jobs)
    // ------------------------------------------------------------------

    /// Collects all records to the driver, charging the driver-link cost.
    ///
    /// # Panics
    /// Panics if the job fails past its retry bounds; fault-injection
    /// callers use [`SparkContext::try_collect`].
    pub fn collect(&self, rdd: &RddRef) -> Vec<Record> {
        self.try_collect(rdd).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`SparkContext::collect`]: task failures are retried and
    /// lost shuffle/cache state is recomputed from lineage; only exhausted
    /// retry budgets surface as an error.
    pub fn try_collect(&self, rdd: &RddRef) -> Result<Vec<Record>, crate::fault::JobError> {
        let parts = self.rt.try_run_job(rdd, |_, records| records.to_vec())?;
        let out: Vec<Record> = parts.into_iter().flatten().collect();
        let bytes = crate::block_manager::bytes_of_partition(&out);
        SparkStats::add(&self.rt.stats.bytes_collected, bytes as u64);
        let delay = CostModel::transfer_delay(bytes, self.rt.config.cost.collect_ns_per_byte);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        Ok(out)
    }

    /// Collects and reassembles a blocked matrix with the given logical
    /// shape and block length.
    pub fn collect_blocked(
        &self,
        rdd: &RddRef,
        rows: usize,
        cols: usize,
        blen: usize,
    ) -> BlockedMatrix {
        self.try_collect_blocked(rdd, rows, cols, blen)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`SparkContext::collect_blocked`].
    pub fn try_collect_blocked(
        &self,
        rdd: &RddRef,
        rows: usize,
        cols: usize,
        blen: usize,
    ) -> Result<BlockedMatrix, crate::fault::JobError> {
        let mut blocks = self.try_collect(rdd)?;
        blocks.sort_by_key(|(k, _)| *k);
        Ok(BlockedMatrix::from_blocks(rows, cols, blen, blocks))
    }

    /// Folds all record values with `combine` (ignoring keys), combining
    /// per-partition results at the driver. Returns `None` for empty RDDs.
    ///
    /// # Panics
    /// Panics if the job fails past its retry bounds.
    pub fn reduce(&self, rdd: &RddRef, combine: CombineFn) -> Option<Matrix> {
        self.try_reduce(rdd, combine)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`SparkContext::reduce`].
    pub fn try_reduce(
        &self,
        rdd: &RddRef,
        combine: CombineFn,
    ) -> Result<Option<Matrix>, crate::fault::JobError> {
        let c = combine.clone();
        let parts = self.rt.try_run_job(rdd, move |_, records| {
            let mut it = records.iter().map(|(_, m)| m.clone());
            let first = it.next()?;
            Some(it.fold(first, |a, b| c(a, b)))
        })?;
        let mut acc: Option<Matrix> = None;
        for part in parts.into_iter().flatten() {
            acc = Some(match acc {
                None => part,
                Some(a) => combine(a, part),
            });
        }
        if let Some(m) = &acc {
            SparkStats::add(&self.rt.stats.bytes_collected, m.size_bytes() as u64);
        }
        Ok(acc)
    }

    /// Counts records (the cheap materialization action MEMPHIS uses for
    /// asynchronous RDD materialization after `k` cache misses).
    ///
    /// # Panics
    /// Panics if the job fails past its retry bounds.
    pub fn count(&self, rdd: &RddRef) -> usize {
        self.try_count(rdd).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`SparkContext::count`].
    pub fn try_count(&self, rdd: &RddRef) -> Result<usize, crate::fault::JobError> {
        Ok(self
            .rt
            .try_run_job(rdd, |_, records| records.len())?
            .into_iter()
            .sum())
    }

    // ------------------------------------------------------------------
    // Cache control
    // ------------------------------------------------------------------

    /// Removes the persist flag and drops every cached partition (and any
    /// spill files). Mirrors Spark's asynchronous `unpersist`; in the
    /// simulation the drop happens inline but is cheap.
    pub fn unpersist(&self, rdd: &RddRef) {
        rdd.clear_persist();
        self.rt.block_manager.remove_rdd(rdd.id());
    }

    /// Drops the shuffle files owned by this RDD's wide dependency, if any.
    pub fn cleanup_shuffle(&self, rdd: &RddRef) {
        if let Some(sid) = rdd.shuffle_id() {
            self.rt.shuffle.remove(sid);
        }
    }

    /// Materialization summary (`getRDDStorageInfo`).
    pub fn storage_info(&self, rdd: &RddRef) -> RddStorageInfo {
        self.rt.block_manager.storage_info(rdd.id())
    }

    /// True when every partition of a persisted RDD is resident.
    pub fn is_fully_cached(&self, rdd: &RddRef) -> bool {
        fully_cached(&self.rt, rdd)
    }

    /// Storage memory currently used by cached partitions.
    pub fn storage_used(&self) -> usize {
        self.rt.block_manager.mem_used()
    }

    /// Storage capacity in bytes.
    pub fn storage_capacity(&self) -> usize {
        self.rt.block_manager.capacity()
    }

    /// Injects a partition loss (executor failure) for recovery tests.
    pub fn fail_partition(&self, rdd: &RddRef, partition: usize) {
        self.rt.block_manager.drop_partition(rdd.id(), partition);
    }

    /// Kills executor `executor` immediately: its cached partitions and
    /// shuffle map outputs are invalidated and later recomputed from
    /// lineage (a replacement executor is assumed to re-register, so task
    /// slots are unaffected).
    pub fn kill_executor(&self, executor: usize) {
        self.rt.kill_executor_now(executor);
    }

    /// Default storage level for persisted RDDs.
    pub fn default_storage_level(&self) -> StorageLevel {
        StorageLevel::Memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memphis_matrix::ops::binary::{binary, BinaryOp};
    use memphis_matrix::ops::matmul::{matmul, tsmm};
    use memphis_matrix::ops::reorg::transpose;
    use memphis_matrix::rand_gen::rand_uniform;
    use memphis_matrix::BlockId;

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConfig::local_test())
    }

    fn blocked(rows: usize, cols: usize, blen: usize, seed: u64) -> (Matrix, BlockedMatrix) {
        let m = rand_uniform(rows, cols, -1.0, 1.0, seed);
        let b = BlockedMatrix::from_dense(&m, blen).unwrap();
        (m, b)
    }

    #[test]
    fn parallelize_collect_roundtrip() {
        let sc = ctx();
        let (m, b) = blocked(20, 6, 4, 1);
        let rdd = sc.parallelize_blocked(&b, "X");
        let back = sc.collect_blocked(&rdd, 20, 6, 4).to_dense().unwrap();
        assert!(back.approx_eq(&m, 0.0));
        assert_eq!(sc.stats().jobs, 1);
    }

    #[test]
    fn lazy_evaluation_runs_nothing_until_action() {
        let sc = ctx();
        let (_, b) = blocked(8, 4, 4, 2);
        let rdd = sc.parallelize_blocked(&b, "X");
        let _mapped = sc.map(&rdd, "scale", Arc::new(|k, m| (*k, m.deep_clone())));
        assert_eq!(sc.stats().jobs, 0);
        assert_eq!(sc.stats().tasks, 0);
    }

    #[test]
    fn map_transformation_applies() {
        let sc = ctx();
        let (m, b) = blocked(10, 3, 4, 3);
        let rdd = sc.parallelize_blocked(&b, "X");
        let doubled = sc.map(
            &rdd,
            "x*2",
            Arc::new(|k, m| {
                (
                    *k,
                    memphis_matrix::ops::binary::binary_scalar(m, 2.0, BinaryOp::Mul, false),
                )
            }),
        );
        let got = sc.collect_blocked(&doubled, 10, 3, 4).to_dense().unwrap();
        let expected = memphis_matrix::ops::binary::binary_scalar(&m, 2.0, BinaryOp::Mul, false);
        assert!(got.approx_eq(&expected, 0.0));
    }

    #[test]
    fn zip_join_adds_copartitioned() {
        let sc = ctx();
        let (ma, ba) = blocked(12, 4, 4, 4);
        let (mb, bb) = blocked(12, 4, 4, 5);
        let ra = sc.parallelize_blocked(&ba, "A");
        let rb = sc.parallelize_blocked(&bb, "B");
        let sum = sc.zip_join(
            &ra,
            &rb,
            "A+B",
            Arc::new(|_, a, b| binary(a, b, BinaryOp::Add).unwrap()),
        );
        let got = sc.collect_blocked(&sum, 12, 4, 4).to_dense().unwrap();
        let expected = binary(&ma, &mb, BinaryOp::Add).unwrap();
        assert!(got.approx_eq(&expected, 0.0));
    }

    #[test]
    fn reduce_action_sums_tsmm_blocks() {
        // Distributed t(X)%*%X: per-block tsmm then a reduce action —
        // the single-block aggregate pattern of paper §4.1.
        let sc = ctx();
        let (m, b) = blocked(32, 6, 8, 6);
        let rdd = sc.parallelize_blocked(&b, "X");
        let partial = sc.map(
            &rdd,
            "tsmm",
            Arc::new(|k, m| (BlockId { row: 0, col: k.col }, tsmm(m).unwrap())),
        );
        let got = sc
            .reduce(
                &partial,
                Arc::new(|a, b| binary(&a, &b, BinaryOp::Add).unwrap()),
            )
            .unwrap();
        let expected = tsmm(&m).unwrap();
        assert!(got.approx_eq(&expected, 1e-9));
    }

    #[test]
    fn broadcast_mapside_multiply() {
        // y^T X via broadcasting y^T (Example 4.1's broadcast-based matmul).
        let sc = ctx();
        let x = rand_uniform(24, 5, -1.0, 1.0, 7);
        let y = rand_uniform(24, 1, -1.0, 1.0, 8);
        let bx = BlockedMatrix::from_dense(&x, 6).unwrap();
        let rdd = sc.parallelize_blocked(&bx, "X");
        let yt = transpose(&y);
        let byt = sc.broadcast(yt.clone());
        let blen = 6usize;
        let partial = sc.map_with_broadcast(
            &rdd,
            "y^T %*% Xblk",
            &byt,
            Arc::new(move |k, xblk, ytv| {
                let yslice = memphis_matrix::ops::reorg::slice_cols(
                    ytv,
                    k.row * blen,
                    k.row * blen + xblk.rows(),
                )
                .unwrap();
                (
                    BlockId { row: 0, col: k.col },
                    matmul(&yslice, xblk).unwrap(),
                )
            }),
        );
        let got = sc
            .reduce(
                &partial,
                Arc::new(|a, b| binary(&a, &b, BinaryOp::Add).unwrap()),
            )
            .unwrap();
        let expected = matmul(&yt, &x).unwrap();
        assert!(got.approx_eq(&expected, 1e-9));
        assert!(byt.delivered_executors() >= 1);
    }

    #[test]
    fn shuffle_reduce_by_key_aggregates() {
        let sc = ctx();
        let (m, b) = blocked(16, 4, 4, 9);
        let rdd = sc.parallelize_blocked(&b, "X");
        // Re-key every block to a single output key and sum.
        let total = sc.reduce_by_key(
            &rdd,
            "sumAll",
            Arc::new(|_, m| vec![(BlockId { row: 0, col: 0 }, m.deep_clone())]),
            Arc::new(|a, b| {
                // Sum of all cells accumulated as 1x1.
                let sa =
                    memphis_matrix::ops::agg::aggregate(&a, memphis_matrix::ops::agg::AggOp::Sum)
                        .unwrap();
                let sb =
                    memphis_matrix::ops::agg::aggregate(&b, memphis_matrix::ops::agg::AggOp::Sum)
                        .unwrap();
                Matrix::scalar(sa + sb)
            }),
            2,
        );
        let out = sc.collect(&total);
        assert_eq!(out.len(), 1);
        let got =
            memphis_matrix::ops::agg::aggregate(&out[0].1, memphis_matrix::ops::agg::AggOp::Sum)
                .unwrap();
        let expected =
            memphis_matrix::ops::agg::aggregate(&m, memphis_matrix::ops::agg::AggOp::Sum).unwrap();
        assert!((got - expected).abs() < 1e-9);
        assert!(sc.stats().shuffle_bytes_written > 0);
        assert_eq!(sc.stats().stages, 2); // map stage + result stage
    }

    #[test]
    fn persist_serves_second_job_from_cache() {
        let sc = ctx();
        let (_, b) = blocked(16, 4, 4, 10);
        let rdd = sc.parallelize_blocked(&b, "X");
        let mapped = sc.map(&rdd, "id", Arc::new(|k, m| (*k, m.deep_clone())));
        mapped.persist(StorageLevel::Memory);
        sc.count(&mapped);
        let cached_after_first = sc.stats().partitions_cached;
        assert!(cached_after_first > 0);
        sc.count(&mapped);
        assert!(sc.stats().cache_hits >= cached_after_first);
        assert!(sc.is_fully_cached(&mapped));
    }

    #[test]
    fn shuffle_files_skip_map_stage_on_rerun() {
        let sc = ctx();
        let (_, b) = blocked(16, 4, 4, 11);
        let rdd = sc.parallelize_blocked(&b, "X");
        let shuffled = sc.reduce_by_key(
            &rdd,
            "rekey",
            Arc::new(|k, m| vec![(BlockId { row: 0, col: k.row }, m.deep_clone())]),
            Arc::new(|a, _| a),
            2,
        );
        sc.count(&shuffled);
        assert_eq!(sc.stats().skipped_stages, 0);
        sc.count(&shuffled);
        assert_eq!(sc.stats().skipped_stages, 1, "map stage must be skipped");
        sc.cleanup_shuffle(&shuffled);
        sc.count(&shuffled);
        assert_eq!(sc.stats().skipped_stages, 1, "after cleanup it re-runs");
    }

    #[test]
    fn unpersist_releases_and_recomputes() {
        let sc = ctx();
        let (_, b) = blocked(16, 4, 4, 12);
        let rdd = sc.parallelize_blocked(&b, "X");
        let mapped = sc.map(&rdd, "id", Arc::new(|k, m| (*k, m.deep_clone())));
        mapped.persist(StorageLevel::Memory);
        sc.count(&mapped);
        assert!(sc.storage_used() > 0);
        sc.unpersist(&mapped);
        assert_eq!(sc.storage_used(), 0);
        // Runs fine afterwards (recomputed from lineage).
        assert_eq!(sc.count(&mapped), b.blocks().len());
    }

    #[test]
    fn lost_partition_is_recomputed() {
        let sc = ctx();
        let (m, b) = blocked(16, 4, 4, 13);
        let rdd = sc.parallelize_blocked(&b, "X");
        let mapped = sc.map(&rdd, "id", Arc::new(|k, m| (*k, m.deep_clone())));
        mapped.persist(StorageLevel::Memory);
        sc.count(&mapped);
        sc.fail_partition(&mapped, 0);
        let back = sc.collect_blocked(&mapped, 16, 4, 4).to_dense().unwrap();
        assert!(back.approx_eq(&m, 0.0));
        assert!(sc.stats().partitions_recomputed >= 1);
    }

    #[test]
    fn fully_cached_rdd_skips_ancestor_shuffle_plan() {
        let sc = ctx();
        let (_, b) = blocked(16, 4, 4, 14);
        let rdd = sc.parallelize_blocked(&b, "X");
        let shuffled = sc.reduce_by_key(
            &rdd,
            "rekey",
            Arc::new(|k, m| vec![(BlockId { row: 0, col: k.row }, m.deep_clone())]),
            Arc::new(|a, _| a),
            2,
        );
        shuffled.persist(StorageLevel::Memory);
        sc.count(&shuffled);
        sc.cleanup_shuffle(&shuffled); // shuffle files gone, cache remains
        let jobs_before = sc.stats().jobs;
        sc.count(&shuffled); // must be served from cache, no map stage
        let s = sc.stats();
        assert_eq!(s.jobs, jobs_before + 1);
        assert!(sc.is_fully_cached(&shuffled));
    }

    #[test]
    fn driver_broadcast_gauge_tracks_destroy() {
        let sc = ctx();
        let y = rand_uniform(128, 1, 0.0, 1.0, 15);
        let b1 = sc.broadcast(y.clone());
        let b2 = sc.broadcast(y);
        assert_eq!(sc.driver_held_broadcast_bytes(), 2 * 128 * 8);
        b1.destroy();
        assert_eq!(sc.driver_held_broadcast_bytes(), 128 * 8);
        drop(b2);
        assert_eq!(sc.driver_held_broadcast_bytes(), 0);
    }

    #[test]
    fn concurrent_jobs_share_shuffle_production() {
        let sc = ctx();
        let (_, b) = blocked(32, 4, 4, 16);
        let rdd = sc.parallelize_blocked(&b, "X");
        let shuffled = sc.reduce_by_key(
            &rdd,
            "rekey",
            Arc::new(|k, m| vec![(BlockId { row: 0, col: k.row }, m.deep_clone())]),
            Arc::new(|a, _| a),
            2,
        );
        let sc2 = sc.clone();
        let r2 = shuffled.clone();
        let t = std::thread::spawn(move || sc2.count(&r2));
        let a = sc.count(&shuffled);
        let b2 = t.join().unwrap();
        assert_eq!(a, b2);
        // The shuffle map stage ran exactly once across both jobs.
        let s = sc.stats();
        assert_eq!(
            s.stages + s.skipped_stages,
            4,
            "2 result + 1 map + 1 skipped"
        );
    }
}
