//! Reuse and cache-management counters reported by the experiments.

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic counters for the lineage cache and backend managers.
#[derive(Debug, Default)]
pub struct ReuseStats {
    /// Cache probes (REUSE calls).
    pub probes: AtomicU64,
    /// Probes that returned a reusable object.
    pub hits: AtomicU64,
    /// Hits served by local in-memory matrices/scalars.
    pub hits_local: AtomicU64,
    /// Hits served by RDD handles (compute sharing, possibly
    /// unmaterialized).
    pub hits_rdd: AtomicU64,
    /// Hits served by GPU pointers.
    pub hits_gpu: AtomicU64,
    /// Hits served from disk-evicted binaries.
    pub hits_disk: AtomicU64,
    /// Hits of multi-level (function/block) entries.
    pub hits_func: AtomicU64,
    /// Probes that found nothing reusable.
    pub misses: AtomicU64,
    /// PUT calls that stored an object.
    pub puts: AtomicU64,
    /// PUT calls deferred by delayed caching (placeholder created/advanced).
    pub puts_deferred: AtomicU64,
    /// Probes served by awaiting another session's in-flight computation
    /// instead of recomputing.
    pub coalesced_hits: AtomicU64,
    /// Times a session blocked on an in-flight marker (one wait can end
    /// in a coalesced hit or an abandoned retry).
    pub inflight_waits: AtomicU64,
    /// In-flight computations begun (probe misses that claimed ownership).
    pub inflight_begins: AtomicU64,
    /// In-flight computations abandoned (owner errored or dropped its
    /// guard); waiters retried.
    pub inflight_abandoned: AtomicU64,
    /// In-flight resolutions that woke a non-empty waiter set with one
    /// batched `notify_all` broadcast.
    pub wakeup_batches: AtomicU64,
    /// In-flight resolutions with no blocked waiter: the condvar
    /// broadcast was skipped entirely.
    pub wakeup_skips: AtomicU64,
    /// In-flight markers recycled through the marker pool instead of
    /// freed (and later reused without an allocation).
    pub inflight_recycled: AtomicU64,
    /// Local entries evicted to disk.
    pub local_spills: AtomicU64,
    /// Local entries dropped entirely.
    pub local_drops: AtomicU64,
    /// Evictions whose victim was chosen by the tenant-quota pass (the
    /// owner tenant was over its soft cache quota).
    pub quota_evictions: AtomicU64,
    /// Disk-tier I/O failures (spill writes, materialize reads, dangling
    /// admissions). Each one degrades to a clean drop or miss.
    pub disk_io_errors: AtomicU64,
    /// RDD entries unpersisted by eq. (1) eviction.
    pub rdd_unpersists: AtomicU64,
    /// Asynchronous `count()` materialization jobs triggered.
    pub rdd_materialize_jobs: AtomicU64,
    /// Child RDD references released by lazy garbage collection.
    pub gc_rdds_released: AtomicU64,
    /// Broadcast variables destroyed by lazy garbage collection.
    pub gc_broadcasts_destroyed: AtomicU64,
    /// Broadcast variables unpersisted (executor copies released, driver
    /// value kept for recompute) by lazy GC when fault injection is on.
    pub gc_broadcasts_unpersisted: AtomicU64,
    /// GPU pointers recycled (memory reused without `cudaMalloc`).
    pub gpu_recycled: AtomicU64,
    /// GPU pointers reused (lineage hits on device pointers).
    pub gpu_reused: AtomicU64,
    /// GPU free-list pointers released with `cudaFree`.
    pub gpu_freed: AtomicU64,
    /// GPU cache entries evicted to host memory.
    pub gpu_evicted_to_host: AtomicU64,
    /// Full device defragmentations.
    pub gpu_defrags: AtomicU64,
    /// Segment files with at least one verified record found by disk-tier
    /// recovery at startup.
    pub segments_recovered: AtomicU64,
    /// Durable entries rebuilt into the probe map by recovery (local
    /// rehydrations plus lazily disk-backed entries).
    pub entries_recovered: AtomicU64,
    /// Recovered entries promoted ("rehydrated") into the local tier
    /// within the startup rehydration budget.
    pub entries_rehydrated: AtomicU64,
    /// Durable records rejected by CRC/identity verification (at recovery
    /// or on a later read). Each rejection degrades to a recompute, never
    /// to surfaced corrupt data.
    pub checksum_rejects: AtomicU64,
    /// Atomic manifest swaps completed by disk-tier compaction.
    pub manifest_swaps: AtomicU64,
    /// Admissions rejected by MURS-style shedding: under `Shed`/
    /// `Suspend` memory pressure with the `DelayedHits` policy, entries
    /// whose estimated time-to-next-access exceeds their expected cache
    /// lifetime are not admitted. Always zero under `Paper`.
    pub ttna_admission_rejects: AtomicU64,
    /// Waiter-ticks of stacked miss latency avoided by residency: on
    /// every local hit of an entry with observed coalesced waiters, its
    /// `miss_waiters * compute_cost` is credited here (the aggregate
    /// delay a miss would have re-imposed). Always zero under `Paper`.
    pub delayed_hit_ticks_saved: AtomicU64,
    /// Evictions performed while scoring with the delayed-hits (mean
    /// aggregate delay) extension. Always zero under `Paper`.
    pub mad_evictions: AtomicU64,
}

/// Point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct ReuseStatsSnapshot {
    /// See [`ReuseStats::probes`].
    pub probes: u64,
    /// See [`ReuseStats::hits`].
    pub hits: u64,
    /// See [`ReuseStats::hits_local`].
    pub hits_local: u64,
    /// See [`ReuseStats::hits_rdd`].
    pub hits_rdd: u64,
    /// See [`ReuseStats::hits_gpu`].
    pub hits_gpu: u64,
    /// See [`ReuseStats::hits_disk`].
    pub hits_disk: u64,
    /// See [`ReuseStats::hits_func`].
    pub hits_func: u64,
    /// See [`ReuseStats::misses`].
    pub misses: u64,
    /// See [`ReuseStats::puts`].
    pub puts: u64,
    /// See [`ReuseStats::puts_deferred`].
    pub puts_deferred: u64,
    /// See [`ReuseStats::coalesced_hits`].
    pub coalesced_hits: u64,
    /// See [`ReuseStats::inflight_waits`].
    pub inflight_waits: u64,
    /// See [`ReuseStats::inflight_begins`].
    pub inflight_begins: u64,
    /// See [`ReuseStats::inflight_abandoned`].
    pub inflight_abandoned: u64,
    /// See [`ReuseStats::wakeup_batches`].
    pub wakeup_batches: u64,
    /// See [`ReuseStats::wakeup_skips`].
    pub wakeup_skips: u64,
    /// See [`ReuseStats::inflight_recycled`].
    pub inflight_recycled: u64,
    /// Shard-lock acquisitions that found the lock held (filled by the
    /// cache from its sharded map, not an atomic of [`ReuseStats`]).
    pub shard_contention: u64,
    /// See [`ReuseStats::local_spills`].
    pub local_spills: u64,
    /// See [`ReuseStats::local_drops`].
    pub local_drops: u64,
    /// See [`ReuseStats::quota_evictions`].
    pub quota_evictions: u64,
    /// See [`ReuseStats::disk_io_errors`].
    pub disk_io_errors: u64,
    /// See [`ReuseStats::rdd_unpersists`].
    pub rdd_unpersists: u64,
    /// See [`ReuseStats::rdd_materialize_jobs`].
    pub rdd_materialize_jobs: u64,
    /// See [`ReuseStats::gc_rdds_released`].
    pub gc_rdds_released: u64,
    /// See [`ReuseStats::gc_broadcasts_destroyed`].
    pub gc_broadcasts_destroyed: u64,
    /// See [`ReuseStats::gc_broadcasts_unpersisted`].
    pub gc_broadcasts_unpersisted: u64,
    /// See [`ReuseStats::gpu_recycled`].
    pub gpu_recycled: u64,
    /// See [`ReuseStats::gpu_reused`].
    pub gpu_reused: u64,
    /// See [`ReuseStats::gpu_freed`].
    pub gpu_freed: u64,
    /// See [`ReuseStats::gpu_evicted_to_host`].
    pub gpu_evicted_to_host: u64,
    /// See [`ReuseStats::gpu_defrags`].
    pub gpu_defrags: u64,
    /// See [`ReuseStats::segments_recovered`].
    pub segments_recovered: u64,
    /// See [`ReuseStats::entries_recovered`].
    pub entries_recovered: u64,
    /// See [`ReuseStats::entries_rehydrated`].
    pub entries_rehydrated: u64,
    /// See [`ReuseStats::checksum_rejects`].
    pub checksum_rejects: u64,
    /// See [`ReuseStats::manifest_swaps`].
    pub manifest_swaps: u64,
    /// See [`ReuseStats::ttna_admission_rejects`].
    pub ttna_admission_rejects: u64,
    /// See [`ReuseStats::delayed_hit_ticks_saved`].
    pub delayed_hit_ticks_saved: u64,
    /// See [`ReuseStats::mad_evictions`].
    pub mad_evictions: u64,
}

impl ReuseStats {
    /// Increments a counter.
    #[inline]
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies all counters.
    pub fn snapshot(&self) -> ReuseStatsSnapshot {
        ReuseStatsSnapshot {
            probes: self.probes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            hits_local: self.hits_local.load(Ordering::Relaxed),
            hits_rdd: self.hits_rdd.load(Ordering::Relaxed),
            hits_gpu: self.hits_gpu.load(Ordering::Relaxed),
            hits_disk: self.hits_disk.load(Ordering::Relaxed),
            hits_func: self.hits_func.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            puts_deferred: self.puts_deferred.load(Ordering::Relaxed),
            coalesced_hits: self.coalesced_hits.load(Ordering::Relaxed),
            inflight_waits: self.inflight_waits.load(Ordering::Relaxed),
            inflight_begins: self.inflight_begins.load(Ordering::Relaxed),
            inflight_abandoned: self.inflight_abandoned.load(Ordering::Relaxed),
            wakeup_batches: self.wakeup_batches.load(Ordering::Relaxed),
            wakeup_skips: self.wakeup_skips.load(Ordering::Relaxed),
            inflight_recycled: self.inflight_recycled.load(Ordering::Relaxed),
            shard_contention: 0,
            local_spills: self.local_spills.load(Ordering::Relaxed),
            local_drops: self.local_drops.load(Ordering::Relaxed),
            quota_evictions: self.quota_evictions.load(Ordering::Relaxed),
            disk_io_errors: self.disk_io_errors.load(Ordering::Relaxed),
            rdd_unpersists: self.rdd_unpersists.load(Ordering::Relaxed),
            rdd_materialize_jobs: self.rdd_materialize_jobs.load(Ordering::Relaxed),
            gc_rdds_released: self.gc_rdds_released.load(Ordering::Relaxed),
            gc_broadcasts_destroyed: self.gc_broadcasts_destroyed.load(Ordering::Relaxed),
            gc_broadcasts_unpersisted: self.gc_broadcasts_unpersisted.load(Ordering::Relaxed),
            gpu_recycled: self.gpu_recycled.load(Ordering::Relaxed),
            gpu_reused: self.gpu_reused.load(Ordering::Relaxed),
            gpu_freed: self.gpu_freed.load(Ordering::Relaxed),
            gpu_evicted_to_host: self.gpu_evicted_to_host.load(Ordering::Relaxed),
            gpu_defrags: self.gpu_defrags.load(Ordering::Relaxed),
            segments_recovered: self.segments_recovered.load(Ordering::Relaxed),
            entries_recovered: self.entries_recovered.load(Ordering::Relaxed),
            entries_rehydrated: self.entries_rehydrated.load(Ordering::Relaxed),
            checksum_rejects: self.checksum_rejects.load(Ordering::Relaxed),
            manifest_swaps: self.manifest_swaps.load(Ordering::Relaxed),
            ttna_admission_rejects: self.ttna_admission_rejects.load(Ordering::Relaxed),
            delayed_hit_ticks_saved: self.delayed_hit_ticks_saved.load(Ordering::Relaxed),
            mad_evictions: self.mad_evictions.load(Ordering::Relaxed),
        }
    }
}

impl memphis_obs::IntoMetrics for ReuseStatsSnapshot {
    fn metrics_section(&self) -> &'static str {
        "reuse"
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("probes", self.probes),
            ("hits", self.hits),
            ("hits_local", self.hits_local),
            ("hits_rdd", self.hits_rdd),
            ("hits_gpu", self.hits_gpu),
            ("hits_disk", self.hits_disk),
            ("hits_func", self.hits_func),
            ("misses", self.misses),
            ("puts", self.puts),
            ("puts_deferred", self.puts_deferred),
            ("coalesced_hits", self.coalesced_hits),
            ("inflight_waits", self.inflight_waits),
            ("inflight_begins", self.inflight_begins),
            ("inflight_abandoned", self.inflight_abandoned),
            ("wakeup_batches", self.wakeup_batches),
            ("wakeup_skips", self.wakeup_skips),
            ("inflight_recycled", self.inflight_recycled),
            ("shard_contention", self.shard_contention),
            ("local_spills", self.local_spills),
            ("local_drops", self.local_drops),
            ("quota_evictions", self.quota_evictions),
            ("disk_io_errors", self.disk_io_errors),
            ("rdd_unpersists", self.rdd_unpersists),
            ("rdd_materialize_jobs", self.rdd_materialize_jobs),
            ("gc_rdds_released", self.gc_rdds_released),
            ("gc_broadcasts_destroyed", self.gc_broadcasts_destroyed),
            ("gc_broadcasts_unpersisted", self.gc_broadcasts_unpersisted),
            ("gpu_recycled", self.gpu_recycled),
            ("gpu_reused", self.gpu_reused),
            ("gpu_freed", self.gpu_freed),
            ("gpu_evicted_to_host", self.gpu_evicted_to_host),
            ("gpu_defrags", self.gpu_defrags),
            ("segments_recovered", self.segments_recovered),
            ("entries_recovered", self.entries_recovered),
            ("entries_rehydrated", self.entries_rehydrated),
            ("checksum_rejects", self.checksum_rejects),
            ("manifest_swaps", self.manifest_swaps),
            ("ttna_admission_rejects", self.ttna_admission_rejects),
            ("delayed_hit_ticks_saved", self.delayed_hit_ticks_saved),
            ("mad_evictions", self.mad_evictions),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = ReuseStats::default();
        ReuseStats::inc(&s.probes);
        ReuseStats::inc(&s.probes);
        ReuseStats::inc(&s.hits_gpu);
        let snap = s.snapshot();
        assert_eq!(snap.probes, 2);
        assert_eq!(snap.hits_gpu, 1);
        assert_eq!(snap.misses, 0);
    }
}
