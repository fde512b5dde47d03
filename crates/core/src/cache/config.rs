//! Cache configuration.

use memphis_sparksim::FaultPlan;
use std::path::PathBuf;

/// Which eviction/admission cost model the cache runs.
///
/// `Paper` is the reproduction's default — eq. (1)/(2) scoring exactly
/// as published, and every gated experiment counter is bit-identical to
/// the committed baselines under it. `DelayedHits` extends eq. (1) with
/// the delayed-hits aggregate-delay term (waiters stacked behind a
/// coalesced miss cost more than the recompute alone), discounted by
/// the entry's estimated time-to-next-access, plus MURS-style
/// admission shedding under memory pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Eq. (1)/(2) exactly as in the paper.
    #[default]
    Paper,
    /// Eq. (1) + aggregate-delay term, TTNA-discounted, with
    /// pressure-gated TTNA admission shedding.
    DelayedHits,
}

/// Configuration of the hierarchical lineage cache.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Driver-local cache budget in bytes (paper: 5 GB default on the
    /// driver; scaled here).
    pub local_budget: usize,
    /// Fraction of Spark storage memory usable for reuse-persisted RDDs
    /// (paper: 80%, rest reserved for broadcasts and compiler checkpoints).
    pub spark_reuse_fraction: f64,
    /// Number of unmaterialized reuses of an RDD entry before an
    /// asynchronous `count()` job materializes it (paper default: 3).
    pub materialize_after_misses: u64,
    /// Directory for disk-evicted local binaries.
    pub spill_dir: PathBuf,
    /// Promote disk-evicted entries back to memory on reuse.
    pub promote_on_disk_hit: bool,
    /// Spill proven-reusable local entries to disk on eviction (disable to
    /// always drop — recompute-from-lineage replaces disk reads).
    pub spill_to_disk: bool,
    /// Probe-map shards (rounded up to a power of two). More shards
    /// reduce lock contention between concurrent sessions; 1 restores a
    /// single-lock map.
    pub shards: usize,
    /// Durable disk-tier directory surviving restarts. `None` (default)
    /// keeps the classic behavior: a cache-unique subdirectory of
    /// `spill_dir`, removed when the cache is dropped. `Some(dir)` makes
    /// the disk tier a persistent store: segments and manifest live in
    /// `dir`, are *not* removed on drop, and are recovered (manifest
    /// scan + checksum verification + probe-map rebuild) by the next
    /// cache constructed over the same directory.
    pub persist_dir: Option<PathBuf>,
    /// Byte budget for rehydrating recovered entries into the local tier
    /// at startup, hottest (eq. 1 score) first. `None` defaults to half
    /// the local budget; entries beyond the budget stay disk-backed and
    /// materialize lazily on first probe.
    pub rehydrate_budget: Option<usize>,
    /// Roll the active segment file once it exceeds this many bytes.
    pub segment_max_bytes: u64,
    /// Compact the store (rewrite live records, atomic manifest swap)
    /// once at least this many dead bytes accumulate *and* dead bytes
    /// reach half the store.
    pub compact_min_dead_bytes: u64,
    /// Seeded fault plan for the durable disk tier: torn writes, silent
    /// record corruption, partial fsyncs, and the deterministic
    /// kill-at-sync-point switch. Inert by default.
    pub disk_faults: FaultPlan,
    /// Eviction/admission cost model. `Paper` (the default) keeps every
    /// experiment bit-identical to the published eq. (1)/(2) behavior;
    /// `DelayedHits` folds observed coalescing pressure and estimated
    /// time-to-next-access into scoring and admission.
    pub policy: CachePolicy,
}

impl CacheConfig {
    /// A small configuration for unit tests: 1 MB local budget, no delay.
    pub fn test() -> Self {
        Self {
            local_budget: 1 << 20,
            spark_reuse_fraction: 0.8,
            materialize_after_misses: 3,
            spill_dir: std::env::temp_dir().join("memphis_cache_spill"),
            promote_on_disk_hit: true,
            spill_to_disk: true,
            shards: 8,
            persist_dir: None,
            rehydrate_budget: None,
            segment_max_bytes: 1 << 20,
            compact_min_dead_bytes: 64 << 10,
            disk_faults: FaultPlan::none(),
            policy: CachePolicy::Paper,
        }
    }

    /// The benchmark configuration: mirrors the paper's 5 GB driver cache
    /// at 1/1024 scale (5 MB) — experiments override as needed.
    pub fn benchmark() -> Self {
        Self {
            local_budget: 64 << 20,
            spark_reuse_fraction: 0.8,
            materialize_after_misses: 3,
            spill_dir: std::env::temp_dir().join("memphis_cache_spill"),
            promote_on_disk_hit: true,
            spill_to_disk: true,
            shards: 16,
            persist_dir: None,
            rehydrate_budget: None,
            segment_max_bytes: 8 << 20,
            compact_min_dead_bytes: 1 << 20,
            disk_faults: FaultPlan::none(),
            policy: CachePolicy::Paper,
        }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::test()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_parameters() {
        let c = CacheConfig::test();
        assert_eq!(c.spark_reuse_fraction, 0.8);
        assert_eq!(c.materialize_after_misses, 3);
    }
}
