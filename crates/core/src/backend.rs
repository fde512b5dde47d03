//! The vocabulary shared by the lineage cache's four tiers (paper §3.3,
//! §4).
//!
//! The cache's probe map is tier-agnostic: every entry carries a
//! [`BackendId`] naming the tier that owns its object — driver memory,
//! the driver's disk spill, Spark, or the GPU. The cache dispatches
//! admission, hit-side materialization ([`Materialized`]) and release to
//! that tier, and every tier reports through one [`BackendSnapshot`].
//!
//! Every `MAKE_SPACE` path scores victims through one shared
//! [`EvictionPolicy`]: eq. (1) cost&size scoring for entry-granularity
//! tiers and eq. (2) recency/height/cost scoring for GPU free pointers.

use crate::cache::config::CachePolicy;
use crate::cache::entry::{CacheEntry, CachedObject};
use crate::cache::sharded::Inflight;
use crate::lineage::LineageId;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifies the cache tier owning an entry's object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendId {
    /// Driver-local in-memory matrices and scalars.
    Local,
    /// Driver-local disk-spill binaries.
    Disk,
    /// Simulated Spark cluster (RDD handles).
    Spark,
    /// Simulated GPU device (managed pointers).
    Gpu,
}

impl BackendId {
    /// Short tag for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendId::Local => "local",
            BackendId::Disk => "disk",
            BackendId::Spark => "spark",
            BackendId::Gpu => "gpu",
        }
    }
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The unified eviction policy: one scoring function per granularity,
/// under the cache's cost model.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvictionPolicy {
    /// Cost model: `Paper` scores by eq. (1) exactly; `DelayedHits`
    /// adds the TTNA-discounted aggregate-delay term.
    pub policy: CachePolicy,
}

impl EvictionPolicy {
    /// Candidates examined per shard and eviction: like Spark's
    /// sampling-based entry selection, scanning a bounded sample keeps
    /// eviction O(1) amortized instead of O(entries) per insertion.
    pub const VICTIM_SAMPLE: usize = 64;

    /// Half-life (in virtual-clock ticks) of the TTNA discount: an
    /// entry expected back within `TTNA_HALF_LIFE` ticks keeps more
    /// than half of its aggregate-delay credit; one expected back much
    /// later keeps almost none.
    pub const TTNA_HALF_LIFE: f64 = 64.0;

    /// A policy under the given cost model.
    pub fn with_policy(policy: CachePolicy) -> Self {
        Self { policy }
    }
    /// Eq. (1) score `(r_h + r_m + r_j) * c(o) / s(o)` — smallest is
    /// evicted first.
    pub fn cost_size_score(refs: u64, cost: f64, size: usize) -> f64 {
        (refs as f64).max(1.0) * cost / size.max(1) as f64
    }

    /// Eq. (1) applied to an entry's reuse metadata.
    pub fn entry_score(e: &CacheEntry) -> f64 {
        Self::cost_size_score(e.hits + e.misses + e.jobs, e.compute_cost, e.size)
    }

    /// Delayed-hits extension of eq. (1):
    /// `refs.max(1) * (c(o) + aggregate_delay * discount) / s(o)` where
    /// `aggregate_delay = miss_waiters * c(o)` (every coalesced waiter
    /// stacked behind a miss paid the full recompute latency again) and
    /// `discount = H / (H + TTNA)` fades the credit of entries not
    /// expected back soon. An entry with no observed inter-probe gap yet
    /// carries no TTNA evidence, so its delay credit is *not* discounted
    /// (`discount = 1`): a freshly readmitted batch-serving entry keeps
    /// its waiter protection through the window before its next probe
    /// instead of collapsing back to eq. (1) and thrashing. With zero
    /// observed waiters the delay term vanishes and the score is
    /// *exactly* eq. (1) — the `Paper` policy is the zero-pressure fixed
    /// point, not an approximation of it.
    pub fn delayed_hits_score(e: &CacheEntry) -> f64 {
        let refs = ((e.hits + e.misses + e.jobs) as f64).max(1.0);
        let discount = if e.probe_gaps == 0 {
            1.0
        } else {
            Self::TTNA_HALF_LIFE / (Self::TTNA_HALF_LIFE + e.ttna_ewma)
        };
        let aggregate_delay = e.miss_waiters as f64 * e.compute_cost;
        refs * (e.compute_cost + aggregate_delay * discount) / e.size.max(1) as f64
    }

    /// The entry score under this policy's cost model.
    pub fn score(&self, e: &CacheEntry) -> f64 {
        match self.policy {
            CachePolicy::Paper => Self::entry_score(e),
            CachePolicy::DelayedHits => Self::delayed_hits_score(e),
        }
    }

    /// Eq. (2) score `T_a(o) + 1/h(o) + c(o)` (each term normalized) —
    /// smallest is recycled/freed first.
    pub fn gpu_score(last_access: u64, clock: u64, height: u32, cost: f64, max_cost: f64) -> f64 {
        let ta = if clock == 0 {
            0.0
        } else {
            last_access as f64 / clock as f64
        };
        let inv_h = 1.0 / height.max(1) as f64;
        let c = if max_cost > 0.0 { cost / max_cost } else { 0.0 };
        ta + inv_h + c
    }
}

/// One shard of the unified probe map: lineage keys to entries (any
/// backend) plus the shard's in-flight computation markers. Shards are
/// hash-partitioned and independently locked inside
/// [`ShardedEntryMap`](crate::cache::sharded::ShardedEntryMap); the
/// logical clock is global to the sharded map.
#[derive(Default)]
pub struct EntryMap {
    /// All entries, placeholders included.
    pub entries: HashMap<LineageId, CacheEntry>,
    /// In-flight computations keyed by lineage id: a second session
    /// probing one of these blocks on the marker instead of recomputing.
    pub inflight: HashMap<LineageId, Arc<Inflight>>,
}

impl EntryMap {
    /// Creates an empty shard.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Outcome of a tier's hit-side materialization.
#[derive(Debug)]
pub enum Materialized {
    /// The object is reusable (backend resources acquired as needed).
    Hit(CachedObject),
    /// The entry is no longer usable (lost spill file, stale pointer);
    /// the cache drops it and reports a miss.
    Stale,
}

/// Point-in-time report of one tier; the cache gathers one per attached
/// tier into the unified per-backend stats report.
#[derive(Debug, Clone)]
pub struct BackendSnapshot {
    /// The reporting tier.
    pub id: BackendId,
    /// Bytes currently accounted to the tier.
    pub used: usize,
    /// Byte budget (`usize::MAX` = unbounded).
    pub budget: usize,
    /// Entries owned in the probe map (filled by the cache; a tier
    /// alone cannot see the map).
    pub entries: usize,
    /// Backend-specific counters (spills, recycles, jobs, ...).
    pub detail: Vec<(&'static str, u64)>,
}

impl fmt::Display for BackendSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let budget = if self.budget == usize::MAX {
            "inf".to_string()
        } else {
            format!("{}", self.budget)
        };
        write!(
            f,
            "{:<7} used={}/{} entries={}",
            self.id.to_string(),
            self.used,
            budget,
            self.entries
        )?;
        for (k, v) in &self.detail {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_id_tags_and_display() {
        assert_eq!(BackendId::Local.as_str(), "local");
        assert_eq!(BackendId::Spark.as_str(), "spark");
        assert_eq!(BackendId::Gpu.to_string(), "gpu");
    }

    #[test]
    fn eq1_orders_by_value_density() {
        // Expensive & small beats cheap & large; references scale up.
        let precious = EvictionPolicy::cost_size_score(5, 1e9, 8);
        let bulky = EvictionPolicy::cost_size_score(5, 1.0, 1 << 30);
        assert!(precious > bulky);
        assert!(
            EvictionPolicy::cost_size_score(10, 10.0, 100)
                > EvictionPolicy::cost_size_score(1, 10.0, 100)
        );
        // Zero references count as one (freshly admitted entries).
        assert_eq!(
            EvictionPolicy::cost_size_score(0, 10.0, 100),
            EvictionPolicy::cost_size_score(1, 10.0, 100)
        );
    }

    #[test]
    fn eq2_prefers_stale_tall_cheap() {
        let stale_tall_cheap = EvictionPolicy::gpu_score(1, 100, 10, 1.0, 100.0);
        let fresh_short_costly = EvictionPolicy::gpu_score(99, 100, 1, 100.0, 100.0);
        assert!(stale_tall_cheap < fresh_short_costly);
        // Degenerate clocks/costs do not divide by zero.
        assert!(EvictionPolicy::gpu_score(0, 0, 0, 0.0, 0.0).is_finite());
    }
}
