//! MEMPHIS core: fine-grained lineage tracing and the hierarchical,
//! multi-backend lineage cache (the paper's primary contribution).
//!
//! The crate provides the system-internal API of paper §3.1:
//!
//! | Paper API | Here |
//! |---|---|
//! | `TRACE(inst)` | [`lineage::LineageMap::trace`] |
//! | `SERIALIZE`/`DESERIALIZE` | [`lineage::serialize`] / [`lineage::deserialize`] |
//! | `RECOMPUTE(log)` | [`recompute::recompute`] |
//! | `REUSE(trace)` | [`cache::LineageCache::probe`] |
//! | `PUT(trace, object)` | [`cache::LineageCache::put`] |
//! | `MAKE_SPACE(object)` | internal to the tiers |
//!
//! The cache is *hierarchical*: probing is unified across backends, while
//! cached objects live backend-local — in-memory matrices and scalars on
//! the driver (with disk eviction), `RddRef` handles pointing into the
//! simulated Spark cluster, and `GpuPtr` handles managed by the unified
//! GPU memory manager with its Live/Free lists, recycling, and eq. (2)
//! eviction scoring.

pub mod backend;
pub mod cache;
pub mod lineage;
pub mod pool;
pub mod recompute;
pub mod stats;

pub use backend::{BackendId, BackendSnapshot, EntryMap, EvictionPolicy, Materialized};
pub use cache::config::{CacheConfig, CachePolicy};
pub use cache::entry::{CacheEntry, CachedObject, EntryStatus};
pub use cache::gpu::GpuMemoryManager;
pub use cache::sharded::{Inflight, InflightOutcome, ShardedEntryMap};
pub use cache::{Admit, ComputeGuard, LineageCache, Probed, ResidentEntry};
pub use cache::{EntryReuseMeta, MemoryPressure};
pub use lineage::{resolve, LItem, LineageId, LineageItem, LineageMap};
pub use pool::{Pool, PoolStats};
pub use stats::{ReuseStats, ReuseStatsSnapshot};
