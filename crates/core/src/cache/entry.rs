//! Cache entries: backend-local cached objects with reuse metadata.

use crate::backend::{BackendId, EvictionPolicy};
use crate::lineage::{LItem, LineageId};
use memphis_gpusim::GpuPtr;
use memphis_matrix::Matrix;
use memphis_sparksim::RddRef;
use std::sync::Arc;

/// A backend-local cached object — the wrapper of paper §3.3 around
/// backend-specific pointers.
#[derive(Debug, Clone)]
pub enum CachedObject {
    /// In-memory matrix on the driver (shared, not deep-copied, between
    /// the cache and probe hits).
    Matrix(Arc<Matrix>),
    /// Scalar on the driver.
    Scalar(f64),
    /// Handle to a (possibly unmaterialized) distributed RDD, with its
    /// logical shape (the data characteristics metadata of §3.3).
    Rdd {
        /// Distributed handle.
        rdd: RddRef,
        /// Logical rows.
        rows: usize,
        /// Logical columns.
        cols: usize,
    },
    /// Device pointer managed by the GPU memory manager, with its shape.
    Gpu {
        /// Device pointer.
        ptr: GpuPtr,
        /// Logical rows.
        rows: usize,
        /// Logical columns.
        cols: usize,
    },
    /// Disk-evicted binary in the durable segment store, keyed by the
    /// lineage `content_hash` — stable across restarts (allocation-order
    /// ids are not), so recovered entries match without a rename pass.
    Disk(u64),
}

impl CachedObject {
    /// The tier owning this object.
    pub fn backend(&self) -> BackendId {
        match self {
            CachedObject::Matrix(_) => BackendId::Local,
            CachedObject::Scalar(_) => BackendId::Local,
            CachedObject::Rdd { .. } => BackendId::Spark,
            CachedObject::Gpu { .. } => BackendId::Gpu,
            CachedObject::Disk(_) => BackendId::Disk,
        }
    }

    /// Content fingerprint of a served object: the matrix fingerprint,
    /// the scalar's bits, and 0 for handles (RDD, GPU, disk) whose
    /// content is not on the driver.
    pub fn fingerprint(&self) -> u64 {
        match self {
            CachedObject::Matrix(m) => m.fingerprint(),
            CachedObject::Scalar(s) => s.to_bits(),
            _ => 0,
        }
    }
}

/// Admission status of an entry (delayed caching, paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryStatus {
    /// Placeholder created by PUT; the object is stored once the operator
    /// has repeated `needed` times (`TO-BE-CACHED`).
    ToBeCached {
        /// Placeholder probes observed so far.
        seen: u32,
        /// Delay factor n: store on the n-th execution.
        needed: u32,
    },
    /// Object stored (`CACHED`).
    Cached,
}

/// One lineage-cache entry.
#[derive(Debug)]
pub struct CacheEntry {
    /// Interned lineage identity of the cached intermediate (the
    /// lineage node is recoverable via [`crate::lineage::resolve`]).
    pub key: LineageId,
    /// The cached object; `None` while the entry is a placeholder.
    pub object: Option<CachedObject>,
    /// The tier owning the object (admission/eviction dispatch through
    /// the registry). Placeholders default to the local tier.
    pub backend: BackendId,
    /// Admission status.
    pub status: EntryStatus,
    /// Analytical compute cost `c(o)` supplied by the compiler.
    pub compute_cost: f64,
    /// Estimated worst-case size `s(o)` in bytes.
    pub size: usize,
    /// Reuse hits `r_h`.
    pub hits: u64,
    /// Reuses while unmaterialized `r_m` (Spark lazy evaluation).
    pub misses: u64,
    /// Jobs that consumed this entry `r_j`.
    pub jobs: u64,
    /// Logical clock of the last access (for recency scoring).
    pub last_access: u64,
    /// Height of the lineage trace `h(o)`.
    pub height: u32,
    /// True for multi-level (function/basic-block) entries.
    pub is_function: bool,
    /// Set once an asynchronous materialization job was triggered.
    pub materialize_triggered: bool,
    /// Set once lazy GC cleaned up the entry's child references.
    pub gc_done: bool,
    /// Pinned entries are never eviction victims (serving-time protection
    /// for shared working sets; unpin to make them evictable again).
    pub pinned: bool,
    /// Tenant that computed the object (serving layer). Entries of
    /// over-quota tenants are preferred eviction victims; `None` (the
    /// default for non-serving callers) is never quota-charged.
    pub tenant: Option<u16>,
    /// EWMA of inter-probe gaps on the global virtual clock — the
    /// time-to-next-access estimate of the `DelayedHits` policy. Zero
    /// until the first gap is observed (see `probe_gaps`).
    pub ttna_ewma: f64,
    /// Number of inter-probe gap samples folded into `ttna_ewma`; while
    /// zero the TTNA is unknown and the delayed-hits discount is zero.
    pub probe_gaps: u64,
    /// Virtual-clock tick of the most recent probe (0 = never probed).
    pub last_probe_tick: u64,
    /// Coalesced waiters observed stacked behind misses of this entry —
    /// the aggregate-delay signal: each waiter paid the full recompute
    /// latency on top of the miss itself.
    pub miss_waiters: u64,
}

/// Smoothing factor for the inter-probe-gap EWMA (higher = faster
/// adaptation to the most recent gap).
pub const TTNA_ALPHA: f64 = 0.3;

impl CacheEntry {
    /// Creates a stored (CACHED) entry owned by the object's tier.
    pub fn cached(item: &LItem, object: CachedObject, compute_cost: f64, size: usize) -> Self {
        let height = item.height;
        let is_function = item.opcode.starts_with("func:");
        let backend = object.backend();
        Self {
            key: item.lid,
            object: Some(object),
            backend,
            status: EntryStatus::Cached,
            compute_cost,
            size,
            hits: 0,
            misses: 0,
            jobs: 0,
            last_access: 0,
            height,
            is_function,
            materialize_triggered: false,
            gc_done: false,
            pinned: false,
            tenant: None,
            ttna_ewma: 0.0,
            probe_gaps: 0,
            last_probe_tick: 0,
            miss_waiters: 0,
        }
    }

    /// Rebuilds a CACHED disk-backed entry from a recovered durable
    /// record: the re-interned lineage item supplies the identity, and
    /// the persisted cost/hits keep the entry's proven-reuse standing in
    /// eq. (1) scoring across the restart.
    pub fn recovered(item: &LItem, compute_cost: f64, size: usize, hits: u64) -> Self {
        let mut e = Self::cached(
            item,
            CachedObject::Disk(item.lid.content_hash()),
            compute_cost,
            size,
        );
        e.hits = hits;
        e
    }

    /// Creates a TO-BE-CACHED placeholder with delay factor `needed`.
    pub fn placeholder(item: &LItem, compute_cost: f64, size: usize, needed: u32) -> Self {
        let height = item.height;
        let is_function = item.opcode.starts_with("func:");
        Self {
            key: item.lid,
            object: None,
            backend: BackendId::Local,
            status: EntryStatus::ToBeCached { seen: 1, needed },
            compute_cost,
            size,
            hits: 0,
            misses: 0,
            jobs: 0,
            last_access: 0,
            height,
            is_function,
            materialize_triggered: false,
            gc_done: false,
            pinned: false,
            tenant: None,
            ttna_ewma: 0.0,
            probe_gaps: 0,
            last_probe_tick: 0,
            miss_waiters: 0,
        }
    }

    /// Folds a probe at virtual-clock tick `clock` into the TTNA
    /// estimate: the gap since the previous probe updates the EWMA.
    /// Pure bookkeeping — under `CachePolicy::Paper` the estimate is
    /// never read, so recording it cannot perturb eq. (1) behavior.
    pub fn observe_probe(&mut self, clock: u64) {
        if self.last_probe_tick != 0 && clock > self.last_probe_tick {
            let gap = (clock - self.last_probe_tick) as f64;
            self.ttna_ewma = if self.probe_gaps == 0 {
                gap
            } else {
                TTNA_ALPHA * gap + (1.0 - TTNA_ALPHA) * self.ttna_ewma
            };
            self.probe_gaps += 1;
        }
        self.last_probe_tick = clock;
    }

    /// Estimated ticks until the next access: the inter-probe EWMA, or
    /// infinity while no re-access was ever observed (one probe — or
    /// none — in the entry's whole lifetime gives no evidence it will
    /// come back).
    pub fn estimated_ttna(&self) -> f64 {
        if self.probe_gaps == 0 {
            f64::INFINITY
        } else {
            self.ttna_ewma
        }
    }

    /// Eq. (1) eviction score: `(r_h + r_m + r_j) * c(o) / s(o)` —
    /// smallest score is evicted first (delegates to the shared
    /// [`EvictionPolicy`]).
    pub fn cost_size_score(&self) -> f64 {
        EvictionPolicy::entry_score(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::LineageItem;

    #[test]
    fn backend_tags() {
        assert_eq!(CachedObject::Scalar(1.0).backend(), BackendId::Local);
        assert_eq!(
            CachedObject::Matrix(Arc::new(Matrix::zeros(1, 1))).backend(),
            BackendId::Local
        );
        assert_eq!(CachedObject::Disk(0xfeed).backend(), BackendId::Disk);
        assert_eq!(BackendId::Disk.as_str(), "disk");
    }

    #[test]
    fn entries_carry_their_backend() {
        let e = CacheEntry::cached(&LineageItem::leaf("x"), CachedObject::Scalar(0.0), 1.0, 16);
        assert_eq!(e.backend, BackendId::Local);
        assert_eq!(e.key, LineageItem::leaf("x").lid, "key is the interned id");
        let p = CacheEntry::placeholder(&LineageItem::leaf("y"), 1.0, 16, 2);
        assert_eq!(p.backend, BackendId::Local);
    }

    #[test]
    fn recovered_entries_are_disk_backed_with_persisted_standing() {
        let item = LineageItem::leaf("recov");
        let e = CacheEntry::recovered(&item, 12.0, 640, 5);
        assert_eq!(e.backend, BackendId::Disk);
        assert_eq!(e.hits, 5, "proven-reuse standing survives the restart");
        assert_eq!(e.status, EntryStatus::Cached);
        match e.object {
            Some(CachedObject::Disk(h)) => assert_eq!(h, item.lid.content_hash()),
            other => panic!("expected a content-hash-keyed disk object, got {other:?}"),
        }
    }

    #[test]
    fn function_entries_detected() {
        let f = LineageItem::new("func:l2svm", vec![], vec![]);
        let e = CacheEntry::cached(&f, CachedObject::Scalar(0.0), 1.0, 8);
        assert!(e.is_function);
        let o = LineageItem::new("ba+*", vec![], vec![]);
        let e = CacheEntry::cached(&o, CachedObject::Scalar(0.0), 1.0, 8);
        assert!(!e.is_function);
    }

    #[test]
    fn cost_size_score_orders_by_value_density() {
        let k = LineageItem::leaf("x");
        // Expensive & small beats cheap & large.
        let mut precious = CacheEntry::cached(&k, CachedObject::Scalar(0.0), 1e9, 8);
        let mut bulky = CacheEntry::cached(&k, CachedObject::Scalar(0.0), 1.0, 1 << 30);
        precious.hits = 5;
        bulky.hits = 5;
        assert!(precious.cost_size_score() > bulky.cost_size_score());
    }

    #[test]
    fn references_increase_score() {
        let k = LineageItem::leaf("x");
        let mut a = CacheEntry::cached(&k, CachedObject::Scalar(0.0), 10.0, 100);
        let mut b = CacheEntry::cached(&k, CachedObject::Scalar(0.0), 10.0, 100);
        a.hits = 10;
        b.hits = 1;
        assert!(a.cost_size_score() > b.cost_size_score());
    }
}
