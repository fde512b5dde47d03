//! RDD abstraction: lazily evaluated, partitioned collections of keyed
//! matrix tiles, represented as transformation DAG nodes.

use crate::block_manager::StorageLevel;
use crate::broadcast::BroadcastRef;
use memphis_matrix::{BlockId, Matrix};
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One keyed record: a matrix tile with its block key.
pub type Record = (BlockId, Matrix);

/// Narrow per-record transformation. Must preserve the record key's hash
/// partition (MEMPHIS-generated plans always keep the `BlockId` unchanged).
pub type MapFn = Arc<dyn Fn(&BlockId, &Matrix) -> Record + Send + Sync>;

/// Narrow per-record transformation with access to a broadcast matrix.
pub type MapBcFn = Arc<dyn Fn(&BlockId, &Matrix, &Matrix) -> Record + Send + Sync>;

/// Key-preserving binary transformation applied to co-partitioned records
/// with equal keys.
pub type ZipFn = Arc<dyn Fn(&BlockId, &Matrix, &Matrix) -> Matrix + Send + Sync>;

/// Map-side emit function of a shuffle: produces re-keyed messages.
pub type EmitFn = Arc<dyn Fn(&BlockId, &Matrix) -> Vec<Record> + Send + Sync>;

/// Commutative, associative combiner for shuffle reduce and `reduce` actions.
pub type CombineFn = Arc<dyn Fn(Matrix, Matrix) -> Matrix + Send + Sync>;

/// Unique RDD identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RddId(pub u64);

/// Unique shuffle identifier (one per wide dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShuffleId(pub u64);

/// Hash partitioner: stable key → partition mapping shared by every RDD so
/// that equal keys co-locate (enables narrow zip-joins).
pub fn partition_of(key: &BlockId, num_partitions: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % num_partitions.max(1) as u64) as usize
}

/// The transformation that produces an RDD.
pub(crate) enum RddKind {
    /// Driver-side source data, already split into partitions.
    Parallelize {
        /// Hash-partitioned records.
        partitions: Arc<Vec<Vec<Record>>>,
    },
    /// Narrow per-record map.
    Map {
        /// Input RDD.
        parent: RddRef,
        /// Transformation.
        f: MapFn,
    },
    /// Narrow map reading a broadcast variable.
    MapWithBroadcast {
        /// Input RDD.
        parent: RddRef,
        /// Broadcast matrix, lazily shipped to executors.
        bc: BroadcastRef,
        /// Transformation.
        f: MapBcFn,
    },
    /// Narrow binary zip over co-partitioned inputs with equal keys.
    ZipJoin {
        /// Left input.
        left: RddRef,
        /// Right input.
        right: RddRef,
        /// Per-key combine.
        f: ZipFn,
    },
    /// Wide dependency: map-side emit, shuffle, reduce-side combine.
    ReduceByKey {
        /// Input RDD.
        parent: RddRef,
        /// Map-side message generation.
        emit: EmitFn,
        /// Reduce-side combiner.
        combine: CombineFn,
        /// Shuffle identifier (allocated at creation).
        shuffle: ShuffleId,
    },
}

pub(crate) struct RddInner {
    pub(crate) id: RddId,
    pub(crate) kind: RddKind,
    pub(crate) num_partitions: usize,
    /// Requested storage level; `None` until `persist()` is called.
    pub(crate) persist_level: Mutex<Option<StorageLevel>>,
    /// Human-readable operator name for debugging and experiment reports.
    pub(crate) name: String,
}

/// A cheaply clonable handle to an RDD DAG node.
///
/// Dropping the last handle makes the RDD unreachable; the
/// [`crate::context::SparkContext`] provides explicit cleanup of cached
/// partitions and shuffle files.
#[derive(Clone)]
pub struct RddRef(pub(crate) Arc<RddInner>);

static NEXT_RDD_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SHUFFLE_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_rdd_id() -> RddId {
    RddId(NEXT_RDD_ID.fetch_add(1, Ordering::Relaxed))
}

pub(crate) fn next_shuffle_id() -> ShuffleId {
    ShuffleId(NEXT_SHUFFLE_ID.fetch_add(1, Ordering::Relaxed))
}

impl RddRef {
    /// Unique identifier.
    pub fn id(&self) -> RddId {
        self.0.id
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.0.num_partitions
    }

    /// Operator name assigned at creation.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Direct parent RDDs (lineage edges), used by MEMPHIS's lazy garbage
    /// collection to find child references that can be released.
    pub fn parents(&self) -> Vec<RddRef> {
        match &self.0.kind {
            RddKind::Parallelize { .. } => vec![],
            RddKind::Map { parent, .. } => vec![parent.clone()],
            RddKind::MapWithBroadcast { parent, .. } => vec![parent.clone()],
            RddKind::ZipJoin { left, right, .. } => vec![left.clone(), right.clone()],
            RddKind::ReduceByKey { parent, .. } => vec![parent.clone()],
        }
    }

    /// The broadcast variable read by this node, if any (for lazy GC).
    pub fn broadcast(&self) -> Option<BroadcastRef> {
        match &self.0.kind {
            RddKind::MapWithBroadcast { bc, .. } => Some(bc.clone()),
            _ => None,
        }
    }

    /// Marks this RDD for caching at the given storage level. Lazy, exactly
    /// like Spark's `persist()`: partitions materialize in the block manager
    /// only when a job computes them.
    pub fn persist(&self, level: StorageLevel) {
        *self.0.persist_level.lock() = Some(level);
    }

    /// Clears the persist flag. The context's `unpersist` also drops any
    /// already-cached partitions.
    pub(crate) fn clear_persist(&self) {
        *self.0.persist_level.lock() = None;
    }

    /// Current persist level, if marked.
    pub fn persist_level(&self) -> Option<StorageLevel> {
        *self.0.persist_level.lock()
    }

    /// The shuffle this RDD's wide dependency owns, if any.
    pub fn shuffle_id(&self) -> Option<ShuffleId> {
        match &self.0.kind {
            RddKind::ReduceByKey { shuffle, .. } => Some(*shuffle),
            _ => None,
        }
    }
}

impl std::fmt::Debug for RddRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Rdd#{}({}, {} partitions)",
            self.0.id.0, self.0.name, self.0.num_partitions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioner_is_stable_and_in_range() {
        for n in [1usize, 3, 7, 16] {
            for r in 0..20 {
                for c in 0..5 {
                    let k = BlockId { row: r, col: c };
                    let p = partition_of(&k, n);
                    assert!(p < n);
                    assert_eq!(p, partition_of(&k, n));
                }
            }
        }
    }

    #[test]
    fn ids_are_unique() {
        let a = next_rdd_id();
        let b = next_rdd_id();
        assert_ne!(a, b);
        let s = next_shuffle_id();
        let t = next_shuffle_id();
        assert_ne!(s, t);
    }
}
