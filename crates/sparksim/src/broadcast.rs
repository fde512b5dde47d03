//! Torrent-style broadcast variables.
//!
//! Mirrors Spark's `TorrentBroadcast`: the driver serializes the broadcast
//! matrix into fixed-size chunks held in the driver's block manager; each
//! executor lazily pulls the chunks on first use. The driver-side copy
//! stays alive until `destroy()` — the dangling-reference behaviour that
//! MEMPHIS's lazy garbage collection targets (paper §2.2 and §4.1).

use crate::config::CostModel;
use crate::stats::SparkStats;
use memphis_matrix::Matrix;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Unique broadcast identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BroadcastId(pub u64);

static NEXT_BROADCAST_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) struct BroadcastInner {
    pub(crate) id: BroadcastId,
    /// Driver-held value; cleared by `destroy()`.
    pub(crate) value: Mutex<Option<Arc<Matrix>>>,
    /// Executors that already hold all chunks.
    pub(crate) delivered: Mutex<HashSet<usize>>,
    pub(crate) size_bytes: usize,
    pub(crate) num_chunks: usize,
    pub(crate) destroyed: AtomicBool,
}

/// Handle to a broadcast variable.
#[derive(Clone)]
pub struct BroadcastRef(pub(crate) Arc<BroadcastInner>);

impl BroadcastRef {
    /// Registers a new broadcast variable in the driver.
    pub(crate) fn new(value: Matrix, chunk_size: usize) -> Self {
        let size_bytes = value.size_bytes();
        let num_chunks = size_bytes.div_ceil(chunk_size.max(1)).max(1);
        Self(Arc::new(BroadcastInner {
            id: BroadcastId(NEXT_BROADCAST_ID.fetch_add(1, Ordering::Relaxed)),
            value: Mutex::new(Some(Arc::new(value))),
            delivered: Mutex::new(HashSet::new()),
            size_bytes,
            num_chunks,
            destroyed: AtomicBool::new(false),
        }))
    }

    /// Unique identifier.
    pub fn id(&self) -> BroadcastId {
        self.0.id
    }

    /// Serialized size held in the driver until destruction.
    pub fn size_bytes(&self) -> usize {
        self.0.size_bytes
    }

    /// Number of torrent chunks.
    pub fn num_chunks(&self) -> usize {
        self.0.num_chunks
    }

    /// True once `destroy()` released the driver-held data.
    pub fn is_destroyed(&self) -> bool {
        self.0.destroyed.load(Ordering::Acquire)
    }

    /// Number of executors holding the full chunk set.
    pub fn delivered_executors(&self) -> usize {
        self.0.delivered.lock().len()
    }

    /// Fetches the broadcast value on an executor, charging the chunked
    /// transfer cost the first time this executor reads it.
    ///
    /// Returns `None` if the broadcast was destroyed before the read (a
    /// driver bug MEMPHIS's reference tracking prevents).
    pub(crate) fn fetch(
        &self,
        executor_id: usize,
        cost: &CostModel,
        stats: &SparkStats,
    ) -> Option<Arc<Matrix>> {
        let value = self.0.value.lock().clone()?;
        let first_read = self.0.delivered.lock().insert(executor_id);
        if first_read {
            SparkStats::add(&stats.broadcast_chunks_sent, self.0.num_chunks as u64);
            let delay = CostModel::transfer_delay(self.0.size_bytes, cost.broadcast_ns_per_byte)
                + cost.broadcast_chunk_overhead * self.0.num_chunks as u32;
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
        Some(value)
    }

    /// Releases the executor-side copies while keeping the driver value —
    /// Spark's `Broadcast.unpersist()`. The next read on each executor
    /// pulls the chunks (and pays the transfer cost) again, so unlike
    /// [`BroadcastRef::destroy`] this is safe when lineage recomputation
    /// may still reach the broadcast. Returns `true` if any executor
    /// actually held a copy.
    pub fn unpersist(&self) -> bool {
        let mut delivered = self.0.delivered.lock();
        let had_copies = !delivered.is_empty();
        delivered.clear();
        had_copies
    }

    /// Releases the driver-held data and all executor copies — Spark's
    /// `Broadcast.destroy()`. Idempotent.
    pub fn destroy(&self) {
        self.0.destroyed.store(true, Ordering::Release);
        *self.0.value.lock() = None;
        self.0.delivered.lock().clear();
    }

    /// Bytes currently pinned in the driver by this broadcast.
    pub fn driver_held_bytes(&self) -> usize {
        if self.0.value.lock().is_some() {
            self.0.size_bytes
        } else {
            0
        }
    }
}

impl std::fmt::Debug for BroadcastRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Broadcast#{}({} bytes, {} chunks)",
            self.0.id.0, self.0.size_bytes, self.0.num_chunks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(bytes: usize) -> BroadcastRef {
        // bytes must be a multiple of 8 for a matrix of f64s.
        BroadcastRef::new(Matrix::zeros(1, bytes / 8), 4 << 20)
    }

    #[test]
    fn chunk_count_rounds_up() {
        let b = BroadcastRef::new(Matrix::zeros(1024, 1024), 1 << 20); // 8 MB
        assert_eq!(b.num_chunks(), 8);
        let small = mk(8);
        assert_eq!(small.num_chunks(), 1);
    }

    #[test]
    fn fetch_charges_once_per_executor() {
        let b = mk(1024);
        let cost = CostModel::zero();
        let stats = SparkStats::default();
        assert!(b.fetch(0, &cost, &stats).is_some());
        assert!(b.fetch(0, &cost, &stats).is_some());
        assert!(b.fetch(1, &cost, &stats).is_some());
        assert_eq!(stats.snapshot().broadcast_chunks_sent, 2);
        assert_eq!(b.delivered_executors(), 2);
    }

    #[test]
    fn unpersist_drops_executor_copies_but_stays_readable() {
        let b = mk(1024);
        let cost = CostModel::zero();
        let stats = SparkStats::default();
        assert!(b.fetch(0, &cost, &stats).is_some());
        assert_eq!(b.delivered_executors(), 1);
        assert!(b.unpersist(), "executor 0 held a copy");
        assert!(!b.unpersist(), "already released");
        assert_eq!(b.delivered_executors(), 0);
        assert!(!b.is_destroyed());
        // Re-reading works and pays the transfer again.
        assert!(b.fetch(0, &cost, &stats).is_some());
        assert_eq!(stats.snapshot().broadcast_chunks_sent, 2);
    }

    #[test]
    fn destroy_releases_driver_memory_and_blocks_reads() {
        let b = mk(1024);
        assert_eq!(b.driver_held_bytes(), 1024);
        b.destroy();
        assert_eq!(b.driver_held_bytes(), 0);
        assert!(b.is_destroyed());
        let stats = SparkStats::default();
        assert!(b.fetch(0, &CostModel::zero(), &stats).is_none());
        b.destroy(); // idempotent
    }
}
