//! Cluster-level counters: locality of hits, transfer volume, and the
//! rebalance/replication control-plane activity. Mirrors the
//! `ReuseStats` / `ReuseStatsSnapshot` pattern in memphis-core so the
//! snapshot plugs straight into `MetricsRegistry` via `IntoMetrics`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic cluster counters. Counter semantics:
///
/// - `local_hits` — served by the origin node's own primary copy.
/// - `replica_hits` — served by a replica copy (local or remote).
/// - `remote_hits` — served across the fabric (remote primary, remote
///   replica, or remote coalesced join); a remote replica read counts
///   in *both* `replica_hits` and `remote_hits`.
/// - `remote_misses` — a remote primary probe that found the directory
///   pointing at an entry the node had since evicted.
/// - `handoff_hits` — served from an entry staged in the rebalancer's
///   pending queue (its old node left; its new node hasn't admitted it
///   yet).
#[derive(Debug, Default)]
pub struct ClusterStats {
    /// Cluster probes issued (one per `probe_from`/`probe_or_begin_from`).
    pub probes: AtomicU64,
    /// See type-level docs.
    pub local_hits: AtomicU64,
    /// See type-level docs.
    pub remote_hits: AtomicU64,
    /// See type-level docs.
    pub remote_misses: AtomicU64,
    /// See type-level docs.
    pub replica_hits: AtomicU64,
    /// See type-level docs.
    pub handoff_hits: AtomicU64,
    /// Probes that joined an in-flight computation on the owner node
    /// instead of duplicating it (possibly from a different origin).
    pub remote_coalesced: AtomicU64,
    /// Probes that found nothing anywhere and claimed ownership of the
    /// computation.
    pub computes: AtomicU64,
    /// Probes that found nothing and did not begin a computation
    /// (plain `probe_from` misses).
    pub misses: AtomicU64,
    /// Payload bytes that crossed the fabric (hits, migrations,
    /// replica placements, and result shipping).
    pub transfer_bytes: AtomicU64,
    /// Primary entries migrated by rebalance epochs.
    pub rebalance_moves: AtomicU64,
    /// Move attempts that moved nothing: the source had evicted the
    /// entry, a staged entry found no room, or the destination refused
    /// a resident entry (that move stays queued for the next epoch).
    pub rebalance_drops: AtomicU64,
    /// Replica copies placed on rank-order nodes.
    pub replicas_placed: AtomicU64,
    /// Replica copies invalidated by writes (recompute/complete or an
    /// explicit `invalidate`).
    pub replica_invalidations: AtomicU64,
    /// Replica copies dropped by the control plane (cooled off, host
    /// left, or placement changed) — not write coherence.
    pub replicas_dropped: AtomicU64,
    /// Nodes that joined the membership.
    pub node_joins: AtomicU64,
    /// Nodes that left the membership.
    pub node_leaves: AtomicU64,
}

/// Point-in-time copy of [`ClusterStats`], plus two gauges filled by
/// the cluster (`virtual_ticks`, `pending_moves`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct ClusterStatsSnapshot {
    /// See [`ClusterStats::probes`].
    pub probes: u64,
    /// See [`ClusterStats::local_hits`].
    pub local_hits: u64,
    /// See [`ClusterStats::remote_hits`].
    pub remote_hits: u64,
    /// See [`ClusterStats::remote_misses`].
    pub remote_misses: u64,
    /// See [`ClusterStats::replica_hits`].
    pub replica_hits: u64,
    /// See [`ClusterStats::handoff_hits`].
    pub handoff_hits: u64,
    /// See [`ClusterStats::remote_coalesced`].
    pub remote_coalesced: u64,
    /// See [`ClusterStats::computes`].
    pub computes: u64,
    /// See [`ClusterStats::misses`].
    pub misses: u64,
    /// See [`ClusterStats::transfer_bytes`].
    pub transfer_bytes: u64,
    /// See [`ClusterStats::rebalance_moves`].
    pub rebalance_moves: u64,
    /// See [`ClusterStats::rebalance_drops`].
    pub rebalance_drops: u64,
    /// See [`ClusterStats::replicas_placed`].
    pub replicas_placed: u64,
    /// See [`ClusterStats::replica_invalidations`].
    pub replica_invalidations: u64,
    /// See [`ClusterStats::replicas_dropped`].
    pub replicas_dropped: u64,
    /// See [`ClusterStats::node_joins`].
    pub node_joins: u64,
    /// See [`ClusterStats::node_leaves`].
    pub node_leaves: u64,
    /// Virtual network ticks charged so far (gauge).
    pub virtual_ticks: u64,
    /// Moves still queued in the rebalancer (gauge).
    pub pending_moves: u64,
}

impl ClusterStats {
    /// Increments a counter.
    #[inline]
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Copies all counters (gauges zeroed; the cluster fills them).
    pub fn snapshot(&self) -> ClusterStatsSnapshot {
        ClusterStatsSnapshot {
            probes: self.probes.load(Ordering::Relaxed),
            local_hits: self.local_hits.load(Ordering::Relaxed),
            remote_hits: self.remote_hits.load(Ordering::Relaxed),
            remote_misses: self.remote_misses.load(Ordering::Relaxed),
            replica_hits: self.replica_hits.load(Ordering::Relaxed),
            handoff_hits: self.handoff_hits.load(Ordering::Relaxed),
            remote_coalesced: self.remote_coalesced.load(Ordering::Relaxed),
            computes: self.computes.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            transfer_bytes: self.transfer_bytes.load(Ordering::Relaxed),
            rebalance_moves: self.rebalance_moves.load(Ordering::Relaxed),
            rebalance_drops: self.rebalance_drops.load(Ordering::Relaxed),
            replicas_placed: self.replicas_placed.load(Ordering::Relaxed),
            replica_invalidations: self.replica_invalidations.load(Ordering::Relaxed),
            replicas_dropped: self.replicas_dropped.load(Ordering::Relaxed),
            node_joins: self.node_joins.load(Ordering::Relaxed),
            node_leaves: self.node_leaves.load(Ordering::Relaxed),
            virtual_ticks: 0,
            pending_moves: 0,
        }
    }
}

impl memphis_obs::IntoMetrics for ClusterStatsSnapshot {
    fn metrics_section(&self) -> &'static str {
        "cluster"
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("probes", self.probes),
            ("local_hits", self.local_hits),
            ("remote_hits", self.remote_hits),
            ("remote_misses", self.remote_misses),
            ("replica_hits", self.replica_hits),
            ("handoff_hits", self.handoff_hits),
            ("remote_coalesced", self.remote_coalesced),
            ("computes", self.computes),
            ("misses", self.misses),
            ("transfer_bytes", self.transfer_bytes),
            ("rebalance_moves", self.rebalance_moves),
            ("rebalance_drops", self.rebalance_drops),
            ("replicas_placed", self.replicas_placed),
            ("replica_invalidations", self.replica_invalidations),
            ("replicas_dropped", self.replicas_dropped),
            ("node_joins", self.node_joins),
            ("node_leaves", self.node_leaves),
            ("virtual_ticks", self.virtual_ticks),
            ("pending_moves", self.pending_moves),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = ClusterStats::default();
        ClusterStats::inc(&s.remote_hits);
        ClusterStats::add(&s.transfer_bytes, 2048);
        let snap = s.snapshot();
        assert_eq!(snap.remote_hits, 1);
        assert_eq!(snap.transfer_bytes, 2048);
        assert_eq!(snap.replica_hits, 0);
    }
}
