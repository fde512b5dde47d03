//! memphis-cluster: a simulated N-node cache cluster over the MEMPHIS
//! lineage cache.
//!
//! MEMPHIS evicts and reuses against one shared cache budget; the
//! millions-of-users north star needs the lineage cache to span nodes
//! while preserving the paper's reuse semantics. This crate adds the
//! scale-out layer:
//!
//! - **Placement** ([`placement`]): rendezvous (HRW) hashing over
//!   `LineageId::content_hash()`, ties broken by node id — a pure
//!   function of `(seed, members, key)`.
//! - **Cost model** ([`net`]): remote probes and transfers charge
//!   deterministic virtual-time ticks (latency + bandwidth/byte).
//! - **Cluster cache** ([`cluster`]): per-node `LineageCache` shards
//!   behind a metadata plane (directory, replicas, heat, pending
//!   moves); node join/leave with budgeted rebalancing; hot-item
//!   replication with write-invalidation; and a cluster probe path
//!   layered on `probe_or_begin` so remote in-flight computes are
//!   joined, never duplicated.
//! - **Counters** ([`stats`]): `remote_hits`, `remote_misses`,
//!   `transfer_bytes`, `rebalance_moves`, `replica_hits`,
//!   `replica_invalidations`, ... — exported through `IntoMetrics`
//!   into the unified `MetricsRegistry`.

pub mod cluster;
pub mod net;
pub mod placement;
pub mod stats;

pub use cluster::{ClusterCache, ClusterConfig, ClusterGuard, ClusterProbed, Locality};
pub use net::NetworkModel;
pub use placement::{argmax_weight, hrw_weight, owner_of, rank_order, NodeId};
pub use stats::{ClusterStats, ClusterStatsSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use memphis_core::{CachedObject, LineageItem};
    use memphis_matrix::Matrix;
    use std::sync::Arc;

    fn item(i: usize) -> memphis_core::LItem {
        LineageItem::leaf(&format!("cluster-unit/item{i}"))
    }

    fn payload(i: usize) -> CachedObject {
        let data: Vec<f64> = (0..64).map(|v| (v + i) as f64).collect();
        CachedObject::Matrix(Arc::new(Matrix::from_vec(8, 8, data).unwrap()))
    }

    fn complete(cluster: &ClusterCache, origin: NodeId, i: usize) {
        match cluster.probe_or_begin_from(origin, &item(i)) {
            ClusterProbed::Compute(g) => {
                let obj = payload(i);
                let bytes = match &obj {
                    CachedObject::Matrix(m) => m.size_bytes(),
                    _ => 0,
                };
                assert!(cluster.complete_from(g, obj, 50.0, bytes));
            }
            ClusterProbed::Hit { .. } => panic!("item {i} unexpectedly cached"),
        }
    }

    #[test]
    fn single_node_cluster_serves_locally() {
        let cluster = ClusterCache::new(ClusterConfig::test(), &[0]);
        complete(&cluster, 0, 1);
        let (_, loc) = cluster.probe_from(0, &item(1)).expect("hit");
        assert_eq!(loc, Locality::Local(0));
        let s = cluster.stats();
        assert_eq!(s.local_hits, 1);
        assert_eq!(s.remote_hits, 0);
        assert_eq!(s.computes, 1);
    }

    #[test]
    fn remote_probe_pays_the_fabric() {
        let cfg = ClusterConfig::test();
        let cluster = ClusterCache::new(cfg.clone(), &[0, 1, 2, 3]);
        // Find an item whose owner is NOT node 0, then read it from 0.
        let i = (0..64)
            .find(|&i| cluster.owner_of_item(&item(i)) != 0)
            .expect("some item lands off node 0");
        let owner = cluster.owner_of_item(&item(i));
        complete(&cluster, owner, i);
        let before = cluster.stats();
        let (_, loc) = cluster.probe_from(0, &item(i)).expect("remote hit");
        assert_eq!(loc, Locality::Remote(owner));
        let after = cluster.stats();
        assert_eq!(after.remote_hits, before.remote_hits + 1);
        assert!(after.transfer_bytes > before.transfer_bytes);
        assert!(after.virtual_ticks > before.virtual_ticks);
    }

    #[test]
    fn computation_begins_on_the_hrw_owner() {
        let cluster = ClusterCache::new(ClusterConfig::test(), &[0, 1]);
        let i = (0..64)
            .find(|&i| cluster.owner_of_item(&item(i)) == 1)
            .expect("some item owned by node 1");
        match cluster.probe_or_begin_from(0, &item(i)) {
            ClusterProbed::Compute(g) => {
                assert_eq!(g.owner(), 1);
                assert_eq!(g.origin(), 0);
                // The owner's cache carries the in-flight marker.
                let owner_cache = cluster.node_cache(1).unwrap();
                assert!(owner_cache.inflight_waiters(&item(i)) == 0);
                drop(g); // abandon
            }
            ClusterProbed::Hit { .. } => panic!("nothing was cached"),
        }
    }

    #[test]
    fn leave_stages_entries_and_epochs_rehome_them() {
        let mut cfg = ClusterConfig::test();
        cfg.rebalance_moves = 2;
        cfg.replicas = 0;
        let cluster = ClusterCache::new(cfg, &[0, 1]);
        for i in 0..12 {
            let origin = cluster.owner_of_item(&item(i));
            complete(&cluster, origin, i);
        }
        cluster.leave(1);
        // Every entry survives the leave (staged or already home).
        for i in 0..12 {
            assert!(
                cluster.probe_from(0, &item(i)).is_some(),
                "item {i} lost on leave"
            );
        }
        // Bounded epochs drain the queue without exceeding the budget.
        let mut guard = 0;
        while cluster.pending_moves() > 0 {
            assert!(cluster.rebalance_epoch() <= 2);
            guard += 1;
            assert!(guard < 64, "rebalance never converged");
        }
        for i in 0..12 {
            let (_, loc) = cluster
                .probe_from(0, &item(i))
                .expect("hit after rebalance");
            assert_eq!(loc, Locality::Local(0), "item {i} should now be local");
        }
        assert_eq!(cluster.stats().computes, 12, "nothing recomputed");
    }

    #[test]
    fn hot_items_gain_replicas_and_writes_invalidate_them() {
        let mut cfg = ClusterConfig::test();
        cfg.replicas = 1;
        cfg.hot_k = 1;
        cfg.hot_min_probes = 3;
        let cluster = ClusterCache::new(cfg, &[0, 1, 2]);
        let owner = cluster.owner_of_item(&item(7));
        complete(&cluster, owner, 7);
        for _ in 0..5 {
            cluster.probe_from(owner, &item(7)).expect("hit");
        }
        cluster.rebalance_epoch();
        assert_eq!(cluster.replica_count(&item(7)), 1, "hot item replicated");
        assert!(cluster.stats().replicas_placed >= 1);
        // A read from the replica host is a free replica hit.
        let holder = cluster
            .members()
            .into_iter()
            .find(|&n| n != owner && cluster.node_cache(n).unwrap().peek(item(7).lid).is_some())
            .expect("replica copy exists");
        let (_, loc) = cluster.probe_from(holder, &item(7)).expect("hit");
        assert_eq!(loc, Locality::Replica(holder));
        assert!(cluster.stats().replica_hits >= 1);
        // A write invalidates every copy.
        cluster.invalidate(&item(7));
        assert_eq!(cluster.replica_count(&item(7)), 0);
        assert!(cluster.stats().replica_invalidations >= 1);
        assert!(cluster.probe_from(owner, &item(7)).is_none());
        assert_eq!(cluster.orphaned_replicas(), 0);
    }

    #[test]
    fn a_replica_copy_evicted_by_its_node_is_not_an_orphan() {
        // Room for two 512-byte payloads per node.
        let mut cfg = ClusterConfig::test();
        cfg.node_budget = 1024;
        cfg.hot_k = 1;
        let cluster = ClusterCache::new(cfg, &[0, 1]);
        let owner = cluster.owner_of_item(&item(7));
        let host = 1 - owner;
        complete(&cluster, owner, 7);
        for _ in 0..5 {
            cluster.probe_from(owner, &item(7)).expect("hit");
        }
        cluster.rebalance_epoch();
        assert_eq!(cluster.replica_count(&item(7)), 1, "hot item replicated");
        let host_cache = cluster.node_cache(host).unwrap();
        assert!(host_cache.peek(item(7).lid).is_some());

        // The host's own, costlier primaries evict the replica copy
        // under its budget.
        for i in (100..)
            .filter(|&i| cluster.owner_of_item(&item(i)) == host)
            .take(2)
        {
            let ClusterProbed::Compute(g) = cluster.probe_or_begin_from(host, &item(i)) else {
                panic!("item {i} unexpectedly cached");
            };
            assert!(cluster.complete_from(g, payload(i), 500.0, 512));
        }
        assert!(host_cache.peek(item(7).lid).is_none(), "copy evicted");
        let before = cluster.stats();
        assert_eq!(cluster.replica_count(&item(7)), 1, "the record is stale");
        assert_eq!(
            cluster.orphaned_replicas(),
            0,
            "a stale record is no orphan"
        );

        // The next probe from the host prunes the record and is served by
        // the primary.
        let (_, loc) = cluster.probe_from(host, &item(7)).expect("primary hit");
        assert_eq!(loc, Locality::Remote(owner));
        assert_eq!(cluster.replica_count(&item(7)), 0, "pruned");
        assert_eq!(cluster.orphaned_replicas(), 0);
        let after = cluster.stats();
        assert_eq!(after.replica_hits, before.replica_hits);
        assert_eq!(after.remote_hits, before.remote_hits + 1);
    }
}
