//! Cluster-aware request dispatch: routes tenant requests to the nodes
//! of a [`ClusterCache`] and serves shared-item work through the
//! cluster probe path (remote reuse, replication, staged handoff)
//! instead of one shared cache.
//!
//! The dispatcher is a single-threaded virtual-time loop — requests
//! are processed in `(arrival, id)` order, rebalance epochs fire on
//! arrival-clock boundaries, and every routing decision is a SplitMix64
//! hash — so a run's digest and full cluster counter snapshot are a
//! pure function of `(seed, config, trace)`. Pipeline requests run
//! their session over the origin node's cache (session-local reuse);
//! shared items go through [`ClusterCache::probe_or_begin_from`] so
//! cross-tenant reuse works across node boundaries.
//!
//! The arrival clock spans runs: a long-lived dispatcher fed
//! consecutive batches fires each epoch boundary once, and a trace that
//! starts before the last arrival seen (a replay from tick 0) restarts
//! the clock.

use crate::request::{Request, TenantId, Work};
use crate::scheduler::{shared_item, shared_payload};
use memphis_cluster::{ClusterCache, ClusterConfig, ClusterProbed, ClusterStatsSnapshot, NodeId};
use memphis_core::CachedObject;
use memphis_matrix::hash::{self, hash4};
use memphis_workloads::pipelines;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Tenant-routing salt (distinct from the generator salts).
const SALT_ROUTE: u64 = 0xc105;

/// Cost charged for a shared serve item (mirrors the scheduler).
const ITEM_COST: f64 = 50.0;

/// Configuration of the cluster serving layer.
#[derive(Debug, Clone)]
pub struct ClusterServeConfig {
    /// Initial node count (ids `0..nodes`).
    pub nodes: usize,
    /// Seed for placement and routing.
    pub seed: u64,
    /// Replica copies per hot item.
    pub replicas: usize,
    /// Top-k replicated items.
    pub hot_k: usize,
    /// Heat threshold for replication.
    pub hot_min_probes: u64,
    /// Rebalance budget per epoch.
    pub rebalance_moves: usize,
    /// Per-node cache budget in bytes.
    pub node_budget: usize,
    /// Fire a rebalance epoch every this many arrival ticks (0 = never).
    pub epoch_ticks: u64,
}

impl ClusterServeConfig {
    /// Small deterministic test configuration.
    pub fn test() -> Self {
        Self {
            nodes: 4,
            seed: 42,
            replicas: 1,
            hot_k: 4,
            hot_min_probes: 3,
            rebalance_moves: 8,
            node_budget: 1 << 20,
            epoch_ticks: 32,
        }
    }
}

/// Outcome of one dispatched trace.
#[derive(Debug, Clone)]
pub struct ClusterServeReport {
    /// Requests completed (the dispatcher has no admission control —
    /// everything completes).
    pub completed: u64,
    /// Shared-item requests served.
    pub shared: u64,
    /// Pipeline requests served.
    pub pipelines: u64,
    /// Order-sensitive fold of served fingerprints and pipeline
    /// checksums.
    pub digest: u64,
    /// Pipeline checksums in completion order.
    pub checks: Vec<(String, f64)>,
    /// Requests routed per node, sorted by node id.
    pub node_requests: Vec<(NodeId, u64)>,
    /// Rebalance epochs fired: arrival-clock boundaries plus the final
    /// drain.
    pub epochs: u64,
    /// Of `epochs`, those fired by the final drain rather than by an
    /// arrival crossing an epoch boundary.
    pub drain_epochs: u64,
    /// Final cluster counter snapshot.
    pub cluster: ClusterStatsSnapshot,
}

/// The arrival clock rebalance epochs fire on, kept across runs.
struct EpochClock {
    /// Latest arrival dispatched so far.
    last_arrival: u64,
    /// Arrival tick at which the next epoch fires.
    next_epoch: u64,
}

impl EpochClock {
    fn start(epoch_ticks: u64) -> Self {
        Self {
            last_arrival: 0,
            next_epoch: if epoch_ticks > 0 {
                epoch_ticks
            } else {
                u64::MAX
            },
        }
    }
}

/// Routes tenant requests onto cluster nodes and serves them.
pub struct ClusterDispatcher {
    cfg: ClusterServeConfig,
    cluster: Arc<ClusterCache>,
    clock: Mutex<EpochClock>,
}

impl ClusterDispatcher {
    /// Builds the dispatcher and its cluster.
    pub fn new(cfg: ClusterServeConfig) -> Self {
        let ccfg = ClusterConfig {
            seed: cfg.seed,
            node_budget: cfg.node_budget,
            shards: 8,
            replicas: cfg.replicas,
            hot_k: cfg.hot_k,
            hot_min_probes: cfg.hot_min_probes,
            rebalance_moves: cfg.rebalance_moves,
            net: memphis_cluster::NetworkModel::test(),
        };
        let ids: Vec<NodeId> = (0..cfg.nodes as NodeId).collect();
        Self {
            cluster: Arc::new(ClusterCache::new(ccfg, &ids)),
            clock: Mutex::new(EpochClock::start(cfg.epoch_ticks)),
            cfg,
        }
    }

    /// The underlying cluster (for joins/leaves between traces and for
    /// metrics export).
    pub fn cluster(&self) -> &Arc<ClusterCache> {
        &self.cluster
    }

    /// The node a tenant's requests land on: HRW over the mixed tenant
    /// id, so tenants re-route minimally when membership changes.
    pub fn route(&self, tenant: TenantId) -> NodeId {
        self.cluster
            .route_hash(hash4(self.cfg.seed, SALT_ROUTE, [tenant as u64, 0, 0, 0]))
    }

    /// Dispatches a trace in `(arrival, id)` order. Epochs fire on the
    /// arrival clock carried over from the previous run, which restarts
    /// when this trace begins before the last arrival already seen (a
    /// replay from an earlier tick).
    pub fn run(&self, requests: &[Request]) -> ClusterServeReport {
        let _span = memphis_obs::span_with(memphis_obs::cat::CLUSTER, "cluster_dispatch", || {
            format!("nodes={} requests={}", self.cfg.nodes, requests.len())
        });
        let mut order: Vec<&Request> = requests.iter().collect();
        order.sort_by_key(|r| (r.arrival, r.id));

        let mut digest = hash::FNV_OFFSET;
        let mut fold = |v: u64| digest = hash::fold(digest, v, hash::DIGEST_MUL);
        let mut checks = Vec::new();
        let mut node_requests: BTreeMap<NodeId, u64> = BTreeMap::new();
        let mut shared = 0u64;
        let mut pipes = 0u64;
        let mut epochs = 0u64;
        let mut clock = self.clock.lock();
        if order
            .first()
            .is_some_and(|r| r.arrival < clock.last_arrival)
        {
            *clock = EpochClock::start(self.cfg.epoch_ticks);
        }

        for req in order {
            while req.arrival >= clock.next_epoch {
                self.cluster.rebalance_epoch();
                epochs += 1;
                clock.next_epoch = clock.next_epoch.saturating_add(self.cfg.epoch_ticks);
            }
            clock.last_arrival = req.arrival;
            let origin = self.route(req.tenant);
            *node_requests.entry(origin).or_insert(0) += 1;
            match req.work {
                Work::SharedItem(idx) => {
                    shared += 1;
                    let item = shared_item(idx);
                    match self.cluster.probe_or_begin_from(origin, &item) {
                        ClusterProbed::Hit { object, .. } => fold(object.fingerprint()),
                        ClusterProbed::Compute(g) => {
                            let m = Arc::new(shared_payload(idx));
                            fold(m.fingerprint());
                            let size = m.size_bytes();
                            self.cluster
                                .complete_from(g, CachedObject::Matrix(m), ITEM_COST, size);
                        }
                    }
                }
                Work::Pipeline(kind) => {
                    pipes += 1;
                    let cache = self
                        .cluster
                        .node_cache(origin)
                        .expect("routed to a live member");
                    let mut ctx = pipelines::session_context(&cache);
                    let v =
                        pipelines::run_session_kind(&mut ctx, kind).expect("session pipeline runs");
                    fold(v.to_bits());
                    checks.push((kind.to_string(), v));
                }
            }
        }

        drop(clock);

        // Drain any queued moves so the report is settled. Drain epochs
        // do not advance the arrival clock.
        let mut drain_epochs = 0u64;
        while self.cluster.pending_moves() > 0 {
            self.cluster.rebalance_epoch();
            drain_epochs += 1;
            assert!(drain_epochs < 1024, "rebalance queue never drained");
        }

        ClusterServeReport {
            completed: requests.len() as u64,
            shared,
            pipelines: pipes,
            digest,
            checks,
            node_requests: node_requests.into_iter().collect(),
            epochs: epochs + drain_epochs,
            drain_epochs,
            cluster: self.cluster.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{open_loop, StreamSpec};

    fn spec() -> StreamSpec {
        let mut s = StreamSpec::test();
        s.requests = 96;
        s.pipeline_every = 24;
        s
    }

    #[test]
    fn dispatch_is_deterministic() {
        let trace = open_loop(42, &spec());
        let a = ClusterDispatcher::new(ClusterServeConfig::test()).run(&trace);
        let b = ClusterDispatcher::new(ClusterServeConfig::test()).run(&trace);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.cluster, b.cluster);
        assert_eq!(a.node_requests, b.node_requests);
        assert_eq!(a.completed, trace.len() as u64);
    }

    #[test]
    fn digest_is_node_count_invariant() {
        let trace = open_loop(1337, &spec());
        let mut one = ClusterServeConfig::test();
        one.nodes = 1;
        let a = ClusterDispatcher::new(one).run(&trace);
        let b = ClusterDispatcher::new(ClusterServeConfig::test()).run(&trace);
        assert_eq!(a.digest, b.digest, "results must not depend on node count");
        assert!(b.cluster.remote_hits > 0, "4 nodes must serve remotely");
        assert_eq!(a.cluster.remote_hits, 0, "1 node has no remote peers");
    }

    /// Epochs fired because an arrival crossed a boundary.
    fn arrival_epochs(r: &ClusterServeReport) -> u64 {
        r.epochs - r.drain_epochs
    }

    #[test]
    fn batches_share_one_epoch_clock_and_a_replay_restarts_it() {
        let mut trace = open_loop(42, &spec());
        trace.sort_by_key(|r| (r.arrival, r.id));
        let whole = ClusterDispatcher::new(ClusterServeConfig::test()).run(&trace);
        let want = arrival_epochs(&whole);
        assert!(want >= 4, "the trace spans several epochs ({want})");

        // The same requests as consecutive batches on one dispatcher:
        // each boundary fires once, in the batch whose arrival crosses
        // it, never again as catch-up at the start of a later batch.
        let d = ClusterDispatcher::new(ClusterServeConfig::test());
        let batched: u64 = trace
            .chunks(trace.len() / 4)
            .map(|b| arrival_epochs(&d.run(b)))
            .sum();
        assert_eq!(batched, want);

        // Replaying from arrival 0 restarts the clock.
        let replay = d.run(&trace);
        assert_eq!(arrival_epochs(&replay), want);
        assert_eq!(replay.digest, whole.digest);
    }

    #[test]
    fn tenants_route_stably_and_spread() {
        let d = ClusterDispatcher::new(ClusterServeConfig::test());
        let nodes: Vec<NodeId> = (0..16).map(|t| d.route(t)).collect();
        assert_eq!(nodes, (0..16).map(|t| d.route(t)).collect::<Vec<_>>());
        let distinct: std::collections::HashSet<_> = nodes.iter().collect();
        assert!(distinct.len() > 1, "16 tenants should span several nodes");
    }

    #[test]
    fn membership_change_between_traces_keeps_results() {
        let trace = open_loop(7, &spec());
        let d = ClusterDispatcher::new(ClusterServeConfig::test());
        let a = d.run(&trace);
        d.cluster().join(4);
        d.cluster().leave(0);
        let b = d.run(&trace);
        assert_eq!(a.digest, b.digest, "churn must not change results");
        assert_eq!(
            b.cluster.computes, a.cluster.computes,
            "warm reuse survives join/leave: no recomputes on the second pass"
        );
    }
}
