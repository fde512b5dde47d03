//! The simulated N-node cache cluster.
//!
//! Each node owns a full [`LineageCache`] shard (spill disabled — a
//! node's tier is its memory budget). A shared metadata plane tracks:
//!
//! - **membership** — the live node set, HRW placement domain;
//! - **directory** — where each primary entry *actually* lives (HRW
//!   says where it *should* live; the two differ while rebalancing is
//!   in flight, because moves are budgeted per epoch);
//! - **replicas** — which nodes hold hot-item copies;
//! - **heat** — observed probe frequency, feeding replica selection;
//! - **pending** — the rebalancer's move queue, including entries
//!   *staged* out of a departed node so a leave never loses a proven
//!   entry even when the move budget can't absorb it immediately.
//!
//! All remote interactions charge virtual ticks through
//! [`NetworkModel`], so a run's full counter snapshot is a pure
//! function of `(seed, config, workload)`.
//!
//! The metadata mutex is never held across a node-cache probe or an
//! in-flight wait: routing decisions are planned under the lock, cache
//! operations run outside it, and stale discoveries (an evicted
//! primary, a pruned replica) are written back afterwards. This is
//! what lets a cluster probe park on a remote node's in-flight marker
//! (joining the computation) while other origins keep routing.

use crate::net::NetworkModel;
use crate::placement::{owner_of, rank_order, NodeId};
use crate::stats::{ClusterStats, ClusterStatsSnapshot};
use memphis_core::{
    resolve, Admit, CacheConfig, CachedObject, ComputeGuard, LItem, LineageCache, LineageId,
    Probed, ResidentEntry, ReuseStatsSnapshot,
};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cluster-level configuration. Node caches are sized uniformly.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Seed for HRW weights (and anything else the cluster randomizes).
    pub seed: u64,
    /// Per-node cache budget in bytes.
    pub node_budget: usize,
    /// Probe-map shards per node cache.
    pub shards: usize,
    /// Replica copies R for each hot item (0 disables replication).
    pub replicas: usize,
    /// At most this many items are replicated (top-k by heat).
    pub hot_k: usize,
    /// An item must be probed at least this often to count as hot.
    pub hot_min_probes: u64,
    /// Primary migrations allowed per rebalance epoch.
    pub rebalance_moves: usize,
    /// The fabric cost model.
    pub net: NetworkModel,
}

impl ClusterConfig {
    /// Small deterministic test cluster.
    pub fn test() -> Self {
        Self {
            seed: 42,
            node_budget: 1 << 20,
            shards: 8,
            replicas: 1,
            hot_k: 4,
            hot_min_probes: 3,
            rebalance_moves: 8,
            net: NetworkModel::test(),
        }
    }
}

/// Where a cluster hit was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locality {
    /// The origin node's own primary copy.
    Local(NodeId),
    /// A replica copy hosted on the given node (possibly the origin).
    Replica(NodeId),
    /// The primary copy on a remote node.
    Remote(NodeId),
    /// An entry staged in the rebalancer's pending queue (its old host
    /// left; its new host hasn't admitted it yet).
    Handoff,
}

/// Result of [`ClusterCache::probe_or_begin_from`].
pub enum ClusterProbed {
    /// Served from somewhere in the cluster.
    Hit {
        /// The cached object (cloned handle).
        object: CachedObject,
        /// Which copy served it.
        locality: Locality,
    },
    /// Nothing cached and nothing in flight anywhere: the caller owns
    /// the computation and must pass the guard to
    /// [`ClusterCache::complete_from`] (or drop it to abandon).
    Compute(ClusterGuard),
}

/// Ownership of a cluster-wide computation. Wraps the owner node's
/// [`ComputeGuard`] so coalescing happens on the owner's in-flight
/// marker regardless of which origin claimed the work.
pub struct ClusterGuard {
    guard: ComputeGuard,
    cache: Arc<LineageCache>,
    owner: NodeId,
    origin: NodeId,
}

impl ClusterGuard {
    /// The lineage item being computed.
    pub fn item(&self) -> &LItem {
        self.guard.item()
    }

    /// The node that will own the completed entry.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// The node the request originated on.
    pub fn origin(&self) -> NodeId {
        self.origin
    }
}

/// Source of a queued rebalance move.
enum MoveSrc {
    /// Read the entry out of this node's cache at drain time.
    Node(NodeId),
    /// The entry was exported from a departed node and is carried in
    /// the queue itself until a destination admits it.
    Staged(ResidentEntry),
}

struct PendingMove {
    key: LineageId,
    src: MoveSrc,
}

/// Shared metadata plane.
struct Meta {
    /// Live membership, kept sorted.
    members: Vec<NodeId>,
    /// Node id -> its cache shard.
    nodes: BTreeMap<NodeId, Arc<LineageCache>>,
    /// Key -> node actually holding the primary copy.
    directory: HashMap<LineageId, NodeId>,
    /// Key -> nodes holding replica copies (sorted).
    replicas: HashMap<LineageId, Vec<NodeId>>,
    /// Key -> observed probe count.
    heat: HashMap<LineageId, u64>,
    /// Budgeted move queue.
    pending: Vec<PendingMove>,
}

/// Routing plan computed under the metadata lock, acted on outside it.
struct ProbePlan {
    origin_cache: Option<Arc<LineageCache>>,
    origin_replica: bool,
    primary: Option<(NodeId, Arc<LineageCache>)>,
    remote_replicas: Vec<(NodeId, Arc<LineageCache>)>,
    staged: Option<ResidentEntry>,
}

/// The cluster: N node caches plus the metadata plane and counters.
pub struct ClusterCache {
    cfg: ClusterConfig,
    meta: Mutex<Meta>,
    stats: ClusterStats,
    /// Virtual network ticks charged so far.
    clock: AtomicU64,
}

fn make_node_cache(cfg: &ClusterConfig) -> Arc<LineageCache> {
    let mut c = CacheConfig::test();
    c.local_budget = cfg.node_budget;
    c.shards = cfg.shards;
    // A node's tier is its memory: eviction drops, never spills — the
    // cluster layer (staging, replicas) is the durability story here.
    c.spill_to_disk = false;
    Arc::new(LineageCache::new(c))
}

/// Payload bytes a hit ships across the fabric.
fn object_bytes(o: &CachedObject) -> usize {
    match o {
        CachedObject::Matrix(m) => m.size_bytes(),
        CachedObject::Scalar(_) => std::mem::size_of::<f64>(),
        _ => 0,
    }
}

impl ClusterCache {
    /// Builds a cluster over the given node ids (must be non-empty and
    /// distinct).
    pub fn new(cfg: ClusterConfig, node_ids: &[NodeId]) -> Self {
        assert!(!node_ids.is_empty(), "a cluster needs at least one node");
        let mut members: Vec<NodeId> = node_ids.to_vec();
        members.sort_unstable();
        members.dedup();
        assert_eq!(members.len(), node_ids.len(), "node ids must be distinct");
        let nodes = members
            .iter()
            .map(|&n| (n, make_node_cache(&cfg)))
            .collect();
        Self {
            cfg,
            meta: Mutex::new(Meta {
                members,
                nodes,
                directory: HashMap::new(),
                replicas: HashMap::new(),
                heat: HashMap::new(),
                pending: Vec::new(),
            }),
            stats: ClusterStats::default(),
            clock: AtomicU64::new(0),
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Live membership, sorted.
    pub fn members(&self) -> Vec<NodeId> {
        self.meta.lock().members.clone()
    }

    /// A member's cache shard.
    pub fn node_cache(&self, node: NodeId) -> Option<Arc<LineageCache>> {
        self.meta.lock().nodes.get(&node).cloned()
    }

    /// The member currently winning HRW for `item`.
    pub fn owner_of_item(&self, item: &LItem) -> NodeId {
        let m = self.meta.lock();
        owner_of(self.cfg.seed, &m.members, item.lid.content_hash())
            .expect("cluster has at least one member")
    }

    /// Routes an arbitrary hash (e.g. a mixed tenant id) to a member —
    /// the dispatcher's request-to-node mapping.
    pub fn route_hash(&self, hash: u64) -> NodeId {
        let m = self.meta.lock();
        owner_of(self.cfg.seed, &m.members, hash).expect("cluster has at least one member")
    }

    /// Moves still queued in the rebalancer.
    pub fn pending_moves(&self) -> usize {
        self.meta.lock().pending.len()
    }

    /// Replica copies currently recorded for `item`.
    pub fn replica_count(&self, item: &LItem) -> usize {
        self.meta
            .lock()
            .replicas
            .get(&item.lid)
            .map_or(0, |r| r.len())
    }

    /// Counter snapshot with the tick/pending gauges filled in.
    pub fn stats(&self) -> ClusterStatsSnapshot {
        let mut s = self.stats.snapshot();
        s.virtual_ticks = self.clock.load(Ordering::Relaxed);
        s.pending_moves = self.meta.lock().pending.len() as u64;
        s
    }

    /// Per-node reuse counters.
    pub fn node_stats(&self) -> Vec<(NodeId, ReuseStatsSnapshot)> {
        let m = self.meta.lock();
        m.nodes.iter().map(|(&n, c)| (n, c.stats())).collect()
    }

    fn pay(&self, ticks: u64) {
        self.clock.fetch_add(ticks, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // PROBE PATH
    // ------------------------------------------------------------------

    fn plan(&self, origin: NodeId, key: LineageId) -> ProbePlan {
        let mut m = self.meta.lock();
        *m.heat.entry(key).or_insert(0) += 1;
        let reps = m.replicas.get(&key).cloned().unwrap_or_default();
        ProbePlan {
            origin_cache: m.nodes.get(&origin).cloned(),
            origin_replica: reps.contains(&origin),
            primary: m
                .directory
                .get(&key)
                .and_then(|&n| m.nodes.get(&n).cloned().map(|c| (n, c))),
            remote_replicas: reps
                .iter()
                .filter(|&&r| r != origin)
                .filter_map(|&r| m.nodes.get(&r).cloned().map(|c| (r, c)))
                .collect(),
            staged: m.pending.iter().find_map(|p| match &p.src {
                MoveSrc::Staged(e) if p.key == key => Some(e.clone()),
                _ => None,
            }),
        }
    }

    /// Drops a replica record discovered stale (the copy was evicted).
    fn prune_replica(&self, key: LineageId, node: NodeId) {
        let mut m = self.meta.lock();
        if let Some(reps) = m.replicas.get_mut(&key) {
            reps.retain(|&r| r != node);
            if reps.is_empty() {
                m.replicas.remove(&key);
            }
        }
    }

    /// Drops a directory record discovered stale.
    fn forget_primary(&self, key: LineageId, node: NodeId) {
        let mut m = self.meta.lock();
        if m.directory.get(&key) == Some(&node) {
            m.directory.remove(&key);
        }
    }

    /// One serving attempt across every copy the metadata knows about.
    /// Read preference order: origin-local replica (free) -> primary at
    /// its directory location -> remote replica -> staged handoff.
    fn try_serve(&self, origin: NodeId, item: &LItem) -> Option<(CachedObject, Locality)> {
        let key = item.lid;
        let plan = self.plan(origin, key);

        // Cheapest first: a replica on the origin node costs nothing.
        if plan.origin_replica {
            if let Some(cache) = &plan.origin_cache {
                if let Some(object) = cache.probe(item) {
                    ClusterStats::inc(&self.stats.replica_hits);
                    return Some((object, Locality::Replica(origin)));
                }
            }
            self.prune_replica(key, origin);
        }

        if let Some((node, cache)) = &plan.primary {
            if *node == origin {
                if let Some(object) = cache.probe(item) {
                    ClusterStats::inc(&self.stats.local_hits);
                    return Some((object, Locality::Local(origin)));
                }
                self.forget_primary(key, *node);
            } else {
                let _span = memphis_obs::span(memphis_obs::cat::CLUSTER, "remote_probe");
                self.pay(self.cfg.net.probe_ticks());
                if let Some(object) = cache.probe(item) {
                    let bytes = object_bytes(&object);
                    ClusterStats::inc(&self.stats.remote_hits);
                    ClusterStats::add(&self.stats.transfer_bytes, bytes as u64);
                    self.pay(self.cfg.net.transfer_ticks(bytes));
                    return Some((object, Locality::Remote(*node)));
                }
                // Directory pointed at an entry the node since evicted.
                ClusterStats::inc(&self.stats.remote_misses);
                self.forget_primary(key, *node);
            }
        }

        for (node, cache) in &plan.remote_replicas {
            let _span = memphis_obs::span(memphis_obs::cat::CLUSTER, "remote_probe");
            self.pay(self.cfg.net.probe_ticks());
            if let Some(object) = cache.probe(item) {
                let bytes = object_bytes(&object);
                ClusterStats::inc(&self.stats.replica_hits);
                ClusterStats::inc(&self.stats.remote_hits);
                ClusterStats::add(&self.stats.transfer_bytes, bytes as u64);
                self.pay(self.cfg.net.transfer_ticks(bytes));
                return Some((object, Locality::Replica(*node)));
            }
            self.prune_replica(key, *node);
        }

        if let Some(entry) = plan.staged {
            let _span = memphis_obs::span(memphis_obs::cat::CLUSTER, "staged_handoff");
            ClusterStats::inc(&self.stats.handoff_hits);
            ClusterStats::add(&self.stats.transfer_bytes, entry.size as u64);
            self.pay(self.cfg.net.transfer_ticks(entry.size));
            return Some((entry.object, Locality::Handoff));
        }
        None
    }

    /// Cluster probe without computation ownership: returns the object and
    /// where it came from, or `None` (counted as a cluster miss).
    pub fn probe_from(&self, origin: NodeId, item: &LItem) -> Option<(CachedObject, Locality)> {
        let _span = memphis_obs::span(memphis_obs::cat::CLUSTER, "cluster_probe");
        ClusterStats::inc(&self.stats.probes);
        let served = self.try_serve(origin, item);
        if served.is_none() {
            ClusterStats::inc(&self.stats.misses);
        }
        served
    }

    /// Cluster probe with computation coalescing: a cluster-wide miss
    /// claims (or joins) the computation *on the HRW owner's cache*, so
    /// two origins racing on the same key coalesce on one in-flight
    /// marker instead of computing twice — the single-cache
    /// `probe_or_begin` guarantee, lifted to the cluster.
    pub fn probe_or_begin_from(&self, origin: NodeId, item: &LItem) -> ClusterProbed {
        let _span = memphis_obs::span(memphis_obs::cat::CLUSTER, "cluster_probe");
        ClusterStats::inc(&self.stats.probes);
        if let Some((object, locality)) = self.try_serve(origin, item) {
            return ClusterProbed::Hit { object, locality };
        }
        let key = item.lid;
        let (owner, cache) = {
            let m = self.meta.lock();
            let owner = owner_of(self.cfg.seed, &m.members, key.content_hash())
                .expect("cluster has at least one member");
            let cache = m.nodes.get(&owner).cloned().expect("member has a cache");
            (owner, cache)
        };
        if owner != origin {
            // The claim itself is a control round-trip to the owner.
            self.pay(self.cfg.net.probe_ticks());
        }
        let probed = cache.probe_or_begin(item);
        if matches!(probed, Probed::Coalesced(_)) {
            // Joined an in-flight compute on the owner (possibly begun
            // from another origin) instead of duplicating it.
            ClusterStats::inc(&self.stats.remote_coalesced);
        }
        match probed {
            // `Hit` means a concurrent completion raced in between
            // try_serve and the claim: account both like a primary hit.
            Probed::Hit(object) | Probed::Coalesced(object) => {
                let bytes = object_bytes(&object);
                let locality = if owner == origin {
                    ClusterStats::inc(&self.stats.local_hits);
                    Locality::Local(owner)
                } else {
                    ClusterStats::inc(&self.stats.remote_hits);
                    ClusterStats::add(&self.stats.transfer_bytes, bytes as u64);
                    self.pay(self.cfg.net.transfer_ticks(bytes));
                    Locality::Remote(owner)
                };
                ClusterProbed::Hit { object, locality }
            }
            Probed::Compute(guard) => {
                ClusterStats::inc(&self.stats.computes);
                ClusterProbed::Compute(ClusterGuard {
                    guard,
                    cache,
                    owner,
                    origin,
                })
            }
        }
    }

    /// Completes a cluster computation: the result is admitted on the
    /// owner node (waking coalesced waiters cluster-wide), the
    /// directory is updated, and — write coherence — every replica of
    /// the key is invalidated. When the origin is not the owner the
    /// result pays one result-shipping transfer.
    pub fn complete_from(
        &self,
        cg: ClusterGuard,
        object: CachedObject,
        cost: f64,
        size_hint: usize,
    ) -> bool {
        let _span = memphis_obs::span(memphis_obs::cat::CLUSTER, "complete");
        let ClusterGuard {
            guard,
            cache,
            owner,
            origin,
        } = cg;
        let key = guard.key();
        let stale: Vec<Arc<LineageCache>> = {
            let mut m = self.meta.lock();
            // A fresh result supersedes any staged copy of the key.
            m.pending.retain(|p| p.key != key);
            let reps = m.replicas.remove(&key).unwrap_or_default();
            if m.nodes.contains_key(&owner) {
                m.directory.insert(key, owner);
                // The owner was picked under the membership at claim
                // time; a join since then may have moved the HRW winner.
                // Epochs do not scan the directory, so queue the move
                // here.
                if owner_of(self.cfg.seed, &m.members, key.content_hash()) != Some(owner) {
                    m.pending.push(PendingMove {
                        key,
                        src: MoveSrc::Node(owner),
                    });
                }
            } else {
                // The owner left while the compute was in flight: stage
                // the result so the next epoch re-homes it. Waiters
                // still get the object through the guard below.
                m.directory.remove(&key);
                m.pending.push(PendingMove {
                    key,
                    src: MoveSrc::Staged(ResidentEntry {
                        key,
                        object: object.clone(),
                        cost,
                        size: size_hint,
                        hits: 0,
                    }),
                });
            }
            reps.iter()
                .filter_map(|r| m.nodes.get(r).cloned())
                .collect()
        };
        for rc in &stale {
            rc.remove(key);
            ClusterStats::inc(&self.stats.replica_invalidations);
        }
        if origin != owner {
            ClusterStats::add(&self.stats.transfer_bytes, size_hint as u64);
            self.pay(self.cfg.net.transfer_ticks(size_hint));
        }
        cache.complete(guard, object, Admit::new(cost, size_hint))
    }

    /// Models an upstream write to `item`: the primary and every
    /// replica copy are dropped cluster-wide (each replica drop counts
    /// as a `replica_invalidation`), forcing the next probe to
    /// recompute. Returns the number of replica copies invalidated.
    pub fn invalidate(&self, item: &LItem) -> u64 {
        let key = item.lid;
        let (targets, replicas_dropped) = {
            let mut m = self.meta.lock();
            m.pending.retain(|p| p.key != key);
            m.heat.remove(&key);
            let mut t = Vec::new();
            if let Some(loc) = m.directory.remove(&key) {
                t.extend(m.nodes.get(&loc).cloned());
            }
            let reps = m.replicas.remove(&key).unwrap_or_default();
            let mut dropped = 0u64;
            for r in &reps {
                if let Some(c) = m.nodes.get(r).cloned() {
                    ClusterStats::inc(&self.stats.replica_invalidations);
                    dropped += 1;
                    t.push(c);
                }
            }
            (t, dropped)
        };
        for c in &targets {
            c.remove(key);
        }
        replicas_dropped
    }

    // ------------------------------------------------------------------
    // MEMBERSHIP & REBALANCING
    // ------------------------------------------------------------------

    /// Drops `node` from `key`'s replica record without touching the
    /// cached copy — used when a replica is promoted to primary.
    fn unrecord_replica(m: &mut Meta, key: LineageId, node: NodeId) {
        if let Some(reps) = m.replicas.get_mut(&key) {
            reps.retain(|&r| r != node);
            if reps.is_empty() {
                m.replicas.remove(&key);
            }
        }
    }

    /// Directory entries not on their HRW winner and not yet queued —
    /// the moves a full directory scan would add.
    fn misplaced_unqueued_moves(cfg: &ClusterConfig, m: &Meta) -> Vec<PendingMove> {
        let queued: HashSet<LineageId> = m.pending.iter().map(|p| p.key).collect();
        m.directory
            .iter()
            .filter(|&(key, &loc)| {
                !queued.contains(key)
                    && owner_of(cfg.seed, &m.members, key.content_hash()) != Some(loc)
            })
            .map(|(&key, &loc)| PendingMove {
                key,
                src: MoveSrc::Node(loc),
            })
            .collect()
    }

    /// Queues a move for every directory entry no longer sitting on its
    /// HRW winner. Keys already queued are not re-queued; staged
    /// entries keep their payload. Only a membership change needs this
    /// O(directory) scan: placement is a pure function of
    /// `(seed, members, key)`, and the one other way an entry lands
    /// off its winner — an admission claimed under an older membership
    /// — is queued by [`complete_from`](Self::complete_from).
    fn refresh_pending(cfg: &ClusterConfig, m: &mut Meta) {
        let moves = Self::misplaced_unqueued_moves(cfg, m);
        m.pending.extend(moves);
    }

    /// Invariant audit for tests: directory entries sitting off their
    /// HRW winner with no queued move. Every public operation keeps
    /// this at zero.
    pub fn misplaced_unqueued(&self) -> usize {
        Self::misplaced_unqueued_moves(&self.cfg, &self.meta.lock()).len()
    }

    /// Adds a node to the membership. Only keys whose HRW winner
    /// changed are queued for movement; nothing moves until the next
    /// [`rebalance_epoch`](Self::rebalance_epoch).
    pub fn join(&self, node: NodeId) {
        let _span = memphis_obs::span(memphis_obs::cat::CLUSTER, "join");
        let cache = make_node_cache(&self.cfg);
        let mut m = self.meta.lock();
        assert!(
            !m.members.contains(&node),
            "node {node} is already a member"
        );
        m.members.push(node);
        m.members.sort_unstable();
        m.nodes.insert(node, cache);
        ClusterStats::inc(&self.stats.node_joins);
        Self::refresh_pending(&self.cfg, &mut m);
    }

    /// Removes a node from the membership. Every primary the node held
    /// is exported and *staged* into the move queue — bounded epochs
    /// then re-home the entries without ever losing one. The node's
    /// replica copies just disappear (their primaries are elsewhere).
    pub fn leave(&self, node: NodeId) {
        let _span = memphis_obs::span(memphis_obs::cat::CLUSTER, "leave");
        let mut m = self.meta.lock();
        assert!(m.members.contains(&node), "node {node} is not a member");
        assert!(m.members.len() > 1, "cannot remove the last member");
        m.members.retain(|&n| n != node);
        let cache = m.nodes.remove(&node).expect("member had a cache");
        ClusterStats::inc(&self.stats.node_leaves);

        for entry in cache.export_resident() {
            if m.directory.get(&entry.key) == Some(&node) {
                m.directory.remove(&entry.key);
                m.pending.retain(|p| p.key != entry.key);
                m.pending.push(PendingMove {
                    key: entry.key,
                    src: MoveSrc::Staged(entry),
                });
            }
        }
        // Directory entries still pointing at the leaver were evicted
        // on the node (nothing to export): drop the stale records.
        m.directory.retain(|_, &mut loc| loc != node);
        // The leaver can no longer host replica copies.
        let mut emptied = Vec::new();
        for (key, reps) in m.replicas.iter_mut() {
            let before = reps.len();
            reps.retain(|&r| r != node);
            for _ in reps.len()..before {
                ClusterStats::inc(&self.stats.replicas_dropped);
            }
            if reps.is_empty() {
                emptied.push(*key);
            }
        }
        for key in emptied {
            m.replicas.remove(&key);
        }
        // Queued moves sourced at the leaver either became staged above
        // or their entry was already gone.
        m.pending
            .retain(|p| !matches!(p.src, MoveSrc::Node(n) if n == node));
        Self::refresh_pending(&self.cfg, &mut m);
    }

    /// One rebalance epoch: drains up to `rebalance_moves` queued moves
    /// in deterministic order (by content hash), each paying a transfer,
    /// then refreshes hot-item replica placement. Returns the number of
    /// primaries moved. Costs O(pending + heat): misplaced entries are
    /// queued where they arise, never found by scanning the directory.
    pub fn rebalance_epoch(&self) -> u64 {
        let _span = memphis_obs::span(memphis_obs::cat::CLUSTER, "rebalance");
        let mut m = self.meta.lock();
        debug_assert!(
            Self::misplaced_unqueued_moves(&self.cfg, &m).is_empty(),
            "a misplaced directory entry has no queued move"
        );
        let mut queue = std::mem::take(&mut m.pending);
        queue.sort_by_key(|p| p.key.content_hash());

        let mut moved = 0u64;
        let mut budget = self.cfg.rebalance_moves;
        let mut rest = Vec::new();
        for p in queue {
            if budget == 0 {
                rest.push(p);
                continue;
            }
            let Some(dst) = owner_of(self.cfg.seed, &m.members, p.key.content_hash()) else {
                rest.push(p);
                continue;
            };
            let dst_cache = m.nodes.get(&dst).cloned().expect("member has a cache");
            // The destination may already hold a copy of the key — its
            // replica set often includes the new HRW winner. The move
            // then completes by *promotion*: the resident copy becomes
            // the primary without re-shipping bytes. Without this, the
            // destination's `put` refuses the duplicate, the staged
            // entry is dropped, and the replica is torn down as cooled
            // next epoch — a proven entry lost to churn.
            let promoted = dst_cache.peek(p.key).is_some();
            match p.src {
                MoveSrc::Node(src) => {
                    if src == dst {
                        // Membership churned back (join→leave): the
                        // placement is correct again, nothing moves.
                        continue;
                    }
                    let Some(src_cache) = m.nodes.get(&src).cloned() else {
                        ClusterStats::inc(&self.stats.rebalance_drops);
                        continue;
                    };
                    if promoted {
                        src_cache.remove(p.key);
                        Self::unrecord_replica(&mut m, p.key, dst);
                        m.directory.insert(p.key, dst);
                        ClusterStats::inc(&self.stats.rebalance_moves);
                        moved += 1;
                        budget -= 1;
                        continue;
                    }
                    let Some(entry) = src_cache.peek(p.key) else {
                        // Evicted since it was queued: stale records.
                        if m.directory.get(&p.key) == Some(&src) {
                            m.directory.remove(&p.key);
                        }
                        ClusterStats::inc(&self.stats.rebalance_drops);
                        continue;
                    };
                    if dst_cache.put(
                        &resolve(p.key),
                        entry.object.clone(),
                        Admit::new(entry.cost, entry.size),
                    ) {
                        src_cache.remove(p.key);
                        m.directory.insert(p.key, dst);
                        ClusterStats::add(&self.stats.transfer_bytes, entry.size as u64);
                        self.pay(self.cfg.net.transfer_ticks(entry.size));
                        ClusterStats::inc(&self.stats.rebalance_moves);
                        moved += 1;
                        budget -= 1;
                    } else {
                        // Destination refused admission: the entry stays
                        // where it is (directory unchanged) and the move
                        // stays queued, so the next epoch retries it.
                        ClusterStats::inc(&self.stats.rebalance_drops);
                        rest.push(p);
                    }
                }
                MoveSrc::Staged(entry) => {
                    if promoted {
                        Self::unrecord_replica(&mut m, p.key, dst);
                        m.directory.insert(p.key, dst);
                        ClusterStats::inc(&self.stats.rebalance_moves);
                        moved += 1;
                        budget -= 1;
                        continue;
                    }
                    if dst_cache.put(
                        &resolve(p.key),
                        entry.object.clone(),
                        Admit::new(entry.cost, entry.size),
                    ) {
                        m.directory.insert(p.key, dst);
                        ClusterStats::add(&self.stats.transfer_bytes, entry.size as u64);
                        self.pay(self.cfg.net.transfer_ticks(entry.size));
                        ClusterStats::inc(&self.stats.rebalance_moves);
                        moved += 1;
                        budget -= 1;
                    } else {
                        ClusterStats::inc(&self.stats.rebalance_drops);
                    }
                }
            }
        }
        m.pending = rest;
        self.refresh_replicas(&mut m);
        moved
    }

    /// Re-derives hot-item replica placement from observed heat: the
    /// top-k keys (by probe count, content hash breaking ties) with a
    /// live primary get copies on their next-R HRW rank nodes. Cooled
    /// or misplaced copies are dropped; missing copies are streamed
    /// from the primary.
    fn refresh_replicas(&self, m: &mut Meta) {
        if self.cfg.replicas == 0 || m.members.len() <= 1 {
            let all: Vec<(LineageId, Vec<NodeId>)> = m.replicas.drain().collect();
            for (key, reps) in all {
                for r in reps {
                    if let Some(c) = m.nodes.get(&r) {
                        if c.remove(key) {
                            ClusterStats::inc(&self.stats.replicas_dropped);
                        }
                    }
                }
            }
            return;
        }
        let mut hot: Vec<(u64, u64, LineageId)> = m
            .heat
            .iter()
            .filter(|(k, &c)| c >= self.cfg.hot_min_probes && m.directory.contains_key(k))
            .map(|(k, &c)| (c, k.content_hash(), *k))
            .collect();
        // Heat descending, content hash ascending: a strict total order
        // (content hashes are unique), so selecting the top k and then
        // sorting only those equals sorting everything.
        let hotter = |a: &(u64, u64, LineageId), b: &(u64, u64, LineageId)| {
            b.0.cmp(&a.0).then(a.1.cmp(&b.1))
        };
        let k = self.cfg.hot_k;
        if k > 0 && hot.len() > k {
            hot.select_nth_unstable_by(k - 1, hotter);
        }
        hot.truncate(k);
        hot.sort_unstable_by(hotter);
        let hot_keys: HashSet<LineageId> = hot.iter().map(|h| h.2).collect();

        // Cooled off: drop every copy of keys that fell out of the set.
        let cooled: Vec<LineageId> = m
            .replicas
            .keys()
            .filter(|k| !hot_keys.contains(k))
            .copied()
            .collect();
        for key in cooled {
            let reps = m.replicas.remove(&key).unwrap_or_default();
            for r in reps {
                if let Some(c) = m.nodes.get(&r) {
                    if c.remove(key) {
                        ClusterStats::inc(&self.stats.replicas_dropped);
                    }
                }
            }
        }

        for (_, _, key) in hot {
            let primary = m.directory[&key];
            let desired: Vec<NodeId> = rank_order(self.cfg.seed, &m.members, key.content_hash())
                .into_iter()
                .filter(|&n| n != primary)
                .take(self.cfg.replicas)
                .collect();
            let current = m.replicas.get(&key).cloned().unwrap_or_default();
            for &r in current.iter().filter(|r| !desired.contains(r)) {
                if let Some(c) = m.nodes.get(&r) {
                    if c.remove(key) {
                        ClusterStats::inc(&self.stats.replicas_dropped);
                    }
                }
            }
            let Some(primary_cache) = m.nodes.get(&primary) else {
                continue;
            };
            let Some(entry) = primary_cache.peek(key) else {
                // The primary was evicted since the directory was
                // written: drop the stale record (copies follow the
                // cooled-off path next epoch).
                m.directory.remove(&key);
                continue;
            };
            let mut placed = Vec::new();
            for r in desired {
                if current.contains(&r) {
                    placed.push(r);
                    continue;
                }
                let Some(c) = m.nodes.get(&r) else { continue };
                if c.put(
                    &resolve(key),
                    entry.object.clone(),
                    Admit::new(entry.cost, entry.size),
                ) {
                    ClusterStats::inc(&self.stats.replicas_placed);
                    ClusterStats::add(&self.stats.transfer_bytes, entry.size as u64);
                    self.pay(self.cfg.net.transfer_ticks(entry.size));
                    placed.push(r);
                }
            }
            placed.sort_unstable();
            if placed.is_empty() {
                m.replicas.remove(&key);
            } else {
                m.replicas.insert(key, placed);
            }
        }
    }

    /// Coherence audit for tests: counts replica records hosted on
    /// non-members, copies with a dead primary, and resident entries no
    /// metadata accounts for. A healthy cluster (where every admission
    /// went through the cluster API) reports zero. A record whose node
    /// evicted the copy under its own budget is stale, not orphaned:
    /// like a directory record of an evicted primary, the next probe
    /// that finds the copy gone drops it (`prune_replica`).
    pub fn orphaned_replicas(&self) -> usize {
        let m = self.meta.lock();
        let staged: HashSet<LineageId> = m
            .pending
            .iter()
            .filter(|p| matches!(p.src, MoveSrc::Staged(_)))
            .map(|p| p.key)
            .collect();
        let mut orphans = 0;
        for (key, reps) in &m.replicas {
            if !m.directory.contains_key(key) {
                orphans += reps.len();
                continue;
            }
            orphans += reps.iter().filter(|r| !m.nodes.contains_key(r)).count();
        }
        for (n, cache) in &m.nodes {
            for e in cache.export_resident() {
                let is_primary = m.directory.get(&e.key) == Some(n);
                let is_replica = m.replicas.get(&e.key).is_some_and(|r| r.contains(n));
                if !is_primary && !is_replica && !staged.contains(&e.key) {
                    orphans += 1;
                }
            }
        }
        orphans
    }
}
