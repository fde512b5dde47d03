//! Cluster integration: node-count invariance, bounded lossless churn,
//! the rebalancer's queued-move invariant, remote in-flight
//! coalescing, and hotspot flattening — chaos-seeded
//! like `concurrency.rs` (`CHAOS_SEED` selects the trace seed; `ci.sh`
//! runs 42 and 1337).
//!
//! The contract under test: sharding, membership, and replication are
//! placement concerns, never correctness concerns. The cluster
//! scenario (`memphis_bench::golden::run_cluster_scenario`, which the
//! bench gate and `exp_cluster` also run) serves its trace through
//! `ClusterDispatcher` with bit-identical digests on 1, 2, 4, or 8
//! nodes and across join/leave churn; a leave never loses a proven
//! entry no matter how tight the per-epoch move budget; and concurrent
//! cluster-wide misses on one key coalesce on the HRW owner's in-flight
//! marker instead of computing twice.

use memphis_bench::golden::{cluster_config, max_share_x1000, run_cluster_scenario, run_hotspot};
use memphis_cluster::{ClusterCache, ClusterConfig, ClusterProbed, NodeId};
use memphis_core::CachedObject;
use memphis_integration::chaos_seed;
use memphis_matrix::hash::{fold, DIGEST_MUL, FNV_OFFSET, GOLDEN_GAMMA};
use memphis_workloads::serve::{shared_item, shared_payload};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Item `i`'s payload as the dispatcher admits it, with its size.
fn payload(i: usize) -> (CachedObject, usize) {
    let m = shared_payload(i);
    let size = m.size_bytes();
    (CachedObject::Matrix(Arc::new(m)), size)
}

/// The deterministic origin node item `i` is requested from.
fn origin_of(cluster: &ClusterCache, i: usize) -> NodeId {
    cluster.route_hash((i as u64).wrapping_mul(GOLDEN_GAMMA))
}

/// Computes item `i` through the cluster probe path from a
/// deterministic origin, completing if the cluster misses.
fn prove(cluster: &ClusterCache, i: usize) {
    let origin = origin_of(cluster, i);
    if let ClusterProbed::Compute(g) = cluster.probe_or_begin_from(origin, &shared_item(i)) {
        let (obj, size) = payload(i);
        cluster.complete_from(g, obj, 50.0, size);
    }
}

/// Drains the rebalancer, asserting every epoch respects the budget.
fn drain(cluster: &ClusterCache, budget: u64) {
    let mut guard = 0;
    while cluster.pending_moves() > 0 {
        let moved = cluster.rebalance_epoch();
        assert!(
            moved <= budget,
            "epoch moved {moved} primaries, budget is {budget}"
        );
        guard += 1;
        assert!(guard < 1024, "rebalance queue never drained");
    }
}

// ----------------------------------------------------------------------
// Node-count invariance
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The cluster scenario serves bit-identical per-batch digests on
    /// 1, 2, 4, and 8 nodes, computes exactly what its trace oracle
    /// says, settles every move, orphans no replica, and every node
    /// count's full counter snapshot is reproducible run-over-run.
    #[test]
    fn digest_is_node_count_invariant(seed in 0u64..(1u64 << 48)) {
        let base = run_cluster_scenario(cluster_config(seed, 1), false);
        prop_assert!(base.invariants_hold(), "{:?}", base);
        for nodes in [2usize, 4, 8] {
            let r = run_cluster_scenario(cluster_config(seed, nodes), false);
            prop_assert_eq!(&r.digests, &base.digests);
            prop_assert!(r.invariants_hold(), "{} nodes: {:?}", nodes, r);
            let again = run_cluster_scenario(cluster_config(seed, nodes), false);
            prop_assert_eq!(again.stats, r.stats);
            prop_assert_eq!(&again.digests, &r.digests);
        }
    }
}

/// The chaos-seeded deterministic slice: digests also survive mid-run
/// membership churn, and the churned run (the gate's: churn +
/// invalidations + replication) exercises every counter class.
#[test]
fn churned_digest_matches_stable_digest() {
    let seed = chaos_seed();
    let stable = run_cluster_scenario(cluster_config(seed, 4), false);
    let churned = run_cluster_scenario(cluster_config(seed, 4), true);
    assert_eq!(
        churned.digests, stable.digests,
        "churn changed served results"
    );
    assert!(
        churned.invariants_hold(),
        "churn alone forced a recompute or left the cluster unsettled: {churned:?}"
    );
    assert!(
        churned.silent_classes().is_empty(),
        "counter classes never exercised: {:?}",
        churned.silent_classes()
    );
}

// ----------------------------------------------------------------------
// Bounded, lossless churn
// ----------------------------------------------------------------------

/// join -> leave -> join over a deliberately tight move budget: no
/// epoch ever exceeds the budget, no proven entry is ever lost (every
/// item still hits after the dust settles — the compute counter stays
/// at the initial population), and the replica/directory metadata ends
/// every step coherent (zero orphans).
#[test]
fn churn_is_budgeted_and_lossless() {
    let items = 32usize;
    let mut cfg = ClusterConfig::test();
    cfg.seed = chaos_seed();
    cfg.rebalance_moves = 3; // tight: forces multi-epoch rehoming
    let budget = cfg.rebalance_moves as u64;
    let cluster = ClusterCache::new(cfg, &[0, 1, 2, 3]);

    for i in 0..items {
        prove(&cluster, i);
    }
    assert_eq!(cluster.stats().computes, items as u64);
    // Heat a few keys so replica placement participates in the churn.
    for _ in 0..4 {
        for i in 0..6 {
            prove(&cluster, i);
        }
    }
    cluster.rebalance_epoch();

    enum Step {
        Join(NodeId),
        Leave(NodeId),
    }
    for step in [Step::Join(4), Step::Leave(0), Step::Join(0)] {
        match step {
            Step::Join(n) => cluster.join(n),
            Step::Leave(n) => cluster.leave(n),
        }
        // Entries staged out of a leaver are servable immediately,
        // before any epoch runs (handoff path).
        for i in 0..items {
            prove(&cluster, i);
        }
        drain(&cluster, budget);
        assert_eq!(
            cluster.orphaned_replicas(),
            0,
            "metadata incoherent after a membership change"
        );
    }

    for i in 0..items {
        prove(&cluster, i);
    }
    let s = cluster.stats();
    assert_eq!(
        s.computes, items as u64,
        "a proven entry was lost to churn and recomputed"
    );
    assert_eq!(s.misses, 0);
    assert_eq!(s.pending_moves, 0);
    assert_eq!(s.node_joins, 2);
    assert_eq!(s.node_leaves, 1);
    assert!(s.rebalance_moves > 0, "churn rehomed nothing");
}

// ----------------------------------------------------------------------
// Rebalancer invariant: every misplaced key has a queued move
// ----------------------------------------------------------------------

/// One step of a random cluster history. Node operands index a pool of
/// `POOL` node ids and are mapped onto a legal target when the step
/// runs (a join picks a non-member, a leave a member).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Prove one of the first `ITEMS` items.
    Prove(usize),
    /// Claim a fresh item's compute, join a node, then complete — the
    /// claimed owner may have lost HRW to the joiner.
    BeginJoinComplete(u16),
    /// Claim a fresh item's compute, have a member leave (the claimed
    /// owner itself when the flag is set), then complete.
    BeginLeaveComplete(bool, u16),
    Join(u16),
    Leave(u16),
    Epoch,
}

const POOL: u16 = 6;
const ITEMS: usize = 24;

impl Op {
    /// Maps a drawn `(kind, operand, flag)` triple onto a step; proves
    /// and epochs are drawn more often than membership changes.
    fn decode((kind, arg, flag): (u8, usize, bool)) -> Self {
        let node = (arg % POOL as usize) as u16;
        match kind {
            0..=3 => Op::Prove(arg),
            4 => Op::BeginJoinComplete(node),
            5 => Op::BeginLeaveComplete(flag, node),
            6 => Op::Join(node),
            7 => Op::Leave(node),
            _ => Op::Epoch,
        }
    }
}

/// The `n`-th (mod) node of the pool that is not a member, if any.
fn non_member(cluster: &ClusterCache, n: u16) -> Option<NodeId> {
    let members = cluster.members();
    let free: Vec<NodeId> = (0..POOL).filter(|x| !members.contains(x)).collect();
    (!free.is_empty()).then(|| free[n as usize % free.len()])
}

/// The `n`-th (mod) member, if more than one member remains.
fn leaver(cluster: &ClusterCache, n: u16) -> Option<NodeId> {
    let members = cluster.members();
    (members.len() > 1).then(|| members[n as usize % members.len()])
}

/// Claims item `i`'s compute, runs `between`, then completes it.
fn begin_then_complete(cluster: &ClusterCache, i: usize, between: impl FnOnce(NodeId)) {
    let origin = origin_of(cluster, i);
    match cluster.probe_or_begin_from(origin, &shared_item(i)) {
        ClusterProbed::Compute(g) => {
            between(g.owner());
            let (obj, size) = payload(i);
            cluster.complete_from(g, obj, 50.0, size);
        }
        ClusterProbed::Hit { .. } => panic!("fresh item {i} was already cached"),
    }
}

/// Order-sensitive fold of the fingerprints served for `items`, each
/// read without computing — a lost entry panics.
fn served_digest(cluster: &ClusterCache, items: &BTreeSet<usize>) -> u64 {
    let mut h = FNV_OFFSET;
    for &i in items {
        let (object, _) = cluster
            .probe_from(origin_of(cluster, i), &shared_item(i))
            .unwrap_or_else(|| panic!("proven item {i} was lost"));
        let fp = match &object {
            CachedObject::Matrix(m) => m.fingerprint(),
            _ => panic!("expected the matrix payload"),
        };
        h = fold(h, fp, DIGEST_MUL);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Epochs never scan the directory for misplaced keys, so every
    /// operation that can misplace one must queue its move: after each
    /// step of a random history, no directory entry sits off its HRW
    /// winner without a queued move. After a drain the cluster serves
    /// every proven item with the digest a single node serves.
    #[test]
    fn every_misplaced_key_has_a_queued_move(
        seed in 0u64..(1u64 << 48),
        ops in proptest::collection::vec((0u8..10, 0..ITEMS, any::<bool>()), 1..48),
    ) {
        let mut cfg = ClusterConfig::test();
        cfg.seed = seed;
        cfg.rebalance_moves = 2;
        let budget = cfg.rebalance_moves as u64;
        let cluster = ClusterCache::new(cfg.clone(), &[0, 1, 2, 3]);
        let mut proven = BTreeSet::new();
        let mut fresh = 1000usize;

        for op in ops.into_iter().map(Op::decode) {
            match op {
                Op::Prove(i) => {
                    prove(&cluster, i);
                    proven.insert(i);
                }
                Op::BeginJoinComplete(n) => {
                    fresh += 1;
                    begin_then_complete(&cluster, fresh, |_| {
                        if let Some(node) = non_member(&cluster, n) {
                            cluster.join(node);
                        }
                    });
                    proven.insert(fresh);
                }
                Op::BeginLeaveComplete(owner, n) => {
                    fresh += 1;
                    begin_then_complete(&cluster, fresh, |o| {
                        let members = cluster.members();
                        let node = if owner && members.len() > 1 {
                            Some(o)
                        } else {
                            leaver(&cluster, n)
                        };
                        if let Some(node) = node {
                            cluster.leave(node);
                        }
                    });
                    proven.insert(fresh);
                }
                Op::Join(n) => {
                    if let Some(node) = non_member(&cluster, n) {
                        cluster.join(node);
                    }
                }
                Op::Leave(n) => {
                    if let Some(node) = leaver(&cluster, n) {
                        cluster.leave(node);
                    }
                }
                Op::Epoch => {
                    cluster.rebalance_epoch();
                }
            }
            prop_assert!(
                cluster.misplaced_unqueued() == 0,
                "a misplaced key has no queued move after {op:?}"
            );
        }

        drain(&cluster, budget);
        prop_assert_eq!(cluster.pending_moves(), 0);
        prop_assert_eq!(cluster.misplaced_unqueued(), 0);
        prop_assert_eq!(cluster.orphaned_replicas(), 0);

        let single = ClusterCache::new(cfg, &[0]);
        for &i in &proven {
            prove(&single, i);
        }
        let computes = cluster.stats().computes;
        prop_assert_eq!(served_digest(&cluster, &proven), served_digest(&single, &proven));
        prop_assert_eq!(cluster.stats().computes, computes);
    }
}

// ----------------------------------------------------------------------
// Remote in-flight coalescing
// ----------------------------------------------------------------------

/// Concurrent cluster-wide misses on one key from every origin coalesce
/// on the HRW owner's in-flight marker: exactly one computation runs,
/// every other probe joins it and observes the same object.
#[test]
fn remote_misses_coalesce_on_the_owner() {
    let cluster = Arc::new(ClusterCache::new(ClusterConfig::test(), &[0, 1, 2, 3]));
    let item = shared_item(7001);
    let owner = cluster.owner_of_item(&item);
    let owner_cache = cluster.node_cache(owner).expect("owner is a member");

    let g = match cluster.probe_or_begin_from(owner, &item) {
        ClusterProbed::Compute(g) => g,
        _ => panic!("first probe of a cold key must claim the compute"),
    };

    let waiters = 4u64;
    let handles: Vec<_> = (0..waiters)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            let item = item.clone();
            std::thread::spawn(
                move || match cluster.probe_or_begin_from(t as NodeId, &item) {
                    ClusterProbed::Hit { object, .. } => match &object {
                        CachedObject::Matrix(m) => m.fingerprint(),
                        _ => panic!("expected the matrix payload"),
                    },
                    ClusterProbed::Compute(_) => panic!("duplicate concurrent compute"),
                },
            )
        })
        .collect();

    // Every origin must be parked on the owner's marker before the
    // result lands — that is what makes the join a join.
    while owner_cache.inflight_waiters(&item) < waiters {
        std::thread::yield_now();
    }
    let want = shared_payload(7001).fingerprint();
    let (obj, size) = payload(7001);
    cluster.complete_from(g, obj, 50.0, size);

    for h in handles {
        assert_eq!(h.join().expect("waiter panicked"), want);
    }
    let s = cluster.stats();
    assert_eq!(s.computes, 1, "the computation must run exactly once");
    assert_eq!(s.remote_coalesced, waiters, "every waiter must coalesce");
    assert_eq!(s.misses, 0);
}

// ----------------------------------------------------------------------
// Hotspot flattening
// ----------------------------------------------------------------------

/// With every request for one item and no replication, the item's
/// primary node serves every hit (max share 1000 by construction);
/// replication must spread the load strictly below that — without
/// changing a single served result.
#[test]
fn replication_flattens_a_skewed_hotspot() {
    let seed = chaos_seed();
    let (norep, norep_hits) = run_hotspot(seed, 0);
    let (rep, rep_hits) = run_hotspot(seed, 2);

    assert_eq!(norep.digest, rep.digest, "replication changed results");
    assert_eq!(
        max_share_x1000(&norep_hits),
        1000,
        "unreplicated hits all land on one primary: {norep_hits:?}"
    );
    assert!(
        max_share_x1000(&rep_hits) < 1000,
        "replication failed to flatten the hotspot: {rep_hits:?}"
    );
    assert!(rep.cluster.replica_hits > 0);
}
