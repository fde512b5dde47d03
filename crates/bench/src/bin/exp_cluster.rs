//! Cluster experiment: multi-node cache sharding with cross-node reuse,
//! bounded rebalancing, and hot-item replication, every trace served
//! through memphis-serve's `ClusterDispatcher`.
//!
//! Asserts the cluster determinism contract for each seed on the
//! cluster scenario shared with the bench gate and the cluster suite
//! (`memphis_bench::golden::run_cluster_scenario`): per-batch served
//! digests are bit-identical across node counts {1, 2, 4, 8} and across
//! a mid-run join/leave (membership is a placement concern, never a
//! correctness concern); repeated runs produce identical counter
//! snapshots; computes equal the trace's oracle, so churn alone never
//! forces a recompute; and the churned run drives every gated counter
//! class. The hot-spot scenario shows replication flattening a one-item
//! hot spot: with R=2 the busiest node's share of hits drops strictly
//! below the unreplicated run. Finally the dispatcher demonstrates warm
//! cross-trace reuse surviving a join/leave between traces. Supports
//! the shared `--trace` / `--json` observability flags.

use memphis_bench::golden::{
    cluster_config, max_share_x1000, run_cluster_scenario, run_hotspot, ClusterOutcome,
};
use memphis_bench::{header, obs_absorb, obs_finish, obs_init, obs_record};
use memphis_serve::{open_loop, ClusterDispatcher, ClusterServeConfig, StreamSpec};

fn print_outcome(label: &str, o: &ClusterOutcome) {
    let s = &o.stats;
    println!(
        "{label:<24} local={} remote={} replica={} handoff={} computes={} (oracle {})",
        s.local_hits, s.remote_hits, s.replica_hits, s.handoff_hits, s.computes, o.oracle_computes
    );
    println!(
        "{:<24} moves={} drops={} replicas(placed/inval/dropped)={}/{}/{} \
         transfer={}B ticks={}",
        "",
        s.rebalance_moves,
        s.rebalance_drops,
        s.replicas_placed,
        s.replica_invalidations,
        s.replicas_dropped,
        s.transfer_bytes,
        s.virtual_ticks
    );
}

fn main() {
    obs_init();
    header(
        "Cluster layer (sharding, cross-node reuse, rebalancing, replication)",
        "HRW-sharded multi-node cache: bit-identical results across node \
         counts and membership churn, zero churn-forced recomputes, \
         replication flattens a skewed hotspot",
    );

    for seed in [42u64, 1337] {
        // --- Node-count invariance: {1, 2, 4, 8} nodes, same trace. ---
        let runs: Vec<(usize, ClusterOutcome)> = [1usize, 2, 4, 8]
            .iter()
            .map(|&n| (n, run_cluster_scenario(cluster_config(seed, n), false)))
            .collect();
        let want = &runs[0].1.digests;
        for (n, o) in &runs {
            assert_eq!(
                &o.digests, want,
                "seed {seed}: digests diverged at {n} nodes — results must \
                 not depend on the node count"
            );
            assert!(
                o.invariants_hold(),
                "seed {seed}: {n} nodes recomputed, left moves queued or \
                 orphaned a replica: {o:?}"
            );
        }
        // Repeated run → identical counter snapshot (full determinism).
        let again = run_cluster_scenario(cluster_config(seed, 4), false);
        assert_eq!(
            again.stats, runs[2].1.stats,
            "seed {seed}: counters must be exact"
        );

        // --- Churn invariance and counter coverage: the gate's run. ---
        let g = run_cluster_scenario(cluster_config(seed, 4), true);
        assert_eq!(
            &g.digests, want,
            "seed {seed}: a mid-run join/leave changed the served results"
        );
        assert!(
            g.invariants_hold(),
            "seed {seed}: churn alone forced a recompute or left the \
             cluster unsettled: {g:?}"
        );
        assert!(
            g.silent_classes().is_empty(),
            "seed {seed}: counter classes never exercised: {:?}",
            g.silent_classes()
        );

        println!("seed={seed}");
        for (n, o) in &runs {
            print_outcome(&format!("  nodes={n}"), o);
        }
        print_outcome("  nodes=4 churn (gate)", &g);

        // --- Replication flattens the hotspot. ---
        let (norep, norep_hits) = run_hotspot(seed, 0);
        let (rep, rep_hits) = run_hotspot(seed, 2);
        let (norep_share, rep_share) = (max_share_x1000(&norep_hits), max_share_x1000(&rep_hits));
        assert_eq!(
            norep.digest, rep.digest,
            "seed {seed}: replication changed results"
        );
        assert_eq!(
            norep_share, 1000,
            "seed {seed}: without replicas the primary serves every hit"
        );
        assert!(
            rep_share < norep_share,
            "seed {seed}: replication must flatten the hotspot \
             (R=0 max share {norep_share}/1000, R=2 max share {rep_share}/1000)"
        );
        println!(
            "  hotspot max share: R=0 {norep_share:>4}/1000 -> R=2 {rep_share:>4}/1000  \
             (hits per node: {norep_hits:?} -> {rep_hits:?})"
        );

        obs_absorb(&g.stats);
        obs_record(
            "exp_cluster",
            [
                ("seed", seed),
                ("remote_hits", g.stats.remote_hits),
                ("replica_hits", g.stats.replica_hits),
                ("rebalance_moves", g.stats.rebalance_moves),
                ("replica_invalidations", g.stats.replica_invalidations),
                ("hot_share_norep_x1000", norep_share),
                ("hot_share_rep_x1000", rep_share),
            ],
        );
    }

    // --- Serve-layer dispatch: warm reuse survives membership churn. ---
    println!();
    for seed in [42u64, 1337] {
        let mut spec = StreamSpec::test();
        spec.requests = 96;
        spec.pipeline_every = 24;
        let trace = open_loop(seed, &spec);
        let d = ClusterDispatcher::new(ClusterServeConfig::test());
        let cold = d.run(&trace);
        d.cluster().join(4);
        d.cluster().leave(0);
        let warm = d.run(&trace);
        assert_eq!(
            cold.digest, warm.digest,
            "seed {seed}: churn changed dispatch results"
        );
        assert_eq!(
            warm.cluster.computes, cold.cluster.computes,
            "seed {seed}: the warm pass after join/leave must not recompute"
        );
        println!(
            "dispatch seed={seed:<5} requests={} shared={} pipelines={} epochs={}  \
             cold computes={}  warm pass: +0 computes, remote={} replica={} moves={}",
            cold.completed,
            cold.shared,
            cold.pipelines,
            warm.epochs,
            cold.cluster.computes,
            warm.cluster.remote_hits,
            warm.cluster.replica_hits,
            warm.cluster.rebalance_moves
        );
        obs_record(
            "exp_cluster_dispatch",
            [
                ("seed", seed),
                ("completed", cold.completed),
                ("computes", cold.cluster.computes),
                ("remote_hits", warm.cluster.remote_hits),
                ("rebalance_moves", warm.cluster.rebalance_moves),
            ],
        );
    }
    obs_finish();
}
