//! The bench gate: one table of exact counters from every gate harness
//! at its committed scale, compared with `ci/BENCH_baseline.json`.
//!
//! Every row is deterministic by construction — reuse hits and eq. (1)
//! evictions, coalesced misses, crash recovery, cross-node reuse,
//! delayed hits, the script corpus, and a ~10x concurrency/serving
//! stress slice measured in virtual ticks — so the comparison is
//! equality, and a key present on only one side fails as well. To
//! re-baseline, copy the report a failing run prints into
//! `ci/BENCH_baseline.json` and explain each changed number.

use memphis_bench::gate::{divergences, parse, render};
use memphis_bench::golden::{
    run_concurrency_gate, run_recovery_gate, run_script_gate, run_serve_gate, serve_gate_spec,
    ConcGateParams, RecoveryGateParams, ScriptGateParams, ServeGateParams,
};
use memphis_core::CachePolicy;
use memphis_serve::{open_loop, Outcome};
use memphis_workloads::{percentile, run_cluster, run_latency, ClusterParams, LatencyParams};
use std::collections::HashMap;
use std::path::Path;

/// Runs every gate harness once, asserts its invariants, and returns
/// its counters as `(key, value)` rows in report order.
fn gate_table() -> Vec<(&'static str, u64)> {
    let o = run_concurrency_gate(&ConcGateParams::full());

    let s = run_serve_gate(&ServeGateParams::full());
    assert!(s.invariants_hold(), "serve gate: {:?}", s.counters);

    let r = run_recovery_gate(&RecoveryGateParams::full());

    let c = run_cluster(&ClusterParams::gate(42));
    let cs = &c.stats;
    assert!(
        cs.remote_hits > 0
            && cs.replica_hits > 0
            && cs.rebalance_moves > 0
            && cs.replica_invalidations > 0
            && cs.transfer_bytes > 0
            && c.recomputes == 0
            && c.pending_moves == 0,
        "cluster gate: {c:?}"
    );

    // The same trace under both policies: identical served bytes, a
    // lower tail and live delayed-hits counters only under DelayedHits.
    let lp = LatencyParams::gate(42);
    let paper = run_latency(&lp, CachePolicy::Paper);
    let delayed = run_latency(&lp, CachePolicy::DelayedHits);
    let p99_paper = percentile(&paper.latencies, 99.0);
    let p99_delayed = percentile(&delayed.latencies, 99.0);
    let (pr, dr) = (&paper.reuse, &delayed.reuse);
    assert_eq!(paper.digest, delayed.digest, "latency gate: served bytes");
    assert_eq!(paper.served, delayed.served, "latency gate: served count");
    assert!(
        p99_delayed < p99_paper,
        "latency gate: p99 paper={p99_paper} delayed={p99_delayed}"
    );
    assert!(
        dr.mad_evictions > 0 && dr.ttna_admission_rejects > 0 && dr.delayed_hit_ticks_saved > 0,
        "latency gate: {dr:?}"
    );
    assert_eq!(
        (
            pr.mad_evictions,
            pr.ttna_admission_rejects,
            pr.delayed_hit_ticks_saved
        ),
        (0, 0, 0),
        "latency gate: Paper must leave the delayed-hits counters at zero"
    );

    let sc = run_script_gate(&ScriptGateParams::full());
    assert!(sc.invariants_hold(), "script gate: {sc:?}");

    // Stress slice: 4x the items, 10x the churn and twice the sessions
    // of the concurrency gate; 10x the serving trace on twice the
    // workers. Latency is `finished - arrival` in virtual ticks.
    let so = run_concurrency_gate(&ConcGateParams {
        items: 256,
        rounds: 32,
        churn: 1280,
        sessions: 16,
    });
    let sp = ServeGateParams {
        requests: 960,
        workers: 8,
        ..ServeGateParams::full()
    };
    let arrivals: HashMap<u64, u64> = open_loop(sp.seed, &serve_gate_spec(&sp))
        .into_iter()
        .map(|req| (req.id, req.arrival))
        .collect();
    let ss = run_serve_gate(&sp);
    assert!(ss.invariants_hold(), "stress serve: {:?}", ss.counters);
    let latencies: Vec<u64> = ss
        .outcomes
        .iter()
        .filter_map(|(id, out)| match out {
            Outcome::Completed { finished, .. } => Some(finished.saturating_sub(arrivals[id])),
            _ => None,
        })
        .collect();

    vec![
        ("hits", o.hits),
        ("recomputes", o.recomputes),
        ("evictions", o.evictions),
        ("coalesced_hits", o.coalesced_hits),
        ("duplicates", o.duplicates),
        ("serve_shed", s.counters.shed),
        ("serve_coalesced", s.counters.coalesced),
        ("serve_quota_evictions", s.counters.quota_evictions),
        ("serve_completed", s.counters.completed),
        ("segments_recovered", r.segments_recovered),
        ("entries_recovered", r.entries_recovered),
        ("entries_rehydrated", r.entries_rehydrated),
        ("checksum_rejects", r.checksum_rejects),
        ("manifest_swaps", r.manifest_swaps),
        ("remote_hits", cs.remote_hits),
        ("remote_misses", cs.remote_misses),
        ("transfer_bytes", cs.transfer_bytes),
        ("rebalance_moves", cs.rebalance_moves),
        ("replica_hits", cs.replica_hits),
        ("replica_invalidations", cs.replica_invalidations),
        ("handoff_hits", cs.handoff_hits),
        ("remote_coalesced", cs.remote_coalesced),
        ("cluster_computes", cs.computes),
        ("latency_served", paper.served),
        ("latency_p99_paper", p99_paper),
        ("latency_p99_delayed", p99_delayed),
        ("latency_mad_evictions", dr.mad_evictions),
        ("latency_ttna_rejects", dr.ttna_admission_rejects),
        ("latency_delay_ticks_saved", dr.delayed_hit_ticks_saved),
        ("script_programs_fuzzed", sc.programs_fuzzed),
        ("script_divergences", sc.divergences),
        ("script_lowered_nodes", sc.lowered_nodes),
        ("script_corpus_scripts", sc.corpus_scripts),
        ("script_corpus_digest", sc.corpus_digest),
        ("stress_conc_hits", so.hits),
        ("stress_conc_duplicates", so.duplicates),
        ("stress_serve_completed", ss.counters.completed),
        ("stress_serve_shed", ss.counters.shed),
        ("stress_serve_ticks", ss.ticks),
        (
            "stress_serve_latency_p50_ticks",
            percentile(&latencies, 50.0),
        ),
        (
            "stress_serve_latency_p99_ticks",
            percentile(&latencies, 99.0),
        ),
    ]
}

#[test]
fn gate_table_matches_the_baseline() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/BENCH_baseline.json");
    let baseline = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let table = gate_table();
    let diverged = divergences(&table, &parse(&baseline));
    assert!(
        diverged.is_empty(),
        "the gate table diverges from ci/BENCH_baseline.json:\n  {}\n\
         report (copy it into the baseline to re-baseline):\n{}",
        diverged.join("\n  "),
        render(&table)
    );
}
