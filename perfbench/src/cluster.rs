//! `cluster`: a seeded skewed trace fed in fixed-size batches through
//! memphis-serve's `ClusterDispatcher` over a 4-node cluster with
//! replication on; one node joins a third of the way in and node 0 leaves
//! at two thirds. One op is one batch (`ClusterDispatcher::run`).
//!
//! Arrivals run on one clock across the whole trace, as a long-lived
//! dispatcher would see them. Each batch's served digest must equal the
//! digest of a 1-node dispatcher over the same batches, and every round
//! must end with zero orphaned replicas and zero pending moves.

use crate::harness::{self, Opts, Outcome, Round, Verdict};
use crate::ledger::Ledger;
use crate::{rng, trace};
use memphis_serve::{ClusterDispatcher, ClusterServeConfig, Priority, Request, Work};

/// Requests per batch (one op).
pub const BATCH: usize = 500;
/// Batches per round.
pub const BATCHES: usize = 60;
/// Initial nodes.
pub const NODES: usize = 4;
/// Shared-item universe.
pub const ITEMS: usize = 4000;
/// Skew of the item draw: index = items × u^SKEW.
pub const SKEW: f64 = 3.0;
/// Tenants (each routed to an origin node).
pub const TENANTS: u64 = 16;

const SALT_TRACE: u64 = 0xc101;
const SALT_PLACE: u64 = 0xc102;

/// The batches of `seed`'s trace: one request per tick, skewed items.
pub fn batches(seed: u64) -> Vec<Vec<Request>> {
    let mut r = rng::Rng::new(seed, SALT_TRACE);
    let reqs: Vec<Request> = (0..BATCH * BATCHES)
        .map(|i| Request {
            id: i as u64,
            tenant: r.below(TENANTS) as u16,
            priority: Priority::Normal,
            arrival: i as u64,
            deadline: i as u64 + 1_000,
            mem_estimate: 2 << 10,
            service_ticks: 1,
            work: Work::SharedItem(r.skewed(ITEMS, SKEW)),
        })
        .collect();
    reqs.chunks(BATCH).map(<[Request]>::to_vec).collect()
}

fn config(seed: u64, nodes: usize) -> ClusterServeConfig {
    ClusterServeConfig {
        nodes,
        seed: rng::derive(seed, SALT_PLACE, 0),
        replicas: 1,
        hot_k: 16,
        hot_min_probes: 3,
        rebalance_moves: 32,
        node_budget: 16 << 20,
        epoch_ticks: 250,
    }
}

/// Runs the `cluster` workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let bs = batches(opts.seed);
    let mut digests: Vec<Vec<u64>> = Vec::new();
    let mut notes = Vec::new();
    let mut broken = 0u64;
    let mut fabric = None;
    let mut ledger = Ledger::default();

    let rounds = harness::run_rounds(opts, |r: &mut Round, ri| -> Result<(), String> {
        let (bs, d) = r.setup(|| {
            (
                batches(opts.seed),
                ClusterDispatcher::new(config(opts.seed, NODES)),
            )
        });
        let mut ds = Vec::with_capacity(bs.len());
        for (k, b) in bs.iter().enumerate() {
            let rep = r.op(k as u64, || {
                if k == BATCHES / 3 {
                    trace::span("cluster.join", k as u64, || d.cluster().join(NODES as u16));
                }
                if k == 2 * BATCHES / 3 {
                    trace::span("cluster.leave", k as u64, || d.cluster().leave(0));
                }
                trace::span("cluster.run", k as u64, || d.run(b))
            });
            ds.push(rep.digest);
        }
        let c = d.cluster();
        if c.orphaned_replicas() != 0 || c.pending_moves() != 0 {
            broken += 1;
            notes.push(format!(
                "round {ri}: {} orphaned replicas, {} pending moves",
                c.orphaned_replicas(),
                c.pending_moves()
            ));
        }
        let s = c.stats();
        fabric.get_or_insert(s.virtual_ticks as f64 / (BATCH * BATCHES) as f64);
        if r.traced {
            let mut l = Ledger::default();
            let probes = s.probes.max(1) as f64;
            l.set("cluster.remote_hit_frac", s.remote_hits as f64 / probes);
            l.set("cluster.replica_hits", s.replica_hits as f64);
            l.set(
                "cluster.transfer_mb",
                s.transfer_bytes as f64 / (1u64 << 20) as f64,
            );
            l.set("cluster.rebalance_moves", s.rebalance_moves as f64);
            for (_, rs) in c.node_stats() {
                l.reuse(&rs);
            }
            ledger = l;
        }
        digests.push(ds);
        r.setup(|| drop(d));
        Ok(())
    })?;

    // Reference: one node, same batches, no membership changes.
    let one = ClusterDispatcher::new(config(opts.seed, 1));
    let want: Vec<u64> = bs.iter().map(|b| one.run(b).digest).collect();
    let mut failed = 0;
    for (ri, ds) in digests.iter().enumerate() {
        for (k, (got, w)) in ds.iter().zip(&want).enumerate() {
            if got != w {
                failed += 1;
                notes.push(format!(
                    "round {ri} batch {k}: digest {got:#x} != 1-node {w:#x}"
                ));
            }
        }
    }
    let attempted: u64 = rounds.iter().map(|r| r.lat_ms.len() as u64).sum();
    let failed = (failed + broken).min(attempted);
    let verdict = Verdict {
        attempted,
        failed,
        failed_frac: failed as f64 / attempted.max(1) as f64,
        notes,
    };

    let mut layers = Vec::new();
    if opts.trace {
        ledger.set("cluster.batch_ms", harness::mean_span("cluster.run", 1e6));
        layers = ledger.finish();
    }
    Ok(Outcome {
        rounds,
        verdict,
        specific: vec![("fabric_ticks_per_op", fabric.unwrap_or(0.0))],
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_deterministic_per_seed_and_skewed() {
        let key = |bs: &Vec<Vec<Request>>| -> Vec<(u16, usize)> {
            bs.iter()
                .flatten()
                .map(|r| match r.work {
                    Work::SharedItem(i) => (r.tenant, i),
                    Work::Pipeline(_) => unreachable!(),
                })
                .collect()
        };
        let a = key(&batches(1));
        assert_eq!(a, key(&batches(1)));
        assert_ne!(a, key(&batches(2)));
        assert_eq!(a.len(), BATCH * BATCHES);
        let hot = a.iter().filter(|(_, i)| *i < ITEMS / 10).count();
        assert!(
            hot > 3 * a.len() / 10,
            "a tenth of the items draws over 3x its share"
        );
    }
}
