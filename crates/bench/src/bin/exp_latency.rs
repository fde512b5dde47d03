//! Latency experiment: delayed-hits-aware eviction/admission vs the
//! paper's eq. (1) on a skewed multi-tenant trace.
//!
//! Runs the `run_latency` harness (coalesced fan-out batches + steady
//! singles + cold scan pollution + one-shot stream churn) under both
//! cache policies for seeds 42 and 1337 and asserts, per seed:
//!
//! * the served digest is bit-identical between policies — the cost
//!   model changes *when* things recompute, never *what* is served;
//! * p99 per-arrival virtual latency drops strictly under
//!   `DelayedHits` (eq. (1) evicts freshly readmitted batch-serving
//!   entries below disposable stream items, so whole batches pay the
//!   recompute every round; the waiter-boosted score does not);
//! * the three new counters (`mad_evictions`, `ttna_admission_rejects`
//!   during the Shed window, `delayed_hit_ticks_saved`) are live under
//!   `DelayedHits` and exactly zero under `Paper`;
//! * repeated runs are counter-exact (full determinism).
//!
//! Supports the shared `--trace` / `--json` observability flags.

use memphis_bench::{header, obs_absorb, obs_finish, obs_init, obs_record};
use memphis_core::CachePolicy;
use memphis_workloads::{percentile, run_latency, LatencyParams, LatencyReport};

fn print_report(label: &str, r: &LatencyReport, p99: u64) {
    println!(
        "{label:<22} digest={:016x}  served={} coalesced={} p99={p99}  \
         hits={} misses={} mad_evicts={} ttna_rejects={} ticks_saved={}",
        r.digest,
        r.served,
        r.coalesced_arrivals,
        r.reuse.hits,
        r.reuse.misses,
        r.reuse.mad_evictions,
        r.reuse.ttna_admission_rejects,
        r.reuse.delayed_hit_ticks_saved
    );
}

fn main() {
    obs_init();
    header(
        "Latency-aware eviction/admission (delayed hits + TTNA)",
        "same served bytes, lower tail: the delayed-hits score keeps \
         batch-serving entries resident, TTNA admission shedding turns \
         away scan pollution under pressure, and p99 virtual latency \
         drops vs the paper's eq. (1) on a skewed trace",
    );

    for seed in [42u64, 1337] {
        let params = LatencyParams::gate(seed);
        let paper = run_latency(&params, CachePolicy::Paper);
        let delayed = run_latency(&params, CachePolicy::DelayedHits);
        let p99_paper = percentile(&paper.latencies, 99.0);
        let p99_delayed = percentile(&delayed.latencies, 99.0);

        // The policies must serve the exact same byte stream.
        assert_eq!(
            paper.digest, delayed.digest,
            "seed {seed}: the eviction policy changed what was served"
        );
        assert_eq!(paper.served, delayed.served, "seed {seed}: served drifted");
        assert_eq!(
            paper.latencies.len(),
            delayed.latencies.len(),
            "seed {seed}: sample counts drifted"
        );

        // The headline claim: the tail drops.
        assert!(
            p99_delayed < p99_paper,
            "seed {seed}: DelayedHits must cut p99 \
             (paper={p99_paper} delayed={p99_delayed})"
        );

        // The new counters are live under DelayedHits...
        assert!(
            delayed.reuse.mad_evictions > 0,
            "seed {seed}: no delayed-hits evictions recorded"
        );
        assert!(
            delayed.reuse.ttna_admission_rejects > 0,
            "seed {seed}: the Shed window never rejected an admission"
        );
        assert!(
            delayed.reuse.delayed_hit_ticks_saved > 0,
            "seed {seed}: no delayed-hit ticks credited"
        );
        // ...and exactly zero under Paper: the published behavior is
        // bit-identical with the feature compiled in but switched off.
        assert_eq!(paper.reuse.mad_evictions, 0, "seed {seed}");
        assert_eq!(paper.reuse.ttna_admission_rejects, 0, "seed {seed}");
        assert_eq!(paper.reuse.delayed_hit_ticks_saved, 0, "seed {seed}");

        // Full determinism: a repeated run is counter-exact.
        let again = run_latency(&params, CachePolicy::DelayedHits);
        assert_eq!(again.digest, delayed.digest, "seed {seed}: digest drifted");
        assert_eq!(
            again.reuse, delayed.reuse,
            "seed {seed}: counters must be exact across runs"
        );
        assert_eq!(again.latencies, delayed.latencies, "seed {seed}");

        println!("seed={seed}");
        print_report("  paper (eq. 1)", &paper, p99_paper);
        print_report("  delayed-hits", &delayed, p99_delayed);
        println!(
            "  p99 {}x: {} -> {} ticks  (n={} foreground samples)",
            p99_paper / p99_delayed.max(1),
            p99_paper,
            p99_delayed,
            paper.latencies.len()
        );

        obs_absorb(&delayed.reuse);
        obs_record(
            "exp_latency",
            [
                ("seed", seed),
                ("served", paper.served),
                ("p99_paper", p99_paper),
                ("p99_delayed", p99_delayed),
                ("mad_evictions", delayed.reuse.mad_evictions),
                ("ttna_rejects", delayed.reuse.ttna_admission_rejects),
                ("ticks_saved", delayed.reuse.delayed_hit_ticks_saved),
            ],
        );
    }
    obs_finish();
}
