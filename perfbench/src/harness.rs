//! The round loop shared by every workload.
//!
//! A run repeats *rounds* until `--seconds` have passed (at least
//! [`MIN_ROUNDS`], or [`MIN_ROUNDS_TRACED`] with tracing). Each round
//! builds fresh state and then does a fixed amount of work, so rounds are
//! comparable and the end-to-end figures are medians over rounds. Time
//! spent in [`Round::setup`] is set-up; time spent in [`Round::op`] is the
//! timed phase. In a traced run, the first round warms up untraced, then
//! rounds alternate untraced and traced (spans recorded), which gives the
//! tracing overhead.
//!
//! Rounds draw their inputs from the seed and their [`Round::input`]
//! index, so a run's medians cover [`INPUTS`] inputs of its seed rather
//! than one: what one generated input happens to cost then sways a run's
//! figures little.

use crate::sys::{self, RunDir};
use crate::{stats, trace};
use std::time::{Duration, Instant};

/// Distinct inputs the rounds of a run cycle through. A fixed set, not a
/// fresh input every round: the program's lineage intern table is
/// process-wide and never shrinks, so fresh inputs would grow peak RSS
/// with the number of rounds, that is, with the speed of the host.
pub const INPUTS: u64 = 6;

/// Rounds of an untraced run, at least.
pub const MIN_ROUNDS: usize = 3;
/// Rounds of a traced run, at least: a warm-up round, then two untraced
/// and two traced.
pub const MIN_ROUNDS_TRACED: usize = 5;

/// Command-line options of one run.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed; only the input generators read it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (`--trace 1`): per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Threads the benchmark may use.
    pub nproc: usize,
    /// Scratch directory of this run.
    pub dir: RunDir,
}

/// Measurements of one round.
#[derive(Debug, Default)]
pub struct Round {
    /// Index of the round's inputs, below [`INPUTS`]: workloads that
    /// generate per-round inputs derive them from (seed, `input`). In a
    /// traced run each traced round shares its input with the untraced
    /// round before it.
    pub input: u64,
    /// Spans were recorded in this round.
    pub traced: bool,
    /// Summed set-up time (state construction, generation, warm-up,
    /// teardown).
    pub setup: Duration,
    /// Summed wall time of the ops.
    pub wall: Duration,
    /// Process CPU time accrued during the ops.
    pub cpu: Duration,
    /// Simulated backend delay charged during the ops, in seconds.
    pub modelled_s: f64,
    /// Wall latency of each op in ms, in order.
    pub lat_ms: Vec<f64>,
    /// Completed units for the throughput figure (defaults to ops).
    pub units: Option<u64>,
    /// Peak RSS of the process during the round, in MiB.
    pub peak_rss_mb: f64,
}

impl Round {
    /// Runs `f` as set-up.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = trace::span("setup", 0, f);
        self.setup += t0.elapsed();
        out
    }

    /// Runs `f` as op number `id` of the timed phase.
    pub fn op<T>(&mut self, id: u64, f: impl FnOnce() -> T) -> T {
        let c0 = sys::process_cpu();
        let t0 = Instant::now();
        let out = trace::span("op", id, f);
        let dt = t0.elapsed();
        self.cpu += sys::process_cpu().saturating_sub(c0);
        self.wall += dt;
        self.lat_ms.push(dt.as_secs_f64() * 1e3);
        out
    }

    fn units(&self) -> u64 {
        self.units.unwrap_or(self.lat_ms.len() as u64)
    }
}

/// Repeats `round` until the time budget is spent.
pub fn run_rounds<E>(
    opts: &Opts,
    mut round: impl FnMut(&mut Round, usize) -> Result<(), E>,
) -> Result<Vec<Round>, E> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let min = if opts.trace {
        MIN_ROUNDS_TRACED
    } else {
        MIN_ROUNDS
    };
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let i = rounds.len();
        if i >= min {
            // Stop when the next round would likely overrun the budget.
            let per_round = start.elapsed() / i as u32;
            if start.elapsed() + per_round / 2 >= budget {
                break;
            }
        }
        let traced = opts.trace && i > 0 && i.is_multiple_of(2);
        trace::set_enabled(traced);
        let mut r = Round {
            input: if opts.trace {
                (i as u64).div_ceil(2) % INPUTS
            } else {
                i as u64 % INPUTS
            },
            traced,
            ..Round::default()
        };
        sys::reset_peak_rss();
        let res = round(&mut r, i);
        r.peak_rss_mb = sys::peak_rss_mb();
        trace::set_enabled(false);
        res?;
        rounds.push(r);
    }
    Ok(rounds)
}

/// End-to-end figures over the untraced rounds.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub modelled_s: f64,
    pub throughput_ops_s: f64,
    pub latency_p50_ms: f64,
    pub latency_tail_pct: f64,
    pub latency_tail_ms: f64,
    pub latency_drift: f64,
    pub peak_rss_mb: f64,
    /// Ops timed.
    pub ops: usize,
    /// Rounds summarised.
    pub rounds: usize,
}

/// Summarises the untraced rounds: medians over rounds of set-up, wall,
/// CPU and modelled time and of peak RSS; the latency percentiles over all ops pooled;
/// drift from the first and last tenths of every round, pooled;
/// throughput as units over summed wall.
///
/// The tail percentile is chosen by the tail rule for the ops of
/// [`MIN_ROUNDS`] rounds, the fewest a run makes, so the percentile a
/// workload reports does not depend on how many rounds fit in the time.
pub fn summarize(rounds: &[Round]) -> EndToEnd {
    let rs: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let med =
        |f: &dyn Fn(&Round) -> f64| stats::median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>());
    let lat: Vec<f64> = rs.iter().flat_map(|r| r.lat_ms.iter().copied()).collect();
    let per_round = rs.iter().map(|r| r.lat_ms.len()).min().unwrap_or(0);
    let tail_pct = stats::tail_percentile(per_round * MIN_ROUNDS);
    let tail = stats::percentile(&lat, tail_pct);
    let wall: f64 = rs.iter().map(|r| r.wall.as_secs_f64()).sum();
    let units: u64 = rs.iter().map(|r| r.units()).sum();
    EndToEnd {
        setup_s: med(&|r| r.setup.as_secs_f64()),
        wall_s: med(&|r| r.wall.as_secs_f64()),
        cpu_s: med(&|r| r.cpu.as_secs_f64()),
        modelled_s: med(&|r| r.modelled_s),
        throughput_ops_s: if wall > 0.0 { units as f64 / wall } else { 0.0 },
        latency_p50_ms: stats::median(&lat),
        latency_tail_pct: tail_pct,
        latency_tail_ms: tail,
        latency_drift: stats::drift(rs.iter().map(|r| r.lat_ms.as_slice())),
        peak_rss_mb: med(&|r| r.peak_rss_mb),
        ops: lat.len(),
        rounds: rs.len(),
    }
}

/// Traced wall over untraced wall, minus one (medians over rounds). The
/// first round runs cold (process-wide lazy state) and is left out.
pub fn trace_overhead(rounds: &[Round]) -> f64 {
    let wall = |traced: bool| {
        stats::median(
            &rounds[1..]
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let (on, off) = (wall(true), wall(false));
    if off > 0.0 {
        on / off - 1.0
    } else {
        0.0
    }
}

/// Correctness verdict of a run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that errored or whose output disagreed with the reference.
    pub failed: u64,
    /// Failed fraction as the workload defines it (serve also counts
    /// shed and refused requests).
    pub failed_frac: f64,
    /// One line per mismatch, for the report.
    pub notes: Vec<String>,
}

/// What a workload hands back to `main`.
pub struct Outcome {
    /// All rounds, traced and untraced.
    pub rounds: Vec<Round>,
    /// Correctness of every op.
    pub verdict: Verdict,
    /// Workload-specific end-to-end figures (`modelled_s`, ...).
    pub specific: Vec<(&'static str, f64)>,
    /// Per-layer figures of the traced rounds (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
}

/// Mean span duration of `name` in the given unit divisor (e.g. 1e3 for
/// µs), over the spans recorded so far.
pub fn mean_span(name: &str, div_ns: f64) -> f64 {
    let t = trace::totals(&trace::spans());
    t.get(name)
        .filter(|t| t.count > 0)
        .map(|t| t.total_ns as f64 / t.count as f64 / div_ns)
        .unwrap_or(0.0)
}
