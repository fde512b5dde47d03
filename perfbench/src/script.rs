//! `script` and `spill`: a seeded stream of small DML programs, compiled
//! and run one after another on one long-lived context per round.
//!
//! The pool holds generated programs (`memphis_script::fuzz`) plus the
//! seven corpus scripts; the stream draws generated programs with skewed
//! repeats and interleaves the corpus scripts at a fixed rate. Each round
//! generates its own pool and stream from the seed and its input index. `script`
//! gives the cache a budget far above the
//! working set and no disk; `spill` runs the same stream with a local
//! budget far below the working set and spill-to-disk on.
//!
//! One op = compile + bind inputs + run + digest the printed sinks of one
//! program. Each op's sink digest must equal the digest of the same
//! program run with reuse off.

use crate::harness::{self, Opts, Outcome, Round, Verdict};
use crate::ledger::Ledger;
use crate::rng::{self, Rng};
use crate::{sys, trace};
use memphis_core::cache::config::CacheConfig;
use memphis_core::cache::LineageCache;
use memphis_core::BackendId;
use memphis_engine::compiler::Ordering;
use memphis_engine::interp::run_program;
use memphis_engine::{EngineConfig, ExecutionContext, ReuseMode};
use memphis_script::Compiled;
use memphis_workloads::script::{bind_reads, sink_digest, CORPUS};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Generated programs in the pool (the corpus scripts come on top).
pub const POOL_GENERATED: u64 = 192;
/// Skew of the draw: index = pool × u^SKEW. Below 2, the number of
/// programs that carry most of the load grows with the pool, which keeps
/// runs of different seeds comparable.
pub const SKEW: f64 = 1.5;
/// Every this many ops, the stream runs the next corpus script.
pub const CORPUS_EVERY: usize = 16;
/// Programs per round of `script`.
pub const SCRIPT_OPS: usize = 8000;
/// Programs per round of `spill`.
pub const SPILL_OPS: usize = 800;
/// Local cache budget of `script`: far above the working set.
pub const SCRIPT_BUDGET: usize = 256 << 20;
/// Local cache budget of `spill`: a small fraction of the working set.
pub const SPILL_BUDGET: usize = 64 << 10;
/// Warm-up programs per round, drawn from a separate generator stream.
pub const WARMUP: u64 = 8;
/// Programs replayed per reuse mode for the lineage/probe cost figures.
pub const REPLAY_OPS: usize = 1500;

const SALT_POOL: u64 = 0x5c01;
const SALT_ORDER: u64 = 0x5c02;
const SALT_WARM: u64 = 0x5c03;

/// A generated op stream: a program pool and the order ops draw from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// `(label, source)` of each pool program.
    pub pool: Vec<(String, String)>,
    /// Pool index of each op.
    pub order: Vec<usize>,
}

/// Stream number `input` of `ops` programs for `seed`: every
/// [`CORPUS_EVERY`]-th op is the next corpus script in turn; the others
/// draw a generated program with skewed repeats (which programs are hot
/// depends on the seed and `input`).
pub fn stream(seed: u64, input: u64, ops: usize) -> Stream {
    let gen_seed = rng::derive(seed, SALT_POOL, input);
    let mut pool: Vec<(String, String)> = (0..POOL_GENERATED)
        .map(|i| {
            (
                format!("gen{i}"),
                memphis_script::fuzz::gen_program(gen_seed, i),
            )
        })
        .collect();
    let mut r = Rng::new(rng::derive(seed, SALT_ORDER, input), SALT_ORDER);
    for i in (1..pool.len()).rev() {
        let j = r.below(i as u64 + 1) as usize;
        pool.swap(i, j);
    }
    pool.extend(CORPUS.iter().map(|(n, s)| (n.to_string(), s.to_string())));
    let generated = POOL_GENERATED as usize;
    let order = (0..ops)
        .map(|k| match k % CORPUS_EVERY {
            0 => generated + (k / CORPUS_EVERY) % CORPUS.len(),
            _ => r.skewed(generated, SKEW),
        })
        .collect();
    Stream { pool, order }
}

fn cache_config(spill: bool, dir: &Path) -> CacheConfig {
    let mut c = CacheConfig::test();
    c.spill_dir = dir.to_path_buf();
    if spill {
        c.local_budget = SPILL_BUDGET;
        c.spill_to_disk = true;
        c.segment_max_bytes = 256 << 10;
        c.compact_min_dead_bytes = 64 << 10;
    } else {
        c.local_budget = SCRIPT_BUDGET;
        c.spill_to_disk = false;
    }
    c
}

fn context(opts: &Opts, mode: ReuseMode, cache: CacheConfig) -> ExecutionContext {
    let mut e = EngineConfig::test().with_reuse(mode);
    e.cp_threads = opts.nproc;
    ExecutionContext::new(e, Arc::new(LineageCache::new(cache)), None, None)
}

fn compile(src: &str) -> Result<Compiled, String> {
    memphis_script::compile(src).map_err(|e| e.to_string())
}

/// Binds, runs and digests one compiled program, with a span per layer.
fn execute(ctx: &mut ExecutionContext, c: &Compiled, op: u64) -> Result<u64, String> {
    trace::span("data.bind", op, || bind_reads(ctx, c)).map_err(|e| format!("{e:?}"))?;
    trace::span("engine.run", op, || {
        run_program(ctx, &c.program, Ordering::DepthFirst)
    })
    .map_err(|e| format!("{e:?}"))?;
    let (digest, _) = trace::span("engine.digest", op, || sink_digest(ctx, &c.prints))
        .map_err(|e| format!("{e:?}"))?;
    Ok(digest)
}

/// Runs the `script` (`spill == false`) or `spill` workload.
pub fn run(opts: &Opts, spill: bool) -> Result<Outcome, String> {
    let ops = if spill { SPILL_OPS } else { SCRIPT_OPS };
    let tag = if spill { "spill" } else { "script" };
    // (input, pool index, digest) -> ops that produced it.
    let mut seen: HashMap<(u64, usize, u64), u64> = HashMap::new();
    // input -> the pool of that round's stream.
    let mut pools: HashMap<u64, Vec<(String, String)>> = HashMap::new();
    let mut errors: Vec<String> = Vec::new();
    let mut ledger = Ledger::default();

    let rounds = harness::run_rounds(opts, |r: &mut Round, _| -> Result<(), String> {
        let input = r.input;
        let (s, dir, mut ctx) = r.setup(|| {
            let s = stream(opts.seed, input, ops);
            let dir = opts.dir.fresh(tag);
            let mut ctx = context(opts, ReuseMode::Memphis, cache_config(spill, &dir));
            // Warm up on filler programs the stream never runs.
            let warm_seed = rng::derive(opts.seed, SALT_WARM, 0);
            for i in 0..WARMUP {
                let c = compile(&memphis_script::fuzz::gen_program(warm_seed, i))?;
                execute(&mut ctx, &c, 0)?;
            }
            Ok::<_, String>((s, dir, ctx))
        })?;
        for (k, &pi) in s.order.iter().enumerate() {
            let src = &s.pool[pi].1;
            let res = r.op(k as u64, || {
                let c = trace::span("script.compile", k as u64, || compile(src))?;
                execute(&mut ctx, &c, k as u64)
            });
            match res {
                Ok(d) => *seen.entry((input, pi, d)).or_insert(0) += 1,
                Err(e) => errors.push(format!("{}: {e}", s.pool[pi].0)),
            }
        }
        pools.entry(input).or_insert(s.pool);
        if r.traced {
            ledger = round_ledger(&ctx, &dir);
        }
        r.setup(|| {
            drop(ctx);
            let _ = std::fs::remove_dir_all(&dir);
        });
        Ok(())
    })?;

    // Reference digests: every distinct program, reuse off.
    let mut verdict = Verdict {
        attempted: rounds.iter().map(|r| r.lat_ms.len() as u64).sum(),
        failed: errors.len() as u64,
        ..Verdict::default()
    };
    verdict.notes.extend(errors.iter().take(5).cloned());
    let mut reference: HashMap<(u64, usize), u64> = HashMap::new();
    for &(input, pi, _) in seen.keys() {
        if reference.contains_key(&(input, pi)) {
            continue;
        }
        let dir = opts.dir.fresh("reference");
        let mut ctx = context(opts, ReuseMode::None, cache_config(false, &dir));
        let d = compile(&pools[&input][pi].1).and_then(|c| execute(&mut ctx, &c, 0))?;
        reference.insert((input, pi), d);
    }
    for (&(input, pi, d), &n) in &seen {
        let want = reference[&(input, pi)];
        if want != d {
            verdict.failed += n;
            verdict.notes.push(format!(
                "input {input} {}: digest {d:#x} != reuse-off {want:#x} ({n} ops)",
                pools[&input][pi].0
            ));
        }
    }
    verdict.failed_frac = verdict.failed as f64 / verdict.attempted.max(1) as f64;

    let mut layers = Vec::new();
    if opts.trace {
        let (trace_ns, probe_ns) = replay(opts, &stream(opts.seed, 0, ops), spill)?;
        ledger.set("lineage.trace_ns_per_instr", trace_ns);
        ledger.set("cache.probe_ns_per_instr", probe_ns);
        ledger.set(
            "script.compile_us",
            harness::mean_span("script.compile", 1e3),
        );
        ledger.set("engine.run_ms", harness::mean_span("engine.run", 1e6));
        layers = ledger.finish();
    }
    Ok(Outcome {
        rounds,
        verdict,
        specific: Vec::new(),
        layers,
    })
}

/// Counters of one traced round, read before the context is dropped.
fn round_ledger(ctx: &ExecutionContext, dir: &Path) -> Ledger {
    let mut l = Ledger::default();
    l.reuse(&ctx.cache().stats());
    l.engine(&ctx.stats);
    l.set("cache.entries_end", ctx.cache().len() as f64);
    let on_disk = sys::dir_size(dir) as f64;
    let logical = ctx
        .cache()
        .backend_snapshots()
        .iter()
        .find(|b| b.id == BackendId::Disk)
        .map_or(0.0, |b| b.used as f64);
    l.set("disk.bytes_on_disk", on_disk);
    l.set(
        "disk.write_amp",
        if logical > 0.0 {
            on_disk / logical
        } else {
            0.0
        },
    );
    l
}

/// The Fig 11 method: replays the first [`REPLAY_OPS`] programs of the
/// stream (compiled beforehand) under `None`, `TraceOnly` and `ProbeOnly`,
/// three times each, interleaved. Returns (tracing, probing) cost in ns
/// per instruction from the median times.
fn replay(opts: &Opts, s: &Stream, spill: bool) -> Result<(f64, f64), String> {
    let progs: Vec<Compiled> = s.order[..REPLAY_OPS.min(s.order.len())]
        .iter()
        .map(|&pi| compile(&s.pool[pi].1))
        .collect::<Result<_, _>>()?;
    let modes = [ReuseMode::None, ReuseMode::TraceOnly, ReuseMode::ProbeOnly];
    let mut times = vec![Vec::new(); modes.len()];
    let mut instructions = 0u64;
    for _ in 0..3 {
        for (mi, &mode) in modes.iter().enumerate() {
            let dir = opts.dir.fresh("replay");
            let mut ctx = context(opts, mode, cache_config(spill, &dir));
            let t0 = Instant::now();
            for c in &progs {
                bind_reads(&mut ctx, c).map_err(|e| format!("{e:?}"))?;
                run_program(&mut ctx, &c.program, Ordering::DepthFirst)
                    .map_err(|e| format!("{e:?}"))?;
            }
            times[mi].push(t0.elapsed().as_secs_f64() * 1e9);
            if mode == ReuseMode::TraceOnly {
                instructions = ctx.stats.instructions;
            }
            drop(ctx);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let med: Vec<f64> = times.iter().map(|t| crate::stats::median(t)).collect();
    let per = instructions.max(1) as f64;
    Ok(((med[1] - med[0]) / per, (med[2] - med[1]) / per))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_per_seed_and_input() {
        let a = stream(42, 0, 200);
        assert_eq!(a, stream(42, 0, 200));
        for b in [stream(43, 0, 200), stream(42, 1, 200)] {
            assert_ne!(a.order, b.order);
            assert_ne!(a.pool, b.pool);
        }
        assert_eq!(a.pool.len(), POOL_GENERATED as usize + CORPUS.len());
    }

    #[test]
    fn stream_repeats_programs() {
        let s = stream(7, 0, 1000);
        let mut counts = vec![0usize; s.pool.len()];
        for &pi in &s.order {
            counts[pi] += 1;
        }
        let uniform = s.order.len() / s.pool.len();
        assert!(
            *counts.iter().max().unwrap() > 5 * uniform,
            "the hottest program repeats often"
        );
        assert!(counts.iter().filter(|&&c| c > 0).count() > 10);
    }
}
