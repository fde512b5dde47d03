//! Script workload harness: binds `read(...)` declarations of compiled
//! scripts to the deterministic dataset generators, executes the lowered
//! program, and digests the printed sinks. On top of that sits the
//! structured differential runner of the memphis-script fuzzer: every
//! program is executed reuse-on vs reuse-off, `Paper` vs `DelayedHits`,
//! and warm-restart-after-spill, asserting bit-identical sink digests;
//! divergences are minimized and persisted as runnable `.dml` repros.

use crate::data;
use crate::harness::Backends;
use memphis_core::cache::config::{CacheConfig, CachePolicy};
use memphis_engine::compiler::Ordering;
use memphis_engine::context::{EngineError, Result as EngineResult};
use memphis_engine::interp::run_program;
use memphis_engine::{EngineConfig, ExecutionContext, ReuseMode, Value};
use memphis_matrix::hash;
use memphis_matrix::ops::binary::{binary_scalar, BinaryOp};
use memphis_matrix::rand_gen::rand_uniform;
use memphis_matrix::Matrix;
use memphis_script::{Compiled, ReadSpec};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// The committed corpus: the four builder-pipeline ports plus the three
/// script-only pipelines, embedded at compile time so every binary sees
/// the same bytes.
pub const CORPUS: &[(&str, &str)] = &[
    ("hcv", include_str!("../corpus/hcv.dml")),
    ("pnmf", include_str!("../corpus/pnmf.dml")),
    ("hband", include_str!("../corpus/hband.dml")),
    ("tlvis", include_str!("../corpus/tlvis.dml")),
    ("cvgrid", include_str!("../corpus/cvgrid.dml")),
    ("ensemble", include_str!("../corpus/ensemble.dml")),
    ("minibatch", include_str!("../corpus/minibatch.dml")),
];

/// Source text of a corpus script by name.
pub fn corpus_source(name: &str) -> Option<&'static str> {
    CORPUS.iter().find(|(n, _)| *n == name).map(|(_, s)| *s)
}

/// Resolves a script `read("name", r, c)` declaration to the matching
/// deterministic dataset (same generators and seeds as the builder
/// pipelines). Returns `None` for unknown names or shape mismatches.
pub fn resolve_read(spec: &ReadSpec) -> Option<Matrix> {
    let (kind, arg) = spec.name.split_once('/')?;
    let m = match (kind, arg) {
        // HCV folds: regression(rows_per_fold, cols, 0.1, 1 + fold), as
        // in pipelines/hcv.rs. X and y come from the same draw, so the
        // y resolver regenerates with the corpus feature width.
        ("hcv", a) if a.starts_with('X') => {
            let f: u64 = a[1..].parse().ok()?;
            data::regression(spec.rows, spec.cols, 0.1, 1 + f).0
        }
        ("hcv", a) if a.starts_with('y') => {
            let f: u64 = a[1..].parse().ok()?;
            data::regression(spec.rows, 4, 0.1, 1 + f).1
        }
        // PNMF ratings with the +0.1 zero shift of pipelines/pnmf.rs.
        ("pnmf", "X") => binary_scalar(
            &data::movielens_like(spec.rows, spec.cols, 0.3, 2),
            0.1,
            BinaryOp::Add,
            false,
        ),
        ("hband", "X") => data::classification(spec.rows, spec.cols, 3).0,
        ("hband", "y") => data::classification(spec.rows, 4, 3).1,
        ("tlvis", "images") => data::images(spec.rows, 3, 8, 0.0, 7),
        ("cv", "X") => data::regression(spec.rows, spec.cols, 0.1, 21).0,
        ("cv", "y") => data::regression(spec.rows, 5, 0.1, 21).1,
        ("ens", "X") => data::regression(spec.rows, spec.cols, 0.1, 22).0,
        ("ens", "y") => data::regression(spec.rows, 4, 0.1, 22).1,
        ("mb", "X") => data::regression(spec.rows, spec.cols, 0.1, 23).0,
        ("mb", "y") => data::regression(spec.rows, 4, 0.1, 23).1,
        // Generic fallback for generated programs and ad-hoc scripts.
        ("uniform", s) => rand_uniform(spec.rows, spec.cols, -1.0, 1.0, s.parse().ok()?),
        _ => return None,
    };
    (m.shape() == (spec.rows, spec.cols)).then_some(m)
}

/// Result of one script execution.
#[derive(Debug, Clone)]
pub struct ScriptOutcome {
    /// FNV fold over the printed sinks' value bits, in print order.
    pub digest: u64,
    /// Per-sink bits (scalar f64 bits or matrix fingerprint).
    pub sinks: Vec<(String, u64)>,
    /// Interned lineage id of each printed sink (None when tracing off).
    pub lineage: Vec<(String, Option<u64>)>,
    /// Nodes in the lowered program.
    pub nodes: usize,
}

/// Binds every `read` declaration of a compiled script into the context.
pub fn bind_reads(ctx: &mut ExecutionContext, c: &Compiled) -> EngineResult<()> {
    for spec in &c.reads {
        let m = resolve_read(spec).ok_or_else(|| {
            EngineError::Unsupported(format!("no dataset resolver for read(\"{}\")", spec.name))
        })?;
        ctx.read(&spec.var, m, &spec.name)?;
    }
    Ok(())
}

/// Digests a list of result variables: scalars (and 1x1 matrices, which
/// reuse may interchange with scalars) fold their f64 bits, matrices
/// their fingerprint. Shared by script runs and their builder twins so
/// bit-identity is compared on exactly the same bytes.
pub fn sink_digest(
    ctx: &mut ExecutionContext,
    sinks: &[String],
) -> EngineResult<(u64, Vec<(String, u64)>)> {
    let mut digest = hash::FNV_OFFSET;
    let mut per = Vec::new();
    for s in sinks {
        let shape = ctx.value(s)?.shape();
        let bits = if shape == Some((1, 1)) || matches!(ctx.value(s)?, Value::Scalar(_)) {
            ctx.get_scalar(s)?.to_bits()
        } else {
            ctx.get_matrix(s)?.fingerprint()
        };
        digest = hash::fold(digest, bits, hash::FNV_PRIME);
        per.push((s.clone(), bits));
    }
    Ok((digest, per))
}

/// Executes a compiled script end-to-end in `ctx` and digests its sinks.
pub fn run_compiled(ctx: &mut ExecutionContext, c: &Compiled) -> EngineResult<ScriptOutcome> {
    bind_reads(ctx, c)?;
    run_program(ctx, &c.program, Ordering::DepthFirst)?;
    let (digest, sinks) = sink_digest(ctx, &c.prints)?;
    let lineage = c
        .prints
        .iter()
        .map(|p| (p.clone(), ctx.lineage_of(p).map(|l| l.lid.content_hash())))
        .collect();
    Ok(ScriptOutcome {
        digest,
        sinks,
        lineage,
        nodes: c.node_count() as usize,
    })
}

/// Compiles and runs script source text in `ctx`.
pub fn run_source(ctx: &mut ExecutionContext, src: &str) -> Result<ScriptOutcome, String> {
    let c = memphis_script::compile(src).map_err(|e| e.to_string())?;
    run_compiled(ctx, &c).map_err(|e| format!("{e:?}"))
}

/// Runs a corpus script by name under the serving configuration of the
/// supplied context, returning a deterministic f64 checksum (the sink
/// digest) — the scripted analogue of `pipelines::run_session_kind`.
pub fn run_corpus(ctx: &mut ExecutionContext, name: &str) -> EngineResult<f64> {
    let src = corpus_source(name)
        .ok_or_else(|| EngineError::Unsupported(format!("unknown corpus script {name}")))?;
    let c = memphis_script::compile(src)
        .map_err(|e| EngineError::Unsupported(format!("corpus script {name}: {e}")))?;
    let o = run_compiled(ctx, &c)?;
    Ok(o.digest as f64)
}

// ----------------------------------------------------------------------
// Differential runner
// ----------------------------------------------------------------------

static DIFF_RUN: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIFF_RUN.fetch_add(1, AtomicOrdering::Relaxed);
    std::env::temp_dir().join(format!(
        "memphis_script_{}_{}_{}",
        tag,
        std::process::id(),
        n
    ))
}

fn local_ctx(reuse: ReuseMode, cache: CacheConfig) -> ExecutionContext {
    Backends::local().make_ctx(EngineConfig::test().with_reuse(reuse), cache)
}

/// Runs one compiled program under every differential configuration and
/// returns the labeled sink digests:
/// reuse-on (Memphis + `Paper`), reuse-off, delayed-hits (Memphis +
/// `DelayedHits`), and warm-restart (persist, drop the cache, rehydrate
/// over the same directory, re-run).
pub fn differential_digests(c: &Compiled, tag: &str) -> EngineResult<Vec<(&'static str, u64)>> {
    let mut out = Vec::new();

    let mut ctx = local_ctx(ReuseMode::Memphis, CacheConfig::test());
    out.push(("reuse-on", run_compiled(&mut ctx, c)?.digest));

    let mut ctx = local_ctx(ReuseMode::None, CacheConfig::test());
    out.push(("reuse-off", run_compiled(&mut ctx, c)?.digest));

    let mut cfg = CacheConfig::test();
    cfg.policy = CachePolicy::DelayedHits;
    let mut ctx = local_ctx(ReuseMode::Memphis, cfg);
    out.push(("delayed-hits", run_compiled(&mut ctx, c)?.digest));

    let dir = fresh_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut cfg = CacheConfig::test();
        cfg.persist_dir = Some(dir.clone());
        let mut ctx = local_ctx(ReuseMode::Memphis, cfg);
        run_compiled(&mut ctx, c)?;
    }
    let mut cfg = CacheConfig::test();
    cfg.persist_dir = Some(dir.clone());
    cfg.rehydrate_budget = Some(1 << 20);
    let mut ctx = local_ctx(ReuseMode::Memphis, cfg);
    let warm = run_compiled(&mut ctx, c)?.digest;
    drop(ctx);
    let _ = std::fs::remove_dir_all(&dir);
    out.push(("warm-restart", warm));

    Ok(out)
}

/// True when every configuration produced the same digest.
pub fn digests_agree(digests: &[(&'static str, u64)]) -> bool {
    digests.windows(2).all(|w| w[0].1 == w[1].1)
}

fn source_diverges(src: &str, tag: &str) -> bool {
    match memphis_script::compile(src) {
        Ok(c) => match differential_digests(&c, tag) {
            Ok(d) => !digests_agree(&d),
            Err(_) => true, // a config-dependent runtime error is a divergence
        },
        Err(_) => false,
    }
}

/// Outcome of a fuzz campaign.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Programs generated and executed.
    pub programs: u64,
    /// Programs whose configurations disagreed.
    pub divergences: u64,
    /// Total lowered nodes across all programs.
    pub lowered_nodes: u64,
    /// Minimized repro files written (one per divergence).
    pub repros: Vec<PathBuf>,
}

/// Generates `count` seeded programs and runs the full differential on
/// each. Divergences are shrunk with the statement minimizer and written
/// to `repro_dir` (when given) as runnable `.dml` files.
pub fn fuzz_campaign(seed: u64, count: u64, repro_dir: Option<&Path>) -> FuzzReport {
    let mut rep = FuzzReport::default();
    for i in 0..count {
        let src = memphis_script::fuzz::gen_program(seed, i);
        let c = memphis_script::compile(&src)
            .unwrap_or_else(|e| panic!("generated program must compile: {e}\n{src}"));
        rep.programs += 1;
        rep.lowered_nodes += c.node_count() as u64;
        let tag = format!("fz{seed}_{i}");
        let digests = differential_digests(&c, &tag)
            .unwrap_or_else(|e| panic!("generated program must run: {e:?}\n{src}"));
        if digests_agree(&digests) {
            continue;
        }
        rep.divergences += 1;
        let minimized = memphis_script::fuzz::minimize(&src, |cand| source_diverges(cand, &tag));
        if let Some(dir) = repro_dir {
            let _ = std::fs::create_dir_all(dir);
            let path = dir.join(format!("repro_{seed}_{i}.dml"));
            let body = format!("# divergence: {digests:?}\n# seed={seed} index={i}\n{minimized}");
            if std::fs::write(&path, body).is_ok() {
                rep.repros.push(path);
            }
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use memphis_engine::ops::AggDir;
    use memphis_matrix::ops::agg::AggOp;
    use memphis_matrix::ops::unary::UnaryOp;

    fn mph_ctx() -> ExecutionContext {
        local_ctx(ReuseMode::Memphis, CacheConfig::test())
    }

    fn run_corpus_outcome(name: &str) -> ScriptOutcome {
        let src = corpus_source(name).unwrap();
        let c = memphis_script::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut ctx = mph_ctx();
        run_compiled(&mut ctx, &c).unwrap_or_else(|e| panic!("{name}: {e:?}"))
    }

    #[test]
    fn every_corpus_script_compiles_and_runs() {
        for (name, _) in CORPUS {
            let o = run_corpus_outcome(name);
            assert!(o.nodes > 0);
            assert!(!o.sinks.is_empty());
            for (s, l) in &o.lineage {
                assert!(l.is_some(), "{name}: sink {s} must carry lineage");
            }
        }
    }

    #[test]
    fn corpus_differential_holds() {
        for (name, src) in CORPUS {
            let c = memphis_script::compile(src).unwrap();
            let d = differential_digests(&c, name).unwrap();
            assert!(digests_agree(&d), "{name}: {d:?}");
        }
    }

    // ------------------------------------------------------------------
    // Builder twins: the same dataflow issued directly through the
    // builder API. Lineage ids hash (opcode, data, input lineage) — never
    // variable names — so a script and its twin must intern identical ids
    // and produce bit-identical sink digests.
    // ------------------------------------------------------------------

    fn twin_digest(
        build: impl FnOnce(&mut ExecutionContext) -> EngineResult<Vec<String>>,
    ) -> (u64, Vec<Option<u64>>) {
        let mut ctx = mph_ctx();
        let sinks = build(&mut ctx).unwrap();
        let (digest, _) = sink_digest(&mut ctx, &sinks).unwrap();
        let lineage = sinks
            .iter()
            .map(|s| ctx.lineage_of(s).map(|l| l.lid.content_hash()))
            .collect();
        (digest, lineage)
    }

    fn assert_twin(name: &str, (digest, lineage): (u64, Vec<Option<u64>>)) {
        let o = run_corpus_outcome(name);
        assert_eq!(o.digest, digest, "{name}: digest differs from twin");
        let script_lineage: Vec<Option<u64>> = o.lineage.iter().map(|(_, l)| *l).collect();
        assert_eq!(script_lineage, lineage, "{name}: interned lineage differs");
    }

    #[test]
    fn hcv_script_matches_builder_twin() {
        let twin = twin_digest(|ctx| {
            use memphis_matrix::ops::binary::BinaryOp::*;
            for f in 0..3u64 {
                let (x, y) = data::regression(40, 4, 0.1, 1 + f);
                ctx.read(&format!("X{f}"), x, &format!("hcv/X{f}"))?;
                ctx.read(&format!("y{f}"), y, &format!("hcv/y{f}"))?;
            }
            ctx.literal("acc", 0.0)?;
            for reg in [0.1, 0.2, 0.4] {
                ctx.literal("reg", reg)?;
                for hold in 0..3usize {
                    let (a, b) = match hold {
                        0 => (1, 2),
                        1 => (0, 2),
                        _ => (0, 1),
                    };
                    ctx.tsmm("ga", &format!("X{a}"))?;
                    ctx.tsmm("gb", &format!("X{b}"))?;
                    ctx.binary("G", "ga", "gb", Add)?;
                    ctx.xty("ba", &format!("X{a}"), &format!("y{a}"))?;
                    ctx.xty("bb", &format!("X{b}"), &format!("y{b}"))?;
                    ctx.binary("b", "ba", "bb", Add)?;
                    ctx.binary("A", "G", "reg", Add)?;
                    ctx.solve("w", "A", "b")?;
                    ctx.matmul("p", &format!("X{hold}"), "w")?;
                    ctx.binary("e", "p", &format!("y{hold}"), Sub)?;
                    ctx.binary("sq", "e", "e", Mul)?;
                    ctx.agg(&format!("m{hold}"), "sq", AggOp::Mean, AggDir::Full)?;
                }
                ctx.binary("acc1", "acc", "m0", Add)?;
                ctx.binary("acc2", "acc1", "m1", Add)?;
                ctx.binary("acc", "acc2", "m2", Add)?;
            }
            Ok(vec!["acc".into(), "w".into()])
        });
        assert_twin("hcv", twin);
    }

    #[test]
    fn pnmf_script_matches_builder_twin() {
        let twin = twin_digest(|ctx| {
            use memphis_matrix::ops::binary::BinaryOp::*;
            let x = binary_scalar(&data::movielens_like(64, 16, 0.3, 2), 0.1, Add, false);
            ctx.read("X", x, "pnmf/X")?;
            ctx.rand("W", 64, 4, 0.1, 1.0, 3)?;
            ctx.rand("H", 4, 16, 0.1, 1.0, 4)?;
            ctx.literal("loss", 0.0)?;
            for it in [1.0, 2.0, 3.0] {
                ctx.literal("it", it)?;
                ctx.matmul("WH", "W", "H")?;
                ctx.binary("R", "X", "WH", Div)?;
                ctx.xty("Hnum", "W", "R")?;
                ctx.agg("Wcs", "W", AggOp::Sum, AggDir::Col)?;
                ctx.transpose("Wcs_t", "Wcs")?;
                ctx.binary("Hs", "Hnum", "Wcs_t", Div)?;
                ctx.binary("H", "H", "Hs", Mul)?;
                ctx.transpose("Ht", "H")?;
                ctx.matmul("RHt", "R", "Ht")?;
                ctx.agg("Hrs", "H", AggOp::Sum, AggDir::Row)?;
                ctx.transpose("Hrs_t", "Hrs")?;
                ctx.binary("Ws", "RHt", "Hrs_t", Div)?;
                ctx.binary("W", "W", "Ws", Mul)?;
                ctx.checkpoint("W")?;
                ctx.matmul("WH2", "W", "H")?;
                ctx.binary("D", "X", "WH2", Sub)?;
                ctx.binary("D2", "D", "D", Mul)?;
                ctx.agg("loss", "D2", AggOp::Sum, AggDir::Full)?;
            }
            Ok(vec!["loss".into(), "W".into(), "H".into()])
        });
        assert_twin("pnmf", twin);
    }

    #[test]
    fn hband_script_matches_builder_twin() {
        let twin = twin_digest(|ctx| {
            use memphis_matrix::ops::binary::BinaryOp::*;
            let (x, y) = data::classification(60, 4, 3);
            ctx.read("X", x, "hband/X")?;
            ctx.read("y", y, "hband/y")?;
            // parfor-unrolled training: const hyper-parameters fold to
            // binary_const, exactly like inlined const function params.
            let step = |ctx: &mut ExecutionContext, w: &str, reg: f64, sig: bool| {
                ctx.matmul("p0", "X", w)?;
                let pred = if sig {
                    ctx.unary("p", "p0", UnaryOp::Sigmoid)?;
                    "p"
                } else {
                    "p0"
                };
                ctx.binary("e", pred, "y", Sub)?;
                ctx.xty("g0", "X", "e")?;
                ctx.binary_const("rw", w, reg, Mul, false)?;
                ctx.binary("g", "g0", "rw", Add)?;
                ctx.binary_const("st", "g", 0.002, Mul, false)?;
                ctx.binary(w, w, "st", Sub)
            };
            ctx.rand("w1", 4, 1, 0.0, 0.0, 7)?;
            for _ in 0..3 {
                step(ctx, "w1", 0.01, false)?;
            }
            ctx.rand("w2", 4, 1, 0.0, 0.0, 11)?;
            for _ in 0..3 {
                step(ctx, "w2", 0.02, true)?;
            }
            ctx.matmul("P1", "X", "w1")?;
            ctx.matmul("P2", "X", "w2")?;
            ctx.literal("best", 1e9)?;
            for a in [0.0, 0.25, 0.5, 0.75] {
                ctx.literal("a", a)?;
                ctx.binary("P1w", "P1", "a", Mul)?;
                ctx.binary_const("na", "a", 1.0, Sub, true)?;
                ctx.binary("P2w", "P2", "na", Mul)?;
                ctx.binary("P", "P1w", "P2w", Add)?;
                ctx.binary("E", "P", "y", Sub)?;
                ctx.binary("E2", "E", "E", Mul)?;
                ctx.agg("s", "E2", AggOp::Mean, AggDir::Full)?;
                ctx.binary("best", "best", "s", Min)?;
            }
            Ok(vec!["best".into(), "w1".into(), "w2".into()])
        });
        assert_twin("hband", twin);
    }

    #[test]
    fn tlvis_script_matches_builder_twin() {
        use memphis_matrix::ops::nn::{Conv2dParams, Pool2dParams};
        let twin = twin_digest(|ctx| {
            use memphis_matrix::ops::binary::BinaryOp::*;
            ctx.read("IMG", data::images(8, 3, 8, 0.0, 7), "tlvis/images")?;
            let conv = |inc: usize, outc: usize, side: usize| Conv2dParams {
                in_channels: inc,
                out_channels: outc,
                height: side,
                width: side,
                kernel: 3,
                stride: 1,
                pad: 1,
            };
            ctx.rand("Wc", 8, 27, -0.3, 0.3, 300)?;
            ctx.conv2d("c1", "IMG", "Wc", conv(3, 8, 8))?;
            ctx.unary("C1", "c1", UnaryOp::Relu)?;
            ctx.max_pool2d(
                "P1",
                "C1",
                Pool2dParams {
                    channels: 8,
                    height: 8,
                    width: 8,
                    window: 2,
                    stride: 2,
                },
            )?;
            ctx.rand("Wf", 128, 16, -0.3, 0.3, 400)?;
            ctx.rand("bf", 1, 16, 0.0, 0.0, 500)?;
            ctx.affine("a1", "P1", "Wf", "bf")?;
            ctx.unary("F1", "a1", UnaryOp::Relu)?;
            ctx.agg("vc0", "P1", AggOp::Var, AggDir::Col)?;
            ctx.agg("v0", "vc0", AggOp::Mean, AggDir::Full)?;
            ctx.agg("vc1", "F1", AggOp::Var, AggDir::Col)?;
            ctx.agg("v1", "vc1", AggOp::Mean, AggDir::Full)?;
            ctx.evict_gpu(1.0);
            ctx.rand("Wc2", 8, 27, -0.3, 0.3, 310)?;
            ctx.conv2d("c2", "IMG", "Wc2", conv(3, 8, 8))?;
            ctx.unary("C2", "c2", UnaryOp::Relu)?;
            ctx.max_pool2d(
                "P2",
                "C2",
                Pool2dParams {
                    channels: 8,
                    height: 8,
                    width: 8,
                    window: 2,
                    stride: 2,
                },
            )?;
            ctx.rand("Wc3", 16, 72, -0.3, 0.3, 311)?;
            ctx.conv2d("c3", "P2", "Wc3", conv(8, 16, 4))?;
            ctx.unary("C3", "c3", UnaryOp::Relu)?;
            ctx.rand("Wf2", 256, 16, -0.3, 0.3, 410)?;
            ctx.rand("bf2", 1, 16, 0.0, 0.0, 510)?;
            ctx.affine("a2", "C3", "Wf2", "bf2")?;
            ctx.unary("F2", "a2", UnaryOp::Relu)?;
            ctx.agg("vc2", "C3", AggOp::Var, AggDir::Col)?;
            ctx.agg("v2", "vc2", AggOp::Mean, AggDir::Full)?;
            ctx.agg("vc3", "F2", AggOp::Var, AggDir::Col)?;
            ctx.agg("v3", "vc3", AggOp::Mean, AggDir::Full)?;
            ctx.binary("s01", "v0", "v1", Add)?;
            ctx.binary("s012", "s01", "v2", Add)?;
            ctx.binary("score", "s012", "v3", Add)?;
            Ok(vec!["score".into(), "F1".into(), "F2".into()])
        });
        assert_twin("tlvis", twin);
    }

    #[test]
    fn script_session_kinds_run_over_shared_cache() {
        // The three script-only pipelines as serving tenants: sessions
        // share one lineage cache, and per-kind checksums are stable
        // across sessions (the serve-harness invariant).
        use crate::pipelines::{self, SCRIPT_SESSION_MIX};
        use memphis_core::cache::LineageCache;
        use std::sync::Arc;
        let cache = Arc::new(LineageCache::new(CacheConfig::test()));
        let mut seen = std::collections::HashMap::new();
        for s in 0..6 {
            let kind = SCRIPT_SESSION_MIX[s % SCRIPT_SESSION_MIX.len()];
            let mut ctx = pipelines::session_context(&cache);
            let check = pipelines::run_session_kind(&mut ctx, kind).unwrap();
            let prev = seen.insert(kind, check);
            if let Some(p) = prev {
                assert_eq!(p, check, "{kind}: checksum must be session-stable");
            }
        }
        assert_eq!(seen.len(), 3);
        assert!(cache.stats().hits_local > 0, "tenants share reuse");
    }

    #[test]
    fn fuzz_smoke_is_divergence_free() {
        for seed in [42, 1337] {
            let rep = fuzz_campaign(seed, 10, None);
            assert_eq!(rep.programs, 10);
            assert_eq!(rep.divergences, 0, "seed {seed}: {rep:?}");
            assert!(rep.lowered_nodes > 0);
        }
    }

    #[test]
    fn minimizer_writes_runnable_repro_for_forced_divergence() {
        // Force a "divergence" through the minimizer path by shrinking a
        // program against a content oracle, then verify the output still
        // compiles and runs — the repro-file contract.
        let src = memphis_script::fuzz::gen_program(42, 0);
        let min = memphis_script::fuzz::minimize(&src, |s| s.contains("rand"));
        let c = memphis_script::compile(&min).unwrap();
        let mut ctx = mph_ctx();
        run_compiled(&mut ctx, &c).unwrap();
    }

    #[test]
    fn unknown_read_name_is_rejected() {
        let c = memphis_script::compile("Z = read(\"nope/xyz\", 2, 2);\nprint(Z);\n").unwrap();
        let mut ctx = mph_ctx();
        assert!(run_compiled(&mut ctx, &c).is_err());
    }
}
