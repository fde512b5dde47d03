//! Ablations of MEMPHIS's §5 design choices, on top of the paper's
//! figures: (1) the delayed-caching factor n, (2) eviction injection
//! between GPU loops with shifting allocation patterns, and (3) the
//! maxParallelize operator ordering versus plain depth-first.

use memphis_bench::{
    bench_cache, bench_gpu, bench_spark, cache_report, header, obs_absorb, obs_finish, obs_init,
};
use memphis_engine::compiler::Ordering;
use memphis_engine::interp::run_program;
use memphis_engine::plan::{Block, BlockHints, Dag, OpKind, Operand, Program, ScalarRef};
use memphis_engine::{EngineConfig, ReuseMode};
use memphis_matrix::ops::binary::BinaryOp;
use memphis_workloads::harness::Backends;
use memphis_workloads::pipelines::tlvis;
use std::time::Instant;

fn main() {
    obs_init();
    delayed_caching_ablation();
    eviction_injection_ablation();
    ordering_ablation();
    obs_finish();
}

/// Delay factor n on a stream where only 25% of the RDD-producing
/// instructions ever repeat: n=1 persists everything (cache pollution and
/// eviction churn), larger n defers persistence to proven repeaters.
fn delayed_caching_ablation() {
    header(
        "Ablation: delayed caching (§5.2)",
        "delay n=1 caches eagerly (pollution under low reuse); n=2 defers \
         until the second execution; n=4 for loop-dependent blocks",
    );
    for delay in [1u32, 2, 4] {
        let b = Backends::with_spark(bench_spark());
        let mut cfg = EngineConfig::benchmark().with_reuse(ReuseMode::Memphis);
        cfg.spark_threshold_bytes = 0;
        cfg.blen = 128;
        cfg.async_ops = false;
        cfg.delay_factor = delay;
        let mut ctx = b.make_ctx(cfg, bench_cache(16 << 20));
        let x = memphis_matrix::rand_gen::rand_uniform(2048, 16, -1.0, 1.0, 3);
        ctx.read("X", x, "abl/X").unwrap();
        let t0 = Instant::now();
        // 200 distinct scales, of which 50 repeat once at the end.
        for i in 0..200usize {
            ctx.binary_const("Y", "X", i as f64 + 1.5, BinaryOp::Mul, false)
                .unwrap();
        }
        for i in 0..50usize {
            ctx.binary_const("Y", "X", i as f64 + 1.5, BinaryOp::Mul, false)
                .unwrap();
        }
        let elapsed = t0.elapsed();
        let sc_stats = b.sc.as_ref().unwrap().stats();
        let r = ctx.cache().stats();
        println!(
            "n={delay}: {:.3}s  rdd-persists(est)={}B  unpersists={} deferred-puts={} reused={}",
            elapsed.as_secs_f64(),
            ctx.cache().rdd_est_bytes(),
            r.rdd_unpersists,
            r.puts_deferred,
            ctx.stats.reused,
        );
        obs_absorb(&sc_stats);
        println!("{}", cache_report(ctx.cache()));
    }
}

/// TLVIS with and without the compiler's `evict(100)` between models.
fn eviction_injection_ablation() {
    header(
        "Ablation: eviction injection (§5.2)",
        "without evict() between models with shifted allocation patterns, \
         the free pools mismatch and allocation falls back to freeing \
         pointers one at a time (Figure 9(b))",
    );
    for evict in [false, true] {
        let b = Backends::with_gpu(bench_gpu(24 << 20)); // tight device
        let mut cfg = EngineConfig::benchmark().with_reuse(ReuseMode::Memphis);
        cfg.gpu_min_cells = 1024;
        let mut ctx = b.make_ctx(cfg, bench_cache(32 << 20));
        let mut p = tlvis::TlvisParams::benchmark(48, 16);
        p.evict_between_models = evict;
        let t0 = Instant::now();
        let check = tlvis::run(&mut ctx, &p).unwrap();
        let elapsed = t0.elapsed();
        let d = b.gpu.as_ref().unwrap().stats();
        let r = ctx.cache().stats();
        println!(
            "evict={evict}: {:.3}s check={check:.4}  cudaMalloc={} cudaFree={} recycled={} d2h-evict={}",
            elapsed.as_secs_f64(),
            d.allocs,
            d.frees,
            r.gpu_recycled,
            r.gpu_evicted_to_host,
        );
        obs_absorb(&d);
        println!("{}", cache_report(ctx.cache()));
    }
}

/// Algorithm 2 ordering vs depth-first on a DAG with two independent
/// Spark jobs and a local tail: maxParallelize triggers the longer job
/// first so the two prefetches overlap.
fn ordering_ablation() {
    header(
        "Ablation: operator ordering (Algorithm 2)",
        "maxParallelize linearizes longer remote chains first, increasing \
         overlap of concurrent Spark jobs vs plain depth-first",
    );
    // b1 = tsmm(exp(X)); b2 = t(X) y; out = solve(b1 + reg, b2)
    let mut dag = Dag::new();
    let e = dag.add(
        OpKind::Unary(memphis_matrix::ops::unary::UnaryOp::Exp),
        vec![Operand::Var("X".into())],
        None,
    );
    let g = dag.add(OpKind::Tsmm, vec![Operand::Node(e)], None);
    let b2 = dag.add(
        OpKind::Xty,
        vec![Operand::Var("X".into()), Operand::Var("y".into())],
        None,
    );
    let a = dag.add(
        OpKind::BinaryScalar {
            op: BinaryOp::Add,
            scalar: ScalarRef::Const(0.1),
            swap: false,
        },
        vec![Operand::Node(g)],
        None,
    );
    dag.add(
        OpKind::Solve,
        vec![Operand::Node(a), Operand::Node(b2)],
        Some("w"),
    );
    let mut program = Program::new();
    program.declare("X", 8192, 32);
    program.declare("y", 8192, 1);
    program.blocks.push(Block::Basic {
        dag,
        hints: BlockHints::default(),
    });

    for (label, ordering) in [
        ("depth-first", Ordering::DepthFirst),
        ("maxParallelize", Ordering::MaxParallelize),
    ] {
        let b = Backends::with_spark(bench_spark());
        let mut cfg = EngineConfig::benchmark().with_reuse(ReuseMode::None);
        cfg.spark_threshold_bytes = 64 << 10;
        cfg.blen = 512;
        cfg.async_ops = true; // actions run as concurrent jobs
        let mut ctx = b.make_ctx(cfg, bench_cache(16 << 20));
        let (x, y) = memphis_workloads::data::regression(8192, 32, 0.1, 5);
        ctx.read("X", x, "ord/X").unwrap();
        ctx.read("y", y, "ord/y").unwrap();
        let t0 = Instant::now();
        for _ in 0..10 {
            run_program(&mut ctx, &program, ordering).unwrap();
            ctx.get_matrix("w").unwrap();
            ctx.cache().clear(); // isolate ordering (no reuse between runs)
        }
        println!("{label:<15} {:.3}s (10 runs)", t0.elapsed().as_secs_f64());
    }
}
