//! Table 3: the ML pipeline inventory with measured workload statistics
//! from small verification runs of every pipeline.

use memphis_bench::{bench_cache, bench_gpu, bench_spark, header, obs_finish, obs_init, tier_rows};
use memphis_engine::EngineConfig;
use memphis_workloads::harness::{run_timed, Backends};
use memphis_workloads::pipelines::{clean, en2de, hband, hcv, hdrop, pnmf, tlvis};

fn main() {
    obs_init();
    header(
        "Table 3: ML pipeline use cases",
        "seven pipelines spanning grid search, factorization, model search, \
         cleaning, dropout tuning, inference, and transfer learning",
    );
    println!(
        "{:<7} {:<38} {:<28} verification run",
        "Name", "Use case", "Influential techniques"
    );
    let cfg = EngineConfig::benchmark();
    let rows: Vec<(&str, &str, &str, f64, u64, String)> = vec![
        {
            let b = Backends::with_spark(bench_spark());
            let mut ctx = b.make_ctx(cfg.clone(), bench_cache(32 << 20));
            let p = hcv::HcvParams::small();
            let o = run_timed("HCV", &mut ctx, |c| hcv::run(c, &p)).unwrap();
            (
                "HCV",
                "Grid search / cross validation",
                "async OPs, local & RDD reuse",
                o.elapsed.as_secs_f64(),
                o.engine.reused,
                tier_rows(&o),
            )
        },
        {
            let b = Backends::with_spark(bench_spark());
            let mut ctx = b.make_ctx(cfg.clone(), bench_cache(32 << 20));
            let p = pnmf::PnmfParams::small();
            let o = run_timed("PNMF", &mut ctx, |c| pnmf::run(c, &p)).unwrap();
            (
                "PNMF",
                "Non-negative matrix factorization",
                "checkpoint placement",
                o.elapsed.as_secs_f64(),
                o.engine.reused,
                tier_rows(&o),
            )
        },
        {
            let b = Backends::local();
            let mut ctx = b.make_ctx(cfg.clone(), bench_cache(32 << 20));
            let p = hband::HbandParams::small();
            let o = run_timed("HBAND", &mut ctx, |c| hband::run(c, &p)).unwrap();
            (
                "HBAND",
                "Hyperband model selection",
                "multi-level reuse, delayed caching",
                o.elapsed.as_secs_f64(),
                o.engine.reused,
                tier_rows(&o),
            )
        },
        {
            let b = Backends::local();
            let mut ctx = b.make_ctx(cfg.clone(), bench_cache(32 << 20));
            let p = clean::CleanParams::small();
            let o = run_timed("CLEAN", &mut ctx, |c| clean::run(c, &p)).unwrap();
            (
                "CLEAN",
                "Data cleaning pipelines",
                "many intermediates & evictions",
                o.elapsed.as_secs_f64(),
                o.engine.reused,
                tier_rows(&o),
            )
        },
        {
            let b = Backends::with_gpu(bench_gpu(64 << 20));
            let mut ctx = b.make_ctx(cfg.clone(), bench_cache(32 << 20));
            let p = hdrop::HdropParams::small();
            let o = run_timed("HDROP", &mut ctx, |c| hdrop::run(c, &p)).unwrap();
            (
                "HDROP",
                "Dropout rate tuning",
                "local and GPU ptr. reuse",
                o.elapsed.as_secs_f64(),
                o.engine.reused,
                tier_rows(&o),
            )
        },
        {
            let b = Backends::with_gpu(bench_gpu(64 << 20));
            let mut ctx = b.make_ctx(cfg.clone(), bench_cache(32 << 20));
            let p = en2de::En2deParams::small();
            let o = run_timed("EN2DE", &mut ctx, |c| en2de::run(c, &p)).unwrap();
            (
                "EN2DE",
                "Machine translation inference",
                "recycle & reuse GPU ptrs.",
                o.elapsed.as_secs_f64(),
                o.engine.reused,
                tier_rows(&o),
            )
        },
        {
            let b = Backends::with_gpu(bench_gpu(64 << 20));
            let mut ctx = b.make_ctx(cfg.clone(), bench_cache(32 << 20));
            let p = tlvis::TlvisParams::small();
            let o = run_timed("TLVIS", &mut ctx, |c| tlvis::run(c, &p)).unwrap();
            (
                "TLVIS",
                "Transfer learning feature extraction",
                "evictions & mem. management",
                o.elapsed.as_secs_f64(),
                o.engine.reused,
                tier_rows(&o),
            )
        },
    ];
    for (name, case, tech, secs, reused, _) in &rows {
        println!("{name:<7} {case:<38} {tech:<28} {secs:.3}s, {reused} reused");
    }
    println!("\nper-backend stats (from LineageCache::backend_snapshots):");
    for (name, _, _, _, _, report) in &rows {
        println!("  {name}:\n{report}");
    }
    obs_finish();
}
