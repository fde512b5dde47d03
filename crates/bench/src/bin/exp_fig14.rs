//! Figure 14: end-to-end ML pipelines, part II — CLEAN (a), HDROP (b),
//! EN2DE (c), TLVIS (d), including the application-specific baselines the
//! paper compares against (CoorDL ≈ local-only IDP reuse, Clipper ≈
//! host-side prediction cache, VISTA ≈ cross-pipeline CSE, PyTorch ≈ GPU
//! recycling allocator without cross-iteration reuse).

use memphis_bench::{
    bench_cache, bench_gpu, header, obs_backends, obs_finish, obs_init, report, verify_checks,
    ExpConfig,
};
use memphis_engine::{EngineConfig, ReuseMode};
use memphis_workloads::harness::{run_timed, Backends};
use memphis_workloads::pipelines::{clean, en2de, hdrop, tlvis};

fn main() {
    obs_init();
    clean_experiment();
    hdrop_experiment();
    en2de_experiment();
    tlvis_experiment();
    obs_finish();
}

fn clean_experiment() {
    header(
        "Figure 14(a) CLEAN",
        "MPH 3.9x/3.5x over Base/LIMA at scale 120 by reusing repeated cleaning \
         primitives across the 12 enumerated pipelines",
    );
    for scale in [4usize, 8] {
        println!("-- scale factor {scale} --");
        let p = clean::CleanParams::benchmark(scale);
        let mut rows = Vec::new();
        for cfg in [ExpConfig::Base, ExpConfig::Lima, ExpConfig::Mph] {
            let b = Backends::local();
            let mut ctx = b.make_ctx(cfg.engine(EngineConfig::benchmark()), bench_cache(64 << 20));
            rows.push(run_timed(cfg.label(), &mut ctx, |c| clean::run(c, &p)).expect("clean"));
        }
        verify_checks(&rows, 1e-6);
        report(&rows);
    }
}

fn hdrop_experiment() {
    header(
        "Figure 14(b) HDROP",
        "MPH 1.7x over Base-G by reusing the batch-wise input data pipeline \
         across epochs and dropout rates; CoorDL (CPU-side IDP reuse only) \
         24% slower than MPH",
    );
    // The paper's Base-G benefits from a device that is faster than the
    // host; our simulated device executes kernels at host speed plus
    // overheads, so the A40's raw-speed advantage cannot reproduce. The
    // reuse comparison therefore runs host-placed (the IDP and training
    // share one backend), with one GPU-placed reference row.
    let p = hdrop::HdropParams::benchmark(2048);
    let mut rows = Vec::new();
    let configs: Vec<(&str, EngineConfig)> = vec![
        ("Base", {
            let mut c = EngineConfig::benchmark().with_reuse(ReuseMode::None);
            c.gpu_min_cells = usize::MAX; // host only
            c
        }),
        ("CoorDL", {
            // IDP reuse on the host only: LIMA semantics.
            let mut c = EngineConfig::benchmark().with_reuse(ReuseMode::Lima);
            c.gpu_min_cells = usize::MAX;
            c
        }),
        ("MPH", {
            let mut c = EngineConfig::benchmark().with_reuse(ReuseMode::Memphis);
            c.gpu_min_cells = usize::MAX;
            c
        }),
        ("Base-G", {
            let mut c = EngineConfig::benchmark().with_reuse(ReuseMode::None);
            c.gpu_min_cells = 2048;
            c
        }),
    ];
    for (label, mut cfg) in configs {
        let b = Backends::with_gpu(bench_gpu(256 << 20));
        // Delayed caching n=2, set here by hand (the value §5.2's tuner
        // picks for a partially loop-dependent training block):
        // never-repeating training intermediates are not admitted, the
        // repeating IDP is.
        cfg.delay_factor = 2;
        let mut ctx = b.make_ctx(cfg, bench_cache(64 << 20));
        rows.push(run_timed(label, &mut ctx, |c| hdrop::run(c, &p)).expect("hdrop"));
        obs_backends(&b);
    }
    verify_checks(&rows, 1e-6);
    report(&rows);
}

fn en2de_experiment() {
    header(
        "Figure 14(c) EN2DE",
        "MPH 5x over Base-G (host-side prediction reuse eliminates GPU work); \
         MPH-F (fine-grained only) 4x; Clipper ~ MPH; PyTorch 2x over Base-G \
         but 2.4x slower than MPH",
    );
    let tokens = 1200;
    let mut rows = Vec::new();
    // Base-G: no reuse, recycling allocator (PyTorch-like memory behaviour).
    {
        let b = Backends::with_gpu(bench_gpu(128 << 20));
        let mut cfg = EngineConfig::benchmark().with_reuse(ReuseMode::None);
        cfg.gpu_min_cells = 1; // the whole forward pass runs on the device
        let mut ctx = b.make_ctx(cfg, bench_cache(64 << 20));
        let p = en2de::En2deParams::benchmark(tokens, false);
        rows.push(run_timed("Base-G", &mut ctx, |c| en2de::run(c, &p)).expect("en2de"));
    }
    // PyTorch-naive: no reuse, no pointer recycling (cudaMalloc/Free per op).
    {
        let b = Backends::with_gpu(bench_gpu(128 << 20));
        let mut cfg = EngineConfig::benchmark().with_reuse(ReuseMode::None);
        cfg.gpu_min_cells = 1; // the whole forward pass runs on the device
        cfg.gpu_recycling = false;
        let mut ctx = b.make_ctx(cfg, bench_cache(64 << 20));
        let p = en2de::En2deParams::benchmark(tokens, false);
        rows.push(run_timed("PyT-naive", &mut ctx, |c| en2de::run(c, &p)).expect("en2de"));
    }
    // MPH-F: fine-grained only (no prediction-level entries).
    {
        let b = Backends::with_gpu(bench_gpu(128 << 20));
        let mut cfg = EngineConfig::benchmark().with_reuse(ReuseMode::Memphis);
        cfg.gpu_min_cells = 1; // the whole forward pass runs on the device
        let mut ctx = b.make_ctx(cfg, bench_cache(64 << 20));
        let p = en2de::En2deParams::benchmark(tokens, false);
        rows.push(run_timed("MPH-F", &mut ctx, |c| en2de::run(c, &p)).expect("en2de"));
    }
    // Clipper: prediction cache only (function-level reuse, no op reuse).
    {
        let b = Backends::with_gpu(bench_gpu(128 << 20));
        let mut cfg = EngineConfig::benchmark().with_reuse(ReuseMode::Helix);
        cfg.gpu_min_cells = 1; // the whole forward pass runs on the device
        let mut ctx = b.make_ctx(cfg, bench_cache(64 << 20));
        let p = en2de::En2deParams::benchmark(tokens, true);
        rows.push(run_timed("Clipper", &mut ctx, |c| en2de::run(c, &p)).expect("en2de"));
    }
    // MPH: multi-level + fine-grained.
    {
        let b = Backends::with_gpu(bench_gpu(128 << 20));
        let mut cfg = EngineConfig::benchmark().with_reuse(ReuseMode::Memphis);
        cfg.gpu_min_cells = 1; // the whole forward pass runs on the device
        let mut ctx = b.make_ctx(cfg, bench_cache(64 << 20));
        let p = en2de::En2deParams::benchmark(tokens, true);
        rows.push(run_timed("MPH", &mut ctx, |c| en2de::run(c, &p)).expect("en2de"));
        obs_backends(&b);
    }
    verify_checks(&rows, 0.0);
    report(&rows);
}

fn tlvis_experiment() {
    header(
        "Figure 14(d) TLVIS",
        "MPH 2x/3x (CIFAR/ImageNet) by reusing repeated feature extraction; \
         eviction injection between models keeps the allocator healthy; \
         VISTA ~ MPH; PyTorch-Clr 1.5x slower than MPH",
    );
    for (name, side, images) in [("CIFAR-like", 16usize, 96usize), ("ImageNet-like", 32, 48)] {
        println!("-- {name}: {images} images {side}x{side} --");
        let mut rows = Vec::new();
        // Base-G: recycling allocator, no reuse (PyTorch-Clr analogue —
        // the evict between models stands in for empty_cache()).
        for (label, mode) in [
            ("PyT-Clr", ReuseMode::None),
            ("VISTA", ReuseMode::Lima),
            ("MPH", ReuseMode::Memphis),
        ] {
            let b = Backends::with_gpu(bench_gpu(192 << 20));
            let mut cfg = EngineConfig::benchmark().with_reuse(mode);
            cfg.gpu_min_cells = 1024;
            let mut ctx = b.make_ctx(cfg, bench_cache(64 << 20));
            let p = tlvis::TlvisParams::benchmark(images, side);
            rows.push(run_timed(label, &mut ctx, |c| tlvis::run(c, &p)).expect("tlvis"));
            obs_backends(&b);
        }
        verify_checks(&rows, 1e-6);
        report(&rows);
    }
}
