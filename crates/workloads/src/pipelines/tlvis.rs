//! TLVIS: transfer-learning feature extraction from multiple pre-trained
//! CNNs (Figure 14(d)). For each model, features are extracted at several
//! candidate layers over the same frozen prefix — MEMPHIS reuses the
//! shared forward computation, and an `evict` the pipeline places between
//! models (where §5.2's eviction injection would) clears the GPU free
//! lists when their allocation patterns differ (Figure 9(b)).

use crate::builtins;
use crate::data;
use memphis_engine::context::Result;
use memphis_engine::ops::AggDir;
use memphis_engine::ExecutionContext;
use memphis_matrix::ops::agg::AggOp;
use memphis_matrix::ops::nn::{Conv2dParams, Pool2dParams};

/// TLVIS parameters.
#[derive(Debug, Clone)]
pub struct TlvisParams {
    /// Test images.
    pub images: usize,
    /// Image side length (channels fixed at 3).
    pub side: usize,
    /// Duplicate-image rate in the stream.
    pub dup_rate: f64,
    /// Dataset seed.
    pub seed: u64,
    /// Place `evict(100%)` between models (where §5.2's eviction
    /// injection would; on for MPH, off for the no-eviction ablation).
    pub evict_between_models: bool,
}

impl TlvisParams {
    /// Tiny configuration for tests.
    pub fn small() -> Self {
        Self {
            images: 8,
            side: 8,
            dup_rate: 0.0,
            seed: 7,
            evict_between_models: true,
        }
    }

    /// Benchmark scale (CIFAR-like 32x32 when `side` is 32).
    pub fn benchmark(images: usize, side: usize) -> Self {
        Self {
            images,
            side,
            dup_rate: 0.0,
            seed: 7,
            evict_between_models: true,
        }
    }
}

struct ModelSpec {
    name: &'static str,
    /// Output channels of each conv stage.
    convs: Vec<usize>,
    /// Fully-connected widths after the convolutional trunk.
    fcs: Vec<usize>,
}

fn models() -> Vec<ModelSpec> {
    vec![
        ModelSpec {
            name: "alexnet",
            convs: vec![8, 16],
            fcs: vec![32, 16],
        },
        ModelSpec {
            name: "vgg16",
            convs: vec![8, 16, 16],
            fcs: vec![32, 16],
        },
        ModelSpec {
            name: "resnet18",
            convs: vec![8, 8, 16, 16],
            fcs: vec![16],
        },
    ]
}

/// Runs TLVIS; returns the summed transferability proxy scores.
pub fn run(ctx: &mut ExecutionContext, p: &TlvisParams) -> Result<f64> {
    let x = data::images(p.images, 3, p.side, p.dup_rate, p.seed);
    ctx.read("IMG", x, "tlvis/images")?;
    let mut total = 0.0;
    for (mi, model) in models().iter().enumerate() {
        if mi > 0 && p.evict_between_models {
            // Eviction injection between models with shifted allocation
            // patterns (§5.2).
            ctx.evict_gpu(1.0);
        }
        total += extract_and_rank(ctx, p, model, mi)?;
    }
    Ok(total)
}

/// Forward through the frozen trunk; extract features at each of the last
/// `fcs.len() + 1` layers and rank them with a variance-based linear-proxy
/// score (LEEP-style stand-in).
fn extract_and_rank(
    ctx: &mut ExecutionContext,
    p: &TlvisParams,
    model: &ModelSpec,
    mi: usize,
) -> Result<f64> {
    let mut score_sum = 0.0;
    let n_extract = model.fcs.len() + 1; // trunk output + each FC layer
    for layer_choice in 0..n_extract {
        // Re-run the forward pass up to the chosen layer; the shared
        // prefix is reused fine-grained across choices.
        let mut side = p.side;
        let mut channels = 3usize;
        let mut cur = "IMG".to_string();
        for (ci, &out_ch) in model.convs.iter().enumerate() {
            let conv = Conv2dParams {
                in_channels: channels,
                out_channels: out_ch,
                height: side,
                width: side,
                kernel: 3,
                stride: 1,
                pad: 1,
            };
            let wname = format!("W_{}_{ci}", model.name);
            if !ctx.has(&wname) {
                ctx.rand(
                    &wname,
                    out_ch,
                    channels * 9,
                    -0.3,
                    0.3,
                    300 + mi as u64 * 10 + ci as u64,
                )?;
            }
            let out = format!("__tl_c{ci}");
            builtins::conv_relu(ctx, &cur, &wname, conv, &out)?;
            cur = out;
            channels = out_ch;
            if side >= 4 && ci % 2 == 1 {
                let pool = Pool2dParams {
                    channels,
                    height: side,
                    width: side,
                    window: 2,
                    stride: 2,
                };
                let pout = format!("__tl_p{ci}");
                builtins::pool(ctx, &cur, pool, &pout)?;
                cur = pout;
                side /= 2;
            }
        }
        // FC tail up to the chosen extraction layer.
        let mut width = channels * side * side;
        for (fi, &fc_width) in model.fcs.iter().take(layer_choice).enumerate() {
            let wname = format!("Wfc_{}_{fi}", model.name);
            let bname = format!("bfc_{}_{fi}", model.name);
            if !ctx.has(&wname) {
                ctx.rand(
                    &wname,
                    width,
                    fc_width,
                    -0.3,
                    0.3,
                    400 + mi as u64 * 10 + fi as u64,
                )?;
                ctx.rand(
                    &bname,
                    1,
                    fc_width,
                    0.0,
                    0.0,
                    500 + mi as u64 * 10 + fi as u64,
                )?;
            }
            let out = format!("__tl_fc{fi}");
            builtins::fc_relu(ctx, &cur, &wname, &bname, &out)?;
            cur = out;
            width = fc_width;
        }
        // Transferability proxy: mean feature variance.
        ctx.agg("__tl_var", &cur, AggOp::Var, AggDir::Col)?;
        ctx.agg("__tl_score", "__tl_var", AggOp::Mean, AggDir::Full)?;
        score_sum += ctx.get_scalar("__tl_score")?;
    }
    Ok(score_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Backends;
    use memphis_core::cache::config::CacheConfig;
    use memphis_engine::{EngineConfig, ReuseMode};
    use memphis_gpusim::GpuConfig;

    #[test]
    fn shared_prefixes_reused_across_layer_choices() {
        let p = TlvisParams::small();
        let b = Backends::local();
        let mut base = b.make_ctx(
            EngineConfig::test().with_reuse(ReuseMode::None),
            CacheConfig::test(),
        );
        let s0 = run(&mut base, &p).unwrap();
        let mut mph = b.make_ctx(
            EngineConfig::test().with_reuse(ReuseMode::Memphis),
            CacheConfig::test(),
        );
        let s1 = run(&mut mph, &p).unwrap();
        assert!((s0 - s1).abs() < 1e-9);
        assert!(mph.stats.reused > 5, "reused={}", mph.stats.reused);
        // Reuse skips execution, not instruction submission.
        assert!(mph.stats.executed_cp < base.stats.executed_cp);
    }

    #[test]
    fn gpu_run_recycles_and_evicts() {
        let p = TlvisParams::small();
        let b = Backends::with_gpu(GpuConfig::zero_cost(32 << 20));
        let mut cfg = EngineConfig::test().with_reuse(ReuseMode::Memphis);
        cfg.gpu_min_cells = 1;
        let mut ctx = b.make_ctx(cfg, CacheConfig::test());
        let s = run(&mut ctx, &p).unwrap();
        assert!(s.is_finite());
        let r = ctx.cache().stats();
        assert!(
            r.gpu_freed + r.gpu_recycled > 0,
            "evict(1.0) ran between models"
        );
    }
}
