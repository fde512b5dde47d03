//! PNMF: Poisson non-negative matrix factorization (Figure 13(b)).
//!
//! `X ≈ W H` with multiplicative updates. `W` is distributed (tall), `H`
//! local. Without checkpointing, every iteration's jobs lazily re-execute
//! the whole update history (`W_i` depends on `W_{i-1}` RDDs), producing
//! the super-linear slowdown of Base/LIMA past ~30 iterations; under MPH
//! the pipeline persists `W` each iteration, where §5.2's loop-checkpoint
//! rewrite would.

use crate::data;
use memphis_engine::context::Result;
use memphis_engine::ops::AggDir;
use memphis_engine::ExecutionContext;
use memphis_matrix::ops::agg::AggOp;
use memphis_matrix::ops::binary::BinaryOp;

/// PNMF parameters.
#[derive(Debug, Clone)]
pub struct PnmfParams {
    /// Users (rows of X; distributed dimension).
    pub rows: usize,
    /// Movies (columns of X).
    pub cols: usize,
    /// Factorization rank.
    pub rank: usize,
    /// Iterations.
    pub iterations: usize,
    /// Ratings density.
    pub density: f64,
    /// Dataset seed.
    pub seed: u64,
    /// Checkpoint W after each update (where §5.2's loop-checkpoint
    /// rewrite would place it) — on for MPH, off for Base/LIMA.
    pub checkpoint: bool,
}

impl PnmfParams {
    /// Tiny configuration for tests.
    pub fn small() -> Self {
        Self {
            rows: 64,
            cols: 16,
            rank: 4,
            iterations: 3,
            density: 0.3,
            seed: 2,
            checkpoint: true,
        }
    }

    /// Benchmark scale (MovieLens-like shape, reduced).
    pub fn benchmark(rows: usize, iterations: usize, checkpoint: bool) -> Self {
        Self {
            rows,
            cols: 64,
            rank: 8,
            iterations,
            density: 0.2,
            seed: 2,
            checkpoint,
        }
    }
}

/// Runs PNMF; returns the final reconstruction loss.
pub fn run(ctx: &mut ExecutionContext, p: &PnmfParams) -> Result<f64> {
    let x = data::movielens_like(p.rows, p.cols, p.density, p.seed);
    // Shift zeros to a small positive value so divisions stay finite.
    let x = memphis_matrix::ops::binary::binary_scalar(&x, 0.1, BinaryOp::Add, false);
    ctx.read("X", x, "pnmf/X")?;
    ctx.rand("W", p.rows, p.rank, 0.1, 1.0, p.seed + 1)?;
    ctx.rand("H", p.rank, p.cols, 0.1, 1.0, p.seed + 2)?;
    let mut loss = 0.0;
    for _it in 0..p.iterations {
        // WH = W %*% H (distributed when W is); R = X / WH.
        ctx.matmul("WH", "W", "H")?;
        ctx.binary("R", "X", "WH", BinaryOp::Div)?;
        // H update: H *= (t(W) R) / (colSums(W)^T 1)  — J1.
        ctx.xty("Hnum", "W", "R")?;
        ctx.agg("Wcs", "W", AggOp::Sum, AggDir::Col)?;
        ctx.transpose("Wcs_t", "Wcs")?;
        ctx.binary("Hscaled", "Hnum", "Wcs_t", BinaryOp::Div)?;
        ctx.binary("H", "H", "Hscaled", BinaryOp::Mul)?;
        // W update: W *= (R t(H)) / rowSums(H)^T  — J2.
        ctx.transpose("Ht", "H")?;
        ctx.matmul("RHt", "R", "Ht")?;
        ctx.agg("Hrs", "H", AggOp::Sum, AggDir::Row)?;
        ctx.transpose("Hrs_t", "Hrs")?;
        ctx.binary("Wnum", "RHt", "Hrs_t", BinaryOp::Div)?;
        ctx.binary("W", "W", "Wnum", BinaryOp::Mul)?;
        if p.checkpoint {
            ctx.checkpoint("W")?;
        }
        // Loss (triggers the second job of Figure 9(c)).
        ctx.matmul("WH2", "W", "H")?;
        ctx.binary("D", "X", "WH2", BinaryOp::Sub)?;
        ctx.binary("D2", "D", "D", BinaryOp::Mul)?;
        ctx.agg("loss", "D2", AggOp::Sum, AggDir::Full)?;
        loss = ctx.get_scalar("loss")?;
    }
    Ok(loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Backends;
    use memphis_core::cache::config::CacheConfig;
    use memphis_engine::{EngineConfig, ReuseMode};
    use memphis_sparksim::SparkConfig;

    #[test]
    fn factorization_reduces_loss() {
        let b = Backends::local();
        let mut ctx = b.make_ctx(EngineConfig::test(), CacheConfig::test());
        let mut p = PnmfParams::small();
        p.iterations = 1;
        let l1 = run(&mut ctx, &p).unwrap();
        let b2 = Backends::local();
        let mut ctx2 = b2.make_ctx(EngineConfig::test(), CacheConfig::test());
        p.iterations = 8;
        let l8 = run(&mut ctx2, &p).unwrap();
        assert!(l8 < l1, "loss must decrease: {l1} -> {l8}");
    }

    #[test]
    fn checkpoint_and_plain_agree() {
        for checkpoint in [false, true] {
            let b = Backends::with_spark(SparkConfig::local_test());
            let mut cfg = EngineConfig::test().with_reuse(ReuseMode::Memphis);
            cfg.spark_threshold_bytes = 1024; // W and X distributed
            let mut ctx = b.make_ctx_sync(cfg, CacheConfig::test());
            let mut p = PnmfParams::small();
            p.checkpoint = checkpoint;
            let loss = run(&mut ctx, &p).unwrap();
            assert!(loss.is_finite());
        }
    }

    #[test]
    fn checkpointing_bounds_task_growth() {
        // Under Base (no runtime reuse), the per-iteration checkpoint is
        // the only thing bounding the lazy re-execution of prior
        // iterations — the Figure 13(b) effect. (Under full MEMPHIS, RDD
        // caching subsumes it.)
        let count_tasks = |checkpoint: bool| {
            let b = Backends::with_spark(SparkConfig::local_test());
            let mut cfg = EngineConfig::test().with_reuse(ReuseMode::None);
            cfg.spark_threshold_bytes = 1024;
            let mut ctx = b.make_ctx_sync(cfg, CacheConfig::test());
            let mut p = PnmfParams::small();
            p.iterations = 6;
            p.checkpoint = checkpoint;
            run(&mut ctx, &p).unwrap();
            b.sc.as_ref().unwrap().stats().narrow_records_computed
        };
        let without = count_tasks(false);
        let with = count_tasks(true);
        assert!(
            with * 2 < without,
            "checkpointing must cut lazy re-execution: {with} vs {without}"
        );
    }

    #[test]
    fn memphis_rdd_caching_subsumes_checkpoints() {
        // With full MEMPHIS reuse, even checkpoint-free PNMF avoids the
        // re-execution blowup because RDD entries are persisted on PUT.
        let b = Backends::with_spark(SparkConfig::local_test());
        let mut cfg = EngineConfig::test().with_reuse(ReuseMode::Memphis);
        cfg.spark_threshold_bytes = 1024;
        let mut ctx = b.make_ctx_sync(cfg, CacheConfig::test());
        let mut p = PnmfParams::small();
        p.iterations = 6;
        p.checkpoint = false;
        run(&mut ctx, &p).unwrap();
        let mph_tasks = b.sc.as_ref().unwrap().stats().narrow_records_computed;

        let b2 = Backends::with_spark(SparkConfig::local_test());
        let mut cfg2 = EngineConfig::test().with_reuse(ReuseMode::None);
        cfg2.spark_threshold_bytes = 1024;
        let mut ctx2 = b2.make_ctx_sync(cfg2, CacheConfig::test());
        run(&mut ctx2, &p).unwrap();
        let base_tasks = b2.sc.as_ref().unwrap().stats().narrow_records_computed;
        assert!(
            mph_tasks * 2 < base_tasks,
            "MPH {mph_tasks} vs Base {base_tasks}"
        );
    }
}
