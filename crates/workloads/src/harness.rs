//! Experiment harness: backend setup per configuration and timing helpers
//! shared by the integration tests and the benchmark binaries.

use memphis_core::cache::config::CacheConfig;
use memphis_core::cache::LineageCache;
use memphis_core::stats::ReuseStatsSnapshot;
use memphis_core::BackendSnapshot;
use memphis_engine::context::EngineStats;
use memphis_engine::{EngineConfig, ExecutionContext};
use memphis_gpusim::{GpuConfig, GpuDevice};
use memphis_sparksim::{SparkConfig, SparkContext};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The backends available to a workload run.
#[derive(Clone, Default)]
pub struct Backends {
    /// Simulated Spark cluster.
    pub sc: Option<SparkContext>,
    /// Simulated GPU device.
    pub gpu: Option<Arc<GpuDevice>>,
}

impl Backends {
    /// CPU only.
    pub fn local() -> Self {
        Self::default()
    }

    /// CPU + simulated Spark.
    pub fn with_spark(cfg: SparkConfig) -> Self {
        Self {
            sc: Some(SparkContext::new(cfg)),
            gpu: None,
        }
    }

    /// CPU + simulated GPU.
    pub fn with_gpu(cfg: GpuConfig) -> Self {
        Self {
            sc: None,
            gpu: Some(Arc::new(GpuDevice::new(cfg))),
        }
    }

    /// All three backends.
    pub fn full(spark: SparkConfig, gpu: GpuConfig) -> Self {
        Self {
            sc: Some(SparkContext::new(spark)),
            gpu: Some(Arc::new(GpuDevice::new(gpu))),
        }
    }

    /// Builds an execution context with a fresh lineage cache over these
    /// backends.
    pub fn make_ctx(&self, engine: EngineConfig, cache: CacheConfig) -> ExecutionContext {
        let mut c = LineageCache::new(cache);
        if let Some(sc) = &self.sc {
            c = c.with_spark(sc.clone());
        }
        if let Some(gpu) = &self.gpu {
            c = c.with_gpu(gpu.clone());
        }
        ExecutionContext::new(engine, Arc::new(c), self.sc.clone(), self.gpu.clone())
    }

    /// Like [`Backends::make_ctx`] with deterministic (inline) RDD
    /// materialization for tests.
    pub fn make_ctx_sync(&self, engine: EngineConfig, cache: CacheConfig) -> ExecutionContext {
        let mut c = LineageCache::new(cache);
        if let Some(sc) = &self.sc {
            c = c.with_spark_sync(sc.clone());
        }
        if let Some(gpu) = &self.gpu {
            c = c.with_gpu(gpu.clone());
        }
        ExecutionContext::new(engine, Arc::new(c), self.sc.clone(), self.gpu.clone())
    }
}

/// Result of one timed workload run.
#[derive(Debug, Clone)]
pub struct WorkloadOutcome {
    /// Configuration label (e.g. `"MPH"`, `"Base"`).
    pub label: String,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// A workload-defined checksum for cross-configuration result
    /// equivalence.
    pub check: f64,
    /// Engine counters.
    pub engine: EngineStats,
    /// Lineage-cache counters.
    pub reuse: ReuseStatsSnapshot,
    /// Per-tier usage/budget/entry snapshots from the cache, in the order
    /// local, disk, Spark, GPU (the last two when attached).
    pub backends: Vec<BackendSnapshot>,
}

/// Times a workload closure against a context and packages the outcome.
pub fn run_timed<F>(
    label: &str,
    ctx: &mut ExecutionContext,
    f: F,
) -> memphis_engine::context::Result<WorkloadOutcome>
where
    F: FnOnce(&mut ExecutionContext) -> memphis_engine::context::Result<f64>,
{
    let t0 = Instant::now();
    let check = f(ctx)?;
    let elapsed = t0.elapsed();
    Ok(WorkloadOutcome {
        label: label.to_string(),
        elapsed,
        check,
        engine: ctx.stats,
        reuse: ctx.cache().stats(),
        backends: ctx.cache().backend_snapshots(),
    })
}

/// Formats the per-backend snapshot block of an outcome (one indented
/// line per attached tier, from `LineageCache::backend_snapshots`).
pub fn backend_rows(o: &WorkloadOutcome) -> String {
    o.backends
        .iter()
        .map(|s| format!("    {s}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Formats an outcome row for experiment reports.
pub fn outcome_row(o: &WorkloadOutcome) -> String {
    format!(
        "{:<10} {:>9.3}s  check={:<14.6} instr={:<8} reused={:<8} hits(l/r/g/f)={}/{}/{}/{}",
        o.label,
        o.elapsed.as_secs_f64(),
        o.check,
        o.engine.instructions,
        o.engine.reused,
        o.reuse.hits_local,
        o.reuse.hits_rdd,
        o.reuse.hits_gpu,
        o.reuse.hits_func,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use memphis_engine::ReuseMode;

    #[test]
    fn make_ctx_wires_backends() {
        let b = Backends::with_spark(SparkConfig::local_test());
        let ctx = b.make_ctx(EngineConfig::test(), CacheConfig::test());
        assert!(ctx.spark().is_some());
        assert!(ctx.gpu_device().is_none());
        let b = Backends::with_gpu(GpuConfig::zero_cost(1 << 20));
        let ctx = b.make_ctx(EngineConfig::test(), CacheConfig::test());
        assert!(ctx.gpu_device().is_some());
    }

    #[test]
    fn run_timed_reports_outcome() {
        let b = Backends::local();
        let mut ctx = b.make_ctx(
            EngineConfig::test().with_reuse(ReuseMode::Memphis),
            CacheConfig::test(),
        );
        let o = run_timed("t", &mut ctx, |c| {
            c.rand("X", 4, 4, 0.0, 1.0, 1)?;
            c.get_scalar("X").err(); // not a scalar; ignore
            Ok(42.0)
        })
        .unwrap();
        assert_eq!(o.check, 42.0);
        assert_eq!(o.engine.instructions, 1);
        assert!(!outcome_row(&o).is_empty());
        // Local + disk tiers are always there; snapshots ride along.
        use memphis_core::BackendId;
        assert!(o.backends.iter().any(|s| s.id == BackendId::Local));
        assert!(o.backends.iter().any(|s| s.id == BackendId::Disk));
        assert!(backend_rows(&o).contains("local"));
    }

    #[test]
    fn outcome_snapshots_cover_attached_tiers() {
        let b = Backends::with_spark(SparkConfig::local_test());
        let mut ctx = b.make_ctx_sync(EngineConfig::test(), CacheConfig::test());
        let o = run_timed("sp", &mut ctx, |_| Ok(0.0)).unwrap();
        use memphis_core::BackendId;
        assert!(o.backends.iter().any(|s| s.id == BackendId::Spark));
    }
}
