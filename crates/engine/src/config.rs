//! Engine configuration: reuse modes (the paper's baselines) and operator
//! placement thresholds.

/// Which reuse capability is active — these are the experiment
/// configurations of §6 (Base, Trace, Probe, LIMA, HELIX, MPH).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseMode {
    /// No lineage tracing at all (the `Base` baseline).
    None,
    /// Trace lineage but never probe or put (`Trace` in Fig. 11).
    TraceOnly,
    /// Trace and probe, but never put — maximum overhead, zero benefit
    /// (`Probe` in Fig. 11).
    ProbeOnly,
    /// Fine-grained reuse of local CPU intermediates only (the LIMA
    /// baseline \[101\]).
    Lima,
    /// Coarse-grained reuse of top-level function results only (the HELIX
    /// baseline \[125\]).
    Helix,
    /// Full MEMPHIS: fine-grained + multi-level reuse across CPU, Spark,
    /// and GPU.
    Memphis,
}

impl ReuseMode {
    /// True when instructions are traced.
    pub fn traces(self) -> bool {
        !matches!(self, ReuseMode::None)
    }

    /// True when the cache is probed for fine-grained (operator) entries.
    pub fn probes_ops(self) -> bool {
        matches!(
            self,
            ReuseMode::ProbeOnly | ReuseMode::Lima | ReuseMode::Memphis
        )
    }

    /// True when operator results are offered to the cache.
    pub fn puts_ops(self) -> bool {
        matches!(self, ReuseMode::Lima | ReuseMode::Memphis)
    }

    /// True when function-level (multi-level) entries are used.
    pub fn multilevel(self) -> bool {
        matches!(self, ReuseMode::Helix | ReuseMode::Memphis)
    }

    /// True when Spark RDDs / actions and GPU pointers may be cached
    /// (multi-backend reuse).
    pub fn multibackend(self) -> bool {
        matches!(self, ReuseMode::Memphis)
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Active reuse mode.
    pub reuse: ReuseMode,
    /// Enable the asynchronous prefetch/broadcast operators of §5.1.
    pub async_ops: bool,
    /// Operations whose estimated output + inputs exceed this many bytes
    /// are placed on Spark (SystemDS's operation-memory threshold).
    pub spark_threshold_bytes: usize,
    /// Place dense compute-intensive operations on the GPU when a device
    /// is attached and the output has at least this many cells.
    pub gpu_min_cells: usize,
    /// Default delayed-caching factor n (overridden per block by the
    /// auto-tuner).
    pub delay_factor: u32,
    /// Block side length for distributed blocked matrices.
    pub blen: usize,
    /// Number of threads for local parallel matmul.
    pub cp_threads: usize,
    /// Pool and recycle GPU pointers through the unified memory manager
    /// (disable for the naive cudaMalloc/cudaFree-per-output baseline).
    pub gpu_recycling: bool,
}

impl EngineConfig {
    /// Test configuration: everything local unless forced, no async, full
    /// reuse, tiny blocks.
    pub fn test() -> Self {
        Self {
            reuse: ReuseMode::Memphis,
            async_ops: false,
            spark_threshold_bytes: usize::MAX,
            gpu_min_cells: usize::MAX,
            delay_factor: 1,
            blen: 8,
            cp_threads: 2,
            gpu_recycling: true,
        }
    }

    /// Benchmark configuration: Spark placement above 4 MB, GPU for dense
    /// ops of at least 4K cells, async enabled.
    pub fn benchmark() -> Self {
        Self {
            reuse: ReuseMode::Memphis,
            async_ops: true,
            spark_threshold_bytes: 4 << 20,
            gpu_min_cells: 4096,
            delay_factor: 1,
            blen: 256,
            cp_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            gpu_recycling: true,
        }
    }

    /// Same configuration with a different reuse mode.
    pub fn with_reuse(mut self, reuse: ReuseMode) -> Self {
        self.reuse = reuse;
        self
    }

    /// Same configuration with async operators toggled.
    pub fn with_async(mut self, on: bool) -> Self {
        self.async_ops = on;
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::test()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_capabilities() {
        assert!(!ReuseMode::None.traces());
        assert!(ReuseMode::TraceOnly.traces());
        assert!(!ReuseMode::TraceOnly.probes_ops());
        assert!(ReuseMode::ProbeOnly.probes_ops());
        assert!(!ReuseMode::ProbeOnly.puts_ops());
        assert!(ReuseMode::Lima.puts_ops());
        assert!(!ReuseMode::Lima.multibackend());
        assert!(ReuseMode::Helix.multilevel());
        assert!(!ReuseMode::Helix.probes_ops());
        assert!(ReuseMode::Memphis.multibackend());
        assert!(ReuseMode::Memphis.multilevel());
    }

    #[test]
    fn builders_toggle_fields() {
        let c = EngineConfig::test()
            .with_reuse(ReuseMode::Lima)
            .with_async(true);
        assert_eq!(c.reuse, ReuseMode::Lima);
        assert!(c.async_ops);
    }
}
