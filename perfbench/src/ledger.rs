//! Per-layer ledger: folds the public stats snapshots of each layer into
//! the per-layer metrics of the catalog, and derives the modelled
//! (simulated) Spark and GPU delay from counters and the configured costs.

use memphis_core::stats::ReuseStatsSnapshot;
use memphis_engine::context::EngineStats;
use memphis_gpusim::{GpuConfig, GpuStatsSnapshot};
use memphis_sparksim::stats::StatsSnapshot as SparkStatsSnapshot;
use memphis_sparksim::CostModel;
use std::collections::BTreeMap;

const MIB: f64 = (1u64 << 20) as f64;

/// Named per-layer figures. Names starting with `_` are raw inputs of
/// ratios and are dropped by [`Ledger::finish`].
#[derive(Debug, Default, Clone)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    /// Adds `v` to `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// Sets `name` to `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    /// Current value of `name` (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Folds one cache's counters.
    pub fn reuse(&mut self, s: &ReuseStatsSnapshot) {
        self.add("_cache.probes", s.probes as f64);
        self.add("_cache.hits", s.hits as f64);
        self.add("cache.hits_local", s.hits_local as f64);
        self.add("cache.hits_rdd", s.hits_rdd as f64);
        self.add("cache.hits_gpu", s.hits_gpu as f64);
        self.add("cache.hits_disk", s.hits_disk as f64);
        self.add("cache.hits_func", s.hits_func as f64);
        self.add("cache.puts", s.puts as f64);
        self.add("cache.coalesced_hits", s.coalesced_hits as f64);
        self.add("cache.evictions", (s.local_spills + s.local_drops) as f64);
        self.add("disk.spills", s.local_spills as f64);
        self.add("disk.hits", s.hits_disk as f64);
        self.add("disk.manifest_swaps", s.manifest_swaps as f64);
        self.add("disk.io_errors", s.disk_io_errors as f64);
        self.add("gpusim.recycled", s.gpu_recycled as f64);
    }

    /// Folds one execution context's counters.
    pub fn engine(&mut self, s: &EngineStats) {
        self.add("engine.instructions", s.instructions as f64);
        self.add("_engine.reused", s.reused as f64);
    }

    /// Folds one Spark context's counters; returns its modelled delay in
    /// seconds.
    pub fn spark(&mut self, s: &SparkStatsSnapshot, cost: &CostModel) -> f64 {
        let ms = spark_modelled_s(s, cost) * 1e3;
        self.add("sparksim.jobs", s.jobs as f64);
        self.add("sparksim.tasks", s.tasks as f64);
        self.add(
            "sparksim.shuffle_mb",
            (s.shuffle_bytes_written + s.shuffle_bytes_read) as f64 / MIB,
        );
        self.add("sparksim.modelled_ms", ms);
        ms / 1e3
    }

    /// Folds one GPU device's counters; returns its modelled delay in
    /// seconds.
    pub fn gpu(&mut self, s: &GpuStatsSnapshot, cfg: &GpuConfig) -> f64 {
        let (alloc, xfer, launch) = gpu_modelled_s(s, cfg);
        self.add("gpusim.kernels", s.kernels as f64);
        self.add("gpusim.allocs", s.allocs as f64);
        self.add("gpusim.alloc_wait_ms", alloc * 1e3);
        self.add("gpusim.xfer_wait_ms", xfer * 1e3);
        self.add("gpusim.compute_ms", s.compute_ns as f64 / 1e6);
        alloc + xfer + launch
    }

    /// The catalog figures, with ratios computed from their raw inputs.
    pub fn finish(mut self) -> Vec<(&'static str, f64)> {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let hit = ratio(self.get("_cache.hits"), self.get("_cache.probes"));
        let reused = ratio(self.get("_engine.reused"), self.get("engine.instructions"));
        self.set("cache.hit_frac", hit);
        self.set("engine.reused_frac", reused);
        self.0
            .into_iter()
            .filter(|(k, _)| !k.starts_with('_'))
            .collect()
    }
}

/// Simulated Spark delay charged for the counters in `s` under `cost`:
/// job and task launches, shuffle writes and reads, result collection and
/// broadcast chunk registration. Per-byte broadcast transfer is not
/// counted by sparksim and is left out.
pub fn spark_modelled_s(s: &SparkStatsSnapshot, cost: &CostModel) -> f64 {
    let per_byte = |bytes: u64, ns: f64| bytes as f64 * ns / 1e9;
    s.jobs as f64 * cost.job_launch.as_secs_f64()
        + s.tasks as f64 * cost.task_launch.as_secs_f64()
        + per_byte(
            s.shuffle_bytes_written + s.shuffle_bytes_read,
            cost.shuffle_ns_per_byte,
        )
        + per_byte(s.bytes_collected, cost.collect_ns_per_byte)
        + s.broadcast_chunks_sent as f64 * cost.broadcast_chunk_overhead.as_secs_f64()
}

/// Simulated GPU delay for the counters in `s` under `cfg`, split into
/// (alloc/free waits, host-device copies, kernel launches), in seconds.
pub fn gpu_modelled_s(s: &GpuStatsSnapshot, cfg: &GpuConfig) -> (f64, f64, f64) {
    let alloc = s.allocs as f64 * cfg.alloc_overhead.as_secs_f64()
        + s.frees as f64 * cfg.free_overhead.as_secs_f64();
    let xfer =
        (s.h2d_bytes as f64 * cfg.h2d_ns_per_byte + s.d2h_bytes as f64 * cfg.d2h_ns_per_byte) / 1e9;
    let launch = s.kernels as f64 * cfg.kernel_launch.as_secs_f64();
    (alloc, xfer, launch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_are_computed_and_raw_inputs_dropped() {
        let mut l = Ledger::default();
        l.add("_cache.hits", 3.0);
        l.add("_cache.probes", 4.0);
        l.add("engine.instructions", 10.0);
        l.add("_engine.reused", 5.0);
        let out: BTreeMap<_, _> = l.finish().into_iter().collect();
        assert_eq!(out["cache.hit_frac"], 0.75);
        assert_eq!(out["engine.reused_frac"], 0.5);
        assert!(out.keys().all(|k| !k.starts_with('_')));
    }

    #[test]
    fn gpu_modelled_time_follows_counters() {
        let cfg = GpuConfig::calibrated(1 << 20);
        let s = GpuStatsSnapshot {
            allocs: 2,
            frees: 1,
            kernels: 10,
            h2d_bytes: 1000,
            ..Default::default()
        };
        let (alloc, xfer, launch) = gpu_modelled_s(&s, &cfg);
        assert!((alloc - (2.0 * 150e-6 + 80e-6)).abs() < 1e-12);
        assert!((xfer - 2000e-9).abs() < 1e-15);
        assert!((launch - 80e-6).abs() < 1e-12);
    }
}
