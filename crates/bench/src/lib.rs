//! Shared experiment utilities: reporting and the
//! standard MEMPHIS configurations (Base, Base-A, LIMA, HELIX, MPH-NA,
//! MPH) used by the per-figure experiment binaries.

pub mod gate;
pub mod golden;

use memphis_core::cache::config::CacheConfig;
use memphis_engine::{EngineConfig, ReuseMode};
use memphis_gpusim::GpuConfig;
use memphis_obs::{IntoMetrics, MetricsRegistry};
use memphis_sparksim::SparkConfig;
use memphis_workloads::harness::{Backends, WorkloadOutcome};
use parking_lot::Mutex;
use std::path::PathBuf;

// ----------------------------------------------------------------------
// Observability session: `--trace <path>` / `--json <path>`
// ----------------------------------------------------------------------

struct ObsPaths {
    trace: Option<PathBuf>,
    json: Option<PathBuf>,
}

static OBS_PATHS: Mutex<ObsPaths> = Mutex::new(ObsPaths {
    trace: None,
    json: None,
});
static OBS_REGISTRY: Mutex<MetricsRegistry> = Mutex::new(MetricsRegistry::new());

/// Parses the shared experiment flags (`--trace <path>` captures a
/// Chrome trace-event timeline, `--json <path>` dumps the unified
/// metrics registry) and arms the recorder when a trace was requested.
/// Call once at the top of each `exp_*` main.
pub fn obs_init() {
    let mut args = std::env::args().skip(1);
    let mut paths = OBS_PATHS.lock();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace" => paths.trace = args.next().map(PathBuf::from),
            "--json" => paths.json = args.next().map(PathBuf::from),
            _ => {}
        }
    }
    if paths.trace.is_some() {
        memphis_obs::enable();
    }
}

/// Folds a counter source into the run's unified metrics registry.
pub fn obs_absorb(m: &dyn IntoMetrics) {
    OBS_REGISTRY.lock().absorb(m);
}

/// Folds one outcome (engine + reuse-cache counters and per-tier
/// usage) into the run's registry. Repeated calls overwrite counters
/// in place, so the registry reports the most recent configuration.
pub fn obs_outcome(o: &WorkloadOutcome) {
    let mut reg = OBS_REGISTRY.lock();
    reg.absorb(&o.engine);
    reg.absorb(&o.reuse);
    absorb_backend_snapshots(&mut reg, o);
}

/// Folds the attached backends' scheduler/device statistics into the
/// run's registry.
pub fn obs_backends(b: &Backends) {
    let mut reg = OBS_REGISTRY.lock();
    if let Some(sc) = &b.sc {
        reg.absorb(&sc.stats());
    }
    if let Some(gpu) = &b.gpu {
        reg.absorb(&gpu.stats());
    }
}

/// Records ad-hoc counters under `section` in the session registry
/// (for measurements that have no snapshot struct).
pub fn obs_record<N: Into<String>>(section: &str, pairs: impl IntoIterator<Item = (N, u64)>) {
    OBS_REGISTRY.lock().record_pairs(section, pairs);
}

/// Registry-rendered per-tier block for one outcome; replaces the
/// Display-based `backend_rows` and also folds the outcome into the
/// session registry.
pub fn tier_rows(o: &WorkloadOutcome) -> String {
    obs_outcome(o);
    let mut reg = MetricsRegistry::new();
    absorb_backend_snapshots(&mut reg, o);
    reg.text_report()
}

/// Registry-rendered cache/tier report for a context's lineage cache;
/// also folds the counters into the session registry for `--json`.
pub fn cache_report(cache: &memphis_core::cache::LineageCache) -> String {
    let mut reg = MetricsRegistry::new();
    reg.absorb(&cache.stats());
    absorb_snapshots(&mut reg, &cache.backend_snapshots());
    let mut global = OBS_REGISTRY.lock();
    global.absorb(&cache.stats());
    absorb_snapshots(&mut global, &cache.backend_snapshots());
    reg.text_report()
}

fn absorb_backend_snapshots(reg: &mut MetricsRegistry, o: &WorkloadOutcome) {
    absorb_snapshots(reg, &o.backends);
}

fn absorb_snapshots(reg: &mut MetricsRegistry, snaps: &[memphis_core::BackendSnapshot]) {
    for s in snaps {
        let section = format!("tier.{}", s.id.as_str());
        reg.record_pairs(
            &section,
            [
                ("used_bytes", s.used as u64),
                (
                    "budget_bytes",
                    if s.budget == usize::MAX {
                        0
                    } else {
                        s.budget as u64
                    },
                ),
                ("entries", s.entries as u64),
            ],
        );
        reg.record_pairs(&section, s.detail.iter().copied());
    }
}

/// Writes the artifacts requested by `--trace`/`--json`. Call once at
/// the end of each `exp_*` main.
pub fn obs_finish() {
    let paths = OBS_PATHS.lock();
    let reg = OBS_REGISTRY.lock();
    if let Some(path) = &paths.trace {
        let trace = memphis_obs::drain();
        let metrics = if reg.is_empty() { None } else { Some(&*reg) };
        match memphis_obs::export::write_chrome_trace(path, &trace, metrics) {
            Ok(()) => println!(
                "trace: {} events -> {} (load in Perfetto / chrome://tracing)",
                trace.events.len(),
                path.display()
            ),
            Err(e) => eprintln!("trace: failed to write {}: {e}", path.display()),
        }
    }
    if let Some(path) = &paths.json {
        match std::fs::write(path, reg.to_json()) {
            Ok(()) => println!("metrics: registry JSON -> {}", path.display()),
            Err(e) => eprintln!("metrics: failed to write {}: {e}", path.display()),
        }
    }
}

/// The standard experiment configurations of §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpConfig {
    /// SystemDS without reuse.
    Base,
    /// Base plus asynchronous operators only.
    BaseAsync,
    /// Fine-grained local-only reuse (LIMA).
    Lima,
    /// Coarse-grained function reuse (HELIX; also emulates Clipper's
    /// prediction cache and VISTA's cross-pipeline CSE).
    Helix,
    /// MEMPHIS without asynchronous operators.
    MphNoAsync,
    /// Full MEMPHIS.
    Mph,
}

impl ExpConfig {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            ExpConfig::Base => "Base",
            ExpConfig::BaseAsync => "Base-A",
            ExpConfig::Lima => "LIMA",
            ExpConfig::Helix => "HELIX",
            ExpConfig::MphNoAsync => "MPH-NA",
            ExpConfig::Mph => "MPH",
        }
    }

    /// Engine configuration for this experiment setup.
    pub fn engine(self, mut base: EngineConfig) -> EngineConfig {
        base.reuse = match self {
            ExpConfig::Base | ExpConfig::BaseAsync => ReuseMode::None,
            ExpConfig::Lima => ReuseMode::Lima,
            ExpConfig::Helix => ReuseMode::Helix,
            ExpConfig::MphNoAsync | ExpConfig::Mph => ReuseMode::Memphis,
        };
        base.async_ops = matches!(self, ExpConfig::BaseAsync | ExpConfig::Mph);
        base
    }
}

/// Benchmark-scale backend configurations (small enough for seconds-long
/// runs, structured like the paper's cluster).
pub fn bench_spark() -> SparkConfig {
    let mut c = SparkConfig::benchmark();
    c.storage_capacity = 128 << 20;
    c
}

/// Benchmark GPU device configuration.
pub fn bench_gpu(capacity: usize) -> GpuConfig {
    GpuConfig::calibrated(capacity)
}

/// Benchmark cache configuration.
pub fn bench_cache(local_budget: usize) -> CacheConfig {
    let mut c = CacheConfig::benchmark();
    c.local_budget = local_budget;
    c
}

/// Prints one experiment header.
pub fn header(id: &str, claim: &str) {
    println!("\n=== {id} ===");
    println!("paper: {claim}");
    println!("{:-<78}", "");
}

/// Prints a series of outcomes with speedups relative to the first entry,
/// followed by the unified per-backend stats block of the last (usually
/// MPH) configuration, from `LineageCache::backend_snapshots`.
pub fn report(rows: &[WorkloadOutcome]) {
    let baseline = rows.first().map(|r| r.elapsed.as_secs_f64()).unwrap_or(1.0);
    for r in rows {
        let speedup = baseline / r.elapsed.as_secs_f64().max(1e-12);
        println!(
            "{:<10} {:>9.3}s  speedup={:>6.2}x  check={:<14.6} reused={:<8} hits(l/r/g/f)={}/{}/{}/{}",
            r.label,
            r.elapsed.as_secs_f64(),
            speedup,
            r.check,
            r.engine.reused,
            r.reuse.hits_local,
            r.reuse.hits_rdd,
            r.reuse.hits_gpu,
            r.reuse.hits_func,
        );
    }
    if let Some(last) = rows.last() {
        // Fold the final (usually MPH) row into the session registry so
        // `--json` reports it, and print the per-tier block from a
        // registry rendering of the same snapshots.
        obs_outcome(last);
        let mut reg = MetricsRegistry::new();
        absorb_backend_snapshots(&mut reg, last);
        if !reg.is_empty() {
            println!("backends ({}):", last.label);
            print!("{}", reg.text_report());
        }
    }
}

/// Asserts that all checks in a series agree (result equivalence across
/// configurations), panicking loudly otherwise.
pub fn verify_checks(rows: &[WorkloadOutcome], tol: f64) {
    if let Some(first) = rows.first() {
        for r in rows {
            assert!(
                (r.check - first.check).abs() <= tol * (1.0 + first.check.abs()),
                "result mismatch: {}={} vs {}={}",
                first.label,
                first.check,
                r.label,
                r.check
            );
        }
    }
}
