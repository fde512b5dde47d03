//! Parameterized experiment cores shared by the experiment binaries and
//! the golden smoke tests.
//!
//! Each `run_*` function contains the full logic of its figure/table
//! binary, scaled by a params struct: the binaries run `full()` and print
//! wall-clock ratios; the golden tests run `tiny()` in milliseconds and
//! assert on the returned reuse/eviction/backend counters, which are
//! deterministic at any scale (wall clock is not).

use crate::{bench_cache, bench_gpu, bench_spark};
use memphis_core::cache::Admit;
use memphis_core::stats::ReuseStatsSnapshot;
use memphis_engine::{EngineConfig, ReuseMode};
use memphis_gpusim::GpuDevice;
use memphis_matrix::ops::binary::{binary_scalar, BinaryOp};
use memphis_matrix::ops::unary::UnaryOp;
use memphis_matrix::rand_gen::rand_uniform;
use memphis_matrix::BlockedMatrix;
use memphis_sparksim::{SparkContext, StorageLevel};
use memphis_workloads::harness::Backends;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scale knobs for Figure 2(c): lazy-reuse vs eager caching vs no caching.
#[derive(Debug, Clone, Copy)]
pub struct Fig2cParams {
    /// Derived RDDs in total.
    pub total: usize,
    /// Distinct scale factors (each recurs `total / distinct` times).
    pub distinct: usize,
    /// Source matrix shape.
    pub rows: usize,
    pub cols: usize,
    /// Block length for the engine and the blocked source.
    pub blen: usize,
    /// Local cache budget for the MEMPHIS run.
    pub cache_budget: usize,
    /// Spark storage-memory capacity (bounds the cluster-side reuse
    /// budget; shrink it to force eq. (1) evictions).
    pub spark_storage: usize,
}

impl Fig2cParams {
    /// The binary's scale (paper's 12K RDDs scaled to 1.2K).
    pub fn full() -> Self {
        Self {
            total: 1200,
            distinct: 400,
            rows: 512,
            cols: 16,
            blen: 64,
            cache_budget: 32 << 20,
            spark_storage: 128 << 20,
        }
    }

    /// Milliseconds-long scale for the golden smoke tests: 24 derived
    /// RDDs over 8 distinct scales, each recurring 3x like the paper.
    pub fn tiny() -> Self {
        Self {
            total: 24,
            distinct: 8,
            rows: 64,
            cols: 8,
            blen: 16,
            cache_budget: 4 << 20,
            spark_storage: 16 << 20,
        }
    }
}

/// Everything Figure 2(c) measures, timings and counters both.
#[derive(Debug)]
pub struct Fig2cOutcome {
    pub no_cache: Duration,
    pub eager: Duration,
    pub memphis: Duration,
    /// Tasks launched by the no-caching / eager-caching Spark loops.
    pub no_cache_tasks: u64,
    pub eager_tasks: u64,
    /// Cache counters of the MEMPHIS run (hits/misses/puts/evictions).
    pub reuse: ReuseStatsSnapshot,
    /// Per-backend snapshot block of the MEMPHIS run.
    pub backend_report: String,
}

/// Figure 2(c): eager materialization is ~10x slower than no caching;
/// MEMPHIS's lazy reuse is faster than both (§2.2).
pub fn run_fig2c(p: &Fig2cParams) -> Fig2cOutcome {
    let spark = || {
        let mut c = bench_spark();
        c.storage_capacity = p.spark_storage;
        c
    };
    let m = rand_uniform(p.rows, p.cols, -1.0, 1.0, 1);
    let blocked = BlockedMatrix::from_dense(&m, p.blen).unwrap();
    let distinct = p.distinct.max(1);

    // No caching: every iteration derives an RDD and aggregates it (one
    // job per iteration, nothing cached).
    let t0 = Instant::now();
    let no_cache_tasks;
    {
        let sc = SparkContext::new(spark());
        let src = sc.parallelize_blocked(&blocked, "X");
        for i in 0..p.total {
            let scale = (i % distinct) as f64 / distinct as f64 + 0.5;
            let rdd = sc.map(
                &src,
                "scale",
                Arc::new(move |k, b| (*k, binary_scalar(b, scale, BinaryOp::Mul, false))),
            );
            sc.count(&rdd);
        }
        no_cache_tasks = sc.stats().tasks;
    }
    let no_cache = t0.elapsed();

    // Eager caching: persist + count() after every transformation.
    let t0 = Instant::now();
    let eager_tasks;
    {
        let sc = SparkContext::new(spark());
        let src = sc.parallelize_blocked(&blocked, "X");
        for i in 0..p.total {
            let scale = (i % distinct) as f64 / distinct as f64 + 0.5;
            let rdd = sc.map(
                &src,
                "scale",
                Arc::new(move |k, b| (*k, binary_scalar(b, scale, BinaryOp::Mul, false))),
            );
            rdd.persist(StorageLevel::Memory);
            sc.count(&rdd); // eager materialization job
            sc.count(&rdd); // the consuming job
            sc.unpersist(&rdd);
        }
        eager_tasks = sc.stats().tasks;
    }
    let eager = t0.elapsed();

    // MEMPHIS: lazy reuse through the engine (repeated scales hit the
    // cache; no forced materialization).
    let t0 = Instant::now();
    let reuse;
    let backend_report;
    {
        let b = Backends::with_spark(spark());
        let mut cfg = EngineConfig::benchmark().with_reuse(ReuseMode::Memphis);
        cfg.spark_threshold_bytes = 0;
        cfg.blen = p.blen;
        cfg.async_ops = false;
        // Delayed caching n=2 (the §5.2 auto-tuner's choice for partially
        // reusable blocks): never-repeating RDDs are not persisted.
        cfg.delay_factor = 2;
        let mut ctx = b.make_ctx(cfg, bench_cache(p.cache_budget));
        ctx.read("X", m.clone(), "fig2c/X").unwrap();
        for i in 0..p.total {
            let scale = (i % distinct) as f64 / distinct as f64 + 0.5;
            ctx.binary_const("Y", "X", scale, BinaryOp::Mul, false)
                .unwrap();
            // Aggregate each derived RDD (the consuming job); repeated
            // scales reuse the cached action result and skip it entirely.
            ctx.agg(
                "s",
                "Y",
                memphis_matrix::ops::agg::AggOp::Sum,
                memphis_engine::ops::AggDir::Full,
            )
            .unwrap();
            ctx.get_scalar("s").unwrap();
        }
        reuse = ctx.cache().stats();
        backend_report = ctx.cache().backend_report();
    }
    let memphis = t0.elapsed();

    Fig2cOutcome {
        no_cache,
        eager,
        memphis,
        no_cache_tasks,
        eager_tasks,
        reuse,
        backend_report,
    }
}

/// Scale knobs for Figure 2(d): per-kernel alloc/copy/free overhead.
#[derive(Debug, Clone, Copy)]
pub struct Fig2dParams {
    /// Mini-batches pushed through the affine+ReLU layer.
    pub batches: usize,
    /// Batch shape: `batch_rows x features`, weights `features x hidden`.
    pub batch_rows: usize,
    pub features: usize,
    pub hidden: usize,
}

impl Fig2dParams {
    /// The binary's scale.
    pub fn full() -> Self {
        Self {
            batches: 200,
            batch_rows: 32,
            features: 64,
            hidden: 32,
        }
    }

    /// Golden-test scale.
    pub fn tiny() -> Self {
        Self {
            batches: 6,
            batch_rows: 8,
            features: 16,
            hidden: 8,
        }
    }
}

/// Figure 2(d) measurements: device counters plus the backend report.
#[derive(Debug)]
pub struct Fig2dOutcome {
    pub gpu: memphis_gpusim::GpuStatsSnapshot,
    pub backend_report: String,
}

/// Figure 2(d): with pointer recycling disabled, every mini-batch pays
/// cudaMalloc/cudaFree and a D2H copy, dwarfing the compute (§2.3).
pub fn run_fig2d(p: &Fig2dParams) -> Fig2dOutcome {
    // Pageable-memory calibration: the paper measures pageable H2D at
    // 6.1 GB/s against multi-TFLOP device compute; at simulation scale the
    // same ratios need slower per-byte costs and heavier alloc overheads.
    let mut gcfg = bench_gpu(256 << 20);
    gcfg.alloc_overhead = Duration::from_micros(40);
    gcfg.free_overhead = Duration::from_micros(18);
    gcfg.h2d_ns_per_byte = 4.7;
    gcfg.d2h_ns_per_byte = 4.7;
    let b = Backends::with_gpu(gcfg);
    let mut cfg = EngineConfig::benchmark().with_reuse(ReuseMode::None);
    cfg.gpu_min_cells = 1;
    cfg.gpu_recycling = false; // force cudaMalloc/cudaFree per output
    let mut ctx = b.make_ctx(cfg, bench_cache(16 << 20));
    ctx.read(
        "W",
        rand_uniform(p.features, p.hidden, -0.3, 0.3, 2),
        "fig2d/W",
    )
    .unwrap();
    ctx.read("bv", rand_uniform(1, p.hidden, 0.0, 0.0, 3), "fig2d/b")
        .unwrap();
    for i in 0..p.batches {
        let batch = rand_uniform(p.batch_rows, p.features, 0.0, 1.0, 100 + i as u64);
        ctx.read("B", batch, &format!("batch{i}")).unwrap();
        ctx.affine("H", "B", "W", "bv").unwrap();
        ctx.unary("A", "H", UnaryOp::Relu).unwrap();
        // Force the result to the host (the paper's per-kernel D2H).
        ctx.get_matrix("A").unwrap();
        ctx.remove("A");
        ctx.remove("H");
        ctx.remove("B");
    }
    Fig2dOutcome {
        gpu: b.gpu.as_ref().unwrap().stats(),
        backend_report: ctx.cache().backend_report(),
    }
}

/// Scale knobs for Table 2: backend bandwidth probes.
#[derive(Debug, Clone, Copy)]
pub struct Table2Params {
    /// Shuffled matrix shape and block length.
    pub rows: usize,
    pub cols: usize,
    pub blen: usize,
    /// Reduce-side partitions of the reshuffle.
    pub reduce_partitions: usize,
    /// Host matrix shape for the H2D/D2H probe.
    pub gpu_rows: usize,
    pub gpu_cols: usize,
}

impl Table2Params {
    /// The binary's scale (~32 MB shuffle, 16 MB transfers).
    pub fn full() -> Self {
        Self {
            rows: 16_384,
            cols: 256,
            blen: 1024,
            reduce_partitions: 4,
            gpu_rows: 4096,
            gpu_cols: 512,
        }
    }

    /// Golden-test scale (~32 KB shuffle).
    pub fn tiny() -> Self {
        Self {
            rows: 256,
            cols: 16,
            blen: 32,
            reduce_partitions: 4,
            gpu_rows: 64,
            gpu_cols: 32,
        }
    }
}

/// Table 2 measurements: bytes moved, wall clock, and result counts.
#[derive(Debug)]
pub struct Table2Outcome {
    pub shuffle_elapsed: Duration,
    pub shuffle_bytes_written: u64,
    pub shuffle_bytes_read: u64,
    /// Records surviving the reshuffle (one merged block per reduce key).
    pub reduced_records: usize,
    pub h2d_elapsed: Duration,
    pub d2h_elapsed: Duration,
    /// Bytes of the H2D/D2H probe matrix.
    pub transfer_bytes: usize,
    /// The D2H readback matched the uploaded matrix bit-for-bit.
    pub roundtrip_exact: bool,
}

/// Table 2: shuffle and host-device bandwidth of the simulated backends.
pub fn run_table2(p: &Table2Params) -> Table2Outcome {
    // Spark shuffle bandwidth: one reduceByKey over the blocked matrix.
    let sc = SparkContext::new(bench_spark());
    let m = rand_uniform(p.rows, p.cols, -1.0, 1.0, 1);
    let blocked = BlockedMatrix::from_dense(&m, p.blen).unwrap();
    let rdd = sc.parallelize_blocked(&blocked, "X");
    let parts = p.reduce_partitions;
    let shuffled = sc.reduce_by_key(
        &rdd,
        "rekey",
        Arc::new(move |k, m| {
            vec![(
                memphis_matrix::BlockId {
                    row: k.row % parts,
                    col: 0,
                },
                m.deep_clone(),
            )]
        }),
        Arc::new(|a, _| a),
        parts,
    );
    let t0 = Instant::now();
    let reduced_records = sc.count(&shuffled);
    let shuffle_elapsed = t0.elapsed();
    let stats = sc.stats();

    // GPU H2D/D2H bandwidth (pageable).
    let gpu = GpuDevice::new(bench_gpu(256 << 20));
    let h = rand_uniform(p.gpu_rows, p.gpu_cols, -1.0, 1.0, 2);
    let t0 = Instant::now();
    let ptr = gpu.upload(&h).unwrap();
    let h2d_elapsed = t0.elapsed();
    let t0 = Instant::now();
    let back = gpu.copy_to_host(ptr).unwrap();
    let d2h_elapsed = t0.elapsed();

    Table2Outcome {
        shuffle_elapsed,
        shuffle_bytes_written: stats.shuffle_bytes_written,
        shuffle_bytes_read: stats.shuffle_bytes_read,
        reduced_records,
        h2d_elapsed,
        d2h_elapsed,
        transfer_bytes: h.size_bytes(),
        roundtrip_exact: back.approx_eq(&h, 0.0),
    }
}

// ----------------------------------------------------------------------
// Concurrency smoke gate (PR 4): deterministic serving counters
// ----------------------------------------------------------------------

/// Scale knobs for the concurrency bench gate.
#[derive(Debug, Clone, Copy)]
pub struct ConcGateParams {
    /// Distinct lineage items in the single-threaded reuse loop.
    pub items: usize,
    /// Probe rounds over the item set.
    pub rounds: usize,
    /// Eviction-pressure items (each the size of one 32x32 matrix)
    /// pushed through a budget sized for half of them.
    pub churn: usize,
    /// Sessions in the rendezvous stage.
    pub sessions: usize,
}

impl ConcGateParams {
    /// The committed-baseline scale (fast; the counters are what matter).
    pub fn full() -> Self {
        Self {
            items: 64,
            rounds: 8,
            churn: 128,
            sessions: 8,
        }
    }
}

/// Deterministic counters of the concurrency gate. Every field must be
/// bit-identical run over run, thread count over thread count; the gate
/// test (`tests/gate.rs`) fails when one diverges from the committed
/// baseline.
#[derive(Debug, Clone)]
pub struct ConcGateOutcome {
    /// Reuse hits of the single-threaded loop (items * (rounds - 1)).
    pub hits: u64,
    /// Recomputations, i.e. misses that led to a compute+complete.
    pub recomputes: u64,
    /// Local-tier evictions (spills + drops) under churn.
    pub evictions: u64,
    /// Coalesced hits of the rendezvous stage (sessions - 1).
    pub coalesced_hits: u64,
    /// Concurrent duplicate computations of a shared id (must be 0).
    pub duplicates: u64,
}

/// Runs the gate workload: a single-threaded probe/complete reuse loop
/// with churn-driven eviction, then a multi-session rendezvous whose
/// coalesced-hit count is exact by construction.
pub fn run_concurrency_gate(p: &ConcGateParams) -> ConcGateOutcome {
    use memphis_core::cache::config::CacheConfig;
    use memphis_core::cache::entry::CachedObject;
    use memphis_core::cache::{LineageCache, Probed};
    use memphis_core::lineage::LineageItem;
    use memphis_matrix::Matrix;

    // Stage 1: single-threaded reuse loop. Round 0 computes every item;
    // later rounds hit. A generous budget keeps this stage eviction-free
    // so the counts are closed-form.
    let payload = Matrix::zeros(32, 32);
    let psize = payload.size_bytes();
    let mut cfg = CacheConfig::test();
    cfg.spill_to_disk = false;
    cfg.local_budget = psize * (p.items + 2);
    let cache = LineageCache::new(cfg);
    let mut recomputes = 0u64;
    for _round in 0..p.rounds {
        for i in 0..p.items {
            let item = LineageItem::leaf(&format!("gate/item{i}"));
            match cache.probe_or_begin(&item) {
                Probed::Hit(_) | Probed::Coalesced(_) => {}
                Probed::Compute(g) => {
                    recomputes += 1;
                    cache.complete(
                        g,
                        CachedObject::Matrix(Arc::new(payload.clone())),
                        Admit::new(10.0, psize),
                    );
                }
            }
        }
    }

    // Stage 2: churn a budget sized for half the churn set, counting
    // local-tier evictions (all drops: spill is disabled).
    let mut cfg = CacheConfig::test();
    cfg.spill_to_disk = false;
    cfg.local_budget = psize * (p.churn / 2);
    let churn_cache = LineageCache::new(cfg);
    for i in 0..p.churn {
        let item = LineageItem::leaf(&format!("gate/churn{i}"));
        churn_cache.put(
            &item,
            CachedObject::Matrix(Arc::new(payload.clone())),
            Admit::new(1.0 + i as f64, psize),
        );
    }
    let churn_stats = churn_cache.stats();
    let evictions = churn_stats.local_spills + churn_stats.local_drops;

    // Stage 3: rendezvous. The owner completes only after all other
    // sessions are parked on the in-flight marker, so the coalesced-hit
    // count is exactly sessions - 1 regardless of scheduling.
    let serve = memphis_workloads::serve::run_serve(&memphis_workloads::serve::ServeParams {
        sessions: p.sessions,
        seed: 42,
        shared_items: 4,
        pinned_items: 1,
        churn_rounds: 0,
        local_budget: 1 << 20,
        shards: 8,
    });

    let stats = cache.stats();
    ConcGateOutcome {
        hits: stats.hits,
        recomputes,
        evictions,
        coalesced_hits: serve.rendezvous_coalesced,
        duplicates: serve.duplicate_shared_computes,
    }
}

// ----------------------------------------------------------------------
// Serving smoke gate (PR 5): deterministic admission/shed/quota counters
// ----------------------------------------------------------------------

/// Scale knobs for the serving bench gate.
#[derive(Debug, Clone, Copy)]
pub struct ServeGateParams {
    /// Open-loop requests in the trace.
    pub requests: usize,
    /// Worker threads for the parallel execute phase (must not affect
    /// any gated counter).
    pub workers: usize,
    /// Trace/fault seed.
    pub seed: u64,
    /// Local cache budget (also the pressure monitor's budget).
    pub local_budget: usize,
    /// Soft cache quota of the hog tenant.
    pub hog_quota: usize,
    /// Transient-fault rate per attempt.
    pub fault_rate: f64,
}

impl ServeGateParams {
    /// The committed-baseline scale.
    pub fn full() -> Self {
        Self {
            requests: 96,
            workers: 4,
            seed: 42,
            local_budget: 24 << 10,
            hog_quota: 4 << 10,
            fault_rate: 0.1,
        }
    }
}

/// The hog tenant of the gate's stream (private items, 4x memory, under
/// a soft cache quota).
pub const SERVE_GATE_HOG: u16 = 3;

/// The stream shape the gate runs (exposed so experiments can map
/// request ids back to tenants and priorities).
pub fn serve_gate_spec(p: &ServeGateParams) -> memphis_serve::StreamSpec {
    memphis_serve::StreamSpec {
        requests: p.requests,
        deadline_slack: 3,
        ..memphis_serve::StreamSpec::test()
    }
}

/// Runs the serving gate: a mixed multi-tenant open-loop trace with a
/// cache-hogging tenant under quota, a budget tight enough to evict and
/// pressure the monitor, and a transient-fault rate per attempt. Every
/// counter in the returned report's deterministic slice is exact run
/// over run and worker count over worker count.
pub fn run_serve_gate(p: &ServeGateParams) -> memphis_serve::ServeReport {
    use memphis_core::cache::config::CacheConfig;
    use memphis_core::cache::LineageCache;
    use memphis_serve::{open_loop, Scheduler, ServeConfig};
    use memphis_sparksim::FaultPlan;

    let mut ccfg = CacheConfig::test();
    ccfg.local_budget = p.local_budget;
    ccfg.spill_to_disk = false;
    let cache = Arc::new(LineageCache::new(ccfg));

    let mut cfg = ServeConfig::test();
    cfg.workers = p.workers;
    cfg.slots = 2;
    cfg.tenant_quotas.insert(SERVE_GATE_HOG, p.hog_quota);
    cfg.faults = FaultPlan::seeded(p.seed).with_task_failure_rate(p.fault_rate);

    Scheduler::new(cache, cfg).run(open_loop(p.seed, &serve_gate_spec(p)))
}

// ----------------------------------------------------------------------
// Recovery smoke gate (PR 7): deterministic crash-recovery counters
// ----------------------------------------------------------------------

/// Scale knobs for the durable disk tier's recovery gate.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryGateParams {
    /// Records committed to the durable store before the restart.
    pub entries: usize,
    /// Leading records tombstoned before compaction (dead bytes).
    pub dels: usize,
    /// Seeded per-write silent-corruption rate (checksum rejects).
    pub corrupt_rate: f64,
    /// Fault-plan seed.
    pub seed: u64,
}

impl RecoveryGateParams {
    /// The committed-baseline scale.
    pub fn full() -> Self {
        Self {
            entries: 48,
            dels: 12,
            corrupt_rate: 0.15,
            seed: 42,
        }
    }

    /// Tiny scale for the golden smoke tests.
    pub fn tiny() -> Self {
        Self {
            entries: 12,
            dels: 3,
            corrupt_rate: 0.25,
            seed: 42,
        }
    }
}

/// Deterministic counters of the recovery gate: the store traffic is
/// single-threaded and the corruption plan is seeded, so every field is
/// a pure function of the parameters.
#[derive(Debug, Clone)]
pub struct RecoveryGateOutcome {
    /// Segments holding at least one verified record at recovery.
    pub segments_recovered: u64,
    /// Probe-map entries rebuilt from the recovered manifest.
    pub entries_recovered: u64,
    /// Recovered entries promoted back into the local tier at startup.
    pub entries_rehydrated: u64,
    /// CRC-rejected records (compaction re-verify + recovery verify).
    pub checksum_rejects: u64,
    /// Atomic manifest swaps performed by compaction.
    pub manifest_swaps: u64,
}

/// Runs the recovery gate: commit a seeded-corruption record stream to a
/// persistent disk tier, tombstone a prefix, compact (atomic manifest
/// swap), then restart a fresh cache over the same directory and report
/// its recovery counters.
pub fn run_recovery_gate(p: &RecoveryGateParams) -> RecoveryGateOutcome {
    use memphis_core::cache::backends::DiskBackend;
    use memphis_core::cache::config::CacheConfig;
    use memphis_core::cache::LineageCache;
    use memphis_core::BackendId;
    use memphis_core::LineageItem;
    use memphis_sparksim::FaultPlan;

    let dir = std::env::temp_dir().join(format!(
        "memphis_recovery_gate_{}_{}",
        p.entries,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let payload = |i: usize| rand_uniform(24, 24, -1.0, 1.0, p.seed + i as u64);
    let items: Vec<_> = (0..p.entries)
        .map(|i| LineageItem::leaf(&format!("recgate/e{i}")))
        .collect();

    // Phase 1: commit the stream under the seeded corruption plan,
    // tombstone a prefix, and force one compaction pass.
    let (phase1_rejects, manifest_swaps) = {
        let mut cfg = CacheConfig::test();
        cfg.persist_dir = Some(dir.clone());
        cfg.segment_max_bytes = 16 << 10; // several segments
        cfg.disk_faults = FaultPlan::seeded(p.seed).with_disk_corrupt_rate(p.corrupt_rate);
        let cache = LineageCache::new(cfg);
        let disk = cache
            .registry()
            .downcast::<DiskBackend>(BackendId::Disk)
            .expect("disk tier");
        for (i, item) in items.iter().enumerate() {
            let m = payload(i);
            disk.store(&m, item.lid, 10.0 + i as f64, 1 + (i % 3) as u64);
        }
        for (i, item) in items.iter().take(p.dels).enumerate() {
            disk.discard(item.lid.content_hash(), payload(i).size_bytes());
        }
        disk.segment_store().compact_now();
        let s = cache.stats();
        (s.checksum_rejects, s.manifest_swaps)
    };

    // Phase 2: restart over the same directory; the fresh cache recovers
    // the manifest, verifies checksums, and rehydrates the hottest
    // survivors into its local tier.
    let mut cfg = CacheConfig::test();
    cfg.persist_dir = Some(dir.clone());
    cfg.rehydrate_budget = Some(4 * payload(0).size_bytes());
    let cache = LineageCache::new(cfg);
    let s = cache.stats();
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);

    RecoveryGateOutcome {
        segments_recovered: s.segments_recovered,
        entries_recovered: s.entries_recovered,
        entries_rehydrated: s.entries_rehydrated,
        checksum_rejects: phase1_rejects + s.checksum_rejects,
        manifest_swaps,
    }
}

// ----------------------------------------------------------------------
// Script gate (PR 10): DML corpus + structured differential fuzzing
// ----------------------------------------------------------------------

/// Scale knobs for the script gate — the committed `.dml` corpus plus a
/// seeded slice of the structured differential fuzzer
/// ([`memphis_workloads::script::fuzz_campaign`]).
#[derive(Debug, Clone, Copy)]
pub struct ScriptGateParams {
    /// Fuzzer seed.
    pub seed: u64,
    /// Generated programs to run through the full differential.
    pub programs: u64,
}

impl ScriptGateParams {
    /// The committed-baseline scale (seed 42, 40 programs).
    pub fn full() -> Self {
        Self {
            seed: 42,
            programs: 40,
        }
    }

    /// Milliseconds-scale knobs for the golden smoke tests.
    pub fn tiny() -> Self {
        Self {
            seed: 42,
            programs: 4,
        }
    }
}

/// Deterministic outcome of the script gate: a pure function of
/// `(seed, programs)` and the embedded corpus bytes.
#[derive(Debug, Clone)]
pub struct ScriptGateOutcome {
    /// Fuzz programs generated and executed through the differential.
    pub programs_fuzzed: u64,
    /// Programs whose configurations disagreed (must be 0).
    pub divergences: u64,
    /// Lowered DAG nodes across the corpus plus the fuzz slice.
    pub lowered_nodes: u64,
    /// Corpus scripts compiled and run.
    pub corpus_scripts: u64,
    /// FNV fold of every corpus script's reuse-on sink digest, in
    /// corpus order.
    pub corpus_digest: u64,
}

impl ScriptGateOutcome {
    /// Structural invariants any healthy gate run satisfies — checked
    /// before the baseline comparison so a broken run fails loudly
    /// rather than just diverging.
    pub fn invariants_hold(&self) -> bool {
        self.divergences == 0
            && self.programs_fuzzed > 0
            && self.corpus_scripts == memphis_workloads::script::CORPUS.len() as u64
            && self.lowered_nodes > 0
    }
}

/// Compiles and differentially runs every committed corpus script, then
/// fuzzes `programs` generated programs under the same differential
/// (reuse-on/off, `Paper`/`DelayedHits`, warm-restart).
pub fn run_script_gate(p: &ScriptGateParams) -> ScriptGateOutcome {
    use memphis_matrix::hash;
    use memphis_workloads::script;

    let mut corpus_digest = hash::FNV_OFFSET;
    let mut lowered_nodes = 0u64;
    let mut corpus_scripts = 0u64;
    for (name, src) in script::CORPUS {
        let c = memphis_script::compile(src)
            .unwrap_or_else(|e| panic!("corpus script {name} must compile: {e}"));
        lowered_nodes += c.node_count();
        let digests = script::differential_digests(&c, name)
            .unwrap_or_else(|e| panic!("corpus script {name} must run: {e:?}"));
        assert!(
            script::digests_agree(&digests),
            "corpus script {name} diverged: {digests:?}"
        );
        corpus_digest = hash::fold(corpus_digest, digests[0].1, hash::FNV_PRIME);
        corpus_scripts += 1;
    }

    let fuzz = script::fuzz_campaign(p.seed, p.programs, None);
    ScriptGateOutcome {
        programs_fuzzed: fuzz.programs,
        divergences: fuzz.divergences,
        lowered_nodes: lowered_nodes + fuzz.lowered_nodes,
        corpus_scripts,
        corpus_digest,
    }
}
