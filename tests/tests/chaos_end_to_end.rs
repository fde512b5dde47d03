//! End-to-end chaos: full engine workloads on a simulated Spark cluster
//! with seeded fault injection. Checksums must be bit-identical to the
//! fault-free run — recovery is invisible to the computation — and the
//! recovery counters must be a pure function of the seed.

use memphis_core::cache::config::CacheConfig;
use memphis_engine::EngineConfig;
use memphis_integration::chaos_seed;
use memphis_sparksim::stats::StatsSnapshot;
use memphis_sparksim::{FaultPlan, SparkConfig};
use memphis_workloads::harness::Backends;
use memphis_workloads::pipelines::{hband, hcv, pnmf};

fn chaos_plan(seed: u64) -> FaultPlan {
    // Up to 30% of task attempts fail, cached partitions and shuffle
    // outputs decay at job boundaries, and executor 0 dies before the very
    // first stage (job 0, stage 0 always executes — nothing is skippable
    // in a fresh cluster's first job).
    FaultPlan::seeded(seed)
        .with_task_failure_rate(0.3)
        .with_cached_drop_rate(0.1)
        .with_shuffle_drop_rate(0.1)
        .with_executor_kill(0, 0, 0)
}

/// Runs three §6.3 workload pipelines on a Spark-backed engine context and
/// returns their checksums plus the cluster counters.
fn run_workloads(plan: FaultPlan) -> (Vec<f64>, StatsSnapshot) {
    let spark = SparkConfig {
        storage_capacity: 256 << 20,
        task_max_failures: 10,
        default_parallelism: 8,
        fault_plan: plan,
        ..SparkConfig::local_test()
    };
    let backends = Backends::with_spark(spark);
    let mut cfg = EngineConfig::test();
    cfg.spark_threshold_bytes = 512; // push matrix ops onto the cluster
    let mut ctx = backends.make_ctx_sync(cfg, CacheConfig::test());
    let sums = vec![
        hcv::run(&mut ctx, &hcv::HcvParams::small()).unwrap(),
        pnmf::run(&mut ctx, &pnmf::PnmfParams::small()).unwrap(),
        hband::run(&mut ctx, &hband::HbandParams::small()).unwrap(),
    ];
    (sums, backends.sc.as_ref().unwrap().stats())
}

#[test]
fn workload_checksums_are_bit_identical_under_chaos() {
    let (clean, clean_stats) = run_workloads(FaultPlan::none());
    assert!(clean.iter().all(|s| s.is_finite()));
    assert_eq!(clean_stats.task_failures, 0, "clean run injects nothing");

    let (chaos, stats) = run_workloads(chaos_plan(chaos_seed()));
    assert_eq!(
        clean, chaos,
        "fault recovery must be invisible to the computation"
    );
    assert!(
        stats.task_failures > 0,
        "injected failures must fire: {stats:?}"
    );
    assert!(stats.tasks_retried > 0, "failed tasks must be retried");
    assert_eq!(stats.executors_lost, 1);
    assert!(
        stats.cached_blocks_lost
            + stats.shuffle_outputs_lost
            + stats.partitions_recomputed
            + stats.stages_resubmitted
            > 0,
        "state-loss recovery must engage: {stats:?}"
    );
}

#[test]
fn same_seed_chaos_runs_are_fully_reproducible() {
    let seed = chaos_seed();
    let (sums_a, stats_a) = run_workloads(chaos_plan(seed));
    let (sums_b, stats_b) = run_workloads(chaos_plan(seed));
    assert_eq!(sums_a, sums_b, "checksums must be bit-identical");
    assert_eq!(
        stats_a.recovery_pairs(),
        stats_b.recovery_pairs(),
        "the recovery schedule is a pure function of the seed"
    );
    assert_eq!(stats_a.jobs, stats_b.jobs);
    assert_eq!(stats_a.tasks, stats_b.tasks);
    assert_eq!(stats_a.stages, stats_b.stages);

    // A different seed yields a different fault schedule (almost surely),
    // but identical results regardless.
    let (sums_c, stats_c) = run_workloads(chaos_plan(seed.wrapping_add(1)));
    assert_eq!(sums_a, sums_c, "results are seed-independent");
    assert!(stats_c.task_failures > 0);
}
