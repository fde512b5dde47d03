//! Criterion micro-benchmarks of the MEMPHIS primitives: lineage hashing
//! and probing, cache put/probe, the GPU allocator (recycle vs malloc),
//! dense kernels, and the simulated shuffle.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use memphis_core::cache::config::CacheConfig;
use memphis_core::cache::entry::CachedObject;
use memphis_core::cache::gpu::GpuMemoryManager;
use memphis_core::cache::{Admit, LineageCache};
use memphis_core::lineage::{lineage_eq, LineageItem};
use memphis_core::stats::ReuseStats;
use memphis_gpusim::{GpuConfig, GpuDevice};
use memphis_matrix::ops::matmul::{matmul, tsmm};
use memphis_matrix::rand_gen::rand_uniform;
use std::sync::Arc;

fn bench_lineage(c: &mut Criterion) {
    // A deep trace with sharing, mirroring iterative workloads.
    let build = |tag: &str| {
        let mut cur = LineageItem::leaf(tag);
        for i in 0..64 {
            cur = LineageItem::new("ba+*", vec![format!("i={i}")], vec![cur.clone(), cur]);
        }
        cur
    };
    let a = build("X");
    let b = build("X");
    c.bench_function("lineage/construct_64_deep", |bench| {
        bench.iter(|| build("X"))
    });
    c.bench_function("lineage/eq_shared_subdags", |bench| {
        bench.iter(|| assert!(lineage_eq(&a, &b)))
    });
}

fn bench_cache(c: &mut Criterion) {
    let cache = LineageCache::new(CacheConfig::benchmark());
    // Populate 10K scalar entries.
    let items: Vec<_> = (0..10_000)
        .map(|i| LineageItem::new("op", vec![i.to_string()], vec![LineageItem::leaf("X")]))
        .collect();
    for (i, it) in items.iter().enumerate() {
        cache.put(it, CachedObject::Scalar(i as f64), Admit::new(1.0, 16));
    }
    c.bench_function("cache/probe_hit_10k_entries", |bench| {
        let mut i = 0usize;
        bench.iter(|| {
            let hit = cache.probe(&items[i % items.len()]);
            i += 1;
            assert!(hit.is_some());
        })
    });
    let miss = LineageItem::new("op", vec!["miss".into()], vec![LineageItem::leaf("Y")]);
    c.bench_function("cache/probe_miss", |bench| {
        bench.iter(|| assert!(cache.probe(&miss).is_none()))
    });
}

fn bench_gpu_allocator(c: &mut Criterion) {
    let stats = Arc::new(ReuseStats::default());
    let mgr = GpuMemoryManager::new(
        Arc::new(GpuDevice::new(GpuConfig::zero_cost(512 << 20))),
        stats,
    );
    c.bench_function("gpu/recycle_exact_size", |bench| {
        // Warm: one pointer in the free pool.
        let a = mgr.request(4096, 2, 1.0).unwrap();
        mgr.release(a.ptr, 2, 1.0);
        bench.iter(|| {
            let a = mgr.request(4096, 2, 1.0).unwrap();
            assert!(a.recycled);
            mgr.release(a.ptr, 2, 1.0);
        })
    });
}

fn bench_kernels(c: &mut Criterion) {
    let a = rand_uniform(128, 128, -1.0, 1.0, 1);
    let b = rand_uniform(128, 128, -1.0, 1.0, 2);
    c.bench_function("kernel/matmul_128", |bench| {
        bench.iter(|| matmul(&a, &b).unwrap())
    });
    let x = rand_uniform(1024, 32, -1.0, 1.0, 3);
    c.bench_function("kernel/tsmm_1024x32", |bench| {
        bench.iter(|| tsmm(&x).unwrap())
    });
}

fn bench_spark(c: &mut Criterion) {
    use memphis_matrix::BlockedMatrix;
    use memphis_sparksim::{SparkConfig, SparkContext};
    let sc = SparkContext::new(SparkConfig::local_test());
    let m = rand_uniform(512, 32, -1.0, 1.0, 4);
    let blocked = BlockedMatrix::from_dense(&m, 64).unwrap();
    c.bench_function("spark/tsmm_job_512x32", |bench| {
        bench.iter_batched(
            || sc.parallelize_blocked(&blocked, "X"),
            |rdd| {
                let partial = sc.map(&rdd, "tsmm", Arc::new(|k, b| (*k, tsmm(b).unwrap())));
                sc.reduce(
                    &partial,
                    Arc::new(|x, y| {
                        memphis_matrix::ops::binary::binary(
                            &x,
                            &y,
                            memphis_matrix::ops::binary::BinaryOp::Add,
                        )
                        .unwrap()
                    }),
                )
                .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_lineage,
    bench_cache,
    bench_gpu_allocator,
    bench_kernels,
    bench_spark
);
criterion_main!(benches);
