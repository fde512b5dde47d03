//! Disk-tier integration: spill on eviction, disk hit with
//! promote-on-hit, and injected I/O failure — asserting the counters and
//! bit-identical round-tripped contents (chaos-seeded like
//! `concurrency.rs`; run under `CHAOS_SEED` 42 and 1337 by `ci.sh`).

use memphis_core::backend::BackendId;
use memphis_core::cache::config::CacheConfig;
use memphis_core::cache::entry::CachedObject;
use memphis_core::cache::{Admit, LineageCache};
use memphis_core::lineage::{LItem, LineageItem};
use memphis_integration::chaos_seed;
use memphis_matrix::rand_gen::rand_uniform;
use memphis_matrix::Matrix;
use std::path::PathBuf;
use std::sync::Arc;

fn item(name: &str) -> LItem {
    LineageItem::leaf(name)
}

fn mat(m: &Matrix) -> CachedObject {
    CachedObject::Matrix(Arc::new(m.clone()))
}

/// A per-test spill directory so parallel tests never share files.
fn spill_dir(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "memphis_disk_tier_{test}_{}_{}",
        chaos_seed(),
        std::process::id()
    ))
}

fn cache(budget_kb: usize, spill_dir: PathBuf) -> LineageCache {
    let mut cfg = CacheConfig::test();
    cfg.local_budget = budget_kb << 10;
    cfg.spill_dir = spill_dir;
    LineageCache::new(cfg)
}

/// Spill → disk hit → promote-on-hit: the evicted matrix round-trips
/// through the disk tier bit-for-bit, the hit promotes it back to
/// memory, and every counter involved is exact.
#[test]
fn spill_then_disk_hit_promotes_bit_identical() {
    let dir = spill_dir("roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    let c = cache(12, dir.clone());
    let seed = chaos_seed();
    let m1 = rand_uniform(32, 32, -1.0, 1.0, seed); // 8 KB
    let m2 = rand_uniform(32, 32, -1.0, 1.0, seed + 1);
    let i1 = item("disk/m1");
    let i2 = item("disk/m2");

    c.put(&i1, mat(&m1), Admit::new(1.0, m1.size_bytes()));
    c.probe(&i1).expect("warm hit"); // proven reusable → spills, not drops
    c.put(&i2, mat(&m2), Admit::new(100.0, m2.size_bytes()));

    let s = c.stats();
    assert_eq!(s.local_spills, 1, "cheaper proven entry spilled");
    assert_eq!(s.local_drops, 0);
    assert_eq!(s.disk_io_errors, 0);
    assert_eq!(
        c.disk().used(),
        m1.size_bytes(),
        "spill accounted to disk tier"
    );

    // Disk hit: contents must be bit-identical (tolerance 0.0), and
    // promote-on-hit must move the bytes back to the local tier.
    match c.probe(&i1).expect("disk hit") {
        CachedObject::Matrix(got) => {
            assert!(got.approx_eq(&m1, 0.0), "disk round-trip must be exact")
        }
        other => panic!("unexpected {other:?}"),
    }
    let s = c.stats();
    assert_eq!(s.hits_disk, 1);
    assert_eq!(c.disk().used(), 0, "promotion drains the disk tier");

    // The promoted entry now hits in memory.
    let before = c.stats().hits_local;
    c.probe(&i1).expect("promoted hit");
    assert_eq!(c.stats().hits_local, before + 1);
    assert_eq!(c.stats().disk_io_errors, 0, "clean run: no I/O errors");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected spill-write failure: pointing the spill directory *under an
/// existing regular file* makes every disk write fail. The eviction must
/// fall back to a clean drop — no dangling disk entry, a counted
/// `disk_io_errors`, and the victim is a recomputable miss afterwards.
#[test]
fn spill_write_failure_drops_cleanly_and_counts() {
    let blocker = spill_dir("blocked_parent");
    let _ = std::fs::remove_dir_all(&blocker);
    let _ = std::fs::remove_file(&blocker);
    std::fs::write(&blocker, b"not a directory").unwrap();
    // `create_dir_all(blocker/spill)` now fails on every store().
    let c = cache(12, blocker.join("spill"));
    let seed = chaos_seed();
    let m1 = rand_uniform(32, 32, -1.0, 1.0, seed);
    let m2 = rand_uniform(32, 32, -1.0, 1.0, seed + 1);
    let i1 = item("disk/fail1");

    c.put(&i1, mat(&m1), Admit::new(1.0, m1.size_bytes()));
    c.probe(&i1).expect("warm hit"); // proven: would spill if disk worked
    c.put(
        &item("disk/fail2"),
        mat(&m2),
        Admit::new(100.0, m2.size_bytes()),
    );

    let s = c.stats();
    assert!(s.disk_io_errors >= 1, "failed spill write must be counted");
    assert_eq!(s.local_spills, 0, "failed write is not a spill");
    assert_eq!(s.local_drops, 1, "victim dropped cleanly instead");
    assert_eq!(
        c.disk().used(),
        0,
        "no dangling disk entry may be accounted"
    );
    assert!(
        c.probe(&i1).is_none(),
        "dropped entry is a miss (recompute from lineage), not a dangling path"
    );

    // The cache stays fully usable after the failure.
    c.put(&i1, mat(&m1), Admit::new(200.0, m1.size_bytes()));
    match c.probe(&i1).expect("re-put hits in memory") {
        CachedObject::Matrix(got) => assert!(got.approx_eq(&m1, 0.0)),
        other => panic!("unexpected {other:?}"),
    }
    let _ = std::fs::remove_file(&blocker);
}

/// The snapshot plumbing surfaces disk I/O errors: the counter appears
/// in the metrics dump and in the disk backend's snapshot detail, so a
/// failing disk is visible in `memphis-obs` output rather than silent.
#[test]
fn disk_io_errors_surface_in_metrics_and_snapshots() {
    use memphis_obs::IntoMetrics;

    let blocker = spill_dir("metrics_parent");
    let _ = std::fs::remove_dir_all(&blocker);
    let _ = std::fs::remove_file(&blocker);
    std::fs::write(&blocker, b"not a directory").unwrap();
    let c = cache(12, blocker.join("spill"));
    let seed = chaos_seed();
    let m1 = rand_uniform(32, 32, -1.0, 1.0, seed);
    let m2 = rand_uniform(32, 32, -1.0, 1.0, seed + 1);
    let i1 = item("disk/metrics1");
    c.put(&i1, mat(&m1), Admit::new(1.0, m1.size_bytes()));
    c.probe(&i1).expect("warm hit");
    c.put(
        &item("disk/metrics2"),
        mat(&m2),
        Admit::new(100.0, m2.size_bytes()),
    );

    let snap = c.stats();
    assert!(snap.disk_io_errors >= 1);
    let metrics = snap.metrics();
    let io = metrics
        .iter()
        .find(|(k, _)| *k == "disk_io_errors")
        .expect("disk_io_errors exported to the metrics registry");
    assert_eq!(io.1, snap.disk_io_errors);

    let disk_snap = c
        .backend_snapshots()
        .into_iter()
        .find(|s| s.id == BackendId::Disk)
        .expect("disk backend snapshot");
    assert!(
        disk_snap
            .detail
            .iter()
            .any(|(k, v)| *k == "io_errors" && *v >= 1),
        "disk snapshot detail must carry io_errors: {:?}",
        disk_snap.detail
    );
    let _ = std::fs::remove_file(&blocker);
}

/// Regression: spill files are keyed by the lineage *content hash* — a
/// pure function of the lineage log — not by allocation-order ids. A
/// fresh process (new intern table, different interning order) over the
/// same directory must find the same durable entry under the same key,
/// with no rename or rewrite pass.
#[test]
fn spill_keys_are_content_hashes_stable_across_restart() {
    use memphis_core::cache::durable::SegmentStore;

    let dir = spill_dir("stable_keys");
    let _ = std::fs::remove_dir_all(&dir);
    let seed = chaos_seed();
    let m1 = rand_uniform(32, 32, -1.0, 1.0, seed);
    let m2 = rand_uniform(32, 32, -1.0, 1.0, seed + 1);
    let i1 = item("disk/stable_across_restart");
    let hash = i1.lid.content_hash();

    {
        let mut cfg = CacheConfig::test();
        cfg.local_budget = 12 << 10;
        cfg.persist_dir = Some(dir.clone());
        let c = LineageCache::new(cfg);
        c.put(&i1, mat(&m1), Admit::new(1.0, m1.size_bytes()));
        c.probe(&i1).expect("warm hit"); // proven → spills
        c.put(
            &item("disk/stable_pressure"),
            mat(&m2),
            Admit::new(100.0, m2.size_bytes()),
        );
        assert_eq!(c.stats().local_spills, 1);
        let disk = c.disk();
        assert!(
            disk.segment_store().contains(hash),
            "spill must be stored under the lineage content hash"
        );
    }

    // Skew the fresh process's interning order: a restart never replays
    // allocation order, so any allocation-order key would now dangle.
    for j in 0..32 {
        let _ = item(&format!("disk/unrelated_intern_{j}"));
    }

    // First reopen: the durable entry is found under the same
    // content-hash key, with no rename or rewrite pass — recovery is
    // read-only, so a further reopen sees the identical digest.
    let digest = {
        let mut cfg = CacheConfig::test();
        cfg.local_budget = 12 << 10;
        cfg.persist_dir = Some(dir.clone());
        cfg.rehydrate_budget = Some(0);
        let c = LineageCache::new(cfg);
        assert_eq!(c.stats().entries_recovered, 1, "one durable entry");
        let disk = c.disk();
        assert!(
            disk.segment_store().contains(hash),
            "recovered store holds the same content-hash key"
        );
        disk.segment_store().durable_digest()
    };

    // Second reopen: same digest, and the probe serves the original
    // bytes from disk under the re-interned lineage identity.
    let mut cfg = CacheConfig::test();
    cfg.local_budget = 12 << 10;
    cfg.persist_dir = Some(dir.clone());
    cfg.rehydrate_budget = Some(0);
    let c = LineageCache::new(cfg);
    let disk = c.disk();
    assert_eq!(
        disk.segment_store().durable_digest(),
        digest,
        "recovery must not rewrite the durable state"
    );
    match c.probe(&i1).expect("recovered disk hit") {
        CachedObject::Matrix(got) => {
            assert!(got.approx_eq(&m1, 0.0), "recovered bytes bit-identical")
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(c.stats().hits_disk, 1);
    assert_eq!(c.stats().checksum_rejects, 0);
    drop(c);

    // The raw store agrees: the promoted entry's durable copy was
    // consumed by promote-on-hit; nothing else changed.
    let (store, _) = SegmentStore::open(
        dir.clone(),
        1 << 20,
        u64::MAX / 4,
        memphis_sparksim::FaultPlan::none(),
        Arc::new(memphis_core::stats::ReuseStats::default()),
    );
    assert!(!store.contains(hash), "promotion discards the disk copy");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
