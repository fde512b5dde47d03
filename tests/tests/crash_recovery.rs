//! Crash-recovery differential suite for the durable disk tier.
//!
//! Two layers of coverage, both chaos-seeded (`CHAOS_SEED` 42 and 1337,
//! driven by `ci.sh`'s `test` stage):
//!
//! 1. **Kill-at-every-sync sweep** — run an end-to-end workload (hcv /
//!    pnmf / hband warm-session sequences) over a persistent disk tier
//!    once uninterrupted to record its checksums and the committed-state
//!    digest at every sync point, then re-run it once per sync point
//!    with a deterministic kill injected there. Each killed run must
//!    still produce bit-identical pipeline checksums (the cache
//!    degrades, the answer does not), recovery over the surviving files
//!    must land exactly on the committed prefix (`digest[k-2]`, or the
//!    empty store for a kill at the very first sync), and replaying the
//!    workload on the recovered cache must reproduce the uninterrupted
//!    checksums.
//!
//! 2. **Torn-write / corruption proptest** — random interleavings of
//!    put / delete / compaction / crash+reopen against the raw
//!    [`SegmentStore`], with seeded torn-write and silent-corruption
//!    injection. A shadow model folds the acknowledged operations; after
//!    every reopen the recovered state must equal that fold minus the
//!    corrupted records, and no read may ever surface corrupt bytes —
//!    checksum rejection must route to recompute (a `None` read).

use memphis_core::backend::BackendId;
use memphis_core::cache::backends::DiskBackend;
use memphis_core::cache::config::CacheConfig;
use memphis_core::cache::durable::{empty_digest, DurableRecord, SegmentStore};
use memphis_core::cache::LineageCache;
use memphis_core::stats::ReuseStats;
use memphis_integration::chaos_seed;
use memphis_sparksim::FaultPlan;
use memphis_workloads::pipelines;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A unique scratch directory per test invocation.
fn scratch(name: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "memphis_crash_{name}_{}_{}_{}",
        chaos_seed(),
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

// ----------------------------------------------------------------------
// 1. Kill-at-every-sync sweep over end-to-end pipelines
// ----------------------------------------------------------------------

/// Per-kind local budget for the sweep: sized just below (hcv/hband) or
/// just above (pnmf) the pipeline's warm working set so the workload
/// below evicts — and therefore spills — proven entries.
fn sweep_budget(kind: &str) -> usize {
    match kind {
        // pnmf's warm working set is ~134 KB; the extra-iteration churn
        // session then overflows a 136 KB budget while every resident is
        // proven, forcing eq. (1) spills of reused entries.
        "pnmf" => 136 << 10,
        // hcv (~11 KB) and hband (~80 KB) reuse intermediates within a
        // session, so a 4 KB budget churns proven entries directly.
        _ => 4 << 10,
    }
}

/// Cache configuration for the sweep: a persistent durable tier and a
/// local budget tight enough that the workload spills proven entries.
fn sweep_config(dir: &Path, kind: &str, faults: FaultPlan) -> CacheConfig {
    let mut cfg = CacheConfig::test();
    cfg.persist_dir = Some(dir.to_path_buf());
    cfg.local_budget = sweep_budget(kind);
    // Keep the durable set untouched at recovery so the recovered digest
    // is exactly the committed prefix (rehydration would discard disk
    // copies as it promotes them).
    cfg.rehydrate_budget = Some(0);
    cfg.disk_faults = faults;
    cfg
}

/// The sweep workload for one kind: warm sessions of the same pipeline
/// (probes prove the first session's entries) plus, for pnmf, a final
/// session with one extra iteration whose fresh puts land while every
/// resident entry is proven. All sessions share one deterministic data
/// seed, so the checksums are a pure function of the kind — a disk
/// crash can only change *where* values come from, never what they are.
fn run_workload(cache: &Arc<LineageCache>, kind: &str) -> Vec<f64> {
    let mut checks = Vec::new();
    match kind {
        "hcv" => {
            for _ in 0..2 {
                let mut ctx = pipelines::session_context(cache);
                let p = pipelines::hcv::HcvParams::small();
                checks.push(pipelines::hcv::run(&mut ctx, &p).expect("hcv run"));
            }
        }
        "pnmf" => {
            for extra in [0usize, 0, 1] {
                let mut ctx = pipelines::session_context(cache);
                let mut p = pipelines::pnmf::PnmfParams::small();
                p.iterations += extra;
                checks.push(pipelines::pnmf::run(&mut ctx, &p).expect("pnmf run"));
            }
        }
        "hband" => {
            for _ in 0..2 {
                let mut ctx = pipelines::session_context(cache);
                let p = pipelines::hband::HbandParams::small();
                checks.push(pipelines::hband::run(&mut ctx, &p).expect("hband run"));
            }
        }
        other => panic!("unknown sweep kind {other}"),
    }
    checks
}

struct SweepRun {
    checks: Vec<u64>,
    syncs: u64,
    digests: Vec<u64>,
    crashed: bool,
}

/// Runs one kind's workload over a fresh cache rooted at `dir`.
fn run_pipeline(dir: &Path, kind: &str, faults: FaultPlan) -> SweepRun {
    let cache = Arc::new(LineageCache::new(sweep_config(dir, kind, faults)));
    let checks = run_workload(&cache, kind)
        .into_iter()
        .map(f64::to_bits)
        .collect();
    let disk = cache
        .registry()
        .downcast::<DiskBackend>(BackendId::Disk)
        .expect("disk tier");
    let store = disk.segment_store();
    SweepRun {
        checks,
        syncs: store.sync_points(),
        digests: store.sync_digests(),
        crashed: store.is_crashed(),
    }
}

/// The full differential sweep for one pipeline kind.
fn kill_sweep(kind: &str) {
    let seed = chaos_seed();

    // Uninterrupted baseline: pipeline checksum plus the committed-state
    // digest after every sync point.
    let base_dir = scratch(&format!("base_{kind}"));
    let _ = std::fs::remove_dir_all(&base_dir);
    let base = run_pipeline(&base_dir, kind, FaultPlan::seeded(seed));
    let _ = std::fs::remove_dir_all(&base_dir);
    assert!(!base.crashed);
    assert!(
        base.syncs >= 4,
        "{kind}: baseline must exercise the durable tier ({} syncs)",
        base.syncs
    );
    assert_eq!(base.digests.len() as u64, base.syncs);

    for k in 1..=base.syncs {
        let dir = scratch(&format!("kill_{kind}_{k}"));
        let _ = std::fs::remove_dir_all(&dir);

        // Run with a deterministic kill at sync point k. The disk tier
        // dies mid-run; the pipeline answer must not change by a bit.
        let killed = run_pipeline(
            &dir,
            kind,
            FaultPlan::seeded(seed).with_disk_kill_at_sync(k),
        );
        assert!(killed.crashed, "{kind}: sync {k} must kill the store");
        assert_eq!(
            killed.syncs, k,
            "{kind}: the store must die at exactly sync {k}"
        );
        assert_eq!(
            killed.checks, base.checks,
            "{kind}: a disk crash at sync {k} must not change any session result"
        );

        // Recover: a fresh cache over the surviving files must land
        // exactly on the committed prefix — everything synced before the
        // kill, nothing after, nothing torn.
        let cache = Arc::new(LineageCache::new(sweep_config(
            &dir,
            kind,
            FaultPlan::none(),
        )));
        let disk = cache
            .registry()
            .downcast::<DiskBackend>(BackendId::Disk)
            .expect("disk tier");
        let expected = if k >= 2 {
            base.digests[(k - 2) as usize]
        } else {
            empty_digest()
        };
        assert_eq!(
            disk.segment_store().durable_digest(),
            expected,
            "{kind}: kill at sync {k} must recover the committed prefix"
        );
        let s = cache.stats();
        assert_eq!(
            s.checksum_rejects, 0,
            "{kind}: a kill never commits a torn record (sync {k})"
        );
        assert_eq!(
            s.entries_recovered as usize,
            disk.segment_store().entry_count(),
            "{kind}: every committed record is rebuilt in the probe map"
        );

        // Replay the workload on the recovered cache: warm disk entries
        // materialize, cold ones recompute, and every session checksum
        // is again bit-identical to the uninterrupted run.
        let replay: Vec<u64> = run_workload(&cache, kind)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        assert_eq!(
            replay, base.checks,
            "{kind}: replay after recovery from kill at sync {k} diverged"
        );
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, s.probes, "{kind}: probe accounting");

        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn hcv_survives_a_kill_at_every_sync_point() {
    kill_sweep("hcv");
}

#[test]
fn pnmf_survives_a_kill_at_every_sync_point() {
    kill_sweep("pnmf");
}

#[test]
fn hband_survives_a_kill_at_every_sync_point() {
    kill_sweep("hband");
}

// ----------------------------------------------------------------------
// 2. Torn-write / corruption proptest over the raw store
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    Put(u8),
    Del(u8),
    Compact,
    Reopen,
}

/// Decodes one `(selector, key)` pair into an op — puts weighted
/// heaviest, an occasional compaction or crash+reopen.
fn decode_op(sel: u8, key: u8) -> Op {
    match sel {
        0..=3 => Op::Put(key),
        4..=5 => Op::Del(key),
        6 => Op::Compact,
        _ => Op::Reopen,
    }
}

fn record_for(key: u8, version: u32) -> DurableRecord {
    let payload: Vec<u8> = (0..96)
        .map(|i| (key as u32 + 31 * version + i) as u8)
        .collect();
    DurableRecord {
        content_hash: 0x1000 + key as u64,
        compute_cost: 10.0 + key as f64,
        hits: version as u64,
        height: 1,
        lineage_log: format!("proptest lineage of record {key}"),
        matrix_bytes: payload,
    }
}

fn open_store(dir: &Path, plan: &FaultPlan) -> SegmentStore {
    SegmentStore::open(
        dir.to_path_buf(),
        2 << 10, // small segments: several per run
        u64::MAX / 4,
        plan.clone(),
        Arc::new(ReuseStats::default()),
    )
    .0
}

/// Shadow of the *durable* state: the latest acknowledged record bytes
/// per hash plus whether that write was silently corrupted.
#[derive(Default)]
struct Shadow {
    live: HashMap<u64, (Vec<u8>, bool)>,
    write_seq: u64,
    crashed: bool,
}

/// Recovered state must equal the fold of acknowledged ops minus the
/// corrupted records; asserted after each reopen.
fn assert_recovered_matches(store: &SegmentStore, shadow: &Shadow) {
    let surviving: HashMap<&u64, &Vec<u8>> = shadow
        .live
        .iter()
        .filter(|(_, (_, corrupt))| !corrupt)
        .map(|(h, (bytes, _))| (h, bytes))
        .collect();
    assert_eq!(
        store.entry_count(),
        surviving.len(),
        "recovered state must be exactly the surviving fold"
    );
    for (hash, bytes) in surviving {
        let rec = store
            .read(*hash)
            .unwrap_or_else(|| panic!("surviving record {hash:#x} lost"));
        assert_eq!(
            &rec.matrix_bytes, bytes,
            "recovered payload must be bit-identical to the acknowledged write"
        );
    }
    for (hash, (_, corrupt)) in &shadow.live {
        if *corrupt {
            assert!(
                !store.contains(*hash),
                "corrupt record {hash:#x} must be rejected, never surfaced"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn torn_writes_never_surface_corrupt_entries(
        raw_ops in proptest::collection::vec((0u8..8, 0u8..8), 1..32),
        seed in 0u64..512,
        torn_sel in 0u8..5,
        corrupt_sel in 0u8..5,
    ) {
        let torn_rate = torn_sel as f64 * 0.08;
        let corrupt_rate = corrupt_sel as f64 * 0.08;
        let ops: Vec<Op> = raw_ops.iter().map(|&(s, k)| decode_op(s, k)).collect();
        let dir = scratch("proptest");
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::seeded(seed)
            .with_disk_torn_write_rate(torn_rate)
            .with_disk_corrupt_rate(corrupt_rate);
        let mut store = open_store(&dir, &plan);
        let mut shadow = Shadow::default();
        let mut versions: HashMap<u8, u32> = HashMap::new();

        for op in &ops {
            match op {
                Op::Put(k) => {
                    let v = versions.entry(*k).or_insert(0);
                    *v += 1;
                    let rec = record_for(*k, *v);
                    let acked = store.put(&rec);
                    if shadow.crashed {
                        prop_assert!(!acked, "a crashed store must reject writes");
                        continue;
                    }
                    shadow.write_seq += 1;
                    if plan.should_tear_disk_write(shadow.write_seq) {
                        prop_assert!(!acked, "a torn write must not be acknowledged");
                        shadow.crashed = true;
                        continue;
                    }
                    prop_assert!(acked);
                    let corrupt = plan.should_corrupt_disk_record(shadow.write_seq);
                    shadow.live.insert(rec.content_hash, (rec.matrix_bytes.clone(), corrupt));
                }
                Op::Del(k) => {
                    let hash = 0x1000 + *k as u64;
                    let removed = store.remove(hash);
                    if shadow.crashed {
                        // In-memory only: the durable state keeps the
                        // record, and reopen resurrects it.
                        continue;
                    }
                    // Tombstone presence must match the committed fold.
                    let committed = shadow.live.contains_key(&hash);
                    prop_assert_eq!(removed.is_some(), committed);
                    shadow.live.remove(&hash);
                }
                Op::Compact => {
                    let swapped = store.compact_now();
                    if shadow.crashed {
                        prop_assert!(!swapped, "a crashed store must not compact");
                    } else {
                        // Compaction re-verifies: corrupted records fall
                        // out of the new generation.
                        shadow.live.retain(|_, (_, corrupt)| !*corrupt);
                    }
                }
                Op::Reopen => {
                    drop(store);
                    store = open_store(&dir, &plan);
                    // Recovery rejects (and tombstones) corrupt records.
                    shadow.live.retain(|_, (_, corrupt)| !*corrupt);
                    shadow.crashed = false;
                    shadow.write_seq = 0;
                    assert_recovered_matches(&store, &shadow);
                }
            }
        }

        // Final crash + recovery, whatever state the sequence left.
        drop(store);
        let store = open_store(&dir, &FaultPlan::none());
        shadow.live.retain(|_, (_, corrupt)| !*corrupt);
        assert_recovered_matches(&store, &shadow);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
