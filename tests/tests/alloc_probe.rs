//! Zero-allocation guarantee of the steady-state probe→hit path.
//!
//! A counting global allocator wraps the system allocator; after warming
//! the cache, a loop of `probe()` hits must perform **zero** heap
//! allocations: the key is the `Copy` interned `LineageId`, the shard
//! lookup hashes a single `u64`, the object comes back as a cloned
//! handle (a refcount bump), and the disabled observability spans
//! return stack-only guards.
//!
//! This file deliberately holds a SINGLE test: the default test harness
//! runs tests on threads whose own bookkeeping would pollute a global
//! allocation counter shared across tests. Even then the counter must
//! be per-thread: libtest's MAIN thread lazily allocates its channel
//! wait context while the test thread is inside the measured window
//! (a scheduling race that made a process-global count flaky), so only
//! allocations made by the thread that opted in are counted.

use memphis_core::cache::config::CacheConfig;
use memphis_core::cache::entry::CachedObject;
use memphis_core::cache::{Admit, LineageCache};
use memphis_core::lineage::LineageItem;
use memphis_matrix::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// System allocator that counts allocations, but only those made by a
/// thread that has set [`TRACKING`] — harness threads stay invisible.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized and `Cell<bool>` has no destructor, so reading
    // it from the allocator hook performs no lazy registration and no
    // allocation of its own.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

#[test]
fn warm_probe_hits_allocate_nothing() {
    let mut cfg = CacheConfig::test();
    cfg.local_budget = 4 << 20;
    cfg.spill_to_disk = false;
    let cache = LineageCache::new(cfg);

    // Warm: construct items once (interning them) and cache a payload
    // under each. Items are kept alive so probing needs no rebuild.
    let items: Vec<_> = (0..16)
        .map(|i| {
            LineageItem::new(
                "op",
                vec![format!("alloc_probe/{i}")],
                vec![LineageItem::leaf("src")],
            )
        })
        .collect();
    let payload = Matrix::zeros(8, 8);
    let size = payload.size_bytes();
    for it in &items {
        cache.put(
            it,
            CachedObject::Matrix(Arc::new(payload.clone())),
            Admit::new(10.0, size),
        );
    }
    // One full pass outside the measured window: first hits bump
    // last_access and let any lazy internals settle.
    for it in &items {
        assert!(cache.probe(it).is_some(), "warmup probe must hit");
    }

    TRACKING.with(|f| f.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut hits = 0u64;
    for _ in 0..64 {
        for it in &items {
            let hit = cache.probe(it).expect("warm probe must hit");
            // Consume the hit as a caller would: touch the object, then
            // drop it (refcount traffic only).
            if let CachedObject::Matrix(m) = &hit {
                assert_eq!(m.size_bytes(), size);
            }
            hits += 1;
        }
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    TRACKING.with(|f| f.set(false));

    assert_eq!(hits, 64 * 16);
    assert_eq!(
        after - before,
        0,
        "probe→hit hot path allocated {} times over {hits} hits",
        after - before
    );
}
