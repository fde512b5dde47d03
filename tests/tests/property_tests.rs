//! Property-based tests (proptest) over the core data structures and
//! invariants: lineage equality semantics, cache consistency, the GPU
//! arena allocator, matrix kernels, and blocked-matrix roundtrips.

use memphis_core::cache::config::CacheConfig;
use memphis_core::cache::entry::CachedObject;
use memphis_core::cache::{Admit, LineageCache};
use memphis_core::lineage::{deserialize, lineage_eq, serialize, LItem, LineageItem};
use memphis_gpusim::Arena;
use memphis_matrix::ops::agg::{aggregate, AggOp};
use memphis_matrix::ops::binary::{binary, BinaryOp};
use memphis_matrix::ops::matmul::{matmul, matmul_parallel, tsmm};
use memphis_matrix::ops::reorg::{rbind, slice_rows, transpose};
use memphis_matrix::rand_gen::rand_uniform;
use memphis_matrix::{io as mio, BlockedMatrix, Matrix};
use proptest::prelude::*;

// ----------------------------------------------------------------------
// Lineage invariants
// ----------------------------------------------------------------------

/// Random lineage DAG described by a recipe of (opcode idx, input picks).
fn build_dag(recipe: &[(u8, u8, u8)]) -> LItem {
    let mut nodes: Vec<LItem> = vec![LineageItem::leaf("X"), LineageItem::leaf("y")];
    for &(op, a, b) in recipe {
        let opcode = ["ba+*", "+", "tsmm", "r'"][op as usize % 4];
        let ia = nodes[a as usize % nodes.len()].clone();
        let inputs = if opcode == "tsmm" || opcode == "r'" {
            vec![ia]
        } else {
            vec![ia, nodes[b as usize % nodes.len()].clone()]
        };
        nodes.push(LineageItem::new(opcode, vec![], inputs));
    }
    nodes.last().expect("non-empty").clone()
}

proptest! {
    #[test]
    fn lineage_eq_is_reflexive_and_rebuild_stable(
        recipe in proptest::collection::vec((0u8..4, 0u8..16, 0u8..16), 1..12)
    ) {
        let a = build_dag(&recipe);
        let b = build_dag(&recipe);
        prop_assert!(lineage_eq(&a, &a));
        prop_assert!(lineage_eq(&a, &b), "same recipe must be equal");
        prop_assert_eq!(a.hash, b.hash);
        prop_assert_eq!(a.height, b.height);
    }

    #[test]
    fn lineage_serialize_roundtrip(
        recipe in proptest::collection::vec((0u8..4, 0u8..16, 0u8..16), 1..12)
    ) {
        let a = build_dag(&recipe);
        let back = deserialize(&serialize(&a)).expect("parse");
        prop_assert!(lineage_eq(&a, &back));
    }

    #[test]
    fn different_leaf_names_never_collide(name in "[a-z]{1,12}") {
        let a = LineageItem::leaf(&name);
        let b = LineageItem::leaf(&format!("{name}!"));
        prop_assert!(!lineage_eq(&a, &b));
    }

    #[test]
    fn interning_is_structural(
        recipe in proptest::collection::vec((0u8..4, 0u8..16, 0u8..16), 1..12)
    ) {
        // Same recipe → same interned identity, both at the root and
        // for every node rebuilt independently.
        let a = build_dag(&recipe);
        let b = build_dag(&recipe);
        prop_assert_eq!(a.lid, b.lid);
        prop_assert_eq!(a.lid.content_hash(), a.hash);
        // A structurally different DAG (one extra node) gets a
        // different id — never a silent collision.
        let c = LineageItem::new("+", vec![], vec![a.clone(), LineageItem::leaf("X")]);
        prop_assert_ne!(c.lid, a.lid);
    }

    #[test]
    fn concurrent_interning_agrees_across_threads(
        recipe in proptest::collection::vec((0u8..4, 0u8..16, 0u8..16), 1..8),
        nthreads in 8usize..33,
    ) {
        // 8–32 threads racing to construct the same DAG all get the same
        // node, and resolving its id yields that node.
        let nodes: Vec<LItem> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..nthreads)
                .map(|_| s.spawn(|| build_dag(&recipe)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        let first = &nodes[0];
        prop_assert!(
            nodes.iter().all(|n| std::sync::Arc::ptr_eq(n, first)),
            "threads must agree on the node"
        );
        prop_assert!(std::sync::Arc::ptr_eq(&memphis_core::resolve(first.lid), first));
    }
}

// ----------------------------------------------------------------------
// Cache invariants
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn cache_returns_exactly_what_was_put(vals in proptest::collection::vec(-1e6f64..1e6, 1..40)) {
        let cache = LineageCache::new(CacheConfig::test());
        let items: Vec<LItem> = (0..vals.len())
            .map(|i| LineageItem::new("op", vec![i.to_string()], vec![]))
            .collect();
        for (item, &v) in items.iter().zip(&vals) {
            cache.put(item, CachedObject::Scalar(v), Admit::new(1.0, 16));
        }
        for (item, &v) in items.iter().zip(&vals) {
            match cache.probe(item).expect("hit") {
                CachedObject::Scalar(got) => prop_assert_eq!(got, v),
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }
    }

    #[test]
    fn local_budget_is_never_exceeded(sizes in proptest::collection::vec(1usize..64, 1..30)) {
        let mut cfg = CacheConfig::test();
        cfg.local_budget = 16 << 10;
        let cache = LineageCache::new(cfg);
        for (i, s) in sizes.iter().enumerate() {
            let m = Matrix::zeros(*s, 8); // s*64 bytes
            let item = LineageItem::new("op", vec![i.to_string()], vec![]);
            cache.put(&item, CachedObject::Matrix(std::sync::Arc::new(m)), Admit::new(1.0, s * 64));
            prop_assert!(cache.local_used() <= 16 << 10);
        }
    }
}

// ----------------------------------------------------------------------
// Arena allocator invariants
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn arena_accounting_is_exact(ops in proptest::collection::vec((1usize..512, any::<bool>()), 1..60)) {
        let mut arena = Arena::new(8192);
        let mut live: Vec<u64> = Vec::new();
        let mut live_bytes = 0usize;
        for (size, free_first) in ops {
            if free_first && !live.is_empty() {
                let addr = live.swap_remove(0);
                let freed = arena.free(addr).expect("live allocation");
                live_bytes -= freed;
            }
            if let Some(addr) = arena.alloc(size) {
                live.push(addr);
                live_bytes += size;
            }
            prop_assert_eq!(arena.used(), live_bytes);
            prop_assert_eq!(arena.used() + arena.free_bytes(), 8192);
            prop_assert!(arena.largest_free_range() <= arena.free_bytes());
        }
        // Free everything: the arena must coalesce back to one range.
        for addr in live {
            arena.free(addr).expect("live allocation");
        }
        prop_assert_eq!(arena.free_bytes(), 8192);
        prop_assert_eq!(arena.fragments(), 1);
    }
}

// ----------------------------------------------------------------------
// Matrix kernel invariants
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn matmul_is_associative_with_identity(rows in 1usize..20, cols in 1usize..20, seed in 0u64..1000) {
        let a = rand_uniform(rows, cols, -1.0, 1.0, seed);
        let i = Matrix::identity(cols);
        let ai = matmul(&a, &i).unwrap();
        prop_assert!(ai.approx_eq(&a, 1e-12));
    }

    #[test]
    fn parallel_matmul_matches_sequential(m in 1usize..40, k in 1usize..20, n in 1usize..30, seed in 0u64..1000) {
        let a = rand_uniform(m, k, -1.0, 1.0, seed);
        let b = rand_uniform(k, n, -1.0, 1.0, seed + 1);
        let s = matmul(&a, &b).unwrap();
        let p = matmul_parallel(&a, &b, 4).unwrap();
        prop_assert!(p.approx_eq(&s, 0.0));
    }

    #[test]
    fn tsmm_is_symmetric_psd_diagonal(rows in 1usize..40, cols in 1usize..12, seed in 0u64..1000) {
        let x = rand_uniform(rows, cols, -2.0, 2.0, seed);
        let g = tsmm(&x).unwrap();
        for i in 0..cols {
            prop_assert!(g.at(i, i) >= -1e-12, "diagonal must be >= 0");
            for j in 0..cols {
                prop_assert!((g.at(i, j) - g.at(j, i)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn transpose_involution(rows in 1usize..30, cols in 1usize..30, seed in 0u64..1000) {
        let m = rand_uniform(rows, cols, -5.0, 5.0, seed);
        prop_assert!(transpose(&transpose(&m)).approx_eq(&m, 0.0));
    }

    #[test]
    fn add_commutes_sub_cancels(rows in 1usize..20, cols in 1usize..20, seed in 0u64..1000) {
        let a = rand_uniform(rows, cols, -3.0, 3.0, seed);
        let b = rand_uniform(rows, cols, -3.0, 3.0, seed + 1);
        let ab = binary(&a, &b, BinaryOp::Add).unwrap();
        let ba = binary(&b, &a, BinaryOp::Add).unwrap();
        prop_assert!(ab.approx_eq(&ba, 0.0));
        let zero = binary(&a, &a, BinaryOp::Sub).unwrap();
        prop_assert!((aggregate(&zero, AggOp::SumSq).unwrap()).abs() < 1e-18);
    }

    #[test]
    fn slice_rbind_roundtrip(rows in 2usize..40, cols in 1usize..10, seed in 0u64..1000) {
        let m = rand_uniform(rows, cols, -1.0, 1.0, seed);
        let cut = rows / 2;
        let top = slice_rows(&m, 0, cut).unwrap();
        let bottom = slice_rows(&m, cut, rows).unwrap();
        prop_assert!(rbind(&top, &bottom).unwrap().approx_eq(&m, 0.0));
    }

    #[test]
    fn blocked_roundtrip(rows in 1usize..50, cols in 1usize..20, blen in 1usize..16, seed in 0u64..1000) {
        let m = rand_uniform(rows, cols, -1.0, 1.0, seed);
        let b = BlockedMatrix::from_dense(&m, blen).unwrap();
        prop_assert!(b.to_dense().unwrap().approx_eq(&m, 0.0));
    }

    #[test]
    fn matrix_bytes_roundtrip(rows in 0usize..20, cols in 0usize..20, seed in 0u64..1000) {
        let m = rand_uniform(rows, cols, -1e9, 1e9, seed);
        let back = mio::from_bytes(mio::to_bytes(&m)).unwrap();
        prop_assert_eq!(m, back);
    }
}
