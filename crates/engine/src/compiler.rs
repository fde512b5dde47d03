//! Operator placement and linearization (§5): dimension inference,
//! tier-driven backend placement, and the depth-first and Algorithm 2
//! `maxParallelize` orderings. Only `maxParallelize` reads placement.
//!
//! No pass here inserts operators or tunes the delay factor: programs
//! place their own prefetch, broadcast, checkpoint and GPU eviction (the
//! builder calls on [`ExecutionContext`](crate::context::ExecutionContext),
//! or DML `checkpoint`/`evict`), and each experiment sets
//! [`EngineConfig::delay_factor`].

use crate::config::EngineConfig;
use crate::cost;
use crate::ops::AggDir;
use crate::plan::{Dag, OpKind, Operand};
use memphis_core::LineageCache;
use std::collections::HashMap;

/// Backend assignment of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Driver-local CPU.
    Cp,
    /// Simulated Spark cluster.
    Sp,
    /// Simulated GPU device.
    Gpu,
}

/// Linearization strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ordering {
    /// Plain depth-first, backend-agnostic (the baseline).
    DepthFirst,
    /// Algorithm 2: remote operator chains first, longest first, to
    /// maximize concurrent execution.
    MaxParallelize,
}

/// Capacity view of the cache's attached tiers, consulted by operator
/// placement. Read from the [`LineageCache`] so the compiler asks the
/// cache which tiers exist (and how much room they have) instead of
/// hard-coding CPU/Spark/GPU branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlacementCaps {
    /// A Spark tier is attached: distributed placement is possible.
    pub spark: bool,
    /// A GPU tier is attached.
    pub gpu: bool,
    /// GPU device capacity in bytes; operands placed there must fit.
    pub gpu_capacity: usize,
}

impl PlacementCaps {
    /// Driver-local execution only — no remote tiers attached.
    pub fn local_only() -> Self {
        Self::default()
    }

    /// Reads tier availability and device capacity out of the cache.
    pub fn of(cache: &LineageCache) -> Self {
        let gpu = cache.gpu_manager();
        Self {
            spark: cache.spark().is_some(),
            gpu: gpu.is_some(),
            gpu_capacity: gpu.map_or(0, |g| g.device().capacity()),
        }
    }
}

// ----------------------------------------------------------------------
// Dimension inference and placement
// ----------------------------------------------------------------------

/// Infers output dims of every node from external variable dims.
pub fn infer_dims(dag: &Dag, var_dims: &HashMap<String, (usize, usize)>) -> Vec<(usize, usize)> {
    let mut dims = vec![(1usize, 1usize); dag.nodes.len()];
    let get = |dims: &Vec<(usize, usize)>, o: &Operand| -> (usize, usize) {
        match o {
            Operand::Var(v) => var_dims.get(v).copied().unwrap_or((1, 1)),
            Operand::Node(id) => dims[*id],
        }
    };
    for n in &dag.nodes {
        let d = match &n.kind {
            OpKind::Rand { rows, cols, .. } => (*rows, *cols),
            OpKind::MatMul => {
                let a = get(&dims, &n.inputs[0]);
                let b = get(&dims, &n.inputs[1]);
                (a.0, b.1)
            }
            OpKind::Tsmm => {
                let x = get(&dims, &n.inputs[0]);
                (x.1, x.1)
            }
            OpKind::Xty => {
                let x = get(&dims, &n.inputs[0]);
                let y = get(&dims, &n.inputs[1]);
                (x.1, y.1)
            }
            OpKind::Transpose => {
                let x = get(&dims, &n.inputs[0]);
                (x.1, x.0)
            }
            OpKind::Solve => {
                let a = get(&dims, &n.inputs[0]);
                let b = get(&dims, &n.inputs[1]);
                (a.1, b.1)
            }
            OpKind::Binary(_) => {
                let a = get(&dims, &n.inputs[0]);
                let b = get(&dims, &n.inputs[1]);
                (a.0.max(b.0), a.1.max(b.1))
            }
            OpKind::BinaryScalar { .. } | OpKind::Unary(_) | OpKind::Alias | OpKind::Checkpoint => {
                get(&dims, &n.inputs[0])
            }
            OpKind::Agg(_, AggDir::Full) => (1, 1),
            OpKind::Agg(_, AggDir::Row) => (get(&dims, &n.inputs[0]).0, 1),
            OpKind::Agg(_, AggDir::Col) => (1, get(&dims, &n.inputs[0]).1),
            OpKind::Literal(_) => (1, 1),
            OpKind::SliceRows { start, end } => {
                (end.saturating_sub(*start), get(&dims, &n.inputs[0]).1)
            }
            OpKind::SliceCols { start, end } => {
                (get(&dims, &n.inputs[0]).0, end.saturating_sub(*start))
            }
            OpKind::Conv2d(p) => (get(&dims, &n.inputs[0]).0, p.out_cols()),
            OpKind::MaxPool2d(p) => (get(&dims, &n.inputs[0]).0, p.out_cols()),
            OpKind::Affine => {
                let x = get(&dims, &n.inputs[0]);
                let w = get(&dims, &n.inputs[1]);
                (x.0, w.1)
            }
            OpKind::Evict(_) => (0, 0),
        };
        dims[n.id] = d;
    }
    dims
}

/// Assigns a backend to every node, mirroring the runtime placement rule:
/// distributed inputs keep ops on Spark; action-like ops return to the
/// driver; compute-intensive dense ops of sufficient size go to the GPU.
pub fn place(
    dag: &Dag,
    var_dims: &HashMap<String, (usize, usize)>,
    cfg: &EngineConfig,
    caps: &PlacementCaps,
) -> Vec<Backend> {
    let dims = infer_dims(dag, var_dims);
    let mut backend = vec![Backend::Cp; dag.nodes.len()];
    let input_is_sp = |backend: &Vec<Backend>, o: &Operand| -> bool {
        match o {
            Operand::Var(v) => {
                let (r, c) = var_dims.get(v).copied().unwrap_or((1, 1));
                caps.spark && cost::dense_bytes(r, c) > cfg.spark_threshold_bytes
            }
            // Action-like Spark nodes collect their output to the driver,
            // so consumers see a local value.
            Operand::Node(id) => {
                backend[*id] == Backend::Sp && !dag.nodes[*id].kind.is_action_like()
            }
        }
    };
    for n in &dag.nodes {
        let any_sp = n.inputs.iter().any(|o| input_is_sp(&backend, o));
        let (r, c) = dims[n.id];
        let opcode = opcode_of(&n.kind);
        backend[n.id] = if any_sp {
            // The operator runs on Spark; if action-like, its output is
            // still collected to the driver (handled by input_is_sp).
            Backend::Sp
        } else if caps.gpu
            && cost::is_compute_intensive(opcode)
            && r * c >= cfg.gpu_min_cells
            && cost::dense_bytes(r, c) <= caps.gpu_capacity
        {
            Backend::Gpu
        } else {
            Backend::Cp
        };
    }
    backend
}

fn opcode_of(kind: &OpKind) -> &'static str {
    match kind {
        OpKind::Rand { .. } => "rand",
        OpKind::MatMul => "ba+*",
        OpKind::Tsmm => "tsmm",
        OpKind::Xty => "ba+*",
        OpKind::Transpose => "r'",
        OpKind::Solve => "solve",
        OpKind::Binary(op) | OpKind::BinaryScalar { op, .. } => op.opcode(),
        OpKind::Unary(op) => op.opcode(),
        OpKind::Agg(op, _) => op.opcode(),
        OpKind::Literal(_) => "assignvar",
        OpKind::Alias => "assignvar",
        OpKind::SliceRows { .. } => "rightIndex",
        OpKind::SliceCols { .. } => "rightIndexCol",
        OpKind::Conv2d(_) => "conv2d",
        OpKind::MaxPool2d(_) => "maxpool",
        OpKind::Affine => "affine",
        OpKind::Checkpoint => "chkpoint",
        OpKind::Evict(_) => "evict",
    }
}

// ----------------------------------------------------------------------
// Linearization (Algorithm 2)
// ----------------------------------------------------------------------

/// Orders a DAG into an instruction list of node ids.
pub fn linearize(dag: &Dag, backend: &[Backend], strategy: Ordering) -> Vec<usize> {
    match strategy {
        Ordering::DepthFirst => {
            let mut order = Vec::new();
            let mut visited = vec![false; dag.nodes.len()];
            for s in dag.sinks() {
                depth_first(dag, s, &mut visited, &mut order);
            }
            order
        }
        Ordering::MaxParallelize => max_parallelize(dag, backend),
    }
}

fn depth_first(dag: &Dag, id: usize, visited: &mut Vec<bool>, order: &mut Vec<usize>) {
    if visited[id] {
        return;
    }
    visited[id] = true;
    for o in &dag.nodes[id].inputs {
        if let Operand::Node(i) = o {
            depth_first(dag, *i, visited, order);
        }
    }
    order.push(id);
}

/// Algorithm 2: identify Spark-job and GPU chain roots, count the remote
/// operators below each, linearize roots in descending op count (longer
/// chains first → more overlap), then place the remaining local operators.
fn max_parallelize(dag: &Dag, backend: &[Backend]) -> Vec<usize> {
    let n = dag.nodes.len();
    // All-local fast path.
    if backend.iter().all(|&b| b == Backend::Cp) {
        return linearize(dag, backend, Ordering::DepthFirst);
    }
    // Step 1: chain roots = Spark action-likes and GPU nodes whose
    // consumers are local (GPU-to-host boundaries).
    let consumers = dag.consumers();
    let mut roots: Vec<usize> = Vec::new();
    for node in &dag.nodes {
        let i = node.id;
        let is_sp_root = backend[i] == Backend::Sp
            && (node.kind.is_action_like()
                || consumers[i].iter().all(|&c| backend[c] != Backend::Sp));
        let is_gpu_root = backend[i] == Backend::Gpu
            && (consumers[i].is_empty()
                || consumers[i].iter().all(|&c| backend[c] != Backend::Gpu));
        if is_sp_root || is_gpu_root {
            roots.push(i);
        }
    }
    // Count remote ops per root.
    let remote_count = |root: usize| -> usize {
        let mut stack = vec![root];
        let mut seen = std::collections::HashSet::new();
        let mut count = 0;
        while let Some(i) = stack.pop() {
            if !seen.insert(i) {
                continue;
            }
            if backend[i] != Backend::Cp {
                count += 1;
            }
            for o in &dag.nodes[i].inputs {
                if let Operand::Node(id) = o {
                    stack.push(*id);
                }
            }
        }
        count
    };
    // Step 2: sort roots by descending remote op count and linearize each
    // depth-first.
    let mut counted: Vec<(usize, usize)> = roots.iter().map(|&r| (r, remote_count(r))).collect();
    counted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut order = Vec::new();
    let mut visited = vec![false; n];
    for (r, _) in counted {
        depth_first(dag, r, &mut visited, &mut order);
    }
    // Step 3: the remaining local operators.
    for s in dag.sinks() {
        depth_first(dag, s, &mut visited, &mut order);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ScalarRef;
    use memphis_matrix::ops::binary::BinaryOp;
    use memphis_matrix::ops::unary::UnaryOp;

    fn cfg_sp(threshold: usize) -> EngineConfig {
        let mut c = EngineConfig::test();
        c.spark_threshold_bytes = threshold;
        c
    }

    /// Spark tier attached, no GPU — the classic hybrid-plan setup.
    fn sp_caps() -> PlacementCaps {
        PlacementCaps {
            spark: true,
            gpu: false,
            gpu_capacity: 0,
        }
    }

    /// The linRegDS core of Example 4.1: G=tsmm(X), b=xty(X,y),
    /// A=G+reg*I (approximated as G+reg), w=solve(A, b).
    fn linreg_dag(reg: ScalarRef) -> Dag {
        let mut d = Dag::new();
        let g = d.add(OpKind::Tsmm, vec![Operand::Var("X".into())], None);
        let b = d.add(
            OpKind::Xty,
            vec![Operand::Var("X".into()), Operand::Var("y".into())],
            None,
        );
        let a = d.add(
            OpKind::BinaryScalar {
                op: BinaryOp::Add,
                scalar: reg,
                swap: false,
            },
            vec![Operand::Node(g)],
            None,
        );
        d.add(
            OpKind::Solve,
            vec![Operand::Node(a), Operand::Node(b)],
            Some("w"),
        );
        d
    }

    #[test]
    fn dims_inference_propagates() {
        let d = linreg_dag(ScalarRef::Const(0.1));
        let mut vd = HashMap::new();
        vd.insert("X".into(), (1000, 10));
        vd.insert("y".into(), (1000, 1));
        let dims = infer_dims(&d, &vd);
        assert_eq!(dims[0], (10, 10)); // tsmm
        assert_eq!(dims[1], (10, 1)); // xty
        assert_eq!(dims[3], (10, 1)); // solve
    }

    #[test]
    fn placement_pushes_large_inputs_to_spark() {
        let d = linreg_dag(ScalarRef::Const(0.1));
        let mut vd = HashMap::new();
        vd.insert("X".into(), (1000, 10)); // 80 KB
        vd.insert("y".into(), (1000, 1));
        let b = place(&d, &vd, &cfg_sp(1024), &sp_caps());
        assert_eq!(b[0], Backend::Sp, "tsmm over distributed X");
        assert_eq!(b[1], Backend::Sp, "xty over distributed X");
        assert_eq!(b[3], Backend::Cp, "solve consumes local action results");
        let b = place(&d, &vd, &cfg_sp(usize::MAX), &sp_caps());
        assert!(b.iter().all(|&x| x == Backend::Cp));
    }

    #[test]
    fn placement_respects_registered_tiers() {
        let d = linreg_dag(ScalarRef::Const(0.1));
        let mut vd = HashMap::new();
        vd.insert("X".into(), (1000, 10));
        vd.insert("y".into(), (1000, 1));
        // No Spark tier attached: everything stays on the driver even
        // though X exceeds the distribution threshold.
        let b = place(&d, &vd, &cfg_sp(1024), &PlacementCaps::local_only());
        assert!(b.iter().all(|&x| x == Backend::Cp));
    }

    #[test]
    fn gpu_placement_is_capacity_aware() {
        let mut d = Dag::new();
        d.add(OpKind::Tsmm, vec![Operand::Var("X".into())], Some("g"));
        let mut vd = HashMap::new();
        vd.insert("X".into(), (256, 64));
        let mut cfg = EngineConfig::test();
        cfg.gpu_min_cells = 1;
        let roomy = PlacementCaps {
            spark: false,
            gpu: true,
            gpu_capacity: usize::MAX,
        };
        assert_eq!(place(&d, &vd, &cfg, &roomy)[0], Backend::Gpu);
        // The 64x64 output (32 KB dense) exceeds a 1 KB device: stay local.
        let tight = PlacementCaps {
            spark: false,
            gpu: true,
            gpu_capacity: 1 << 10,
        };
        assert_eq!(place(&d, &vd, &cfg, &tight)[0], Backend::Cp);
    }

    #[test]
    fn max_parallelize_orders_longer_chains_first() {
        // Job1: exp → tsmm (2 remote ops); Job2: xty (1 remote op).
        let mut d = Dag::new();
        let e = d.add(
            OpKind::Unary(UnaryOp::Exp),
            vec![Operand::Var("X".into())],
            None,
        );
        let t = d.add(OpKind::Tsmm, vec![Operand::Node(e)], Some("g"));
        let x = d.add(
            OpKind::Xty,
            vec![Operand::Var("X".into()), Operand::Var("y".into())],
            Some("b"),
        );
        let mut vd = HashMap::new();
        vd.insert("X".into(), (1000, 10));
        vd.insert("y".into(), (1000, 1));
        let backend = place(&d, &vd, &cfg_sp(1024), &sp_caps());
        let order = linearize(&d, &backend, Ordering::MaxParallelize);
        let pos = |id: usize| order.iter().position(|&o| o == id).unwrap();
        assert!(pos(t) < pos(x), "longer Spark chain linearized first");
        assert_eq!(order.len(), 3);
        // Depth-first baseline covers all nodes too.
        let df = linearize(&d, &backend, Ordering::DepthFirst);
        assert_eq!(df.len(), 3);
    }
}
