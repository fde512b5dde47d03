//! Compiler passes (§5): CSE, operator placement, checkpoint placement,
//! asynchronous-operator insertion, eviction injection, delay-factor
//! auto-tuning, and operator linearization (depth-first and the
//! `maxParallelize` ordering of Algorithm 2).

use crate::config::EngineConfig;
use crate::cost;
use crate::ops::AggDir;
use crate::plan::{Block, BlockHints, Dag, OpKind, Operand, Program, ScalarRef};
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

    /// Every tier available with an unbounded device (test convenience).
    pub fn all() -> Self {
        Self {
            spark: true,
            gpu: true,
            gpu_capacity: usize::MAX,
        }
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
            OpKind::BinaryScalar { .. }
            | OpKind::Unary(_)
            | OpKind::Alias
            | OpKind::Checkpoint
            | OpKind::Prefetch
            | OpKind::Broadcast => get(&dims, &n.inputs[0]),
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
        OpKind::Prefetch => "prefetch",
        OpKind::Broadcast => "broadcast",
        OpKind::Evict(_) => "evict",
    }
}

// ----------------------------------------------------------------------
// CSE
// ----------------------------------------------------------------------

/// Common subexpression elimination within one DAG: structurally identical
/// nodes merge; output names accumulate on the representative.
pub fn cse(dag: &Dag) -> Dag {
    let mut out = Dag::new();
    let mut remap: Vec<usize> = Vec::with_capacity(dag.nodes.len());
    let mut seen: HashMap<String, usize> = HashMap::new();
    for n in &dag.nodes {
        let inputs: Vec<Operand> = n
            .inputs
            .iter()
            .map(|o| match o {
                Operand::Var(v) => Operand::Var(v.clone()),
                Operand::Node(id) => Operand::Node(remap[*id]),
            })
            .collect();
        let key = format!("{:?}|{:?}", n.kind, inputs);
        match seen.get(&key) {
            Some(&rep) => {
                remap.push(rep);
                let rep_outputs = &mut out.nodes[rep].outputs;
                for o in &n.outputs {
                    if !rep_outputs.contains(o) {
                        rep_outputs.push(o.clone());
                    }
                }
            }
            None => {
                let id = out.add(n.kind.clone(), inputs, None);
                out.nodes[id].outputs = n.outputs.clone();
                seen.insert(key, id);
                remap.push(id);
            }
        }
    }
    out
}

// ----------------------------------------------------------------------
// Rewrites of §5
// ----------------------------------------------------------------------

/// Prefetch insertion (§5.1): wraps every action-like root of a Spark
/// operator chain in an asynchronous `Prefetch`, and inserts `Broadcast`
/// after local producers consumed by Spark operators.
pub fn insert_async(dag: &Dag, backend: &[Backend]) -> Dag {
    let mut out = Dag::new();
    let mut remap: Vec<usize> = Vec::with_capacity(dag.nodes.len());
    let consumers = dag.consumers();
    for n in &dag.nodes {
        let inputs: Vec<Operand> = n
            .inputs
            .iter()
            .map(|o| match o {
                Operand::Var(v) => Operand::Var(v.clone()),
                Operand::Node(id) => Operand::Node(remap[*id]),
            })
            .collect();
        let id = out.add(n.kind.clone(), inputs, None);
        out.nodes[id].outputs = n.outputs.clone();
        let mut mapped = id;
        // Action root on Spark, consumed locally → prefetch its result.
        let is_sp_action = backend[n.id] == Backend::Sp && n.kind.is_action_like();
        if is_sp_action {
            let pf = out.add(OpKind::Prefetch, vec![Operand::Node(id)], None);
            out.nodes[pf].outputs = n.outputs.clone();
            out.nodes[id].outputs.clear();
            mapped = pf;
        }
        // Local producer feeding a Spark consumer → broadcast it.
        let feeds_sp = consumers[n.id]
            .iter()
            .any(|&c| backend[c] == Backend::Sp && !dag.nodes[c].kind.is_action_like());
        if backend[n.id] == Backend::Cp && feeds_sp && !matches!(n.kind, OpKind::Broadcast) {
            let bc = out.add(OpKind::Broadcast, vec![Operand::Node(mapped)], None);
            out.nodes[bc].outputs = out.nodes[mapped].outputs.clone();
            out.nodes[mapped].outputs.clear();
            mapped = bc;
        }
        remap.push(mapped);
    }
    out
}

/// Checkpoint placement rewrite 1 (§5.2): when two or more Spark jobs in a
/// block share a dataflow prefix, persist the last shared Spark operator.
pub fn insert_shared_checkpoints(dag: &Dag, backend: &[Backend]) -> Dag {
    // Count, per Spark node, how many distinct action roots consume it
    // (transitively).
    let n = dag.nodes.len();
    let mut reach: Vec<std::collections::HashSet<usize>> = vec![Default::default(); n];
    let actions: Vec<usize> = dag
        .nodes
        .iter()
        .filter(|nd| nd.kind.is_action_like() && backend[nd.id] == Backend::Sp)
        .map(|nd| nd.id)
        .collect();
    for &a in &actions {
        // DFS down from the action's inputs.
        let mut stack: Vec<usize> = dag.nodes[a]
            .inputs
            .iter()
            .filter_map(|o| match o {
                Operand::Node(id) => Some(*id),
                _ => None,
            })
            .collect();
        while let Some(i) = stack.pop() {
            if reach[i].insert(a) {
                stack.extend(dag.nodes[i].inputs.iter().filter_map(|o| match o {
                    Operand::Node(id) => Some(*id),
                    _ => None,
                }));
            }
        }
    }
    // Shared Spark nodes: reached by >= 2 actions. Checkpoint the *last*
    // (highest id) shared one on each chain.
    let shared: Vec<usize> = (0..n)
        .filter(|&i| reach[i].len() >= 2 && backend[i] == Backend::Sp)
        .collect();
    let checkpoint_targets: std::collections::HashSet<usize> = shared
        .iter()
        .copied()
        .filter(|&i| {
            // No consumer of i is itself shared by the same action set.
            !dag.consumers()[i]
                .iter()
                .any(|c| shared.contains(c) && reach[*c] == reach[i])
        })
        .collect();
    rewrite_with_checkpoints(dag, &checkpoint_targets)
}

fn rewrite_with_checkpoints(dag: &Dag, targets: &std::collections::HashSet<usize>) -> Dag {
    let mut out = Dag::new();
    let mut remap: Vec<usize> = Vec::with_capacity(dag.nodes.len());
    for n in &dag.nodes {
        let inputs: Vec<Operand> = n
            .inputs
            .iter()
            .map(|o| match o {
                Operand::Var(v) => Operand::Var(v.clone()),
                Operand::Node(id) => Operand::Node(remap[*id]),
            })
            .collect();
        let id = out.add(n.kind.clone(), inputs, None);
        out.nodes[id].outputs = n.outputs.clone();
        if targets.contains(&n.id) {
            let cp = out.add(OpKind::Checkpoint, vec![Operand::Node(id)], None);
            out.nodes[cp].outputs = out.nodes[id].outputs.clone();
            out.nodes[id].outputs.clear();
            remap.push(cp);
        } else {
            remap.push(id);
        }
    }
    out
}

/// Checkpoint placement rewrite 2 (§5.2): inside a loop, variables that
/// are updated every iteration and consumed by Spark operators build
/// ever-growing lazy plans — persist the updated variable at the end of
/// each iteration (the PNMF pattern of Figure 9(c)).
pub fn insert_loop_checkpoints(program: &mut Program) {
    for block in &mut program.blocks {
        insert_loop_checkpoints_block(block);
    }
}

fn insert_loop_checkpoints_block(block: &mut Block) {
    if let Block::For { body, .. } = block {
        // Variables written AND read by the loop body (loop-carried).
        let mut written: Vec<String> = Vec::new();
        let mut read: Vec<String> = Vec::new();
        for b in body.iter() {
            if let Block::Basic { dag, .. } = b {
                for n in &dag.nodes {
                    written.extend(n.outputs.iter().cloned());
                    for i in &n.inputs {
                        if let Operand::Var(v) = i {
                            read.push(v.clone());
                        }
                    }
                }
            }
        }
        let carried: Vec<String> = written
            .iter()
            .filter(|w| read.contains(w))
            .cloned()
            .collect();
        // Append a checkpoint block for each carried variable.
        if !carried.is_empty() {
            let mut dag = Dag::new();
            for v in carried {
                dag.add(OpKind::Checkpoint, vec![Operand::Var(v.clone())], Some(&v));
            }
            body.push(Block::Basic {
                dag,
                hints: BlockHints::default(),
            });
        }
        for b in body.iter_mut() {
            insert_loop_checkpoints_block(b);
        }
    }
}

/// Eviction injection (§5.2): between consecutive loops whose GPU
/// allocation-size patterns differ, inject an `evict` instruction so the
/// free lists don't thrash through mismatched recycling.
pub fn insert_evictions(program: &mut Program, cfg: &EngineConfig, caps: &PlacementCaps) {
    let mut sizes_prev: Option<Vec<usize>> = None;
    let mut inserts: Vec<usize> = Vec::new();
    for (i, block) in program.blocks.iter().enumerate() {
        if let Block::For { body, .. } = block {
            let mut sizes: Vec<usize> = Vec::new();
            for b in body {
                if let Block::Basic { dag, .. } = b {
                    let dims = infer_dims(dag, &program.var_dims);
                    let backend = place(dag, &program.var_dims, cfg, caps);
                    for n in &dag.nodes {
                        if backend[n.id] == Backend::Gpu {
                            let (r, c) = dims[n.id];
                            sizes.push(cost::dense_bytes(r, c));
                        }
                    }
                }
            }
            sizes.sort_unstable();
            if let Some(prev) = &sizes_prev {
                if !sizes.is_empty() && *prev != sizes {
                    inserts.push(i);
                }
            }
            if !sizes.is_empty() {
                sizes_prev = Some(sizes);
            }
        }
    }
    for (off, i) in inserts.into_iter().enumerate() {
        let mut dag = Dag::new();
        dag.add(OpKind::Evict(1.0), vec![], None);
        program.blocks.insert(
            i + off,
            Block::Basic {
                dag,
                hints: BlockHints::default(),
            },
        );
    }
}

/// Delay-factor auto-tuning (§5.2): walks all blocks, estimating execution
/// frequency and the fraction of loop-dependent operators, then assigns
/// each basic block's delay factor: n = 1 when >80% of operators are
/// loop-independent (highly reusable), n = 2 when partially dependent,
/// n = 4 when fully loop-dependent (not reusable).
pub fn tune_delays(program: &mut Program) {
    for block in &mut program.blocks {
        tune_block(block, 1, &[]);
    }
}

fn tune_block(block: &mut Block, exec_estimate: u64, loop_vars: &[String]) {
    match block {
        Block::Basic { dag, hints } => {
            let total = dag.nodes.len().max(1);
            // A node is loop-dependent if it references a loop variable
            // scalar or (transitively) such a node.
            let mut dep = vec![false; dag.nodes.len()];
            for i in 0..dag.nodes.len() {
                let n = &dag.nodes[i];
                let direct = matches!(
                    &n.kind,
                    OpKind::BinaryScalar { scalar: ScalarRef::Loop(v), .. } if loop_vars.contains(v)
                ) || n
                    .inputs
                    .iter()
                    .any(|o| matches!(o, Operand::Var(v) if loop_vars.contains(v)));
                let transitive = n.inputs.iter().any(|o| match o {
                    Operand::Node(id) => dep[*id],
                    _ => false,
                });
                dep[i] = direct || transitive;
            }
            let frac = dep.iter().filter(|&&d| d).count() as f64 / total as f64;
            hints.exec_estimate = exec_estimate;
            hints.loop_dependent_fraction = frac;
            // Executed once (nothing repeats) or >80% reusable: cache
            // eagerly; partially loop-dependent blocks defer.
            hints.delay = if exec_estimate <= 1 || frac <= 0.2 {
                1
            } else if frac < 1.0 {
                2
            } else {
                4
            };
        }
        Block::For { var, values, body } => {
            let trip = values.len().max(1) as u64;
            let mut vars = loop_vars.to_vec();
            vars.push(var.clone());
            for b in body {
                tune_block(b, exec_estimate.saturating_mul(trip), &vars);
            }
        }
        Block::While {
            cond_var,
            max_iterations,
            body,
        } => {
            // Conditional loops: the trip count is unknown at compile
            // time; assume half the bound and treat the condition variable
            // as loop-dependent.
            let trip = (*max_iterations as u64 / 2).max(2);
            let mut vars = loop_vars.to_vec();
            vars.push(cond_var.clone());
            for b in body {
                tune_block(b, exec_estimate.saturating_mul(trip), &vars);
            }
        }
        Block::If {
            then_blocks,
            else_blocks,
            ..
        } => {
            for b in then_blocks.iter_mut().chain(else_blocks.iter_mut()) {
                tune_block(b, exec_estimate, loop_vars);
            }
        }
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
    // Step 1: chain roots = prefetch nodes, Spark action-likes, and GPU
    // nodes whose consumers are local (GPU-to-host boundaries).
    let consumers = dag.consumers();
    let mut roots: Vec<usize> = Vec::new();
    for node in &dag.nodes {
        let i = node.id;
        let is_prefetch = matches!(node.kind, OpKind::Prefetch);
        let is_sp_root = backend[i] == Backend::Sp
            && (node.kind.is_action_like()
                || consumers[i].iter().all(|&c| backend[c] != Backend::Sp));
        let is_gpu_root = backend[i] == Backend::Gpu
            && (consumers[i].is_empty()
                || consumers[i].iter().all(|&c| backend[c] != Backend::Gpu));
        if is_prefetch || is_sp_root || is_gpu_root {
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
    fn cse_merges_identical_nodes() {
        let mut d = Dag::new();
        let t1 = d.add(OpKind::Tsmm, vec![Operand::Var("X".into())], Some("a"));
        let _t2 = d.add(OpKind::Tsmm, vec![Operand::Var("X".into())], Some("b"));
        let _u = d.add(
            OpKind::Unary(UnaryOp::Relu),
            vec![Operand::Node(t1)],
            Some("c"),
        );
        let out = cse(&d);
        assert_eq!(out.nodes.len(), 2);
        assert!(out.nodes[0].outputs.contains(&"a".to_string()));
        assert!(out.nodes[0].outputs.contains(&"b".to_string()));
    }

    #[test]
    fn prefetch_inserted_after_spark_actions() {
        let d = linreg_dag(ScalarRef::Const(0.1));
        let mut vd = HashMap::new();
        vd.insert("X".into(), (1000, 10));
        vd.insert("y".into(), (1000, 1));
        let backend = place(&d, &vd, &cfg_sp(1024), &sp_caps());
        let out = insert_async(&d, &backend);
        let prefetches = out
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Prefetch))
            .count();
        assert_eq!(prefetches, 2, "one per Spark job (tsmm, xty)");
    }

    #[test]
    fn shared_checkpoint_between_overlapping_jobs() {
        // Two actions over a shared Spark elementwise prefix.
        let mut d = Dag::new();
        let e = d.add(
            OpKind::Unary(UnaryOp::Exp),
            vec![Operand::Var("X".into())],
            None,
        );
        d.add(OpKind::Tsmm, vec![Operand::Node(e)], Some("g"));
        d.add(
            OpKind::Agg(memphis_matrix::ops::agg::AggOp::Sum, AggDir::Full),
            vec![Operand::Node(e)],
            Some("s"),
        );
        let mut vd = HashMap::new();
        vd.insert("X".into(), (1000, 10));
        let backend = place(&d, &vd, &cfg_sp(1024), &sp_caps());
        let out = insert_shared_checkpoints(&d, &backend);
        let cps = out
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Checkpoint))
            .count();
        assert_eq!(cps, 1, "the shared exp(X) gets persisted");
    }

    #[test]
    fn loop_checkpoints_for_updated_variables() {
        // while-style loop updating W (the PNMF pattern).
        let mut body_dag = Dag::new();
        body_dag.add(
            OpKind::BinaryScalar {
                op: BinaryOp::Mul,
                scalar: ScalarRef::Const(1.01),
                swap: false,
            },
            vec![Operand::Var("W".into())],
            Some("W"),
        );
        let mut p = Program::new();
        p.declare("W", 100_000, 10);
        p.blocks.push(Block::For {
            var: "i".into(),
            values: (0..5).map(|v| v as f64).collect(),
            body: vec![Block::Basic {
                dag: body_dag,
                hints: BlockHints::default(),
            }],
        });
        insert_loop_checkpoints(&mut p);
        let Block::For { body, .. } = &p.blocks[0] else {
            panic!("for loop expected")
        };
        assert_eq!(body.len(), 2, "checkpoint block appended");
        let Block::Basic { dag, .. } = &body[1] else {
            panic!("basic expected")
        };
        assert!(matches!(dag.nodes[0].kind, OpKind::Checkpoint));
        assert_eq!(dag.nodes[0].outputs, vec!["W".to_string()]);
    }

    #[test]
    fn delay_tuning_by_loop_dependence() {
        // Block A: reg-independent (tsmm of X) → delay 1.
        let mut a = Dag::new();
        a.add(OpKind::Tsmm, vec![Operand::Var("X".into())], Some("g"));
        // Block B: depends on the loop variable → delay 4.
        let mut b = Dag::new();
        b.add(
            OpKind::BinaryScalar {
                op: BinaryOp::Mul,
                scalar: ScalarRef::Loop("reg".into()),
                swap: false,
            },
            vec![Operand::Var("g".into())],
            Some("h"),
        );
        let mut p = Program::new();
        p.blocks.push(Block::For {
            var: "reg".into(),
            values: vec![0.1, 0.2],
            body: vec![
                Block::Basic {
                    dag: a,
                    hints: BlockHints::default(),
                },
                Block::Basic {
                    dag: b,
                    hints: BlockHints::default(),
                },
            ],
        });
        tune_delays(&mut p);
        let Block::For { body, .. } = &p.blocks[0] else {
            panic!()
        };
        let Block::Basic { hints: ha, .. } = &body[0] else {
            panic!()
        };
        let Block::Basic { hints: hb, .. } = &body[1] else {
            panic!()
        };
        assert_eq!(ha.delay, 1, "loop-independent block caches eagerly");
        assert_eq!(hb.delay, 4, "fully loop-dependent block defers");
        assert_eq!(ha.exec_estimate, 2);
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

    #[test]
    fn eviction_injected_between_shifting_gpu_loops() {
        // Two loops with different GPU matmul output sizes (the ensemble
        // pattern of Figure 9(b)).
        let mk_loop = |cols: usize| -> Block {
            let mut d = Dag::new();
            d.add(
                OpKind::MatMul,
                vec![Operand::Var("B".into()), Operand::Var(format!("W{cols}"))],
                Some("h"),
            );
            Block::For {
                var: "i".into(),
                values: vec![0.0, 1.0],
                body: vec![Block::Basic {
                    dag: d,
                    hints: BlockHints::default(),
                }],
            }
        };
        let mut p = Program::new();
        p.declare("B", 128, 64);
        p.declare("W64", 64, 64);
        p.declare("W128", 64, 128);
        p.blocks.push(mk_loop(64));
        p.blocks.push(mk_loop(128));
        let mut cfg = EngineConfig::test();
        cfg.gpu_min_cells = 1;
        insert_evictions(&mut p, &cfg, &PlacementCaps::all());
        assert_eq!(p.blocks.len(), 3, "evict block inserted between loops");
        let Block::Basic { dag, .. } = &p.blocks[1] else {
            panic!("evict block expected")
        };
        assert!(matches!(dag.nodes[0].kind, OpKind::Evict(_)));
    }
}
