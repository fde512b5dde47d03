//! Operator DAGs and program blocks — the compiler's view of an ML script
//! (SystemDS-style program compilation: a hierarchy of blocks, each
//! last-level block a DAG of operators).

use memphis_matrix::ops::agg::AggOp;
use memphis_matrix::ops::binary::BinaryOp;
use memphis_matrix::ops::nn::{Conv2dParams, Pool2dParams};
use memphis_matrix::ops::unary::UnaryOp;

use crate::ops::AggDir;

/// A scalar argument that may be loop-dependent.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarRef {
    /// Compile-time constant.
    Const(f64),
    /// The current value of a surrounding loop variable (prevents reuse
    /// across iterations unless values repeat).
    Loop(String),
}

/// Operator kinds the planner understands.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Seeded random generation.
    Rand {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
        /// Lower bound.
        min: f64,
        /// Upper bound.
        max: f64,
        /// Seed.
        seed: u64,
    },
    /// Matrix multiply.
    MatMul,
    /// `t(X) %*% X`.
    Tsmm,
    /// `t(X) %*% y`.
    Xty,
    /// Transpose.
    Transpose,
    /// Linear solve.
    Solve,
    /// Elementwise binary.
    Binary(BinaryOp),
    /// Elementwise against a scalar reference.
    BinaryScalar {
        /// Operator.
        op: BinaryOp,
        /// The scalar argument.
        scalar: ScalarRef,
        /// Scalar on the left side.
        swap: bool,
    },
    /// Elementwise unary.
    Unary(UnaryOp),
    /// Aggregation.
    Agg(AggOp, AggDir),
    /// Scalar literal binding (script frontend: `a = 0.5;`).
    Literal(f64),
    /// Lineage-preserving variable aliasing (script frontend: `a = b;`).
    Alias,
    /// Row slice `[start, end)`.
    SliceRows {
        /// First row (inclusive).
        start: usize,
        /// Last row (exclusive).
        end: usize,
    },
    /// Column slice `[start, end)`.
    SliceCols {
        /// First column (inclusive).
        start: usize,
        /// Last column (exclusive).
        end: usize,
    },
    /// 2-D convolution over NCHW-linearized images (inputs: X, W).
    Conv2d(Conv2dParams),
    /// 2-D max pooling over NCHW-linearized images.
    MaxPool2d(Pool2dParams),
    /// Fully-connected layer `X %*% W + b` (inputs: X, W, b).
    Affine,
    /// `persist()` on the input (checkpoint, §5.2); DML `checkpoint(x)`
    /// lowers to it.
    Checkpoint,
    /// GPU cache cleanup with a fraction (§5.2); DML `evict(p)` lowers to
    /// it.
    Evict(f64),
}

impl OpKind {
    /// True for operators that trigger a Spark action when their input is
    /// distributed (roots of remote operator chains).
    pub fn is_action_like(&self) -> bool {
        matches!(
            self,
            OpKind::Tsmm
                | OpKind::Xty
                | OpKind::Transpose
                | OpKind::Agg(_, AggDir::Full)
                | OpKind::Agg(_, AggDir::Col)
        )
    }
}

/// Operator input: an external variable or another node of the same DAG.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Named variable (bound by an outer block or the host).
    Var(String),
    /// Output of DAG node `id`.
    Node(usize),
}

/// One operator node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node id (index into the DAG).
    pub id: usize,
    /// Operator.
    pub kind: OpKind,
    /// Inputs.
    pub inputs: Vec<Operand>,
    /// Variables this node's output is bound to (the first names it; the
    /// rest alias it).
    pub outputs: Vec<String>,
}

/// A DAG of operators (one basic block's computation).
#[derive(Debug, Clone, Default)]
pub struct Dag {
    /// Nodes in creation order; `Operand::Node` refers into this list.
    pub nodes: Vec<Node>,
}

impl Dag {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a node and returns its id.
    pub fn add(&mut self, kind: OpKind, inputs: Vec<Operand>, output: Option<&str>) -> usize {
        let id = self.nodes.len();
        self.nodes.push(Node {
            id,
            kind,
            inputs,
            outputs: output.map(|s| vec![s.to_string()]).unwrap_or_default(),
        });
        id
    }

    /// Node ids that no other node consumes (DAG sinks).
    pub fn sinks(&self) -> Vec<usize> {
        let mut consumed = vec![false; self.nodes.len()];
        for n in &self.nodes {
            for i in &n.inputs {
                if let Operand::Node(id) = i {
                    consumed[*id] = true;
                }
            }
        }
        (0..self.nodes.len()).filter(|&i| !consumed[i]).collect()
    }

    /// Consumers of each node.
    pub fn consumers(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for i in &n.inputs {
                if let Operand::Node(id) = i {
                    out[*id].push(n.id);
                }
            }
        }
        out
    }
}

/// A program block.
#[derive(Debug, Clone)]
pub enum Block {
    /// Straight-line operator DAG.
    Basic {
        /// The computation.
        dag: Dag,
    },
    /// Counted loop binding `var` to each value in order.
    For {
        /// Loop variable name.
        var: String,
        /// Values iterated in order.
        values: Vec<f64>,
        /// Loop body.
        body: Vec<Block>,
    },
    /// Condition-driven loop: runs `body` while the scalar variable
    /// `cond_var` is non-zero (re-read after each iteration), up to
    /// `max_iterations` (conditional control flow is unknown at compile
    /// time — the reason CSE alone cannot eliminate redundancy, §2.1).
    While {
        /// Scalar condition variable, evaluated by the body.
        cond_var: String,
        /// Safety bound on iterations.
        max_iterations: usize,
        /// Loop body.
        body: Vec<Block>,
    },
    /// Branch on a scalar variable: non-zero runs `then_blocks`, zero
    /// runs `else_blocks`.
    If {
        /// Scalar condition variable.
        cond_var: String,
        /// Taken when the condition is non-zero.
        then_blocks: Vec<Block>,
        /// Taken when the condition is zero.
        else_blocks: Vec<Block>,
    },
}

/// A compiled program: a hierarchy of blocks plus static dimension
/// metadata for external inputs (used by placement).
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Top-level blocks.
    pub blocks: Vec<Block>,
    /// Known dims of external variables (rows, cols).
    pub var_dims: std::collections::HashMap<String, (usize, usize)>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares an external input's shape for placement decisions.
    pub fn declare(&mut self, var: &str, rows: usize, cols: usize) {
        self.var_dims.insert(var.to_string(), (rows, cols));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_sinks_and_consumers() {
        let mut d = Dag::new();
        let a = d.add(OpKind::Tsmm, vec![Operand::Var("X".into())], None);
        let b = d.add(
            OpKind::Unary(UnaryOp::Relu),
            vec![Operand::Node(a)],
            Some("out"),
        );
        assert_eq!(d.sinks(), vec![b]);
        assert_eq!(d.consumers()[a], vec![b]);
        assert!(d.consumers()[b].is_empty());
    }

    #[test]
    fn action_like_classification() {
        assert!(OpKind::Tsmm.is_action_like());
        assert!(OpKind::Agg(AggOp::Sum, AggDir::Full).is_action_like());
        assert!(!OpKind::Binary(BinaryOp::Add).is_action_like());
        assert!(!OpKind::Agg(AggOp::Sum, AggDir::Row).is_action_like());
    }
}
