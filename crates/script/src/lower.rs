//! Lowering: typed AST → the engine's block/DAG [`Program`]. This pass is
//! also the typechecker — every expression is assigned a [`Ty`] as it is
//! lowered, and all dimension errors carry the source span.
//!
//! Lowering rules that matter for lineage parity with the Rust builder API
//! (DESIGN.md §12):
//! - node output names are unique within a DAG (SSA-style `x__v2`
//!   versioning on reassignment); the public variable name is aliased onto
//!   the *last* version at block flush, so later blocks resolve it.
//! - `matrix ∘ literal` lowers to `BinaryScalar{Const}` (the builder's
//!   `binary_const`), while `matrix ∘ scalar-var` stays a plain `Binary`
//!   over the variable (the builder's `binary`), and `matrix ∘ loop-var`
//!   becomes `BinaryScalar{Loop}` — matching what the builder pipelines
//!   emit so interned `LineageId`s coincide.
//! - constant folding only combines literal operands; a named scalar
//!   binding (`a = 0.5;`) is an opaque runtime scalar (`Literal` node).
//! - functions are inlined at call sites with renamed locals; `parfor`
//!   unrolls at compile time by substituting the loop variable as a
//!   literal.
//! - `checkpoint`/`evict` flush the current DAG and occupy their own
//!   basic block, preserving side-effect order across the linearizer.

use crate::ast::{Arg, BinOp, Expr, FuncDef, Script, SeqSpec, Stmt, Ty};
use crate::{Result, ScriptError, Span};
use memphis_engine::ops::AggDir;
use memphis_engine::plan::{Block, Dag, OpKind, Operand, Program, ScalarRef};
use memphis_matrix::ops::agg::AggOp;
use memphis_matrix::ops::binary::BinaryOp;
use memphis_matrix::ops::nn::{Conv2dParams, Pool2dParams};
use memphis_matrix::ops::unary::UnaryOp;
use std::collections::{HashMap, HashSet};

/// An external input declared by `X = read("name", rows, cols);`. The host
/// harness binds a matrix for each spec (in order) before running the
/// program, using `name` as the lineage leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadSpec {
    /// Script variable the matrix is bound to.
    pub var: String,
    /// Dataset name (the lineage leaf, e.g. `hcv/X0`).
    pub name: String,
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
}

/// A fully lowered script: the executable program plus its external-input
/// contract and declared result sinks.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The engine program.
    pub program: Program,
    /// External inputs, in declaration order.
    pub reads: Vec<ReadSpec>,
    /// Variables published by `print(x);`, in order.
    pub prints: Vec<String>,
}

impl Compiled {
    /// Total operator nodes across all blocks (recursive).
    pub fn node_count(&self) -> u64 {
        fn blocks(bs: &[Block]) -> u64 {
            bs.iter().map(block).sum()
        }
        fn block(b: &Block) -> u64 {
            match b {
                Block::Basic { dag } => dag.nodes.len() as u64,
                Block::For { body, .. } | Block::While { body, .. } => blocks(body),
                Block::If {
                    then_blocks,
                    else_blocks,
                    ..
                } => blocks(then_blocks) + blocks(else_blocks),
            }
        }
        blocks(&self.program.blocks)
    }
}

/// Lowers a parsed script.
pub fn lower(script: &Script) -> Result<Compiled> {
    let mut funcs = HashMap::new();
    for f in &script.funcs {
        if funcs.insert(f.name.clone(), f.clone()).is_some() {
            return Err(ScriptError::at(
                f.span,
                format!("function `{}` is defined twice", f.name),
            ));
        }
    }
    let mut lo = Lowerer {
        funcs,
        env: HashMap::new(),
        reads: Vec::new(),
        prints: Vec::new(),
        var_dims: HashMap::new(),
        blocks: Vec::new(),
        dag: Dag::new(),
        dag_names: HashSet::new(),
        version: 0,
        cond_counter: 0,
        inline_counter: 0,
        inline_depth: 0,
        fn_prefix: None,
        depth: 0,
    };
    lo.stmts(&script.stmts)?;
    lo.flush();
    let mut program = Program::new();
    program.blocks = std::mem::take(&mut lo.blocks);
    program.var_dims = std::mem::take(&mut lo.var_dims);
    Ok(Compiled {
        program,
        reads: lo.reads,
        prints: lo.prints,
    })
}

/// What a variable name is bound to during lowering.
#[derive(Debug, Clone)]
struct Binding {
    /// Operand to reference it by (absent for inlined constant params).
    op: Option<Operand>,
    /// Static type.
    ty: Ty,
    /// Compile-time constant value (function params bound to literals).
    cval: Option<f64>,
    /// This is the variable of an enclosing runtime `for` loop.
    loop_var: bool,
}

/// A lowered expression value.
#[derive(Debug, Clone)]
enum LVal {
    /// Compile-time constant scalar.
    Const(f64),
    /// Runtime operand.
    Op {
        /// The operand.
        op: Operand,
        /// Its type.
        ty: Ty,
        /// Operand is a runtime loop variable.
        loop_var: bool,
    },
}

impl LVal {
    fn ty(&self) -> Ty {
        match self {
            LVal::Const(_) => Ty::Scalar,
            LVal::Op { ty, .. } => *ty,
        }
    }
}

struct Lowerer {
    funcs: HashMap<String, FuncDef>,
    env: HashMap<String, Binding>,
    reads: Vec<ReadSpec>,
    prints: Vec<String>,
    var_dims: HashMap<String, (usize, usize)>,
    blocks: Vec<Block>,
    dag: Dag,
    dag_names: HashSet<String>,
    version: u64,
    cond_counter: u64,
    inline_counter: u64,
    inline_depth: u32,
    fn_prefix: Option<String>,
    depth: u32,
}

impl Lowerer {
    // ------------------------------------------------------------------
    // Scope and DAG plumbing
    // ------------------------------------------------------------------

    /// Ends the current basic block: aliases every environment binding
    /// that still points at a DAG node back onto its public name, pushes
    /// the block, and demotes bindings to plain variable references.
    fn flush(&mut self) {
        if !self.dag.nodes.is_empty() {
            let names: Vec<String> = self.env.keys().cloned().collect();
            for name in names {
                let b = self.env.get(&name).unwrap();
                if let Some(Operand::Node(id)) = b.op {
                    if self.dag.nodes[id].outputs.first() != Some(&name)
                        && !self.dag.nodes[id].outputs.contains(&name)
                    {
                        self.dag.nodes[id].outputs.push(name.clone());
                    }
                }
            }
            let dag = std::mem::take(&mut self.dag);
            self.blocks.push(Block::Basic { dag });
        }
        self.dag_names.clear();
        let names: Vec<String> = self.env.keys().cloned().collect();
        for name in names {
            let b = self.env.get_mut(&name).unwrap();
            if b.op.is_some() {
                b.op = Some(Operand::Var(name.clone()));
            }
            if let Ty::Matrix(r, c) = b.ty {
                self.var_dims.insert(name.clone(), (r, c));
            }
        }
    }

    /// Lowers `stmts` into a child scope and returns its blocks. The
    /// environment is shared (bindings persist at runtime).
    fn scoped(&mut self, stmts: &[Stmt]) -> Result<Vec<Block>> {
        self.flush();
        let saved = std::mem::take(&mut self.blocks);
        self.depth += 1;
        let res = self.stmts(stmts);
        self.depth -= 1;
        self.flush();
        let child = std::mem::replace(&mut self.blocks, saved);
        res?;
        Ok(child)
    }

    /// A unique output name for an assignment to `public` in the current
    /// DAG (SSA versioning on reassignment; function locals are prefixed).
    fn fresh_name(&mut self, public: &str) -> String {
        let base = match &self.fn_prefix {
            Some(p) => format!("{p}_{public}"),
            None => public.to_string(),
        };
        let mut name = base.clone();
        while self.dag_names.contains(&name) {
            self.version += 1;
            name = format!("{base}__v{}", self.version);
        }
        self.dag_names.insert(name.clone());
        name
    }

    fn add_node(&mut self, kind: OpKind, inputs: Vec<Operand>) -> usize {
        self.dag.add(kind, inputs, None)
    }

    /// Binds `public` to the result of an assignment.
    fn bind(&mut self, public: &str, val: LVal) {
        let (op, ty, loop_var) = match val {
            LVal::Const(v) => {
                let name = self.fresh_name(public);
                let id = self.add_node(OpKind::Literal(v), vec![]);
                self.dag.nodes[id].outputs = vec![name];
                (Operand::Node(id), Ty::Scalar, false)
            }
            // A rebinding (even of a loop variable) names a concrete
            // value, so the new binding is never itself a loop var.
            LVal::Op { op, ty, .. } => match op {
                Operand::Node(id) if self.dag.nodes[id].outputs.is_empty() => {
                    let name = self.fresh_name(public);
                    self.dag.nodes[id].outputs = vec![name];
                    (Operand::Node(id), ty, false)
                }
                other => {
                    let name = self.fresh_name(public);
                    let id = self.add_node(OpKind::Alias, vec![other]);
                    self.dag.nodes[id].outputs = vec![name];
                    (Operand::Node(id), ty, false)
                }
            },
        };
        self.env.insert(
            public.to_string(),
            Binding {
                op: Some(op),
                ty,
                cval: None,
                loop_var,
            },
        );
    }

    /// Materializes an operand for a value (constants become `Literal`
    /// nodes).
    fn operand(&mut self, val: &LVal) -> Operand {
        match val {
            LVal::Const(v) => Operand::Node(self.add_node(OpKind::Literal(*v), vec![])),
            LVal::Op { op, .. } => op.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<()> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<()> {
        match s {
            Stmt::Assign { name, expr, span } => self.assign(name, expr, *span),
            Stmt::For {
                var,
                seq,
                body,
                unroll,
                span,
            } => {
                let values = self.seq_values(seq, *span)?;
                if *unroll {
                    for &v in &values {
                        let substituted: Vec<Stmt> =
                            body.iter().map(|s| subst_stmt(s, var, v)).collect();
                        self.stmts(&substituted)?;
                    }
                    return Ok(());
                }
                self.flush();
                self.env.insert(
                    var.clone(),
                    Binding {
                        op: Some(Operand::Var(var.clone())),
                        ty: Ty::Scalar,
                        cval: None,
                        loop_var: true,
                    },
                );
                let child = self.scoped(body)?;
                self.blocks.push(Block::For {
                    var: var.clone(),
                    values,
                    body: child,
                });
                // After the loop the variable keeps its last value as a
                // plain runtime scalar.
                if let Some(b) = self.env.get_mut(var) {
                    b.loop_var = false;
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                span,
            } => {
                let c = self.expr(cond)?;
                if c.ty() != Ty::Scalar {
                    return Err(ScriptError::at(
                        *span,
                        format!("if condition must be a scalar, found {}", c.ty()),
                    ));
                }
                self.cond_counter += 1;
                let cname = format!("__cond{}", self.cond_counter);
                self.bind(&cname, c);
                let saved_env = self.env.clone();
                let then_blocks = self.scoped(then_body)?;
                let then_env = std::mem::replace(&mut self.env, saved_env);
                let else_blocks = self.scoped(else_body)?;
                // Merge: bindings from either branch are visible after the
                // If (whichever branch ran bound them at runtime); on a
                // type conflict the then-branch wins (documented caveat).
                for (k, v) in then_env {
                    self.env.entry(k).or_insert(v);
                }
                self.blocks.push(Block::If {
                    cond_var: cname,
                    then_blocks,
                    else_blocks,
                });
                Ok(())
            }
            Stmt::Print { name, span } => {
                if !self.env.contains_key(name) {
                    return Err(ScriptError::at(
                        *span,
                        format!("print of unknown variable `{name}`"),
                    ));
                }
                self.prints.push(name.clone());
                Ok(())
            }
            Stmt::Checkpoint { name, span } => {
                let b =
                    self.env.get(name).cloned().ok_or_else(|| {
                        ScriptError::at(*span, format!("unknown variable `{name}`"))
                    })?;
                if !matches!(b.ty, Ty::Matrix(..)) {
                    return Err(ScriptError::at(
                        *span,
                        format!("checkpoint needs a matrix, `{name}` is {}", b.ty),
                    ));
                }
                // Own block, preserving side-effect order.
                self.flush();
                let mut dag = Dag::new();
                dag.add(
                    OpKind::Checkpoint,
                    vec![Operand::Var(name.clone())],
                    Some(name),
                );
                self.blocks.push(Block::Basic { dag });
                Ok(())
            }
            Stmt::Evict { fraction, span } => {
                if !(0.0..=1.0).contains(fraction) {
                    return Err(ScriptError::at(
                        *span,
                        format!("evict fraction must be in [0, 1], got {fraction}"),
                    ));
                }
                self.flush();
                let mut dag = Dag::new();
                dag.add(OpKind::Evict(*fraction), vec![], None);
                self.blocks.push(Block::Basic { dag });
                Ok(())
            }
        }
    }

    fn assign(&mut self, name: &str, expr: &Expr, span: Span) -> Result<()> {
        // `read` is special-cased: it binds an external input rather than
        // lowering to a node.
        if let Expr::Call {
            name: callee, args, ..
        } = expr
        {
            if callee == "read" {
                return self.read_assign(name, args, span);
            }
        }
        let val = self.expr(expr)?;
        self.bind(name, val);
        Ok(())
    }

    fn read_assign(&mut self, var: &str, args: &[Arg], span: Span) -> Result<()> {
        if self.depth > 0 || self.fn_prefix.is_some() {
            return Err(ScriptError::at(
                span,
                "read(...) is only allowed in top-level straight-line code",
            ));
        }
        if args.len() != 3 {
            return Err(ScriptError::at(
                span,
                format!(
                    "read(name, rows, cols) takes 3 arguments, got {}",
                    args.len()
                ),
            ));
        }
        let name = match &args[0] {
            Arg::Str(s, _) => s.clone(),
            Arg::Expr(e) => {
                return Err(ScriptError::at(
                    e.span(),
                    "read's first argument must be a string dataset name",
                ))
            }
        };
        let rows = self.const_usize(&args[1], "read rows")?;
        let cols = self.const_usize(&args[2], "read cols")?;
        if self.reads.iter().any(|r| r.var == var) {
            return Err(ScriptError::at(
                span,
                format!("variable `{var}` is read twice; bind each read to a fresh variable"),
            ));
        }
        self.reads.push(ReadSpec {
            var: var.to_string(),
            name,
            rows,
            cols,
        });
        self.var_dims.insert(var.to_string(), (rows, cols));
        self.env.insert(
            var.to_string(),
            Binding {
                op: Some(Operand::Var(var.to_string())),
                ty: Ty::Matrix(rows, cols),
                cval: None,
                loop_var: false,
            },
        );
        Ok(())
    }

    fn seq_values(&mut self, seq: &SeqSpec, span: Span) -> Result<Vec<f64>> {
        match seq {
            SeqSpec::List(exprs) => exprs
                .iter()
                .map(|e| self.const_f64(e, "loop value"))
                .collect(),
            SeqSpec::Range(from, to) => {
                let a = self.const_f64(from, "seq start")?;
                let b = self.const_f64(to, "seq end")?;
                if a.fract() != 0.0 || b.fract() != 0.0 {
                    return Err(ScriptError::at(span, "seq bounds must be integers"));
                }
                let (a, b) = (a as i64, b as i64);
                if b < a {
                    return Err(ScriptError::at(span, "seq end is before its start"));
                }
                Ok((a..=b).map(|v| v as f64).collect())
            }
        }
    }

    // ------------------------------------------------------------------
    // Constant evaluation (structural parameters)
    // ------------------------------------------------------------------

    /// Evaluates an expression that must be known at compile time (rand
    /// dims/seeds, slice bounds, conv shapes, loop domains). Resolves
    /// literals, folded arithmetic, and constant-bound function params.
    fn const_f64(&self, e: &Expr, what: &str) -> Result<f64> {
        self.try_const(e).ok_or_else(|| {
            ScriptError::at(e.span(), format!("{what} must be a compile-time constant"))
        })
    }

    fn try_const(&self, e: &Expr) -> Option<f64> {
        match e {
            Expr::Num(v, _) => Some(*v),
            Expr::Var(name, _) => self.env.get(name).and_then(|b| b.cval),
            Expr::Neg(a, _) => self.try_const(a).map(|v| -v),
            Expr::Binary { op, lhs, rhs, .. } => {
                let a = self.try_const(lhs)?;
                let b = self.try_const(rhs)?;
                fold(*op, a, b)
            }
            Expr::Call { .. } => None,
        }
    }

    fn const_usize(&self, a: &Arg, what: &str) -> Result<usize> {
        let e = match a {
            Arg::Expr(e) => e,
            Arg::Str(_, span) => {
                return Err(ScriptError::at(*span, format!("{what} must be a number")))
            }
        };
        let v = self.const_f64(e, what)?;
        if v < 0.0 || v.fract() != 0.0 {
            return Err(ScriptError::at(
                e.span(),
                format!("{what} must be a non-negative integer, got {v}"),
            ));
        }
        Ok(v as usize)
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn expr(&mut self, e: &Expr) -> Result<LVal> {
        match e {
            Expr::Num(v, _) => Ok(LVal::Const(*v)),
            Expr::Var(name, span) => {
                let b =
                    self.env.get(name).cloned().ok_or_else(|| {
                        ScriptError::at(*span, format!("unknown variable `{name}`"))
                    })?;
                if let Some(v) = b.cval {
                    return Ok(LVal::Const(v));
                }
                Ok(LVal::Op {
                    op: b.op.clone().unwrap_or(Operand::Var(name.clone())),
                    ty: b.ty,
                    loop_var: b.loop_var,
                })
            }
            Expr::Neg(a, span) => {
                let v = self.expr(a)?;
                match v {
                    LVal::Const(c) => Ok(LVal::Const(-c)),
                    LVal::Op { ty, .. } => {
                        let op = self.operand(&v);
                        let id = self.add_node(OpKind::Unary(UnaryOp::Neg), vec![op]);
                        let _ = span;
                        Ok(LVal::Op {
                            op: Operand::Node(id),
                            ty,
                            loop_var: false,
                        })
                    }
                }
            }
            Expr::Binary { op, lhs, rhs, span } => {
                let l = self.expr(lhs)?;
                let r = self.expr(rhs)?;
                self.binary(*op, l, r, *span)
            }
            Expr::Call { name, args, span } => self.call(name, args, *span),
        }
    }

    fn binary(&mut self, op: BinOp, l: LVal, r: LVal, span: Span) -> Result<LVal> {
        if let (LVal::Const(a), LVal::Const(b)) = (&l, &r) {
            if let Some(v) = fold(op, *a, *b) {
                return Ok(LVal::Const(v));
            }
        }
        if op == BinOp::MatMul {
            let (Ty::Matrix(ar, ac), Ty::Matrix(br, bc)) = (l.ty(), r.ty()) else {
                return Err(ScriptError::at(
                    span,
                    format!("%*% needs two matrices, found {} and {}", l.ty(), r.ty()),
                ));
            };
            if ac != br {
                return Err(ScriptError::at(
                    span,
                    format!("dimension mismatch: matrix[{ar}x{ac}] %*% matrix[{br}x{bc}]"),
                ));
            }
            let (lo, ro) = (self.operand(&l), self.operand(&r));
            let id = self.add_node(OpKind::MatMul, vec![lo, ro]);
            return Ok(LVal::Op {
                op: Operand::Node(id),
                ty: Ty::Matrix(ar, bc),
                loop_var: false,
            });
        }
        let bop = elementwise_op(op);
        // matrix/scalar-runtime ∘ literal → BinaryScalar{Const} (the
        // builder's binary_const).
        match (&l, &r) {
            (LVal::Op { op: xo, ty, .. }, LVal::Const(c)) => {
                let id = self.add_node(
                    OpKind::BinaryScalar {
                        op: bop,
                        scalar: ScalarRef::Const(*c),
                        swap: false,
                    },
                    vec![xo.clone()],
                );
                return Ok(LVal::Op {
                    op: Operand::Node(id),
                    ty: result_ty_scalar(*ty, op),
                    loop_var: false,
                });
            }
            (LVal::Const(c), LVal::Op { op: xo, ty, .. }) => {
                let id = self.add_node(
                    OpKind::BinaryScalar {
                        op: bop,
                        scalar: ScalarRef::Const(*c),
                        swap: true,
                    },
                    vec![xo.clone()],
                );
                return Ok(LVal::Op {
                    op: Operand::Node(id),
                    ty: result_ty_scalar(*ty, op),
                    loop_var: false,
                });
            }
            _ => {}
        }
        let (
            LVal::Op {
                op: lo,
                ty: lt,
                loop_var: llv,
            },
            LVal::Op {
                op: ro,
                ty: rt,
                loop_var: rlv,
            },
        ) = (&l, &r)
        else {
            unreachable!("const/const folded above; op {op:?} at {span}");
        };
        // matrix ∘ loop-var → BinaryScalar{Loop} (the builder passes the
        // loop variable name to `binary`; same call, reuse-aware lineage).
        if *rlv && matches!(lt, Ty::Matrix(..)) {
            let Operand::Var(v) = ro else { unreachable!() };
            let id = self.add_node(
                OpKind::BinaryScalar {
                    op: bop,
                    scalar: ScalarRef::Loop(v.clone()),
                    swap: false,
                },
                vec![lo.clone()],
            );
            return Ok(LVal::Op {
                op: Operand::Node(id),
                ty: result_ty_scalar(*lt, op),
                loop_var: false,
            });
        }
        if *llv && matches!(rt, Ty::Matrix(..)) {
            let Operand::Var(v) = lo else { unreachable!() };
            let id = self.add_node(
                OpKind::BinaryScalar {
                    op: bop,
                    scalar: ScalarRef::Loop(v.clone()),
                    swap: true,
                },
                vec![ro.clone()],
            );
            return Ok(LVal::Op {
                op: Operand::Node(id),
                ty: result_ty_scalar(*rt, op),
                loop_var: false,
            });
        }
        let ty = unify_elementwise(*lt, *rt, op, span)?;
        let id = self.add_node(OpKind::Binary(bop), vec![lo.clone(), ro.clone()]);
        Ok(LVal::Op {
            op: Operand::Node(id),
            ty,
            loop_var: false,
        })
    }

    // ------------------------------------------------------------------
    // Calls
    // ------------------------------------------------------------------

    fn call(&mut self, name: &str, args: &[Arg], span: Span) -> Result<LVal> {
        match name {
            "read" => Err(ScriptError::at(
                span,
                "read(...) must be the right-hand side of a top-level assignment",
            )),
            "rand" => self.rand_call(args, span),
            "t" => {
                let (op, r, c) = self.matrix_arg(args, 0, "t", span)?;
                self.node_val(OpKind::Transpose, vec![op], Ty::Matrix(c, r))
            }
            "tsmm" => {
                let (op, _r, c) = self.matrix_arg(args, 0, "tsmm", span)?;
                self.expect_arity(args, 1, "tsmm(X)", span)?;
                self.node_val(OpKind::Tsmm, vec![op], Ty::Matrix(c, c))
            }
            "xty" => {
                self.expect_arity(args, 2, "xty(X, y)", span)?;
                let (x, xr, xc) = self.matrix_arg(args, 0, "xty", span)?;
                let (y, yr, yc) = self.matrix_arg(args, 1, "xty", span)?;
                if xr != yr {
                    return Err(ScriptError::at(
                        span,
                        format!("xty row mismatch: matrix[{xr}x{xc}] vs matrix[{yr}x{yc}]"),
                    ));
                }
                self.node_val(OpKind::Xty, vec![x, y], Ty::Matrix(xc, yc))
            }
            "solve" => {
                self.expect_arity(args, 2, "solve(A, b)", span)?;
                let (a, ar, ac) = self.matrix_arg(args, 0, "solve", span)?;
                let (b, br, bc) = self.matrix_arg(args, 1, "solve", span)?;
                if ar != ac || ar != br {
                    return Err(ScriptError::at(
                        span,
                        format!("solve needs square A with matching b: matrix[{ar}x{ac}], matrix[{br}x{bc}]"),
                    ));
                }
                self.node_val(OpKind::Solve, vec![a, b], Ty::Matrix(ac, bc))
            }
            "sum" | "mean" | "min" | "max" | "var" | "sumsq" => self.agg_call(name, args, span),
            "exp" | "log" | "sqrt" | "abs" | "round" | "floor" | "ceil" | "relu" | "sigmoid"
            | "tanh" | "sign" => {
                self.expect_arity(args, 1, &format!("{name}(X)"), span)?;
                let v = self.expr_arg(args, 0, name)?;
                let ty = v.ty();
                let op = self.operand(&v);
                self.node_val(OpKind::Unary(unary_op(name)), vec![op], ty)
            }
            "conv2d" => self.conv_call(args, span),
            "max_pool2d" => self.pool_call(args, span),
            "affine" => {
                self.expect_arity(args, 3, "affine(X, W, b)", span)?;
                let (x, xr, xc) = self.matrix_arg(args, 0, "affine", span)?;
                let (w, wr, wc) = self.matrix_arg(args, 1, "affine", span)?;
                let (b, br, bc) = self.matrix_arg(args, 2, "affine", span)?;
                if xc != wr || br != 1 || bc != wc {
                    return Err(ScriptError::at(
                        span,
                        format!("affine shape mismatch: X[{xr}x{xc}] W[{wr}x{wc}] b[{br}x{bc}]"),
                    ));
                }
                self.node_val(OpKind::Affine, vec![x, w, b], Ty::Matrix(xr, wc))
            }
            "slice_rows" | "slice_cols" => self.slice_call(name, args, span),
            _ => self.inline_call(name, args, span),
        }
    }

    fn expect_arity(&self, args: &[Arg], n: usize, sig: &str, span: Span) -> Result<()> {
        if args.len() != n {
            return Err(ScriptError::at(
                span,
                format!("{sig} takes {n} argument(s), got {}", args.len()),
            ));
        }
        Ok(())
    }

    fn expr_arg(&mut self, args: &[Arg], i: usize, what: &str) -> Result<LVal> {
        match args.get(i) {
            Some(Arg::Expr(e)) => self.expr(e),
            Some(Arg::Str(_, span)) => Err(ScriptError::at(
                *span,
                format!("{what} does not take a string here"),
            )),
            None => unreachable!("arity checked by caller"),
        }
    }

    fn matrix_arg(
        &mut self,
        args: &[Arg],
        i: usize,
        what: &str,
        span: Span,
    ) -> Result<(Operand, usize, usize)> {
        if args.len() <= i {
            return Err(ScriptError::at(
                span,
                format!("{what} is missing argument {}", i + 1),
            ));
        }
        let v = self.expr_arg(args, i, what)?;
        match v.ty() {
            Ty::Matrix(r, c) => Ok((self.operand(&v), r, c)),
            Ty::Scalar => Err(ScriptError::at(
                span,
                format!("{what} argument {} must be a matrix, found scalar", i + 1),
            )),
        }
    }

    fn node_val(&mut self, kind: OpKind, inputs: Vec<Operand>, ty: Ty) -> Result<LVal> {
        let id = self.add_node(kind, inputs);
        Ok(LVal::Op {
            op: Operand::Node(id),
            ty,
            loop_var: false,
        })
    }

    fn rand_call(&mut self, args: &[Arg], span: Span) -> Result<LVal> {
        self.expect_arity(args, 5, "rand(rows, cols, min, max, seed)", span)?;
        let rows = self.const_usize(&args[0], "rand rows")?;
        let cols = self.const_usize(&args[1], "rand cols")?;
        let min = self.const_arg_f64(&args[2], "rand min")?;
        let max = self.const_arg_f64(&args[3], "rand max")?;
        let seed_f = self.const_arg_f64(&args[4], "rand seed")?;
        if seed_f < 0.0 || seed_f.fract() != 0.0 {
            return Err(ScriptError::at(
                span,
                format!("rand seed must be a non-negative integer, got {seed_f}"),
            ));
        }
        self.node_val(
            OpKind::Rand {
                rows,
                cols,
                min,
                max,
                seed: seed_f as u64,
            },
            vec![],
            Ty::Matrix(rows, cols),
        )
    }

    fn const_arg_f64(&self, a: &Arg, what: &str) -> Result<f64> {
        match a {
            Arg::Expr(e) => self.const_f64(e, what),
            Arg::Str(_, span) => Err(ScriptError::at(*span, format!("{what} must be a number"))),
        }
    }

    fn agg_call(&mut self, name: &str, args: &[Arg], span: Span) -> Result<LVal> {
        let aop = agg_op(name);
        match args.len() {
            1 => {
                let v = self.expr_arg(args, 0, name)?;
                if v.ty() == Ty::Scalar {
                    return Err(ScriptError::at(
                        span,
                        format!("{name}(X) aggregates a matrix, found scalar"),
                    ));
                }
                let op = self.operand(&v);
                self.node_val(OpKind::Agg(aop, AggDir::Full), vec![op], Ty::Scalar)
            }
            2 => {
                // Directional agg when the 2nd arg is "row"/"col";
                // otherwise elementwise min/max.
                if let Arg::Str(dir, dspan) = &args[1] {
                    let (op, r, c) = self.matrix_arg(args, 0, name, span)?;
                    let (d, ty) = match dir.as_str() {
                        "row" => (AggDir::Row, Ty::Matrix(r, 1)),
                        "col" => (AggDir::Col, Ty::Matrix(1, c)),
                        other => {
                            return Err(ScriptError::at(
                                *dspan,
                                format!(
                                "aggregation direction must be \"row\" or \"col\", got \"{other}\""
                            ),
                            ))
                        }
                    };
                    return self.node_val(OpKind::Agg(aop, d), vec![op], ty);
                }
                let bop = match name {
                    "min" => BinOp::Lt,
                    "max" => BinOp::Gt,
                    _ => {
                        return Err(ScriptError::at(
                            span,
                            format!("{name} takes one matrix (plus optional \"row\"/\"col\")"),
                        ))
                    }
                };
                let _ = bop;
                let l = self.expr_arg(args, 0, name)?;
                let r = self.expr_arg(args, 1, name)?;
                self.binary_minmax(name, l, r, span)
            }
            n => Err(ScriptError::at(
                span,
                format!("{name} takes 1 or 2 arguments, got {n}"),
            )),
        }
    }

    /// Elementwise `min(a, b)` / `max(a, b)`.
    fn binary_minmax(&mut self, name: &str, l: LVal, r: LVal, span: Span) -> Result<LVal> {
        let bop = if name == "min" {
            BinaryOp::Min
        } else {
            BinaryOp::Max
        };
        if let (LVal::Const(a), LVal::Const(b)) = (&l, &r) {
            let v = if name == "min" { a.min(*b) } else { a.max(*b) };
            return Ok(LVal::Const(v));
        }
        let ty = match (l.ty(), r.ty()) {
            (Ty::Scalar, t) | (t, Ty::Scalar) => t,
            (Ty::Matrix(ar, ac), Ty::Matrix(br, bc)) => {
                unify_elementwise(Ty::Matrix(ar, ac), Ty::Matrix(br, bc), BinOp::Add, span)?
            }
        };
        match (&l, &r) {
            (LVal::Op { op, .. }, LVal::Const(c)) => {
                let id = self.add_node(
                    OpKind::BinaryScalar {
                        op: bop,
                        scalar: ScalarRef::Const(*c),
                        swap: false,
                    },
                    vec![op.clone()],
                );
                Ok(LVal::Op {
                    op: Operand::Node(id),
                    ty,
                    loop_var: false,
                })
            }
            (LVal::Const(c), LVal::Op { op, .. }) => {
                let id = self.add_node(
                    OpKind::BinaryScalar {
                        op: bop,
                        scalar: ScalarRef::Const(*c),
                        swap: true,
                    },
                    vec![op.clone()],
                );
                Ok(LVal::Op {
                    op: Operand::Node(id),
                    ty,
                    loop_var: false,
                })
            }
            _ => {
                let (lo, ro) = (self.operand(&l), self.operand(&r));
                let id = self.add_node(OpKind::Binary(bop), vec![lo, ro]);
                Ok(LVal::Op {
                    op: Operand::Node(id),
                    ty,
                    loop_var: false,
                })
            }
        }
    }

    fn conv_call(&mut self, args: &[Arg], span: Span) -> Result<LVal> {
        self.expect_arity(
            args,
            9,
            "conv2d(X, W, in_ch, out_ch, h, w, kernel, stride, pad)",
            span,
        )?;
        let (x, xr, xc) = self.matrix_arg(args, 0, "conv2d", span)?;
        let (w, wr, wc) = self.matrix_arg(args, 1, "conv2d", span)?;
        let p = Conv2dParams {
            in_channels: self.const_usize(&args[2], "conv2d in_channels")?,
            out_channels: self.const_usize(&args[3], "conv2d out_channels")?,
            height: self.const_usize(&args[4], "conv2d height")?,
            width: self.const_usize(&args[5], "conv2d width")?,
            kernel: self.const_usize(&args[6], "conv2d kernel")?,
            stride: self.const_usize(&args[7], "conv2d stride")?.max(1),
            pad: self.const_usize(&args[8], "conv2d pad")?,
        };
        if xc != p.in_channels * p.height * p.width {
            return Err(ScriptError::at(
                span,
                format!(
                    "conv2d input mismatch: X[{xr}x{xc}] vs {}x{}x{} images",
                    p.in_channels, p.height, p.width
                ),
            ));
        }
        if wr != p.out_channels || wc != p.in_channels * p.kernel * p.kernel {
            return Err(ScriptError::at(
                span,
                format!("conv2d filter mismatch: W[{wr}x{wc}]"),
            ));
        }
        let cols = p.out_cols();
        self.node_val(OpKind::Conv2d(p), vec![x, w], Ty::Matrix(xr, cols))
    }

    fn pool_call(&mut self, args: &[Arg], span: Span) -> Result<LVal> {
        self.expect_arity(args, 6, "max_pool2d(X, ch, h, w, window, stride)", span)?;
        let (x, xr, xc) = self.matrix_arg(args, 0, "max_pool2d", span)?;
        let p = Pool2dParams {
            channels: self.const_usize(&args[1], "max_pool2d channels")?,
            height: self.const_usize(&args[2], "max_pool2d height")?,
            width: self.const_usize(&args[3], "max_pool2d width")?,
            window: self.const_usize(&args[4], "max_pool2d window")?.max(1),
            stride: self.const_usize(&args[5], "max_pool2d stride")?.max(1),
        };
        if xc != p.channels * p.height * p.width {
            return Err(ScriptError::at(
                span,
                format!(
                    "max_pool2d input mismatch: X[{xr}x{xc}] vs {}x{}x{}",
                    p.channels, p.height, p.width
                ),
            ));
        }
        let cols = p.out_cols();
        self.node_val(OpKind::MaxPool2d(p), vec![x], Ty::Matrix(xr, cols))
    }

    fn slice_call(&mut self, name: &str, args: &[Arg], span: Span) -> Result<LVal> {
        self.expect_arity(args, 3, &format!("{name}(X, start, end)"), span)?;
        let (x, r, c) = self.matrix_arg(args, 0, name, span)?;
        let start = self.const_usize(&args[1], "slice start")?;
        let end = self.const_usize(&args[2], "slice end")?;
        let bound = if name == "slice_rows" { r } else { c };
        if start >= end || end > bound {
            return Err(ScriptError::at(
                span,
                format!("{name} range [{start}, {end}) out of bounds for matrix[{r}x{c}]"),
            ));
        }
        if name == "slice_rows" {
            self.node_val(
                OpKind::SliceRows { start, end },
                vec![x],
                Ty::Matrix(end - start, c),
            )
        } else {
            self.node_val(
                OpKind::SliceCols { start, end },
                vec![x],
                Ty::Matrix(r, end - start),
            )
        }
    }

    // ------------------------------------------------------------------
    // User-function inlining
    // ------------------------------------------------------------------

    fn inline_call(&mut self, name: &str, args: &[Arg], span: Span) -> Result<LVal> {
        let f = self
            .funcs
            .get(name)
            .cloned()
            .ok_or_else(|| ScriptError::at(span, format!("unknown function `{name}`")))?;
        if args.len() != f.params.len() {
            return Err(ScriptError::at(
                span,
                format!(
                    "function `{name}` takes {} argument(s), got {}",
                    f.params.len(),
                    args.len()
                ),
            ));
        }
        if self.inline_depth >= 16 {
            return Err(ScriptError::at(
                span,
                format!("function inlining too deep at `{name}` (recursive?)"),
            ));
        }
        let mut argvals = Vec::with_capacity(args.len());
        for (i, _) in args.iter().enumerate() {
            // Constant arguments stay constants (the builder's helpers
            // take f64 params and emit binary_const).
            let v = match &args[i] {
                Arg::Expr(e) => match self.try_const(e) {
                    Some(c) => LVal::Const(c),
                    None => self.expr_arg(args, i, name)?,
                },
                Arg::Str(_, sspan) => {
                    return Err(ScriptError::at(
                        *sspan,
                        format!("function `{name}` does not take string arguments"),
                    ))
                }
            };
            argvals.push(v);
        }
        for s in &f.body {
            check_fn_stmt(s, &f.name)?;
        }
        self.inline_counter += 1;
        let prefix = format!("__f{}", self.inline_counter);
        let mut fenv = HashMap::new();
        for (p, v) in f.params.iter().zip(argvals) {
            let b = match v {
                LVal::Const(c) => Binding {
                    op: None,
                    ty: Ty::Scalar,
                    cval: Some(c),
                    loop_var: false,
                },
                LVal::Op { op, ty, loop_var } => Binding {
                    op: Some(op),
                    ty,
                    cval: None,
                    loop_var,
                },
            };
            fenv.insert(p.clone(), b);
        }
        let saved_env = std::mem::replace(&mut self.env, fenv);
        let saved_prefix = self.fn_prefix.replace(prefix);
        self.inline_depth += 1;
        let body_res = self.stmts(&f.body);
        let ret = body_res.and_then(|_| self.expr(&f.ret));
        self.inline_depth -= 1;
        self.fn_prefix = saved_prefix;
        self.env = saved_env;
        ret
    }
}

/// Function bodies are straight-line: assignments and `parfor` only, so
/// inlining never crosses a basic-block boundary.
fn check_fn_stmt(s: &Stmt, fname: &str) -> Result<()> {
    match s {
        Stmt::Assign { .. } => Ok(()),
        Stmt::For {
            unroll: true, body, ..
        } => {
            for b in body {
                check_fn_stmt(b, fname)?;
            }
            Ok(())
        }
        Stmt::For { span, .. } => Err(ScriptError::at(
            *span,
            format!("function `{fname}` may not contain runtime `for`; use `parfor`"),
        )),
        Stmt::If { span, .. }
        | Stmt::Print { span, .. }
        | Stmt::Checkpoint { span, .. }
        | Stmt::Evict { span, .. } => Err(ScriptError::at(
            *span,
            format!("function `{fname}` bodies allow only assignments and `parfor`"),
        )),
    }
}

/// Substitutes a `parfor` loop variable with a literal throughout a
/// statement (compile-time unrolling).
fn subst_stmt(s: &Stmt, var: &str, v: f64) -> Stmt {
    let e = |x: &Expr| subst_expr(x, var, v);
    match s {
        Stmt::Assign { name, expr, span } => Stmt::Assign {
            name: name.clone(),
            expr: e(expr),
            span: *span,
        },
        Stmt::For {
            var: lv,
            seq,
            body,
            unroll,
            span,
        } => {
            // Inner shadowing of the same name stops substitution.
            let seq = match seq {
                SeqSpec::List(xs) => SeqSpec::List(xs.iter().map(&e).collect()),
                SeqSpec::Range(a, b) => SeqSpec::Range(Box::new(e(a)), Box::new(e(b))),
            };
            let body = if lv == var {
                body.clone()
            } else {
                body.iter().map(|s| subst_stmt(s, var, v)).collect()
            };
            Stmt::For {
                var: lv.clone(),
                seq,
                body,
                unroll: *unroll,
                span: *span,
            }
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
            span,
        } => Stmt::If {
            cond: e(cond),
            then_body: then_body.iter().map(|s| subst_stmt(s, var, v)).collect(),
            else_body: else_body.iter().map(|s| subst_stmt(s, var, v)).collect(),
            span: *span,
        },
        other => other.clone(),
    }
}

fn subst_expr(x: &Expr, var: &str, v: f64) -> Expr {
    match x {
        Expr::Var(name, span) if name == var => Expr::Num(v, *span),
        Expr::Num(..) | Expr::Var(..) => x.clone(),
        Expr::Neg(a, span) => Expr::Neg(Box::new(subst_expr(a, var, v)), *span),
        Expr::Binary { op, lhs, rhs, span } => Expr::Binary {
            op: *op,
            lhs: Box::new(subst_expr(lhs, var, v)),
            rhs: Box::new(subst_expr(rhs, var, v)),
            span: *span,
        },
        Expr::Call { name, args, span } => Expr::Call {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| match a {
                    Arg::Expr(e) => Arg::Expr(subst_expr(e, var, v)),
                    s => s.clone(),
                })
                .collect(),
            span: *span,
        },
    }
}

/// Folds a binary op over two compile-time constants (plain f64
/// arithmetic — bit-identical to what the Rust builder computes).
fn fold(op: BinOp, a: f64, b: f64) -> Option<f64> {
    Some(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Pow => a.powf(b),
        BinOp::MatMul => return None,
        BinOp::Lt => (a < b) as u8 as f64,
        BinOp::Gt => (a > b) as u8 as f64,
        BinOp::Le => (a <= b) as u8 as f64,
        BinOp::Ge => (a >= b) as u8 as f64,
        BinOp::Eq => (a == b) as u8 as f64,
        BinOp::Ne => (a != b) as u8 as f64,
    })
}

fn elementwise_op(op: BinOp) -> BinaryOp {
    match op {
        BinOp::Add => BinaryOp::Add,
        BinOp::Sub => BinaryOp::Sub,
        BinOp::Mul => BinaryOp::Mul,
        BinOp::Div => BinaryOp::Div,
        BinOp::Pow => BinaryOp::Pow,
        BinOp::Lt => BinaryOp::Less,
        BinOp::Gt => BinaryOp::Greater,
        BinOp::Le => BinaryOp::LessEq,
        BinOp::Ge => BinaryOp::GreaterEq,
        BinOp::Eq => BinaryOp::Equal,
        BinOp::Ne => BinaryOp::NotEqual,
        BinOp::MatMul => unreachable!("matmul handled separately"),
    }
}

fn unary_op(name: &str) -> UnaryOp {
    match name {
        "exp" => UnaryOp::Exp,
        "log" => UnaryOp::Log,
        "sqrt" => UnaryOp::Sqrt,
        "abs" => UnaryOp::Abs,
        "round" => UnaryOp::Round,
        "floor" => UnaryOp::Floor,
        "ceil" => UnaryOp::Ceil,
        "relu" => UnaryOp::Relu,
        "sigmoid" => UnaryOp::Sigmoid,
        "tanh" => UnaryOp::Tanh,
        "sign" => UnaryOp::Sign,
        other => unreachable!("not a unary builtin: {other}"),
    }
}

fn agg_op(name: &str) -> AggOp {
    match name {
        "sum" => AggOp::Sum,
        "mean" => AggOp::Mean,
        "min" => AggOp::Min,
        "max" => AggOp::Max,
        "var" => AggOp::Var,
        "sumsq" => AggOp::SumSq,
        other => unreachable!("not an agg builtin: {other}"),
    }
}

/// Result type when one side of an elementwise op is a scalar.
fn result_ty_scalar(t: Ty, _op: BinOp) -> Ty {
    t
}

fn unify_elementwise(l: Ty, r: Ty, op: BinOp, span: Span) -> Result<Ty> {
    Ok(match (l, r) {
        (Ty::Scalar, Ty::Scalar) => Ty::Scalar,
        (Ty::Matrix(r1, c1), Ty::Scalar) => Ty::Matrix(r1, c1),
        (Ty::Scalar, Ty::Matrix(r1, c1)) => Ty::Matrix(r1, c1),
        (Ty::Matrix(1, 1), Ty::Matrix(r1, c1)) | (Ty::Matrix(r1, c1), Ty::Matrix(1, 1)) => {
            Ty::Matrix(r1, c1)
        }
        (Ty::Matrix(r1, c1), Ty::Matrix(r2, c2)) => {
            // Same broadcast family as `matrix::ops::binary`: exact shape,
            // or a row/column vector against a matching dimension.
            let col_bcast = r1 == r2 && (c1 == 1 || c2 == 1);
            let row_bcast = c1 == c2 && (r1 == 1 || r2 == 1);
            if (r1 != r2 || c1 != c2) && !col_bcast && !row_bcast {
                return Err(ScriptError::at(
                    span,
                    format!(
                        "dimension mismatch: matrix[{r1}x{c1}] {} matrix[{r2}x{c2}]",
                        op.as_str()
                    ),
                ));
            }
            Ty::Matrix(r1.max(r2), c1.max(c2))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn compile(src: &str) -> Result<Compiled> {
        lower(&parse(src)?)
    }

    #[test]
    fn lowers_linreg_shape() {
        let src = "\
X = read(\"d/X\", 40, 4);
y = read(\"d/y\", 40, 1);
for (reg in [0.1, 0.2, 0.3]) {
  G = tsmm(X);
  b = xty(X, y);
  A = G + reg;
  w = solve(A, b);
}
print(w);
";
        let c = compile(src).unwrap();
        assert_eq!(c.reads.len(), 2);
        assert_eq!(c.prints, vec!["w"]);
        assert_eq!(c.program.blocks.len(), 1);
        let Block::For { var, values, body } = &c.program.blocks[0] else {
            panic!("for block expected: {:?}", c.program.blocks)
        };
        assert_eq!(var, "reg");
        assert_eq!(values, &vec![0.1, 0.2, 0.3]);
        let Block::Basic { dag, .. } = &body[0] else {
            panic!()
        };
        // tsmm, xty, binscalar(loop), solve.
        assert_eq!(dag.nodes.len(), 4);
        assert!(matches!(
            dag.nodes[2].kind,
            OpKind::BinaryScalar {
                scalar: ScalarRef::Loop(_),
                ..
            }
        ));
        assert_eq!(c.node_count(), 4);
    }

    #[test]
    fn parfor_unrolls_and_folds() {
        let src = "\
X = read(\"d/X\", 4, 4);
parfor (i in seq(0, 1)) {
  a = i / 2;
  Y = X * a;
}
print(Y);
";
        let c = compile(src).unwrap();
        let Block::Basic { dag, .. } = &c.program.blocks[0] else {
            panic!()
        };
        // Two unrolled iterations: Literal(a) + Binary(X, a) each.
        assert_eq!(dag.nodes.len(), 4);
        assert!(matches!(dag.nodes[0].kind, OpKind::Literal(v) if v == 0.0));
        assert!(matches!(dag.nodes[2].kind, OpKind::Literal(v) if v == 0.5));
        assert!(matches!(dag.nodes[1].kind, OpKind::Binary(BinaryOp::Mul)));
    }

    #[test]
    fn reassignment_gets_versioned_names_with_final_alias() {
        let src = "\
X = read(\"d/X\", 4, 4);
Y = X * 2;
Y = Y + 1;
Z = Y * Y;
print(Z);
";
        let c = compile(src).unwrap();
        let Block::Basic { dag, .. } = &c.program.blocks[0] else {
            panic!()
        };
        assert_eq!(dag.nodes[0].outputs, vec!["Y".to_string()]);
        // The second Y gets a versioned primary name plus the public
        // alias appended at flush.
        assert!(dag.nodes[1].outputs[0].starts_with("Y__v"));
        assert!(dag.nodes[1].outputs.contains(&"Y".to_string()));
        // Z consumes the *node* of the latest version, not the name.
        assert_eq!(
            dag.nodes[2].inputs,
            vec![Operand::Node(1), Operand::Node(1)]
        );
    }

    #[test]
    fn function_inlining_renames_locals() {
        let src = "\
function scale(M, f) { S = M * f; return(S); }
X = read(\"d/X\", 4, 4);
A = scale(X, 2);
B = scale(X, 3);
print(A);
print(B);
";
        let c = compile(src).unwrap();
        let Block::Basic { dag, .. } = &c.program.blocks[0] else {
            panic!()
        };
        // Constant param → BinaryScalar{Const}; locals renamed per call.
        assert!(matches!(
            &dag.nodes[0].kind,
            OpKind::BinaryScalar {
                scalar: ScalarRef::Const(v),
                ..
            } if *v == 2.0
        ));
        assert!(dag.nodes[0].outputs[0].starts_with("__f1_"));
        assert!(!dag.nodes[0].outputs.contains(&"A".to_string()));
        // A/B are aliases added by the assignment.
        assert!(dag.nodes[1].outputs.contains(&"A".to_string()));
    }

    #[test]
    fn type_errors_carry_spans() {
        let e = compile("X = read(\"d/X\", 4, 3);\nY = read(\"d/Y\", 5, 3);\nZ = X %*% Y;\n")
            .unwrap_err();
        assert_eq!(e.span.line, 3);
        assert!(e.message.contains("dimension mismatch"), "{}", e.message);

        let e = compile("x = y + 1;").unwrap_err();
        assert!(e.message.contains("unknown variable `y`"));
        assert_eq!((e.span.line, e.span.col), (1, 5));

        let e = compile("X = read(\"d/X\", 4, 3);\nZ = X + read(\"d/Y\", 4, 3);\n").unwrap_err();
        assert!(e.message.contains("top-level assignment"), "{}", e.message);
    }

    #[test]
    fn if_lowering_produces_cond_block() {
        let src = "\
X = read(\"d/X\", 3, 3);
s = sum(X);
if (s > 1) { Y = X * 2; } else { Y = X * 3; }
print(Y);
";
        let c = compile(src).unwrap();
        assert!(c
            .program
            .blocks
            .iter()
            .any(|b| matches!(b, Block::If { cond_var, .. } if cond_var.starts_with("__cond"))));
    }

    #[test]
    fn checkpoint_and_evict_get_their_own_blocks() {
        let src = "\
X = read(\"d/X\", 3, 3);
Y = X * 2;
checkpoint(Y);
evict(0.5);
Z = Y + 1;
print(Z);
";
        let c = compile(src).unwrap();
        assert_eq!(c.program.blocks.len(), 4);
        let Block::Basic { dag, .. } = &c.program.blocks[1] else {
            panic!()
        };
        assert!(matches!(dag.nodes[0].kind, OpKind::Checkpoint));
        let Block::Basic { dag, .. } = &c.program.blocks[2] else {
            panic!()
        };
        assert!(matches!(dag.nodes[0].kind, OpKind::Evict(f) if f == 0.5));
    }

    #[test]
    fn duplicate_read_var_rejected() {
        let e = compile("X = read(\"a\", 2, 2);\nX = read(\"b\", 2, 2);\n").unwrap_err();
        assert!(e.message.contains("read twice"));
        assert_eq!(e.span.line, 2);
    }
}
