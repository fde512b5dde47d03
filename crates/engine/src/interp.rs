//! Program interpreter: executes compiled programs block-by-block against
//! an [`ExecutionContext`] in the chosen linearization order. Delayed
//! caching runs at the context's `delay_factor`; `checkpoint` and `evict`
//! nodes run the program's own cache-management operators.

use crate::compiler::{linearize, place, Ordering, PlacementCaps};
use crate::context::{EngineError, ExecutionContext, Result};
use crate::plan::{Block, Dag, OpKind, Operand, Program, ScalarRef};

/// Executes a program. `ordering` selects the linearization strategy
/// (depth-first baseline or Algorithm 2's `maxParallelize`).
pub fn run_program(
    ctx: &mut ExecutionContext,
    program: &Program,
    ordering: Ordering,
) -> Result<()> {
    for block in &program.blocks {
        run_block(ctx, program, block, ordering)?;
    }
    Ok(())
}

fn run_block(
    ctx: &mut ExecutionContext,
    program: &Program,
    block: &Block,
    ordering: Ordering,
) -> Result<()> {
    match block {
        Block::Basic { dag } => run_dag(ctx, program, dag, ordering),
        Block::For { var, values, body } => {
            for &v in values {
                ctx.literal(var, v)?;
                for b in body {
                    run_block(ctx, program, b, ordering)?;
                }
            }
            Ok(())
        }
        Block::While {
            cond_var,
            max_iterations,
            body,
        } => {
            let mut iterations = 0;
            while iterations < *max_iterations {
                if ctx.has(cond_var) && ctx.get_scalar(cond_var)? == 0.0 {
                    break;
                }
                for b in body {
                    run_block(ctx, program, b, ordering)?;
                }
                iterations += 1;
            }
            Ok(())
        }
        Block::If {
            cond_var,
            then_blocks,
            else_blocks,
        } => {
            let taken = if ctx.get_scalar(cond_var)? != 0.0 {
                then_blocks
            } else {
                else_blocks
            };
            for b in taken {
                run_block(ctx, program, b, ordering)?;
            }
            Ok(())
        }
    }
}

fn run_dag(
    ctx: &mut ExecutionContext,
    program: &Program,
    dag: &Dag,
    ordering: Ordering,
) -> Result<()> {
    // Only maxParallelize reads placement. It is tier-driven: ask the
    // cache which tiers are attached (and how big the device is).
    let backend = match ordering {
        Ordering::DepthFirst => Vec::new(),
        Ordering::MaxParallelize => {
            let caps = PlacementCaps::of(ctx.cache());
            place(dag, &program.var_dims, ctx.config(), &caps)
        }
    };
    let order = linearize(dag, &backend, ordering);

    let name_of = |id: usize| -> String {
        dag.nodes[id]
            .outputs
            .first()
            .cloned()
            .unwrap_or_else(|| format!("__n{id}"))
    };
    let operand_name = |o: &Operand| -> String {
        match o {
            Operand::Var(v) => v.clone(),
            Operand::Node(id) => name_of(*id),
        }
    };

    for id in order {
        let node = &dag.nodes[id];
        let out = name_of(id);
        let ins: Vec<String> = node.inputs.iter().map(&operand_name).collect();
        match &node.kind {
            OpKind::Rand {
                rows,
                cols,
                min,
                max,
                seed,
            } => ctx.rand(&out, *rows, *cols, *min, *max, *seed)?,
            OpKind::MatMul => ctx.matmul(&out, &ins[0], &ins[1])?,
            OpKind::Tsmm => ctx.tsmm(&out, &ins[0])?,
            OpKind::Xty => ctx.xty(&out, &ins[0], &ins[1])?,
            OpKind::Transpose => ctx.transpose(&out, &ins[0])?,
            OpKind::Solve => ctx.solve(&out, &ins[0], &ins[1])?,
            OpKind::Binary(op) => ctx.binary(&out, &ins[0], &ins[1], *op)?,
            OpKind::BinaryScalar { op, scalar, swap } => match scalar {
                ScalarRef::Const(c) => ctx.binary_const(&out, &ins[0], *c, *op, *swap)?,
                ScalarRef::Loop(v) => {
                    if !ctx.has(v) {
                        return Err(EngineError::UnknownVar(v.clone()));
                    }
                    if *swap {
                        ctx.binary(&out, v, &ins[0], *op)?
                    } else {
                        ctx.binary(&out, &ins[0], v, *op)?
                    }
                }
            },
            OpKind::Unary(op) => ctx.unary(&out, &ins[0], *op)?,
            OpKind::Agg(op, dir) => ctx.agg(&out, &ins[0], *op, *dir)?,
            OpKind::Literal(v) => ctx.literal(&out, *v)?,
            OpKind::Alias => {
                if out != ins[0] {
                    ctx.assign(&out, &ins[0])?;
                }
            }
            OpKind::SliceRows { start, end } => ctx.slice_rows(&out, &ins[0], *start, *end)?,
            OpKind::SliceCols { start, end } => ctx.slice_cols(&out, &ins[0], *start, *end)?,
            OpKind::Conv2d(p) => ctx.conv2d(&out, &ins[0], &ins[1], *p)?,
            OpKind::MaxPool2d(p) => ctx.max_pool2d(&out, &ins[0], *p)?,
            OpKind::Affine => ctx.affine(&out, &ins[0], &ins[1], &ins[2])?,
            OpKind::Checkpoint => {
                ctx.checkpoint(&ins[0])?;
                if out != ins[0] {
                    ctx.assign(&out, &ins[0])?;
                }
            }
            OpKind::Evict(fraction) => ctx.evict_gpu(*fraction),
        }
        // Further variables bound to the same node (the script lowering
        // publishes every name that still points at it).
        for alias in node.outputs.iter().skip(1) {
            ctx.assign(alias, &out)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::ops::AggDir;
    use memphis_matrix::ops::agg::AggOp;
    use memphis_matrix::ops::binary::BinaryOp;
    use memphis_matrix::rand_gen::rand_uniform;
    use memphis_sparksim::{SparkConfig, SparkContext};
    use std::sync::Arc;

    /// Grid-search linear regression as a compiled program (Example 4.1).
    fn linreg_program(regs: &[f64], rows: usize, cols: usize) -> Program {
        let mut dag = Dag::new();
        let g = dag.add(OpKind::Tsmm, vec![Operand::Var("X".into())], Some("G"));
        let b = dag.add(
            OpKind::Xty,
            vec![Operand::Var("X".into()), Operand::Var("y".into())],
            Some("bv"),
        );
        let a = dag.add(
            OpKind::BinaryScalar {
                op: BinaryOp::Add,
                scalar: ScalarRef::Loop("reg".into()),
                swap: false,
            },
            vec![Operand::Node(g)],
            None,
        );
        dag.add(
            OpKind::Solve,
            vec![Operand::Node(a), Operand::Node(b)],
            Some("w"),
        );
        let mut p = Program::new();
        p.declare("X", rows, cols);
        p.declare("y", rows, 1);
        p.blocks.push(Block::For {
            var: "reg".into(),
            values: regs.to_vec(),
            body: vec![Block::Basic { dag }],
        });
        p
    }

    #[test]
    fn program_executes_and_reuses_loop_invariants() {
        let mut ctx = ExecutionContext::local(EngineConfig::test());
        let x = rand_uniform(40, 4, -1.0, 1.0, 1);
        let y = rand_uniform(40, 1, -1.0, 1.0, 2);
        ctx.read("X", x, "X").unwrap();
        ctx.read("y", y, "y").unwrap();
        let p = linreg_program(&[0.1, 0.2, 0.3], 40, 4);
        run_program(&mut ctx, &p, Ordering::DepthFirst).unwrap();
        // tsmm and xty are reg-independent: executed once, reused twice
        // each.
        assert_eq!(ctx.stats.reused, 4);
        assert!(ctx.get_matrix("w").is_ok());
    }

    #[test]
    fn loop_variable_changes_prevent_wrong_reuse() {
        let mut ctx = ExecutionContext::local(EngineConfig::test());
        let x = rand_uniform(20, 3, -1.0, 1.0, 3);
        let y = rand_uniform(20, 1, -1.0, 1.0, 4);
        ctx.read("X", x, "X").unwrap();
        ctx.read("y", y, "y").unwrap();
        let p = linreg_program(&[0.1, 0.5], 20, 3);
        run_program(&mut ctx, &p, Ordering::DepthFirst).unwrap();
        let w1 = ctx.get_matrix("w").unwrap();
        // Run again with only the second reg: the solve for 0.5 is reused,
        // and its result must equal the previous iteration's output.
        let p2 = linreg_program(&[0.5], 20, 3);
        let before = ctx.stats.instructions;
        run_program(&mut ctx, &p2, Ordering::DepthFirst).unwrap();
        let w2 = ctx.get_matrix("w").unwrap();
        assert!(w1.approx_eq(&w2, 0.0), "reg=0.5 output is stable");
        // Everything in the second run was reusable.
        assert!(ctx.stats.instructions > before);
    }

    #[test]
    fn while_loop_runs_until_condition_clears() {
        // body: thresh = sum(X * 0.5^k) > 1  (X shrinks every iteration)
        let mut ctx = ExecutionContext::local(EngineConfig::test());
        let x = rand_uniform(8, 8, 0.9, 1.0, 6);
        ctx.read("X", x, "X").unwrap();
        let mut dag = Dag::new();
        let half = dag.add(
            OpKind::BinaryScalar {
                op: BinaryOp::Mul,
                scalar: ScalarRef::Const(0.5),
                swap: false,
            },
            vec![Operand::Var("X".into())],
            Some("X"),
        );
        let s = dag.add(
            OpKind::Agg(AggOp::Sum, AggDir::Full),
            vec![Operand::Node(half)],
            None,
        );
        dag.add(
            OpKind::BinaryScalar {
                op: BinaryOp::Greater,
                scalar: ScalarRef::Const(1.0),
                swap: false,
            },
            vec![Operand::Node(s)],
            Some("cond"),
        );
        let mut p = Program::new();
        p.declare("X", 8, 8);
        p.blocks.push(Block::While {
            cond_var: "cond".into(),
            max_iterations: 100,
            body: vec![Block::Basic { dag }],
        });
        run_program(&mut ctx, &p, Ordering::DepthFirst).unwrap();
        // Sum halves each iteration from ~60: needs ~6-7 iterations.
        let cond = ctx.get_scalar("cond").unwrap();
        assert_eq!(cond, 0.0, "loop exits when the sum drops below 1");
        let sum = ctx.get_matrix("X").unwrap();
        assert!(sum.values().iter().all(|&v| v < 0.02));
    }

    #[test]
    fn if_block_takes_the_right_branch() {
        let mut ctx = ExecutionContext::local(EngineConfig::test());
        ctx.read("X", rand_uniform(4, 4, 0.0, 1.0, 7), "X").unwrap();
        let mk_branch = |c: f64| {
            let mut dag = Dag::new();
            dag.add(
                OpKind::BinaryScalar {
                    op: BinaryOp::Mul,
                    scalar: ScalarRef::Const(c),
                    swap: false,
                },
                vec![Operand::Var("X".into())],
                Some("Y"),
            );
            vec![Block::Basic { dag }]
        };
        for (cond, factor) in [(1.0, 10.0), (0.0, 100.0)] {
            let mut p = Program::new();
            p.declare("X", 4, 4);
            p.blocks.push(Block::If {
                cond_var: "c".into(),
                then_blocks: mk_branch(10.0),
                else_blocks: mk_branch(100.0),
            });
            ctx.literal("c", cond).unwrap();
            run_program(&mut ctx, &p, Ordering::DepthFirst).unwrap();
            let y = ctx.get_matrix("Y").unwrap();
            let x = ctx.get_matrix("X").unwrap();
            let expected =
                memphis_matrix::ops::binary::binary_scalar(&x, factor, BinaryOp::Mul, false);
            assert!(y.approx_eq(&expected, 0.0));
        }
    }

    #[test]
    fn aggregation_block_with_sum() {
        let mut ctx = ExecutionContext::local(EngineConfig::test());
        let x = rand_uniform(10, 4, 0.0, 1.0, 5);
        ctx.read("X", x.clone(), "X").unwrap();
        let mut dag = Dag::new();
        let e = dag.add(
            OpKind::Unary(memphis_matrix::ops::unary::UnaryOp::Exp),
            vec![Operand::Var("X".into())],
            None,
        );
        dag.add(
            OpKind::Agg(AggOp::Sum, AggDir::Full),
            vec![Operand::Node(e)],
            Some("s"),
        );
        let mut p = Program::new();
        p.declare("X", 10, 4);
        p.blocks.push(Block::Basic { dag });
        run_program(&mut ctx, &p, Ordering::MaxParallelize).unwrap();
        let s = ctx.get_scalar("s").unwrap();
        let expected: f64 = x.values().iter().map(|v| v.exp()).sum();
        assert!((s - expected).abs() < 1e-9);
    }

    #[test]
    fn programs_run_at_the_contexts_delay_factor() {
        // G = tsmm(X) once: n=1 stores on the first execution, n=2 only
        // leaves a placeholder.
        for (delay, want) in [(1, (0, 1)), (2, (1, 0))] {
            let mut cfg = EngineConfig::test();
            cfg.delay_factor = delay;
            let mut ctx = ExecutionContext::local(cfg);
            ctx.read("X", rand_uniform(16, 4, -1.0, 1.0, 8), "X")
                .unwrap();
            let mut dag = Dag::new();
            dag.add(OpKind::Tsmm, vec![Operand::Var("X".into())], Some("G"));
            let mut p = Program::new();
            p.declare("X", 16, 4);
            p.blocks.push(Block::Basic { dag });
            run_program(&mut ctx, &p, Ordering::DepthFirst).unwrap();
            let r = ctx.cache().stats();
            assert_eq!((r.puts_deferred, r.puts), want, "delay_factor {delay}");
        }
    }

    #[test]
    fn orderings_agree_on_a_spark_placed_program() {
        // X is 32 KiB against a 1 KiB threshold: tsmm and xty run as
        // Spark jobs, so maxParallelize takes its remote branch.
        let run = |ordering: Ordering| {
            let sc = SparkContext::new(SparkConfig::local_test());
            let cache = Arc::new(
                memphis_core::LineageCache::new(memphis_core::cache::config::CacheConfig::test())
                    .with_spark_sync(sc.clone()),
            );
            let mut cfg = EngineConfig::test();
            cfg.spark_threshold_bytes = 1 << 10;
            let mut ctx = ExecutionContext::new(cfg, cache, Some(sc.clone()), None);
            ctx.read("X", rand_uniform(512, 8, -1.0, 1.0, 9), "X")
                .unwrap();
            ctx.read("y", rand_uniform(512, 1, -1.0, 1.0, 10), "y")
                .unwrap();
            let p = linreg_program(&[0.1, 0.2], 512, 8);
            run_program(&mut ctx, &p, ordering).unwrap();
            let w = ctx.get_matrix("w").unwrap();
            (w.fingerprint(), ctx.stats.instructions, sc.stats().jobs)
        };
        let depth_first = run(Ordering::DepthFirst);
        assert!(depth_first.2 > 0, "Spark ran jobs");
        assert_eq!(run(Ordering::MaxParallelize), depth_first);
    }
}
