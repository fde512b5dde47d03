//! The engine's instruction set: every method executes through the
//! Figure-4 reuse hook with operator placement across CPU, the simulated
//! Spark cluster, and the simulated GPU device.
//!
//! Distributed matrices are **row-blocked**: one record per `blen`-row
//! stripe, keyed `(row_block, 0)`. This matches the tall-and-skinny
//! feature matrices of the paper's workloads and makes elementwise ops
//! narrow (co-partitioned zips) while aggregations use single-block
//! `reduce()` actions — the implicit-action pattern §4.1 exploits for
//! Spark action reuse.

use crate::context::{EngineError, ExecutionContext, Result};
use crate::cost;
use crate::value::Value;
use memphis_matrix::ops::agg::{self, AggOp};
use memphis_matrix::ops::binary::{self, BinaryOp};
use memphis_matrix::ops::matmul as mm;
use memphis_matrix::ops::nn::{self, Conv2dParams, Pool2dParams};
use memphis_matrix::ops::reorg;
use memphis_matrix::ops::solve as msolve;
use memphis_matrix::ops::unary::{self, UnaryOp};
use memphis_matrix::rand_gen;
use memphis_matrix::{BlockId, Matrix};
use memphis_sparksim::{RddRef, Record};
use std::sync::Arc;

/// Aggregation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggDir {
    /// Full aggregation to a scalar.
    Full,
    /// Per-row aggregation to a column vector.
    Row,
    /// Per-column aggregation to a row vector.
    Col,
}

/// Splits a dense matrix into row-blocked records.
pub(crate) fn row_blocked(m: &Matrix, blen: usize) -> Vec<Record> {
    let rows = m.rows();
    let nrb = rows.div_ceil(blen).max(1);
    (0..nrb)
        .map(|rb| {
            let r0 = rb * blen;
            let r1 = ((rb + 1) * blen).min(rows);
            (
                BlockId { row: rb, col: 0 },
                reorg::slice_rows(m, r0.min(rows), r1).expect("in bounds"),
            )
        })
        .collect()
}

impl ExecutionContext {
    // ------------------------------------------------------------------
    // Data binding (sources)
    // ------------------------------------------------------------------

    /// Binds an input dataset, placing it on Spark when it exceeds the
    /// operation-memory threshold. `name` uniquely identifies the data in
    /// lineage traces (file path / content fingerprint).
    pub fn read(&mut self, var: &str, m: Matrix, name: &str) -> Result<()> {
        if m.size_bytes() > self.cfg.spark_threshold_bytes && self.sc.is_some() {
            return self.read_distributed(var, m, name);
        }
        let item = if self.cfg.reuse.traces() {
            Some(self.lineage.set_leaf(var, name))
        } else {
            None
        };
        let c = m.len() as f64;
        self.bind(var, Value::Matrix(m), item, c);
        Ok(())
    }

    /// Binds an input dataset as a distributed row-blocked RDD.
    pub fn read_distributed(&mut self, var: &str, m: Matrix, name: &str) -> Result<()> {
        let sc = self
            .sc
            .as_ref()
            .ok_or_else(|| EngineError::Unsupported("no Spark backend".into()))?
            .clone();
        let (rows, cols) = m.shape();
        let blen = self.cfg.blen;
        let rdd = sc.parallelize(row_blocked(&m, blen), sc.config().default_parallelism, name);
        let item = if self.cfg.reuse.traces() {
            Some(self.lineage.set_leaf(var, name))
        } else {
            None
        };
        self.bind(
            var,
            Value::Rdd {
                rdd,
                rows,
                cols,
                blen,
            },
            item,
            (rows * cols) as f64,
        );
        Ok(())
    }

    /// Binds a scalar literal. Equal values yield equal lineage, enabling
    /// reuse across calls with repeated hyper-parameters.
    pub fn literal(&mut self, var: &str, v: f64) -> Result<()> {
        let item = if self.cfg.reuse.traces() {
            Some(self.lineage.set_leaf(var, &format!("scalar:{v}")))
        } else {
            None
        };
        self.bind(var, Value::Scalar(v), item, 1.0);
        Ok(())
    }

    /// Seeded uniform random matrix (DML `rand`). Deterministic per seed,
    /// so lineage-based reuse is sound.
    pub fn rand(
        &mut self,
        out: &str,
        rows: usize,
        cols: usize,
        min: f64,
        max: f64,
        seed: u64,
    ) -> Result<()> {
        let data = vec![
            rows.to_string(),
            cols.to_string(),
            min.to_string(),
            max.to_string(),
            seed.to_string(),
        ];
        let threshold = self.cfg.spark_threshold_bytes;
        let has_sc = self.sc.is_some();
        self.exec_instr(out, "rand", data, &[], move |ctx| {
            let m = rand_gen::rand_uniform(rows, cols, min, max, seed);
            let c = cost::flops("rand", rows, 1, cols);
            if m.size_bytes() > threshold && has_sc {
                let v = ctx.matrix_to_rdd_value(m, "rand")?;
                Ok((v, c))
            } else {
                Ok((Value::Matrix(m), c))
            }
        })
    }

    /// Sequence column vector (DML `seq`).
    pub fn seq(&mut self, out: &str, from: f64, to: f64, incr: f64) -> Result<()> {
        let data = vec![from.to_string(), to.to_string(), incr.to_string()];
        self.exec_instr(out, "seq", data, &[], move |_| {
            let m = Matrix::seq(from, to, incr);
            let c = m.len() as f64;
            Ok((Value::Matrix(m), c))
        })
    }

    pub(crate) fn matrix_to_rdd_value(&mut self, m: Matrix, name: &str) -> Result<Value> {
        let sc = self
            .sc
            .as_ref()
            .ok_or_else(|| EngineError::Unsupported("no Spark backend".into()))?
            .clone();
        let (rows, cols) = m.shape();
        let blen = self.cfg.blen;
        let rdd = sc.parallelize(row_blocked(&m, blen), sc.config().default_parallelism, name);
        Ok(Value::Rdd {
            rdd,
            rows,
            cols,
            blen,
        })
    }

    /// Runs a job-triggering action either inline or — when asynchronous
    /// operators are enabled (§5.1's prefetch) — on a background thread,
    /// returning a future immediately. The background thread PUTs the
    /// collected result into the cache once available.
    pub(crate) fn run_action<F>(&mut self, f: F, op_cost: f64) -> Result<(Value, f64)>
    where
        F: FnOnce() -> Matrix + Send + 'static,
    {
        if !self.cfg.async_ops {
            return Ok((Value::Matrix(f()), op_cost));
        }
        let future = crate::value::Future::new();
        let fut = future.clone();
        let cache = self.cache.clone();
        let item = self.current_item.clone();
        let puts = self.cfg.reuse.puts_ops() && self.cfg.reuse.multibackend();
        let delay = self.cfg.delay_factor;
        std::thread::spawn(move || {
            let m = f();
            if puts {
                if let Some(item) = &item {
                    let size = m.size_bytes();
                    cache.put(
                        item,
                        memphis_core::cache::entry::CachedObject::Matrix(std::sync::Arc::new(
                            m.clone(),
                        )),
                        memphis_core::cache::Admit {
                            delay,
                            ..memphis_core::cache::Admit::new(op_cost, size)
                        },
                    );
                }
            }
            fut.fulfill(Value::Matrix(m));
        });
        Ok((Value::Future(future), op_cost))
    }

    // ------------------------------------------------------------------
    // Input resolution helpers
    // ------------------------------------------------------------------

    /// Resolves futures so the value can be inspected (waits if needed).
    pub(crate) fn resolve(&mut self, var: &str) -> Result<Value> {
        let b = self.binding(var)?.clone();
        match b.value {
            Value::Future(f) => {
                let v = f.get();
                self.bind(var, v.clone(), b.lineage, b.cost);
                Ok(v)
            }
            v => Ok(v),
        }
    }

    /// Forces an input to a local dense matrix (collect / device-to-host).
    pub(crate) fn local_input(&mut self, var: &str) -> Result<Matrix> {
        self.resolve(var)?;
        self.get_matrix(var)
    }

    fn rdd_input(&mut self, var: &str) -> Result<(RddRef, usize, usize, usize)> {
        match self.resolve(var)? {
            Value::Rdd {
                rdd,
                rows,
                cols,
                blen,
            } => Ok((rdd, rows, cols, blen)),
            _ => Err(EngineError::Unsupported(format!(
                "{var} is not distributed"
            ))),
        }
    }

    /// A broadcast handle for a local input, creating (and rebinding) the
    /// broadcast on first use so later operators share it.
    pub(crate) fn bc_input(&mut self, var: &str) -> Result<memphis_sparksim::BroadcastRef> {
        let v = self.resolve(var)?;
        match v {
            // Re-broadcast if lazy GC destroyed the previous copy.
            Value::Broadcast { bc, local } => {
                if bc.is_destroyed() {
                    let sc = self
                        .sc
                        .as_ref()
                        .ok_or_else(|| EngineError::Unsupported("no Spark backend".into()))?;
                    let nbc = sc.broadcast(local.clone());
                    let b = self.binding(var)?.clone();
                    self.bind(
                        var,
                        Value::Broadcast {
                            bc: nbc.clone(),
                            local,
                        },
                        b.lineage,
                        b.cost,
                    );
                    Ok(nbc)
                } else {
                    Ok(bc)
                }
            }
            Value::Matrix(_) => {
                self.broadcast(var)?;
                match self.binding(var)?.value.clone() {
                    Value::Broadcast { bc, .. } => Ok(bc),
                    _ => unreachable!("broadcast() rebinds to Broadcast"),
                }
            }
            Value::Scalar(s) => {
                let sc = self
                    .sc
                    .as_ref()
                    .ok_or_else(|| EngineError::Unsupported("no Spark backend".into()))?;
                Ok(sc.broadcast(Matrix::scalar(s)))
            }
            Value::Rdd { .. } => {
                // Broadcasting a distributed operand requires collecting it
                // to the driver first (it must be small enough).
                let m = self.get_matrix(var)?;
                let b = self.binding(var)?.clone();
                let sc = self
                    .sc
                    .as_ref()
                    .ok_or_else(|| EngineError::Unsupported("no Spark backend".into()))?;
                let bc = sc.broadcast(m.clone());
                self.bind(
                    var,
                    Value::Broadcast {
                        bc: bc.clone(),
                        local: m,
                    },
                    b.lineage,
                    b.cost,
                );
                Ok(bc)
            }
            _ => Err(EngineError::Unsupported(format!(
                "{var} cannot be broadcast from backend {}",
                v.backend()
            ))),
        }
    }

    fn note_job_for(&self, var: &str) {
        if let Some(item) = self.lineage_of(var) {
            self.cache.note_job(&item);
        }
    }

    /// True when the op should run on the GPU.
    fn gpu_target(&self, opcode: &str, inputs: &[&Value], out_cells: usize) -> bool {
        if self.gpu.is_none() {
            return false;
        }
        let any_gpu = inputs.iter().any(|v| matches!(v, Value::Gpu { .. }));
        let any_rdd = inputs.iter().any(|v| matches!(v, Value::Rdd { .. }));
        if any_rdd {
            return false;
        }
        any_gpu || (cost::is_compute_intensive(opcode) && out_cells >= self.cfg.gpu_min_cells)
    }

    // ------------------------------------------------------------------
    // GPU kernel-chain helper
    // ------------------------------------------------------------------

    /// Ensures a variable is device-resident, uploading (H2D) if local,
    /// and returns its pointer. Rebinds the variable for data locality.
    pub(crate) fn ensure_on_gpu(&mut self, var: &str) -> Result<memphis_gpusim::GpuPtr> {
        let b = self.binding(var)?.clone();
        match b.value {
            Value::Gpu { ptr, .. } => Ok(ptr),
            Value::Matrix(m) => {
                let device = self
                    .gpu
                    .as_ref()
                    .ok_or_else(|| EngineError::Unsupported("no GPU backend".into()))?
                    .clone();
                let (rows, cols) = m.shape();
                let height = b.lineage.as_ref().map(|l| l.height).unwrap_or(1);
                let alloc = if self.cfg.gpu_recycling {
                    self.cache.gpu_request(m.size_bytes(), height, b.cost)?
                } else {
                    self.cache.gpu_request_no_recycle(m.size_bytes(), b.cost)?
                };
                device.copy_to_device(&m, alloc.ptr)?;
                self.bind(
                    var,
                    Value::Gpu {
                        ptr: alloc.ptr,
                        rows,
                        cols,
                    },
                    b.lineage,
                    b.cost,
                );
                Ok(alloc.ptr)
            }
            other => Err(EngineError::Unsupported(format!(
                "cannot move {} to GPU",
                other.backend()
            ))),
        }
    }

    /// Runs `kernel` on the device over the inputs, producing an
    /// `out_rows x out_cols` device matrix.
    fn gpu_exec(
        &mut self,
        inputs: &[&str],
        out_rows: usize,
        out_cols: usize,
        op_cost: f64,
        kernel: impl FnOnce(&[&Matrix]) -> Matrix + Send + 'static,
    ) -> Result<(Value, f64)> {
        let ptrs: Vec<memphis_gpusim::GpuPtr> = inputs
            .iter()
            .map(|v| self.ensure_on_gpu(v))
            .collect::<Result<_>>()?;
        let device = self
            .gpu
            .as_ref()
            .ok_or_else(|| EngineError::Unsupported("no GPU backend".into()))?
            .clone();
        let bytes = cost::dense_bytes(out_rows, out_cols).max(8);
        let alloc = if self.cfg.gpu_recycling {
            self.cache.gpu_request(bytes, 1, op_cost)?
        } else {
            self.cache.gpu_request_no_recycle(bytes, op_cost)?
        };
        let out_ptr = alloc.ptr;
        device.launch(Box::new(move |data| {
            let mats: Option<Vec<&Matrix>> = ptrs.iter().map(|p| data.get(&p.addr)).collect();
            if let Some(mats) = mats {
                let result = kernel(&mats);
                data.insert(out_ptr.addr, result);
            }
        }));
        Ok((
            Value::Gpu {
                ptr: out_ptr,
                rows: out_rows,
                cols: out_cols,
            },
            op_cost,
        ))
    }

    // ------------------------------------------------------------------
    // Linear algebra instructions
    // ------------------------------------------------------------------

    /// Transpose. For a distributed vector-sized input this collects to
    /// the driver (the action of Example 4.1: the second transpose of
    /// `(y^T X)^T` collects `b`).
    pub fn transpose(&mut self, out: &str, x: &str) -> Result<()> {
        self.resolve(x)?;
        let xv = self.binding(x)?.value.clone();
        let (r, c) = xv
            .shape()
            .ok_or_else(|| EngineError::Unsupported("transpose of unresolved future".into()))?;
        let use_gpu = self.gpu_target("r'", &[&xv], r * c);
        let xn = x.to_string();
        self.exec_instr(out, "r'", vec![], &[x], move |ctx| {
            let op_cost = cost::flops("r'", r, 1, c);
            match ctx.binding(&xn)?.value.clone() {
                Value::Rdd { .. } => {
                    // Collect-and-transpose (small results only).
                    let m = ctx.local_input(&xn)?;
                    ctx.note_job_for(&xn);
                    Ok((Value::Matrix(reorg::transpose(&m)), op_cost))
                }
                Value::Gpu { .. } if use_gpu => {
                    ctx.gpu_exec(&[&xn], c, r, op_cost, |ms| reorg::transpose(ms[0]))
                }
                _ => {
                    let m = ctx.local_input(&xn)?;
                    Ok((Value::Matrix(reorg::transpose(&m)), op_cost))
                }
            }
        })
    }

    /// Matrix multiply `out = a %*% b`.
    ///
    /// Physical plans: local/GPU dense kernel; `a` distributed × `b` local
    /// → broadcast-based `mapmm` (distributed result); `a` local
    /// row-vector × `b` distributed → broadcast `y^T X` with a `reduce`
    /// action collecting the result to the driver.
    pub fn matmul(&mut self, out: &str, a: &str, b: &str) -> Result<()> {
        self.resolve(a)?;
        self.resolve(b)?;
        let av = self.binding(a)?.value.clone();
        let bv = self.binding(b)?.value.clone();
        let (am, ak) = av
            .shape()
            .ok_or_else(|| EngineError::Unsupported("unknown shape".into()))?;
        let (bk, bn) = bv
            .shape()
            .ok_or_else(|| EngineError::Unsupported("unknown shape".into()))?;
        if ak != bk {
            return Err(EngineError::Matrix(
                memphis_matrix::MatrixError::DimensionMismatch {
                    op: "matmul",
                    lhs: (am, ak),
                    rhs: (bk, bn),
                },
            ));
        }
        let op_cost = cost::flops("ba+*", am, ak, bn);
        let use_gpu = self.gpu_target("ba+*", &[&av, &bv], am * bn);
        let (an, bn_name) = (a.to_string(), b.to_string());
        self.exec_instr(out, "ba+*", vec![], &[a, b], move |ctx| {
            let av = ctx.binding(&an)?.value.clone();
            match av {
                // Distributed X %*% local W  → mapmm, result stays distributed.
                Value::Rdd { .. } => {
                    let (rdd, rows, _cols, blen) = ctx.rdd_input(&an)?;
                    let bc = ctx.bc_input(&bn_name)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    let mapped = sc.map_with_broadcast(
                        &rdd,
                        "mapmm",
                        &bc,
                        Arc::new(move |k, xb, w| (*k, mm::matmul(xb, w).expect("dims"))),
                    );
                    Ok((
                        Value::Rdd {
                            rdd: mapped,
                            rows,
                            cols: bn,
                            blen,
                        },
                        op_cost,
                    ))
                }
                // Local row-vector y^T %*% distributed X → reduce action.
                Value::Matrix(_) | Value::Scalar(_) | Value::Broadcast { .. }
                    if matches!(ctx.binding(&bn_name)?.value, Value::Rdd { .. }) =>
                {
                    let (rdd, _rows, _cols, blen) = ctx.rdd_input(&bn_name)?;
                    if am != 1 {
                        return Err(EngineError::Unsupported(
                            "local %*% distributed requires a row vector".into(),
                        ));
                    }
                    let bc = ctx.bc_input(&an)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    let partial = sc.map_with_broadcast(
                        &rdd,
                        "ytX",
                        &bc,
                        Arc::new(move |k, xb, yt| {
                            let y_slice =
                                reorg::slice_cols(yt, k.row * blen, k.row * blen + xb.rows())
                                    .expect("in bounds");
                            (
                                BlockId { row: 0, col: 0 },
                                mm::matmul(&y_slice, xb).expect("dims"),
                            )
                        }),
                    );
                    let result = sc
                        .reduce(
                            &partial,
                            Arc::new(|x, y| binary::binary(&x, &y, BinaryOp::Add).expect("dims")),
                        )
                        .ok_or_else(|| EngineError::Unsupported("empty RDD".into()))?;
                    ctx.note_job_for(&bn_name);
                    Ok((Value::Matrix(result), op_cost))
                }
                _ if use_gpu => ctx.gpu_exec(&[&an, &bn_name], am, bn, op_cost, |ms| {
                    mm::matmul(ms[0], ms[1]).expect("dims")
                }),
                _ => {
                    let ma = ctx.local_input(&an)?;
                    let mb = ctx.local_input(&bn_name)?;
                    let threads = ctx.config().cp_threads;
                    Ok((
                        Value::Matrix(mm::matmul_parallel(&ma, &mb, threads)?),
                        op_cost,
                    ))
                }
            }
        })
    }

    /// Transpose-self multiply `t(X) %*% X` — distributed inputs use the
    /// per-block `tsmm` + `reduce()` action pattern of §4.1.
    pub fn tsmm(&mut self, out: &str, x: &str) -> Result<()> {
        self.resolve(x)?;
        let xv = self.binding(x)?.value.clone();
        let (r, c) = xv
            .shape()
            .ok_or_else(|| EngineError::Unsupported("unknown shape".into()))?;
        let op_cost = cost::flops("tsmm", r, 1, c);
        let use_gpu = self.gpu_target("tsmm", &[&xv], c * c);
        let xn = x.to_string();
        self.exec_instr(out, "tsmm", vec![], &[x], move |ctx| {
            match ctx.binding(&xn)?.value.clone() {
                Value::Rdd { .. } => {
                    let (rdd, _r, _c, _blen) = ctx.rdd_input(&xn)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    ctx.note_job_for(&xn);
                    ctx.run_action(
                        move || {
                            let partial = sc.map(
                                &rdd,
                                "tsmm-part",
                                Arc::new(|_k, xb| {
                                    (BlockId { row: 0, col: 0 }, mm::tsmm(xb).expect("non-empty"))
                                }),
                            );
                            sc.reduce(
                                &partial,
                                Arc::new(|x, y| {
                                    binary::binary(&x, &y, BinaryOp::Add).expect("dims")
                                }),
                            )
                            .expect("non-empty RDD")
                        },
                        op_cost,
                    )
                }
                _ if use_gpu => ctx.gpu_exec(&[&xn], c, c, op_cost, |ms| {
                    mm::tsmm(ms[0]).expect("non-empty")
                }),
                _ => {
                    let m = ctx.local_input(&xn)?;
                    Ok((Value::Matrix(mm::tsmm(&m)?), op_cost))
                }
            }
        })
    }

    /// `t(X) %*% y` — distributed X broadcasts `y` and reduces to the
    /// driver (action); local X computes directly.
    pub fn xty(&mut self, out: &str, x: &str, y: &str) -> Result<()> {
        self.resolve(x)?;
        self.resolve(y)?;
        let xv = self.binding(x)?.value.clone();
        let (r, c) = xv
            .shape()
            .ok_or_else(|| EngineError::Unsupported("unknown shape".into()))?;
        let yv = self.binding(y)?.value.clone();
        let (_yr, yc) = yv
            .shape()
            .ok_or_else(|| EngineError::Unsupported("unknown shape".into()))?;
        let op_cost = cost::flops("ba+*", c, r, yc);
        let use_gpu = self.gpu_target("ba+*", &[&xv, &yv], c * yc);
        let (xn, yn) = (x.to_string(), y.to_string());
        self.exec_instr(out, "tmm-y", vec![], &[x, y], move |ctx| {
            match ctx.binding(&xn)?.value.clone() {
                // Both distributed and co-partitioned: per-block t(Xb) Yb
                // products combined with a reduce action (no collect of y).
                Value::Rdd { .. } if matches!(ctx.binding(&yn)?.value, Value::Rdd { .. }) => {
                    let (rx, ..) = ctx.rdd_input(&xn)?;
                    let (ry, ..) = ctx.rdd_input(&yn)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    ctx.note_job_for(&xn);
                    ctx.note_job_for(&yn);
                    ctx.run_action(
                        move || {
                            let partial = sc.zip_join(
                                &rx,
                                &ry,
                                "xty-zip",
                                Arc::new(|_, xb, yb| {
                                    mm::matmul(&reorg::transpose(xb), yb).expect("dims")
                                }),
                            );
                            let rekey = sc.map(
                                &partial,
                                "xty-rekey",
                                Arc::new(|_, m| (BlockId { row: 0, col: 0 }, m.deep_clone())),
                            );
                            sc.reduce(
                                &rekey,
                                Arc::new(|x, y| {
                                    binary::binary(&x, &y, BinaryOp::Add).expect("dims")
                                }),
                            )
                            .expect("non-empty RDD")
                        },
                        op_cost,
                    )
                }
                Value::Rdd { .. } => {
                    let (rdd, _r, _c, blen) = ctx.rdd_input(&xn)?;
                    let bc = ctx.bc_input(&yn)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    ctx.note_job_for(&xn);
                    ctx.run_action(
                        move || {
                            let partial = sc.map_with_broadcast(
                                &rdd,
                                "xty-part",
                                &bc,
                                Arc::new(move |k, xb, y| {
                                    let y_slice = reorg::slice_rows(
                                        y,
                                        k.row * blen,
                                        k.row * blen + xb.rows(),
                                    )
                                    .expect("in bounds");
                                    (
                                        BlockId { row: 0, col: 0 },
                                        mm::matmul(&reorg::transpose(xb), &y_slice).expect("dims"),
                                    )
                                }),
                            );
                            sc.reduce(
                                &partial,
                                Arc::new(|x, y| {
                                    binary::binary(&x, &y, BinaryOp::Add).expect("dims")
                                }),
                            )
                            .expect("non-empty RDD")
                        },
                        op_cost,
                    )
                }
                _ if use_gpu => ctx.gpu_exec(&[&xn, &yn], c, yc, op_cost, |ms| {
                    mm::matmul(&reorg::transpose(ms[0]), ms[1]).expect("dims")
                }),
                _ => {
                    let mx = ctx.local_input(&xn)?;
                    let my = ctx.local_input(&yn)?;
                    Ok((
                        Value::Matrix(mm::matmul(&reorg::transpose(&mx), &my)?),
                        op_cost,
                    ))
                }
            }
        })
    }

    /// Elementwise binary op with DML broadcasting (matrix/vector/scalar
    /// operands). Distributed inputs stay distributed.
    pub fn binary(&mut self, out: &str, a: &str, b: &str, op: BinaryOp) -> Result<()> {
        self.resolve(a)?;
        self.resolve(b)?;
        let av = self.binding(a)?.value.clone();
        let bv = self.binding(b)?.value.clone();
        let (ar, ac) = av
            .shape()
            .ok_or_else(|| EngineError::Unsupported("unknown shape".into()))?;
        let (br, bc_) = bv
            .shape()
            .ok_or_else(|| EngineError::Unsupported("unknown shape".into()))?;
        let (or_, oc) = (ar.max(br), ac.max(bc_));
        let op_cost = cost::flops(op.opcode(), or_, 1, oc);
        let use_gpu = self.gpu_target(op.opcode(), &[&av, &bv], or_ * oc);
        let (an, bn) = (a.to_string(), b.to_string());
        self.exec_instr(out, op.opcode(), vec![], &[a, b], move |ctx| {
            let av = ctx.binding(&an)?.value.clone();
            let bv = ctx.binding(&bn)?.value.clone();
            match (&av, &bv) {
                (Value::Rdd { .. }, Value::Rdd { .. }) => {
                    let (ra, rows, cols, blen) = ctx.rdd_input(&an)?;
                    let (rb, ..) = ctx.rdd_input(&bn)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    let zipped = sc.zip_join(
                        &ra,
                        &rb,
                        op.opcode(),
                        Arc::new(move |_, x, y| binary::binary(x, y, op).expect("dims")),
                    );
                    Ok((
                        Value::Rdd {
                            rdd: zipped,
                            rows,
                            cols,
                            blen,
                        },
                        op_cost,
                    ))
                }
                (Value::Rdd { .. }, _) => {
                    let (ra, rows, cols, blen) = ctx.rdd_input(&an)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    let mapped = match &bv {
                        Value::Scalar(s) => {
                            let s = *s;
                            sc.map(
                                &ra,
                                op.opcode(),
                                Arc::new(move |k, x| (*k, binary::binary_scalar(x, s, op, false))),
                            )
                        }
                        _ => {
                            // Local matrix/vector operand: broadcast; slice
                            // rows per block for column vectors and for
                            // full same-shape matrices.
                            let bcv = ctx.bc_input(&bn)?;
                            let row_sliced = br == rows && rows > 1 && (bc_ == 1 || bc_ == cols);
                            sc.map_with_broadcast(
                                &ra,
                                op.opcode(),
                                &bcv,
                                Arc::new(move |k, x, w| {
                                    let rhs = if row_sliced {
                                        reorg::slice_rows(w, k.row * blen, k.row * blen + x.rows())
                                            .expect("in bounds")
                                    } else {
                                        w.clone()
                                    };
                                    (*k, binary::binary(x, &rhs, op).expect("dims"))
                                }),
                            )
                        }
                    };
                    Ok((
                        Value::Rdd {
                            rdd: mapped,
                            rows,
                            cols,
                            blen,
                        },
                        op_cost,
                    ))
                }
                (_, Value::Rdd { .. }) => {
                    let (rb, rows, cols, blen) = ctx.rdd_input(&bn)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    let mapped = match &av {
                        Value::Scalar(s) => {
                            let s = *s;
                            sc.map(
                                &rb,
                                op.opcode(),
                                Arc::new(move |k, x| (*k, binary::binary_scalar(x, s, op, true))),
                            )
                        }
                        _ => {
                            // Local matrix/vector on the left: broadcast
                            // it, slicing rows per block when shapes align.
                            let bca = ctx.bc_input(&an)?;
                            let row_sliced = ar == rows && rows > 1 && (ac == 1 || ac == cols);
                            sc.map_with_broadcast(
                                &rb,
                                op.opcode(),
                                &bca,
                                Arc::new(move |k, x, w| {
                                    let lhs = if row_sliced {
                                        reorg::slice_rows(w, k.row * blen, k.row * blen + x.rows())
                                            .expect("in bounds")
                                    } else {
                                        w.clone()
                                    };
                                    (*k, binary::binary(&lhs, x, op).expect("dims"))
                                }),
                            )
                        }
                    };
                    Ok((
                        Value::Rdd {
                            rdd: mapped,
                            rows,
                            cols,
                            blen,
                        },
                        op_cost,
                    ))
                }
                _ if use_gpu => {
                    // Scalars become 1x1 device matrices via upload.
                    ctx.gpu_exec(&[&an, &bn], or_, oc, op_cost, move |ms| {
                        binary::binary(ms[0], ms[1], op).expect("dims")
                    })
                }
                _ => {
                    let ma = ctx.local_input(&an)?;
                    let mb = ctx.local_input(&bn)?;
                    Ok((Value::Matrix(binary::binary(&ma, &mb, op)?), op_cost))
                }
            }
        })
    }

    /// Elementwise op against a literal constant (`X * 2`); the constant
    /// is a lineage data item.
    pub fn binary_const(
        &mut self,
        out: &str,
        a: &str,
        c: f64,
        op: BinaryOp,
        scalar_on_left: bool,
    ) -> Result<()> {
        self.resolve(a)?;
        let av = self.binding(a)?.value.clone();
        let (ar, ac) = av
            .shape()
            .ok_or_else(|| EngineError::Unsupported("unknown shape".into()))?;
        let op_cost = cost::flops(op.opcode(), ar, 1, ac);
        let use_gpu = self.gpu_target(op.opcode(), &[&av], ar * ac);
        let an = a.to_string();
        let data = vec![c.to_string(), scalar_on_left.to_string()];
        self.exec_instr(out, op.opcode(), data, &[a], move |ctx| {
            match ctx.binding(&an)?.value.clone() {
                Value::Rdd { .. } => {
                    let (ra, rows, cols, blen) = ctx.rdd_input(&an)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    let mapped = sc.map(
                        &ra,
                        op.opcode(),
                        Arc::new(move |k, x| (*k, binary::binary_scalar(x, c, op, scalar_on_left))),
                    );
                    Ok((
                        Value::Rdd {
                            rdd: mapped,
                            rows,
                            cols,
                            blen,
                        },
                        op_cost,
                    ))
                }
                _ if use_gpu => ctx.gpu_exec(&[&an], ar, ac, op_cost, move |ms| {
                    binary::binary_scalar(ms[0], c, op, scalar_on_left)
                }),
                _ => {
                    let m = ctx.local_input(&an)?;
                    Ok((
                        Value::Matrix(binary::binary_scalar(&m, c, op, scalar_on_left)),
                        op_cost,
                    ))
                }
            }
        })
    }

    /// Elementwise unary op.
    pub fn unary(&mut self, out: &str, x: &str, op: UnaryOp) -> Result<()> {
        self.resolve(x)?;
        let xv = self.binding(x)?.value.clone();
        let (r, c) = xv
            .shape()
            .ok_or_else(|| EngineError::Unsupported("unknown shape".into()))?;
        let op_cost = cost::flops(op.opcode(), r, 1, c);
        let use_gpu = self.gpu_target(op.opcode(), &[&xv], r * c);
        let xn = x.to_string();
        self.exec_instr(out, op.opcode(), vec![], &[x], move |ctx| {
            match ctx.binding(&xn)?.value.clone() {
                Value::Rdd { .. } => {
                    let (rx, rows, cols, blen) = ctx.rdd_input(&xn)?;
                    let sc = ctx.spark().expect("rdd implies spark").clone();
                    let mapped = sc.map(
                        &rx,
                        op.opcode(),
                        Arc::new(move |k, x| (*k, unary::unary(x, op))),
                    );
                    Ok((
                        Value::Rdd {
                            rdd: mapped,
                            rows,
                            cols,
                            blen,
                        },
                        op_cost,
                    ))
                }
                _ if use_gpu => {
                    ctx.gpu_exec(&[&xn], r, c, op_cost, move |ms| unary::unary(ms[0], op))
                }
                _ => {
                    let m = ctx.local_input(&xn)?;
                    Ok((Value::Matrix(unary::unary(&m, op)), op_cost))
                }
            }
        })
    }

    /// Aggregation: full (scalar output via `reduce` action on Spark),
    /// row-wise (stays distributed), or column-wise (action to driver).
    pub fn agg(&mut self, out: &str, x: &str, op: AggOp, dir: AggDir) -> Result<()> {
        self.resolve(x)?;
        let xv = self.binding(x)?.value.clone();
        let (r, c) = xv
            .shape()
            .ok_or_else(|| EngineError::Unsupported("unknown shape".into()))?;
        let op_cost = cost::flops(op.opcode(), r, 1, c);
        let xn = x.to_string();
        let opcode = format!(
            "ua{}{}",
            match dir {
                AggDir::Full => "",
                AggDir::Row => "r",
                AggDir::Col => "c",
            },
            op.opcode()
        );
        self.exec_instr(out, &opcode, vec![], &[x], move |ctx| {
            match ctx.binding(&xn)?.value.clone() {
                Value::Rdd { .. } => ctx.spark_agg(&xn, op, dir, r, c, op_cost),
                Value::Gpu { .. } => {
                    // Compute on host after a D2H copy (aggregations are
                    // cheap; SystemDS also returns scalars to the host).
                    let m = ctx.local_input(&xn)?;
                    agg_local(&m, op, dir, op_cost)
                }
                _ => {
                    let m = ctx.local_input(&xn)?;
                    agg_local(&m, op, dir, op_cost)
                }
            }
        })
    }

    fn spark_agg(
        &mut self,
        xn: &str,
        op: AggOp,
        dir: AggDir,
        rows: usize,
        cols: usize,
        op_cost: f64,
    ) -> Result<(Value, f64)> {
        let (rx, _rows, _cols, blen) = self.rdd_input(xn)?;
        let sc = self.spark().expect("rdd implies spark").clone();
        match dir {
            AggDir::Full => {
                let combine: memphis_sparksim::rdd::CombineFn = match op {
                    AggOp::Min => {
                        Arc::new(|a: Matrix, b: Matrix| Matrix::scalar(a.at(0, 0).min(b.at(0, 0))))
                    }
                    AggOp::Max => {
                        Arc::new(|a: Matrix, b: Matrix| Matrix::scalar(a.at(0, 0).max(b.at(0, 0))))
                    }
                    _ => Arc::new(|a: Matrix, b: Matrix| Matrix::scalar(a.at(0, 0) + b.at(0, 0))),
                };
                let part_op = match op {
                    AggOp::Mean => AggOp::Sum,
                    other => other,
                };
                let partial = sc.map(
                    &rx,
                    "agg-part",
                    Arc::new(move |k, x| {
                        (
                            BlockId { row: 0, col: k.col },
                            Matrix::scalar(agg::aggregate(x, part_op).unwrap_or(0.0)),
                        )
                    }),
                );
                let result = sc
                    .reduce(&partial, combine)
                    .ok_or_else(|| EngineError::Unsupported("empty RDD".into()))?;
                self.note_job_for(xn);
                let mut v = result.at(0, 0);
                if op == AggOp::Mean {
                    v /= (rows * cols) as f64;
                }
                Ok((Value::Scalar(v), op_cost))
            }
            AggDir::Col => {
                let part_op = match op {
                    AggOp::Mean => AggOp::Sum,
                    other => other,
                };
                let combine: memphis_sparksim::rdd::CombineFn = match op {
                    AggOp::Min => {
                        Arc::new(|a, b| binary::binary(&a, &b, BinaryOp::Min).expect("dims"))
                    }
                    AggOp::Max => {
                        Arc::new(|a, b| binary::binary(&a, &b, BinaryOp::Max).expect("dims"))
                    }
                    _ => Arc::new(|a, b| binary::binary(&a, &b, BinaryOp::Add).expect("dims")),
                };
                let partial = sc.map(
                    &rx,
                    "colagg-part",
                    Arc::new(move |_k, x| {
                        (
                            BlockId { row: 0, col: 0 },
                            agg::col_agg(x, part_op).expect("non-empty"),
                        )
                    }),
                );
                let result = sc
                    .reduce(&partial, combine)
                    .ok_or_else(|| EngineError::Unsupported("empty RDD".into()))?;
                self.note_job_for(xn);
                let result = if op == AggOp::Mean {
                    binary::binary_scalar(&result, rows as f64, BinaryOp::Div, false)
                } else {
                    result
                };
                Ok((Value::Matrix(result), op_cost))
            }
            AggDir::Row => {
                let mapped = sc.map(
                    &rx,
                    "rowagg",
                    Arc::new(move |k, x| (*k, agg::row_agg(x, op).expect("non-empty"))),
                );
                Ok((
                    Value::Rdd {
                        rdd: mapped,
                        rows,
                        cols: 1,
                        blen,
                    },
                    op_cost,
                ))
            }
        }
    }

    /// Solve `A x = b` (driver-local; inputs are collected if remote).
    pub fn solve(&mut self, out: &str, a: &str, b: &str) -> Result<()> {
        let (an, bn) = (a.to_string(), b.to_string());
        self.resolve(a)?;
        self.resolve(b)?;
        let n = self.binding(a)?.value.shape().map(|(r, _)| r).unwrap_or(1);
        let op_cost = cost::flops("solve", n, n, n);
        self.exec_instr(out, "solve", vec![], &[a, b], move |ctx| {
            let ma = ctx.local_input(&an)?;
            let mb = ctx.local_input(&bn)?;
            Ok((Value::Matrix(msolve::solve(&ma, &mb)?), op_cost))
        })
    }

    /// Row-range slice (local or GPU input; mini-batch extraction).
    pub fn slice_rows(&mut self, out: &str, x: &str, start: usize, end: usize) -> Result<()> {
        let xn = x.to_string();
        self.resolve(x)?;
        let data = vec![start.to_string(), end.to_string()];
        self.exec_instr(out, "rightIndex", data, &[x], move |ctx| {
            let m = ctx.local_input(&xn)?;
            let s = reorg::slice_rows(&m, start, end)?;
            let c = s.len() as f64;
            Ok((Value::Matrix(s), c))
        })
    }

    /// Column-range slice.
    pub fn slice_cols(&mut self, out: &str, x: &str, start: usize, end: usize) -> Result<()> {
        let xn = x.to_string();
        self.resolve(x)?;
        let data = vec![start.to_string(), end.to_string()];
        self.exec_instr(out, "rightIndexCol", data, &[x], move |ctx| {
            let m = ctx.local_input(&xn)?;
            let s = reorg::slice_cols(&m, start, end)?;
            let c = s.len() as f64;
            Ok((Value::Matrix(s), c))
        })
    }

    /// Vertical append.
    pub fn rbind(&mut self, out: &str, a: &str, b: &str) -> Result<()> {
        let (an, bn) = (a.to_string(), b.to_string());
        self.resolve(a)?;
        self.resolve(b)?;
        self.exec_instr(out, "rbind", vec![], &[a, b], move |ctx| {
            let ma = ctx.local_input(&an)?;
            let mb = ctx.local_input(&bn)?;
            let m = reorg::rbind(&ma, &mb)?;
            let c = m.len() as f64;
            Ok((Value::Matrix(m), c))
        })
    }

    /// Horizontal append.
    pub fn cbind(&mut self, out: &str, a: &str, b: &str) -> Result<()> {
        let (an, bn) = (a.to_string(), b.to_string());
        self.resolve(a)?;
        self.resolve(b)?;
        self.exec_instr(out, "cbind", vec![], &[a, b], move |ctx| {
            let ma = ctx.local_input(&an)?;
            let mb = ctx.local_input(&bn)?;
            let m = reorg::cbind(&ma, &mb)?;
            let c = m.len() as f64;
            Ok((Value::Matrix(m), c))
        })
    }

    /// Row selection by 0/1 mask (`removeEmpty`-style).
    pub fn select_rows(&mut self, out: &str, x: &str, mask: &str) -> Result<()> {
        let (xn, mn) = (x.to_string(), mask.to_string());
        self.resolve(x)?;
        self.resolve(mask)?;
        self.exec_instr(out, "removeEmpty", vec![], &[x, mask], move |ctx| {
            let m = ctx.local_input(&xn)?;
            let msk = ctx.local_input(&mn)?;
            let s = reorg::select_rows(&m, &msk)?;
            let c = m.len() as f64;
            Ok((Value::Matrix(s), c))
        })
    }

    // ------------------------------------------------------------------
    // Neural-network instructions
    // ------------------------------------------------------------------

    /// 2-D convolution (GPU-preferred).
    pub fn conv2d(&mut self, out: &str, x: &str, w: &str, p: Conv2dParams) -> Result<()> {
        self.resolve(x)?;
        self.resolve(w)?;
        let xv = self.binding(x)?.value.clone();
        let n = xv.shape().map(|(r, _)| r).unwrap_or(1);
        let patch = p.in_channels * p.kernel * p.kernel;
        let op_cost = cost::flops(
            "conv2d",
            n * p.out_height() * p.out_width(),
            patch,
            p.out_channels,
        );
        let use_gpu = self.gpu_target("conv2d", &[&xv], n * p.out_cols());
        let (xn, wn) = (x.to_string(), w.to_string());
        let data = vec![format!("{p:?}")];
        self.exec_instr(out, "conv2d", data, &[x, w], move |ctx| {
            if use_gpu {
                ctx.gpu_exec(&[&xn, &wn], n, p.out_cols(), op_cost, move |ms| {
                    nn::conv2d(ms[0], ms[1], &p).expect("dims")
                })
            } else {
                let mx = ctx.local_input(&xn)?;
                let mw = ctx.local_input(&wn)?;
                Ok((Value::Matrix(nn::conv2d(&mx, &mw, &p)?), op_cost))
            }
        })
    }

    /// 2-D max pooling.
    pub fn max_pool2d(&mut self, out: &str, x: &str, p: Pool2dParams) -> Result<()> {
        self.resolve(x)?;
        let xv = self.binding(x)?.value.clone();
        let n = xv.shape().map(|(r, _)| r).unwrap_or(1);
        let op_cost = cost::flops("maxpool", n, 1, p.out_cols() * p.window * p.window);
        let use_gpu = self.gpu_target("maxpool", &[&xv], n * p.out_cols());
        let xn = x.to_string();
        let data = vec![format!("{p:?}")];
        self.exec_instr(out, "maxpool", data, &[x], move |ctx| {
            if use_gpu {
                ctx.gpu_exec(&[&xn], n, p.out_cols(), op_cost, move |ms| {
                    nn::max_pool2d(ms[0], &p).expect("dims")
                })
            } else {
                let m = ctx.local_input(&xn)?;
                Ok((Value::Matrix(nn::max_pool2d(&m, &p)?), op_cost))
            }
        })
    }

    /// Affine layer `X %*% W + b` (GPU-preferred).
    pub fn affine(&mut self, out: &str, x: &str, w: &str, b: &str) -> Result<()> {
        self.resolve(x)?;
        self.resolve(w)?;
        self.resolve(b)?;
        let xv = self.binding(x)?.value.clone();
        let wv = self.binding(w)?.value.clone();
        let (n, k) = xv
            .shape()
            .ok_or_else(|| EngineError::Unsupported("unknown shape".into()))?;
        let d = wv.shape().map(|(_, d)| d).unwrap_or(1);
        let op_cost = cost::flops("ba+*", n, k, d);
        let use_gpu = self.gpu_target("affine", &[&xv, &wv], n * d);
        let (xn, wn, bn) = (x.to_string(), w.to_string(), b.to_string());
        self.exec_instr(out, "affine", vec![], &[x, w, b], move |ctx| {
            if use_gpu {
                ctx.gpu_exec(&[&xn, &wn, &bn], n, d, op_cost, |ms| {
                    nn::affine(ms[0], ms[1], ms[2]).expect("dims")
                })
            } else {
                let mx = ctx.local_input(&xn)?;
                let mw = ctx.local_input(&wn)?;
                let mb = ctx.local_input(&bn)?;
                Ok((Value::Matrix(nn::affine(&mx, &mw, &mb)?), op_cost))
            }
        })
    }

    /// Row-wise softmax.
    pub fn softmax(&mut self, out: &str, x: &str) -> Result<()> {
        self.resolve(x)?;
        let xv = self.binding(x)?.value.clone();
        let (r, c) = xv
            .shape()
            .ok_or_else(|| EngineError::Unsupported("unknown shape".into()))?;
        let op_cost = cost::flops("softmax", r, 1, c);
        let use_gpu = self.gpu_target("softmax", &[&xv], r * c);
        let xn = x.to_string();
        self.exec_instr(out, "softmax", vec![], &[x], move |ctx| {
            if use_gpu {
                ctx.gpu_exec(&[&xn], r, c, op_cost, |ms| nn::softmax_rows(ms[0]))
            } else {
                let m = ctx.local_input(&xn)?;
                Ok((Value::Matrix(nn::softmax_rows(&m)), op_cost))
            }
        })
    }

    /// Inverted dropout with a deterministic seed (lineage-sound).
    pub fn dropout(&mut self, out: &str, x: &str, rate: f64, seed: u64) -> Result<()> {
        self.resolve(x)?;
        let xv = self.binding(x)?.value.clone();
        let (r, c) = xv
            .shape()
            .ok_or_else(|| EngineError::Unsupported("unknown shape".into()))?;
        let op_cost = cost::flops("dropout", r, 1, c);
        let use_gpu = self.gpu_target("dropout", &[&xv], r * c);
        let xn = x.to_string();
        let data = vec![rate.to_string(), seed.to_string()];
        self.exec_instr(out, "dropout", data, &[x], move |ctx| {
            if use_gpu {
                ctx.gpu_exec(&[&xn], r, c, op_cost, move |ms| {
                    nn::dropout(ms[0], rate, seed)
                })
            } else {
                let m = ctx.local_input(&xn)?;
                Ok((Value::Matrix(nn::dropout(&m, rate, seed)), op_cost))
            }
        })
    }
}

impl ExecutionContext {
    /// Executes a custom deterministic host-side transformation as a traced
    /// instruction — the escape hatch workload builtins use for primitives
    /// the core operator set lacks (mode imputation, binning, recoding,
    /// one-hot encoding). `opcode` and `data` must uniquely identify the
    /// transformation for lineage soundness.
    pub fn map_custom<F>(
        &mut self,
        out: &str,
        x: &str,
        opcode: &str,
        data: Vec<String>,
        f: F,
    ) -> Result<()>
    where
        F: FnOnce(&Matrix) -> std::result::Result<Matrix, String>,
    {
        let xn = x.to_string();
        self.resolve(x)?;
        self.exec_instr(out, opcode, data, &[x], move |ctx| {
            let m = ctx.local_input(&xn)?;
            let cost = m.len() as f64;
            let r = f(&m).map_err(EngineError::Unsupported)?;
            Ok((Value::Matrix(r), cost))
        })
    }

    /// Like [`ExecutionContext::map_custom`] for binary host transforms.
    pub fn zip_custom<F>(
        &mut self,
        out: &str,
        a: &str,
        b: &str,
        opcode: &str,
        data: Vec<String>,
        f: F,
    ) -> Result<()>
    where
        F: FnOnce(&Matrix, &Matrix) -> std::result::Result<Matrix, String>,
    {
        let (an, bn) = (a.to_string(), b.to_string());
        self.resolve(a)?;
        self.resolve(b)?;
        self.exec_instr(out, opcode, data, &[a, b], move |ctx| {
            let ma = ctx.local_input(&an)?;
            let mb = ctx.local_input(&bn)?;
            let cost = ma.len() as f64;
            let r = f(&ma, &mb).map_err(EngineError::Unsupported)?;
            Ok((Value::Matrix(r), cost))
        })
    }
}

fn agg_local(m: &Matrix, op: AggOp, dir: AggDir, op_cost: f64) -> Result<(Value, f64)> {
    match dir {
        AggDir::Full => Ok((Value::Scalar(agg::aggregate(m, op)?), op_cost)),
        AggDir::Row => Ok((Value::Matrix(agg::row_agg(m, op)?), op_cost)),
        AggDir::Col => Ok((Value::Matrix(agg::col_agg(m, op)?), op_cost)),
    }
}
