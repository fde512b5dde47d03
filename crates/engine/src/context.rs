//! The interpreter's execution context: live variables, the Figure-4
//! reuse hook around every instruction, operator placement, asynchronous
//! operators (§5.1), and multi-level (function) reuse (§3.3).

use crate::config::{EngineConfig, ReuseMode};
use crate::cost;
use crate::value::{Future, Value};
use memphis_core::cache::entry::CachedObject;
use memphis_core::cache::{Admit, ComputeGuard, LineageCache, Probed};
use memphis_core::lineage::{LItem, LineageItem, LineageMap};
use memphis_gpusim::{GpuDevice, GpuError};
use memphis_matrix::{Matrix, MatrixError};
use memphis_sparksim::SparkContext;
use std::collections::HashMap;
use std::sync::Arc;

/// Errors surfaced by instruction execution.
#[derive(Debug)]
pub enum EngineError {
    /// Referenced variable is not bound.
    UnknownVar(String),
    /// A matrix kernel failed.
    Matrix(MatrixError),
    /// The GPU device failed (OOM after all eviction fallbacks).
    Gpu(GpuError),
    /// The operation is not valid for the operand's backend or shape.
    Unsupported(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownVar(v) => write!(f, "unknown variable {v}"),
            EngineError::Matrix(e) => write!(f, "matrix error: {e}"),
            EngineError::Gpu(e) => write!(f, "gpu error: {e}"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<MatrixError> for EngineError {
    fn from(e: MatrixError) -> Self {
        EngineError::Matrix(e)
    }
}

impl From<GpuError> for EngineError {
    fn from(e: GpuError) -> Self {
        EngineError::Gpu(e)
    }
}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, EngineError>;

/// A live variable binding.
#[derive(Debug, Clone)]
pub(crate) struct Binding {
    pub value: Value,
    pub lineage: Option<LItem>,
    pub cost: f64,
}

/// Simple per-context execution counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Instructions submitted to the execution path.
    pub instructions: u64,
    /// Instructions skipped entirely by reuse.
    pub reused: u64,
    /// Instructions executed on the local CPU.
    pub executed_cp: u64,
    /// Instructions executed as Spark plans.
    pub executed_sp: u64,
    /// Instructions executed as GPU kernel chains.
    pub executed_gpu: u64,
    /// Function calls skipped by multi-level reuse.
    pub functions_reused: u64,
}

impl memphis_obs::IntoMetrics for EngineStats {
    fn metrics_section(&self) -> &'static str {
        "engine"
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("instructions", self.instructions),
            ("reused", self.reused),
            ("executed_cp", self.executed_cp),
            ("executed_sp", self.executed_sp),
            ("executed_gpu", self.executed_gpu),
            ("functions_reused", self.functions_reused),
        ]
    }
}

/// The execution context: one per logical script run, sharing the lineage
/// cache (and therefore reuse state) with other contexts via `Arc`.
pub struct ExecutionContext {
    pub(crate) cfg: EngineConfig,
    pub(crate) cache: Arc<LineageCache>,
    pub(crate) lineage: LineageMap,
    pub(crate) vars: HashMap<String, Binding>,
    pub(crate) sc: Option<SparkContext>,
    pub(crate) gpu: Option<Arc<GpuDevice>>,
    pub(crate) delay: u32,
    /// Lineage item of the instruction currently executing (lets
    /// asynchronous action threads PUT their result when it arrives).
    pub(crate) current_item: Option<LItem>,
    /// Counters (instructions, reuse, per-backend execution).
    pub stats: EngineStats,
}

impl ExecutionContext {
    /// Creates a context over an existing cache and optional backends.
    pub fn new(
        cfg: EngineConfig,
        cache: Arc<LineageCache>,
        sc: Option<SparkContext>,
        gpu: Option<Arc<GpuDevice>>,
    ) -> Self {
        let delay = cfg.delay_factor;
        Self {
            cfg,
            cache,
            lineage: LineageMap::new(),
            vars: HashMap::new(),
            sc,
            gpu,
            delay,
            current_item: None,
            stats: EngineStats::default(),
        }
    }

    /// CPU-only context with a fresh cache (convenience for tests).
    pub fn local(cfg: EngineConfig) -> Self {
        let cache = Arc::new(LineageCache::new(
            memphis_core::cache::config::CacheConfig::test(),
        ));
        Self::new(cfg, cache, None, None)
    }

    /// The shared lineage cache.
    pub fn cache(&self) -> &Arc<LineageCache> {
        &self.cache
    }

    /// The Spark driver handle, if attached.
    pub fn spark(&self) -> Option<&SparkContext> {
        self.sc.as_ref()
    }

    /// The GPU device, if attached.
    pub fn gpu_device(&self) -> Option<&Arc<GpuDevice>> {
        self.gpu.as_ref()
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Sets the delayed-caching factor for subsequent instructions (the
    /// per-block value assigned by the auto-tuner, §5.2).
    pub fn set_delay(&mut self, n: u32) {
        self.delay = n.max(1);
    }

    /// Current delayed-caching factor.
    pub fn delay(&self) -> u32 {
        self.delay
    }

    // ------------------------------------------------------------------
    // Variable management
    // ------------------------------------------------------------------

    pub(crate) fn binding(&self, var: &str) -> Result<&Binding> {
        self.vars
            .get(var)
            .ok_or_else(|| EngineError::UnknownVar(var.to_string()))
    }

    /// The current value of a variable.
    pub fn value(&self, var: &str) -> Result<&Value> {
        Ok(&self.binding(var)?.value)
    }

    /// The lineage trace of a variable (None when tracing is disabled).
    pub fn lineage_of(&self, var: &str) -> Option<LItem> {
        self.vars.get(var).and_then(|b| b.lineage.clone())
    }

    /// Binds `var`, releasing any GPU pointer held by its prior value.
    pub(crate) fn bind(&mut self, var: &str, value: Value, lineage: Option<LItem>, cost: f64) {
        if let Some(item) = &lineage {
            self.lineage.bind(var, item.clone());
        }
        let old = self.vars.insert(
            var.to_string(),
            Binding {
                value,
                lineage,
                cost,
            },
        );
        self.release_binding(old);
    }

    fn release_binding(&self, old: Option<Binding>) {
        if let Some(b) = old {
            if let Value::Gpu { ptr, .. } = b.value {
                if self.cfg.gpu_recycling {
                    let height = b.lineage.as_ref().map(|l| l.height).unwrap_or(1);
                    self.cache.gpu_release(ptr, height, b.cost);
                } else {
                    self.cache.gpu_release_and_free(ptr);
                }
            }
        }
    }

    /// Removes a variable (end of scope), releasing backend resources.
    pub fn remove(&mut self, var: &str) {
        let old = self.vars.remove(var);
        self.lineage.remove(var);
        self.release_binding(old);
    }

    /// True when a variable is bound.
    pub fn has(&self, var: &str) -> bool {
        self.vars.contains_key(var)
    }

    /// Aliases `out = in` (no computation; shares the value and lineage).
    pub fn assign(&mut self, out: &str, input: &str) -> Result<()> {
        let b = self.binding(input)?.clone();
        // An alias adds a reference to a GPU pointer.
        if let Value::Gpu { ptr, .. } = &b.value {
            if let Some(g) = self.cache.gpu_manager() {
                g.acquire(*ptr);
            }
        }
        self.bind(out, b.value, b.lineage, b.cost);
        Ok(())
    }

    // ------------------------------------------------------------------
    // The Figure-4 reuse hook
    // ------------------------------------------------------------------

    /// Executes one instruction through `TRACE → REUSE → execute → PUT`.
    ///
    /// `compute` runs only on a cache miss and returns the output value
    /// plus its analytical compute cost.
    pub(crate) fn exec_instr<F>(
        &mut self,
        out: &str,
        opcode: &str,
        data: Vec<String>,
        inputs: &[&str],
        compute: F,
    ) -> Result<()>
    where
        F: FnOnce(&mut Self) -> Result<(Value, f64)>,
    {
        self.stats.instructions += 1;
        let mode = self.cfg.reuse;
        let op: String = opcode.to_string();
        let _instr_span = memphis_obs::span_with(memphis_obs::cat::INTERP, "instr", move || op);

        // TRACE
        let item = if mode.traces() {
            let _trace_span = memphis_obs::span(memphis_obs::cat::INTERP, "trace");
            Some(self.lineage.trace(out, opcode, data, inputs))
        } else {
            None
        };

        // REUSE. A miss claims the in-flight computation: a concurrent
        // session probing the same lineage item blocks on the marker and
        // consumes this session's result (coalesced hit) instead of
        // recomputing. The guard is completed by PUT below; any early
        // return or error drops it, abandoning the flight so waiters
        // retry.
        let mut guard: Option<ComputeGuard> = None;
        if mode.probes_ops() && mode != ReuseMode::ProbeOnly {
            if let Some(item) = &item {
                let probe_span = memphis_obs::span(memphis_obs::cat::INTERP, "probe");
                let probed = self.cache.probe_or_begin(item);
                drop(probe_span);
                match probed {
                    Probed::Hit(object) | Probed::Coalesced(object) => {
                        if let Some(value) = self.value_from_cached(&object) {
                            memphis_obs::instant(memphis_obs::cat::REUSE, "hit");
                            let cost = 1.0; // reused: cost refreshed below by entry metadata
                            self.stats.reused += 1;
                            self.bind(out, value, Some(item.clone()), cost);
                            return Ok(());
                        }
                        // Unconsumable representation: execute without
                        // owning a flight.
                        memphis_obs::instant(memphis_obs::cat::REUSE, "miss");
                    }
                    Probed::Compute(g) => {
                        guard = Some(g);
                        memphis_obs::instant(memphis_obs::cat::REUSE, "miss");
                    }
                }
            }
        } else if mode == ReuseMode::ProbeOnly {
            // Probe for overhead measurement, discard the result.
            if let Some(item) = &item {
                let _ = self.cache.probe(item);
            }
        }

        // Spark placement (before execution): any distributed input makes
        // this a Spark instruction — LIMA hooks only CP instructions.
        let sp_placed = inputs
            .iter()
            .any(|v| matches!(self.vars.get(*v).map(|b| &b.value), Some(Value::Rdd { .. })));

        // execute
        self.current_item = item.clone();
        let exec_span = memphis_obs::span(memphis_obs::cat::INTERP, "execute");
        let result = compute(self);
        drop(exec_span);
        self.current_item = None;
        let (value, cost_v) = result?;
        if sp_placed {
            self.stats.executed_sp += 1;
        } else {
            match value.backend() {
                "cp" | "bc" => self.stats.executed_cp += 1,
                "sp" => self.stats.executed_sp += 1,
                "gpu" => self.stats.executed_gpu += 1,
                _ => {}
            }
        }

        // PUT (async action results are PUT by their worker thread once
        // available — "reusing prefetched results").
        let lima_skip = mode == ReuseMode::Lima && sp_placed;
        if mode.puts_ops() && !lima_skip && !matches!(value, Value::Future(_)) {
            if let Some(item) = &item {
                if let Some(obj) = self.cacheable_object(&value) {
                    let _put_span = memphis_obs::span(memphis_obs::cat::INTERP, "put");
                    let size_hint = value
                        .shape()
                        .map(|(r, c)| cost::dense_bytes(r, c))
                        .unwrap_or(16);
                    let admit = Admit {
                        delay: self.delay,
                        ..Admit::new(cost_v, size_hint)
                    };
                    match guard.take() {
                        // Owner path: hand the result to every waiter.
                        Some(g) => {
                            self.cache.complete(g, obj, admit);
                        }
                        None => {
                            self.cache.put(item, obj, admit);
                        }
                    }
                }
            }
        }
        // A leftover guard (future result, LIMA skip, uncacheable value)
        // drops here, abandoning the flight so waiters recompute.
        drop(guard);
        self.bind(out, value, item, cost_v);
        Ok(())
    }

    /// Converts a cached object back into a runtime value, acquiring
    /// backend resources as needed. Returns `None` for objects this mode
    /// cannot consume.
    fn value_from_cached(&self, obj: &CachedObject) -> Option<Value> {
        match obj {
            // The Arc shares the buffer; Matrix itself is a cheap handle.
            CachedObject::Matrix(m) => Some(Value::Matrix(m.as_ref().clone())),
            CachedObject::Scalar(v) => Some(Value::Scalar(*v)),
            CachedObject::Rdd { rdd, rows, cols } => Some(Value::Rdd {
                rdd: rdd.clone(),
                rows: *rows,
                cols: *cols,
                blen: self.cfg.blen,
            }),
            // Probe already acquired the pointer.
            CachedObject::Gpu { ptr, rows, cols } => Some(Value::Gpu {
                ptr: *ptr,
                rows: *rows,
                cols: *cols,
            }),
            CachedObject::Disk(_) => None, // probe converts disk hits to Matrix
        }
    }

    /// Which values this mode offers to the cache.
    fn cacheable_object(&self, value: &Value) -> Option<CachedObject> {
        let mode = self.cfg.reuse;
        match value {
            Value::Matrix(m) => Some(CachedObject::Matrix(Arc::new(m.clone()))),
            Value::Scalar(v) => Some(CachedObject::Scalar(*v)),
            Value::Rdd {
                rdd, rows, cols, ..
            } if mode.multibackend() => Some(CachedObject::Rdd {
                rdd: rdd.clone(),
                rows: *rows,
                cols: *cols,
            }),
            Value::Gpu { ptr, rows, cols } if mode.multibackend() => Some(CachedObject::Gpu {
                ptr: *ptr,
                rows: *rows,
                cols: *cols,
            }),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Data movement
    // ------------------------------------------------------------------

    /// Forces a variable to a driver-local dense matrix: waits on futures,
    /// collects RDDs (a Spark action), and copies device pointers to the
    /// host (a synchronization barrier).
    pub fn get_matrix(&mut self, var: &str) -> Result<Matrix> {
        let value = self.binding(var)?.value.clone();
        match value {
            Value::Matrix(m) => Ok(m),
            Value::Scalar(v) => Ok(Matrix::scalar(v)),
            // The driver's original matrix outlives the broadcast copy.
            Value::Broadcast { local, .. } => Ok(local),
            Value::Rdd {
                rdd,
                rows,
                cols,
                blen,
            } => {
                let sc = self
                    .sc
                    .as_ref()
                    .ok_or_else(|| EngineError::Unsupported("no Spark backend".into()))?;
                let m = sc
                    .collect_blocked(&rdd, rows, cols, blen)
                    .to_dense()
                    .map_err(EngineError::Matrix)?;
                if let Some(item) = self.lineage_of(var) {
                    self.cache.note_job(&item);
                }
                Ok(m)
            }
            Value::Gpu { ptr, .. } => {
                let gpu = self
                    .gpu
                    .as_ref()
                    .ok_or_else(|| EngineError::Unsupported("no GPU backend".into()))?;
                Ok(gpu.copy_to_host(ptr)?)
            }
            Value::Future(f) => {
                let resolved = f.get();
                let b = self.binding(var)?.clone();
                self.bind(var, resolved, b.lineage, b.cost);
                self.get_matrix(var)
            }
        }
    }

    /// Forces a variable to a scalar.
    pub fn get_scalar(&mut self, var: &str) -> Result<f64> {
        match self.binding(var)?.value.clone() {
            Value::Scalar(v) => Ok(v),
            _ => {
                let m = self.get_matrix(var)?;
                m.as_scalar().map_err(EngineError::Matrix)
            }
        }
    }

    // ------------------------------------------------------------------
    // Asynchronous operators (§5.1)
    // ------------------------------------------------------------------

    /// `prefetch`: asynchronously triggers the remote job (Spark collect or
    /// GPU device-to-host copy) that materializes `var` on the driver, and
    /// rebinds the variable to a future. The spawned thread PUTs the
    /// fetched result into the cache once available ("reusing prefetched
    /// results"). No-op when async operators are disabled or the value is
    /// already local.
    pub fn prefetch(&mut self, var: &str) -> Result<()> {
        if !self.cfg.async_ops {
            return Ok(());
        }
        let b = self.binding(var)?.clone();
        let future = Future::new();
        match b.value {
            Value::Rdd {
                rdd,
                rows,
                cols,
                blen,
            } => {
                let sc = self
                    .sc
                    .as_ref()
                    .ok_or_else(|| EngineError::Unsupported("no Spark backend".into()))?
                    .clone();
                let cache = self.cache.clone();
                let item = b.lineage.clone();
                let fut = future.clone();
                let cost = b.cost;
                let puts = self.cfg.reuse.puts_ops();
                std::thread::spawn(move || {
                    let _span = memphis_obs::span(memphis_obs::cat::ASYNC, "prefetch_collect");
                    // The collected result is cached under a derived
                    // "collect" lineage. Probing with an in-flight claim
                    // first means two racing prefetches of the same
                    // lineage (or a prefetch racing a synchronous
                    // collect) run the Spark job once: the loser blocks
                    // on the winner's marker and reuses its matrix.
                    if puts {
                        if let Some(item) = &item {
                            cache.note_job(item);
                            let collected = LineageItem::new("collect", vec![], vec![item.clone()]);
                            match cache.probe_or_begin(&collected) {
                                Probed::Hit(object) | Probed::Coalesced(object) => {
                                    if let CachedObject::Matrix(m) = object {
                                        fut.fulfill(Value::Matrix(m.as_ref().clone()));
                                        return;
                                    }
                                }
                                Probed::Compute(g) => {
                                    if let Ok(m) =
                                        sc.collect_blocked(&rdd, rows, cols, blen).to_dense()
                                    {
                                        let size = m.size_bytes();
                                        cache.complete(
                                            g,
                                            CachedObject::Matrix(Arc::new(m.clone())),
                                            Admit::new(cost, size),
                                        );
                                        fut.fulfill(Value::Matrix(m));
                                    }
                                    return;
                                }
                            }
                        }
                    }
                    if let Ok(m) = sc.collect_blocked(&rdd, rows, cols, blen).to_dense() {
                        fut.fulfill(Value::Matrix(m));
                    }
                });
                self.bind(var, Value::Future(future), b.lineage, b.cost);
                Ok(())
            }
            Value::Gpu { ptr, .. } => {
                let gpu = self
                    .gpu
                    .as_ref()
                    .ok_or_else(|| EngineError::Unsupported("no GPU backend".into()))?
                    .clone();
                let fut = future.clone();
                std::thread::spawn(move || {
                    let _span = memphis_obs::span(memphis_obs::cat::ASYNC, "prefetch_d2h");
                    if let Ok(m) = gpu.copy_to_host(ptr) {
                        fut.fulfill(Value::Matrix(m));
                    }
                });
                // Keep the GPU pointer reference until the copy completes:
                // the future replaces the binding, so bump then release in
                // the thread? The device keeps data until free — binding
                // replacement releases our reference, but the copy was
                // already enqueued (stream order preserves the data).
                self.bind(var, Value::Future(future), b.lineage, b.cost);
                Ok(())
            }
            _ => Ok(()), // already local
        }
    }

    /// `broadcast`: registers a local matrix variable as a Spark broadcast
    /// (torrent-chunked, lazily shipped). Later distributed operators use
    /// the handle instead of re-broadcasting.
    pub fn broadcast(&mut self, var: &str) -> Result<()> {
        let sc = self
            .sc
            .as_ref()
            .ok_or_else(|| EngineError::Unsupported("no Spark backend".into()))?
            .clone();
        let b = self.binding(var)?.clone();
        if let Value::Matrix(m) = b.value {
            let _span = memphis_obs::span(memphis_obs::cat::ASYNC, "broadcast");
            let bc = sc.broadcast(m.clone());
            self.bind(var, Value::Broadcast { bc, local: m }, b.lineage, b.cost);
        }
        Ok(())
    }

    /// The `evict(p)` instruction (§5.2): backend-specific cache cleanup of
    /// `fraction` of the GPU free list.
    pub fn evict_gpu(&mut self, fraction: f64) {
        self.cache.evict_gpu_fraction(fraction);
    }

    /// `checkpoint`: compiler-placed `persist()` on a distributed variable
    /// (§5.2). Counts toward the lineage cache's RDD budget accounting.
    pub fn checkpoint(&mut self, var: &str) -> Result<()> {
        let b = self.binding(var)?;
        if let Value::Rdd {
            rdd, rows, cols, ..
        } = &b.value
        {
            rdd.persist(memphis_sparksim::StorageLevel::MemoryAndDisk);
            let _ = (rows, cols);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Multi-level (function) reuse
    // ------------------------------------------------------------------

    /// Calls a deterministic function with multi-level reuse: if every
    /// output of `name` for these exact inputs is cached, the body is
    /// skipped entirely; otherwise the body runs (with fine-grained reuse
    /// inside) and its outputs are cached under special function items.
    ///
    /// `inputs` must cover every value the body reads that can vary.
    pub fn call_function<F>(
        &mut self,
        name: &str,
        inputs: &[&str],
        outputs: &[&str],
        body: F,
    ) -> Result<()>
    where
        F: FnOnce(&mut Self) -> Result<()>,
    {
        let mode = self.cfg.reuse;
        let func_items: Option<Vec<LItem>> = if mode.traces() {
            let in_items: Vec<LItem> = inputs
                .iter()
                .map(|v| {
                    self.lineage
                        .get(v)
                        .cloned()
                        .ok_or_else(|| EngineError::UnknownVar(v.to_string()))
                })
                .collect::<Result<_>>()?;
            Some(
                outputs
                    .iter()
                    .enumerate()
                    .map(|(i, _)| {
                        LineageItem::new(
                            &format!("func:{name}"),
                            vec![format!("out={i}")],
                            in_items.clone(),
                        )
                    })
                    .collect(),
            )
        } else {
            None
        };

        // Multi-level REUSE: all outputs must hit.
        if mode.multilevel() {
            if let Some(items) = &func_items {
                let hits: Vec<_> = items.iter().map(|i| self.cache.probe(i)).collect();
                if hits.iter().all(|h| h.is_some()) {
                    for ((out, item), hit) in outputs.iter().zip(items).zip(hits) {
                        let hit = hit.expect("checked");
                        if let Some(value) = self.value_from_cached(&hit) {
                            self.bind(out, value, Some(item.clone()), 1.0);
                        } else {
                            // Unconsumable cached object: fall through to
                            // execution for everything.
                            return self.run_function_body(name, func_items, outputs, body);
                        }
                    }
                    self.stats.functions_reused += 1;
                    return Ok(());
                }
            }
        }
        self.run_function_body(name, func_items, outputs, body)
    }

    fn run_function_body<F>(
        &mut self,
        _name: &str,
        func_items: Option<Vec<LItem>>,
        outputs: &[&str],
        body: F,
    ) -> Result<()>
    where
        F: FnOnce(&mut Self) -> Result<()>,
    {
        body(self)?;
        // PUT function outputs under the function items and rebind the
        // outputs' lineage to the compact function items.
        if self.cfg.reuse.multilevel() {
            if let Some(items) = func_items {
                for (out, item) in outputs.iter().zip(items) {
                    let Ok(b) = self.binding(out) else { continue };
                    let cost = b.cost;
                    let value = b.value.clone();
                    if let Some(obj) = self.cacheable_function_object(&value) {
                        let size_hint = value
                            .shape()
                            .map(|(r, c)| cost::dense_bytes(r, c))
                            .unwrap_or(16);
                        self.cache.put(&item, obj, Admit::new(cost, size_hint));
                    }
                    let b = self.vars.get_mut(*out).expect("bound");
                    b.lineage = Some(item.clone());
                    self.lineage.bind(out, item);
                }
            }
        }
        Ok(())
    }

    /// Function outputs cacheable under multi-level entries: HELIX caches
    /// local results only; MEMPHIS caches any backend.
    fn cacheable_function_object(&self, value: &Value) -> Option<CachedObject> {
        match value {
            Value::Matrix(m) => Some(CachedObject::Matrix(Arc::new(m.clone()))),
            Value::Scalar(v) => Some(CachedObject::Scalar(*v)),
            Value::Rdd {
                rdd, rows, cols, ..
            } if self.cfg.reuse.multibackend() => Some(CachedObject::Rdd {
                rdd: rdd.clone(),
                rows: *rows,
                cols: *cols,
            }),
            Value::Gpu { ptr, rows, cols } if self.cfg.reuse.multibackend() => {
                Some(CachedObject::Gpu {
                    ptr: *ptr,
                    rows: *rows,
                    cols: *cols,
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_var_errors() {
        let ctx = ExecutionContext::local(EngineConfig::test());
        assert!(matches!(
            ctx.binding("nope"),
            Err(EngineError::UnknownVar(_))
        ));
    }
}
