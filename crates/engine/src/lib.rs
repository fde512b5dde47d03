//! MEMPHIS engine: the ML-system compiler and multi-backend runtime the
//! lineage cache integrates with.
//!
//! Mirrors SystemDS's architecture at the granularity the paper needs:
//!
//! - [`context::ExecutionContext`] — the interpreter's instruction
//!   execution path. Every instruction runs through the Figure-4 hook:
//!   `TRACE → REUSE → execute → PUT`, with operator placement across the
//!   local CPU, the simulated Spark cluster, and the simulated GPU.
//! - [`context`] also implements the asynchronous operators of §5.1
//!   (`prefetch`, `broadcast`) returning future objects, plus multi-level
//!   (function) reuse of §3.3.
//! - [`plan`] — operator DAGs and program blocks (the compiler's view).
//! - [`compiler`] — operator placement and linearization: depth-first, or
//!   the `maxParallelize` ordering of Algorithm 2. The other §5 decisions
//!   are the program's own: it calls `prefetch`, `broadcast`, `checkpoint`
//!   and `evict_gpu` where it wants them, and each experiment sets
//!   [`EngineConfig::delay_factor`].
//! - [`interp`] — executes compiled programs against an execution context.

pub mod compiler;
pub mod config;
pub mod context;
pub mod cost;
pub mod interp;
pub mod ops;
pub mod plan;
pub mod recompute_exec;
pub mod value;

pub use config::{EngineConfig, ReuseMode};
pub use context::ExecutionContext;
pub use value::Value;
