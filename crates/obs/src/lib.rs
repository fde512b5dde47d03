//! `memphis-obs`: unified event tracing and metrics for the MEMPHIS
//! reproduction.
//!
//! MEMPHIS's headline claims are *temporal* — lazy reuse beats eager
//! caching, asynchronous prefetch/broadcast overlaps Spark jobs with GPU
//! chains and CPU ops, and eviction/recovery stays off the critical path.
//! End-of-run counters cannot show any of that. This crate records
//! *events*:
//!
//! - [`span`] / [`span_with`] — a named interval on the calling thread,
//!   recorded when the returned [`SpanGuard`] drops.
//! - [`instant`] / [`instant_val`] — a point event (reuse hit, eviction
//!   victim, task retry).
//!
//! Events land in per-thread ring buffers (bounded, oldest-overwritten)
//! registered with a global recorder; the only cross-thread state touched
//! on the hot path is one relaxed atomic load of the enabled flag, and
//! one uncontended per-thread lock when recording. When tracing is
//! disabled — the default — every entry point returns before allocating
//! or touching a buffer cursor, so instrumented hot paths (the
//! interpreter's Figure-4 hook) pay a single atomic load.
//!
//! Timestamps are nanoseconds since a global epoch armed by [`enable`].
//! Because the Spark and GPU simulators execute their modelled costs as
//! real delays, the wall-clock tracks double as the simulated-time
//! tracks.
//!
//! [`drain`] snapshots all buffers into a [`Trace`], which the
//! [`export`] module renders as Chrome trace-event JSON (load in
//! `chrome://tracing` or <https://ui.perfetto.dev>) or a plain-text
//! timeline, and the [`analysis`] module interrogates (span overlap,
//! busy time, makespan, per-phase totals) so tests can *prove* overlap
//! claims. [`MetricsRegistry`] unifies the per-subsystem stats snapshots
//! into one named-counter report with text and JSON renderings.

pub mod analysis;
pub mod export;
mod recorder;
mod registry;

pub use recorder::{
    disable, drain, enable, enabled, instant, instant_val, reset, span, span_with, thread_count,
    total_recorded, Event, EventKind, SpanGuard, Trace, TraceEvent,
};
pub use registry::{IntoMetrics, MetricsRegistry};

/// Event categories, used as Chrome-trace `cat` and for analysis filters.
pub mod cat {
    /// Interpreter instruction execution (Figure-4 hook).
    pub const INTERP: &str = "interp";
    /// Lineage-cache reuse path: probe/hit/miss/put.
    pub const REUSE: &str = "reuse";
    /// Cache backend internals: MAKE_SPACE, victim selection, spill.
    pub const CACHE: &str = "cache";
    /// Spark-sim scheduler: jobs, stages, tasks.
    pub const SCHED: &str = "sched";
    /// Shuffle writes/fetches.
    pub const SHUFFLE: &str = "shuffle";
    /// Fault recovery: retries, stage resubmission, lost executors.
    pub const RECOVERY: &str = "recovery";
    /// GPU stream operations (kernels, syncs).
    pub const GPU: &str = "gpu";
    /// Host<->device transfers.
    pub const XFER: &str = "xfer";
    /// Asynchronous operators: prefetch/broadcast futures.
    pub const ASYNC: &str = "async";
    /// Multi-session serving harness: per-session phases and rendezvous.
    pub const SERVE: &str = "serve";
    /// Cluster layer: remote probes, transfers, rebalance epochs.
    pub const CLUSTER: &str = "cluster";
}
