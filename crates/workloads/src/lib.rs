//! Workloads for the MEMPHIS reproduction: ML builtins (the SystemDS
//! primitives the paper's pipelines compose), deterministic synthetic
//! dataset generators standing in for the paper's datasets (Table 3), and
//! the seven end-to-end pipelines of §6.3.

pub mod builtins;
pub mod cluster;
pub mod data;
pub mod harness;
pub mod latency;
pub mod pipelines;
pub mod script;
pub mod serve;

pub use cluster::{run_cluster, ClusterParams, ClusterReport};
pub use harness::{run_timed, Backends, WorkloadOutcome};
pub use latency::{percentile, run_latency, LatencyParams, LatencyReport};
pub use serve::{run_serve, ServeParams, ServeReport};
