//! A simulated Spark-like distributed backend for the MEMPHIS reproduction.
//!
//! The original MEMPHIS runs on a real Apache Spark cluster. This crate
//! re-implements the Spark semantics the paper's mechanisms depend on,
//! executing for real on a pool of executor worker threads:
//!
//! - **Lazy evaluation**: RDDs are transformation DAG nodes; nothing runs
//!   until an *action* (`collect`, `reduce`, `count`) triggers a job.
//! - **Stage scheduling**: the DAG scheduler ([`scheduler`]) splits each job
//!   into stages at shuffle boundaries, runs map stages first, and skips
//!   stages whose shuffle files are still available (Spark's implicit
//!   shuffle-file caching).
//! - **Storage management**: [`block_manager::BlockManager`] accounts
//!   cached partitions against a storage budget, evicts LRU partitions,
//!   spills `MemoryAndDisk` partitions to disk, and recomputes lost
//!   partitions from RDD lineage.
//! - **Broadcast variables**: torrent-style chunked transfer, lazily
//!   shipped to each executor on first use, with driver-side retention
//!   until destroyed (the "dangling reference" problem of paper §2.2).
//! - **Cost model**: task-launch overhead and interconnect bandwidths are
//!   injected via [`config::CostModel`] so experiment *shapes* (e.g. the
//!   eager-caching collapse of Figure 2(c)) reproduce on one machine.
//!
//! Records are keyed matrix tiles `(BlockId, Matrix)`, matching SystemDS's
//! binary-block RDDs.

pub mod block_manager;
pub mod broadcast;
pub mod config;
pub mod context;
pub mod fault;
pub mod rdd;
pub mod scheduler;
pub mod shuffle;
pub mod stats;

pub use block_manager::StorageLevel;
pub use broadcast::BroadcastRef;
pub use config::{CostModel, SparkConfig};
pub use context::SparkContext;
pub use fault::{ExecutorKill, FaultPlan, JobError, TaskError};
pub use rdd::{RddRef, Record};
pub use stats::SparkStats;
