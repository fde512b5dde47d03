//! memphis-serve: admission-controlled, deadline-aware request serving
//! over the shared lineage cache.
//!
//! The serving layer (DESIGN.md §7) sits in front of the MEMPHIS reuse
//! substrate and turns it into a multi-tenant service:
//!
//! * **Requests** ([`Request`]) are tagged with a tenant, a priority
//!   class, and a start-by deadline, and ask for either a shared lineage
//!   item or a full session pipeline.
//! * **Admission** ([`admission`]) is a token bucket plus per-tenant
//!   hard in-flight memory caps; the bounded priority/deadline
//!   [`queue`](RequestQueue) orders admitted work.
//! * **Pressure** ([`pressure`]) tracks unevictable demand against the
//!   cache's unified local budget, shedding past-deadline queued work
//!   at the shed level and suspending memory-intensive admissions at
//!   the suspend level.
//! * **Scheduling** ([`Scheduler`]) is a virtual-time event loop whose
//!   three-phase batch protocol routes every computation through the
//!   coalescing cache exactly once and keeps every schedule-determined
//!   counter identical across runs and worker-thread counts.
//! * **Tenant quotas** fold into the cache's eq. (1) eviction: entries
//!   of over-quota tenants are evicted first (see
//!   `LineageCache::set_tenant_quota`), so a cache-hogging tenant pays
//!   its own eviction bill before anyone else's.
//!
//! Determinism is the design axis: transient faults, arrivals, and
//! request shapes are all SplitMix64 hashes of stable identifiers
//! (the crate's `rng` module, mirroring the sparksim `FaultPlan`), scheduling runs on a
//! virtual tick clock, and worker threads execute only pure payloads.

pub mod admission;
pub mod cluster;
pub mod gen;
pub mod pressure;
pub mod queue;
pub mod request;
pub(crate) mod rng;
pub mod scheduler;
pub mod stats;

pub use admission::{TenantCaps, TokenBucket};
pub use cluster::{ClusterDispatcher, ClusterServeConfig, ClusterServeReport};
pub use gen::{open_loop, StreamSpec};
pub use pressure::{PressureLevel, PressureMonitor};
pub use queue::RequestQueue;
pub use request::{Outcome, Priority, Request, TenantId, Work};
pub use scheduler::{
    shared_item, shared_payload, Scheduler, ServeConfig, ServeReport, TenantReport,
};
pub use stats::ServeCounters;
