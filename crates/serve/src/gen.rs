//! Seeded request generation.
//!
//! [`open_loop`] arrivals are "Poisson-ish": integer inter-arrival gaps
//! drawn uniformly from `0..=2*mean_gap` by a SplitMix64 hash of the
//! request index, so the mean gap is exact, the trace is
//! bit-reproducible per seed, and no floating-point transcendentals
//! enter the determinism surface. [`skewed`] issues one shared-item
//! request per tick over a hot spot, the cluster layer's trace.

use crate::request::{Priority, Request, TenantId, Work};
use crate::rng::salt;
use memphis_matrix::hash::{decide1, hash1, hash4};
use memphis_workloads::pipelines;

/// Shape of a generated request stream.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Requests to generate.
    pub requests: usize,
    /// Tenants `0..tenants`.
    pub tenants: TenantId,
    /// Mean inter-arrival gap in ticks (gaps are uniform on
    /// `0..=2*mean_gap`).
    pub mean_gap: u64,
    /// Shared-item universe `0..items` for regular tenants.
    pub items: usize,
    /// Optional hog: a tenant issuing memory-intensive requests over a
    /// private item range `items..items + hog_items`.
    pub hog_tenant: Option<TenantId>,
    /// Size of the hog's private item range.
    pub hog_items: usize,
    /// Every `hog_every`-th request belongs to the hog (when set).
    pub hog_every: usize,
    /// Every `pipeline_every`-th request runs a full session pipeline
    /// instead of a shared item (0 disables pipelines). Consecutive
    /// pipelines cycle through the session kinds.
    pub pipeline_every: usize,
    /// Base memory estimate in bytes; regular requests draw 1–3×,
    /// hog requests use 4×.
    pub mem_base: usize,
    /// Deadline slack: `deadline = arrival + slack * (1 + rank)`, so
    /// higher-priority requests get more headroom before they are
    /// shed-eligible.
    pub deadline_slack: u64,
}

impl StreamSpec {
    /// A small mixed stream: 3 tenants plus a hog, shared items with
    /// occasional pipelines.
    pub fn test() -> Self {
        Self {
            requests: 64,
            tenants: 4,
            mean_gap: 2,
            items: 12,
            hog_tenant: Some(3),
            hog_items: 8,
            hog_every: 4,
            pipeline_every: 0,
            mem_base: 2 << 10,
            deadline_slack: 16,
        }
    }
}

/// Generates the open-loop trace for `seed`. Identical `(seed, spec)`
/// yields an identical trace.
pub fn open_loop(seed: u64, spec: &StreamSpec) -> Vec<Request> {
    assert!(spec.tenants > 0, "need at least one tenant");
    assert!(spec.items > 0, "need at least one shared item");
    let mut arrival = 0u64;
    let mut out = Vec::with_capacity(spec.requests);
    for i in 0..spec.requests {
        let idx = i as u64;
        arrival += hash4(seed, salt::ARRIVAL, [idx, 0, 0, 0]) % (2 * spec.mean_gap + 1);
        let h = hash4(seed, salt::SHAPE, [idx, 0, 0, 0]);

        let is_hog = match spec.hog_tenant {
            Some(_) => spec.hog_every > 0 && i % spec.hog_every == 0,
            None => false,
        };
        let tenant = if is_hog {
            spec.hog_tenant.unwrap()
        } else {
            let mut t = (h % spec.tenants as u64) as TenantId;
            if Some(t) == spec.hog_tenant {
                t = (t + 1) % spec.tenants;
            }
            t
        };

        let priority = match (h >> 16) % 4 {
            0 => Priority::Interactive,
            1 => Priority::Normal,
            _ => Priority::Batch,
        };

        let work = if spec.pipeline_every > 0 && i % spec.pipeline_every == 0 {
            Work::Pipeline(pipelines::session_kind(seed, i / spec.pipeline_every))
        } else if is_hog {
            let span = spec.hog_items.max(1);
            Work::SharedItem(spec.items + ((h >> 24) as usize % span))
        } else {
            Work::SharedItem((h >> 24) as usize % spec.items)
        };

        let mem_estimate = if is_hog {
            spec.mem_base * 4
        } else {
            spec.mem_base * (1 + ((h >> 40) % 3) as usize)
        };

        let service_ticks = 1 + (h >> 48) % 3;
        let deadline = arrival + spec.deadline_slack * (1 + priority.rank() as u64);

        out.push(Request {
            id: idx,
            tenant,
            priority,
            arrival,
            deadline,
            mem_estimate,
            service_ticks,
            work,
        });
    }
    out
}

/// Generates a skewed trace for `seed`: `requests` shared-item
/// requests, one per tick, from tenants `0..tenants`. A request draws
/// one of the `hot` leading items with probability `hot_frac` and one
/// of the other `items - hot` otherwise. Every request is a
/// [`Priority::Normal`] 2 KiB, one-tick request without a deadline.
pub fn skewed(
    seed: u64,
    requests: usize,
    tenants: TenantId,
    items: usize,
    hot: usize,
    hot_frac: f64,
) -> Vec<Request> {
    assert!(tenants > 0, "need at least one tenant");
    assert!(0 < hot && hot < items, "need hot and cold items");
    (0..requests as u64)
        .map(|r| {
            let idx = if decide1(seed, salt::SKEW, r) < hot_frac {
                hash1(seed, salt::HOT, r) % hot as u64
            } else {
                hot as u64 + hash1(seed, salt::COLD, r) % (items - hot) as u64
            };
            Request {
                id: r,
                tenant: (hash1(seed, salt::TENANT, r) % tenants as u64) as TenantId,
                priority: Priority::Normal,
                arrival: r,
                deadline: u64::MAX,
                mem_estimate: 2 << 10,
                service_ticks: 1,
                work: Work::SharedItem(idx as usize),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        /// Four consecutive pipelines reach every session kind, for any
        /// seed and pipeline spacing.
        #[test]
        fn four_pipelines_reach_every_session_kind(seed in 0u64..u64::MAX) {
            for every in [4, 6, 24, 251] {
                let spec = StreamSpec {
                    requests: 3 * every + 1,
                    pipeline_every: every,
                    ..StreamSpec::test()
                };
                let kinds: BTreeSet<&str> = open_loop(seed, &spec)
                    .iter()
                    .filter_map(|r| match r.work {
                        Work::Pipeline(kind) => Some(kind),
                        Work::SharedItem(_) => None,
                    })
                    .collect();
                prop_assert_eq!(kinds, pipelines::SESSION_MIX.into_iter().collect());
            }
        }
    }

    #[test]
    fn skewed_traces_tick_once_per_request_and_favour_the_hot_items() {
        let draws = |trace: Vec<Request>| -> Vec<(TenantId, usize)> {
            trace
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    assert_eq!((r.id, r.arrival), (i as u64, i as u64));
                    match r.work {
                        Work::SharedItem(idx) => (r.tenant, idx),
                        Work::Pipeline(_) => panic!("a skewed trace holds shared items only"),
                    }
                })
                .collect()
        };
        let a = draws(skewed(42, 600, 8, 32, 4, 0.75));
        assert_eq!(a, draws(skewed(42, 600, 8, 32, 4, 0.75)));
        assert_ne!(a, draws(skewed(1337, 600, 8, 32, 4, 0.75)));
        assert!(a.iter().all(|&(t, idx)| t < 8 && idx < 32));
        let hot = a.iter().filter(|&&(_, idx)| idx < 4).count();
        assert!((400..500).contains(&hot), "{hot} of 600 requests were hot");
    }

    #[test]
    fn traces_are_reproducible_per_seed() {
        let spec = StreamSpec::test();
        let a = open_loop(42, &spec);
        let b = open_loop(42, &spec);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.mem_estimate, y.mem_estimate);
        }
        let c = open_loop(1337, &spec);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.arrival != y.arrival
                || x.tenant != y.tenant
                || x.priority != y.priority),
            "different seeds should differ"
        );
    }

    #[test]
    fn hog_requests_are_intensive_and_private() {
        let spec = StreamSpec::test();
        let trace = open_loop(42, &spec);
        let hog = spec.hog_tenant.unwrap();
        for r in &trace {
            if r.tenant == hog {
                assert_eq!(r.mem_estimate, spec.mem_base * 4);
                if let Work::SharedItem(i) = r.work {
                    assert!(i >= spec.items, "hog uses its private range");
                }
            } else if let Work::SharedItem(i) = r.work {
                assert!(i < spec.items, "regular tenants share the base range");
            }
        }
        assert!(trace.iter().filter(|r| r.tenant == hog).count() >= spec.requests / 8);
    }

    #[test]
    fn arrivals_are_monotone_with_exact_mean_gap_bound() {
        let spec = StreamSpec::test();
        let trace = open_loop(7, &spec);
        let mut last = 0;
        for r in &trace {
            assert!(r.arrival >= last);
            assert!(r.arrival - last <= 2 * spec.mean_gap);
            last = r.arrival;
        }
    }
}
