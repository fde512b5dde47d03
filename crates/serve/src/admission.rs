//! Admission control: token-bucket rate limiting plus per-tenant hard
//! in-flight memory caps.

use crate::request::TenantId;
use std::collections::HashMap;

/// Integer token bucket refilled per virtual tick. Exact-integer
/// arithmetic keeps admission decisions bit-deterministic.
#[derive(Debug)]
pub struct TokenBucket {
    capacity: u64,
    refill_per_tick: u64,
    tokens: u64,
    last_tick: u64,
}

impl TokenBucket {
    /// A full bucket of `capacity` tokens refilling `refill_per_tick`
    /// tokens per tick.
    pub fn new(capacity: u64, refill_per_tick: u64) -> Self {
        Self {
            capacity,
            refill_per_tick,
            tokens: capacity,
            last_tick: 0,
        }
    }

    /// Advances the refill clock to `now`.
    pub fn refill(&mut self, now: u64) {
        let elapsed = now.saturating_sub(self.last_tick);
        self.tokens = self
            .tokens
            .saturating_add(elapsed.saturating_mul(self.refill_per_tick))
            .min(self.capacity);
        self.last_tick = now;
    }

    /// Takes one token, or reports rate-limit rejection.
    pub fn try_take(&mut self) -> bool {
        if self.tokens == 0 {
            return false;
        }
        self.tokens -= 1;
        true
    }

    /// Tokens currently available.
    pub fn available(&self) -> u64 {
        self.tokens
    }
}

/// Per-tenant hard in-flight memory caps: the sum of `mem_estimate` over
/// a tenant's queued + executing requests may never exceed its cap. Also
/// tracks the high-water mark of each tenant's *executing* bytes so
/// experiments can assert zero overshoot.
#[derive(Debug, Default)]
pub struct TenantCaps {
    default_cap: usize,
    caps: HashMap<TenantId, usize>,
    /// Queued + executing bytes per tenant.
    committed: HashMap<TenantId, usize>,
    /// Executing bytes per tenant.
    inflight: HashMap<TenantId, usize>,
    high_water: HashMap<TenantId, usize>,
}

impl TenantCaps {
    /// Caps with a default for tenants without an override.
    pub fn new(default_cap: usize, overrides: HashMap<TenantId, usize>) -> Self {
        Self {
            default_cap,
            caps: overrides,
            ..Self::default()
        }
    }

    /// The hard cap of `tenant`.
    pub fn cap(&self, tenant: TenantId) -> usize {
        self.caps.get(&tenant).copied().unwrap_or(self.default_cap)
    }

    /// True when admitting `bytes` more for `tenant` stays under its cap.
    pub fn admits(&self, tenant: TenantId, bytes: usize) -> bool {
        self.committed.get(&tenant).copied().unwrap_or(0) + bytes <= self.cap(tenant)
    }

    /// Charges an admission (request entered the queue).
    pub fn commit(&mut self, tenant: TenantId, bytes: usize) {
        *self.committed.entry(tenant).or_insert(0) += bytes;
    }

    /// Moves `bytes` from queued to executing (dispatch).
    pub fn start(&mut self, tenant: TenantId, bytes: usize) {
        let inflight = self.inflight.entry(tenant).or_insert(0);
        *inflight += bytes;
        let hw = self.high_water.entry(tenant).or_insert(0);
        *hw = (*hw).max(*inflight);
    }

    /// Releases an executing request's bytes (completion or final
    /// failure). The committed share stays until [`uncommit`][Self::uncommit]
    /// — retried requests remain committed between attempts.
    pub fn finish(&mut self, tenant: TenantId, bytes: usize) {
        if let Some(v) = self.inflight.get_mut(&tenant) {
            *v = v.saturating_sub(bytes);
        }
    }

    /// Releases a terminal request's committed bytes (completed, shed, or
    /// failed — anything leaving the system).
    pub fn uncommit(&mut self, tenant: TenantId, bytes: usize) {
        if let Some(v) = self.committed.get_mut(&tenant) {
            *v = v.saturating_sub(bytes);
        }
    }

    /// High-water mark of `tenant`'s executing bytes.
    pub fn high_water(&self, tenant: TenantId) -> usize {
        self.high_water.get(&tenant).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_refills_and_caps() {
        let mut b = TokenBucket::new(2, 1);
        assert!(b.try_take());
        assert!(b.try_take());
        assert!(!b.try_take(), "empty");
        b.refill(1);
        assert_eq!(b.available(), 1);
        b.refill(100);
        assert_eq!(b.available(), 2, "capped at capacity");
    }

    #[test]
    fn caps_enforce_committed_bytes() {
        let mut c = TenantCaps::new(1000, HashMap::new());
        assert!(c.admits(1, 800));
        c.commit(1, 800);
        assert!(!c.admits(1, 300), "second admission would overshoot");
        assert!(c.admits(2, 300), "other tenants unaffected");
        c.start(1, 800);
        assert_eq!(c.high_water(1), 800);
        c.finish(1, 800);
        c.uncommit(1, 800);
        assert!(c.admits(1, 300));
        assert_eq!(c.high_water(1), 800, "high water survives");
    }
}
