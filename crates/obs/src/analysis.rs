//! Assertion helpers over drained traces: span overlap, busy-time
//! (interval union), makespan, per-phase totals. These make
//! the paper's temporal claims *testable* — e.g. that an async-prefetch
//! plan shows prefetch spans concurrent with compute spans while the
//! synchronous plan does not.

use crate::recorder::{EventKind, Trace, TraceEvent};
use std::collections::BTreeMap;

/// Overlap in nanoseconds between two spans (0 if disjoint).
pub fn overlap_ns(a: &TraceEvent, b: &TraceEvent) -> u64 {
    let start = a.event.ts_ns.max(b.event.ts_ns);
    let end = a.end_ns().min(b.end_ns());
    end.saturating_sub(start)
}

fn merged_intervals(spans: &[&TraceEvent]) -> Vec<(u64, u64)> {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .filter(|e| e.event.kind == EventKind::Span)
        .map(|e| (e.event.ts_ns, e.end_ns()))
        .collect();
    iv.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (s, e) in iv {
        match merged.last_mut() {
            Some((_, le)) if s <= *le => *le = (*le).max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Total busy time of a span set: the length of the union of their
/// intervals (concurrent spans are not double-counted).
pub fn busy_ns(spans: &[&TraceEvent]) -> u64 {
    merged_intervals(spans).iter().map(|(s, e)| e - s).sum()
}

/// Overlap between two span *sets*: the length of the intersection of
/// their interval unions. This is the primitive behind "prefetch
/// overlaps compute": nonzero iff some span of `a` runs concurrently
/// with some span of `b`.
pub fn total_overlap_ns(a: &[&TraceEvent], b: &[&TraceEvent]) -> u64 {
    let ia = merged_intervals(a);
    let ib = merged_intervals(b);
    let mut total = 0u64;
    let (mut i, mut j) = (0, 0);
    while i < ia.len() && j < ib.len() {
        let start = ia[i].0.max(ib[j].0);
        let end = ia[i].1.min(ib[j].1);
        total += end.saturating_sub(start);
        if ia[i].1 <= ib[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Wall-clock extent of a span set: last end minus first start.
pub fn makespan_ns(spans: &[&TraceEvent]) -> u64 {
    let iv = merged_intervals(spans);
    match (iv.first(), iv.last()) {
        (Some((s, _)), Some((_, e))) => e - s,
        _ => 0,
    }
}

/// Fraction of `inner`'s busy time spent concurrent with `outer`
/// (0.0 when `inner` is empty).
pub fn overlap_fraction(inner: &[&TraceEvent], outer: &[&TraceEvent]) -> f64 {
    let busy = busy_ns(inner);
    if busy == 0 {
        return 0.0;
    }
    total_overlap_ns(inner, outer) as f64 / busy as f64
}

/// Per-category busy time (interval union per category), sorted by
/// category name.
pub fn phase_totals(trace: &Trace) -> BTreeMap<&'static str, u64> {
    let mut cats: BTreeMap<&'static str, Vec<&TraceEvent>> = BTreeMap::new();
    for ev in &trace.events {
        if ev.event.kind == EventKind::Span {
            cats.entry(ev.event.cat).or_default().push(ev);
        }
    }
    cats.into_iter().map(|(c, v)| (c, busy_ns(&v))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Event, EventKind, TraceEvent};

    fn span(tid: u64, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            tid,
            thread: String::new(),
            event: Event {
                kind: EventKind::Span,
                cat: "t",
                name: "s",
                ts_ns: ts,
                dur_ns: dur,
                detail: None,
                arg: None,
            },
        }
    }

    #[test]
    fn overlap_of_two_spans() {
        let a = span(0, 0, 100);
        let b = span(1, 50, 100);
        assert_eq!(overlap_ns(&a, &b), 50);
        let c = span(1, 200, 10);
        assert_eq!(overlap_ns(&a, &c), 0);
    }

    #[test]
    fn busy_merges_concurrency() {
        let a = span(0, 0, 100);
        let b = span(1, 50, 100);
        let c = span(0, 300, 50);
        assert_eq!(busy_ns(&[&a, &b, &c]), 200);
        assert_eq!(makespan_ns(&[&a, &b, &c]), 350);
    }

    #[test]
    fn set_overlap_intersects_unions() {
        let a1 = span(0, 0, 100);
        let a2 = span(0, 200, 100);
        let b1 = span(1, 90, 120); // covers 90..210
        assert_eq!(total_overlap_ns(&[&a1, &a2], &[&b1]), 10 + 10);
        assert!(overlap_fraction(&[&b1], &[&a1, &a2]) > 0.16);
    }
}
