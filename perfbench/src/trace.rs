//! The benchmark's own in-memory spans. Each span records its name, start,
//! end, parent span and the op it belongs to. Spans wrap each op and each
//! call the benchmark makes into a public layer of the program; nothing
//! is recorded inside the program. Recording is switched on only for the
//! traced rounds of a `--trace 1` run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call or phase name, e.g. `engine.run`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration in ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the time covered by children).
    pub self_ns: u64,
}

struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        enabled: false,
        spans: Vec::new(),
        stack: Vec::new(),
    });
}

/// Switches recording on or off.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = on);
}

/// Runs `f` inside a span named `name` belonging to `op`.
pub fn span<T>(name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
    let idx = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return None;
        }
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        let parent = t.stack.last().copied();
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        let idx = t.spans.len() - 1;
        t.stack.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let end = t.epoch.elapsed().as_nanos() as u64;
            t.spans[idx].end_ns = end;
            t.stack.pop();
        });
    }
    out
}

/// A copy of every span recorded so far.
pub fn spans() -> Vec<Span> {
    TRACER.with(|t| t.borrow().spans.clone())
}

/// Per-name totals with self time (span minus its children).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
    }
    out
}

/// Writes the spans as a Chrome trace-event file, followed by the
/// per-name totals.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(f, "{{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            f,
            "{sep}\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op
        )?;
    }
    write!(f, "\n],\"totals\":{{")?;
    for (i, (name, t)) in totals(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            f,
            "{sep}\n\"{name}\":{{\"count\":{},\"total_ms\":{:.6},\"self_ms\":{:.6}}}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        )?;
    }
    writeln!(f, "\n}}}}")?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            sp("op", 0, 100, None),
            sp("compile", 10, 30, Some(0)),
            sp("run", 40, 90, Some(0)),
            sp("probe", 50, 60, Some(2)),
        ];
        let t = totals(&spans);
        assert_eq!(t["op"].self_ns, 30);
        assert_eq!(t["run"].self_ns, 40);
        assert_eq!(t["probe"].self_ns, 10);
        assert_eq!(t["compile"].total_ns, 20);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nesting_links_parents() {
        set_enabled(false);
        span("off", 1, || ());
        let before = spans().len();
        set_enabled(true);
        span("outer", 2, || span("inner", 2, || ()));
        set_enabled(false);
        let all = spans();
        assert_eq!(all.len(), before + 2);
        let inner = &all[before + 1];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.parent, Some(before));
        assert!(all[before].end_ns >= inner.end_ns);
    }
}
