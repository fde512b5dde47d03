//! End-to-end benchmark of the MEMPHIS reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload for about `--seconds`, checks every op's
//! output against a reference run, and prints as its last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end metrics; with `--trace 1`
//! the per-layer metrics. The line before it (`report ...`) prints every
//! end-to-end metric that applies, by name and unit. Exits 1 when a
//! correctness check fails and 2 on bad arguments.

mod cluster;
mod harness;
mod ledger;
mod metrics;
mod pipelines;
mod rng;
mod script;
mod serve;
mod stats;
mod sys;
mod trace;

use harness::{Opts, Outcome};
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (String, u64, f64, bool) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let v = it
            .next()
            .unwrap_or_else(|| usage(&format!("{a} needs a value")));
        match a.as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => seed = v.parse::<u64>().ok(),
            "--seconds" => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(v.as_str(), "0" | "1").then(|| v == "1"),
            _ => usage(&format!("unknown argument {a}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("missing --workload"));
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        usage(&format!("unknown workload {workload}"));
    }
    (
        workload,
        seed.unwrap_or_else(|| usage("missing or bad --seed")),
        seconds.unwrap_or_else(|| usage("missing or bad --seconds")),
        trace.unwrap_or_else(|| usage("missing or bad --trace")),
    )
}

fn main() {
    let (workload, seed, seconds, trace) = parse_args();
    let dir = sys::RunDir::create().unwrap_or_else(|e| {
        eprintln!("perfbench: cannot create the run directory: {e}");
        std::process::exit(2);
    });
    let opts = Opts {
        workload,
        seed,
        seconds,
        trace,
        nproc: sys::nproc(),
        dir,
    };
    let (executors, cores) = pipelines::spark_shape(opts.nproc);
    println!(
        "sizes: nproc={} spark_executors={executors} cores_per_executor={cores} cp_threads={} serve_workers={}",
        opts.nproc,
        opts.nproc,
        serve::WORKERS.min(opts.nproc)
    );
    let def = WORKLOADS
        .iter()
        .find(|w| w.name == opts.workload)
        .expect("validated");
    println!(
        "workload: {} ({} loop, {}): {}",
        def.name, def.looping, def.load, def.why
    );

    let result = match opts.workload.as_str() {
        "pipelines" => pipelines::run(&opts),
        "script" => script::run(&opts, false),
        "spill" => script::run(&opts, true),
        "serve" => serve::run(&opts),
        "cluster" => cluster::run(&opts),
        _ => unreachable!("workload validated by parse_args"),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            drop(opts);
            std::process::exit(1);
        }
    };
    let correct = out.verdict.failed == 0;
    for n in &out.verdict.notes {
        eprintln!("perfbench: mismatch: {n}");
    }
    let line = if opts.trace {
        traced_result(&opts, &out, correct)
    } else {
        untraced_result(&out, correct)
    };
    drop(opts);
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

/// Prints the report line and returns the end-to-end result object.
fn untraced_result(out: &Outcome, correct: bool) -> String {
    let e = harness::summarize(&out.rounds);
    let values = [
        ("setup_s", e.setup_s),
        ("wall_s", e.wall_s),
        ("cpu_s", e.cpu_s),
        ("throughput_ops_s", e.throughput_ops_s),
        ("latency_p50_ms", e.latency_p50_ms),
        ("latency_tail_ms", e.latency_tail_ms),
        ("latency_drift", e.latency_drift),
        ("peak_rss_mb", e.peak_rss_mb),
    ];
    let mut report: Vec<String> = values
        .iter()
        .chain(out.specific.iter())
        .chain(std::iter::once(&("failed_frac", out.verdict.failed_frac)))
        .map(|(name, v)| {
            let unit = END_TO_END
                .iter()
                .chain(metrics::WORKLOAD_SPECIFIC)
                .find(|d| d.name == *name)
                .map_or("", |d| d.unit);
            format!("{name}={} {unit}", metrics::num(*v))
        })
        .collect();
    report.push(format!("latency_tail_pct=p{}", e.latency_tail_pct));
    report.push(format!("ops={} rounds={}", e.ops, e.rounds));
    println!("report: {}", report.join(", "));
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .map(|d| {
            let v = values.iter().find(|(n, _)| *n == d.name).map(|(_, v)| *v);
            (
                d.name,
                d.unit,
                v.expect("every end-to-end metric is measured"),
            )
        })
        .collect();
    metrics::result_line(correct, out.verdict.attempted, out.verdict.failed, &metrics)
}

/// Writes the spans, prints the per-layer report and returns the
/// per-layer result object.
fn traced_result(opts: &Opts, out: &Outcome, correct: bool) -> String {
    let spans = trace::spans();
    let path =
        PathBuf::from(".bench_out").join(format!("{}-seed{}.trace.json", opts.workload, opts.seed));
    match trace::write(&path, &spans) {
        Ok(()) => println!("trace: {} spans -> {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    for (name, t) in trace::totals(&spans) {
        println!(
            "span {name}: count={} total_ms={:.3} self_ms={:.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let mut layers = out.layers.clone();
    layers.push(("trace.overhead_frac", harness::trace_overhead(&out.rounds)));
    for (name, _) in &layers {
        assert!(
            metrics::per_layer(name).is_some(),
            "{name} is not in the catalog"
        );
    }
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|d| {
            let v = layers
                .iter()
                .find(|(n, _)| *n == d.name)
                .map_or(0.0, |(_, v)| *v);
            println!(
                "layer {}={} {} ({} is better; moves {} on {})",
                d.name,
                metrics::num(v),
                d.unit,
                d.better,
                d.moves,
                d.on
            );
            (d.name, d.unit, v)
        })
        .collect();
    metrics::result_line(correct, out.verdict.attempted, out.verdict.failed, &metrics)
}
