//! The metric catalog: every metric the benchmark prints, with its unit
//! and direction, and for each per-layer metric the end-to-end metric it
//! should move and on which workload. `BENCHMARK.json` lists the same
//! names and units; a test keeps the two in step.

/// One workload of the benchmark.
pub struct WorkloadDef {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Closed or open loop.
    pub looping: &'static str,
    /// Client count (closed loop) or offered rate (open loop).
    pub load: &'static str,
    /// Why the workload is in the set.
    pub why: &'static str,
}

/// The workloads, in `BENCHMARK.json` order. Their `why` there reads
/// `"<looping> loop, <load>; <why>"`.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "pipelines",
        looping: "closed",
        load: "1 client",
        why: "op = hcv/pnmf/hband on sparksim then tlvis/en2de on gpusim, fresh backends, reuse on: the paper's end-to-end case, Spark jobs and GPU alloc/copy dominate",
    },
    WorkloadDef {
        name: "script",
        looping: "closed",
        load: "1 client",
        why: "seeded stream of small DML programs with skewed repeats on one context, cache far above working set: Fig 11 regime, tracing/probing/compile dominate",
    },
    WorkloadDef {
        name: "spill",
        looping: "closed",
        load: "1 client",
        why: "the script stream with a local budget far below the working set and spill-to-disk on: eviction scans, CRC'd appends, disk hits, compaction",
    },
    WorkloadDef {
        name: "serve",
        looping: "open",
        load: "2 req/tick in virtual time, 1 worker",
        why: "multi-tenant trace with a hog under quota through Scheduler: admission, queueing, shedding, coalescing",
    },
    WorkloadDef {
        name: "cluster",
        looping: "closed",
        load: "1 client",
        why: "op = one 500-request batch of a skewed trace through ClusterDispatcher on 4 nodes with a join and a leave: HRW placement, remote probes, rebalancing",
    },
];

/// One metric.
pub struct MetricDef {
    /// Printed name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// For per-layer metrics: the end-to-end metrics it should move.
    pub moves: &'static str,
    /// For per-layer metrics: the workloads where it should move.
    pub on: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves: "",
        on: "",
    }
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
        on,
    }
}

/// End-to-end metrics every workload reports with `--trace 0`; these are
/// the `end_to_end` entries of `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("cpu_s", "s", "lower"),
    m("throughput_ops_s", "ops/s", "higher"),
    m("latency_p50_ms", "ms", "lower"),
    m("latency_tail_ms", "ms", "lower"),
    m("latency_drift", "ratio", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// End-to-end metrics that apply to some workloads only (or can be 0).
/// They are printed on the report line before the result, not in the
/// result object.
pub const WORKLOAD_SPECIFIC: &[MetricDef] = &[
    l("modelled_s", "s", "lower", "", "pipelines"),
    l("virtual_p50_ticks", "ticks", "lower", "", "serve"),
    l("virtual_p99_ticks", "ticks", "lower", "", "serve"),
    l("max_rate", "req/tick", "higher", "", "serve"),
    l("fabric_ticks_per_op", "ticks", "lower", "", "cluster"),
    l("failed_frac", "ratio", "lower", "", "all"),
];

/// Per-layer metrics every workload reports with `--trace 1` (0 where a
/// layer is not exercised); these are the `per_layer` entries of
/// `BENCHMARK.json`.
pub const PER_LAYER: &[MetricDef] = &[
    l(
        "script.compile_us",
        "us",
        "lower",
        "latency_p50_ms cpu_s",
        "script spill",
    ),
    l(
        "engine.run_ms",
        "ms",
        "lower",
        "wall_s latency_p50_ms",
        "pipelines script",
    ),
    l(
        "engine.instructions",
        "count",
        "lower",
        "wall_s latency_p50_ms",
        "pipelines script",
    ),
    l(
        "engine.reused_frac",
        "ratio",
        "higher",
        "wall_s latency_p50_ms",
        "pipelines script",
    ),
    l(
        "lineage.trace_ns_per_instr",
        "ns",
        "lower",
        "cpu_s throughput_ops_s",
        "script (no change on pipelines)",
    ),
    l(
        "cache.probe_ns_per_instr",
        "ns",
        "lower",
        "cpu_s latency_p50_ms",
        "script",
    ),
    l(
        "cache.hit_frac",
        "ratio",
        "higher",
        "modelled_s latency_p50_ms throughput_ops_s",
        "pipelines script spill serve",
    ),
    l(
        "cache.hits_local",
        "count",
        "higher",
        "modelled_s latency_p50_ms",
        "pipelines script spill",
    ),
    l(
        "cache.hits_rdd",
        "count",
        "higher",
        "modelled_s",
        "pipelines",
    ),
    l(
        "cache.hits_gpu",
        "count",
        "higher",
        "modelled_s",
        "pipelines",
    ),
    l(
        "cache.hits_disk",
        "count",
        "higher",
        "latency_p50_ms",
        "spill",
    ),
    l(
        "cache.hits_func",
        "count",
        "higher",
        "modelled_s latency_p50_ms",
        "pipelines script",
    ),
    l(
        "cache.puts",
        "count",
        "lower",
        "latency_p50_ms",
        "script spill",
    ),
    l(
        "cache.coalesced_hits",
        "count",
        "higher",
        "throughput_ops_s",
        "serve",
    ),
    l(
        "cache.evictions",
        "count",
        "lower",
        "latency_drift latency_tail_ms",
        "spill (zero on script)",
    ),
    l(
        "cache.entries_end",
        "count",
        "lower",
        "latency_drift latency_tail_ms",
        "spill script",
    ),
    l(
        "disk.spills",
        "count",
        "lower",
        "latency_tail_ms wall_s",
        "spill",
    ),
    l(
        "disk.hits",
        "count",
        "higher",
        "latency_tail_ms wall_s",
        "spill",
    ),
    l(
        "disk.bytes_on_disk",
        "bytes",
        "lower",
        "latency_tail_ms wall_s",
        "spill",
    ),
    l(
        "disk.write_amp",
        "ratio",
        "lower",
        "latency_tail_ms wall_s",
        "spill",
    ),
    l(
        "disk.manifest_swaps",
        "count",
        "lower",
        "latency_tail_ms wall_s",
        "spill",
    ),
    l(
        "disk.io_errors",
        "count",
        "lower",
        "latency_tail_ms wall_s",
        "spill",
    ),
    l(
        "sparksim.jobs",
        "count",
        "lower",
        "modelled_s wall_s",
        "pipelines",
    ),
    l(
        "sparksim.tasks",
        "count",
        "lower",
        "modelled_s wall_s",
        "pipelines",
    ),
    l(
        "sparksim.shuffle_mb",
        "MiB",
        "lower",
        "modelled_s wall_s",
        "pipelines",
    ),
    l(
        "sparksim.modelled_ms",
        "ms",
        "lower",
        "modelled_s wall_s",
        "pipelines",
    ),
    l(
        "gpusim.kernels",
        "count",
        "lower",
        "modelled_s wall_s",
        "pipelines",
    ),
    l(
        "gpusim.allocs",
        "count",
        "lower",
        "modelled_s wall_s",
        "pipelines",
    ),
    l(
        "gpusim.recycled",
        "count",
        "higher",
        "modelled_s wall_s",
        "pipelines",
    ),
    l(
        "gpusim.alloc_wait_ms",
        "ms",
        "lower",
        "modelled_s wall_s",
        "pipelines",
    ),
    l(
        "gpusim.xfer_wait_ms",
        "ms",
        "lower",
        "modelled_s wall_s",
        "pipelines",
    ),
    l(
        "gpusim.compute_ms",
        "ms",
        "lower",
        "modelled_s wall_s",
        "pipelines",
    ),
    l(
        "serve.run_us_per_req",
        "us",
        "lower",
        "throughput_ops_s virtual_p99_ticks",
        "serve",
    ),
    l(
        "serve.shed",
        "count",
        "lower",
        "failed_frac max_rate",
        "serve",
    ),
    l(
        "serve.rejected",
        "count",
        "lower",
        "failed_frac max_rate",
        "serve",
    ),
    l(
        "serve.retries",
        "count",
        "lower",
        "virtual_p99_ticks",
        "serve",
    ),
    l(
        "serve.coalesced",
        "count",
        "higher",
        "throughput_ops_s",
        "serve",
    ),
    l(
        "serve.quota_evictions",
        "count",
        "lower",
        "virtual_p99_ticks",
        "serve",
    ),
    l(
        "cluster.batch_ms",
        "ms",
        "lower",
        "latency_p50_ms latency_drift",
        "cluster",
    ),
    l(
        "cluster.remote_hit_frac",
        "ratio",
        "lower",
        "fabric_ticks_per_op latency_p50_ms",
        "cluster",
    ),
    l(
        "cluster.replica_hits",
        "count",
        "higher",
        "fabric_ticks_per_op",
        "cluster",
    ),
    l(
        "cluster.transfer_mb",
        "MiB",
        "lower",
        "fabric_ticks_per_op",
        "cluster",
    ),
    l(
        "cluster.rebalance_moves",
        "count",
        "lower",
        "latency_drift fabric_ticks_per_op",
        "cluster",
    ),
    l("trace.overhead_frac", "ratio", "lower", "(none)", "all"),
];

/// The catalog entry of a per-layer metric.
pub fn per_layer(name: &str) -> Option<&'static MetricDef> {
    PER_LAYER.iter().find(|d| d.name == name)
}

/// Formats a number with all its digits (JSON-safe; non-finite as 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result object printed as the last line of standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn list<'a>(root: &'a Json, key: &str) -> &'a [Json] {
        root.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key} is a string"))
    }

    fn check_metrics(entries: &[Json], defs: &[MetricDef]) {
        let names: Vec<&str> = entries.iter().map(|e| field(e, "name")).collect();
        let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(names, want);
        for (e, d) in entries.iter().zip(defs) {
            assert_eq!(field(e, "unit"), d.unit, "{}", d.name);
            assert_eq!(field(e, "better"), d.better, "{}", d.name);
        }
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let root = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        check_metrics(list(&root, "end_to_end"), END_TO_END);
        check_metrics(list(&root, "per_layer"), PER_LAYER);
        let workloads = list(&root, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (e, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(e, "name"), w.name);
            let why = format!("{} loop, {}; {}", w.looping, w.load, w.why);
            assert_eq!(field(e, "why"), why);
            assert!(
                why.len() <= 200,
                "{}: why is {} characters",
                w.name,
                why.len()
            );
        }
        for e in list(&root, "end_to_end") {
            let bound = e.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn per_layer_entries_name_what_they_move() {
        for d in PER_LAYER {
            assert!(!d.moves.is_empty() && !d.on.is_empty(), "{}", d.name);
            for m in d.moves.split(' ').filter(|m| *m != "(none)") {
                assert!(
                    END_TO_END
                        .iter()
                        .chain(WORKLOAD_SPECIFIC)
                        .any(|e| e.name == m),
                    "{}: {m} is not an end-to-end metric",
                    d.name
                );
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_result_keys() {
        let line = result_line(true, 3, 0, &[("wall_s", "s", 1.25), ("setup_s", "s", 0.5)]);
        let v = json::parse(&line).expect("result line is JSON");
        let Json::Object(top) = &v else {
            panic!("object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    /// A small JSON reader, enough to check `BENCHMARK.json` and the
    /// result line.
    mod json {
        #[derive(Debug, Clone, PartialEq)]
        pub enum Json {
            Null,
            Bool(bool),
            Num(f64),
            Str(String),
            Array(Vec<Json>),
            Object(Vec<(String, Json)>),
        }

        impl Json {
            pub fn get(&self, key: &str) -> Option<&Json> {
                match self {
                    Json::Object(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                    _ => None,
                }
            }
            pub fn as_array(&self) -> Option<&[Json]> {
                match self {
                    Json::Array(v) => Some(v),
                    _ => None,
                }
            }
            pub fn as_str(&self) -> Option<&str> {
                match self {
                    Json::Str(s) => Some(s),
                    _ => None,
                }
            }
            pub fn as_f64(&self) -> Option<f64> {
                match self {
                    Json::Num(n) => Some(*n),
                    _ => None,
                }
            }
        }

        pub fn parse(src: &str) -> Option<Json> {
            let mut p = Parser {
                s: src.as_bytes(),
                i: 0,
            };
            let v = p.value()?;
            p.ws();
            (p.i == p.s.len()).then_some(v)
        }

        struct Parser<'a> {
            s: &'a [u8],
            i: usize,
        }

        impl Parser<'_> {
            fn ws(&mut self) {
                while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                    self.i += 1;
                }
            }
            fn eat(&mut self, c: u8) -> Option<()> {
                self.ws();
                (self.s.get(self.i) == Some(&c)).then(|| self.i += 1)
            }
            fn value(&mut self) -> Option<Json> {
                self.ws();
                match *self.s.get(self.i)? {
                    b'{' => {
                        self.i += 1;
                        let mut kv = Vec::new();
                        if self.eat(b'}').is_some() {
                            return Some(Json::Object(kv));
                        }
                        loop {
                            self.ws();
                            let Json::Str(k) = self.string()? else {
                                return None;
                            };
                            self.eat(b':')?;
                            kv.push((k, self.value()?));
                            if self.eat(b',').is_none() {
                                self.eat(b'}')?;
                                return Some(Json::Object(kv));
                            }
                        }
                    }
                    b'[' => {
                        self.i += 1;
                        let mut v = Vec::new();
                        if self.eat(b']').is_some() {
                            return Some(Json::Array(v));
                        }
                        loop {
                            v.push(self.value()?);
                            if self.eat(b',').is_none() {
                                self.eat(b']')?;
                                return Some(Json::Array(v));
                            }
                        }
                    }
                    b'"' => self.string(),
                    b't' => self.word("true", Json::Bool(true)),
                    b'f' => self.word("false", Json::Bool(false)),
                    b'n' => self.word("null", Json::Null),
                    _ => {
                        let start = self.i;
                        while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i])
                        {
                            self.i += 1;
                        }
                        std::str::from_utf8(&self.s[start..self.i])
                            .ok()?
                            .parse()
                            .ok()
                            .map(Json::Num)
                    }
                }
            }
            fn word(&mut self, w: &str, v: Json) -> Option<Json> {
                self.s[self.i..].starts_with(w.as_bytes()).then(|| {
                    self.i += w.len();
                    v
                })
            }
            fn string(&mut self) -> Option<Json> {
                if self.s.get(self.i) != Some(&b'"') {
                    return None;
                }
                self.i += 1;
                let mut out = String::new();
                loop {
                    match *self.s.get(self.i)? {
                        b'"' => {
                            self.i += 1;
                            return Some(Json::Str(out));
                        }
                        b'\\' => {
                            let c = *self.s.get(self.i + 1)?;
                            out.push(match c {
                                b'n' => '\n',
                                b't' => '\t',
                                other => other as char,
                            });
                            self.i += 2;
                        }
                        _ => {
                            let rest = std::str::from_utf8(&self.s[self.i..]).ok()?;
                            let ch = rest.chars().next()?;
                            out.push(ch);
                            self.i += ch.len_utf8();
                        }
                    }
                }
            }
        }
    }
}
