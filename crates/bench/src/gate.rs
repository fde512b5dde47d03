//! The bench gate's report plumbing: the flat JSON object that
//! `ci/BENCH_baseline.json` holds, and the exact comparison of a gate
//! table with it. The table itself is built by the gate test,
//! `tests/gate.rs`.
//!
//! The vendored serde is serialize-only, so both ends of the report are
//! hand-rolled: a flat `{"key": integer, ...}` object is all the gate
//! needs. Every row is gated, and the comparison is equality, because
//! every counter in the table is deterministic by construction.

use std::collections::BTreeMap;

/// Renders a table as the flat JSON object the baseline file holds.
pub fn render(table: &[(&str, u64)]) -> String {
    let rows: Vec<String> = table
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

/// Parses the `"key": value` lines of a flat JSON object.
pub fn parse(json: &str) -> BTreeMap<String, u64> {
    json.lines()
        .filter_map(|line| {
            let (k, v) = line.split_once(':')?;
            let v = v.trim().trim_end_matches(',').parse().ok()?;
            Some((k.trim().trim_matches('"').to_string(), v))
        })
        .collect()
}

/// Every divergence of a table from the baseline: a changed value, or
/// a key present on only one side.
pub fn divergences(table: &[(&str, u64)], baseline: &BTreeMap<String, u64>) -> Vec<String> {
    let mut out: Vec<String> = table
        .iter()
        .filter_map(|&(k, v)| match baseline.get(k) {
            Some(&want) if want == v => None,
            Some(&want) => Some(format!("{k}: {v} != baseline {want}")),
            None => Some(format!("{k}: {v} has no baseline")),
        })
        .collect();
    out.extend(
        baseline
            .iter()
            .filter(|(k, _)| !table.iter().any(|(t, _)| t == k))
            .map(|(k, want)| format!("{k}: baseline {want} has no row")),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// The committed baseline, parsed.
    fn committed() -> BTreeMap<String, u64> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/BENCH_baseline.json");
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        parse(&json)
    }

    /// Asserts that the committed baseline holds every key of a slice,
    /// and that changing any one of them fails the gate with exactly
    /// that divergence.
    fn assert_slice_gated(slice: &[&str]) {
        let baseline = committed();
        let table: Vec<(&str, u64)> = baseline.iter().map(|(k, &v)| (k.as_str(), v)).collect();
        assert!(divergences(&table, &baseline).is_empty());
        for &key in slice {
            let want = *baseline
                .get(key)
                .unwrap_or_else(|| panic!("{key} is not in ci/BENCH_baseline.json"));
            let changed: Vec<(&str, u64)> = table
                .iter()
                .map(|&(k, v)| (k, if k == key { v ^ 1 } else { v }))
                .collect();
            assert_eq!(
                divergences(&changed, &baseline),
                [format!("{key}: {} != baseline {want}", want ^ 1)]
            );
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let table = [("hits", 448), ("script_corpus_digest", u64::MAX)];
        let parsed = parse(&render(&table));
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed.get("hits"), Some(&448));
        assert_eq!(parsed.get("script_corpus_digest"), Some(&u64::MAX));
        assert!(divergences(&table, &parsed).is_empty());
    }

    #[test]
    fn compare_flags_only_gated_divergence() {
        let base = parse(&render(&[
            ("hits", 448),
            ("recomputes", 64),
            ("serve_shed", 6),
        ]));
        let report = [("hits", 448), ("recomputes", 64), ("serve_shed", 6)];
        assert!(divergences(&report, &base).is_empty());

        let bad = [("hits", 447), ("recomputes", 64), ("serve_shed", 6)];
        assert_eq!(divergences(&bad, &base), ["hits: 447 != baseline 448"]);
    }

    #[test]
    fn compare_reports_missing_keys() {
        let base = parse(&render(&[("hits", 1), ("recomputes", 2)]));
        assert_eq!(
            divergences(&[("hits", 1)], &base),
            ["recomputes: baseline 2 has no row"]
        );
        assert_eq!(
            divergences(&[("hits", 1), ("recomputes", 2), ("new_key", 0)], &base),
            ["new_key: 0 has no baseline"]
        );
    }

    #[test]
    fn compare_keys_gates_the_recovery_slice() {
        assert_slice_gated(&[
            "segments_recovered",
            "entries_recovered",
            "entries_rehydrated",
            "checksum_rejects",
            "manifest_swaps",
            "spill_sync_points",
            "spill_spills",
        ]);
    }

    #[test]
    fn compare_keys_gates_the_cluster_slice() {
        assert_slice_gated(&[
            "remote_hits",
            "remote_misses",
            "transfer_bytes",
            "rebalance_moves",
            "replica_hits",
            "replica_invalidations",
            "handoff_hits",
            "remote_coalesced",
            "cluster_computes",
        ]);
    }

    #[test]
    fn compare_keys_gates_the_latency_slice() {
        assert_slice_gated(&[
            "latency_served",
            "latency_p99_paper",
            "latency_p99_delayed",
            "latency_mad_evictions",
            "latency_ttna_rejects",
            "latency_delay_ticks_saved",
        ]);
    }

    #[test]
    fn compare_keys_gates_the_script_slice() {
        assert_slice_gated(&[
            "script_programs_fuzzed",
            "script_divergences",
            "script_lowered_nodes",
            "script_corpus_scripts",
            "script_corpus_digest",
        ]);
    }
}
