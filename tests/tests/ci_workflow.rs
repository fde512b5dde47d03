//! Structural validation of `.github/workflows/ci.yml` (no YAML parser
//! is vendored, so this checks the structure a broken edit is most
//! likely to violate: indentation, required jobs/steps, and that every
//! script the workflow invokes exists and is executable) plus the CI
//! helper scripts themselves.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // tests/ -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn workflow() -> String {
    std::fs::read_to_string(repo_root().join(".github/workflows/ci.yml"))
        .expect("ci workflow exists")
}

/// Leading-space count of a line.
fn indent(line: &str) -> usize {
    line.len() - line.trim_start_matches(' ').len()
}

#[test]
fn workflow_is_structurally_valid_yaml() {
    let y = workflow();
    for (i, line) in y.lines().enumerate() {
        let n = i + 1;
        assert!(!line.contains('\t'), "ci.yml:{n}: tab in YAML");
        assert!(
            line.trim_end() == line,
            "ci.yml:{n}: trailing whitespace breaks some parsers"
        );
        if !line.trim().is_empty() {
            assert_eq!(indent(line) % 2, 0, "ci.yml:{n}: odd indentation");
        }
        // Flow-style `key: value` lines must not leave an unterminated
        // single/double quote.
        let quotes = line.matches('"').count();
        assert_eq!(quotes % 2, 0, "ci.yml:{n}: unbalanced double quote");
    }
    // Top-level skeleton.
    for key in ["name:", "on:", "jobs:"] {
        assert!(
            y.lines().any(|l| l.starts_with(key)),
            "ci.yml: missing top-level `{key}`"
        );
    }
    // Triggers: push to main and pull requests.
    assert!(y.contains("push:"), "ci.yml: missing push trigger");
    assert!(y.contains("pull_request:"), "ci.yml: missing PR trigger");
}

#[test]
fn workflow_defines_lint_and_test_jobs_with_caching() {
    let y = workflow();
    for job in ["  lint:", "  test:"] {
        assert!(
            y.lines().any(|l| l == job),
            "ci.yml: missing job `{}`",
            job.trim()
        );
    }
    // The lint job fails early and independently.
    assert!(y.contains("cargo clippy --all-targets -- -D warnings"));
    assert!(y.contains("cargo fmt --check"));
    // Both jobs cache the cargo registry and target dir, keyed on the
    // lockfile.
    assert_eq!(
        y.matches("uses: actions/cache@").count(),
        2,
        "ci.yml: both jobs must cache cargo artifacts"
    );
    assert!(y.contains("hashFiles('Cargo.lock')"));
    assert!(y.contains("~/.cargo/registry"));
    assert!(y.contains("target"));
    // The test job runs the staged pipeline without duplicating lint.
    assert!(y.contains("./ci.sh --skip-lint"));
}

#[test]
fn workflow_uploads_observability_artifacts() {
    let y = workflow();
    assert!(
        y.contains("uses: actions/upload-artifact@"),
        "ci.yml: missing artifact upload"
    );
    assert!(y.contains("exp_concurrent.trace.json"));
    assert!(y.contains("exp_concurrent.metrics.json"));
    assert!(y.contains("exp_serve.trace.json"));
    assert!(y.contains("exp_serve.metrics.json"));
    assert!(y.contains("exp_cluster.trace.json"));
    assert!(y.contains("exp_cluster.metrics.json"));
    assert!(y.contains("exp_latency.trace.json"));
    assert!(y.contains("exp_latency.metrics.json"));
    assert!(y.contains("exp_script.trace.json"));
    assert!(y.contains("exp_script.metrics.json"));
    assert!(
        y.contains("--trace") && y.contains("--json"),
        "ci.yml: exp run must request trace + metrics artifacts"
    );
}

#[test]
fn workflow_actions_are_version_pinned() {
    let y = workflow();
    for line in y.lines() {
        let Some(action) = line
            .trim()
            .strip_prefix("uses: ")
            .or_else(|| line.trim().strip_prefix("- uses: "))
        else {
            continue;
        };
        assert!(
            action.contains('@') && !action.ends_with("@main") && !action.ends_with("@master"),
            "ci.yml: action `{action}` must be pinned to a release tag"
        );
    }
}

#[test]
fn invoked_scripts_exist_and_are_executable() {
    #[cfg(unix)]
    use std::os::unix::fs::PermissionsExt;
    let root = repo_root();
    for script in ["ci.sh", "ci/bench_gate.sh"] {
        let path = root.join(script);
        let meta = std::fs::metadata(&path)
            .unwrap_or_else(|e| panic!("{script} referenced by CI is missing: {e}"));
        #[cfg(unix)]
        assert!(
            meta.permissions().mode() & 0o111 != 0,
            "{script} must be executable"
        );
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("#!"), "{script} must start with a shebang");
        assert!(
            body.contains("set -euo pipefail"),
            "{script} must fail fast"
        );
    }
    // The bench gate compares against a committed baseline that must
    // carry every gated counter.
    let baseline = std::fs::read_to_string(root.join("ci/BENCH_baseline.json")).unwrap();
    for key in [
        "hits",
        "recomputes",
        "evictions",
        "coalesced_hits",
        "duplicates",
        "serve_shed",
        "serve_coalesced",
        "serve_quota_evictions",
        "segments_recovered",
        "entries_rehydrated",
        "checksum_rejects",
        "manifest_swaps",
        "remote_hits",
        "remote_misses",
        "transfer_bytes",
        "rebalance_moves",
        "replica_hits",
        "replica_invalidations",
        "latency_served",
        "latency_p99_paper",
        "latency_p99_delayed",
        "latency_mad_evictions",
        "latency_ttna_rejects",
        "latency_delay_ticks_saved",
        "script_programs_fuzzed",
        "script_divergences",
        "script_lowered_nodes",
        "script_corpus_scripts",
        "script_corpus_digest",
    ] {
        assert!(
            baseline.contains(&format!("\"{key}\"")),
            "BENCH_baseline.json: missing gated counter `{key}`"
        );
    }
}

#[test]
fn ci_script_defines_all_stages() {
    let sh = std::fs::read_to_string(repo_root().join("ci.sh")).unwrap();
    for stage in [
        "stage_build",
        "stage_test",
        "stage_chaos",
        "stage_obs",
        "stage_concurrency",
        "stage_serve",
        "stage_cluster",
        "stage_recovery",
        "stage_latency",
        "stage_script",
        "stage_bench_gate",
        "stage_perf",
        "stage_perfbench",
        "stage_lint",
    ] {
        assert!(
            sh.contains(&format!("{stage}()")),
            "ci.sh: missing stage function {stage}"
        );
    }
    // The perf stage writes the committed perf report and gates the
    // deterministic counter slice against the same baseline as the
    // bench gate.
    assert!(sh.contains("--bin perf_stress"));
    assert!(sh.contains("BENCH_pr6.json ci/BENCH_baseline.json"));
    // The concurrency stage runs under both chaos seeds, parallel and
    // single-threaded.
    assert!(sh.contains("--test concurrency"));
    assert!(sh.contains("42 1337"));
    assert!(sh.contains("--skip-lint"));
    // The serve stage runs the disk-tier and serving suites plus the
    // full experiment binary.
    assert!(sh.contains("--test disk_tier"));
    assert!(sh.contains("--test serving"));
    assert!(sh.contains("--bin exp_serve"));
    // The cluster stage runs the sharding/churn/replication suite under
    // both chaos seeds (plus a single-threaded pass) and the full
    // experiment binary.
    assert!(sh.contains("--test cluster"));
    assert!(sh.contains("--bin exp_cluster"));
    // The recovery stage runs the crash-recovery differential suite
    // under both chaos seeds, with one single-threaded pass.
    assert!(sh.contains("--test crash_recovery"));
    // The latency stage runs the delayed-hits suite under both chaos
    // seeds (plus a single-threaded pass) and the full experiment
    // binary.
    assert!(sh.contains("--test latency"));
    assert!(sh.contains("--bin exp_latency"));
    // The script stage runs the frontend + fuzzer suites under both
    // chaos seeds (plus a single-threaded pass) and the full experiment
    // binary.
    assert!(sh.contains("--test script"));
    assert!(sh.contains("-p memphis-script"));
    assert!(sh.contains("--bin exp_script"));
    // The perfbench stage runs the benchmark's own tests and a short
    // correctness-checked `cluster` run, and is part of the default set.
    assert!(sh.contains("--manifest-path perfbench/Cargo.toml"));
    assert!(sh.contains("perfbench/run.py --workload cluster --seed 42 --seconds 2 --trace 0"));
    let all = sh
        .lines()
        .find(|l| l.starts_with("ALL_STAGES=("))
        .expect("ci.sh: ALL_STAGES missing");
    assert!(
        all.contains(" perfbench "),
        "ci.sh: perfbench not in ALL_STAGES"
    );
}

#[test]
fn ci_script_prints_stage_summary_on_failure() {
    // `set -e` kills the script mid-stage on the first red command; an
    // EXIT trap must still print the stage-timing summary and mark the
    // failing stage, or red runs lose their most useful output.
    let sh = std::fs::read_to_string(repo_root().join("ci.sh")).unwrap();
    assert!(
        sh.contains("trap print_summary EXIT"),
        "ci.sh: the stage summary must be installed as an EXIT trap"
    );
    let trap_fn = sh
        .split("print_summary()")
        .nth(1)
        .expect("ci.sh: print_summary function missing");
    let body: String = trap_fn.chars().take(1200).collect();
    assert!(
        body.contains("FAILED"),
        "ci.sh: the trap must mark the failing stage"
    );
    assert!(
        body.contains("local status=$?"),
        "ci.sh: the trap must capture the exit status before any command"
    );
    // The trap decides pass/fail from the recorded status, and the
    // in-flight stage is tracked so a mid-stage abort can be attributed.
    assert!(sh.contains("CURRENT_STAGE="));
    assert!(body.contains("ci: all checks passed"));
}
