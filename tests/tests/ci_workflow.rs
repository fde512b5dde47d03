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

fn ci_script() -> String {
    std::fs::read_to_string(repo_root().join("ci.sh")).expect("ci.sh exists")
}

/// The body of `ci.sh`'s `stage_<name>` function.
fn stage_body(sh: &str, name: &str) -> String {
    let start = sh
        .find(&format!("stage_{name}() {{"))
        .unwrap_or_else(|| panic!("ci.sh: missing stage function stage_{name}"));
    let body = &sh[start..];
    body[..body.find("\n}\n").expect("ci.sh: unterminated stage")].to_string()
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
    // The lint job fails early and independently; it also builds the
    // docs with warnings denied, as `ci.sh`'s lint stage does.
    assert!(y.contains("cargo clippy --all-targets -- -D warnings"));
    assert!(y.contains("cargo fmt --check"));
    let doc = r#"RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace"#;
    assert!(y.contains(doc), "ci.yml: the lint job must build the docs");
    assert!(
        stage_body(&ci_script(), "lint").contains(doc),
        "ci.sh: the lint stage must build the docs"
    );
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

    // The experiments stage writes every uploaded artifact: it runs
    // each experiment once with both observability flags.
    let body = stage_body(&ci_script(), "experiments");
    assert!(
        body.contains(r#"--trace "$exp.trace.json" --json "$exp.metrics.json""#),
        "ci.sh: experiments must pass --trace and --json"
    );
    for artifact in y
        .lines()
        .map(str::trim)
        .filter(|l| l.ends_with(".trace.json") || l.ends_with(".metrics.json"))
    {
        let exp = artifact.split('.').next().unwrap();
        assert!(
            body.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .any(|w| w == exp),
            "ci.sh: experiments never runs {exp}, but CI uploads {artifact}"
        );
    }
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
    let path = repo_root().join("ci.sh");
    let meta = std::fs::metadata(&path)
        .unwrap_or_else(|e| panic!("ci.sh referenced by CI is missing: {e}"));
    #[cfg(unix)]
    assert!(
        meta.permissions().mode() & 0o111 != 0,
        "ci.sh must be executable"
    );
    let body = ci_script();
    assert!(body.starts_with("#!"), "ci.sh must start with a shebang");
    assert!(body.contains("set -euo pipefail"), "ci.sh must fail fast");
}

#[test]
fn ci_script_defines_all_stages() {
    let sh = ci_script();
    let all = sh
        .lines()
        .find_map(|l| l.strip_prefix("ALL_STAGES=("))
        .expect("ci.sh: ALL_STAGES missing");
    assert_eq!(all, "build test experiments perfbench lint)");
    for stage in all.trim_end_matches(')').split(' ') {
        assert!(
            sh.contains(&format!("stage_{stage}() {{")),
            "ci.sh: missing stage function stage_{stage}"
        );
    }
    assert!(sh.contains("--skip-lint"));
    // The test stage is a seed matrix over the whole suite: both chaos
    // seeds, each in parallel and single-threaded.
    let test = stage_body(&sh, "test");
    let seed_loop = test
        .split("for seed in 42 1337; do")
        .nth(1)
        .and_then(|rest| rest.split("done").next())
        .expect("ci.sh: the test stage must loop over seeds 42 and 1337");
    assert!(seed_loop.contains("CHAOS_SEED=\"$seed\" cargo test -q\n"));
    assert!(seed_loop.contains("CHAOS_SEED=\"$seed\" cargo test -q -- --test-threads=1"));
    // The perfbench stage runs the benchmark's own tests and a short
    // correctness-checked `cluster` run.
    let perfbench = stage_body(&sh, "perfbench");
    assert!(perfbench.contains("--manifest-path perfbench/Cargo.toml"));
    assert!(
        perfbench.contains("perfbench/run.py --workload cluster --seed 42 --seconds 2 --trace 0")
    );
}

#[test]
fn ci_script_prints_stage_summary_on_failure() {
    // `set -e` kills the script mid-stage on the first red command; an
    // EXIT trap must still print the stage-timing summary and mark the
    // failing stage, or red runs lose their most useful output.
    let sh = ci_script();
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
