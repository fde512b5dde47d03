#!/usr/bin/env bash
# Repo CI gate, split into named stages with per-stage wall-clock timing
# and a summary table. Run from the repo root.
#
# Usage: ./ci.sh [--skip-lint] [stage ...]
#   --skip-lint  omit the lint stage (CI runs it in a separate fast job)
#   stage ...    run only the named stages (see ALL_STAGES below);
#                default is all of them.
set -euo pipefail
cd "$(dirname "$0")"

STAGE_NAMES=()
STAGE_TIMES=()
CURRENT_STAGE=""
CURRENT_T0=0

# `set -e` aborts mid-stage on the first failing command, which used to
# skip the summary table entirely — the most useful output on a red run.
# The EXIT trap prints it unconditionally, marking the stage that died.
print_summary() {
    local status=$?
    echo
    echo "ci: stage summary"
    printf '  %-12s %8s\n' stage seconds
    local total=0
    for i in "${!STAGE_NAMES[@]}"; do
        printf '  %-12s %8s\n' "${STAGE_NAMES[$i]}" "${STAGE_TIMES[$i]}"
        total=$((total + STAGE_TIMES[$i]))
    done
    if [ "$status" -ne 0 ] && [ -n "$CURRENT_STAGE" ]; then
        local dt=$(($(date +%s) - CURRENT_T0))
        printf '  %-12s %8s  FAILED\n' "$CURRENT_STAGE" "$dt"
        total=$((total + dt))
    fi
    printf '  %-12s %8s\n' total "$total"
    if [ "$status" -eq 0 ]; then
        echo "ci: all checks passed"
    else
        echo "ci: FAILED${CURRENT_STAGE:+ in stage '$CURRENT_STAGE'} (exit $status)" >&2
    fi
}
trap print_summary EXIT

run_stage() {
    local name="$1"
    shift
    echo
    echo "=== stage: $name ==="
    CURRENT_STAGE="$name"
    CURRENT_T0=$(date +%s)
    "$@"
    local dt=$(($(date +%s) - CURRENT_T0))
    CURRENT_STAGE=""
    STAGE_NAMES+=("$name")
    STAGE_TIMES+=("$dt")
    echo "=== stage: $name done in ${dt}s ==="
}

stage_build() {
    cargo build --release
}

# The whole suite is the test matrix: every suite under both chaos
# seeds, in parallel and single-threaded (shakes out ordering, scratch
# directory and intern-order assumptions). The gate table
# (crates/bench/tests/gate.rs) runs as part of it. The disabled-mode
# zero-cost check also runs in a process of its own, where no earlier
# test has touched the recorder.
stage_test() {
    for seed in 42 1337; do
        CHAOS_SEED="$seed" cargo test -q
        CHAOS_SEED="$seed" cargo test -q -- --test-threads=1
    done
    cargo test -q -p memphis-integration --test obs_tracing disabled_mode
}

# The gate-scale experiments, once each: every one re-asserts its
# contract (digest invariance, the p99 drop, zero divergences) and
# writes the Chrome trace and metrics registry CI uploads. exp_ablations
# is the one run of maxParallelize on a Spark-placed program and of the
# delay-factor sweep.
stage_experiments() {
    for exp in exp_concurrent exp_serve exp_cluster exp_latency exp_script exp_ablations; do
        cargo run -q --release -p memphis-bench --bin "$exp" -- \
            --trace "$exp.trace.json" --json "$exp.metrics.json"
    done
}

# Perfbench stage: the end-to-end benchmark's own tests, then a short
# `cluster` run. perfbench exits non-zero when a batch's digest differs
# from the 1-node digest, or when a round ends with an orphaned replica
# or a move still pending; its timings are informational here.
stage_perfbench() {
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
    python3 perfbench/run.py --workload cluster --seed 42 --seconds 2 --trace 0
}

stage_lint() {
    cargo clippy --all-targets -- -D warnings
    cargo fmt --check
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
}

ALL_STAGES=(build test experiments perfbench lint)
SKIP_LINT=0
REQUESTED=()
for arg in "$@"; do
    case "$arg" in
        --skip-lint) SKIP_LINT=1 ;;
        *) REQUESTED+=("$arg") ;;
    esac
done
if [ "${#REQUESTED[@]}" -eq 0 ]; then
    REQUESTED=("${ALL_STAGES[@]}")
fi

for stage in "${REQUESTED[@]}"; do
    if [ "$stage" = lint ] && [ "$SKIP_LINT" = 1 ]; then
        continue
    fi
    if ! declare -F "stage_$stage" >/dev/null; then
        echo "ci: unknown stage '$stage' (known: ${ALL_STAGES[*]})" >&2
        exit 2
    fi
    run_stage "$stage" "stage_$stage"
done
