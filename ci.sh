#!/usr/bin/env bash
# Repo CI gate, split into named stages with per-stage wall-clock timing
# and a summary table. Run from the repo root.
#
# Usage: ./ci.sh [--skip-lint] [stage ...]
#   --skip-lint  omit the lint stage (CI runs it in a separate fast job)
#   stage ...    run only the named stages (build test chaos obs
#                concurrency serve cluster recovery latency script
#                bench_gate perf perfbench lint); default is all of them.
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

stage_test() {
    cargo test -q
    # The whole suite must also pass single-threaded (shakes out
    # ordering assumptions).
    cargo test -q -- --test-threads=1
}

# Chaos suite: seeded fault injection must recover deterministically
# under two fixed seeds.
stage_chaos() {
    for seed in 42 1337; do
        CHAOS_SEED="$seed" cargo test -q -p memphis-sparksim --test chaos
        CHAOS_SEED="$seed" cargo test -q -p memphis-integration --test chaos_end_to_end
    done
}

# Observability suite: the golden Chrome-trace schema and the
# async-prefetch overlap assertions must hold under both chaos seeds
# (the trace shape is seed-independent), and the disabled-mode
# zero-cost guarantee must hold in isolation.
stage_obs() {
    for seed in 42 1337; do
        CHAOS_SEED="$seed" cargo test -q -p memphis-integration --test obs_tracing \
            -- --test-threads=1 golden_chrome_trace async_prefetch
    done
    cargo test -q -p memphis-integration --test obs_tracing disabled_mode
}

# Concurrency stress suite: the sharded-cache coalescing invariants
# (no duplicate computation of a shared lineage id, no deadlock under
# eviction pressure, thread-count-invariant counters) under both chaos
# seeds, parallel and single-threaded.
stage_concurrency() {
    for seed in 42 1337; do
        CHAOS_SEED="$seed" cargo test -q -p memphis-integration --test concurrency
        CHAOS_SEED="$seed" cargo test -q -p memphis-integration --test concurrency \
            -- --test-threads=1
        CHAOS_SEED="$seed" cargo test -q -p memphis-workloads serve
    done
}

# Serving suite: the disk-tier spill/promote/fault tests and the
# serving scheduler's determinism + isolation contract under both chaos
# seeds, then the full exp_serve experiment (which re-asserts the
# contract at gate scale across worker counts and a 30% fault storm).
stage_serve() {
    for seed in 42 1337; do
        CHAOS_SEED="$seed" cargo test -q -p memphis-integration --test disk_tier
        CHAOS_SEED="$seed" cargo test -q -p memphis-integration --test serving
        CHAOS_SEED="$seed" cargo test -q -p memphis-serve
    done
    cargo run -q --release -p memphis-bench --bin exp_serve
}

# Cluster suite: node-count invariance, bounded lossless churn, remote
# coalescing, and hotspot flattening under both chaos seeds (plus one
# single-threaded pass), then the full exp_cluster experiment (which
# re-asserts digest invariance across node counts {1,2,4,8}, across
# mid-run join/leave, and the replication flattening claim).
stage_cluster() {
    for seed in 42 1337; do
        CHAOS_SEED="$seed" cargo test -q -p memphis-cluster
        CHAOS_SEED="$seed" cargo test -q -p memphis-integration --test cluster
    done
    CHAOS_SEED=42 cargo test -q -p memphis-integration --test cluster \
        -- --test-threads=1
    cargo run -q --release -p memphis-bench --bin exp_cluster
}

# Crash-recovery suite: the kill-at-every-sync differential sweep and
# the torn-write/corruption proptest over the durable disk tier, under
# both chaos seeds, plus one single-threaded pass (shakes out scratch
# directory and intern-order assumptions).
stage_recovery() {
    for seed in 42 1337; do
        CHAOS_SEED="$seed" cargo test -q -p memphis-integration --test crash_recovery
    done
    CHAOS_SEED=42 cargo test -q -p memphis-integration --test crash_recovery \
        -- --test-threads=1
}

# Latency suite: the delayed-hits eviction/admission layer — TTNA
# tracking, the zero-waiter eq. (1) fixed point, MURS admission
# shedding, and policy-independent served digests under both chaos
# seeds (plus one single-threaded pass), then the full exp_latency
# experiment (which re-asserts the p99 drop at gate scale for seeds
# 42 and 1337).
stage_latency() {
    for seed in 42 1337; do
        CHAOS_SEED="$seed" cargo test -q -p memphis-integration --test latency
    done
    CHAOS_SEED=42 cargo test -q -p memphis-integration --test latency \
        -- --test-threads=1
    cargo run -q --release -p memphis-bench --bin exp_latency
}

# Script suite: the DML frontend's round-trip and span-diagnostic
# contract, the corpus/builder-twin digest identity, and the structured
# differential fuzzer under both chaos seeds (plus one single-threaded
# pass), then the full exp_script experiment (corpus differential +
# 200 generated programs per seed, zero divergences).
stage_script() {
    for seed in 42 1337; do
        CHAOS_SEED="$seed" cargo test -q -p memphis-script
        CHAOS_SEED="$seed" cargo test -q -p memphis-workloads script
        CHAOS_SEED="$seed" cargo test -q -p memphis-integration --test script
    done
    CHAOS_SEED=42 cargo test -q -p memphis-integration --test script \
        -- --test-threads=1
    cargo run -q --release -p memphis-bench --bin exp_script
}

# Bench smoke gate: deterministic reuse/eviction/coalescing counters
# must match the committed baseline exactly.
stage_bench_gate() {
    ci/bench_gate.sh
}

# Perf stage: the gate workloads at baseline scale (exact-match counter
# gate) plus a ~10x serving/concurrency stress under virtual time,
# reporting ops/sec and p50/p99 latency into BENCH_pr6.json. Wall-clock
# keys are informational; any gated-counter divergence fails the stage.
stage_perf() {
    cargo build --release -q -p memphis-bench --bin perf_stress
    ./target/release/perf_stress BENCH_pr6.json ci/BENCH_baseline.json
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
}

ALL_STAGES=(build test chaos obs concurrency serve cluster recovery latency script bench_gate perf perfbench lint)
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
    case "$stage" in
        build|test|chaos|obs|concurrency|serve|cluster|recovery|latency|script|bench_gate|perf|perfbench|lint)
            run_stage "$stage" "stage_$stage" ;;
        *)
            echo "ci: unknown stage '$stage' (known: ${ALL_STAGES[*]})" >&2
            exit 2 ;;
    esac
done
