#!/usr/bin/env bash
# Local CI: format, lint, build, test — offline-friendly (no network,
# vendored deps only). Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release =="
cargo build --workspace --release --offline

echo "== cargo test =="
cargo test --workspace --offline -q

echo "== one executor: only serving, its bench and the facade use hyppo-sched =="
# Plan search (DESIGN.md §9) and plan execution are serial in every
# backend; the scheduler's one production consumer is the serving pool. Its
# direct dependents must be exactly the facade (re-export), the bench crate
# (scheduler bench) and hyppo-serve. This also keeps hyppo-core off the
# scheduler: any path from it would run through one of those three, which
# all depend on hyppo-core.
sched_users=$(cargo tree --offline --workspace -e normal -i hyppo-sched --depth 1 --prefix none \
    | tail -n +2 | awk '{print $1}' | sort -u | tr '\n' ' ')
if [ "$sched_users" != "hyppo hyppo-bench hyppo-serve " ]; then
    echo "unexpected direct dependents of hyppo-sched: $sched_users" >&2
    exit 1
fi

echo "== sched == scheduler determinism suite"
# Scheduler gate (crates/sched, DESIGN.md §16): tenant serving, the
# scheduler's one consumer, must stay bit-identical to serial at every
# worker count, whichever worker claims each tenant turn from the FIFO run
# queue. The scheduler's own unit tests run with `cargo test -p hyppo-sched`
# above; the bench artifact BENCH_sched.json (claim throughput in serving's
# re-inject traffic shape + the queue's counters) is committed at the repo
# root and refreshed by `cargo bench --bench sched -- --bench` — those
# numbers are reported, never asserted.
cargo test --offline -q --test sched_determinism
test -f BENCH_sched.json || { echo "BENCH_sched.json missing" >&2; exit 1; }

echo "== sched loop == scheduler-backed suites, 20 runs each"
# A scheduler race shows up as a rare hang, abort or wrong result, so one
# green run proves little. Each compiled test binary below runs 20 times,
# every run under `timeout`; any hang (exit 124), abort or failure fails
# the stage and prints that run's output.
test_binary() {
    cargo test --offline --no-run --message-format=json "$@" 2>/dev/null \
        | grep '"profile":{[^}]*"test":true}' | grep -o '"executable":"[^"]*"' | tail -n 1 | cut -d'"' -f4
}
loop_log=target/sched-loop.log
mkdir -p target
for target in "--test sched_determinism" "--test batch_planning_props" \
        "--test backend_equivalence" "-p hyppo-sched --lib" \
        "-p hyppo-serve --test admission_props"; do
    # shellcheck disable=SC2086 # $target is deliberately word-split
    bin=$(test_binary $target) || true
    [ -x "$bin" ] || { echo "no test binary for: $target" >&2; exit 1; }
    for run in $(seq 1 20); do
        status=0
        timeout 300 "$bin" -q > "$loop_log" 2>&1 || status=$?
        if [ "$status" -ne 0 ]; then
            echo "sched loop: $target failed on run $run (exit $status):" >&2
            tail -n 40 "$loop_log" >&2
            exit 1
        fi
    done
    echo "sched loop: $target passed 20/20"
done

echo "== persist: crash-recovery property suite =="
# Durability gate (crates/persist, DESIGN.md §12): recovery must be
# bit-identical across 100+ seeded sessions, at every WAL record boundary,
# and after mid-record torn tails. (The persist bench itself runs its
# quick smoke pass under the `cargo bench --no-run`-compiled binaries and
# rewrites BENCH_persist.json only when invoked as a dedicated target.)
cargo test --offline -q -p hyppo-persist
cargo test --offline -q --test persist_recovery_props

echo "== hyppo-lint =="
# Determinism & concurrency static analysis (crates/lint): per-file rules
# (nondeterministic hash iteration, wall-clock in plan decisions,
# unjustified relaxed atomics, undocumented unsafe, nested lock
# acquisition, the removed pre-Planner API, raw filesystem writes in
# durability-critical crates) plus the interprocedural passes over the
# workspace call graph: lock-order cycles and blocking calls reachable
# inside critical sections (DESIGN.md §15). The enriched JSON artifact
# (findings + summary block) is archived so failures print structured
# findings and dashboards can diff suppression counts across commits.
mkdir -p target
if ! cargo run -q -p hyppo-lint --offline -- --json > target/hyppo-lint.json; then
    echo "hyppo-lint found violations:" >&2
    cat target/hyppo-lint.json >&2
    cargo run -q -p hyppo-lint --offline >&2 || true
    exit 1
fi
# Suppression hygiene: a clean run must also carry zero unused
# suppressions — every `hyppo-lint: allow(...)` in the tree still matches
# a live finding, or it gets deleted.
if ! grep -q '"unused":0' target/hyppo-lint.json; then
    echo "hyppo-lint: stale suppressions (unused != 0):" >&2
    cat target/hyppo-lint.json >&2
    exit 1
fi
# Negative self-test: the lint must still *find* things. The violating
# fixture workspace seeds a cross-crate lock-order cycle and an
# fsync-under-guard; a zero exit here means the analysis went blind.
if cargo run -q -p hyppo-lint --offline -- \
        --root crates/lint/tests/fixtures/lock_cycle_ws > /dev/null 2>&1; then
    echo "hyppo-lint: negative self-test failed — violating fixture workspace passed" >&2
    exit 1
fi

echo "== cargo doc (deny rustdoc warnings) =="
# Missing or broken docs fail the build: hypergraph, core, persist,
# serve, and sched all carry #![deny(missing_docs)], and
# -D warnings promotes broken intra-doc links and the rest of rustdoc's
# lints everywhere else (the --workspace sweep includes the sched crate
# and its compiling service-mode doctest).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo bench --no-run (benches must compile) =="
cargo bench --workspace --no-run --offline

echo "CI OK"
