//! Fixture-based rule tests: every rule has one violating and one clean
//! snippet under `tests/fixtures/`, and each violating snippet must produce
//! exactly the expected `(rule, line)` findings — no more, no fewer. The
//! fixtures are linted under a virtual path inside the planner scope
//! (`crates/core/src/optimizer/`), where every rule applies.
//!
//! The `fixtures/` directory name is on the workspace walker's skip list,
//! so these deliberately-violating snippets never fail a real scan.

use hyppo_lint::{
    lint_source, DEPRECATED_API, DIRECT_FS_WRITE, MALFORMED_ALLOW, NESTED_LOCK, NONDET_ITERATION,
    RELAXED_ORDERING, THREAD_SPAWN, UNSAFE_COMMENT, WALL_CLOCK,
};
use std::fs;
use std::path::{Path, PathBuf};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Lint a fixture as if it lived in the planner, where every rule applies.
fn lint_fixture(name: &str) -> Vec<(&'static str, usize)> {
    let text = fs::read_to_string(fixture_path(name)).unwrap();
    lint_source(&format!("crates/core/src/optimizer/{name}"), &text)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn nondet_iteration_fixture_pair() {
    assert_eq!(lint_fixture("nondet_iteration_bad.rs"), vec![(NONDET_ITERATION, 5)]);
    assert_eq!(lint_fixture("nondet_iteration_ok.rs"), vec![]);
}

/// The batch planner's stage-tree merge (`optimizer/batch.rs`) collects
/// groups into hash-keyed membership maps; this pair pins the rule that
/// guards its emission order against hash-seed nondeterminism.
#[test]
fn batch_merge_fixture_pair() {
    assert_eq!(lint_fixture("batch_merge_bad.rs"), vec![(NONDET_ITERATION, 7)]);
    assert_eq!(lint_fixture("batch_merge_ok.rs"), vec![]);
}

#[test]
fn wall_clock_fixture_pair() {
    assert_eq!(lint_fixture("wall_clock_bad.rs"), vec![(WALL_CLOCK, 4)]);
    assert_eq!(lint_fixture("wall_clock_ok.rs"), vec![]);
}

#[test]
fn relaxed_ordering_fixture_pair() {
    assert_eq!(lint_fixture("relaxed_bad.rs"), vec![(RELAXED_ORDERING, 4)]);
    assert_eq!(lint_fixture("relaxed_ok.rs"), vec![]);
}

#[test]
fn unsafe_comment_fixture_pair() {
    assert_eq!(lint_fixture("unsafe_bad.rs"), vec![(UNSAFE_COMMENT, 2)]);
    assert_eq!(lint_fixture("unsafe_ok.rs"), vec![]);
}

#[test]
fn nested_lock_fixture_pair() {
    assert_eq!(lint_fixture("nested_lock_bad.rs"), vec![(NESTED_LOCK, 6)]);
    assert_eq!(lint_fixture("nested_lock_ok.rs"), vec![]);
}

/// Regression: guard liveness resets at function boundaries. Two adjacent
/// functions each taking one lock are NOT a nested acquisition.
#[test]
fn nested_lock_does_not_leak_across_function_boundaries() {
    assert_eq!(lint_fixture("nested_lock_adjacent_fns_ok.rs"), vec![]);
}

#[test]
fn deprecated_api_fixture_pair() {
    assert_eq!(
        lint_fixture("deprecated_api_bad.rs"),
        vec![(DEPRECATED_API, 2), (DEPRECATED_API, 3)]
    );
    assert_eq!(lint_fixture("deprecated_api_ok.rs"), vec![]);
}

/// The clean fixture routes its snapshot through `atomic_write`, justifies
/// a non-recoverable scratch-file delete with an annotation, and confines
/// raw writes to `#[cfg(test)]` code — all three escapes must hold.
#[test]
fn direct_fs_write_fixture_pair() {
    assert_eq!(lint_fixture("direct_fs_bad.rs"), vec![(DIRECT_FS_WRITE, 4)]);
    assert_eq!(lint_fixture("direct_fs_ok.rs"), vec![]);
}

/// The durability rule scopes to `core`/`serve`: the persist crate *is*
/// the sanctioned write path, and bench code owns its own output files.
#[test]
fn direct_fs_write_stays_out_of_the_persist_crate() {
    let text = fs::read_to_string(fixture_path("direct_fs_bad.rs")).unwrap();
    assert!(lint_source("crates/persist/src/x.rs", &text).is_empty());
    assert!(lint_source("crates/bench/src/x.rs", &text).is_empty());
}

/// The clean fixture exercises all three sanctioned escapes: pools built
/// from `hyppo-sched`, `std::thread::scope` (which cannot leak a detached
/// thread), and an annotated bench-only bare thread.
#[test]
fn thread_spawn_fixture_pair() {
    assert_eq!(lint_fixture("thread_spawn_bad.rs"), vec![(THREAD_SPAWN, 4), (THREAD_SPAWN, 8)]);
    assert_eq!(lint_fixture("thread_spawn_ok.rs"), vec![]);
}

/// The scheduler crate is the one place raw thread creation is legal: the
/// same violating fixture is clean when it lives under `crates/sched/`.
#[test]
fn thread_spawn_is_legal_inside_the_sched_crate() {
    let text = fs::read_to_string(fixture_path("thread_spawn_bad.rs")).unwrap();
    assert!(lint_source("crates/sched/src/pool.rs", &text).is_empty());
}

/// An `allow(...)` with no reason is itself a violation — and the broken
/// suppression must NOT take effect, so the underlying finding fires too.
#[test]
fn allow_without_reason_is_a_violation_and_does_not_suppress() {
    assert_eq!(
        lint_fixture("allow_missing_reason.rs"),
        vec![(MALFORMED_ALLOW, 4), (RELAXED_ORDERING, 5)]
    );
}

/// The deprecated-API rule is global: it fires even outside the scoped
/// determinism/concurrency directories.
#[test]
fn deprecated_api_fires_outside_scoped_dirs() {
    let text = fs::read_to_string(fixture_path("deprecated_api_bad.rs")).unwrap();
    let findings = lint_source("crates/workloads/src/x.rs", &text);
    assert_eq!(findings.len(), 2);
    assert!(findings.iter().all(|f| f.rule == DEPRECATED_API));
}

/// Scoped rules do NOT fire outside their directories: the wall-clock
/// fixture is fine in bench code.
#[test]
fn scoped_rules_stay_scoped() {
    let text = fs::read_to_string(fixture_path("wall_clock_bad.rs")).unwrap();
    assert!(lint_source("crates/bench/src/x.rs", &text).is_empty());
}
