//! The serving determinism gate.
//!
//! Per-tenant results through the serving layer must be **bit-identical**
//! to replaying that tenant's sequence alone on a private planner view at
//! equal history epochs. The actor runtime, the mailbox scheduling, the
//! worker pool, and the epoch-snapshot plumbing may add *no*
//! nondeterminism: when the history epochs a submission plans against and
//! commits match, every report bit matches, search-effort counters
//! included: plan search is serial at every configured thread count
//! (DESIGN.md §9).
//!
//! 50+ seeds replay Xin-et-al edit-model sequences (the `crates/workloads`
//! generator, both use cases) in simulated mode; a smaller set runs real
//! execution and additionally compares computed artifact values bitwise.

use hyppo_core::executor::ExecMode;
use hyppo_core::optimizer::Planner;
use hyppo_core::HyppoConfig;
use hyppo_pipeline::PipelineSpec;
use hyppo_serve::{ServeConfig, ServeRuntime, SharedHyppo, SharedRun};
use hyppo_workloads::{generator::generate_sequence, higgs, taxi, SequenceConfig, UseCase};

/// `search_threads` is the planner's (inert) thread-count setting.
fn config(mode: ExecMode, search_threads: usize) -> HyppoConfig {
    HyppoConfig {
        budget_bytes: 24 * 1024,
        mode,
        search: Planner::exact().threads(search_threads),
        ..Default::default()
    }
}

fn sequence(seed: u64) -> (UseCase, Vec<PipelineSpec>) {
    let use_case = if seed.is_multiple_of(2) { UseCase::Taxi } else { UseCase::Higgs };
    let dataset_id = match use_case {
        UseCase::Taxi => "taxi",
        UseCase::Higgs => "higgs",
    };
    let templates = generate_sequence(&SequenceConfig {
        use_case,
        dataset_id: dataset_id.to_string(),
        n_pipelines: 4,
        seed,
    });
    (use_case, templates.iter().map(|t| t.to_spec()).collect())
}

fn register(backend: &SharedHyppo, use_case: UseCase, seed: u64) {
    match use_case {
        UseCase::Taxi => backend.register_dataset("taxi", taxi::generate(150, seed % 7)),
        UseCase::Higgs => backend.register_dataset("higgs", higgs::generate(150, seed % 7)),
    }
}

/// The tenant's sequence through the serving layer: single tenant over a
/// multi-worker actor runtime.
fn serve_replay(seed: u64, mode: ExecMode, search_threads: usize) -> Vec<SharedRun> {
    let (use_case, specs) = sequence(seed);
    let runtime = ServeRuntime::new(
        SharedHyppo::new(config(mode, search_threads)),
        ServeConfig { workers: 4, ..ServeConfig::default() },
    );
    let client = runtime.client();
    register(runtime.backend(), use_case, seed);
    let handles: Vec<_> = specs.into_iter().map(|s| client.submit(s).unwrap()).collect();
    let runs: Vec<SharedRun> =
        handles.into_iter().map(|h| h.wait_completed().unwrap().run).collect();
    runtime.shutdown().unwrap();
    runs
}

/// The same sequence alone on a private planner view (no serving layer).
fn isolated_replay(seed: u64, mode: ExecMode, search_threads: usize) -> Vec<SharedRun> {
    let (use_case, specs) = sequence(seed);
    let backend = SharedHyppo::new(config(mode, search_threads));
    register(&backend, use_case, seed);
    specs.into_iter().map(|s| backend.submit_shared(s).unwrap()).collect()
}

/// Simulated mode: the estimator's inputs are the virtual-clock costs, so
/// everything derived from the plan — cost bits, task/load/materialization
/// counts, search-effort counters — must match the isolated replay exactly.
fn assert_reports_bit_identical(seed: u64, served: &[SharedRun], isolated: &[SharedRun]) {
    assert_eq!(served.len(), isolated.len(), "seed {seed}");
    for (i, (s, r)) in served.iter().zip(isolated).enumerate() {
        assert_eq!(
            s.epochs, r.epochs,
            "seed {seed} submission {i}: history epochs diverged — the comparison \
             below would be vacuous"
        );
        assert_eq!(
            s.report.planned_cost.to_bits(),
            r.report.planned_cost.to_bits(),
            "seed {seed} submission {i}: planned cost bits diverged"
        );
        assert_eq!(s.report.tasks_executed, r.report.tasks_executed, "seed {seed} sub {i}");
        assert_eq!(s.report.loads, r.report.loads, "seed {seed} sub {i}");
        assert_eq!(s.report.new_tasks, r.report.new_tasks, "seed {seed} sub {i}");
        assert_eq!(s.report.expansions, r.report.expansions, "seed {seed} sub {i}");
        assert_eq!(s.report.pops, r.report.pops, "seed {seed} sub {i}");
        assert_eq!(s.report.stored, r.report.stored, "seed {seed} sub {i}");
        assert_eq!(s.report.evicted, r.report.evicted, "seed {seed} sub {i}");
    }
}

/// Real mode: the estimator learns from *measured* wall-clock timings, so
/// plan-search numbers legitimately drift between any two live runs (even
/// two isolated serial ones). What must still match bit for bit is the
/// data: every target's computed value — the paper's equivalence guarantee
/// — and the epoch stamps.
fn assert_values_bit_identical(seed: u64, served: &[SharedRun], isolated: &[SharedRun]) {
    assert_eq!(served.len(), isolated.len(), "seed {seed}");
    for (i, (s, r)) in served.iter().zip(isolated).enumerate() {
        assert_eq!(s.epochs, r.epochs, "seed {seed} submission {i}: history epochs diverged");
        assert_eq!(
            s.report.values.len(),
            r.report.values.len(),
            "seed {seed} sub {i}: target sets diverged"
        );
        assert!(!s.report.values.is_empty(), "seed {seed} sub {i}: no values to compare");
        for (name, value) in &s.report.values {
            let other = r.report.values.get(name).unwrap_or_else(|| {
                panic!("seed {seed} sub {i}: value artifact {name} missing from isolated run")
            });
            assert_eq!(
                value.to_bits(),
                other.to_bits(),
                "seed {seed} sub {i}: value bits diverged for {name}"
            );
        }
    }
}

#[test]
fn served_tenant_is_bit_identical_to_isolated_replay_across_seeds() {
    // 52 seeds × 4-step edit sequences, simulated execution: fast enough
    // to sweep broadly, and it exercises the full plan/commit path. Every
    // report field — search-effort counters included — is asserted bit for
    // bit.
    for seed in 0..52 {
        let served = serve_replay(seed, ExecMode::Simulated, 1);
        let isolated = isolated_replay(seed, ExecMode::Simulated, 1);
        assert_reports_bit_identical(seed, &served, &isolated);
    }
}

#[test]
fn served_tenant_with_parallel_search_matches_isolated_replay() {
    // `threads(2)` on both sides: the setting is inert, so every report
    // field — search-effort counters included — matches the isolated
    // replay exactly as at `threads(1)`.
    for seed in 0..20 {
        let served = serve_replay(seed, ExecMode::Simulated, 2);
        let isolated = isolated_replay(seed, ExecMode::Simulated, 2);
        assert_reports_bit_identical(seed, &served, &isolated);
    }
}

#[test]
fn served_tenant_real_execution_matches_isolated_values_bitwise() {
    // Real execution: artifact values (model metrics) must also match bit
    // for bit, not just plans.
    for seed in [0u64, 1, 9, 20] {
        let served = serve_replay(seed, ExecMode::Real, 2);
        let isolated = isolated_replay(seed, ExecMode::Real, 2);
        assert_values_bit_identical(seed, &served, &isolated);
    }
}
