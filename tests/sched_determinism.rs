//! Scheduler determinism gate (DESIGN.md §16).
//!
//! Tenant serving runs on `hyppo-sched`'s FIFO run queue, and the repo's
//! headline guarantee is that results stay **bit-identical** to serial at
//! any worker count, whichever worker claims each tenant turn and when.
//! This suite runs the serving layer at several worker counts;
//! `scripts/ci.sh` runs it as the `== sched ==` stage and then loops the
//! compiled binary to shake out rare interleavings.
//!
//! The scheduler's own parking and shutdown tests live in `crates/sched`;
//! this file checks its consumer end to end.

use hyppo::core::executor::ExecMode;
use hyppo::core::optimizer::Planner;
use hyppo::core::HyppoConfig;
use hyppo::pipeline::PipelineSpec;
use hyppo::serve::{ServeConfig, ServeRuntime, SharedHyppo, SharedRun};
use hyppo::workloads::{generator::generate_sequence, taxi, SequenceConfig, UseCase};

fn tenant_sequence(seed: u64) -> Vec<PipelineSpec> {
    let templates = generate_sequence(&SequenceConfig {
        use_case: UseCase::Taxi,
        dataset_id: "taxi".to_string(),
        n_pipelines: 4,
        seed,
    });
    templates.iter().map(|t| t.to_spec()).collect()
}

fn serve_replay(seed: u64, workers: usize) -> Vec<SharedRun> {
    // Simulated execution: costs come off the virtual clock, so the entire
    // report is deterministic and comparable bit for bit (in real mode the
    // estimator learns from measured wall time and search numbers drift).
    // Plan search is serial, so the serving layer's turn scheduling is the
    // only variable.
    let config = HyppoConfig {
        budget_bytes: 24 * 1024,
        mode: ExecMode::Simulated,
        search: Planner::exact(),
        ..Default::default()
    };
    let runtime = ServeRuntime::new(
        SharedHyppo::new(config),
        ServeConfig { workers, ..ServeConfig::default() },
    );
    let client = runtime.client();
    runtime.backend().register_dataset("taxi", taxi::generate(150, seed % 7));
    let handles: Vec<_> =
        tenant_sequence(seed).into_iter().map(|s| client.submit(s).unwrap()).collect();
    let runs: Vec<SharedRun> =
        handles.into_iter().map(|h| h.wait_completed().unwrap().run).collect();
    runtime.shutdown().unwrap();
    runs
}

/// Per-submission reports agree bit for bit (simulated mode, so every
/// report field is deterministic).
fn assert_same_reports(seed: u64, wide: &[SharedRun], narrow: &[SharedRun]) {
    assert_eq!(wide.len(), narrow.len(), "seed {seed}");
    for (i, (w, n)) in wide.iter().zip(narrow).enumerate() {
        assert_eq!(w.epochs, n.epochs, "seed {seed} submission {i}: epochs diverged");
        assert_eq!(
            w.report.planned_cost.to_bits(),
            n.report.planned_cost.to_bits(),
            "seed {seed} submission {i}: planned cost bits diverged"
        );
        assert_eq!(w.report.tasks_executed, n.report.tasks_executed, "seed {seed} sub {i}");
        assert_eq!(w.report.loads, n.report.loads, "seed {seed} sub {i}");
        assert_eq!(w.report.new_tasks, n.report.new_tasks, "seed {seed} sub {i}");
        assert_eq!(w.report.expansions, n.report.expansions, "seed {seed} sub {i}");
        assert_eq!(w.report.pops, n.report.pops, "seed {seed} sub {i}");
        assert_eq!(w.report.stored, n.report.stored, "seed {seed} sub {i}");
        assert_eq!(w.report.evicted, n.report.evicted, "seed {seed} sub {i}");
    }
}

/// Serving: a tenant's mailbox turns circulate through the scheduler's
/// run queue, claimed by whichever of four workers is free, and the
/// per-tenant reports still match a single-worker runtime bit for bit.
#[test]
fn serve_reports_are_bit_identical_under_steal_heavy_schedules() {
    for seed in [3u64, 8, 15] {
        assert_same_reports(seed, &serve_replay(seed, 4), &serve_replay(seed, 1));
    }
}
