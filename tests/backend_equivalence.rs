//! Cross-backend differential test: every backend runs the one submission
//! engine, so one seeded workload must produce the same reports through
//! all of them.
//!
//! A Simulated-mode edit-model sequence (32 submits, a 4-item sweep batch
//! in the middle, and a retrieve at the end) runs through the serial
//! `Hyppo`, `SharedHyppo`, a `DurableHyppo` in a temporary directory, and a
//! one-worker `ServeRuntime` `Client`. Every report field that is not wall-clock time is compared
//! bit for bit (f64s by `to_bits`, the values maps, the search counters),
//! and the serial, shared and durable catalogs must serialize to the same
//! canonical JSON.
//!
//! The same workload in Real mode checks what execution computes: every
//! backend runs the one serial executor, and tenants running side by side
//! on a multi-worker `ServeRuntime` must compute the serial values bit for
//! bit (measured costs may steer plans apart; values may not differ).

use hyppo::core::executor::ExecMode;
use hyppo::core::persist::catalog_to_json;
use hyppo::core::{Hyppo, HyppoConfig, RunReport, Session};
use hyppo::persist::DurableHyppo;
use hyppo::pipeline::{build_pipeline, ArtifactName, PipelineSpec};
use hyppo::serve::{ServeConfig, ServeRuntime, SharedHyppo};
use hyppo::workloads::generator::generate_sequence;
use hyppo::workloads::{higgs, sweep_specs, SequenceConfig, SweepConfig, UseCase};

const SEED: u64 = 7;

enum Op {
    Submit(PipelineSpec),
    Batch(Vec<PipelineSpec>),
    Retrieve(Vec<ArtifactName>),
}

fn config() -> HyppoConfig {
    with_mode(ExecMode::Simulated)
}

fn with_mode(mode: ExecMode) -> HyppoConfig {
    HyppoConfig { budget_bytes: 16 << 20, mode, ..Default::default() }
}

/// 32 edit-model submits with a 4-item sweep after the 16th, then a
/// retrieve of the first pipeline's targets.
fn workload() -> Vec<Op> {
    let specs: Vec<PipelineSpec> = generate_sequence(&SequenceConfig {
        use_case: UseCase::Higgs,
        dataset_id: "higgs".into(),
        n_pipelines: 32,
        seed: SEED,
    })
    .iter()
    .map(|t| t.to_spec())
    .collect();
    let first = build_pipeline(specs[0].clone());
    let targets = first.targets.iter().map(|&t| first.graph.node(t).name).collect();
    let sweep = sweep_specs(&SweepConfig {
        use_case: UseCase::Higgs,
        dataset_id: "higgs".into(),
        k: 4,
        seed: SEED,
    });
    let mut ops: Vec<Op> = specs.into_iter().map(Op::Submit).collect();
    ops.insert(16, Op::Batch(sweep));
    ops.push(Op::Retrieve(targets));
    ops
}

fn drive(session: &mut impl Session) -> Vec<RunReport> {
    session.register_dataset("higgs", higgs::generate(400, SEED));
    run(session)
}

/// The workload against an already registered dataset.
fn run(session: &mut impl Session) -> Vec<RunReport> {
    let mut reports = Vec::new();
    for op in workload() {
        match op {
            Op::Submit(spec) => reports.push(session.submit(spec).expect("submit")),
            Op::Batch(specs) => reports.extend(session.submit_batch(specs).expect("batch")),
            Op::Retrieve(names) => reports.push(session.retrieve(&names).expect("retrieve")),
        }
    }
    reports
}

/// Every report field except `optimize_seconds` (wall-clock time).
fn assert_same(backend: &str, got: &[RunReport], want: &[RunReport]) {
    assert_eq!(got.len(), want.len(), "{backend}: report count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let key = |r: &RunReport| {
            let mut values: Vec<(ArtifactName, u64)> =
                r.values.iter().map(|(&n, v)| (n, v.to_bits())).collect();
            values.sort_unstable();
            (
                r.planned_cost.to_bits(),
                r.execution_seconds.to_bits(),
                r.tasks_executed,
                r.loads,
                r.new_tasks,
                r.expansions,
                r.pops,
                r.stored,
                r.evicted,
                values,
            )
        };
        assert_eq!(key(g), key(w), "{backend}: report {i} differs from the serial backend");
    }
}

#[test]
fn serial_shared_durable_and_served_backends_agree_bit_for_bit() {
    let mut serial = Hyppo::new(config());
    let reference = drive(&mut serial);
    assert_eq!(reference.len(), 32 + 4 + 1);
    let catalog = catalog_to_json(&serial.history, &serial.estimator);

    let mut shared = SharedHyppo::new(config());
    assert_same("shared", &drive(&mut shared), &reference);
    let snap = shared.snapshot();
    assert_eq!(catalog_to_json(&snap.history, &snap.estimator), catalog, "shared catalog");
    assert_eq!(shared.cumulative_seconds().to_bits(), serial.cumulative_seconds.to_bits());

    let dir = std::env::temp_dir().join(format!("hyppo_backend_eq_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (mut durable, _) = DurableHyppo::open(&dir, config()).expect("open durable session");
        assert_same("durable", &drive(&mut durable), &reference);
        assert_eq!(durable.snapshot_json(), catalog, "durable catalog");
    }
    let _ = std::fs::remove_dir_all(&dir);

    let runtime = ServeRuntime::new(
        SharedHyppo::new(config()),
        ServeConfig { workers: 1, ..ServeConfig::default() },
    );
    let mut client = runtime.client();
    assert_same("served", &drive(&mut client), &reference);
    drop(client);
    runtime.shutdown().expect("shutdown");
}

/// Every target value of every report, bit for bit.
fn assert_same_values(backend: &str, got: &[RunReport], want: &[RunReport]) {
    assert_eq!(got.len(), want.len(), "{backend}: report count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let bits = |r: &RunReport| {
            let mut values: Vec<(ArtifactName, u64)> =
                r.values.iter().map(|(&n, v)| (n, v.to_bits())).collect();
            values.sort_unstable();
            values
        };
        assert!(!w.values.is_empty(), "{backend}: report {i} has no values to compare");
        assert_eq!(bits(g), bits(w), "{backend}: report {i} values differ from the serial backend");
    }
}

#[test]
fn real_execution_values_agree_across_serial_shared_and_served_backends() {
    let mut serial = Hyppo::new(with_mode(ExecMode::Real));
    let reference = drive(&mut serial);

    let mut shared = SharedHyppo::new(with_mode(ExecMode::Real));
    assert_same_values("shared", &drive(&mut shared), &reference);

    let runtime = ServeRuntime::new(
        SharedHyppo::new(with_mode(ExecMode::Real)),
        ServeConfig { workers: 1, ..ServeConfig::default() },
    );
    let mut client = runtime.client();
    assert_same_values("served", &drive(&mut client), &reference);
    drop(client);
    runtime.shutdown().expect("shutdown");
}

/// Four tenants run the workload side by side on four workers against one
/// shared history and store, so each one plans over what the others
/// recorded and loads what they materialized; each computes the serial
/// values.
#[test]
fn tenants_sharing_one_real_backend_compute_the_serial_values() {
    let mut serial = Hyppo::new(with_mode(ExecMode::Real));
    let reference = drive(&mut serial);

    let runtime = ServeRuntime::new(
        SharedHyppo::new(with_mode(ExecMode::Real)),
        ServeConfig { workers: 4, ..ServeConfig::default() },
    );
    runtime.backend().register_dataset("higgs", higgs::generate(400, SEED));
    let tenants: Vec<Vec<RunReport>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let mut client = runtime.client();
                scope.spawn(move || run(&mut client))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("tenant panicked")).collect()
    });
    for (t, reports) in tenants.iter().enumerate() {
        assert_same_values(&format!("tenant {t}"), reports, &reference);
    }
    runtime.shutdown().expect("shutdown");
}
