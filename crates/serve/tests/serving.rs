//! Serving-layer behavior: the Client API, scripted session batches over
//! the actor runtime, and the invariants the old thread-per-session
//! driver guaranteed (no deadlock, budget respected, state preserved on
//! failure, virtual clock in simulated mode).

use hyppo_core::executor::ExecMode;
use hyppo_core::{Hyppo, HyppoConfig, Session};
use hyppo_pipeline::PipelineSpec;
use hyppo_serve::{
    run_sessions_concurrent, AdmissionPolicy, ConcurrentSessions, ServeConfig, ServeError,
    ServeRuntime, SharedHyppo,
};
use hyppo_workloads::ensemble_wl::wide_ensemble_spec;
use hyppo_workloads::taxi;
use std::sync::Arc;

fn config(budget: u64) -> HyppoConfig {
    HyppoConfig { budget_bytes: budget, ..Default::default() }
}

fn sessions(n: usize) -> Vec<Vec<PipelineSpec>> {
    // Sessions share members (seeds overlap), so cross-session reuse has
    // something to find.
    (0..n).map(|i| vec![wide_ensemble_spec("taxi", 3 + i % 2, 7 + i as u64 % 2)]).collect()
}

#[test]
fn client_submit_wait_roundtrip() {
    let runtime =
        ServeRuntime::new(SharedHyppo::new(config(64 * 1024 * 1024)), ServeConfig::default());
    let client = runtime.client();
    client.register_dataset("taxi", taxi::generate(300, 5));

    let handle = client.submit(wide_ensemble_spec("taxi", 3, 7)).unwrap();
    let completed = handle.wait_completed().unwrap();
    assert!(completed.run.report.tasks_executed > 0);
    assert!(completed.stats.latency_seconds >= completed.stats.service_seconds);
    assert_eq!(completed.run.epochs.lag(), 0, "single tenant sees no staleness");

    let metrics = client.metrics();
    assert_eq!(metrics.submitted, 1);
    assert_eq!(metrics.completed, 1);
    assert_eq!(metrics.queue_depth, 0);
    assert!(metrics.latency_seconds > 0.0);
    runtime.shutdown().unwrap();
}

#[test]
fn try_report_polls_until_done() {
    let runtime = ServeRuntime::new(SharedHyppo::new(config(0)), ServeConfig::default());
    let client = runtime.client();
    client.register_dataset("taxi", taxi::generate(200, 5));
    let handle = client.submit(wide_ensemble_spec("taxi", 3, 7)).unwrap();
    // Poll until the actor finishes; the loop must terminate.
    let report = loop {
        if let Some(result) = handle.try_report() {
            break result.unwrap();
        }
        std::thread::yield_now();
    };
    assert!(report.tasks_executed > 0);
    runtime.shutdown().unwrap();
}

#[test]
fn batch_submission_through_the_client() {
    let runtime =
        ServeRuntime::new(SharedHyppo::new(config(64 * 1024 * 1024)), ServeConfig::default());
    let client = runtime.client();
    client.register_dataset("taxi", taxi::generate(300, 5));
    let handle = client
        .submit_batch(vec![
            wide_ensemble_spec("taxi", 3, 7),
            wide_ensemble_spec("taxi", 4, 8),
            wide_ensemble_spec("taxi", 3, 7),
        ])
        .unwrap();
    let batch = handle.wait().unwrap();
    assert_eq!(batch.reports.len(), 3);
    assert_eq!(batch.batch.deduped, 1, "duplicate specs dedup in the joint plan");
    runtime.shutdown().unwrap();
}

#[test]
fn retrieve_through_the_client() {
    let runtime =
        ServeRuntime::new(SharedHyppo::new(config(64 * 1024 * 1024)), ServeConfig::default());
    let client = runtime.client();
    client.register_dataset("taxi", taxi::generate(300, 5));
    client.submit(wide_ensemble_spec("taxi", 3, 7)).unwrap().wait().unwrap();

    let names: Vec<_> = {
        let snap = runtime.backend().snapshot();
        let value_names: Vec<_> = snap
            .history
            .artifact_names()
            .filter(|&n| {
                let node = snap.history.node_of(n).unwrap();
                snap.history.graph.node(node).role == hyppo_pipeline::ArtifactRole::Value
            })
            .collect();
        value_names
    };
    assert!(!names.is_empty());
    let report = client.retrieve(&names).unwrap().wait().unwrap();
    assert_eq!(report.values.len(), names.len());
    runtime.shutdown().unwrap();
}

#[test]
fn client_implements_the_session_trait() {
    let runtime =
        ServeRuntime::new(SharedHyppo::new(config(64 * 1024 * 1024)), ServeConfig::default());
    let mut client = runtime.client();
    Session::register_dataset(&mut client, "taxi", taxi::generate(300, 5));
    let report = Session::submit(&mut client, wide_ensemble_spec("taxi", 3, 7)).unwrap();
    assert!(report.tasks_executed > 0);
    assert_eq!(client.backend_name(), "HYPPO-serve");
    assert!(client.cumulative_seconds() > 0.0);
    assert!(client.history_artifacts() > 0);
    runtime.shutdown().unwrap();
}

#[test]
fn unknown_dataset_surfaces_an_error_not_a_hang() {
    let runtime = ServeRuntime::new(SharedHyppo::new(config(0)), ServeConfig::default());
    let client = runtime.client();
    let err = client.submit(wide_ensemble_spec("nope", 2, 1)).unwrap().wait();
    assert!(
        matches!(err, Err(ServeError::NoPlan) | Err(ServeError::Exec(_))),
        "unexpected outcome: {err:?}"
    );
    runtime.shutdown().unwrap();
}

#[test]
fn submissions_after_shutdown_are_refused() {
    let runtime = ServeRuntime::new(SharedHyppo::new(config(0)), ServeConfig::default());
    let client = runtime.client();
    client.register_dataset("taxi", taxi::generate(100, 5));
    runtime.shutdown().unwrap();
    assert!(matches!(client.submit(wide_ensemble_spec("taxi", 2, 1)), Err(ServeError::ShutDown)));
}

#[test]
fn shutdown_drains_queued_submissions() {
    // One worker, several queued submissions: shutdown must complete them
    // all, not drop them.
    let runtime = ServeRuntime::new(
        SharedHyppo::new(HyppoConfig { mode: ExecMode::Simulated, ..config(0) }),
        ServeConfig { workers: 1, ..ServeConfig::default() },
    );
    let client = runtime.client();
    client.register_dataset("taxi", taxi::generate(200, 5));
    let handles: Vec<_> = (0..6)
        .map(|i| client.submit(wide_ensemble_spec("taxi", 2 + i % 3, i as u64)).unwrap())
        .collect();
    let backend = runtime.shutdown().unwrap();
    for handle in handles {
        handle.wait().unwrap();
    }
    assert_eq!(backend.current_epoch(), 7, "dataset + 6 submissions all committed");
}

#[test]
fn four_sessions_share_one_store_without_deadlock() {
    let shared = SharedHyppo::new(config(64 * 1024 * 1024));
    shared.register_dataset("taxi", taxi::generate(300, 5));
    let (outcome, shared) = run_sessions_concurrent(shared, sessions(4));
    let outcome = outcome.unwrap();
    assert_eq!(outcome.metrics.sessions, 4);
    assert_eq!(outcome.reports.len(), 4);
    assert!(outcome.metrics.tasks_executed > 0);
    assert!(outcome.metrics.wall_seconds > 0.0);
    assert!(outcome.metrics.speedup() > 0.0);
    assert!(outcome.metrics.peak_queue_depth >= 1);

    // No lost materializations: every artifact the history believes is
    // materialized must actually be in the store.
    let shared = Arc::try_unwrap(shared).expect("runtime shut down");
    let (history, _, store, cumulative) = shared.into_parts();
    for name in history.materialized() {
        assert!(store.contains(name), "history says {name} is materialized; store disagrees");
    }
    assert!(cumulative > 0.0);
}

#[test]
fn budget_is_respected_under_concurrent_sessions() {
    let budget = 32 * 1024;
    let shared = SharedHyppo::new(config(budget));
    shared.register_dataset("taxi", taxi::generate(200, 5));
    let (outcome, shared) = run_sessions_concurrent(shared, sessions(4));
    outcome.unwrap();
    let shared = Arc::try_unwrap(shared).expect("runtime shut down");
    let (_, _, store, _) = shared.into_parts();
    assert!(store.used_bytes() <= budget, "store uses {} > budget {budget}", store.used_bytes());
}

#[test]
fn concurrent_sessions_feed_later_serial_reuse() {
    let mut sys = Hyppo::new(config(64 * 1024 * 1024));
    sys.register_dataset("taxi", taxi::generate(300, 5));
    let outcome = sys.run_sessions_concurrent(sessions(4)).unwrap();
    assert_eq!(outcome.metrics.sessions, 4);
    // State moved back: the serial facade sees the concurrent history.
    assert!(sys.history.artifact_count() > 0);
    assert!(sys.cumulative_seconds > 0.0);
    // A serial resubmission of a session's pipeline now reuses
    // materialized artifacts.
    let report = sys.submit(wide_ensemble_spec("taxi", 3, 7)).unwrap();
    assert!(report.loads >= 1, "resubmission should load materialized artifacts");
}

#[test]
fn missing_dataset_fails_but_preserves_state() {
    let mut sys = Hyppo::new(config(0));
    sys.register_dataset("taxi", taxi::generate(100, 5));
    let batch =
        vec![vec![wide_ensemble_spec("taxi", 2, 1)], vec![wide_ensemble_spec("nope", 2, 1)]];
    let err = sys.run_sessions_concurrent(batch);
    assert!(err.is_err());
    // The failed batch must not have wiped the moved-out state.
    assert!(sys.store.dataset("taxi").is_some());
}

#[test]
fn simulated_mode_runs_on_the_virtual_clock() {
    let shared = SharedHyppo::new(HyppoConfig { mode: ExecMode::Simulated, ..config(0) });
    shared.register_dataset("taxi", taxi::generate(100, 5));
    let (outcome, _) = run_sessions_concurrent(shared, sessions(2));
    let outcome = outcome.unwrap();
    assert_eq!(outcome.metrics.sessions, 2);
    for report in &outcome.reports {
        assert!(report.runs.iter().all(|r| r.values.is_empty()));
        assert!(report.runs.iter().all(|r| r.execution_seconds > 0.0));
    }
}

#[test]
fn reject_policy_surfaces_busy_and_counts_it() {
    // Capacity 1 and zero workers: the first submission sits queued
    // forever, the second must be rejected deterministically.
    let runtime = ServeRuntime::new(
        SharedHyppo::new(HyppoConfig { mode: ExecMode::Simulated, ..config(0) }),
        ServeConfig {
            workers: 1,
            mailbox_capacity: 1,
            admission: AdmissionPolicy::Reject,
            ..ServeConfig::default()
        },
    );
    // Occupy the single worker with another tenant's submission, waiting
    // until the worker has dequeued it (queue drains, nothing completed).
    let blocker = runtime.client();
    blocker.register_dataset("taxi", taxi::generate(400, 5));
    let busy = blocker.submit(wide_ensemble_spec("taxi", 4, 0)).unwrap();
    while blocker.metrics().queue_depth > 0 {
        std::thread::yield_now();
    }

    let client = runtime.client();
    let first = client.submit(wide_ensemble_spec("taxi", 2, 1)).unwrap();
    let second = client.submit(wide_ensemble_spec("taxi", 2, 2));
    if let Err(e) = &second {
        assert_eq!(*e, ServeError::Busy);
        assert!(client.metrics().rejected >= 1);
    }
    // Whether or not the race let the second in, nothing already admitted
    // may be lost.
    busy.wait().unwrap();
    first.wait().unwrap();
    if let Ok(handle) = second {
        handle.wait().unwrap();
    }
    runtime.shutdown().unwrap();
}

#[test]
fn the_log_writer_makes_every_served_commit_durable_in_epoch_order() {
    use hyppo_core::durable::replay_events;
    use hyppo_core::persist::catalog_to_json;
    use hyppo_core::{CostEstimator, History};
    use hyppo_persist::{read_wal, GroupCommitWal, WalWriter};

    let path = std::env::temp_dir().join(format!("hyppo_serve_log_writer_{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (writer, _) = WalWriter::open(&path).unwrap();
    let wal = GroupCommitWal::new(writer);
    let runtime = ServeRuntime::new(
        SharedHyppo::new(config(1 << 20)),
        ServeConfig { workers: 2, commit_group: 3, ..ServeConfig::default() },
    );
    runtime.attach_durability(wal.clone());
    let clients: Vec<_> = (0..3).map(|_| runtime.client()).collect();
    clients[0].register_dataset("taxi", taxi::generate(200, 5));
    let handles: Vec<_> = (0..4u64)
        .flat_map(|round| {
            clients.iter().enumerate().map(move |(t, c)| {
                c.submit(wide_ensemble_spec("taxi", 2 + t % 2, round * 3 + t as u64)).unwrap()
            })
        })
        .collect();
    for handle in handles {
        // Tickets complete without waiting for their group's fsync, and
        // no flush failed, so none reports a durability error.
        handle.wait().unwrap();
    }
    let backend = runtime.shutdown().unwrap();

    // Shutdown flushed the last group: nothing is pending, every buffered
    // event is on disk, and replaying the log rebuilds the served catalog.
    assert_eq!(wal.pending_events(), 0);
    let stats = wal.stats();
    assert!(stats.fsyncs >= 1 && stats.fsyncs < stats.appends, "{stats:?}");
    let logged = read_wal(&path).unwrap();
    assert_eq!(logged.torn_bytes, 0);
    assert_eq!(logged.events.len() as u64, stats.events);
    let (mut history, mut estimator) = (History::new(), CostEstimator::new());
    replay_events(&logged.events, &mut history, &mut estimator);
    let served = backend.snapshot();
    assert_eq!(
        catalog_to_json(&history, &estimator),
        catalog_to_json(&served.history, &served.estimator)
    );
    let _ = std::fs::remove_file(&path);
}
