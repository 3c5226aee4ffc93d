//! Durable event log types: the record stream behind `hyppo-persist`.
//!
//! HYPPO's value is the history of past computations (§I: across-experiment
//! reuse assumes the catalog outlives sessions), yet `Hyppo` state dies
//! with the process. This module defines the event vocabulary that makes
//! the state recoverable: every mutation of the [`History`] hypergraph and
//! every estimator observation is expressible as one [`DurableEvent`], and
//! replaying a prefix of the event stream through the same public recording
//! APIs that produced it rebuilds the exact state those calls left behind —
//! same dense node/edge ids, same structure signatures, same bounds-cache
//! keys, same planner output bytes (DESIGN.md §12 states the invariant and
//! the proof sketch).
//!
//! The write side is the [`DurabilityHook`] trait: `Hyppo`/`SharedHyppo`
//! drain their journaled events into an attached hook at the end of every
//! submission, and `hyppo-persist` implements the hook as an append-only,
//! length-prefixed + CRC-framed write-ahead log.

use crate::estimator::CostEstimator;
use crate::history::{ArtifactStats, History, ProducedArtifact};
use hyppo_ml::{Config, LogicalOp, TaskType};
use hyppo_pipeline::ArtifactName;
use serde::{Deserialize, Serialize};

/// One durable mutation of the catalog state (history hypergraph +
/// estimator statistics).
///
/// Events record the *calls*, not their effects: `History`'s mutators are
/// idempotent/merging, so replaying the same call sequence from the same
/// base state reproduces the same effects — including which calls were
/// no-ops — without the events having to know.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum DurableEvent {
    /// [`History::record_dataset`]: a raw dataset became loadable.
    Dataset {
        /// Dataset id.
        id: String,
        /// Observed size in bytes.
        size_bytes: u64,
    },
    /// [`History::record_task`]: an executed task and its products.
    Task {
        /// Logical operator.
        op: LogicalOp,
        /// Task type.
        task: TaskType,
        /// Physical implementation index.
        impl_index: usize,
        /// Operator configuration.
        config: Config,
        /// Input artifact names (tail of the hyperedge).
        inputs: Vec<ArtifactName>,
        /// Produced artifacts (head of the hyperedge).
        outputs: Vec<ProducedArtifact>,
        /// Observed cost in seconds.
        cost_seconds: f64,
    },
    /// [`History::touch`]: an artifact was required by a pipeline.
    Touch {
        /// Artifact name.
        name: ArtifactName,
    },
    /// [`History::materialize`]: a `load` hyperedge was added.
    Materialize {
        /// Artifact name.
        name: ArtifactName,
    },
    /// [`History::evict`]: a `load` hyperedge was removed.
    Evict {
        /// Artifact name.
        name: ArtifactName,
    },
    /// [`History::set_stats`]: an artifact's statistics were overwritten.
    SetStats {
        /// Artifact name.
        name: ArtifactName,
        /// The overwriting statistics.
        stats: ArtifactStats,
    },
    /// [`CostEstimator::observe`]: one measured task execution.
    Observe {
        /// Logical operator.
        op: LogicalOp,
        /// Task type.
        task: TaskType,
        /// Physical implementation index.
        impl_index: usize,
        /// Total input cells (bucketed by the estimator).
        input_cells: u64,
        /// Measured cost in seconds.
        seconds: f64,
    },
}

/// Sink for durable events.
///
/// `Hyppo::attach_durability` / `SharedHyppo::attach_durability` install a
/// hook and enable the history's event journal; from then on every
/// submission drains its journaled events into [`DurabilityHook::append`]
/// before the submission returns. In the concurrent driver the drain
/// happens inside the history write-lock critical section, so the appended
/// order *is* the linearization order — replaying the log serially is
/// guaranteed to rebuild the same state the concurrent run reached.
pub trait DurabilityHook: Send + std::fmt::Debug {
    /// Durably append a batch of events, preserving order. An error fails
    /// the submission that produced the events (the in-memory state is
    /// already updated, but the caller learns durability was lost).
    fn append(&mut self, events: &[DurableEvent]) -> std::io::Result<()>;
}

/// Apply one event through the public recording API it was journaled from.
pub fn replay_event(event: &DurableEvent, history: &mut History, estimator: &mut CostEstimator) {
    match event {
        DurableEvent::Dataset { id, size_bytes } => {
            history.record_dataset(id, *size_bytes);
        }
        DurableEvent::Task { op, task, impl_index, config, inputs, outputs, cost_seconds } => {
            history.record_task(*op, *task, *impl_index, config, inputs, outputs, *cost_seconds);
        }
        DurableEvent::Touch { name } => history.touch(*name),
        DurableEvent::Materialize { name } => {
            // Defensive: a well-formed log records an artifact before
            // materializing it, but replay must never panic on a log a
            // different version wrote.
            if history.contains(*name) {
                history.materialize(*name);
            }
        }
        DurableEvent::Evict { name } => history.evict(*name),
        DurableEvent::SetStats { name, stats } => history.set_stats(*name, *stats),
        // A Simulated-mode execution has no input cells, and the live
        // estimator never observes it (`TaskMetric::observes_cost`); logs
        // written before the engine stopped journaling such events still
        // carry them, so replay skips them too.
        DurableEvent::Observe { input_cells: 0, .. } => {}
        DurableEvent::Observe { op, task, impl_index, input_cells, seconds } => {
            estimator.observe(*op, *task, *impl_index, *input_cells, *seconds);
        }
    }
}

/// Replay an event sequence in order. Starting from the states the journal
/// was enabled on (empty, or a restored snapshot), this rebuilds the exact
/// history and estimator the original call sequence produced.
pub fn replay_events(
    events: &[DurableEvent],
    history: &mut History,
    estimator: &mut CostEstimator,
) {
    for event in events {
        replay_event(event, history, estimator);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppo_ml::ArtifactKind;
    use hyppo_pipeline::{naming, ArtifactRole, NodeLabel};

    fn produced(name: ArtifactName, size: u64) -> ProducedArtifact {
        ProducedArtifact {
            name,
            label: NodeLabel {
                name,
                kind: ArtifactKind::OpState,
                role: ArtifactRole::OpState,
                hint: "state".into(),
                size_bytes: Some(size),
            },
            size_bytes: size,
        }
    }

    /// Drive a journaled history + synthesized observes, then replay the
    /// journal into fresh state and compare snapshots.
    #[test]
    fn journal_replay_reproduces_history_and_estimator() {
        let mut live = History::new();
        live.enable_event_journal();
        let mut live_est = CostEstimator::new();

        live.record_dataset("higgs", 2048);
        let raw = naming::dataset_name("higgs");
        let cfg = Config::new();
        let state = naming::output_name(LogicalOp::StandardScaler, TaskType::Fit, &cfg, &[raw], 0);
        live.record_task(
            LogicalOp::StandardScaler,
            TaskType::Fit,
            0,
            &cfg,
            &[raw],
            &[produced(state, 64)],
            0.5,
        );
        live.touch(state);
        live.materialize(state);
        live.evict(state);
        live.materialize(state);
        live.journal_event(DurableEvent::Observe {
            op: LogicalOp::StandardScaler,
            task: TaskType::Fit,
            impl_index: 0,
            input_cells: 2048,
            seconds: 0.5,
        });
        live_est.observe(LogicalOp::StandardScaler, TaskType::Fit, 0, 2048, 0.5);

        let events = live.take_events();
        assert!(!events.is_empty());

        let mut replayed = History::new();
        let mut replayed_est = CostEstimator::new();
        replay_events(&events, &mut replayed, &mut replayed_est);

        assert_eq!(
            crate::persist::catalog_to_json(&live, &live_est),
            crate::persist::catalog_to_json(&replayed, &replayed_est),
            "replayed catalog must serialize bit-identically"
        );
        // Dense ids match, not just named state: the planner's output bytes
        // are edge-id sequences, so id-level identity is the real invariant.
        assert_eq!(replayed.node_of(state), live.node_of(state));
        assert_eq!(replayed.generation(), live.generation());
    }

    /// Logs written while the engine journaled Simulated-mode executions
    /// carry `Observe` events with no input cells; the live estimator never
    /// observed those, so replay must not either.
    #[test]
    fn replay_skips_observations_without_input_cells() {
        let events = [
            DurableEvent::Observe {
                op: LogicalOp::Pca,
                task: TaskType::Fit,
                impl_index: 0,
                input_cells: 0,
                seconds: 0.25,
            },
            DurableEvent::Observe {
                op: LogicalOp::Pca,
                task: TaskType::Fit,
                impl_index: 1,
                input_cells: 4096,
                seconds: 0.5,
            },
        ];
        let mut history = History::new();
        let mut replayed = CostEstimator::new();
        replay_events(&events, &mut history, &mut replayed);
        let mut live = CostEstimator::new();
        live.observe(LogicalOp::Pca, TaskType::Fit, 1, 4096, 0.5);
        assert_eq!(
            crate::persist::catalog_to_json(&history, &replayed),
            crate::persist::catalog_to_json(&history, &live)
        );
    }

    #[test]
    fn events_roundtrip_through_json() {
        let events = vec![
            DurableEvent::Dataset { id: "d".into(), size_bytes: 10 },
            DurableEvent::Task {
                op: LogicalOp::Ridge,
                task: TaskType::Fit,
                impl_index: 1,
                config: Config::new().with_i("seed", 3),
                inputs: vec![ArtifactName(7)],
                outputs: vec![produced(ArtifactName(9), 32)],
                cost_seconds: 1.5,
            },
            DurableEvent::Touch { name: ArtifactName(9) },
            DurableEvent::Materialize { name: ArtifactName(9) },
            DurableEvent::Evict { name: ArtifactName(9) },
            DurableEvent::SetStats { name: ArtifactName(9), stats: Default::default() },
            DurableEvent::Observe {
                op: LogicalOp::Pca,
                task: TaskType::Fit,
                impl_index: 0,
                input_cells: 4096,
                seconds: 0.25,
            },
        ];
        for e in &events {
            let json = serde_json::to_string(e).unwrap();
            let back: DurableEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, e);
        }
    }

    #[test]
    fn replay_skips_materialize_of_unknown_artifact() {
        let mut h = History::new();
        let mut est = CostEstimator::new();
        replay_events(&[DurableEvent::Materialize { name: ArtifactName(99) }], &mut h, &mut est);
        assert!(!h.is_materialized(ArtifactName(99)));
    }

    #[test]
    fn journal_is_off_by_default_and_drains_once() {
        let mut h = History::new();
        h.record_dataset("d", 1);
        assert!(h.take_events().is_empty(), "no journal unless enabled");
        h.enable_event_journal();
        h.record_dataset("d", 1);
        assert_eq!(h.take_events().len(), 1);
        assert!(h.take_events().is_empty(), "take_events drains");
    }
}
