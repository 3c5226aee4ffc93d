//! The monitor (§IV-F): turns execution traces into history records and
//! cost statistics.
//!
//! After a plan executes, [`record_outcome`] (a) feeds every task's
//! measured cost into the estimator's bucketed statistics, and (b) merges
//! executed tasks and produced artifacts into the history hypergraph,
//! bumping access frequencies for the requested targets.

use crate::augment::Augmentation;
use crate::estimator::CostEstimator;
use crate::executor::ExecOutcome;
use crate::history::{History, ProducedArtifact};
use hyppo_pipeline::ArtifactName;

/// Summary of what the monitor recorded.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MonitorReport {
    /// Computational tasks recorded into the history.
    pub tasks_recorded: usize,
    /// Artifacts whose stats were refreshed.
    pub artifacts_recorded: usize,
}

/// Record an executed plan into the history and estimator.
pub fn record_outcome(
    aug: &Augmentation,
    outcome: &ExecOutcome,
    targets: &[ArtifactName],
    history: &mut History,
    estimator: &mut CostEstimator,
) -> MonitorReport {
    let mut report = MonitorReport::default();
    for metric in &outcome.metrics {
        let e = metric.edge;
        let label = aug.graph.edge(e);
        if metric.is_load {
            // Dataset loads keep the dataset registered in the history.
            if let Some(id) = &label.dataset {
                let head = aug.graph.head(e)[0];
                let size = outcome
                    .artifacts
                    .get(&aug.graph.node(head).name)
                    .map(|a| a.size_bytes() as u64)
                    .or(aug.graph.node(head).size_bytes)
                    .unwrap_or(0);
                history.record_dataset(id, size);
            }
            continue;
        }
        // Simulated executions report `input_cells == 0`: their "cost" is
        // the estimator's own prediction on a virtual clock. Recording it
        // would bucket the observation at size 1 while planning looks up
        // the task's true bucket, so every later estimate gets scaled up
        // by the bucket distance, re-observed, and scaled again — learned
        // costs then diverge exponentially (to `inf` after a few hundred
        // submissions) and the planner starts returning `NoPlan`.
        if metric.observes_cost() {
            estimator.observe(
                metric.op,
                metric.task,
                metric.impl_index,
                metric.input_cells,
                metric.cost_seconds,
            );
        }
        // Merge the task and its products into the history.
        let input_names: Vec<ArtifactName> =
            aug.graph.tail(e).iter().map(|&v| aug.graph.node(v).name).collect();
        let outputs: Vec<ProducedArtifact> = aug
            .graph
            .head(e)
            .iter()
            .map(|&v| {
                let label = aug.graph.node(v).clone();
                let size = outcome
                    .artifacts
                    .get(&label.name)
                    .map(|a| a.size_bytes() as u64)
                    .or(label.size_bytes)
                    .unwrap_or(0);
                report.artifacts_recorded += 1;
                ProducedArtifact { name: label.name, label, size_bytes: size }
            })
            .collect();
        history.record_task(
            label.op,
            label.task,
            label.impl_index,
            &label.config,
            &input_names,
            &outputs,
            metric.cost_seconds,
        );
        report.tasks_recorded += 1;
    }
    for &t in targets {
        history.touch(t);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::{augment, AugmentOptions};
    use crate::executor::{execute_plan, ExecMode};
    use crate::store::ArtifactStore;
    use hyppo_hypergraph::EdgeId;
    use hyppo_ml::{Config, LogicalOp};
    use hyppo_pipeline::{build_pipeline, Dictionary, PipelineSpec};
    use hyppo_tensor::{Dataset, Matrix, TaskKind};

    fn setup() -> (Augmentation, ArtifactStore) {
        let mut spec = PipelineSpec::new();
        let d = spec.load("data");
        let (train, _test) = spec.split(d, Config::new().with_i("seed", 0));
        spec.fit(LogicalOp::StandardScaler, 0, Config::new(), &[train]);
        let p = build_pipeline(spec);
        let h = History::new();
        let opts = AugmentOptions { dictionary_alternatives: false, use_history: false };
        let a = augment(&p, &h, &Dictionary::full(), opts);
        let mut store = ArtifactStore::new();
        let ds = Dataset::new(
            Matrix::filled(40, 2, 1.0),
            vec![0.0; 40],
            vec!["a".into(), "b".into()],
            TaskKind::Regression,
        );
        store.register_dataset("data", ds);
        (a, store)
    }

    #[test]
    fn recording_populates_history_and_estimator() {
        let (a, store) = setup();
        let plan: Vec<EdgeId> = a.graph.edge_ids().collect();
        let costs = vec![0.0; a.graph.edge_bound()];
        let outcome = execute_plan(&a, &plan, &store, ExecMode::Real, &costs).unwrap();
        let mut history = History::new();
        let mut estimator = CostEstimator::new();
        let targets: Vec<ArtifactName> = a.targets.iter().map(|&t| a.graph.node(t).name).collect();
        let report = record_outcome(&a, &outcome, &targets, &mut history, &mut estimator);
        assert_eq!(report.tasks_recorded, 2, "split + fit");
        assert!(report.artifacts_recorded >= 3, "train, test, state");
        // History now knows the artifacts with their observed sizes.
        for &t in &a.targets {
            let name = a.graph.node(t).name;
            assert!(history.contains(name));
            assert!(history.stats_of(name).size_bytes > 0);
            assert_eq!(history.stats_of(name).freq, 1, "targets touched once");
        }
        // Estimator learned both task shapes.
        assert!(!estimator.stats.is_empty());
    }

    #[test]
    fn recording_twice_is_idempotent_on_structure() {
        let (a, store) = setup();
        let plan: Vec<EdgeId> = a.graph.edge_ids().collect();
        let costs = vec![0.0; a.graph.edge_bound()];
        let outcome = execute_plan(&a, &plan, &store, ExecMode::Real, &costs).unwrap();
        let mut history = History::new();
        let mut estimator = CostEstimator::new();
        record_outcome(&a, &outcome, &[], &mut history, &mut estimator);
        let nodes = history.graph.node_count();
        let edges = history.graph.edge_count();
        record_outcome(&a, &outcome, &[], &mut history, &mut estimator);
        assert_eq!(history.graph.node_count(), nodes);
        assert_eq!(history.graph.edge_count(), edges);
    }

    #[test]
    fn simulated_metrics_update_history_but_never_the_estimator() {
        // A virtual-clock cost is the estimator's own prediction; feeding
        // it back would bucket every observation at size 1 and each later
        // lookup would scale it up by the bucket distance — learned costs
        // then diverge exponentially over long simulated sessions.
        let (a, store) = setup();
        let plan: Vec<EdgeId> = a.graph.edge_ids().collect();
        let costs = vec![0.25; a.graph.edge_bound()];
        let outcome = execute_plan(&a, &plan, &store, ExecMode::Simulated, &costs).unwrap();
        let mut history = History::new();
        let mut estimator = CostEstimator::new();
        let report = record_outcome(&a, &outcome, &[], &mut history, &mut estimator);
        assert_eq!(report.tasks_recorded, 2, "history still records the tasks");
        assert!(
            estimator.stats.is_empty(),
            "virtual-clock costs must not become learned statistics"
        );
    }
}
