//! Plan execution.
//!
//! [`execute_plan`] runs a plan's hyperedges in dependency order against
//! the ML substrate (Real mode) or against the cost annotations (Simulated
//! mode — a virtual clock for scalability studies where only costs
//! matter). Real mode measures each task's wall-clock cost; load edges pull
//! from the [`crate::store::ArtifactStore`] with its modelled IO cost.

use crate::augment::Augmentation;
use crate::codec::CodecError;
use crate::store::ArtifactStorage;
use hyppo_hypergraph::{execution_order, EdgeId, TopoError};
use hyppo_ml::{Artifact, LogicalOp, MlError, TaskType};
use hyppo_pipeline::ArtifactName;
use std::collections::HashMap;
use std::time::Instant;

/// Execution mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Actually compute every task on real data, measuring costs.
    Real,
    /// Sum the estimated edge costs on a virtual clock without computing.
    Simulated,
}

/// Per-task execution record, fed to the monitor.
#[derive(Clone, Debug)]
pub struct TaskMetric {
    /// Executed hyperedge.
    pub edge: EdgeId,
    /// Logical operator.
    pub op: LogicalOp,
    /// Task type.
    pub task: TaskType,
    /// Physical implementation.
    pub impl_index: usize,
    /// Measured (Real) or estimated (Simulated) cost in seconds.
    pub cost_seconds: f64,
    /// Total input cells (statistics bucket key), or **0 in Simulated
    /// mode**: a virtual-clock cost is the estimator's own prediction, and
    /// feeding it back as an observation — in whatever bucket — would make
    /// the estimator learn from itself, so the estimator skips these.
    pub input_cells: u64,
    /// Whether this was a load edge.
    pub is_load: bool,
}

impl TaskMetric {
    /// Whether the cost estimator learns from this metric: a measured
    /// (non-zero input) execution of a non-load task. The monitor observes
    /// exactly these, and the engine journals exactly these as `Observe`
    /// events, so a replayed log rebuilds the live estimator.
    pub(crate) fn observes_cost(&self) -> bool {
        !self.is_load && self.input_cells > 0
    }
}

/// Result of executing a plan.
#[derive(Debug, Default)]
pub struct ExecOutcome {
    /// Produced artifacts by logical name (empty in Simulated mode).
    pub artifacts: HashMap<ArtifactName, Artifact>,
    /// Per-task metrics in execution order.
    pub metrics: Vec<TaskMetric>,
    /// Total execution cost in seconds.
    pub total_seconds: f64,
}

impl ExecOutcome {
    /// Scalar value of an evaluation artifact, if produced.
    pub fn value(&self, name: ArtifactName) -> Option<f64> {
        self.artifacts.get(&name).and_then(Artifact::as_value)
    }
}

/// Execution failure.
#[derive(Debug)]
pub enum ExecError {
    /// The edge set is not executable.
    Topo(TopoError),
    /// A task failed in the ML substrate.
    Ml(MlError),
    /// A load edge referenced a dataset missing from the store.
    MissingDataset(String),
    /// A load edge referenced an artifact missing from the store.
    MissingArtifact(ArtifactName),
    /// A task's input artifact was never produced (internal invariant).
    MissingInput(ArtifactName),
    /// A materialized artifact's stored encoding failed to decode.
    Corrupt(ArtifactName, CodecError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Topo(e) => write!(f, "{e}"),
            ExecError::Ml(e) => write!(f, "{e}"),
            ExecError::MissingDataset(id) => write!(f, "dataset '{id}' not registered"),
            ExecError::MissingArtifact(n) => write!(f, "artifact {n} not materialized"),
            ExecError::MissingInput(n) => write!(f, "input artifact {n} not produced"),
            ExecError::Corrupt(n, e) => write!(f, "artifact {n} is corrupt: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<TopoError> for ExecError {
    fn from(e: TopoError) -> Self {
        ExecError::Topo(e)
    }
}

impl From<MlError> for ExecError {
    fn from(e: MlError) -> Self {
        ExecError::Ml(e)
    }
}

fn artifact_cells(a: &Artifact) -> u64 {
    (a.size_bytes() as u64 / 8).max(1)
}

/// Execute `plan_edges` over the augmentation.
///
/// `costs` provides the virtual clock for [`ExecMode::Simulated`] and is
/// ignored by Real mode.
pub fn execute_plan(
    aug: &Augmentation,
    plan_edges: &[EdgeId],
    store: &impl ArtifactStorage,
    mode: ExecMode,
    costs: &[f64],
) -> Result<ExecOutcome, ExecError> {
    let order = execution_order(&aug.graph, plan_edges, &[aug.source])?;
    let mut outcome = ExecOutcome::default();
    let mut produced: HashMap<hyppo_hypergraph::NodeId, Artifact> = HashMap::new();

    for e in order {
        let label = aug.graph.edge(e);
        if mode == ExecMode::Simulated {
            let cost = costs.get(e.index()).copied().unwrap_or(0.0);
            outcome.metrics.push(TaskMetric {
                edge: e,
                op: label.op,
                task: label.task,
                impl_index: label.impl_index,
                cost_seconds: cost,
                input_cells: 0,
                is_load: label.is_load(),
            });
            outcome.total_seconds += cost;
            continue;
        }

        let (outputs, cost_seconds, input_cells) = if label.is_load() {
            let head = aug.graph.head(e)[0];
            let name = aug.graph.node(head).name;
            let (artifact, cost) = match &label.dataset {
                Some(id) => {
                    store.load_dataset(id).ok_or_else(|| ExecError::MissingDataset(id.clone()))?
                }
                None => store
                    .load_artifact(name)
                    .map_err(|e| ExecError::Corrupt(name, e))?
                    .ok_or(ExecError::MissingArtifact(name))?,
            };
            let cells = artifact_cells(&artifact);
            (vec![artifact], cost, cells)
        } else {
            let inputs: Vec<&Artifact> = aug
                .graph
                .tail(e)
                .iter()
                .map(|v| {
                    produced.get(v).ok_or_else(|| ExecError::MissingInput(aug.graph.node(*v).name))
                })
                .collect::<Result<_, _>>()?;
            let cells: u64 = inputs.iter().map(|a| artifact_cells(a)).sum();
            let start = Instant::now();
            let outputs =
                hyppo_ml::execute(label.op, label.task, label.impl_index, &label.config, &inputs)?;
            (outputs, start.elapsed().as_secs_f64(), cells)
        };

        for (artifact, &head) in outputs.into_iter().zip(aug.graph.head(e)) {
            // A node may be coverable by two plan edges (e.g. a split that
            // was chosen for its other output); keep the first product —
            // alternatives are equivalent by construction.
            let name = aug.graph.node(head).name;
            produced.entry(head).or_insert_with(|| artifact.clone());
            outcome.artifacts.entry(name).or_insert(artifact);
        }
        outcome.metrics.push(TaskMetric {
            edge: e,
            op: label.op,
            task: label.task,
            impl_index: label.impl_index,
            cost_seconds,
            input_cells,
            is_load: label.is_load(),
        });
        outcome.total_seconds += cost_seconds;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::{augment, AugmentOptions};
    use crate::history::History;
    use crate::store::ArtifactStore;
    use hyppo_ml::Config;
    use hyppo_pipeline::{build_pipeline, Dictionary, PipelineSpec};
    use hyppo_tensor::{Dataset, Matrix, SeededRng, TaskKind};

    fn classification_dataset(n: usize) -> Dataset {
        let mut rng = SeededRng::new(1);
        let mut x = Matrix::zeros(n, 3);
        let mut y = Vec::new();
        for r in 0..n {
            for c in 0..3 {
                x.set(r, c, rng.uniform(-1.0, 1.0));
            }
            y.push(if x.get(r, 0) > 0.0 { 1.0 } else { 0.0 });
        }
        Dataset::new(x, y, (0..3).map(|i| format!("f{i}")).collect(), TaskKind::Classification)
    }

    fn fig1ish() -> (Augmentation, ArtifactStore, Vec<f64>) {
        let mut spec = PipelineSpec::new();
        let d = spec.load("higgs");
        let (train, test) = spec.split(d, Config::new().with_i("seed", 0));
        let scaler = spec.fit(LogicalOp::StandardScaler, 0, Config::new(), &[train]);
        let train_s = spec.transform(LogicalOp::StandardScaler, 0, Config::new(), scaler, train);
        let test_s = spec.transform(LogicalOp::StandardScaler, 0, Config::new(), scaler, test);
        let model = spec.fit(LogicalOp::LinearSvm, 0, Config::new(), &[train_s]);
        let preds = spec.predict(LogicalOp::LinearSvm, 0, Config::new(), model, test_s);
        spec.evaluate(LogicalOp::Accuracy, preds, test_s);
        let p = build_pipeline(spec);
        let h = History::new();
        let opts = AugmentOptions { dictionary_alternatives: false, use_history: false };
        let a = augment(&p, &h, &Dictionary::full(), opts);
        let mut store = ArtifactStore::new();
        store.register_dataset("higgs", classification_dataset(200));
        let costs = vec![0.5; a.graph.edge_bound()];
        (a, store, costs)
    }

    #[test]
    fn real_execution_produces_all_artifacts() {
        let (a, store, costs) = fig1ish();
        let plan: Vec<EdgeId> = a.graph.edge_ids().collect();
        let outcome = execute_plan(&a, &plan, &store, ExecMode::Real, &costs).unwrap();
        assert_eq!(outcome.metrics.len(), plan.len());
        assert!(outcome.total_seconds > 0.0);
        // Every target is produced and the accuracy value is sensible.
        for &t in &a.targets {
            let name = a.graph.node(t).name;
            assert!(outcome.artifacts.contains_key(&name), "target {name} missing");
        }
        let acc_name = a.graph.node(a.targets[0]).name;
        let acc = outcome.value(acc_name).unwrap();
        assert!(acc > 0.8, "end-to-end accuracy {acc}");
    }

    #[test]
    fn simulated_execution_sums_costs_without_computing() {
        let (a, store, costs) = fig1ish();
        let plan: Vec<EdgeId> = a.graph.edge_ids().collect();
        let outcome = execute_plan(&a, &plan, &store, ExecMode::Simulated, &costs).unwrap();
        assert!(outcome.artifacts.is_empty());
        assert!((outcome.total_seconds - 0.5 * plan.len() as f64).abs() < 1e-9);
    }

    #[test]
    fn missing_dataset_is_an_error() {
        let (a, _, costs) = fig1ish();
        let empty_store = ArtifactStore::new();
        let plan: Vec<EdgeId> = a.graph.edge_ids().collect();
        let err = execute_plan(&a, &plan, &empty_store, ExecMode::Real, &costs).unwrap_err();
        assert!(matches!(err, ExecError::MissingDataset(_)));
    }

    #[test]
    fn incomplete_plan_is_an_error() {
        let (a, store, costs) = fig1ish();
        // Drop the load edge: the split can never fire.
        let plan: Vec<EdgeId> =
            a.graph.edge_ids().filter(|&e| !a.graph.edge(e).is_load()).collect();
        let err = execute_plan(&a, &plan, &store, ExecMode::Real, &costs).unwrap_err();
        assert!(matches!(err, ExecError::Topo(_)));
    }

    #[test]
    fn metrics_distinguish_loads_from_compute() {
        let (a, store, costs) = fig1ish();
        let plan: Vec<EdgeId> = a.graph.edge_ids().collect();
        let outcome = execute_plan(&a, &plan, &store, ExecMode::Real, &costs).unwrap();
        let loads = outcome.metrics.iter().filter(|m| m.is_load).count();
        assert_eq!(loads, 1);
        let fits = outcome.metrics.iter().filter(|m| m.task == TaskType::Fit).count();
        assert_eq!(fits, 2);
    }

    #[test]
    fn error_display() {
        let e = ExecError::MissingDataset("x".into());
        assert!(e.to_string().contains("x"));
    }
}
