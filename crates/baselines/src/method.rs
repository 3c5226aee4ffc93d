//! The common interface experiment harnesses drive, plus the shared
//! plumbing all baselines reuse (physically-named history, executor,
//! monitor).

use hyppo_core::augment::{annotate_costs, Augmentation};
use hyppo_core::executor::{execute_plan, ExecMode};
use hyppo_core::history::History;
use hyppo_core::monitor::record_outcome;
use hyppo_core::system::{Hyppo, RunReport, SubmitError};
use hyppo_core::{ArtifactStore, CostEstimator, PriceModel, Session};
use hyppo_hypergraph::{EdgeId, HyperGraph, NodeId};
use hyppo_ml::Artifact;
use hyppo_pipeline::{
    build_pipeline_mode, ArtifactHandle, ArtifactName, EdgeLabel, NamingMode, NodeLabel,
    PipelineSpec,
};
use hyppo_tensor::Dataset;
use std::collections::HashMap;

/// Alias: method runs report with the same fields as HYPPO's own report.
pub type MethodReport = RunReport;

/// A reference to an artifact of a known pipeline: `(spec, step output)`.
/// Methods resolve it to a name under their own naming mode.
#[derive(Clone, Debug)]
pub struct ArtifactRequest {
    /// The pipeline that produced the artifact.
    pub spec: PipelineSpec,
    /// Which step output is requested.
    pub handle: ArtifactHandle,
}

impl ArtifactRequest {
    /// The artifact's name under the given naming mode.
    pub fn name(&self, mode: NamingMode) -> ArtifactName {
        self.spec.output_names_mode(mode)[self.handle.step.0][self.handle.output]
    }
}

/// A pipeline-execution method under evaluation (HYPPO or a baseline).
pub trait Method {
    /// Display name used in experiment tables.
    fn name(&self) -> &'static str;
    /// Register a raw dataset.
    fn register_dataset(&mut self, id: &str, dataset: Dataset);
    /// Execute one pipeline (Scenario 1).
    fn submit(&mut self, spec: PipelineSpec) -> Result<MethodReport, SubmitError>;
    /// Retrieve previously computed artifacts (Scenario 2).
    fn retrieve(&mut self, requests: &[ArtifactRequest]) -> Result<MethodReport, SubmitError>;
    /// Cumulative execution time so far (the paper's `cet`).
    fn cumulative_seconds(&self) -> f64;
    /// Configured storage budget in bytes.
    fn budget_bytes(&self) -> u64;
    /// Monetary cost so far (`cet × rate + B × rate`).
    fn price(&self) -> f64 {
        PriceModel::default().price(self.cumulative_seconds(), self.budget_bytes())
    }
    /// Number of artifacts recorded in the method's history (0 when the
    /// method keeps none). Used by the overhead study (Fig. 9b).
    fn history_artifacts(&self) -> usize {
        0
    }
}

/// Shared state of the reuse baselines: a *physically named* history plus
/// the store/estimator/clock every method needs.
#[derive(Debug)]
pub struct BaselineState {
    /// History under physical naming.
    pub history: History,
    /// Cost estimator (same learning rules as HYPPO's).
    pub estimator: CostEstimator,
    /// Artifact store.
    pub store: ArtifactStore,
    /// Cumulative execution seconds.
    pub cumulative_seconds: f64,
    /// Storage budget in bytes.
    pub budget_bytes: u64,
}

impl BaselineState {
    /// Fresh state with the given budget.
    pub fn new(budget_bytes: u64) -> Self {
        BaselineState {
            history: History::new(),
            estimator: CostEstimator::new(),
            store: ArtifactStore::new(),
            cumulative_seconds: 0.0,
            budget_bytes,
        }
    }

    /// Register a dataset with both store and history.
    pub fn register_dataset(&mut self, id: &str, dataset: Dataset) {
        let size = dataset.size_bytes() as u64;
        self.store.register_dataset(id, dataset);
        self.history.record_dataset(id, size);
    }

    /// Build this baseline's view of a submitted pipeline: physical naming,
    /// no dictionary alternatives, history enrichment as requested.
    pub fn build_augmentation(&self, spec: PipelineSpec, use_history: bool) -> Augmentation {
        let pipeline = build_pipeline_mode(spec, NamingMode::Physical);
        let opts =
            hyppo_core::augment::AugmentOptions { dictionary_alternatives: false, use_history };
        hyppo_core::augment::augment(
            &pipeline,
            &self.history,
            &hyppo_pipeline::Dictionary::single_impl(),
            opts,
        )
    }

    /// Build a retrieval augmentation from the history for named requests.
    pub fn build_request_augmentation(&self, names: &[ArtifactName]) -> Option<Augmentation> {
        hyppo_core::augment::augment_request(&self.history, names)
    }

    /// Estimated costs for an augmentation's edges.
    pub fn costs(&self, aug: &Augmentation) -> Vec<f64> {
        annotate_costs(aug, &self.estimator, &self.store)
    }

    /// Execute a plan, record it into history/estimator, advance the clock.
    /// Returns the report skeleton plus the freshly produced artifacts
    /// (input to the method's materializer).
    pub fn run(
        &mut self,
        aug: &Augmentation,
        plan_edges: &[EdgeId],
        planned_cost: f64,
        optimize_seconds: f64,
    ) -> Result<(MethodReport, HashMap<ArtifactName, Artifact>), SubmitError> {
        let costs = self.costs(aug);
        let outcome = execute_plan(aug, plan_edges, &self.store, ExecMode::Real, &costs)
            .map_err(SubmitError::Exec)?;
        let target_names: Vec<ArtifactName> =
            aug.targets.iter().map(|&t| aug.graph.node(t).name).collect();
        record_outcome(aug, &outcome, &target_names, &mut self.history, &mut self.estimator);
        self.cumulative_seconds += outcome.total_seconds;
        let values =
            target_names.iter().filter_map(|&n| outcome.value(n).map(|v| (n, v))).collect();
        let report = MethodReport {
            planned_cost,
            execution_seconds: outcome.total_seconds,
            optimize_seconds,
            tasks_executed: outcome.metrics.len(),
            loads: outcome.metrics.iter().filter(|m| m.is_load).count(),
            new_tasks: aug.new_tasks.len(),
            expansions: 0,
            pops: 0,
            stored: 0,
            evicted: 0,
            values,
        };
        Ok((report, outcome.artifacts))
    }
}

/// Backward closure of the targets following each artifact's *unique*
/// computational producer (physical naming guarantees uniqueness),
/// optionally stopping at artifacts in `stop_at_load`. Returns the edge
/// set — the "just recompute everything, shared" plan.
pub fn unique_derivation_plan(
    graph: &HyperGraph<NodeLabel, EdgeLabel>,
    source: NodeId,
    targets: &[NodeId],
    load_instead: impl Fn(NodeId) -> bool,
) -> Option<Vec<EdgeId>> {
    let mut edges = Vec::new();
    let mut visited = vec![false; graph.node_bound()];
    let mut stack: Vec<NodeId> = targets.to_vec();
    while let Some(v) = stack.pop() {
        if v == source || visited[v.index()] {
            continue;
        }
        visited[v.index()] = true;
        let bstar = graph.bstar(v);
        let load = bstar.iter().copied().find(|&e| graph.edge(e).is_load());
        let compute = bstar.iter().copied().find(|&e| !graph.edge(e).is_load());
        let chosen = if load_instead(v) { load.or(compute) } else { compute.or(load) }?;
        if !edges.contains(&chosen) {
            edges.push(chosen);
            for &u in graph.tail(chosen) {
                stack.push(u);
            }
        }
    }
    Some(edges)
}

/// Any [`Session`] backend behind the [`Method`] interface — logical naming,
/// requests resolved to names before handing off to the session.
///
/// [`HyppoMethod`] is the serial instantiation; `hyppo-serve`'s
/// `SharedHyppo` and `Client` slot in the same way, so experiment harnesses
/// compare serial and concurrent backends without special-casing either.
#[derive(Debug)]
pub struct SessionMethod<S>(pub S);

impl<S: Session> Method for SessionMethod<S> {
    fn name(&self) -> &'static str {
        self.0.backend_name()
    }

    fn register_dataset(&mut self, id: &str, dataset: Dataset) {
        self.0.register_dataset(id, dataset);
    }

    fn submit(&mut self, spec: PipelineSpec) -> Result<MethodReport, SubmitError> {
        self.0.submit(spec)
    }

    fn retrieve(&mut self, requests: &[ArtifactRequest]) -> Result<MethodReport, SubmitError> {
        let names: Vec<ArtifactName> =
            requests.iter().map(|r| r.name(NamingMode::Logical)).collect();
        self.0.retrieve(&names)
    }

    fn cumulative_seconds(&self) -> f64 {
        self.0.cumulative_seconds()
    }

    fn budget_bytes(&self) -> u64 {
        self.0.budget_bytes()
    }

    fn history_artifacts(&self) -> usize {
        self.0.history_artifacts()
    }
}

/// HYPPO itself behind the [`Method`] interface.
pub type HyppoMethod = SessionMethod<Hyppo>;

#[cfg(test)]
mod tests {
    use super::*;
    use hyppo_ml::{Config, LogicalOp};
    use hyppo_tensor::{Matrix, TaskKind};

    fn dataset() -> Dataset {
        Dataset::new(
            Matrix::filled(50, 2, 1.0),
            vec![0.0; 50],
            vec!["a".into(), "b".into()],
            TaskKind::Regression,
        )
    }

    fn spec() -> PipelineSpec {
        let mut s = PipelineSpec::new();
        let d = s.load("data");
        let (train, _test) = s.split(d, Config::new().with_i("seed", 0));
        s.fit(LogicalOp::StandardScaler, 0, Config::new(), &[train]);
        s
    }

    #[test]
    fn artifact_request_resolves_per_mode() {
        let s = spec();
        let req = ArtifactRequest {
            spec: s,
            handle: ArtifactHandle { step: hyppo_pipeline::StepId(2), output: 0 },
        };
        let logical = req.name(NamingMode::Logical);
        let physical = req.name(NamingMode::Physical);
        assert_ne!(logical, physical);
    }

    #[test]
    fn baseline_state_runs_a_plan() {
        let mut st = BaselineState::new(0);
        st.register_dataset("data", dataset());
        let aug = st.build_augmentation(spec(), false);
        let plan: Vec<EdgeId> = aug.graph.edge_ids().collect();
        let (report, fresh) = st.run(&aug, &plan, 1.0, 0.0).unwrap();
        assert_eq!(report.tasks_executed, 3);
        assert!(!fresh.is_empty());
        assert!(st.cumulative_seconds > 0.0);
        assert!(st.history.artifact_count() >= 3);
    }

    #[test]
    fn unique_derivation_plan_walks_back_to_source() {
        let mut st = BaselineState::new(0);
        st.register_dataset("data", dataset());
        let aug = st.build_augmentation(spec(), false);
        let plan = unique_derivation_plan(&aug.graph, aug.source, &aug.targets, |_| false).unwrap();
        assert_eq!(plan.len(), 3, "load + split + fit");
    }

    #[test]
    fn hyppo_method_roundtrip() {
        let mut m = SessionMethod(Hyppo::new(Default::default()));
        m.register_dataset("data", dataset());
        assert_eq!(m.name(), "HYPPO");
        let report = m.submit(spec()).unwrap();
        assert!(report.execution_seconds > 0.0);
        assert!(m.cumulative_seconds() > 0.0);
        assert_eq!(m.budget_bytes(), 0);
        assert!(m.price() > 0.0);
    }
}
