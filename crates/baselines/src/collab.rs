//! Collab (Derakhshan et al., SIGMOD'20), reimplemented per the paper's
//! description: computation sharing over an *experiment graph* spanning
//! all prior pipelines, a **linear-time reuse heuristic** that trades
//! optimality for speed ("good enough plans"), and utility-based
//! materialization.
//!
//! # The linear reuse heuristic
//!
//! For every artifact, compute (in one topological pass, memoized) the
//! *standalone recreation cost*
//!
//! ```text
//! rc(v) = min( load(v) if materialized,
//!              cost(producer(v)) + Σ_{u ∈ inputs} rc(u) )
//! ```
//!
//! and take the `argmin` choice at each artifact. Because `rc` sums input
//! costs independently, artifacts shared by several inputs are counted
//! multiple times — the deliberate approximation that makes the algorithm
//! linear but occasionally suboptimal (the paper's §V-A-c: "at the expense
//! of not always yielding the best solution").
//!
//! # Materialization
//!
//! Collab ranks candidates from the whole experiment graph by the utility
//! `freq(v) × recreation_cost(v) / size(v)` and keeps the best fit under
//! the budget.

use crate::method::{ArtifactRequest, BaselineState, Method, MethodReport};
use hyppo_core::augment::Augmentation;
use hyppo_core::system::SubmitError;
use hyppo_hypergraph::{EdgeId, NodeId};
use hyppo_ml::Artifact;
use hyppo_pipeline::{ArtifactName, ArtifactRole, NamingMode, PipelineSpec};
use hyppo_tensor::Dataset;
use std::collections::HashMap;
use std::time::Instant;

/// The Collab baseline.
#[derive(Debug)]
pub struct Collab {
    state: BaselineState,
}

impl Collab {
    /// A Collab system with the given storage budget.
    pub fn new(budget_bytes: u64) -> Self {
        Collab { state: BaselineState::new(budget_bytes) }
    }
}

/// The linear reuse pass. Returns the plan edges chosen by the heuristic.
///
/// Requires physical naming (each artifact has at most one computational
/// producer plus an optional load edge).
pub fn collab_plan(aug: &Augmentation, costs: &[f64], targets: &[NodeId]) -> Option<Vec<EdgeId>> {
    // Memoized standalone recreation cost + choice per node.
    fn rc(
        aug: &Augmentation,
        costs: &[f64],
        v: NodeId,
        memo: &mut HashMap<NodeId, (f64, Option<EdgeId>)>,
    ) -> (f64, Option<EdgeId>) {
        if v == aug.source {
            return (0.0, None);
        }
        if let Some(&cached) = memo.get(&v) {
            return cached;
        }
        // Defensive cycle cut (augmentations are DAGs by construction).
        memo.insert(v, (f64::INFINITY, None));
        let mut best = (f64::INFINITY, None);
        for &e in aug.graph.bstar(v) {
            let label = aug.graph.edge(e);
            let total = if label.is_load() {
                costs[e.index()]
            } else {
                let mut t = costs[e.index()];
                for &u in aug.graph.tail(e) {
                    t += rc(aug, costs, u, memo).0;
                    if t.is_infinite() {
                        break;
                    }
                }
                t
            };
            if total < best.0 {
                best = (total, Some(e));
            }
        }
        memo.insert(v, best);
        best
    }

    let mut memo = HashMap::new();
    for &t in targets {
        if rc(aug, costs, t, &mut memo).0.is_infinite() {
            return None;
        }
    }
    // Assemble the plan by walking the argmin choices (shared artifacts
    // executed once at runtime even though the estimate double-counted).
    let mut edges: Vec<EdgeId> = Vec::new();
    let mut stack: Vec<NodeId> = targets.to_vec();
    let mut seen: Vec<bool> = vec![false; aug.graph.node_bound()];
    while let Some(v) = stack.pop() {
        if v == aug.source || seen[v.index()] {
            continue;
        }
        seen[v.index()] = true;
        let (_, choice) = rc(aug, costs, v, &mut memo);
        let e = choice?;
        if !edges.contains(&e) {
            edges.push(e);
            for &u in aug.graph.tail(e) {
                stack.push(u);
            }
        }
    }
    Some(hyppo_hypergraph::minimize_plan(&aug.graph, &edges, &[aug.source], targets))
}

/// Collab's materialization round: utility-ranked greedy under the budget.
fn collab_materialize(
    state: &mut BaselineState,
    fresh: &HashMap<ArtifactName, Artifact>,
) -> (usize, usize) {
    // Candidates: currently materialized ∪ fresh, minus raw sources.
    let mut candidates: Vec<(ArtifactName, u64, bool)> = Vec::new();
    for name in state.history.materialized().collect::<Vec<_>>() {
        if let Some(size) = state.store.size_of(name) {
            candidates.push((name, size, false));
        }
    }
    for (&name, artifact) in fresh {
        if state.history.is_materialized(name) {
            continue;
        }
        let Some(node) = state.history.node_of(name) else { continue };
        let role = state.history.graph.node(node).role;
        if matches!(role, ArtifactRole::Raw | ArtifactRole::Source) {
            continue;
        }
        candidates.push((name, artifact.size_bytes() as u64, true));
    }
    // Utility: freq × recreation_cost / size.
    let mut ranked: Vec<(f64, ArtifactName, u64, bool)> = candidates
        .into_iter()
        .map(|(name, size, is_fresh)| {
            let stats = state.history.stats_of(name);
            let utility =
                stats.freq.max(1) as f64 * stats.compute_cost.max(1e-9) / size.max(1) as f64;
            (utility, name, size, is_fresh)
        })
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));

    let mut used = 0u64;
    let mut keep: Vec<(ArtifactName, bool)> = Vec::new();
    for (_, name, size, is_fresh) in ranked {
        if used + size <= state.budget_bytes {
            used += size;
            keep.push((name, is_fresh));
        }
    }
    let mut evicted = 0;
    let keep_names: Vec<ArtifactName> = keep.iter().map(|&(n, _)| n).collect();
    for name in state.history.materialized().collect::<Vec<_>>() {
        if !keep_names.contains(&name) {
            state.history.evict(name);
            state.store.remove(name);
            evicted += 1;
        }
    }
    let mut stored = 0;
    for (name, is_fresh) in keep {
        if is_fresh {
            state.store.put(name, &fresh[&name]);
            state.history.materialize(name);
            stored += 1;
        }
    }
    (stored, evicted)
}

impl Method for Collab {
    fn name(&self) -> &'static str {
        "Collab"
    }

    fn register_dataset(&mut self, id: &str, dataset: Dataset) {
        self.state.register_dataset(id, dataset);
    }

    fn submit(&mut self, spec: PipelineSpec) -> Result<MethodReport, SubmitError> {
        let start = Instant::now();
        let aug = self.state.build_augmentation(spec, true);
        let costs = self.state.costs(&aug);
        let targets = aug.targets.clone();
        let plan = collab_plan(&aug, &costs, &targets).ok_or(SubmitError::NoPlan)?;
        let planned: f64 = plan.iter().map(|&e| costs[e.index()]).sum();
        let optimize_seconds = start.elapsed().as_secs_f64();
        let (mut report, fresh) = self.state.run(&aug, &plan, planned, optimize_seconds)?;
        if self.state.budget_bytes > 0 {
            let (stored, evicted) = collab_materialize(&mut self.state, &fresh);
            report.stored = stored;
            report.evicted = evicted;
        }
        Ok(report)
    }

    fn retrieve(&mut self, requests: &[ArtifactRequest]) -> Result<MethodReport, SubmitError> {
        let start = Instant::now();
        let names: Vec<ArtifactName> =
            requests.iter().map(|r| r.name(NamingMode::Physical)).collect();
        let aug = self.state.build_request_augmentation(&names).ok_or(SubmitError::NoPlan)?;
        let costs = self.state.costs(&aug);
        let targets = aug.targets.clone();
        let plan = collab_plan(&aug, &costs, &targets).ok_or(SubmitError::NoPlan)?;
        let planned: f64 = plan.iter().map(|&e| costs[e.index()]).sum();
        let optimize_seconds = start.elapsed().as_secs_f64();
        let (report, _) = self.state.run(&aug, &plan, planned, optimize_seconds)?;
        Ok(report)
    }

    fn cumulative_seconds(&self) -> f64 {
        self.state.cumulative_seconds
    }

    fn budget_bytes(&self) -> u64 {
        self.state.budget_bytes
    }

    fn history_artifacts(&self) -> usize {
        self.state.history.artifact_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppo_ml::{Config, LogicalOp};
    use hyppo_pipeline::{ArtifactHandle, StepId};
    use hyppo_tensor::{Matrix, SeededRng, TaskKind};

    fn dataset(n: usize) -> Dataset {
        let mut rng = SeededRng::new(13);
        let mut x = Matrix::zeros(n, 3);
        let mut y = Vec::new();
        for r in 0..n {
            for c in 0..3 {
                x.set(r, c, rng.uniform(-1.0, 1.0));
            }
            y.push(x.get(r, 1));
        }
        Dataset::new(x, y, (0..3).map(|i| format!("f{i}")).collect(), TaskKind::Regression)
    }

    fn spec(seed: i64, trees: i64) -> PipelineSpec {
        let mut s = PipelineSpec::new();
        let d = s.load("data");
        let (train, test) = s.split(d, Config::new().with_i("seed", seed));
        let cfg = Config::new().with_i("n_trees", trees).with_i("max_depth", 7).with_i("seed", 5);
        let model = s.fit(LogicalOp::RandomForest, 0, cfg.clone(), &[train]);
        let preds = s.predict(LogicalOp::RandomForest, 0, cfg, model, test);
        s.evaluate(LogicalOp::Mse, preds, test);
        s
    }

    #[test]
    fn materialization_enables_reuse_on_resubmission() {
        let mut c = Collab::new(64 * 1024 * 1024);
        c.register_dataset("data", dataset(1500));
        let first = c.submit(spec(0, 25)).unwrap();
        assert!(first.stored > 0);
        let second = c.submit(spec(0, 25)).unwrap();
        assert!(second.loads >= 1);
        assert!(second.execution_seconds < first.execution_seconds);
    }

    #[test]
    fn experiment_graph_spans_all_prior_pipelines() {
        // Unlike Helix, Collab keeps artifacts from ALL prior pipelines.
        let mut c = Collab::new(64 * 1024 * 1024);
        c.register_dataset("data", dataset(600));
        c.submit(spec(0, 10)).unwrap();
        let after_first: Vec<_> = c.state.history.materialized().collect();
        assert!(!after_first.is_empty());
        c.submit(spec(1, 10)).unwrap();
        // Budget is ample: run-1 artifacts survive run 2.
        for name in after_first {
            assert!(
                c.state.history.is_materialized(name),
                "Collab keeps the full experiment graph under ample budget"
            );
        }
    }

    #[test]
    fn linear_heuristic_can_be_suboptimal_on_shared_subgraphs() {
        // Construct an augmentation where two targets share an expensive
        // upstream: the heuristic double-counts it and wrongly prefers two
        // separate loads.
        use hyppo_core::optimizer::{PlanRequest, Planner};
        use hyppo_pipeline::{EdgeLabel, NodeLabel};
        let mut graph = hyppo_hypergraph::HyperGraph::new();
        let s = graph.add_node(NodeLabel::source());
        let mk = |name: u64| NodeLabel {
            name: ArtifactName(name),
            kind: hyppo_ml::ArtifactKind::Data,
            role: ArtifactRole::Train,
            hint: "x".into(),
            size_bytes: Some(8),
        };
        let shared = graph.add_node(mk(1));
        let t1 = graph.add_node(mk(2));
        let t2 = graph.add_node(mk(3));
        let load_label = || EdgeLabel {
            op: LogicalOp::LoadDataset,
            task: hyppo_ml::TaskType::Load,
            impl_index: 0,
            config: Config::new(),
            dataset: None,
        };
        let task_label = |op| EdgeLabel::task(op, hyppo_ml::TaskType::Transform, 0, Config::new());
        // shared derivable only by compute from s (cost 10).
        let e_shared = graph.add_edge(vec![s], vec![shared], task_label(LogicalOp::Normalizer));
        // t1, t2: compute from shared (cost 1 each) or load (cost 7 each).
        let e_c1 = graph.add_edge(vec![shared], vec![t1], task_label(LogicalOp::LogTransform));
        let e_c2 = graph.add_edge(vec![shared], vec![t2], task_label(LogicalOp::TimeFeatures));
        let e_l1 = graph.add_edge(vec![s], vec![t1], load_label());
        let e_l2 = graph.add_edge(vec![s], vec![t2], load_label());
        let mut costs = vec![0.0; graph.edge_bound()];
        costs[e_shared.index()] = 10.0;
        costs[e_c1.index()] = 1.0;
        costs[e_c2.index()] = 1.0;
        costs[e_l1.index()] = 7.0;
        costs[e_l2.index()] = 7.0;
        let aug = Augmentation {
            graph,
            source: s,
            targets: vec![t1, t2],
            node_by_name: Default::default(),
            new_tasks: vec![],
            pipeline_edges: vec![],
            history_edges_scanned: 0,
        };
        // Heuristic: rc(t1) = min(7, 1+10) = 7 → load both: cost 14.
        let plan = collab_plan(&aug, &costs, &[t1, t2]).unwrap();
        let plan_cost: f64 = plan.iter().map(|&e| costs[e.index()]).sum();
        assert!((plan_cost - 14.0).abs() < 1e-9, "heuristic picks the loads: {plan_cost}");
        // Optimal: compute shared once (10) + 1 + 1 = 12.
        let exact =
            Planner::exact().plan(&aug.graph, PlanRequest::new(&costs, s, &[t1, t2])).unwrap();
        assert!((exact.cost - 12.0).abs() < 1e-9);
        assert!(plan_cost > exact.cost, "Collab is 'good enough', not optimal");
    }

    #[test]
    fn retrieval_uses_materialized_artifacts() {
        let mut c = Collab::new(64 * 1024 * 1024);
        c.register_dataset("data", dataset(1000));
        c.submit(spec(0, 20)).unwrap();
        let req = ArtifactRequest {
            spec: spec(0, 20),
            handle: ArtifactHandle { step: StepId(2), output: 0 }, // the model
        };
        let r = c.retrieve(&[req]).unwrap();
        assert!(r.loads >= 1, "the model should load, not refit");
        assert_eq!(r.tasks_executed, 1, "a single load suffices");
    }
}
