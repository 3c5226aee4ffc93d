//! The pipeline augmenter (§IV-D).
//!
//! Given a submitted pipeline `P` and the history `H`, the augmenter builds
//! the augmentation `A`: a hypergraph that contains `P` as a sub-hypergraph
//! plus (a) every part of `H` that B-connects the source to artifacts
//! *equivalent* to artifacts of `P` — equivalents are found by logical-name
//! collision, which the naming convention guarantees — and (b) parallel
//! hyperedges for the dictionary's alternative physical implementations of
//! `P`'s tasks. Materialized artifacts contribute their `load` hyperedges.
//!
//! Every artifact of `A` may therefore have several incoming hyperedges:
//! the alternative ways to derive it. Finding the cheapest combination is
//! the optimizer's job.

use crate::estimator::{output_shape, CostEstimator, ShapeEst};
use crate::history::History;
use crate::store::ArtifactStorage;
use hyppo_hypergraph::{connectivity, EdgeId, HyperGraph, NodeId};
use hyppo_ml::TaskType;
use hyppo_pipeline::{naming, ArtifactName, Dictionary, EdgeLabel, NodeLabel, Pipeline};
use std::collections::HashMap;

/// The augmented pipeline `A`.
#[derive(Clone, Debug)]
pub struct Augmentation {
    /// The labelled hypergraph.
    pub graph: HyperGraph<NodeLabel, EdgeLabel>,
    /// The storage source node `s`.
    pub source: NodeId,
    /// Target artifacts (copied from the pipeline).
    pub targets: Vec<NodeId>,
    /// Node lookup by logical name.
    pub node_by_name: HashMap<ArtifactName, NodeId>,
    /// Edges of `A` not recorded in `H` — the *new tasks* (§IV-D).
    pub new_tasks: Vec<EdgeId>,
    /// The edges that came verbatim from the submitted pipeline.
    pub pipeline_edges: Vec<EdgeId>,
    /// History hyperedges examined to enrich `A`: those producing an
    /// artifact relevant to `P`. Bounded by the plan's ancestry in `H`,
    /// not by the size of `H`.
    pub history_edges_scanned: usize,
}

impl Augmentation {
    /// Logical name of a node.
    pub fn name_of(&self, v: NodeId) -> ArtifactName {
        self.graph.node(v).name
    }

    /// Graphviz rendering with the given plan's hyperedges highlighted —
    /// the visual of the paper's Figure 1(c).
    pub fn to_dot(&self, plan: &[EdgeId]) -> String {
        hyppo_hypergraph::dot::to_dot(
            &self.graph,
            |n| n.hint.clone(),
            |e| e.display(),
            |e| plan.contains(&e),
        )
    }
}

/// Options controlling augmentation.
#[derive(Clone, Copy, Debug)]
pub struct AugmentOptions {
    /// Add parallel hyperedges for alternative physical implementations
    /// from the dictionary (HYPPO: true; reuse-only baselines: false).
    pub dictionary_alternatives: bool,
    /// Enrich with history (false degenerates `A` to `P` — the
    /// NoOptimization view).
    pub use_history: bool,
}

impl Default for AugmentOptions {
    fn default() -> Self {
        AugmentOptions { dictionary_alternatives: true, use_history: true }
    }
}

/// Build the augmentation of `pipeline` against `history`.
pub fn augment(
    pipeline: &Pipeline,
    history: &History,
    dictionary: &Dictionary,
    opts: AugmentOptions,
) -> Augmentation {
    let mut graph: HyperGraph<NodeLabel, EdgeLabel> = HyperGraph::new();
    let source = graph.add_node(NodeLabel::source());
    let mut node_by_name: HashMap<ArtifactName, NodeId> = HashMap::new();
    let mut edge_seen: HashMap<(ArtifactName, usize), EdgeId> = HashMap::new();
    let mut pipeline_edges = Vec::new();

    let ensure_node = |graph: &mut HyperGraph<NodeLabel, EdgeLabel>,
                       node_by_name: &mut HashMap<ArtifactName, NodeId>,
                       label: &NodeLabel| {
        *node_by_name.entry(label.name).or_insert_with(|| graph.add_node(label.clone()))
    };

    // --- 1. Copy P ---
    for e in pipeline.graph.edge_ids() {
        let label = pipeline.graph.edge(e).clone();
        let tail: Vec<NodeId> = pipeline
            .graph
            .tail(e)
            .iter()
            .map(|&v| {
                if v == pipeline.source {
                    source
                } else {
                    ensure_node(&mut graph, &mut node_by_name, pipeline.graph.node(v))
                }
            })
            .collect();
        let head: Vec<NodeId> = pipeline
            .graph
            .head(e)
            .iter()
            .map(|&v| ensure_node(&mut graph, &mut node_by_name, pipeline.graph.node(v)))
            .collect();
        let identity = edge_identity(&graph, &label, &tail, &head, source);
        let impl_idx = label_impl(&label);
        let new_edge = graph.add_edge(tail, head, label);
        edge_seen.insert((identity, impl_idx), new_edge);
        pipeline_edges.push(new_edge);
    }

    // --- 2. Dictionary alternatives for P's tasks ---
    if opts.dictionary_alternatives {
        for &e in &pipeline_edges.clone() {
            let label = graph.edge(e).clone();
            if label.is_load() || label.task == TaskType::Load {
                continue;
            }
            let impls = dictionary.impls(label.op, label.task);
            for imp in impls {
                if imp.index == label.impl_index {
                    continue;
                }
                let identity = edge_identity(&graph, &label, graph.tail(e), graph.head(e), source);
                if edge_seen.contains_key(&(identity, imp.index)) {
                    continue;
                }
                let alt_label =
                    EdgeLabel::task(label.op, label.task, imp.index, label.config.clone());
                let tail = graph.tail(e).to_vec();
                let head = graph.head(e).to_vec();
                let alt = graph.add_edge(tail, head, alt_label);
                edge_seen.insert((identity, imp.index), alt);
            }
        }
    }

    // --- 3. History enrichment ---
    let mut history_edges_scanned = 0;
    if opts.use_history {
        // Artifacts of P that the history knows (equivalence by name).
        let matched: Vec<NodeId> = graph
            .node_ids()
            .filter(|&v| v != source)
            .filter_map(|v| history.node_of(graph.node(v).name))
            .collect();
        // The producers of everything B-relevant to them, in history edge
        // id order: the order decides the edge ids of `A`.
        let relevant_edges = connectivity::backward_relevant_edges(&history.graph, &matched);
        history_edges_scanned = relevant_edges.len();
        for he in relevant_edges {
            let label = history.graph.edge(he).clone();
            let tail: Vec<NodeId> = history
                .graph
                .tail(he)
                .iter()
                .map(|&v| {
                    if v == history.source {
                        source
                    } else {
                        ensure_node(&mut graph, &mut node_by_name, history.graph.node(v))
                    }
                })
                .collect();
            let head: Vec<NodeId> = history
                .graph
                .head(he)
                .iter()
                .map(|&v| ensure_node(&mut graph, &mut node_by_name, history.graph.node(v)))
                .collect();
            let tail_names: Vec<ArtifactName> =
                tail.iter().map(|&v| node_name(&graph, v, source)).collect();
            let head_names: Vec<ArtifactName> =
                head.iter().map(|&v| node_name(&graph, v, source)).collect();
            let identity = edge_identity_names(&label, &tail_names, &head_names);
            let impl_idx = label_impl(&label);
            if edge_seen.contains_key(&(identity, impl_idx)) {
                continue;
            }
            let new_edge = graph.add_edge(tail, head, label);
            edge_seen.insert((identity, impl_idx), new_edge);
        }
    }

    // --- 4. Classify new tasks ---
    let mut new_tasks = Vec::new();
    for e in graph.edge_ids() {
        let label = graph.edge(e);
        if label.is_load() {
            continue;
        }
        let tail_names: Vec<ArtifactName> =
            graph.tail(e).iter().map(|&v| node_name(&graph, v, source)).collect();
        let identity = naming::task_identity(label.op, label.task, &label.config, &tail_names);
        if !history.has_task(identity, label.impl_index) {
            new_tasks.push(e);
        }
    }

    // Targets by name.
    let targets: Vec<NodeId> =
        pipeline.targets.iter().map(|&v| node_by_name[&pipeline.graph.node(v).name]).collect();

    Augmentation {
        graph,
        source,
        targets,
        node_by_name,
        new_tasks,
        pipeline_edges,
        history_edges_scanned,
    }
}

/// Build an augmentation directly from the history for a *retrieval
/// request* (paper Scenario 2): the user asks for a set of previously
/// computed artifacts by name, and the graph of alternatives is exactly
/// the part of `H` that B-connects the source to them.
///
/// Returns `None` if any requested artifact is unknown to the history.
pub fn augment_request(history: &History, requests: &[ArtifactName]) -> Option<Augmentation> {
    let matched: Vec<NodeId> =
        requests.iter().map(|&n| history.node_of(n)).collect::<Option<_>>()?;
    let relevant_edges = connectivity::backward_relevant_edges(&history.graph, &matched);
    let history_edges_scanned = relevant_edges.len();

    let mut graph: HyperGraph<NodeLabel, EdgeLabel> = HyperGraph::new();
    let source = graph.add_node(NodeLabel::source());
    let mut node_by_name: HashMap<ArtifactName, NodeId> = HashMap::new();
    let ensure = |graph: &mut HyperGraph<NodeLabel, EdgeLabel>,
                  node_by_name: &mut HashMap<ArtifactName, NodeId>,
                  label: &NodeLabel| {
        *node_by_name.entry(label.name).or_insert_with(|| graph.add_node(label.clone()))
    };
    for he in relevant_edges {
        let label = history.graph.edge(he).clone();
        let tail: Vec<NodeId> = history
            .graph
            .tail(he)
            .iter()
            .map(|&v| {
                if v == history.source {
                    source
                } else {
                    ensure(&mut graph, &mut node_by_name, history.graph.node(v))
                }
            })
            .collect();
        let head: Vec<NodeId> = history
            .graph
            .head(he)
            .iter()
            .map(|&v| ensure(&mut graph, &mut node_by_name, history.graph.node(v)))
            .collect();
        graph.add_edge(tail, head, label);
    }
    let targets: Vec<NodeId> = requests.iter().map(|n| node_by_name[n]).collect();
    Some(Augmentation {
        graph,
        source,
        targets,
        node_by_name,
        new_tasks: Vec::new(),
        pipeline_edges: Vec::new(),
        history_edges_scanned,
    })
}

fn node_name(graph: &HyperGraph<NodeLabel, EdgeLabel>, v: NodeId, source: NodeId) -> ArtifactName {
    if v == source {
        ArtifactName(0)
    } else {
        graph.node(v).name
    }
}

fn label_impl(label: &EdgeLabel) -> usize {
    if label.is_load() {
        usize::MAX
    } else {
        label.impl_index
    }
}

fn edge_identity(
    graph: &HyperGraph<NodeLabel, EdgeLabel>,
    label: &EdgeLabel,
    tail: &[NodeId],
    head: &[NodeId],
    source: NodeId,
) -> ArtifactName {
    let tail_names: Vec<ArtifactName> = tail.iter().map(|&v| node_name(graph, v, source)).collect();
    let head_names: Vec<ArtifactName> = head.iter().map(|&v| node_name(graph, v, source)).collect();
    edge_identity_names(label, &tail_names, &head_names)
}

fn edge_identity_names(
    label: &EdgeLabel,
    tail_names: &[ArtifactName],
    head_names: &[ArtifactName],
) -> ArtifactName {
    if label.is_load() {
        // A load edge is identified by the artifact it loads.
        head_names[0]
    } else {
        naming::task_identity(label.op, label.task, &label.config, tail_names)
    }
}

/// Annotate every edge of the augmentation with an estimated cost in
/// seconds; returns a dense vector indexed by [`EdgeId::index`].
///
/// Shapes propagate from the registered datasets through the hypergraph to
/// size every estimate; artifacts already observed in the history use their
/// recorded sizes for load costs.
pub fn annotate_costs(
    aug: &Augmentation,
    estimator: &CostEstimator,
    store: &impl ArtifactStorage,
) -> Vec<f64> {
    let mut shapes: Vec<Option<ShapeEst>> = vec![None; aug.graph.node_bound()];
    shapes[aug.source.index()] = Some(ShapeEst { rows: 0.0, cols: 0.0 });

    // Seed dataset shapes from the store.
    for e in aug.graph.edge_ids() {
        let label = aug.graph.edge(e);
        if let Some(id) = &label.dataset {
            if let Some((rows, cols)) = store.dataset_shape(id) {
                for &h in aug.graph.head(e) {
                    shapes[h.index()] = Some(ShapeEst { rows: rows as f64, cols: cols as f64 });
                }
            }
        }
    }
    // Seed shapes for nodes with recorded sizes but unknown structure.
    for v in aug.graph.node_ids() {
        if shapes[v.index()].is_none() {
            if let Some(bytes) = aug.graph.node(v).size_bytes {
                shapes[v.index()] =
                    Some(ShapeEst { rows: (bytes as f64 / 8.0).max(1.0), cols: 1.0 });
            }
        }
    }

    // Fixpoint propagation (the augmentation is a DAG over names; its
    // longest path bounds the pass count).
    let edges: Vec<EdgeId> = aug.graph.edge_ids().collect();
    for _ in 0..64 {
        let mut changed = false;
        for &e in &edges {
            let label = aug.graph.edge(e);
            if label.is_load() {
                continue;
            }
            let tail = aug.graph.tail(e);
            let tail_shapes: Option<Vec<ShapeEst>> =
                tail.iter().map(|&v| shapes[v.index()]).collect();
            let Some(tail_shapes) = tail_shapes else { continue };
            for (i, &h) in aug.graph.head(e).iter().enumerate() {
                if shapes[h.index()].is_none() {
                    shapes[h.index()] =
                        Some(output_shape(label.op, label.task, &label.config, &tail_shapes, i));
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let fallback = ShapeEst { rows: 1.0, cols: 1.0 };
    let mut costs = vec![f64::INFINITY; aug.graph.edge_bound()];
    for &e in &edges {
        let label = aug.graph.edge(e);
        let cost = if label.is_load() {
            let bytes = match &label.dataset {
                Some(id) => store.dataset_bytes(id).unwrap_or(0),
                None => {
                    let head = aug.graph.head(e)[0];
                    aug.graph
                        .node(head)
                        .size_bytes
                        .unwrap_or_else(|| shapes[head.index()].unwrap_or(fallback).bytes() as u64)
                }
            };
            estimator.load_cost(bytes)
        } else {
            // Data input = largest tail artifact.
            let data_shape = aug
                .graph
                .tail(e)
                .iter()
                .map(|&v| shapes[v.index()].unwrap_or(fallback))
                .max_by(|a, b| a.cells().partial_cmp(&b.cells()).expect("finite"))
                .unwrap_or(fallback);
            estimator.task_cost(label.op, label.task, label.impl_index, &label.config, data_shape)
        };
        costs[e.index()] = cost;
    }
    costs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::ProducedArtifact;
    use crate::store::ArtifactStore;
    use hyppo_ml::{ArtifactKind, Config, LogicalOp};
    use hyppo_pipeline::{build_pipeline, ArtifactRole, PipelineSpec};
    use hyppo_tensor::{Dataset, Matrix, TaskKind};

    fn small_pipeline() -> Pipeline {
        let mut spec = PipelineSpec::new();
        let d = spec.load("higgs");
        let (train, test) = spec.split(d, Config::new().with_i("seed", 0));
        let scaler = spec.fit(LogicalOp::StandardScaler, 0, Config::new(), &[train]);
        let _scaled = spec.transform(LogicalOp::StandardScaler, 0, Config::new(), scaler, test);
        build_pipeline(spec)
    }

    fn store_with_higgs() -> ArtifactStore {
        let mut store = ArtifactStore::new();
        let d = Dataset::new(
            Matrix::filled(100, 5, 1.0),
            vec![0.0; 100],
            (0..5).map(|i| format!("f{i}")).collect(),
            TaskKind::Classification,
        );
        store.register_dataset("higgs", d);
        store
    }

    #[test]
    fn empty_history_augmentation_adds_dictionary_alternatives() {
        let p = small_pipeline();
        let h = History::new();
        let a = augment(&p, &h, &Dictionary::full(), AugmentOptions::default());
        // StandardScaler fit and transform each have 2 impls: +2 edges.
        assert_eq!(a.graph.edge_count(), p.graph.edge_count() + 2);
        // All non-load tasks are new (history is empty).
        assert_eq!(
            a.new_tasks.len(),
            a.graph.edge_ids().filter(|&e| !a.graph.edge(e).is_load()).count()
        );
        // Targets preserved by name.
        assert_eq!(a.targets.len(), p.targets.len());
    }

    #[test]
    fn no_alternatives_without_dictionary() {
        let p = small_pipeline();
        let h = History::new();
        let opts = AugmentOptions { dictionary_alternatives: false, use_history: true };
        let a = augment(&p, &h, &Dictionary::full(), opts);
        assert_eq!(a.graph.edge_count(), p.graph.edge_count());
    }

    #[test]
    fn history_contributes_alternative_producers_and_loads() {
        let p = small_pipeline();
        let mut h = History::new();
        // Record the same split + an equivalent scaler fit with impl 1,
        // and materialize the scaler state.
        let raw = naming::dataset_name("higgs");
        h.record_dataset("higgs", 100 * 5 * 8);
        let cfg = Config::new().with_i("seed", 0);
        let train =
            naming::output_name(LogicalOp::TrainTestSplit, TaskType::Split, &cfg, &[raw], 0);
        let test = naming::output_name(LogicalOp::TrainTestSplit, TaskType::Split, &cfg, &[raw], 1);
        let mk = |name: ArtifactName, role: ArtifactRole, size: u64| ProducedArtifact {
            name,
            label: NodeLabel {
                name,
                kind: ArtifactKind::Data,
                role,
                hint: "x".into(),
                size_bytes: Some(size),
            },
            size_bytes: size,
        };
        h.record_task(
            LogicalOp::TrainTestSplit,
            TaskType::Split,
            0,
            &cfg,
            &[raw],
            &[mk(train, ArtifactRole::Train, 3000), mk(test, ArtifactRole::Test, 1000)],
            0.2,
        );
        let scfg = Config::new();
        let state =
            naming::output_name(LogicalOp::StandardScaler, TaskType::Fit, &scfg, &[train], 0);
        h.record_task(
            LogicalOp::StandardScaler,
            TaskType::Fit,
            1, // equivalent task executed in "another framework"
            &scfg,
            &[train],
            &[mk(state, ArtifactRole::OpState, 80)],
            0.5,
        );
        h.materialize(state);
        h.materialize(train);

        let a = augment(&p, &h, &Dictionary::full(), AugmentOptions::default());
        // The scaler state node now has: P's impl-0 fit, dictionary impl-1
        // fit (== history's impl-1 edge, deduplicated), and a load edge.
        let state_node = a.node_by_name[&state];
        let bstar = a.graph.bstar(state_node);
        assert_eq!(bstar.len(), 3, "fit[0] + fit[1] + load");
        let loads = bstar.iter().filter(|&&e| a.graph.edge(e).is_load()).count();
        assert_eq!(loads, 1);
        // The recorded impl-1 fit is NOT a new task; impl 0 is.
        let impl1_fit = bstar
            .iter()
            .find(|&&e| !a.graph.edge(e).is_load() && a.graph.edge(e).impl_index == 1)
            .unwrap();
        assert!(!a.new_tasks.contains(impl1_fit));
        let impl0_fit = bstar
            .iter()
            .find(|&&e| !a.graph.edge(e).is_load() && a.graph.edge(e).impl_index == 0)
            .unwrap();
        assert!(a.new_tasks.contains(impl0_fit));
        // Materialized train artifact also has a load edge.
        let train_node = a.node_by_name[&train];
        assert!(a.graph.bstar(train_node).iter().any(|&e| a.graph.edge(e).is_load()));
    }

    /// Cross-submission prefix stability: augmentation is deterministic and
    /// appends history enrichment *after* the pipeline + dictionary edges,
    /// so re-augmenting the same pipeline against a history that grew
    /// (append-only) yields a graph whose growth journal passes through the
    /// previous augmentation's final state. That is exactly the property the
    /// `PlannerBoundsCache` repair path keys on.
    #[test]
    fn growing_history_augmentations_chain_in_the_growth_journal() {
        let p = small_pipeline();
        let dict = Dictionary::full();
        let first = augment(&p, &History::new(), &dict, AugmentOptions::default());

        // "Execute" the split and record it; the next submission's
        // augmentation sees a grown history.
        let mut h = History::new();
        h.record_dataset("higgs", 100 * 5 * 8);
        let raw = naming::dataset_name("higgs");
        let cfg = Config::new().with_i("seed", 0);
        let train =
            naming::output_name(LogicalOp::TrainTestSplit, TaskType::Split, &cfg, &[raw], 0);
        let test = naming::output_name(LogicalOp::TrainTestSplit, TaskType::Split, &cfg, &[raw], 1);
        let mk = |name: ArtifactName, role: ArtifactRole, size: u64| ProducedArtifact {
            name,
            label: NodeLabel {
                name,
                kind: ArtifactKind::Data,
                role,
                hint: "x".into(),
                size_bytes: Some(size),
            },
            size_bytes: size,
        };
        h.record_task(
            LogicalOp::TrainTestSplit,
            TaskType::Split,
            0,
            &cfg,
            &[raw],
            &[mk(train, ArtifactRole::Train, 3000), mk(test, ArtifactRole::Test, 1000)],
            0.2,
        );
        h.materialize(train);
        let second = augment(&p, &h, &dict, AugmentOptions::default());

        let delta = second
            .graph
            .growth_since(first.graph.structure_sig(), usize::MAX)
            .expect("second augmentation must pass through the first's structure");
        assert_eq!(delta.base_nodes, first.graph.node_bound());
        assert_eq!(delta.base_edges, first.graph.edge_bound());
        assert!(second.graph.edge_bound() > delta.base_edges, "history enrichment appended");
    }

    /// The history edges `H` contributes, listed the way augmentation
    /// used to find them: a scan of every history edge, keeping those whose
    /// head meets the B-relevant set of `targets`.
    fn scanned_relevant_edges(h: &History, targets: &[NodeId]) -> Vec<EdgeId> {
        let relevant = connectivity::backward_relevant(&h.graph, targets);
        h.graph
            .edge_ids()
            .filter(|&e| h.graph.head(e).iter().any(|&v| relevant.contains(v)))
            .collect()
    }

    fn names(
        g: &HyperGraph<NodeLabel, EdgeLabel>,
        vs: &[NodeId],
        source: NodeId,
    ) -> Vec<ArtifactName> {
        vs.iter().map(|&v| node_name(g, v, source)).collect()
    }

    /// Retrieval augmentations of a seeded random history copy exactly the
    /// edges the old whole-history scan selected, in its order: edge `k` of
    /// `A` is the scan's `k`-th history edge, label and endpoints alike.
    #[test]
    fn request_augmentation_copies_the_scanned_edges_id_for_id() {
        let h = crate::history::tests::random_history(3, 80);
        let all: Vec<ArtifactName> = h.artifact_names().collect();
        for requests in [vec![all[all.len() - 1]], vec![all[10], all[40], all[70]], all.clone()] {
            let matched: Vec<NodeId> = requests.iter().map(|&n| h.node_of(n).unwrap()).collect();
            let scanned = scanned_relevant_edges(&h, &matched);
            let a = augment_request(&h, &requests).unwrap();
            assert_eq!(a.history_edges_scanned, scanned.len());
            let copied: Vec<EdgeId> = a.graph.edge_ids().collect();
            assert_eq!(copied.len(), scanned.len());
            for (&e, &he) in copied.iter().zip(&scanned) {
                assert_eq!(a.graph.edge(e), h.graph.edge(he));
                assert_eq!(
                    names(&a.graph, a.graph.tail(e), a.source),
                    names(&h.graph, h.graph.tail(he), h.source)
                );
                assert_eq!(
                    names(&a.graph, a.graph.head(e), a.source),
                    names(&h.graph, h.graph.head(he), h.source)
                );
            }
        }
    }

    /// A pipeline augmentation against a seeded random history that also
    /// holds the pipeline's own split and an alternative scaler fit takes
    /// its history edges in the old scan's order: the relevant edges come
    /// out exactly as scanned, and the ones that survive deduplication
    /// enter `A` in increasing history edge id.
    #[test]
    fn pipeline_augmentation_takes_history_edges_in_scan_order() {
        let p = small_pipeline();
        let mut h = crate::history::tests::random_history(5, 60);
        let raw = naming::dataset_name("higgs");
        let cfg = Config::new().with_i("seed", 0);
        let train =
            naming::output_name(LogicalOp::TrainTestSplit, TaskType::Split, &cfg, &[raw], 0);
        let test = naming::output_name(LogicalOp::TrainTestSplit, TaskType::Split, &cfg, &[raw], 1);
        let mk = |name: ArtifactName| ProducedArtifact {
            name,
            label: NodeLabel {
                name,
                kind: ArtifactKind::Data,
                role: ArtifactRole::Train,
                hint: "x".into(),
                size_bytes: Some(100),
            },
            size_bytes: 100,
        };
        h.record_task(
            LogicalOp::TrainTestSplit,
            TaskType::Split,
            0,
            &cfg,
            &[raw],
            &[mk(train), mk(test)],
            0.2,
        );
        let state = naming::output_name(
            LogicalOp::StandardScaler,
            TaskType::Fit,
            &Config::new(),
            &[train],
            0,
        );
        h.record_task(
            LogicalOp::StandardScaler,
            TaskType::Fit,
            1,
            &Config::new(),
            &[train],
            &[mk(state)],
            0.5,
        );
        for name in [state, raw, test, train] {
            h.materialize(name);
        }

        let plain = augment(&p, &History::new(), &Dictionary::full(), AugmentOptions::default());
        let a = augment(&p, &h, &Dictionary::full(), AugmentOptions::default());
        let matched: Vec<NodeId> = a
            .graph
            .node_ids()
            .filter(|&v| v != a.source)
            .filter_map(|v| h.node_of(a.name_of(v)))
            .collect();
        let scanned = scanned_relevant_edges(&h, &matched);
        assert_eq!(connectivity::backward_relevant_edges(&h.graph, &matched), scanned);
        assert_eq!(a.history_edges_scanned, scanned.len());
        // Edges past the pipeline + dictionary prefix came from H; map each
        // back to its history edge and check the scan order.
        let from_history: Vec<EdgeId> = a
            .graph
            .edge_ids()
            .skip(plain.graph.edge_count())
            .map(|e| {
                let head = h.node_of(a.name_of(a.graph.head(e)[0])).unwrap();
                let tail = names(&a.graph, a.graph.tail(e), a.source);
                *h.graph
                    .bstar(head)
                    .iter()
                    .find(|&&he| {
                        h.graph.edge(he) == a.graph.edge(e)
                            && names(&h.graph, h.graph.tail(he), h.source) == tail
                    })
                    .expect("every enrichment edge is a history edge")
            })
            .collect();
        assert_eq!(from_history.len(), 3, "the loads of state, test and train");
        assert!(from_history.windows(2).all(|w| w[0] < w[1]), "{from_history:?}");
        assert!(from_history.iter().all(|he| scanned.contains(he)));
    }

    #[test]
    fn pipeline_is_subhypergraph_of_augmentation() {
        let p = small_pipeline();
        let h = History::new();
        let a = augment(&p, &h, &Dictionary::full(), AugmentOptions::default());
        assert_eq!(a.pipeline_edges.len(), p.graph.edge_count());
        for &e in &a.pipeline_edges {
            assert!(a.graph.contains_edge(e));
        }
        // Targets remain B-connected.
        assert!(hyppo_hypergraph::is_b_connected(&a.graph, &[a.source], &a.targets));
    }

    #[test]
    fn costs_are_finite_and_size_aware() {
        let p = small_pipeline();
        let h = History::new();
        let a = augment(&p, &h, &Dictionary::full(), AugmentOptions::default());
        let store = store_with_higgs();
        let est = CostEstimator::new();
        let costs = annotate_costs(&a, &est, &store);
        for e in a.graph.edge_ids() {
            assert!(costs[e.index()].is_finite(), "{:?} has no cost", a.graph.edge(e));
            assert!(costs[e.index()] > 0.0);
        }
        // The split (full dataset) must cost more than the scaler fit
        // estimate is allowed to be zero-ish but finite; sanity only.
    }

    #[test]
    fn load_edges_cost_by_recorded_size() {
        let p = small_pipeline();
        let mut h = History::new();
        h.record_dataset("higgs", 100 * 5 * 8);
        let raw = naming::dataset_name("higgs");
        let cfg = Config::new().with_i("seed", 0);
        let train =
            naming::output_name(LogicalOp::TrainTestSplit, TaskType::Split, &cfg, &[raw], 0);
        let test = naming::output_name(LogicalOp::TrainTestSplit, TaskType::Split, &cfg, &[raw], 1);
        let mk = |name: ArtifactName, size: u64| ProducedArtifact {
            name,
            label: NodeLabel {
                name,
                kind: ArtifactKind::Data,
                role: ArtifactRole::Train,
                hint: "x".into(),
                size_bytes: Some(size),
            },
            size_bytes: size,
        };
        h.record_task(
            LogicalOp::TrainTestSplit,
            TaskType::Split,
            0,
            &cfg,
            &[raw],
            &[mk(train, 30_000_000), mk(test, 10_000_000)],
            0.2,
        );
        h.materialize(train);
        h.materialize(test);
        let a = augment(&p, &h, &Dictionary::full(), AugmentOptions::default());
        let est = CostEstimator::new();
        let costs = annotate_costs(&a, &est, &store_with_higgs());
        let train_node = a.node_by_name[&train];
        let test_node = a.node_by_name[&test];
        let load_cost = |v: NodeId| {
            a.graph
                .bstar(v)
                .iter()
                .find(|&&e| a.graph.edge(e).is_load())
                .map(|&e| costs[e.index()])
                .unwrap()
        };
        assert!(load_cost(train_node) > load_cost(test_node), "larger artifact loads slower");
    }
}
