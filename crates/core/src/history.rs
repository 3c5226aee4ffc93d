//! The history hypergraph `H` (§III-C4, §IV-B): the accumulated knowledge
//! of past pipeline executions.
//!
//! Nodes are every artifact ever observed (keyed by logical name); edges
//! are every task that produced them, including parallel alternatives. A
//! materialized artifact additionally carries a `load` hyperedge from the
//! source `s`; evicting the artifact removes only that hyperedge — the
//! node and its computational edges stay (§IV-H). Per-artifact statistics
//! (access frequency, production cost, size) feed the materializer.

use crate::durable::DurableEvent;
use hyppo_hypergraph::{EdgeId, HyperGraph, NodeId};
use hyppo_ml::{Config, LogicalOp, TaskType};
use hyppo_pipeline::{naming, ArtifactName, EdgeLabel, NodeLabel};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Per-artifact statistics maintained in the history.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ArtifactStats {
    /// How many times the artifact has been required by a pipeline.
    pub freq: u64,
    /// Last observed cost (seconds) of computing the artifact.
    pub compute_cost: f64,
    /// Observed size in bytes.
    pub size_bytes: u64,
    /// Logical timestamp of the last access.
    pub last_access: u64,
}

/// Description of one produced artifact when recording a task execution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProducedArtifact {
    /// Logical name.
    pub name: ArtifactName,
    /// Node label to use if the artifact is new to the history.
    pub label: NodeLabel,
    /// Observed size in bytes.
    pub size_bytes: u64,
}

/// Depths of a set of artifacts, from [`History::depths_of`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Depths {
    /// Depth of every requested artifact the history knows.
    pub by_name: HashMap<ArtifactName, f64>,
    /// Nodes the walk computed a depth for: the requested artifacts and
    /// their ancestors, never the rest of the history.
    pub nodes_visited: usize,
}

/// The history `H`.
#[derive(Clone, Debug)]
pub struct History {
    /// The labelled hypergraph.
    pub graph: HyperGraph<NodeLabel, EdgeLabel>,
    /// The storage source node `s`.
    pub source: NodeId,
    node_by_name: HashMap<ArtifactName, NodeId>,
    edge_by_identity: HashMap<(ArtifactName, usize), EdgeId>,
    load_edge: HashMap<ArtifactName, EdgeId>,
    /// The same load edges keyed by edge id: edge ids are never reused, so
    /// this iterates materialized artifacts in materialization order.
    load_order: BTreeMap<EdgeId, ArtifactName>,
    stats: HashMap<ArtifactName, ArtifactStats>,
    clock: u64,
    journal_enabled: bool,
    journal: Vec<DurableEvent>,
}

impl Default for History {
    fn default() -> Self {
        Self::new()
    }
}

impl History {
    /// An empty history containing only the source node.
    pub fn new() -> Self {
        let mut graph = HyperGraph::new();
        let source = graph.add_node(NodeLabel::source());
        History {
            graph,
            source,
            node_by_name: HashMap::new(),
            edge_by_identity: HashMap::new(),
            load_edge: HashMap::new(),
            load_order: BTreeMap::new(),
            stats: HashMap::new(),
            clock: 0,
            journal_enabled: false,
            journal: Vec::new(),
        }
    }

    /// Start journaling every mutation as a [`DurableEvent`]. The journal
    /// accumulates the *call* sequence; [`History::take_events`] drains it.
    /// Enable only on the state the durable base (empty history or restored
    /// snapshot) corresponds to — replaying the drained events onto that
    /// base rebuilds this history exactly.
    pub fn enable_event_journal(&mut self) {
        self.journal_enabled = true;
    }

    /// Whether mutations are currently journaled.
    pub fn journal_enabled(&self) -> bool {
        self.journal_enabled
    }

    /// Drain the events journaled since the last call (empty when the
    /// journal is disabled).
    pub fn take_events(&mut self) -> Vec<DurableEvent> {
        std::mem::take(&mut self.journal)
    }

    /// Whether the journal holds events not yet drained.
    pub fn has_pending_events(&self) -> bool {
        !self.journal.is_empty()
    }

    /// Append an event to the journal without applying it. No-op while the
    /// journal is disabled. The system facade routes estimator observations
    /// through here so one ordered stream carries both history mutations
    /// and cost observations.
    pub fn journal_event(&mut self, event: DurableEvent) {
        if self.journal_enabled {
            self.journal.push(event);
        }
    }

    /// Node holding the artifact with this logical name, if recorded.
    pub fn node_of(&self, name: ArtifactName) -> Option<NodeId> {
        self.node_by_name.get(&name).copied()
    }

    /// Whether the artifact has ever been observed.
    pub fn contains(&self, name: ArtifactName) -> bool {
        self.node_by_name.contains_key(&name)
    }

    /// Number of artifacts recorded (excluding the source node).
    pub fn artifact_count(&self) -> usize {
        self.node_by_name.len()
    }

    /// Monotone insertion generation of the underlying hypergraph: grows on
    /// every recorded node or task, never on eviction. A cheap "has the
    /// history grown since I last looked?" stamp for bound-repair callers
    /// (see [`HyperGraph::structure_generation`]).
    pub fn generation(&self) -> u64 {
        self.graph.structure_generation()
    }

    /// Statistics of an artifact.
    pub fn stats_of(&self, name: ArtifactName) -> ArtifactStats {
        self.stats.get(&name).copied().unwrap_or_default()
    }

    /// Overwrite an artifact's statistics (catalog restore path).
    pub fn set_stats(&mut self, name: ArtifactName, stats: ArtifactStats) {
        self.journal_event(DurableEvent::SetStats { name, stats });
        self.clock = self.clock.max(stats.last_access);
        self.stats.insert(name, stats);
    }

    /// Record that an artifact was required by a pipeline (frequency and
    /// recency bookkeeping for the materializer).
    pub fn touch(&mut self, name: ArtifactName) {
        self.journal_event(DurableEvent::Touch { name });
        self.clock += 1;
        let clock = self.clock;
        let entry = self.stats.entry(name).or_default();
        entry.freq += 1;
        entry.last_access = clock;
    }

    fn ensure_node(&mut self, name: ArtifactName, label: impl FnOnce() -> NodeLabel) -> NodeId {
        if let Some(&node) = self.node_by_name.get(&name) {
            return node;
        }
        let node = self.graph.add_node(label());
        self.node_by_name.insert(name, node);
        node
    }

    /// Record a raw dataset as loadable from the source. Idempotent.
    pub fn record_dataset(&mut self, dataset_id: &str, size_bytes: u64) -> NodeId {
        self.journal_event(DurableEvent::Dataset { id: dataset_id.to_string(), size_bytes });
        let name = naming::dataset_name(dataset_id);
        let node = self.ensure_node(name, || NodeLabel {
            name,
            kind: hyppo_ml::ArtifactKind::Data,
            role: hyppo_pipeline::ArtifactRole::Raw,
            hint: format!("dataset:{dataset_id}"),
            size_bytes: Some(size_bytes),
        });
        let identity = (name, usize::MAX); // dataset load pseudo-identity
        if !self.edge_by_identity.contains_key(&identity) {
            let e = self.graph.add_edge(
                vec![self.source],
                vec![node],
                EdgeLabel::load_dataset(dataset_id),
            );
            self.edge_by_identity.insert(identity, e);
        }
        let entry = self.stats.entry(name).or_default();
        entry.size_bytes = size_bytes;
        node
    }

    /// Record an executed computational task and its outputs. Artifacts and
    /// tasks already in the history are merged (stats refreshed).
    #[allow(clippy::too_many_arguments)]
    pub fn record_task(
        &mut self,
        op: LogicalOp,
        task: TaskType,
        impl_index: usize,
        config: &Config,
        input_names: &[ArtifactName],
        outputs: &[ProducedArtifact],
        cost_seconds: f64,
    ) -> EdgeId {
        if self.journal_enabled {
            self.journal.push(DurableEvent::Task {
                op,
                task,
                impl_index,
                config: config.clone(),
                inputs: input_names.to_vec(),
                outputs: outputs.to_vec(),
                cost_seconds,
            });
        }
        // Inputs must exist (execution is topological); be defensive anyway.
        let tail: Vec<NodeId> = input_names
            .iter()
            .map(|&n| {
                self.ensure_node(n, || NodeLabel {
                    name: n,
                    kind: hyppo_ml::ArtifactKind::Data,
                    role: hyppo_pipeline::ArtifactRole::Raw,
                    hint: "unknown-input".to_string(),
                    size_bytes: None,
                })
            })
            .collect();
        let mut head = Vec::with_capacity(outputs.len());
        for out in outputs {
            let node = self.ensure_node(out.name, || out.label.clone());
            self.graph.node_mut(node).size_bytes = Some(out.size_bytes);
            head.push(node);
            let entry = self.stats.entry(out.name).or_default();
            entry.size_bytes = out.size_bytes;
            entry.compute_cost = cost_seconds;
        }
        let identity = naming::task_identity(op, task, config, input_names);
        if let Some(&e) = self.edge_by_identity.get(&(identity, impl_index)) {
            return e;
        }
        let e =
            self.graph.add_edge(tail, head, EdgeLabel::task(op, task, impl_index, config.clone()));
        self.edge_by_identity.insert((identity, impl_index), e);
        e
    }

    /// Whether a task with this logical identity and physical
    /// implementation has been recorded.
    pub fn has_task(&self, identity: ArtifactName, impl_index: usize) -> bool {
        self.edge_by_identity.contains_key(&(identity, impl_index))
    }

    /// Mark an artifact materialized: add its `load` hyperedge from `s`.
    /// Idempotent; panics if the artifact is unknown.
    pub fn materialize(&mut self, name: ArtifactName) {
        let node = self.node_of(name).expect("cannot materialize unknown artifact");
        self.journal_event(DurableEvent::Materialize { name });
        if self.load_edge.contains_key(&name) {
            return;
        }
        let label = EdgeLabel {
            op: LogicalOp::LoadDataset,
            task: TaskType::Load,
            impl_index: 0,
            config: Config::new(),
            dataset: None,
        };
        let e = self.graph.add_edge(vec![self.source], vec![node], label);
        self.load_edge.insert(name, e);
        self.load_order.insert(e, name);
    }

    /// Evict a materialized artifact: remove its `load` hyperedge. The node
    /// and every computational hyperedge stay in the history.
    pub fn evict(&mut self, name: ArtifactName) {
        self.journal_event(DurableEvent::Evict { name });
        if let Some(e) = self.load_edge.remove(&name) {
            self.load_order.remove(&e);
            self.graph.remove_edge(e);
        }
    }

    /// Whether the artifact currently has a `load` hyperedge.
    pub fn is_materialized(&self, name: ArtifactName) -> bool {
        self.load_edge.contains_key(&name)
    }

    /// Names of all currently materialized artifacts, in load-edge
    /// insertion order. This is the canonical order snapshots record:
    /// re-materializing in this order re-creates the load hyperedges with
    /// the same dense edge ids, which the durability layer's
    /// bit-identical-recovery invariant relies on.
    pub fn materialized(&self) -> impl Iterator<Item = ArtifactName> + '_ {
        self.load_order.values().copied()
    }

    /// Iterate over all recorded artifact names, in recording order.
    pub fn artifact_names(&self) -> impl Iterator<Item = ArtifactName> + '_ {
        self.graph.node_ids().filter(|&v| v != self.source).map(|v| self.graph.node(v).name)
    }

    /// Depths of the named artifacts: the average number of hyperedges
    /// from the source over the *computational* alternatives (load edges
    /// are ignored so materialization does not feed back into the locality
    /// weighting). Artifacts with no computational producer (raw datasets)
    /// have depth 1; names the history does not know are left out.
    ///
    /// One memoized walk over the ancestors of the named artifacts only.
    /// The history is acyclic and each depth sums its producers in
    /// backward-star order, so a depth is the same `f64` whichever names
    /// are requested with it.
    pub fn depths_of(&self, names: impl IntoIterator<Item = ArtifactName>) -> Depths {
        let mut memo: HashMap<NodeId, f64> = HashMap::new();
        memo.insert(self.source, 0.0);
        let by_name = names
            .into_iter()
            .filter_map(|name| Some((name, self.depth_of(self.node_of(name)?, &mut memo))))
            .collect();
        Depths { by_name, nodes_visited: memo.len() - 1 }
    }

    fn depth_of(&self, node: NodeId, memo: &mut HashMap<NodeId, f64>) -> f64 {
        if let Some(&d) = memo.get(&node) {
            return d;
        }
        // Mark to cut (impossible, defensive) cycles.
        memo.insert(node, 1.0);
        let compute_edges: Vec<EdgeId> = self
            .graph
            .bstar(node)
            .iter()
            .copied()
            .filter(|&e| {
                let l = self.graph.edge(e);
                // Dataset loads count as depth-1 producers; artifact
                // (materialization) loads are ignored.
                !l.is_load() || l.dataset.is_some()
            })
            .collect();
        let d = if compute_edges.is_empty() {
            1.0
        } else {
            let sum: f64 = compute_edges
                .iter()
                .map(|&e| {
                    let tail_max = self
                        .graph
                        .tail(e)
                        .iter()
                        .map(|&u| self.depth_of(u, memo))
                        .fold(0.0, f64::max);
                    1.0 + tail_max
                })
                .sum();
            sum / compute_edges.len() as f64
        };
        memo.insert(node, d);
        d
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hyppo_ml::ArtifactKind;
    use hyppo_pipeline::ArtifactRole;

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

    fn record_chain(h: &mut History) -> (ArtifactName, ArtifactName) {
        let raw = naming::dataset_name("higgs");
        h.record_dataset("higgs", 1000);
        let cfg = Config::new();
        let state = naming::output_name(LogicalOp::StandardScaler, TaskType::Fit, &cfg, &[raw], 0);
        h.record_task(
            LogicalOp::StandardScaler,
            TaskType::Fit,
            0,
            &cfg,
            &[raw],
            &[produced(state, 64)],
            0.5,
        );
        (raw, state)
    }

    #[test]
    fn recording_builds_the_graph() {
        let mut h = History::new();
        let (raw, state) = record_chain(&mut h);
        assert!(h.contains(raw));
        assert!(h.contains(state));
        assert_eq!(h.artifact_count(), 2);
        // s, raw, state nodes; load + fit edges.
        assert_eq!(h.graph.node_count(), 3);
        assert_eq!(h.graph.edge_count(), 2);
        assert_eq!(h.stats_of(state).compute_cost, 0.5);
        assert_eq!(h.stats_of(state).size_bytes, 64);
    }

    #[test]
    fn duplicate_recordings_merge() {
        let mut h = History::new();
        record_chain(&mut h);
        record_chain(&mut h);
        assert_eq!(h.artifact_count(), 2);
        assert_eq!(h.graph.edge_count(), 2);
    }

    #[test]
    fn alternative_impls_create_parallel_edges() {
        let mut h = History::new();
        let (raw, state) = record_chain(&mut h);
        let cfg = Config::new();
        h.record_task(
            LogicalOp::StandardScaler,
            TaskType::Fit,
            1, // a different physical implementation
            &cfg,
            &[raw],
            &[produced(state, 64)],
            0.3,
        );
        assert_eq!(h.graph.edge_count(), 3, "parallel alternative recorded");
        let node = h.node_of(state).unwrap();
        assert_eq!(h.graph.bstar(node).len(), 2);
    }

    #[test]
    fn materialize_and_evict_toggle_load_edges() {
        let mut h = History::new();
        let (_, state) = record_chain(&mut h);
        assert!(!h.is_materialized(state));
        h.materialize(state);
        assert!(h.is_materialized(state));
        let node = h.node_of(state).unwrap();
        assert_eq!(h.graph.bstar(node).len(), 2, "fit edge + load edge");
        h.materialize(state); // idempotent
        assert_eq!(h.graph.bstar(node).len(), 2);
        h.evict(state);
        assert!(!h.is_materialized(state));
        assert_eq!(h.graph.bstar(node).len(), 1, "node and fit edge survive");
        assert!(h.contains(state));
        h.evict(state); // idempotent
    }

    #[test]
    fn touch_tracks_frequency_and_recency() {
        let mut h = History::new();
        let (_, state) = record_chain(&mut h);
        h.touch(state);
        h.touch(state);
        let s = h.stats_of(state);
        assert_eq!(s.freq, 2);
        assert_eq!(s.last_access, 2);
    }

    /// The whole-history walk `depths_of` replaced: every artifact's depth
    /// from one memo shared across the whole graph, in node order.
    fn depths_oracle(h: &History) -> HashMap<ArtifactName, f64> {
        let mut memo: HashMap<NodeId, f64> = HashMap::new();
        memo.insert(h.source, 0.0);
        h.graph
            .node_ids()
            .filter(|&v| v != h.source)
            .map(|v| (h.graph.node(v).name, h.depth_of(v, &mut memo)))
            .collect()
    }

    fn depths_by_name(h: &History, names: &[ArtifactName]) -> HashMap<ArtifactName, f64> {
        h.depths_of(names.iter().copied()).by_name
    }

    #[test]
    fn depths_average_over_compute_alternatives() {
        let mut h = History::new();
        let (raw, state) = record_chain(&mut h);
        let depths = depths_by_name(&h, &[raw, state]);
        assert_eq!(depths[&raw], 1.0);
        assert_eq!(depths[&state], 2.0);
        // A second, longer derivation of the same artifact changes the avg.
        let cfg = Config::new();
        let mid = naming::output_name(LogicalOp::Normalizer, TaskType::Transform, &cfg, &[raw], 0);
        h.record_task(
            LogicalOp::Normalizer,
            TaskType::Transform,
            0,
            &cfg,
            &[raw],
            &[produced(mid, 1000)],
            0.1,
        );
        h.record_task(
            LogicalOp::StandardScaler,
            TaskType::Fit,
            0,
            &cfg,
            &[mid],
            &[produced(state, 64)],
            0.4,
        );
        let depths = depths_by_name(&h, &[state]);
        // Alternatives: via raw (depth 2) and via mid (depth 3) → avg 2.5.
        assert!((depths[&state] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn materialization_does_not_change_depth() {
        let mut h = History::new();
        let (_, state) = record_chain(&mut h);
        let before = depths_by_name(&h, &[state])[&state];
        h.materialize(state);
        let after = depths_by_name(&h, &[state])[&state];
        assert_eq!(before, after, "load edges are excluded from depth");
    }

    #[test]
    fn depths_of_walks_only_the_ancestry_of_the_named_artifacts() {
        let mut h = random_history(7, 40);
        let (raw, state) = record_chain(&mut h);
        assert!(h.artifact_count() > 40);
        assert_eq!(h.depths_of([]).nodes_visited, 0);
        let d = h.depths_of([state, ArtifactName(12345)]);
        assert_eq!(d.nodes_visited, 2, "state and raw");
        assert_eq!(d.by_name.len(), 1, "unknown names are left out");
        assert_eq!(h.depths_of([raw]).nodes_visited, 1);
    }

    /// On seeded random histories (parallel alternatives, multi-output
    /// tasks, dataset and materialization loads, evictions), the depth of
    /// every artifact in every random candidate subset is bit-identical to
    /// the whole-history walk.
    #[test]
    fn depths_of_candidates_are_bit_identical_to_the_whole_history_walk() {
        for seed in 0..24 {
            let h = random_history(seed, 60);
            let oracle = depths_oracle(&h);
            let names: Vec<ArtifactName> = h.artifact_names().collect();
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..8 {
                let subset: Vec<ArtifactName> =
                    names.iter().copied().filter(|_| next(&mut rng).is_multiple_of(4)).collect();
                let depths = h.depths_of(subset.iter().copied());
                assert_eq!(depths.by_name.len(), subset.len());
                for n in &subset {
                    assert_eq!(
                        depths.by_name[n].to_bits(),
                        oracle[n].to_bits(),
                        "seed {seed}: depth of {n:?}"
                    );
                }
            }
        }
    }

    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        hyppo_hypergraph::mix64(*state)
    }

    /// A seeded random history of about `tasks` recorded tasks over two
    /// datasets: tasks take one to three earlier artifacts as input and
    /// produce one or two outputs, some tasks get parallel implementations,
    /// and some artifacts are materialized and then evicted again.
    pub(crate) fn random_history(seed: u64, tasks: usize) -> History {
        let mut rng = seed ^ 0xD1B5_4A32_D192_ED03;
        let mut h = History::new();
        h.record_dataset("higgs", 1000);
        h.record_dataset("taxi", 2000);
        let mut known = vec![naming::dataset_name("higgs"), naming::dataset_name("taxi")];
        let ops = [LogicalOp::StandardScaler, LogicalOp::Normalizer, LogicalOp::Pca];
        for i in 0..tasks {
            let op = ops[next(&mut rng) as usize % ops.len()];
            let cfg = Config::new().with_i("i", i as i64);
            let arity = 1 + next(&mut rng) as usize % 3;
            let mut inputs: Vec<ArtifactName> = Vec::new();
            for _ in 0..arity {
                let input = known[next(&mut rng) as usize % known.len()];
                if !inputs.contains(&input) {
                    inputs.push(input);
                }
            }
            let outputs: Vec<ProducedArtifact> = (0..1 + next(&mut rng) as usize % 2)
                .map(|k| produced(naming::output_name(op, TaskType::Fit, &cfg, &inputs, k), 64))
                .collect();
            let impls = if next(&mut rng).is_multiple_of(5) { 2 } else { 1 };
            for impl_index in 0..impls {
                h.record_task(op, TaskType::Fit, impl_index, &cfg, &inputs, &outputs, 0.1);
            }
            known.extend(outputs.iter().map(|o| o.name));
            if next(&mut rng).is_multiple_of(3) {
                let name = known[next(&mut rng) as usize % known.len()];
                h.materialize(name);
                if next(&mut rng).is_multiple_of(2) {
                    h.evict(name);
                }
            }
        }
        h
    }

    #[test]
    #[should_panic(expected = "unknown artifact")]
    fn materializing_unknown_artifact_panics() {
        let mut h = History::new();
        h.materialize(ArtifactName(99));
    }
}
