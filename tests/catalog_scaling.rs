//! The catalog work of one submission scales with the plan, not with the
//! history. Histories of 10, 10³ and 10⁴ artifacts are built directly with
//! `History::record_task` as chains over a dataset the pipeline never reads.
//! One fixed small pipeline is then augmented against each and its outputs
//! go through a materialization round. The work both layers report — the
//! history edges augmentation examined and the nodes the materializer
//! computed a depth for — must be the same count at every history size.

use hyppo::core::augment::{augment, AugmentOptions};
use hyppo::core::history::{History, ProducedArtifact};
use hyppo::core::{ArtifactStore, CostEstimator, MaterializeConfig, Materializer};
use hyppo::ml::{Artifact, Config, LogicalOp, TaskType};
use hyppo::pipeline::{
    build_pipeline, naming, ArtifactName, ArtifactRole, Dictionary, NodeLabel, Pipeline,
    PipelineSpec,
};
use std::collections::HashMap;

/// Length of each unrelated chain.
const CHAIN: usize = 10;

/// A history of exactly `artifacts` artifacts: one dataset and chains of
/// `CHAIN` scaler fits rooted at it, none materialized.
fn unrelated_history(artifacts: usize) -> History {
    let mut h = History::new();
    h.record_dataset("noise", 1000);
    let raw = naming::dataset_name("noise");
    let mut prev = raw;
    for i in 1..artifacts {
        if i % CHAIN == 1 {
            prev = raw;
        }
        let cfg = Config::new().with_i("i", i as i64);
        let out = naming::output_name(LogicalOp::StandardScaler, TaskType::Fit, &cfg, &[prev], 0);
        let label = NodeLabel {
            name: out,
            kind: hyppo::ml::ArtifactKind::OpState,
            role: ArtifactRole::OpState,
            hint: "chain".into(),
            size_bytes: Some(64),
        };
        h.record_task(
            LogicalOp::StandardScaler,
            TaskType::Fit,
            0,
            &cfg,
            &[prev],
            &[ProducedArtifact { name: out, label, size_bytes: 64 }],
            0.1,
        );
        prev = out;
    }
    assert_eq!(h.artifact_count(), artifacts);
    h
}

fn small_pipeline() -> Pipeline {
    let mut spec = PipelineSpec::new();
    let d = spec.load("higgs");
    let (train, test) = spec.split(d, Config::new().with_i("seed", 0));
    let scaler = spec.fit(LogicalOp::StandardScaler, 0, Config::new(), &[train]);
    let _scaled = spec.transform(LogicalOp::StandardScaler, 0, Config::new(), scaler, test);
    build_pipeline(spec)
}

/// Augment the pipeline against `h`, record its tasks as executed, and run
/// one materialization round over its outputs. Returns
/// `(history_edges_scanned, depth_nodes_visited)`.
fn submission_work(h: &mut History, p: &Pipeline) -> (usize, usize) {
    h.record_dataset("higgs", 4000);
    let aug = augment(p, h, &Dictionary::full(), AugmentOptions::default());

    let mut fresh: HashMap<ArtifactName, Artifact> = HashMap::new();
    for e in p.graph.edge_ids() {
        let label = p.graph.edge(e);
        if label.is_load() {
            continue;
        }
        let inputs: Vec<ArtifactName> =
            p.graph.tail(e).iter().map(|&v| p.graph.node(v).name).collect();
        let outputs: Vec<ProducedArtifact> = p
            .graph
            .head(e)
            .iter()
            .map(|&v| {
                let node = p.graph.node(v);
                ProducedArtifact { name: node.name, label: node.clone(), size_bytes: 80 }
            })
            .collect();
        h.record_task(
            label.op,
            label.task,
            label.impl_index,
            &label.config,
            &inputs,
            &outputs,
            0.5,
        );
        for out in &outputs {
            fresh.insert(out.name, Artifact::Predictions(vec![1.0; 10]));
        }
    }
    let mut store = ArtifactStore::new();
    let report = Materializer::new(MaterializeConfig::with_budget(1 << 20)).run(
        h,
        &mut store,
        &CostEstimator::new(),
        &fresh,
    );
    assert_eq!(report.stored.len(), fresh.len(), "every pipeline output fits the budget");
    (aug.history_edges_scanned, report.depth_nodes_visited)
}

#[test]
fn per_submission_catalog_work_is_flat_in_history_size() {
    let p = small_pipeline();
    let work: Vec<(usize, (usize, usize))> = [10, 1_000, 10_000]
        .into_iter()
        .map(|n| (n, submission_work(&mut unrelated_history(n), &p)))
        .collect();
    let (_, first) = work[0];
    assert!(first.0 > 0 && first.1 > 0, "the pipeline's own ancestry is walked: {first:?}");
    for &(n, w) in &work {
        assert_eq!(w, first, "catalog work at {n} artifacts (scanned edges, depth nodes)");
    }
}
