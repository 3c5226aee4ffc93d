//! The materializer: HYPPO's solution to Problem 2 (§III-D2, §IV-H).
//!
//! Given the history, a storage budget `B`, and the artifacts just produced
//! by a plan, choose the set of artifacts to keep materialized so that the
//! expected cost of future pipelines is minimized. The paper's greedy
//! strategy ranks artifacts by the *plan-locality-weighted savings benefit*
//!
//! ```text
//! score(v) = pl(v) × gain(v),   gain(v) = freq(v) · cost(v) / load(v)
//! ```
//!
//! and keeps the best-ranked artifacts that fit in `B`, evicting the rest.
//! Data sources (raw datasets) are never candidates.
//!
//! The paper prints `pl(v) = 1/e^(1/depth(v))`, which *increases* with
//! depth, while its prose says artifacts close to the source should be
//! prioritized. We implement the printed formula as
//! [`PlanLocality::PaperInverse`] (the default) and the prose behaviour as
//! [`PlanLocality::ExpDecay`]; see DESIGN.md for the discussion.

use crate::estimator::CostEstimator;
use crate::history::{Depths, History};
use crate::store::ArtifactStorage;
use hyppo_ml::Artifact;
use hyppo_pipeline::{ArtifactName, ArtifactRole};
use std::collections::{HashMap, HashSet};

/// Plan-locality coefficient variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanLocality {
    /// The formula as printed in the paper: `pl(v) = e^(−1/depth(v))`
    /// (monotonically increasing with depth).
    PaperInverse,
    /// Decaying with depth (`pl(v) = e^(1/depth(v) − 1)`), matching the
    /// paper's prose ("prioritize artifacts closer to the source").
    ExpDecay,
    /// No locality weighting (ablation).
    None,
}

impl PlanLocality {
    /// Coefficient value for an artifact at the given average depth.
    pub fn coefficient(self, depth: f64) -> f64 {
        let d = depth.max(1.0);
        match self {
            PlanLocality::PaperInverse => (-1.0 / d).exp(),
            PlanLocality::ExpDecay => (1.0 / d - 1.0).exp(),
            PlanLocality::None => 1.0,
        }
    }
}

/// Materializer configuration.
#[derive(Clone, Copy, Debug)]
pub struct MaterializeConfig {
    /// Storage budget in bytes.
    pub budget_bytes: u64,
    /// Plan-locality variant.
    pub locality: PlanLocality,
}

impl MaterializeConfig {
    /// Config with the paper's default locality.
    pub fn with_budget(budget_bytes: u64) -> Self {
        MaterializeConfig { budget_bytes, locality: PlanLocality::PaperInverse }
    }
}

/// What a materialization round did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MaterializeReport {
    /// Artifacts newly stored this round.
    pub stored: Vec<ArtifactName>,
    /// Artifacts evicted this round.
    pub evicted: Vec<ArtifactName>,
    /// Bytes in use after the round.
    pub used_bytes: u64,
    /// History nodes whose depth the round computed: the candidates and
    /// their ancestors. Bounded by the candidates' ancestry in the
    /// history, not by the size of the history; 0 with no candidates.
    pub depth_nodes_visited: usize,
}

/// The greedy materializer.
#[derive(Clone, Copy, Debug)]
pub struct Materializer {
    /// Configuration.
    pub config: MaterializeConfig,
}

/// The paper's savings benefit `gain(v) = freq(v) · cost(v) / load(v)`
/// (§IV-H): expected recompute seconds saved per unit of load cost. Exposed
/// as a free function so byte-budgeted eviction policies elsewhere (e.g.
/// the disk-backed store in `hyppo-persist`) rank artifacts by exactly the
/// quantity the materializer uses.
pub fn gain(freq: u64, compute_cost_seconds: f64, load_cost_seconds: f64) -> f64 {
    let freq = freq.max(1) as f64;
    let cost = compute_cost_seconds.max(1e-9);
    let load = load_cost_seconds.max(1e-12);
    freq * cost / load
}

impl Materializer {
    /// Create a materializer.
    pub fn new(config: MaterializeConfig) -> Self {
        Materializer { config }
    }

    /// Score an artifact: `pl(v) × gain(v)`.
    fn score(
        &self,
        history: &History,
        estimator: &CostEstimator,
        depths: &Depths,
        name: ArtifactName,
        size: u64,
    ) -> f64 {
        let stats = history.stats_of(name);
        let depth = depths.by_name.get(&name).copied().unwrap_or(1.0);
        self.config.locality.coefficient(depth)
            * gain(stats.freq, stats.compute_cost, estimator.load_cost(size))
    }

    /// Run one materialization round after a plan execution.
    ///
    /// `fresh` holds the artifacts just produced (and therefore available
    /// in memory to store); already-materialized artifacts compete on equal
    /// footing and are evicted when outranked.
    pub fn run(
        &self,
        history: &mut History,
        store: &mut impl ArtifactStorage,
        estimator: &CostEstimator,
        fresh: &HashMap<ArtifactName, Artifact>,
    ) -> MaterializeReport {
        // Candidate set: currently materialized ∪ fresh, minus raw data
        // sources (never candidates, §IV-H) and unknown artifacts.
        let mut candidates: Vec<(ArtifactName, u64, bool)> = Vec::new(); // (name, size, is_fresh)
        for name in history.materialized().collect::<Vec<_>>() {
            if let Some(size) = store.artifact_size(name) {
                candidates.push((name, size, false));
            }
        }
        // hyppo-lint: allow(nondeterministic-iteration) candidates are ranked
        // below by a total order (score, then name), so the order they are
        // gathered in cannot reach the selection
        for (&name, artifact) in fresh {
            if history.is_materialized(name) {
                continue; // already counted above
            }
            let Some(node) = history.node_of(name) else { continue };
            let role = history.graph.node(node).role;
            if matches!(role, ArtifactRole::Raw | ArtifactRole::Source) {
                continue;
            }
            // Budget by the exact encoded size: the store charges encoded
            // bytes, and the in-memory estimate undercounts tags/lengths —
            // enough to breach the budget when the selection is near-full.
            candidates.push((name, crate::codec::encoded_size(artifact), true));
        }

        let depths = history.depths_of(candidates.iter().map(|&(name, ..)| name));

        // Rank by locality-weighted gain, descending.
        let mut ranked: Vec<(f64, ArtifactName, u64, bool)> = candidates
            .into_iter()
            .map(|(name, size, is_fresh)| {
                (self.score(history, estimator, &depths, name, size), name, size, is_fresh)
            })
            .collect();
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));

        // Greedy selection under the budget ("pick the artifact with the
        // largest potential gain … as long as it fits in budget B").
        let mut selected: Vec<(ArtifactName, bool)> = Vec::new();
        let mut used = 0u64;
        for (_, name, size, is_fresh) in ranked {
            if used + size <= self.config.budget_bytes {
                used += size;
                selected.push((name, is_fresh));
            }
        }

        let mut report = MaterializeReport {
            depth_nodes_visited: depths.nodes_visited,
            ..MaterializeReport::default()
        };
        // Evict materialized artifacts that lost their slot, in load-edge
        // order, so the journaled `Evict` events come out the same in every
        // process.
        let keep: HashSet<ArtifactName> = selected.iter().map(|&(name, _)| name).collect();
        for name in history.materialized().collect::<Vec<_>>() {
            if !keep.contains(&name) {
                history.evict(name);
                store.remove_artifact(name);
                report.evicted.push(name);
            }
        }
        // Store the fresh winners.
        for (name, is_fresh) in selected {
            if is_fresh {
                let artifact = &fresh[&name];
                store.put_artifact(name, artifact);
                history.materialize(name);
                report.stored.push(name);
            }
        }
        report.used_bytes = store.used_bytes();
        debug_assert!(
            report.used_bytes <= self.config.budget_bytes,
            "materializer exceeded budget: {} > {}",
            report.used_bytes,
            self.config.budget_bytes
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::ProducedArtifact;
    use crate::store::ArtifactStore;
    use hyppo_ml::{ArtifactKind, Config, LogicalOp, TaskType};
    use hyppo_pipeline::{naming, NodeLabel};

    fn produced(name: ArtifactName, role: ArtifactRole, size: u64) -> ProducedArtifact {
        ProducedArtifact {
            name,
            label: NodeLabel {
                name,
                kind: ArtifactKind::OpState,
                role,
                hint: "x".into(),
                size_bytes: Some(size),
            },
            size_bytes: size,
        }
    }

    /// History with two derived artifacts: `cheap` (low recompute cost) and
    /// `expensive` (high recompute cost), equal sizes.
    fn setup(cost_cheap: f64, cost_expensive: f64) -> (History, ArtifactName, ArtifactName) {
        let mut h = History::new();
        h.record_dataset("d", 1000);
        let raw = naming::dataset_name("d");
        let cfg = Config::new();
        let cheap = naming::output_name(LogicalOp::StandardScaler, TaskType::Fit, &cfg, &[raw], 0);
        let expensive =
            naming::output_name(LogicalOp::RandomForest, TaskType::Fit, &cfg, &[raw], 0);
        h.record_task(
            LogicalOp::StandardScaler,
            TaskType::Fit,
            0,
            &cfg,
            &[raw],
            &[produced(cheap, ArtifactRole::OpState, 100)],
            cost_cheap,
        );
        h.record_task(
            LogicalOp::RandomForest,
            TaskType::Fit,
            0,
            &cfg,
            &[raw],
            &[produced(expensive, ArtifactRole::OpState, 100)],
            cost_expensive,
        );
        (h, cheap, expensive)
    }

    fn artifacts(names: &[ArtifactName]) -> HashMap<ArtifactName, Artifact> {
        names.iter().map(|&n| (n, Artifact::Predictions(vec![0.0; 10]))).collect()
    }

    #[test]
    fn budget_is_respected() {
        let (mut h, cheap, expensive) = setup(1.0, 1.0);
        let mut store = ArtifactStore::new();
        let est = CostEstimator::new();
        // Budget fits roughly one encoded prediction vector (~100 bytes).
        let m = Materializer::new(MaterializeConfig::with_budget(120));
        let report = m.run(&mut h, &mut store, &est, &artifacts(&[cheap, expensive]));
        assert_eq!(report.stored.len(), 1);
        assert!(report.used_bytes <= 120);
    }

    #[test]
    fn higher_recompute_cost_wins_the_slot() {
        let (mut h, cheap, expensive) = setup(0.001, 10.0);
        let mut store = ArtifactStore::new();
        let est = CostEstimator::new();
        let m = Materializer::new(MaterializeConfig::with_budget(120));
        let report = m.run(&mut h, &mut store, &est, &artifacts(&[cheap, expensive]));
        assert_eq!(report.stored, vec![expensive]);
        assert!(h.is_materialized(expensive));
        assert!(!h.is_materialized(cheap));
    }

    #[test]
    fn frequency_amplifies_gain() {
        let (mut h, cheap, expensive) = setup(1.0, 1.0);
        // Make the "cheap" artifact hot.
        for _ in 0..50 {
            h.touch(cheap);
        }
        let mut store = ArtifactStore::new();
        let est = CostEstimator::new();
        let m = Materializer::new(MaterializeConfig::with_budget(120));
        let report = m.run(&mut h, &mut store, &est, &artifacts(&[cheap, expensive]));
        assert_eq!(report.stored, vec![cheap]);
    }

    #[test]
    fn eviction_when_outranked() {
        let (mut h, cheap, expensive) = setup(0.001, 10.0);
        let mut store = ArtifactStore::new();
        let est = CostEstimator::new();
        let m = Materializer::new(MaterializeConfig::with_budget(120));
        // Round 1: only the cheap artifact exists.
        m.run(&mut h, &mut store, &est, &artifacts(&[cheap]));
        assert!(h.is_materialized(cheap));
        // Round 2: the expensive artifact arrives and takes the slot.
        let report = m.run(&mut h, &mut store, &est, &artifacts(&[expensive]));
        assert_eq!(report.evicted, vec![cheap]);
        assert_eq!(report.stored, vec![expensive]);
        assert!(!store.contains(cheap));
        assert!(store.contains(expensive));
        // The cheap artifact's node and producer survive eviction.
        assert!(h.contains(cheap));
    }

    #[test]
    fn raw_datasets_are_never_materialized() {
        let (mut h, _, _) = setup(1.0, 1.0);
        let raw = naming::dataset_name("d");
        let mut store = ArtifactStore::new();
        let est = CostEstimator::new();
        let m = Materializer::new(MaterializeConfig::with_budget(u64::MAX));
        let report = m.run(&mut h, &mut store, &est, &artifacts(&[raw]));
        assert!(report.stored.is_empty());
        assert!(!h.is_materialized(raw));
    }

    #[test]
    fn zero_budget_disables_materialization() {
        let (mut h, cheap, expensive) = setup(1.0, 1.0);
        let mut store = ArtifactStore::new();
        let est = CostEstimator::new();
        let m = Materializer::new(MaterializeConfig::with_budget(0));
        let report = m.run(&mut h, &mut store, &est, &artifacts(&[cheap, expensive]));
        assert!(report.stored.is_empty());
        assert_eq!(report.used_bytes, 0);
    }

    #[test]
    fn locality_coefficients_behave_as_documented() {
        // PaperInverse increases with depth; ExpDecay decreases.
        let pi = PlanLocality::PaperInverse;
        assert!(pi.coefficient(1.0) < pi.coefficient(5.0));
        let ed = PlanLocality::ExpDecay;
        assert!(ed.coefficient(1.0) > ed.coefficient(5.0));
        assert!((ed.coefficient(1.0) - 1.0).abs() < 1e-12);
        assert_eq!(PlanLocality::None.coefficient(3.0), 1.0);
        // Paper formula value check: depth 1 → e^-1.
        assert!((pi.coefficient(1.0) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn idempotent_when_nothing_changes() {
        let (mut h, cheap, _) = setup(5.0, 1.0);
        let mut store = ArtifactStore::new();
        let est = CostEstimator::new();
        let m = Materializer::new(MaterializeConfig::with_budget(10_000));
        m.run(&mut h, &mut store, &est, &artifacts(&[cheap]));
        let before = store.used_bytes();
        let report = m.run(&mut h, &mut store, &est, &HashMap::new());
        assert!(report.stored.is_empty());
        assert!(report.evicted.is_empty());
        assert_eq!(store.used_bytes(), before);
    }
}
