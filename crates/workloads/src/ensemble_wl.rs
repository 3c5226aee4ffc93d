//! Scenario-3 workloads (paper §V-B3, Fig. 9a): "advanced analysis"
//! pipelines that extend past TAXI work with ensemble operators
//! (`StackingRegressor` / `VotingRegressor`) over previously trained
//! models.
//!
//! An ensemble spec replays the member pipelines' steps verbatim (so every
//! member's derivation is present in the spec — and, crucially, carries the
//! *same logical names* as the past executions, making the trained models
//! reusable from the history) and then fits the ensemble over the member
//! model artifacts.

use crate::generator::{PipelineTemplate, UseCase};
use hyppo_ml::{Config, LogicalOp};
use hyppo_pipeline::PipelineSpec;
use hyppo_tensor::SeededRng;

/// Build an ensemble pipeline over previously defined member templates.
///
/// `kind` must be [`LogicalOp::Voting`] or [`LogicalOp::Stacking`].
pub fn ensemble_spec(members: &[PipelineTemplate], kind: LogicalOp) -> PipelineSpec {
    assert!(
        matches!(kind, LogicalOp::Voting | LogicalOp::Stacking),
        "ensemble kind must be Voting or Stacking"
    );
    assert!(members.len() >= 2, "an ensemble needs at least two members");
    let mut spec = PipelineSpec::new();
    let handles: Vec<_> = members.iter().map(|t| t.append(&mut spec)).collect();
    let mut inputs: Vec<_> = handles.iter().map(|h| h.model).collect();
    inputs.push(handles[0].train);
    let ensemble = spec.fit(kind, 0, Config::new(), &inputs);
    let preds = spec.predict(kind, 0, Config::new(), ensemble, handles[0].test);
    spec.evaluate(LogicalOp::Rmse, preds, handles[0].test);
    spec
}

/// A deliberately *wide* ensemble: `n_members` Ridge members that share
/// the load/split/preprocessing prefix and differ only in regularization
/// strength, voted together. After the shared prefix, the member fits are
/// mutually independent — the plan fans out `n_members` ways, so several
/// tenants submitting it reuse the prefix and each other's members.
pub fn wide_ensemble_spec(dataset_id: &str, n_members: usize, seed: u64) -> PipelineSpec {
    assert!(n_members >= 2, "an ensemble needs at least two members");
    let mut rng = SeededRng::new(seed);
    let members: Vec<PipelineTemplate> = (0..n_members)
        .map(|i| {
            let mut t = PipelineTemplate::base(UseCase::Taxi, dataset_id, 0);
            // Distinct alphas give each member a distinct logical name, so
            // the fits stay separate (equal configs would merge them).
            let alpha = 0.1 + i as f64 * 0.4 + rng.uniform(0.0, 0.05);
            t.model = (LogicalOp::Ridge, Config::new().with_f("alpha", alpha), 0);
            t
        })
        .collect();
    ensemble_spec(&members, LogicalOp::Voting)
}

/// Generate a Scenario-3 workload: `n` ensemble pipelines, each combining
/// 2–3 randomly chosen members from the given past templates.
pub fn generate_ensemble_workload(
    past: &[PipelineTemplate],
    n: usize,
    seed: u64,
) -> Vec<PipelineSpec> {
    assert!(past.len() >= 2, "need past pipelines to ensemble over");
    let mut rng = SeededRng::new(seed);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let k = 2 + rng.index(2.min(past.len() - 1));
        let mut picked: Vec<usize> = Vec::new();
        while picked.len() < k {
            let i = rng.index(past.len());
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        let members: Vec<PipelineTemplate> = picked.into_iter().map(|i| past[i].clone()).collect();
        let kind = if rng.chance(0.5) { LogicalOp::Voting } else { LogicalOp::Stacking };
        out.push(ensemble_spec(&members, kind));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_sequence, SequenceConfig, UseCase};
    use hyppo_ml::TaskType;

    fn past() -> Vec<PipelineTemplate> {
        generate_sequence(&SequenceConfig {
            use_case: UseCase::Taxi,
            dataset_id: "taxi".to_string(),
            n_pipelines: 10,
            seed: 4,
        })
    }

    #[test]
    fn ensemble_spec_contains_member_derivations() {
        let past = past();
        let spec = ensemble_spec(&past[..2], LogicalOp::Voting);
        let ops: Vec<LogicalOp> = spec.steps.iter().map(|s| s.op).collect();
        assert!(ops.contains(&LogicalOp::Voting));
        // Two member models + ensemble = at least 3 fits… members may share
        // a model op; count fit steps instead.
        let fits = spec.steps.iter().filter(|s| s.task == TaskType::Fit).count();
        assert!(fits >= 5, "imputer+scaler+model per member plus ensemble, got {fits}");
    }

    #[test]
    fn member_model_names_match_standalone_pipelines() {
        // The key reuse property: a model fitted by a past pipeline has the
        // same logical name inside the ensemble spec.
        let past = past();
        let solo_spec = past[0].to_spec();
        let solo_names = solo_spec.output_names();
        let mut spec = PipelineSpec::new();
        let h = past[0].append(&mut spec);
        let ens_names = spec.output_names();
        // Model handle in solo spec: find the fit step of the model op.
        let solo_model_step = solo_spec
            .steps
            .iter()
            .position(|s| s.task == TaskType::Fit && s.op == past[0].model.0)
            .unwrap();
        assert_eq!(solo_names[solo_model_step][0], ens_names[h.model.step.0][h.model.output]);
    }

    #[test]
    fn workload_generation_is_deterministic() {
        let past = past();
        let a = generate_ensemble_workload(&past, 5, 1);
        let b = generate_ensemble_workload(&past, 5, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn ensembles_mix_voting_and_stacking() {
        let past = past();
        let wl = generate_ensemble_workload(&past, 20, 2);
        let mut kinds = std::collections::HashSet::new();
        for spec in &wl {
            for s in &spec.steps {
                if matches!(s.op, LogicalOp::Voting | LogicalOp::Stacking) {
                    kinds.insert(s.op);
                }
            }
        }
        assert_eq!(kinds.len(), 2, "both ensemble kinds should occur");
    }

    #[test]
    #[should_panic(expected = "at least two members")]
    fn single_member_rejected() {
        let past = past();
        ensemble_spec(&past[..1], LogicalOp::Voting);
    }
}
