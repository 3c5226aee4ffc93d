//! A uniform session interface over HYPPO backends.
//!
//! Two backends execute pipelines today: the serial [`Hyppo`] facade in this
//! crate and the thread-safe `SharedHyppo` in `hyppo-serve`. Both expose
//! the same submit/retrieve surface, but harnesses (the baselines crate,
//! benches, examples) used to hard-code one of them. [`Session`] abstracts
//! the surface so a harness written once drives either backend —
//! `hyppo-serve` implements it for `SharedHyppo` and for its tenant
//! `Client`, and `hyppo-baselines` wraps any `Session` behind its `Method`
//! interface.

use crate::system::{Hyppo, RunReport, SubmitError};
use hyppo_pipeline::{ArtifactName, PipelineSpec};
use hyppo_tensor::Dataset;

/// One user's pipeline-submission session against a HYPPO backend.
pub trait Session {
    /// Display name of the backend (used in experiment tables).
    fn backend_name(&self) -> &'static str {
        "HYPPO"
    }

    /// Register a raw dataset as loadable from the source.
    fn register_dataset(&mut self, id: &str, dataset: Dataset);

    /// Execute one pipeline (paper Scenario 1): augment, optimize, execute,
    /// record, materialize.
    fn submit(&mut self, spec: PipelineSpec) -> Result<RunReport, SubmitError>;

    /// Execute K pipelines as one batch. Backends with a joint planner
    /// (e.g. [`Hyppo::submit_batch`]) plan the batch together, amortizing
    /// bound computation over shared structure; the default implementation
    /// degrades to sequential [`Session::submit`] calls, which by the
    /// batch-planner's bit-identity invariant yields the same plans.
    fn submit_batch(&mut self, specs: Vec<PipelineSpec>) -> Result<Vec<RunReport>, SubmitError> {
        specs.into_iter().map(|s| self.submit(s)).collect()
    }

    /// Retrieve previously computed artifacts by name (paper Scenario 2):
    /// plan over the history's alternatives only.
    fn retrieve(&mut self, names: &[ArtifactName]) -> Result<RunReport, SubmitError>;

    /// Cumulative execution seconds across all submissions (the paper's
    /// `cet`).
    fn cumulative_seconds(&self) -> f64;

    /// Configured storage budget in bytes.
    fn budget_bytes(&self) -> u64;

    /// Number of artifacts recorded in the backend's history.
    fn history_artifacts(&self) -> usize;
}

impl Session for Hyppo {
    fn register_dataset(&mut self, id: &str, dataset: Dataset) {
        Hyppo::register_dataset(self, id, dataset);
    }

    fn submit(&mut self, spec: PipelineSpec) -> Result<RunReport, SubmitError> {
        Hyppo::submit(self, spec)
    }

    fn submit_batch(&mut self, specs: Vec<PipelineSpec>) -> Result<Vec<RunReport>, SubmitError> {
        Hyppo::submit_batch(self, specs).map(|b| b.reports)
    }

    fn retrieve(&mut self, names: &[ArtifactName]) -> Result<RunReport, SubmitError> {
        Hyppo::retrieve(self, names)
    }

    fn cumulative_seconds(&self) -> f64 {
        self.cumulative_seconds
    }

    fn budget_bytes(&self) -> u64 {
        self.config.budget_bytes
    }

    fn history_artifacts(&self) -> usize {
        self.history.artifact_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppo_tensor::{Matrix, TaskKind};

    fn drive<S: Session>(s: &mut S) -> RunReport {
        s.register_dataset(
            "data",
            Dataset::new(
                Matrix::filled(50, 2, 1.0),
                vec![0.0; 50],
                vec!["a".into(), "b".into()],
                TaskKind::Regression,
            ),
        );
        let mut spec = PipelineSpec::new();
        let d = spec.load("data");
        let (train, _test) = spec.split(d, hyppo_ml::Config::new().with_i("seed", 0));
        spec.fit(hyppo_ml::LogicalOp::StandardScaler, 0, hyppo_ml::Config::new(), &[train]);
        s.submit(spec).expect("pipeline must execute")
    }

    #[test]
    fn hyppo_runs_behind_the_session_trait() {
        let mut sys = Hyppo::new(Default::default());
        let report = drive(&mut sys);
        assert!(report.execution_seconds > 0.0);
        assert_eq!(Session::backend_name(&sys), "HYPPO");
        assert!(Session::cumulative_seconds(&sys) > 0.0);
        assert_eq!(Session::budget_bytes(&sys), 0);
        assert!(Session::history_artifacts(&sys) >= 3);
    }
}
