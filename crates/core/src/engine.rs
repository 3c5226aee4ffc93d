//! The submission engine: the one plan → execute → commit loop behind
//! every HYPPO backend (§IV-A: augmenter → plan generator → executor →
//! monitor → history manager).
//!
//! A [`Backend`] supplies catalog access: a planning view (history and
//! estimator at an epoch), the artifact store, and a commit. The serial
//! [`Hyppo`](crate::Hyppo) implements it over its own fields,
//! `hyppo-serve`'s `SharedHyppo` over epoch snapshots and a copy-on-write
//! commit. The engine owns the rest, once: the replan loop, the joint
//! batch path, execution (the serial [`execute_plan`], in one topological
//! order), and the absorb tail (record → journal `Observe` → materialize →
//! cumulative time → [`RunReport`]). The planning view lives only while
//! [`Backend::plan_view`] runs, so no snapshot is held across execution or
//! commit.

use crate::augment::{annotate_costs, augment, augment_request, Augmentation};
use crate::durable::DurableEvent;
use crate::estimator::CostEstimator;
use crate::executor::{execute_plan, ExecError, ExecOutcome};
use crate::history::History;
use crate::materialize::{MaterializeConfig, Materializer};
use crate::monitor::record_outcome;
use crate::optimizer::batch::BatchItem;
use crate::optimizer::bounds::PlannerBoundsCache;
use crate::optimizer::{Plan, PlanRequest, Planner};
use crate::store::ArtifactStorage;
use crate::system::{BatchRunReport, HyppoConfig, RunReport, SubmitError};
use hyppo_pipeline::{build_pipeline, ArtifactName, Pipeline, PipelineSpec};
use std::sync::Arc;
use std::time::Instant;

/// How often a submission replans after its plan lost a race with
/// eviction (it meant to load an artifact evicted since planning).
pub const MAX_REPLANS: usize = 2;

/// Snapshot/commit epochs of one submission.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStamp {
    /// Epoch of the catalog view the submission planned against.
    pub snapshot: u64,
    /// Epoch its commit produced.
    pub commit: u64,
}

impl EpochStamp {
    /// How many *other* commits landed between this submission's snapshot
    /// and its own commit — the snapshot-staleness gauge. Zero means the
    /// planner saw the latest state at commit time.
    pub fn lag(&self) -> u64 {
        self.commit.saturating_sub(self.snapshot).saturating_sub(1)
    }
}

/// Catalog access for the engine.
pub trait Backend {
    /// The artifact store annotation, execution and materialization use.
    type Store: ArtifactStorage;

    /// The system configuration.
    fn config(&self) -> &HyppoConfig;

    /// The planner's lower-bound cache.
    fn bounds_cache(&self) -> &Arc<PlannerBoundsCache>;

    /// The artifact store.
    fn store(&self) -> &Self::Store;

    /// Run `plan` against a view of the catalog; returns its result and the
    /// view's epoch. The view does not outlive the call.
    fn plan_view<R>(&self, plan: impl FnOnce(&History, &CostEstimator) -> R) -> (R, u64);

    /// Execute a plan over the augmentation it was found in: the serial
    /// executor against [`Backend::store`], in the configured mode.
    fn execute(
        &self,
        aug: &Augmentation,
        plan: &Plan,
        costs: &[f64],
    ) -> Result<ExecOutcome, ExecError> {
        execute_plan(aug, &plan.edges, self.store(), self.config().mode, costs)
    }

    /// Apply one catalog mutation and drain its journaled events into the
    /// durability hook, if any. Returns the mutation's result, the epoch
    /// the commit produced, and the durability outcome.
    fn commit<R>(
        &mut self,
        mutate: impl FnOnce(&mut History, &mut CostEstimator, &mut Self::Store) -> R,
    ) -> (R, u64, std::io::Result<()>);

    /// Add executed seconds to the cumulative execution time.
    fn add_cumulative_seconds(&mut self, seconds: f64);
}

/// One executed and committed submission.
#[derive(Clone, Debug)]
pub struct Run {
    /// The submission report.
    pub report: RunReport,
    /// Snapshot/commit epochs.
    pub epochs: EpochStamp,
}

/// A planned, not yet executed, submission.
#[derive(Debug)]
pub struct Planned {
    /// The augmentation the plan was found in.
    pub aug: Augmentation,
    /// Estimated cost of every augmentation edge, by edge index.
    pub costs: Vec<f64>,
    /// The chosen plan.
    pub plan: Plan,
}

/// Submit one pipeline: augment, plan, execute, commit.
pub fn submit<B: Backend>(b: &mut B, spec: PipelineSpec) -> Result<Run, SubmitError> {
    let start = Instant::now();
    let pipeline = build_pipeline(spec);
    plan_execute_commit(b, start, submission(&pipeline))
}

/// Retrieve previously computed artifacts by name (paper Scenario 2):
/// plan over the history's alternatives only.
pub fn retrieve<B: Backend>(b: &mut B, names: &[ArtifactName]) -> Result<Run, SubmitError> {
    plan_execute_commit(b, Instant::now(), |history, _| augment_request(history, names))
}

/// Plan one pipeline against the current catalog without executing it.
pub fn plan<B: Backend>(b: &B, spec: PipelineSpec) -> Result<Planned, SubmitError> {
    plan_in_view(b, &submission(&build_pipeline(spec))).0
}

/// Submit K pipelines as one batch: augment and annotate all of them
/// against one catalog view, plan them jointly via
/// [`Planner::plan_batch`], then execute and commit each item in
/// submission order. Planning is all-or-nothing ([`SubmitError::NoPlan`]
/// before anything executes). An item whose plan loads an artifact evicted
/// since planning — by an earlier item or a concurrent session — falls
/// back to a full replan, counted in [`BatchRunReport::replans`].
pub fn submit_batch<B: Backend>(
    b: &mut B,
    specs: Vec<PipelineSpec>,
) -> Result<(BatchRunReport, EpochStamp), SubmitError> {
    if specs.is_empty() {
        let ((), epoch) = b.plan_view(|_, _| ());
        return Ok((BatchRunReport::default(), EpochStamp { snapshot: epoch, commit: epoch }));
    }
    let stats_before = b.bounds_cache().stats();
    let start = Instant::now();
    let pipelines: Vec<Pipeline> = specs.into_iter().map(build_pipeline).collect();
    let view: &B = b;
    let ((augs, costs, batch), snapshot) = view.plan_view(|history, estimator| {
        let config = view.config();
        let augs: Vec<Augmentation> = pipelines
            .iter()
            .map(|p| augment(p, history, &config.dictionary, config.augment))
            .collect();
        let costs: Vec<Vec<f64>> =
            augs.iter().map(|a| annotate_costs(a, estimator, view.store())).collect();
        let items: Vec<BatchItem<'_, _, _>> =
            augs.iter().zip(&costs).map(|(a, c)| BatchItem::new(&a.graph, request(a, c))).collect();
        let batch = planner(view).plan_batch(&items);
        drop(items);
        (augs, costs, batch)
    });
    let plans: Vec<Plan> =
        batch.plans.into_iter().map(|p| p.ok_or(SubmitError::NoPlan)).collect::<Result<_, _>>()?;
    // The joint materialization decision: artifacts produced by plan edges
    // two or more plans share.
    let shared_artifacts: Vec<ArtifactName> = batch
        .shared_edges
        .iter()
        .filter(|e| e.index() < augs[0].graph.edge_bound())
        .flat_map(|&e| augs[0].graph.edge_ref(e).head.iter())
        .map(|&n| augs[0].graph.node(n).name)
        .collect();
    let optimize_share = start.elapsed().as_secs_f64() / augs.len() as f64;

    let mut reports = Vec::with_capacity(augs.len());
    let mut replans = 0usize;
    let mut last_commit = snapshot;
    for (i, (aug, plan)) in augs.iter().zip(&plans).enumerate() {
        let (report, commit) = match execute_and_absorb(b, aug, &costs[i], plan, optimize_share) {
            Ok(absorbed) => absorbed,
            Err(SubmitError::Exec(ExecError::MissingArtifact(_))) => {
                replans += 1;
                let run = plan_execute_commit(b, Instant::now(), submission(&pipelines[i]))?;
                (run.report, run.epochs.commit)
            }
            Err(e) => return Err(e),
        };
        reports.push(report);
        last_commit = commit;
    }
    let bounds_delta = b.bounds_cache().stats().delta_since(&stats_before);
    let report =
        BatchRunReport { reports, batch: batch.stats, bounds_delta, shared_artifacts, replans };
    Ok((report, EpochStamp { snapshot, commit: last_commit }))
}

fn submission(pipeline: &Pipeline) -> impl Fn(&History, &HyppoConfig) -> Option<Augmentation> + '_ {
    |history, config| Some(augment(pipeline, history, &config.dictionary, config.augment))
}

fn planner<B: Backend>(b: &B) -> Planner {
    b.config().search.clone().bounds_cache(Arc::clone(b.bounds_cache()))
}

fn request<'a>(aug: &'a Augmentation, costs: &'a [f64]) -> PlanRequest<'a> {
    PlanRequest::new(costs, aug.source, &aug.targets).with_new_tasks(&aug.new_tasks)
}

/// Build the augmentation against a catalog view, annotate and plan it.
fn plan_in_view<B: Backend>(
    b: &B,
    build: &impl Fn(&History, &HyppoConfig) -> Option<Augmentation>,
) -> (Result<Planned, SubmitError>, u64) {
    b.plan_view(|history, estimator| {
        let aug = build(history, b.config()).ok_or(SubmitError::NoPlan)?;
        let costs = annotate_costs(&aug, estimator, b.store());
        let plan = planner(b).plan(&aug.graph, request(&aug, &costs)).ok_or(SubmitError::NoPlan)?;
        Ok(Planned { aug, costs, plan })
    })
}

/// Plan, execute, commit. A plan that loses a race with eviction replans
/// from a newer view: the eviction cleared the artifact's history flag, so
/// the new plan routes around it.
fn plan_execute_commit<B: Backend>(
    b: &mut B,
    mut start: Instant,
    build: impl Fn(&History, &HyppoConfig) -> Option<Augmentation>,
) -> Result<Run, SubmitError> {
    let mut replans = 0;
    loop {
        let (planned, snapshot) = plan_in_view(b, &build);
        let Planned { aug, costs, plan } = planned?;
        let optimize_seconds = start.elapsed().as_secs_f64();
        match execute_and_absorb(b, &aug, &costs, &plan, optimize_seconds) {
            Err(SubmitError::Exec(ExecError::MissingArtifact(_))) if replans < MAX_REPLANS => {
                replans += 1;
                start = Instant::now();
            }
            result => {
                return result.map(|(report, commit)| Run {
                    report,
                    epochs: EpochStamp { snapshot, commit },
                })
            }
        }
    }
}

/// Execute a plan and absorb the outcome in one commit. The execution time
/// counts toward the cumulative total once the commit applied, even if the
/// durability hook then failed.
fn execute_and_absorb<B: Backend>(
    b: &mut B,
    aug: &Augmentation,
    costs: &[f64],
    plan: &Plan,
    optimize_seconds: f64,
) -> Result<(RunReport, u64), SubmitError> {
    let outcome = b.execute(aug, plan, costs)?;
    let targets: Vec<ArtifactName> = aug.targets.iter().map(|&t| aug.graph.node(t).name).collect();
    let config = b.config();
    let materializer = (config.budget_bytes > 0).then_some(Materializer::new(MaterializeConfig {
        budget_bytes: config.budget_bytes,
        locality: config.locality,
    }));
    let (materialized, epoch, durable) = b.commit(|history, estimator, store| {
        record_outcome(aug, &outcome, &targets, history, estimator);
        // Mirror the estimator observations into the durable event stream:
        // the history journals its own mutations, but estimator state lives
        // outside it. Ordering relative to the history events is free —
        // the two replay into disjoint state.
        if history.journal_enabled() {
            for m in outcome.metrics.iter().filter(|m| !m.is_load) {
                history.journal_event(DurableEvent::Observe {
                    op: m.op,
                    task: m.task,
                    impl_index: m.impl_index,
                    input_cells: m.input_cells,
                    seconds: m.cost_seconds,
                });
            }
        }
        materializer
            .map(|m| m.run(history, store, estimator, &outcome.artifacts))
            .unwrap_or_default()
    });
    b.add_cumulative_seconds(outcome.total_seconds);
    durable.map_err(SubmitError::Durability)?;
    let report = RunReport {
        planned_cost: plan.cost,
        execution_seconds: outcome.total_seconds,
        optimize_seconds,
        tasks_executed: outcome.metrics.len(),
        loads: outcome.metrics.iter().filter(|m| m.is_load).count(),
        new_tasks: aug.new_tasks.len(),
        expansions: plan.expansions,
        pops: plan.pops,
        stored: materialized.stored.len(),
        evicted: materialized.evicted.len(),
        values: targets.iter().filter_map(|&n| outcome.value(n).map(|v| (n, v))).collect(),
    };
    Ok((report, epoch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::DurabilityHook;
    use crate::executor::ExecMode;
    use crate::store::ArtifactStore;
    use crate::Hyppo;
    use hyppo_ml::{Config, LogicalOp};
    use hyppo_tensor::{Dataset, Matrix, TaskKind};
    use std::cell::Cell;

    fn system() -> Hyppo {
        let mut sys = Hyppo::new(HyppoConfig { mode: ExecMode::Simulated, ..Default::default() });
        let data = Dataset::new(
            Matrix::filled(40, 2, 1.0),
            vec![0.0; 40],
            vec!["a".into(), "b".into()],
            TaskKind::Regression,
        );
        sys.register_dataset("data", data);
        sys
    }

    fn spec(seed: i64) -> PipelineSpec {
        let mut spec = PipelineSpec::new();
        let d = spec.load("data");
        let (train, _test) = spec.split(d, Config::new().with_i("seed", seed));
        spec.fit(LogicalOp::StandardScaler, 0, Config::new(), &[train]);
        spec
    }

    /// `Hyppo`, except that its next `failures` executions lose a race with
    /// eviction.
    struct Flaky {
        sys: Hyppo,
        failures: Cell<usize>,
    }

    impl Flaky {
        fn new(failures: usize) -> Self {
            Flaky { sys: system(), failures: Cell::new(failures) }
        }

        fn epoch(&self) -> u64 {
            self.plan_view(|_, _| ()).1
        }

        fn catalog(&self) -> String {
            crate::persist::catalog_to_json(&self.sys.history, &self.sys.estimator)
        }
    }

    impl Backend for Flaky {
        type Store = ArtifactStore;

        fn config(&self) -> &HyppoConfig {
            Backend::config(&self.sys)
        }

        fn bounds_cache(&self) -> &Arc<PlannerBoundsCache> {
            Backend::bounds_cache(&self.sys)
        }

        fn store(&self) -> &ArtifactStore {
            Backend::store(&self.sys)
        }

        fn plan_view<R>(&self, plan: impl FnOnce(&History, &CostEstimator) -> R) -> (R, u64) {
            self.sys.plan_view(plan)
        }

        fn execute(
            &self,
            aug: &Augmentation,
            plan: &Plan,
            costs: &[f64],
        ) -> Result<ExecOutcome, ExecError> {
            if self.failures.get() > 0 {
                self.failures.set(self.failures.get() - 1);
                return Err(ExecError::MissingArtifact(ArtifactName(7)));
            }
            self.sys.execute(aug, plan, costs)
        }

        fn commit<R>(
            &mut self,
            mutate: impl FnOnce(&mut History, &mut CostEstimator, &mut ArtifactStore) -> R,
        ) -> (R, u64, std::io::Result<()>) {
            self.sys.commit(mutate)
        }

        fn add_cumulative_seconds(&mut self, seconds: f64) {
            self.sys.add_cumulative_seconds(seconds);
        }
    }

    #[test]
    fn replans_until_a_plan_executes() {
        for k in 0..=MAX_REPLANS {
            let mut b = Flaky::new(k);
            let before = b.epoch();
            let run = submit(&mut b, spec(0)).unwrap_or_else(|e| panic!("k = {k}: {e}"));
            assert_eq!(b.failures.get(), 0, "k = {k}: every failure was retried");
            assert_eq!(run.epochs, EpochStamp { snapshot: before, commit: before + 1 });
            assert!(b.sys.cumulative_seconds > 0.0);
        }
    }

    #[test]
    fn exhausted_replans_fail_and_commit_nothing() {
        let mut b = Flaky::new(MAX_REPLANS + 1);
        let (catalog, epoch) = (b.catalog(), b.epoch());
        let err = submit(&mut b, spec(0)).unwrap_err();
        assert!(matches!(err, SubmitError::Exec(ExecError::MissingArtifact(_))), "{err}");
        assert_eq!(b.catalog(), catalog, "history and estimator unchanged");
        assert_eq!(b.epoch(), epoch);
        assert_eq!(b.sys.cumulative_seconds, 0.0);
    }

    #[test]
    fn a_batch_items_fallback_is_counted_in_replans() {
        let mut b = Flaky::new(1);
        let before = b.epoch();
        let (batch, epochs) = submit_batch(&mut b, vec![spec(0), spec(1)]).unwrap();
        assert_eq!(batch.replans, 1);
        assert_eq!(batch.reports.len(), 2);
        assert_eq!(epochs, EpochStamp { snapshot: before, commit: before + 2 });
    }

    #[derive(Debug)]
    struct FailingHook;

    impl DurabilityHook for FailingHook {
        fn append(&mut self, _: &[DurableEvent]) -> std::io::Result<()> {
            Err(std::io::Error::other("disk full"))
        }
    }

    #[test]
    fn a_failed_durability_drain_still_counts_the_execution() {
        let mut sys = system();
        sys.attach_durability(Box::new(FailingHook));
        let err = sys.submit(spec(0)).unwrap_err();
        assert!(matches!(err, SubmitError::Durability(_)), "{err}");
        assert!(sys.cumulative_seconds > 0.0, "the commit applied, so its CET counts");
        assert!(sys.history.artifact_count() > 1, "the commit applied in memory");
    }
}
