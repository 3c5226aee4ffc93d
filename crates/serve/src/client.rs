//! The tenant-facing API: [`Client`] and its submission handles.
//!
//! A [`Client`] is one tenant session against a [`ServeRuntime`]: its
//! submissions are admitted into the tenant's bounded mailbox and
//! executed FIFO by the actor runtime, concurrently with every other
//! tenant. `submit` returns immediately with a [`SubmissionHandle`] —
//! wait on it, poll it, or cancel it.
//!
//! ```text
//! let runtime = ServeRuntime::new(SharedHyppo::new(config), ServeConfig::default());
//! let client = runtime.client();
//! let handle = client.submit(spec)?;
//! let report = handle.wait()?;
//! ```
//!
//! [`Client`] also implements the core [`Session`] trait (`submit` =
//! admit + wait), so any harness written against `Session` — baselines,
//! benches, examples — can drive the serving layer unchanged.
//!
//! [`ServeRuntime`]: crate::ServeRuntime
//! [`Session`]: hyppo_core::Session

use crate::backend::{SharedBatchRun, SharedRun};
use crate::runtime::{Request, Response, ServeError, ServeMetrics, Shared, Ticket, TicketStats};
use hyppo_core::system::{BatchRunReport, RunReport, SubmitError};
use hyppo_core::Session;
use hyppo_pipeline::{ArtifactName, PipelineSpec};
use hyppo_tensor::Dataset;
use std::sync::Arc;

/// One tenant's handle onto the serving runtime.
///
/// Cloning shares the tenant (and its FIFO mailbox); open a fresh tenant
/// with [`ServeRuntime::client`](crate::ServeRuntime::client) instead when
/// you want independent sessions.
#[derive(Clone, Debug)]
pub struct Client {
    shared: Arc<Shared>,
    tenant: usize,
}

impl Client {
    pub(crate) fn new(shared: Arc<Shared>, tenant: usize) -> Self {
        Client { shared, tenant }
    }

    /// This client's tenant index (stable for the runtime's lifetime).
    pub fn tenant(&self) -> usize {
        self.tenant
    }

    /// Submit one pipeline. Returns as soon as the submission is admitted
    /// to this tenant's mailbox; a full mailbox rejects with
    /// [`ServeError::Busy`] or blocks, per the configured
    /// [`AdmissionPolicy`](crate::AdmissionPolicy).
    pub fn submit(&self, spec: PipelineSpec) -> Result<SubmissionHandle, ServeError> {
        let ticket = self.shared.enqueue(self.tenant, Request::Submit(spec))?;
        Ok(SubmissionHandle { ticket })
    }

    /// Submit K pipelines as one jointly planned batch (the serving-layer
    /// form of `SharedHyppo::submit_batch_shared`).
    pub fn submit_batch(&self, specs: Vec<PipelineSpec>) -> Result<BatchHandle, ServeError> {
        let ticket = self.shared.enqueue(self.tenant, Request::Batch(specs))?;
        Ok(BatchHandle { ticket })
    }

    /// Retrieve previously computed artifacts by name (paper Scenario 2),
    /// planned over the shared history's alternatives.
    pub fn retrieve(&self, names: &[ArtifactName]) -> Result<SubmissionHandle, ServeError> {
        let ticket = self.shared.enqueue(self.tenant, Request::Retrieve(names.to_vec()))?;
        Ok(SubmissionHandle { ticket })
    }

    /// Register a raw dataset with the shared backend. Datasets are
    /// runtime-global (any tenant may reference them), so this commits
    /// directly instead of queueing through the mailbox.
    pub fn register_dataset(&self, id: &str, dataset: Dataset) {
        self.shared.backend.register_dataset(id, dataset);
    }

    /// A snapshot of the runtime-wide serving gauges: queue depth,
    /// mailbox wait, latency, epoch lag, admission rejections.
    pub fn metrics(&self) -> ServeMetrics {
        self.shared.metrics()
    }
}

/// Everything a completed submission carried, for callers that want more
/// than the [`RunReport`]: epoch stamps and queueing times.
#[derive(Clone, Debug)]
pub struct CompletedSubmission {
    /// The full shared-run result (report + epochs).
    pub run: SharedRun,
    /// Queueing/service/staleness stats for this submission.
    pub stats: TicketStats,
}

/// A pending single-pipeline submission (or retrieval).
///
/// Dropping the handle does **not** cancel the submission — it still
/// executes and commits into the shared history.
#[derive(Debug)]
pub struct SubmissionHandle {
    ticket: Arc<Ticket>,
}

impl SubmissionHandle {
    /// Block until the submission completes and return its report.
    pub fn wait(self) -> Result<RunReport, ServeError> {
        self.wait_completed().map(|c| c.run.report)
    }

    /// Block until the submission completes, returning the full result:
    /// report, epoch stamps, and queueing stats.
    pub fn wait_completed(self) -> Result<CompletedSubmission, ServeError> {
        match self.ticket.wait()? {
            Response::One(run) => Ok(CompletedSubmission { run, stats: self.ticket.stats() }),
            Response::Many(_) => unreachable!("single ticket resolved with a batch response"),
        }
    }

    /// Non-blocking poll: `None` while queued or running, the result once
    /// done. Can be called repeatedly.
    pub fn try_report(&self) -> Option<Result<RunReport, ServeError>> {
        self.ticket.try_result().map(|r| match r {
            Ok(Response::One(run)) => Ok(run.report),
            Ok(Response::Many(_)) => unreachable!("single ticket resolved with a batch response"),
            Err(e) => Err(e),
        })
    }

    /// Cancel if still queued. Returns `true` when the cancellation won —
    /// the submission will never execute and `wait` returns
    /// [`ServeError::Cancelled`]. Returns `false` once execution already
    /// started (or finished); the result stays available.
    pub fn cancel(&self) -> bool {
        self.ticket.cancel()
    }
}

/// A pending batch submission.
#[derive(Debug)]
pub struct BatchHandle {
    ticket: Arc<Ticket>,
}

impl BatchHandle {
    /// Block until the whole batch completes and return its report.
    pub fn wait(self) -> Result<BatchRunReport, ServeError> {
        self.wait_completed().map(|b| b.batch)
    }

    /// Block until the batch completes, returning the full result with
    /// epoch stamps.
    pub fn wait_completed(self) -> Result<SharedBatchRun, ServeError> {
        match self.ticket.wait()? {
            Response::Many(run) => Ok(run),
            Response::One(_) => unreachable!("batch ticket resolved with a single response"),
        }
    }

    /// Non-blocking poll for the batch report.
    pub fn try_report(&self) -> Option<Result<BatchRunReport, ServeError>> {
        self.ticket.try_result().map(|r| match r {
            Ok(Response::Many(run)) => Ok(run.batch),
            Ok(Response::One(_)) => unreachable!("batch ticket resolved with a single response"),
            Err(e) => Err(e),
        })
    }

    /// Cancel if still queued (see [`SubmissionHandle::cancel`]).
    pub fn cancel(&self) -> bool {
        self.ticket.cancel()
    }
}

impl Session for Client {
    fn backend_name(&self) -> &'static str {
        "HYPPO-serve"
    }

    fn register_dataset(&mut self, id: &str, dataset: Dataset) {
        Client::register_dataset(self, id, dataset);
    }

    fn submit(&mut self, spec: PipelineSpec) -> Result<RunReport, SubmitError> {
        let handle = Client::submit(self, spec).map_err(SubmitError::from)?;
        handle.wait().map_err(SubmitError::from)
    }

    fn submit_batch(&mut self, specs: Vec<PipelineSpec>) -> Result<Vec<RunReport>, SubmitError> {
        let handle = Client::submit_batch(self, specs).map_err(SubmitError::from)?;
        handle.wait().map(|b| b.reports).map_err(SubmitError::from)
    }

    fn retrieve(&mut self, names: &[ArtifactName]) -> Result<RunReport, SubmitError> {
        let handle = Client::retrieve(self, names).map_err(SubmitError::from)?;
        handle.wait().map_err(SubmitError::from)
    }

    fn cumulative_seconds(&self) -> f64 {
        self.shared.backend.cumulative_seconds()
    }

    fn budget_bytes(&self) -> u64 {
        self.shared.backend.config.budget_bytes
    }

    fn history_artifacts(&self) -> usize {
        self.shared.backend.snapshot().history.artifact_count()
    }
}
