//! Scripted multi-session batches over the actor runtime.
//!
//! The pre-serving runtime drove session lists with one OS thread per
//! session. That entry point now rides the actor runtime: every session
//! becomes a tenant [`Client`], its whole pipeline sequence is enqueued
//! into the tenant's FIFO mailbox (round-robin across sessions so all
//! tenants fill concurrently), and the worker pool interleaves them
//! against the shared epoch-snapshot backend. Per-session submission
//! order — and therefore per-session results — is identical to the old
//! thread-per-session driver; what changed is that N sessions no longer
//! cost N threads, and the outcome now carries the serving gauges
//! (queue depth, mailbox wait, epoch lag).
//!
//! [`ConcurrentSessions`] gives the serial [`Hyppo`] facade the same
//! entry point by moving its state into a temporary runtime and back.

use crate::backend::SharedHyppo;
use crate::client::Client;
use crate::runtime::{ServeConfig, ServeError, ServeRuntime};
use hyppo_core::system::{Hyppo, RunReport, SubmitError};
use hyppo_core::{ArtifactStore, CostEstimator, History};
use hyppo_pipeline::PipelineSpec;
use std::sync::Arc;
use std::time::Instant;

/// What one scripted session produced.
#[derive(Clone, Debug, Default)]
pub struct SessionReport {
    /// Session index (position in the submitted batch).
    pub session: usize,
    /// Per-submission reports, in submission order.
    pub runs: Vec<RunReport>,
    /// Wall-clock seconds from batch start to this session's last
    /// completion.
    pub wall_seconds: f64,
    /// Summed per-task seconds across the session's plans.
    pub task_seconds: f64,
    /// Summed seconds this session's submissions waited in its mailbox.
    pub mailbox_wait_seconds: f64,
    /// Worst snapshot-staleness ([`EpochStamp::lag`]) any of its
    /// submissions observed.
    ///
    /// [`EpochStamp::lag`]: crate::EpochStamp::lag
    pub epoch_lag_max: u64,
}

/// Aggregate metrics for one multi-session batch.
#[derive(Clone, Debug, Default)]
pub struct RuntimeMetrics {
    /// Sessions completed.
    pub sessions: usize,
    /// Hyperedges executed across all sessions.
    pub tasks_executed: usize,
    /// How many of them were loads (dataset or materialized artifact) —
    /// the cache hits of cross-session reuse.
    pub loads: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Summed per-task seconds — what one thread replaying every task
    /// serially would accumulate.
    pub task_seconds: f64,
    /// Wall-clock seconds threads spent waiting on locks (store shards +
    /// the catalog cell) during the batch.
    pub lock_wait_seconds: f64,
    /// Largest total mailbox depth the runtime reached during the batch.
    pub peak_queue_depth: usize,
    /// Summed seconds submissions spent queued in mailboxes.
    pub mailbox_wait_seconds: f64,
    /// Mean snapshot-staleness across the batch's submissions.
    pub epoch_lag_mean: f64,
    /// Worst snapshot-staleness observed.
    pub epoch_lag_max: u64,
}

impl RuntimeMetrics {
    /// Parallel speedup over a serial replay: summed task seconds divided
    /// by wall-clock seconds — what running tenants side by side bought.
    pub fn speedup(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.task_seconds / self.wall_seconds
        } else {
            1.0
        }
    }
}

/// One report per session plus the aggregates.
#[derive(Clone, Debug, Default)]
pub struct SessionsOutcome {
    /// One report per session, in input order.
    pub reports: Vec<SessionReport>,
    /// Aggregate metrics.
    pub metrics: RuntimeMetrics,
}

impl ServeRuntime {
    /// Run scripted sessions to completion: session `i`'s pipelines
    /// execute FIFO under tenant `i`'s actor, all sessions interleave on
    /// the worker pool against the shared epoch-snapshot state.
    pub fn run_sessions(
        &self,
        sessions: Vec<Vec<PipelineSpec>>,
    ) -> Result<SessionsOutcome, ServeError> {
        let lock_wait_before = self.backend().lock_wait_seconds();
        let start = Instant::now();

        // One tenant per session; fill mailboxes round-robin so every
        // tenant has work from the first scheduling decision on.
        let clients: Vec<Client> = sessions.iter().map(|_| self.client()).collect();
        let mut pending: Vec<std::collections::VecDeque<PipelineSpec>> =
            sessions.into_iter().map(|s| s.into()).collect();
        let mut handles: Vec<Vec<crate::SubmissionHandle>> =
            pending.iter().map(|_| Vec::new()).collect();
        loop {
            let mut enqueued_any = false;
            for (i, queue) in pending.iter_mut().enumerate() {
                if let Some(spec) = queue.pop_front() {
                    handles[i].push(clients[i].submit(spec)?);
                    enqueued_any = true;
                }
            }
            if !enqueued_any {
                break;
            }
        }

        let mut reports = Vec::with_capacity(handles.len());
        let mut first_error = None;
        let mut lag_sum = 0u64;
        for (session, session_handles) in handles.into_iter().enumerate() {
            let mut report = SessionReport { session, ..Default::default() };
            for handle in session_handles {
                match handle.wait_completed() {
                    Ok(completed) => {
                        report.task_seconds += completed.run.report.execution_seconds;
                        report.mailbox_wait_seconds += completed.stats.mailbox_wait_seconds;
                        lag_sum += completed.run.epochs.lag();
                        report.epoch_lag_max = report.epoch_lag_max.max(completed.run.epochs.lag());
                        report.runs.push(completed.run.report);
                    }
                    Err(e) => {
                        // Keep draining so every handle resolves before we
                        // report the failure — no submission left behind.
                        first_error.get_or_insert(e);
                    }
                }
            }
            report.wall_seconds = start.elapsed().as_secs_f64();
            reports.push(report);
        }
        if let Some(e) = first_error {
            return Err(e);
        }

        let wall_seconds = start.elapsed().as_secs_f64();
        let serve = self.metrics();
        let lag_count: u64 = reports.iter().map(|r| r.runs.len() as u64).sum();
        let metrics = RuntimeMetrics {
            sessions: reports.len(),
            tasks_executed: reports
                .iter()
                .flat_map(|r| r.runs.iter())
                .map(|run| run.tasks_executed)
                .sum(),
            loads: reports.iter().flat_map(|r| r.runs.iter()).map(|run| run.loads).sum(),
            wall_seconds,
            task_seconds: reports.iter().map(|r| r.task_seconds).sum(),
            lock_wait_seconds: self.backend().lock_wait_seconds() - lock_wait_before,
            peak_queue_depth: serve.peak_queue_depth,
            mailbox_wait_seconds: reports.iter().map(|r| r.mailbox_wait_seconds).sum(),
            epoch_lag_mean: if lag_count == 0 { 0.0 } else { lag_sum as f64 / lag_count as f64 },
            epoch_lag_max: reports.iter().map(|r| r.epoch_lag_max).max().unwrap_or(0),
        };
        Ok(SessionsOutcome { reports, metrics })
    }
}

/// Convenience: run scripted sessions over a fresh actor runtime built
/// around `backend`, then hand the backend back.
///
/// One actor worker per session (at most eight), blocking admission
/// (scripted batches should never drop work).
pub fn run_sessions_concurrent(
    backend: SharedHyppo,
    sessions: Vec<Vec<PipelineSpec>>,
) -> (Result<SessionsOutcome, ServeError>, Arc<SharedHyppo>) {
    let workers = sessions.len().clamp(1, 8);
    let runtime = ServeRuntime::new(backend, ServeConfig { workers, ..ServeConfig::default() });
    let outcome = runtime.run_sessions(sessions);
    match runtime.shutdown() {
        Ok(backend) => (outcome, backend),
        Err(e) => unreachable!("shutdown without durability cannot fail: {e}"),
    }
}

/// Extension: run concurrent scripted sessions from the serial [`Hyppo`]
/// facade by temporarily moving its state into an actor runtime.
pub trait ConcurrentSessions {
    /// Run `sessions` concurrently, one tenant each.
    fn run_sessions_concurrent(
        &mut self,
        sessions: Vec<Vec<PipelineSpec>>,
    ) -> Result<SessionsOutcome, SubmitError>;
}

impl ConcurrentSessions for Hyppo {
    fn run_sessions_concurrent(
        &mut self,
        sessions: Vec<Vec<PipelineSpec>>,
    ) -> Result<SessionsOutcome, SubmitError> {
        let history = std::mem::replace(&mut self.history, History::new());
        let estimator = std::mem::replace(&mut self.estimator, CostEstimator::new());
        let store = std::mem::replace(&mut self.store, ArtifactStore::new());
        let shared = SharedHyppo::from_parts(self.config.clone(), history, estimator, store);
        let (result, shared) = run_sessions_concurrent(shared, sessions);
        // State flows back whether the batch succeeded or not — completed
        // sessions' history must never be lost.
        let shared = Arc::try_unwrap(shared)
            .expect("runtime shut down and all clients dropped: sole Arc remains");
        let (history, estimator, store, executed_seconds) = shared.into_parts();
        self.history = history;
        self.estimator = estimator;
        self.store = store;
        self.cumulative_seconds += executed_seconds;
        let outcome = result.map_err(SubmitError::from)?;
        // The moved-back history carries any events the batch journaled
        // (the shared system had no hook of its own); drain them into the
        // serial facade's hook so the batch becomes durable too.
        self.flush_durability().map_err(SubmitError::Durability)?;
        Ok(outcome)
    }
}
