//! The actor runtime: tenant mailboxes scheduled over one FIFO run
//! queue, bounded admission, and group-committed durability.
//!
//! Each tenant session is an **actor**: a FIFO mailbox of submission
//! tickets that at most one worker drains at a time, so a tenant's
//! submissions execute in exactly the order they were admitted no matter
//! how many workers the pool has. *Runnable* tenants (not running, mail
//! waiting) circulate through a [`hyppo_sched::Scheduler`] as tenant
//! indices: submitters inject on the empty→non-empty mailbox transition,
//! and the worker that finishes a tenant's turn re-injects it when mail
//! remains. The injector is FIFO, so a busy tenant's next turn queues
//! behind every tenant already waiting: with K tenants runnable, each one
//! runs within K + 1 turns however much mail the others hold. Each turn
//! records how many turns were claimed between its injection and its own
//! claim ([`TicketStats::queue_position`]), counted under the injector
//! lock. Planning happens against the backend's epoch snapshots, so
//! tenants only serialize at the commit point — never across plan search.
//!
//! Group commit never blocks a worker: a worker that closes a commit group
//! (or goes idle) only asks for a flush, and the runtime's one log-writer
//! thread writes and fsyncs the group while the workers serve the next
//! turns. Commits that land during a flush join the next group.
//!
//! Admission is bounded per tenant: a full mailbox either rejects new
//! submissions with [`ServeError::Busy`] ([`AdmissionPolicy::Reject`]) or
//! blocks the submitter until a slot frees ([`AdmissionPolicy::Block`]).
//!
//! Scheduler invariant: a tenant index is in the run queue **iff** it is
//! not currently running and its mailbox is non-empty. Enqueue injects
//! the tenant when its mailbox transitions empty → non-empty while idle;
//! the worker that just processed its turn re-injects it if mail remains.
//! Exactly one of those happens per transition, so a tenant has
//! at-most-one in-flight message and its copy appears at most once in the
//! run queue (DESIGN.md §16 restates the argument).

use crate::backend::{SharedBatchRun, SharedHyppo, SharedRun};
use hyppo_core::system::SubmitError;
use hyppo_persist::GroupCommitWal;
use hyppo_pipeline::{ArtifactName, PipelineSpec};
use hyppo_sched::{SchedStats, Scheduler, Step};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// What a tenant's full mailbox does to new submissions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Fail fast: `submit` returns [`ServeError::Busy`] and the rejection
    /// is counted in [`ServeMetrics::rejected`].
    Reject,
    /// Backpressure: `submit` blocks until a mailbox slot frees (or the
    /// runtime shuts down).
    #[default]
    Block,
}

/// Serving-layer configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads draining tenant mailboxes.
    pub workers: usize,
    /// Inert: every plan executes serially on the worker that claimed its
    /// tenant, whatever this says. Kept so existing configurations still
    /// compile; it selects nothing.
    pub plan_workers: usize,
    /// Per-tenant mailbox capacity (admission bound).
    pub mailbox_capacity: usize,
    /// Full-mailbox behavior.
    pub admission: AdmissionPolicy,
    /// Ask the log writer to flush the attached group-commit WAL after
    /// this many commits (an idle runtime asks for a flush of whatever is
    /// pending regardless). `1` asks after every submission; commits made
    /// while a flush is running still share the next one.
    pub commit_group: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            plan_workers: 1,
            mailbox_capacity: 64,
            admission: AdmissionPolicy::Block,
            commit_group: 8,
        }
    }
}

/// Serving-layer failure. `Clone` so every handle to a shared ticket can
/// observe the same outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission rejected the submission: the tenant's mailbox is full
    /// under [`AdmissionPolicy::Reject`].
    Busy,
    /// The submission was cancelled before it began executing.
    Cancelled,
    /// The runtime is shutting down (or already shut down).
    ShutDown,
    /// The backend found no executable plan.
    NoPlan,
    /// Plan execution failed (stringified [`ExecError`](hyppo_core::executor::ExecError)).
    Exec(String),
    /// The submission executed but the durability hook failed, or a group
    /// flush on the log writer failed since the last one reported (see
    /// [`ServeRuntime::attach_durability`]).
    Durability(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Busy => write!(f, "admission queue full"),
            ServeError::Cancelled => write!(f, "submission cancelled"),
            ServeError::ShutDown => write!(f, "serving runtime is shut down"),
            ServeError::NoPlan => write!(f, "no executable plan for the requested targets"),
            ServeError::Exec(e) => write!(f, "execution failed: {e}"),
            ServeError::Durability(e) => write!(f, "durability failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SubmitError> for ServeError {
    fn from(e: SubmitError) -> Self {
        match e {
            SubmitError::NoPlan => ServeError::NoPlan,
            SubmitError::Exec(e) => ServeError::Exec(e.to_string()),
            SubmitError::Durability(e) => ServeError::Durability(e.to_string()),
            SubmitError::Serving(e) => ServeError::Exec(e),
        }
    }
}

impl From<ServeError> for SubmitError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::NoPlan => SubmitError::NoPlan,
            other => SubmitError::Serving(other.to_string()),
        }
    }
}

/// One unit of tenant work.
#[derive(Debug)]
pub(crate) enum Request {
    /// `submit`: one pipeline.
    Submit(PipelineSpec),
    /// `submit_batch`: jointly planned pipelines.
    Batch(Vec<PipelineSpec>),
    /// `retrieve`: previously computed artifacts by name.
    Retrieve(Vec<ArtifactName>),
}

/// What a finished request produced.
#[derive(Clone, Debug)]
pub(crate) enum Response {
    /// A single submission or retrieval.
    One(SharedRun),
    /// A batch submission.
    Many(SharedBatchRun),
}

/// Per-ticket timing and staleness, filled in as the ticket progresses.
#[derive(Clone, Copy, Debug, Default)]
pub struct TicketStats {
    /// Seconds the ticket sat in the mailbox before a worker picked it up.
    pub mailbox_wait_seconds: f64,
    /// Seconds the backend spent serving it (plan + execute + commit).
    pub service_seconds: f64,
    /// End-to-end seconds from admission to completion.
    pub latency_seconds: f64,
    /// Snapshot-staleness of its commit ([`EpochStamp::lag`]): how many
    /// other tenants' commits landed between its snapshot and its commit.
    ///
    /// [`EpochStamp::lag`]: crate::EpochStamp::lag
    pub epoch_lag: u64,
    /// Tenant turns claimed between the injection of this ticket's turn
    /// into the run queue and the turn's own claim: its queue position,
    /// counted under the scheduler's injector lock ([`Step::Task`]), so
    /// preemption cannot skew it.
    pub queue_position: u64,
}

#[derive(Debug)]
pub(crate) enum TicketState {
    Queued,
    Running,
    Done(Result<Response, ServeError>),
}

/// The shared state behind one submission: handles wait on it, workers
/// resolve it, `cancel` races both.
#[derive(Debug)]
pub(crate) struct Ticket {
    state: Mutex<TicketState>,
    done: Condvar,
    enqueued_at: Instant,
    stats: Mutex<TicketStats>,
}

impl Ticket {
    fn new() -> Arc<Self> {
        Arc::new(Ticket {
            state: Mutex::new(TicketState::Queued),
            done: Condvar::new(),
            enqueued_at: Instant::now(),
            stats: Mutex::new(TicketStats::default()),
        })
    }

    /// Queued → Running, the execute-once gate: exactly one of
    /// `begin_execution` and a queued-state `cancel` wins, so a ticket is
    /// never both executed and cancelled, and never executed twice.
    fn begin_execution(&self) -> bool {
        let mut state = self.lock_state();
        match *state {
            TicketState::Queued => {
                *state = TicketState::Running;
                true
            }
            // Cancelled while queued (already resolved) — skip.
            _ => false,
        }
    }

    fn finish(&self, result: Result<Response, ServeError>) {
        *self.lock_state() = TicketState::Done(result);
        self.done.notify_all();
    }

    pub(crate) fn cancel(&self) -> bool {
        let mut state = self.lock_state();
        if matches!(*state, TicketState::Queued) {
            *state = TicketState::Done(Err(ServeError::Cancelled));
            self.done.notify_all();
            true
        } else {
            false
        }
    }

    pub(crate) fn wait(&self) -> Result<Response, ServeError> {
        let mut state = self.lock_state();
        loop {
            if let TicketState::Done(result) = &*state {
                return result.clone();
            }
            state = self.done.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    pub(crate) fn try_result(&self) -> Option<Result<Response, ServeError>> {
        match &*self.lock_state() {
            TicketState::Done(result) => Some(result.clone()),
            _ => None,
        }
    }

    pub(crate) fn stats(&self) -> TicketStats {
        *self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_state(&self) -> MutexGuard<'_, TicketState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[derive(Debug)]
struct Mail {
    ticket: Arc<Ticket>,
    request: Request,
}

#[derive(Debug, Default)]
struct TenantState {
    mailbox: VecDeque<Mail>,
    /// A worker is currently processing one of this tenant's messages.
    running: bool,
}

#[derive(Debug, Default)]
struct TenantTable {
    tenants: Vec<TenantState>,
    /// Workers currently processing a message.
    active: usize,
    /// Total queued messages across all mailboxes.
    queued: usize,
    shutdown: bool,
}

/// Atomic gauges. All loads/stores are `Relaxed`: these are monitoring
/// counters read through snapshots, never used for synchronization — the
/// scheduler mutex orders everything that matters.
#[derive(Debug, Default)]
struct Gauges {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    peak_queue_depth: AtomicUsize,
    mailbox_wait_nanos: AtomicU64,
    service_nanos: AtomicU64,
    latency_nanos: AtomicU64,
    epoch_lag_sum: AtomicU64,
    epoch_lag_max: AtomicU64,
    commits_since_flush: AtomicUsize,
    group_flushes: AtomicU64,
}

/// A point-in-time snapshot of the serving runtime's health gauges,
/// returned by `Client::metrics()` and `ServeRuntime::metrics()`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeMetrics {
    /// Submissions admitted (including still-queued and cancelled ones).
    pub submitted: u64,
    /// Submissions that finished executing.
    pub completed: u64,
    /// Submissions turned away by a full mailbox under
    /// [`AdmissionPolicy::Reject`].
    pub rejected: u64,
    /// Submissions cancelled before execution began.
    pub cancelled: u64,
    /// Messages currently queued across all tenant mailboxes.
    pub queue_depth: usize,
    /// Largest `queue_depth` observed since the runtime started.
    pub peak_queue_depth: usize,
    /// Total seconds completed submissions spent waiting in mailboxes.
    pub mailbox_wait_seconds: f64,
    /// Total seconds the backend spent serving completed submissions.
    pub service_seconds: f64,
    /// Total admission-to-completion seconds of completed submissions.
    pub latency_seconds: f64,
    /// Mean snapshot-staleness (commits by other tenants between a
    /// submission's snapshot and its commit) across completed submissions.
    pub epoch_lag_mean: f64,
    /// Worst snapshot-staleness observed.
    pub epoch_lag_max: u64,
    /// Group-commit WAL flushes (each one fsync, covering every commit
    /// since the previous flush). Zero when no durability is attached.
    pub group_flushes: u64,
}

#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) backend: Arc<SharedHyppo>,
    pub(crate) config: ServeConfig,
    table: Mutex<TenantTable>,
    /// Runnable tenant indices in FIFO order; parking and wakeups live
    /// inside the scheduler.
    queue: Arc<Scheduler<usize>>,
    /// Signals blocked submitters: a mailbox slot freed, or shutdown.
    admit_cv: Condvar,
    durability: Mutex<Option<GroupCommitWal>>,
    /// Flush requests for the one log-writer thread, so no worker waits
    /// on an fsync. Requests made while a flush runs are served by the
    /// next flush, which takes everything pending by then.
    flushes: Arc<Scheduler<()>>,
    /// The first log-writer flush failure not yet reported on a ticket.
    flush_error: Mutex<Option<String>>,
    gauges: Gauges,
}

impl Shared {
    fn lock_table(&self) -> MutexGuard<'_, TenantTable> {
        self.table.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register a new tenant actor; returns its index.
    pub(crate) fn add_tenant(&self) -> usize {
        let mut table = self.lock_table();
        table.tenants.push(TenantState::default());
        table.tenants.len() - 1
    }

    /// Admit one request into `tenant`'s mailbox, applying the configured
    /// backpressure. Returns the ticket future handles wait on.
    pub(crate) fn enqueue(
        &self,
        tenant: usize,
        request: Request,
    ) -> Result<Arc<Ticket>, ServeError> {
        let mut table = self.lock_table();
        if table.shutdown {
            return Err(ServeError::ShutDown);
        }
        while table.tenants[tenant].mailbox.len() >= self.config.mailbox_capacity {
            match self.config.admission {
                AdmissionPolicy::Reject => {
                    // hyppo-lint: allow(relaxed-ordering-justified) monitoring
                    // counter; the Err return itself carries the decision
                    self.gauges.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Busy);
                }
                AdmissionPolicy::Block => {
                    table = self.admit_cv.wait(table).unwrap_or_else(|e| e.into_inner());
                    if table.shutdown {
                        return Err(ServeError::ShutDown);
                    }
                }
            }
        }
        let ticket = Ticket::new();
        let was_empty = table.tenants[tenant].mailbox.is_empty();
        table.tenants[tenant].mailbox.push_back(Mail { ticket: Arc::clone(&ticket), request });
        table.queued += 1;
        // Exactly one injection per empty→non-empty transition while idle:
        // later submitters see a non-empty mailbox, and the tenant cannot
        // be claimed (hence requeued) before the injection below lands.
        let make_runnable = was_empty && !table.tenants[tenant].running;
        let depth = table.queued;
        drop(table);
        // hyppo-lint: allow(relaxed-ordering-justified) monitoring gauges;
        // `depth` was computed under the tenant-table lock, the atomics only
        // publish it to metrics readers
        self.gauges.submitted.fetch_add(1, Ordering::Relaxed);
        // hyppo-lint: allow(relaxed-ordering-justified) peak-depth gauge; `depth` was computed under the tenant-table lock
        self.gauges.peak_queue_depth.fetch_max(depth, Ordering::Relaxed);
        if make_runnable {
            self.queue.inject(tenant);
        }
        Ok(ticket)
    }

    /// Worker main loop: service-mode turns over the scheduler until the
    /// runtime is drained and shut down.
    fn worker_loop(&self, queue: &Scheduler<usize>) {
        loop {
            match queue.next_step() {
                Step::Task { item: tenant, claims_ahead: queue_position } => {
                    let mail = {
                        let mut table = self.lock_table();
                        let mail = table.tenants[tenant]
                            .mailbox
                            .pop_front()
                            .expect("scheduler invariant: scheduled tenant has mail");
                        table.tenants[tenant].running = true;
                        table.active += 1;
                        table.queued -= 1;
                        mail
                    };
                    // A slot freed: wake one blocked submitter.
                    self.admit_cv.notify_one();

                    self.process(mail, queue_position);

                    let again = {
                        let mut table = self.lock_table();
                        table.tenants[tenant].running = false;
                        table.active -= 1;
                        !table.tenants[tenant].mailbox.is_empty()
                    };
                    if again {
                        // ≤1 in-flight per tenant: only the worker that
                        // just finished this tenant's turn may requeue it.
                        // The queue is FIFO, so the tenant's next turn
                        // waits behind every tenant already runnable.
                        queue.inject(tenant);
                    }
                }
                Step::Idle(token) => {
                    let (drained, idle) = {
                        let table = self.lock_table();
                        let quiet = table.active == 0 && table.queued == 0;
                        (table.shutdown && quiet, quiet)
                    };
                    if drained {
                        // Idle + shutdown: release the siblings still
                        // parked. `ServeRuntime::stop`'s caller makes
                        // the last commits durable once every thread is
                        // joined.
                        queue.shutdown();
                        return;
                    }
                    if idle {
                        // Fully idle: flush the open commit group now so
                        // durability never waits on new traffic.
                        self.flushes.inject(());
                    }
                    queue.park(token);
                }
                Step::Shutdown => return,
            }
        }
    }

    /// Execute one mailbox message and resolve its ticket.
    fn process(&self, mail: Mail, queue_position: u64) {
        let Mail { ticket, request } = mail;
        if !ticket.begin_execution() {
            // Cancelled while queued; already resolved.
            // hyppo-lint: allow(relaxed-ordering-justified) monitoring counter
            self.gauges.cancelled.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mailbox_wait = ticket.enqueued_at.elapsed();
        let service_start = Instant::now();
        let backend = &*self.backend;
        let (result, commits, lag) = match request {
            Request::Submit(spec) => match backend.submit_shared(spec) {
                Ok(run) => {
                    let lag = run.epochs.lag();
                    (Ok(Response::One(run)), 1, lag)
                }
                Err(e) => (Err(ServeError::from(e)), 0, 0),
            },
            Request::Batch(specs) => {
                let items = specs.len();
                match backend.submit_batch_shared(specs) {
                    Ok(run) => {
                        let lag = run.epochs.lag();
                        (Ok(Response::Many(run)), items, lag)
                    }
                    Err(e) => (Err(ServeError::from(e)), 0, 0),
                }
            }
            Request::Retrieve(names) => match backend.retrieve_shared(&names) {
                Ok(run) => {
                    let lag = run.epochs.lag();
                    (Ok(Response::One(run)), 1, lag)
                }
                Err(e) => (Err(ServeError::from(e)), 0, 0),
            },
        };
        let service = service_start.elapsed();
        let latency = ticket.enqueued_at.elapsed();

        // Group-commit boundary: the backend drained this commit's events
        // into the (buffering) hook; flush once per `commit_group` commits.
        let result = if commits > 0 { self.after_commits(commits, result) } else { result };

        {
            let mut stats = ticket.stats.lock().unwrap_or_else(|e| e.into_inner());
            *stats = TicketStats {
                mailbox_wait_seconds: mailbox_wait.as_secs_f64(),
                service_seconds: service.as_secs_f64(),
                latency_seconds: latency.as_secs_f64(),
                epoch_lag: lag,
                queue_position,
            };
        }
        // Gauges before `finish`: a waiter woken by the ticket must see
        // its own completion reflected in `metrics()`.
        let g = &self.gauges;
        // hyppo-lint: allow(relaxed-ordering-justified) completion tallies are monitoring gauges; the ticket condvar below is the synchronization point
        g.completed.fetch_add(1, Ordering::Relaxed);
        // hyppo-lint: allow(relaxed-ordering-justified) monitoring gauge only (see above)
        g.mailbox_wait_nanos.fetch_add(mailbox_wait.as_nanos() as u64, Ordering::Relaxed);
        // hyppo-lint: allow(relaxed-ordering-justified) monitoring gauge only (see above)
        g.service_nanos.fetch_add(service.as_nanos() as u64, Ordering::Relaxed);
        // hyppo-lint: allow(relaxed-ordering-justified) monitoring gauge only (see above)
        g.latency_nanos.fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
        // hyppo-lint: allow(relaxed-ordering-justified) monitoring gauge only (see above)
        g.epoch_lag_sum.fetch_add(lag, Ordering::Relaxed);
        // hyppo-lint: allow(relaxed-ordering-justified) monitoring gauge only (see above)
        g.epoch_lag_max.fetch_max(lag, Ordering::Relaxed);
        ticket.finish(result);
    }

    /// Count `commits` toward the current group; when the group is full,
    /// ask the log writer to flush it. A log-writer flush failure is
    /// surfaced on the ticket that closes the next group (its in-memory
    /// submission already succeeded — same contract as
    /// [`SubmitError::Durability`]).
    fn after_commits(
        &self,
        commits: usize,
        result: Result<Response, ServeError>,
    ) -> Result<Response, ServeError> {
        // hyppo-lint: allow(relaxed-ordering-justified) group sizing is a
        // heuristic trigger; the WAL itself orders events under its own lock
        let since = self.gauges.commits_since_flush.fetch_add(commits, Ordering::Relaxed) + commits;
        if since >= self.config.commit_group {
            // hyppo-lint: allow(relaxed-ordering-justified) group-counter reset is a heuristic trigger; the WAL orders events under its own lock
            self.gauges.commits_since_flush.store(0, Ordering::Relaxed);
            self.flushes.inject(());
            if let Some(e) = self.flush_error.lock().unwrap_or_else(|e| e.into_inner()).take() {
                return result.and(Err(ServeError::Durability(e)));
            }
        }
        result
    }

    /// Log-writer main loop: one flush per claimed request until the
    /// runtime stops it. A failed flush keeps its events pending (the WAL
    /// retries them first) and latches the error for the next ticket that
    /// closes a group.
    fn log_writer_loop(&self, flushes: &Scheduler<()>) {
        loop {
            match flushes.next_step() {
                Step::Task { .. } => {
                    if let Err(e) = self.flush_durability() {
                        let mut latched =
                            self.flush_error.lock().unwrap_or_else(|e| e.into_inner());
                        latched.get_or_insert_with(|| e.to_string());
                    }
                }
                Step::Idle(token) => flushes.park(token),
                Step::Shutdown => return,
            }
        }
    }

    /// Flush the attached group-commit WAL, if any: one fsync covering
    /// every commit since the previous flush.
    pub(crate) fn flush_durability(&self) -> std::io::Result<()> {
        let wal = self.durability.lock().unwrap_or_else(|e| e.into_inner()).clone();
        if let Some(wal) = wal {
            if wal.flush_group()? > 0 {
                // hyppo-lint: allow(relaxed-ordering-justified) monitoring counter
                self.gauges.group_flushes.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    pub(crate) fn metrics(&self) -> ServeMetrics {
        let queue_depth = self.lock_table().queued;
        let g = &self.gauges;
        // hyppo-lint: allow(relaxed-ordering-justified) metrics snapshot read; tearing across concurrent updates is acceptable
        let completed = g.completed.load(Ordering::Relaxed);
        ServeMetrics {
            // hyppo-lint: allow(relaxed-ordering-justified) metrics read (see above)
            submitted: g.submitted.load(Ordering::Relaxed),
            completed,
            // hyppo-lint: allow(relaxed-ordering-justified) metrics read (see above)
            rejected: g.rejected.load(Ordering::Relaxed),
            // hyppo-lint: allow(relaxed-ordering-justified) metrics read (see above)
            cancelled: g.cancelled.load(Ordering::Relaxed),
            queue_depth,
            // hyppo-lint: allow(relaxed-ordering-justified) metrics read (see above)
            peak_queue_depth: g.peak_queue_depth.load(Ordering::Relaxed),
            // hyppo-lint: allow(relaxed-ordering-justified) metrics read (see above)
            mailbox_wait_seconds: g.mailbox_wait_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            // hyppo-lint: allow(relaxed-ordering-justified) metrics read (see above)
            service_seconds: g.service_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            // hyppo-lint: allow(relaxed-ordering-justified) metrics read (see above)
            latency_seconds: g.latency_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            epoch_lag_mean: if completed == 0 {
                0.0
            } else {
                // hyppo-lint: allow(relaxed-ordering-justified) metrics read (see above)
                g.epoch_lag_sum.load(Ordering::Relaxed) as f64 / completed as f64
            },
            // hyppo-lint: allow(relaxed-ordering-justified) metrics read (see above)
            epoch_lag_max: g.epoch_lag_max.load(Ordering::Relaxed),
            // hyppo-lint: allow(relaxed-ordering-justified) metrics read (see above)
            group_flushes: g.group_flushes.load(Ordering::Relaxed),
        }
    }
}

/// The serving runtime: worker threads over one shared backend.
///
/// Create with [`ServeRuntime::new`], hand out per-tenant [`Client`]s via
/// [`ServeRuntime::client`], and tear down with [`ServeRuntime::shutdown`]
/// — which drains every mailbox, flushes durability, and returns the
/// backend.
///
/// [`Client`]: crate::Client
#[derive(Debug)]
pub struct ServeRuntime {
    pub(crate) shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    log_writer: Vec<std::thread::JoinHandle<()>>,
}

impl ServeRuntime {
    /// Start `config.workers` actor workers over `backend`.
    pub fn new(backend: SharedHyppo, config: ServeConfig) -> Self {
        ServeRuntime::over(Arc::new(backend), config)
    }

    /// Start the runtime over an already-shared backend (e.g. one that
    /// embedded code also reads through [`SharedHyppo::snapshot`]).
    pub fn over(backend: Arc<SharedHyppo>, config: ServeConfig) -> Self {
        let shared = Arc::new(Shared {
            backend,
            config,
            table: Mutex::new(TenantTable::default()),
            queue: Arc::new(Scheduler::new(config.workers.max(1))),
            admit_cv: Condvar::new(),
            durability: Mutex::new(None),
            flushes: Arc::new(Scheduler::new(1)),
            flush_error: Mutex::new(None),
            gauges: Gauges::default(),
        });
        // The log writer is running before the first worker starts, and
        // `stop` joins it after the last worker. glibc hands the malloc
        // arena of an exited thread to the next thread that starts, so this
        // fixed order gives each thread of a restarted runtime the arena of
        // its predecessor in the same role. Were the order left to a race,
        // a worker could start on the log writer's small arena and grow it
        // while the old worker arena sat idle: megabytes of resident memory
        // more on some restarts than on others.
        let flushes = Arc::clone(&shared.flushes);
        let writer_shared = Arc::clone(&shared);
        let started = Arc::new(Barrier::new(2));
        let writer_started = Arc::clone(&started);
        let log_writer = flushes.spawn_pool("hyppo-wal", move |flushes| {
            writer_started.wait();
            writer_shared.log_writer_loop(flushes)
        });
        started.wait();
        let queue = Arc::clone(&shared.queue);
        let worker_shared = Arc::clone(&shared);
        let pool = queue.spawn_pool("hyppo-serve", move |queue| worker_shared.worker_loop(queue));
        ServeRuntime { shared, workers: pool, log_writer }
    }

    /// The embedded backend.
    pub fn backend(&self) -> &SharedHyppo {
        &self.shared.backend
    }

    /// Attach a group-commit WAL: the backend's commits buffer into it (in
    /// epoch order) and the log writer flushes it, one fsync per commit
    /// group and whenever the workers drain idle. Tickets complete without
    /// waiting for their group's fsync; a failed flush is reported as
    /// [`ServeError::Durability`] on the ticket that closes the next group,
    /// and [`shutdown`](Self::shutdown) returns once a final flush has made
    /// every commit durable, or reports why it could not.
    pub fn attach_durability(&self, wal: GroupCommitWal) {
        self.shared.backend.attach_durability(Box::new(wal.clone()));
        *self.shared.durability.lock().unwrap_or_else(|e| e.into_inner()) = Some(wal);
    }

    /// Open a new tenant session.
    pub fn client(&self) -> crate::Client {
        crate::Client::new(Arc::clone(&self.shared), self.shared.add_tenant())
    }

    /// Runtime-wide gauges.
    pub fn metrics(&self) -> ServeMetrics {
        self.shared.metrics()
    }

    /// Traffic counters of the tenant run queue (turns injected and
    /// claimed, empty claims, parks) — reported by perfbench; purely
    /// observational.
    pub fn scheduler_stats(&self) -> SchedStats {
        self.shared.queue.stats()
    }

    /// Graceful shutdown: refuse new submissions, drain every mailbox,
    /// flush durability, join the workers, and return the backend (the
    /// sole `Arc` if every client/handle was dropped).
    pub fn shutdown(mut self) -> Result<Arc<SharedHyppo>, ServeError> {
        self.stop();
        // Every thread is joined: this flush covers all commits left.
        self.shared.flush_durability().map_err(|e| ServeError::Durability(e.to_string()))?;
        Ok(Arc::clone(&self.shared.backend))
    }

    /// Drain and join the workers, then stop and join the log writer.
    fn stop(&mut self) {
        self.begin_shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.flushes.shutdown();
        for writer in self.log_writer.drain(..) {
            let _ = writer.join();
        }
    }

    fn begin_shutdown(&self) {
        let mut table = self.shared.lock_table();
        table.shutdown = true;
        drop(table);
        // Parked workers re-evaluate the drain condition; blocked
        // submitters observe the shutdown flag.
        self.shared.queue.wake_all();
        self.shared.admit_cv.notify_all();
    }
}

impl Drop for ServeRuntime {
    fn drop(&mut self) {
        if !self.workers.is_empty() || !self.log_writer.is_empty() {
            self.stop();
            let _ = self.shared.flush_durability();
        }
    }
}
