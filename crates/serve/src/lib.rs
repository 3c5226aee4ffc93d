//! # hyppo-serve — the multi-tenant serving layer
//!
//! HYPPO's reuse compounds when it runs as a long-lived service: many
//! analysts iterating on pipelines against one shared history, each new
//! submission planning over everything every tenant computed before it.
//! This crate holds the thread-safe backend, [`SharedHyppo`] (an
//! epoch-versioned catalog over a sharded [`SharedArtifactStore`]), and
//! turns it into that service:
//!
//! - **Sessions are actors.** Each tenant owns a FIFO mailbox of
//!   submission tickets; a thread-pool of workers drains runnable tenants
//!   one message at a time, so a tenant's submissions execute in
//!   admission order while tenants interleave freely
//!   ([`ServeRuntime`]).
//! - **Admission is bounded.** A full mailbox rejects with
//!   [`ServeError::Busy`] or blocks the submitter, per
//!   [`AdmissionPolicy`] — backpressure instead of unbounded queues.
//! - **Reads are epoch snapshots.** Planners run against immutable
//!   [`CatalogVersion`] snapshots while other tenants commit; every result
//!   carries its snapshot/commit epochs, and DESIGN.md §14 proves a plan
//!   at epoch `E` is unaffected by commits `> E`. Per-tenant results are
//!   **bit-identical** to replaying that tenant alone at equal history
//!   epochs (the determinism suite enforces this across 50+ seeds).
//! - **Durability group-commits.** With a
//!   [`GroupCommitWal`](hyppo_persist::GroupCommitWal) attached, commit
//!   epochs buffer in order and the runtime pays one fsync per commit
//!   group — the epoch boundary is the WAL linearization point. A
//!   log-writer thread does the write and the fsync, so no worker waits
//!   on the disk.
//!
//! The public surface is the [`Client`]: [`Client::submit`] returns a
//! [`SubmissionHandle`] with `wait()` / `try_report()` / `cancel()`;
//! [`Client::submit_batch`] returns a [`BatchHandle`]; `Client` also
//! implements the core [`Session`](hyppo_core::Session) trait so every
//! harness written against it drives the serving layer unchanged.
//!
//! ```
//! use hyppo_serve::{ServeConfig, ServeRuntime, SharedHyppo};
//! use hyppo_core::HyppoConfig;
//! # use hyppo_workloads::{taxi, ensemble_wl::wide_ensemble_spec};
//!
//! let runtime = ServeRuntime::new(
//!     SharedHyppo::new(HyppoConfig { budget_bytes: 1 << 26, ..Default::default() }),
//!     ServeConfig::default(),
//! );
//! let client = runtime.client();
//! client.register_dataset("taxi", taxi::generate(200, 5));
//! let handle = client.submit(wide_ensemble_spec("taxi", 3, 7)).unwrap();
//! let report = handle.wait().unwrap();
//! assert!(report.tasks_executed > 0);
//! let backend = runtime.shutdown().unwrap();
//! # let _ = backend;
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod client;
pub mod runtime;
pub mod sessions;
pub mod store;

pub use backend::{CatalogVersion, EpochStamp, SharedBatchRun, SharedHyppo, SharedRun};

pub use client::{BatchHandle, Client, CompletedSubmission, SubmissionHandle};
pub use runtime::{
    AdmissionPolicy, ServeConfig, ServeError, ServeMetrics, ServeRuntime, TicketStats,
};
pub use sessions::{
    run_sessions_concurrent, ConcurrentSessions, RuntimeMetrics, SessionReport, SessionsOutcome,
};
pub use store::SharedArtifactStore;
