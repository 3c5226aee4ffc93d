//! # hyppo-persist — durability for HYPPO sessions
//!
//! The paper's system is in-memory: the equivalence-augmented history
//! hypergraph, the operator cost estimator, and the materialized-artifact
//! store all vanish when the process exits, and with them every reuse
//! opportunity the session paid to discover. This crate makes that state
//! crash-recoverable without touching the optimizer:
//!
//! - [`wal`] — an append-only, CRC-framed write-ahead log of
//!   [`hyppo_core::durable::DurableEvent`]s. [`WalHook`] plugs into
//!   [`hyppo_core::system::Hyppo::attach_durability`] (or the shared
//!   backend's, in `hyppo-serve`) and fsyncs each submission's events before the
//!   submission returns. Torn or corrupt tails are detected by CRC and
//!   physically truncated on open.
//! - [`group`] — [`GroupCommitWal`], the serving-layer variant of the
//!   hook: concurrent sessions' drained events buffer in commit (epoch)
//!   order and [`GroupCommitWal::flush_group`] writes each commit group as
//!   one framed batch — one fsync per group boundary instead of one per
//!   submission.
//! - [`store`] — [`DiskArtifactStorage`], a disk-backed
//!   [`hyppo_core::store::ArtifactStorage`] with byte-budgeted eviction
//!   ranked by the paper's materializer gain function
//!   ([`hyppo_core::materialize::gain`]).
//! - [`session`] — [`DurableHyppo`], the facade that ties them together:
//!   snapshot + WAL-replay recovery that rebuilds the system
//!   *bit-identically* (same bounds-cache keys, same planner output
//!   bytes), payload reconciliation for crashes between the WAL flush and
//!   the artifact mirror, and [`DurableHyppo::checkpoint`] to bound
//!   recovery time.
//!
//! Recovery correctness is argued in DESIGN.md §12 and enforced by the
//! crash-recovery property suite (`tests/persist_recovery_props.rs` at the
//! workspace root), which truncates the WAL at every record boundary and
//! mid-record across 100+ seeded sessions.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod group;
pub mod session;
pub mod store;
pub mod wal;

pub use group::{GroupCommitStats, GroupCommitWal};
pub use session::{DurableHyppo, RecoveryReport};
pub use store::DiskArtifactStorage;
pub use wal::{read_wal, WalContents, WalHook, WalWriter, WAL_HEADER_LEN, WAL_MAGIC, WAL_VERSION};
