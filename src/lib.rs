//! # HYPPO — Hypergraph Pipeline Optimizer
//!
//! A from-scratch Rust reproduction of *HYPPO: Using Equivalences to
//! Optimize Pipelines in Exploratory Machine Learning* (Kontaxakis,
//! Sacharidis, Simitsis, Abelló, Nadal — ICDE 2024).
//!
//! HYPPO represents ML pipelines, their execution history, and execution
//! plans as **directed hypergraphs** (artifacts = nodes, tasks =
//! multi-input/multi-output hyperedges). Alternative ways to derive an
//! artifact — recomputing it, loading a materialized copy, or running an
//! *equivalent* task from another framework — appear as parallel incoming
//! hyperedges, and finding the cheapest execution plan becomes a search
//! problem over the hypergraph.
//!
//! ## Crate map
//!
//! - [`hypergraph`] — directed hypergraphs, B-connectivity, plans;
//! - [`tensor`] — dense matrices, linear algebra, datasets;
//! - [`ml`] — the ML operator substrate (~40 operators, multiple physical
//!   implementations each);
//! - [`pipeline`] — pipeline specs, the operator dictionary, logical
//!   artifact naming;
//! - [`core`] — the HYPPO system: history, augmenter, serial plan search,
//!   cost model, materializer, executor;
//! - [`sched`] — the FIFO run queue the serving layer runs on: one
//!   injector that numbers its claims, with lost-wakeup-free parking;
//! - [`serve`] — the multi-tenant serving layer: the epoch-snapshot
//!   shared backend ([`serve::SharedHyppo`]) over a sharded thread-safe
//!   artifact store, per-tenant actor mailboxes over a worker pool,
//!   bounded admission, the [`serve::Client`]/[`serve::SubmissionHandle`]
//!   API ([`runtime`] keeps the backend's former paths);
//! - [`persist`] — durability: write-ahead-logged crash-recoverable
//!   history, disk-backed artifact store, the [`persist::DurableHyppo`]
//!   session facade;
//! - [`baselines`] — NoOptimization, Sharing, Helix, Collab, Collab-E;
//! - [`workloads`] — HIGGS/TAXI generators, iterative pipeline sequences,
//!   synthetic hypergraphs.
//!
//! ## Quick start
//!
//! ```
//! use hyppo::core::{Hyppo, HyppoConfig};
//! use hyppo::ml::{Config, LogicalOp};
//! use hyppo::pipeline::PipelineSpec;
//! use hyppo::workloads::higgs;
//!
//! let mut sys = Hyppo::new(HyppoConfig { budget_bytes: 1 << 20, ..Default::default() });
//! sys.register_dataset("higgs", higgs::generate(200, 1));
//!
//! let mut spec = PipelineSpec::new();
//! let data = spec.load("higgs");
//! let (train, _test) = spec.split(data, Config::new().with_i("seed", 0));
//! spec.fit(LogicalOp::StandardScaler, 0, Config::new(), &[train]);
//!
//! let report = sys.submit(spec).unwrap();
//! assert!(report.execution_seconds > 0.0);
//! ```
//!
//! ## Serving many tenants
//!
//! N analysts exploring at once against one shared history and store —
//! each tenant gets a [`serve::Client`] whose submissions run FIFO under
//! its own actor mailbox, interleaved on a worker pool; plans read
//! immutable epoch snapshots of the shared history, and materialized
//! artifacts are reused across tenants:
//!
//! ```
//! use hyppo::core::HyppoConfig;
//! use hyppo::serve::{ServeConfig, ServeRuntime, SharedHyppo};
//! use hyppo::workloads::ensemble_wl::wide_ensemble_spec;
//! use hyppo::workloads::taxi;
//!
//! let runtime = ServeRuntime::new(
//!     SharedHyppo::new(HyppoConfig { budget_bytes: 1 << 24, ..Default::default() }),
//!     ServeConfig::default(),
//! );
//! let client = runtime.client();
//! client.register_dataset("taxi", taxi::generate(200, 5));
//!
//! let handle = client.submit(wide_ensemble_spec("taxi", 3, 7)).unwrap();
//! let report = handle.wait().unwrap();
//! assert!(report.tasks_executed > 0);
//! assert_eq!(client.metrics().completed, 1);
//! runtime.shutdown().unwrap();
//! ```
//!
//! Scripted multi-session batches keep their one-call entry point — now
//! over the actor runtime (each session becomes a tenant):
//!
//! ```
//! use hyppo::core::{Hyppo, HyppoConfig};
//! use hyppo::serve::ConcurrentSessions;
//! use hyppo::workloads::ensemble_wl::wide_ensemble_spec;
//! use hyppo::workloads::taxi;
//!
//! let mut sys = Hyppo::new(HyppoConfig { budget_bytes: 1 << 24, ..Default::default() });
//! sys.register_dataset("taxi", taxi::generate(200, 5));
//!
//! let sessions = (0..4).map(|i| vec![wide_ensemble_spec("taxi", 3, i)]).collect();
//! let outcome = sys.run_sessions_concurrent(sessions).unwrap();
//! assert_eq!(outcome.metrics.sessions, 4);
//! assert!(outcome.metrics.speedup() > 0.0);
//! ```
//!
//! ## The Planner builder
//!
//! Plan search is configured through [`core::Planner`] (the README's
//! quickstart, kept compiling here). It is generic over node/edge labels —
//! any directed hypergraph plus a per-edge cost vector will do:
//!
//! ```
//! use hyppo::core::{PlanRequest, Planner, QueueKind};
//! use hyppo::hypergraph::HyperGraph;
//!
//! // s ─1─► a ─2─► t, plus a costlier direct alternative s ─9─► t.
//! let mut g: HyperGraph<&str, ()> = HyperGraph::new();
//! let (s, a, t) = (g.add_node("s"), g.add_node("a"), g.add_node("t"));
//! g.add_edge(vec![s], vec![a], ());
//! g.add_edge(vec![a], vec![t], ());
//! g.add_edge(vec![s], vec![t], ());
//! let costs = [1.0, 2.0, 9.0];
//!
//! let plan = Planner::exact()            // or Planner::greedy()
//!     .queue(QueueKind::Priority)        // Stack | Priority
//!     .plan(&g, PlanRequest::new(&costs, s, &[t]))
//!     .expect("t is derivable from s");
//! assert_eq!(plan.cost, 3.0);
//! assert!(plan.optimal);
//! ```

pub use hyppo_baselines as baselines;
pub use hyppo_core as core;
pub use hyppo_hypergraph as hypergraph;
pub use hyppo_ml as ml;
pub use hyppo_persist as persist;
pub use hyppo_pipeline as pipeline;
pub use hyppo_sched as sched;
pub use hyppo_serve as serve;
pub use hyppo_tensor as tensor;
pub use hyppo_workloads as workloads;

/// [`serve::SharedHyppo`] under its former `hyppo::runtime` path, kept for
/// callers that still import it from there.
pub mod runtime {
    pub use hyppo_serve::SharedHyppo;
}
