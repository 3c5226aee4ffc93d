//! Labelled directed hypergraphs with B-connectivity.
//!
//! This crate implements the representation substrate of HYPPO (Kontaxakis et
//! al., ICDE 2024): ML pipelines, execution histories, augmentations, and
//! execution plans are all *directed hypergraphs* whose nodes are artifacts
//! and whose hyperedges are tasks.
//!
//! A directed hypergraph `G = (V, E)` has hyperedges `e = (tail(e), head(e))`
//! connecting a *set* of tail nodes to a *set* of head nodes. This captures
//! multi-input/multi-output ML tasks exactly (e.g. a train/test split is one
//! hyperedge with one tail node and two head nodes), and — crucially — lets a
//! node carry *multiple incoming hyperedges* with OR semantics: each incoming
//! hyperedge is an *alternative* way to derive the artifact, while the tail
//! of a single hyperedge carries AND semantics (all inputs are required).
//! Plain DAGs cannot express both (paper §I).
//!
//! The crate provides:
//! - [`HyperGraph`]: arena-style storage with stable [`NodeId`]/[`EdgeId`]
//!   handles, backward/forward stars, and node/edge removal;
//! - [`connectivity`]: linear-time B-connectivity (Gallo et al. 1993) used to
//!   decide whether a plan is executable;
//! - [`subgraph`]: sub-hypergraph views, plan validation and minimality;
//! - [`frontier`]: per-edge in-degree tracking, the substrate of
//!   execution ordering;
//! - [`shortest`]: Gallo–Longo–Pallottino SBT-style shortest-hyperpath
//!   relaxation producing admissible per-node derivation-cost lower bounds
//!   (the planner's A* heuristic substrate);
//! - [`topo`]: execution (topological) ordering of hyperedges;
//! - [`dot`]: Graphviz export for debugging and documentation.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod connectivity;
pub mod dot;
pub mod frontier;
pub mod graph;
pub mod ids;
pub mod shortest;
pub mod subgraph;
pub mod topo;

pub use connectivity::{b_closure, is_b_connected, NodeBitSet};
pub use frontier::InDegreeTracker;
pub use graph::{EdgeRef, GrowthDelta, GrowthStep, HyperGraph, NodeRef};
pub use ids::{mix64, EdgeId, NodeId};
pub use shortest::{
    max_cost_distances, min_share_costs, repair_max_cost_distances, repair_min_share_costs,
};
pub use subgraph::{minimize_plan, validate_plan, PlanValidity, SubGraph};
pub use topo::{execution_order, TopoError};
