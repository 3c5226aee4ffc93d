//! Incremental readiness tracking for hyperedge execution.
//!
//! A hyperedge is *ready* when every tail node is available — present
//! among the sources or produced by a completed edge (the AND semantics of
//! B-connectivity). [`InDegreeTracker`] maintains per-edge counts of
//! unavailable tail nodes and releases edges as completions make their
//! head nodes available; [`execution_order`](crate::execution_order) fires
//! them in that order.

use crate::graph::HyperGraph;
use crate::ids::{EdgeId, NodeId};
use crate::NodeBitSet;

/// Per-edge in-degree tracking over a plan's hyperedges.
///
/// Construction counts, for every plan edge, the tail nodes not yet
/// available; [`InDegreeTracker::complete`] marks an edge's head nodes
/// available and returns the edges that just became ready. Edge ids are
/// returned in ascending order everywhere, so schedulers that respect the
/// returned order are deterministic.
#[derive(Clone, Debug)]
pub struct InDegreeTracker {
    /// Unavailable tail-node count per edge index; `u32::MAX` outside the
    /// plan.
    remaining: Vec<u32>,
    in_plan: Vec<bool>,
    completed: Vec<bool>,
    available: NodeBitSet,
    pending: usize,
}

impl InDegreeTracker {
    /// Track readiness of `edges` given that `sources` are available.
    pub fn new<N, E>(graph: &HyperGraph<N, E>, edges: &[EdgeId], sources: &[NodeId]) -> Self {
        let mut available = NodeBitSet::with_bound(graph.node_bound());
        for &s in sources {
            available.insert(s);
        }
        let mut remaining = vec![u32::MAX; graph.edge_bound()];
        let mut in_plan = vec![false; graph.edge_bound()];
        let mut pending = 0;
        for &e in edges {
            if !in_plan[e.index()] {
                pending += 1;
            }
            in_plan[e.index()] = true;
            remaining[e.index()] =
                graph.tail(e).iter().filter(|&&v| !available.contains(v)).count() as u32;
        }
        let completed = vec![false; graph.edge_bound()];
        InDegreeTracker { remaining, in_plan, completed, available, pending }
    }

    /// Whether every plan edge has completed.
    pub fn is_done(&self) -> bool {
        self.pending == 0
    }

    /// All currently ready edges (all tail nodes available, not yet
    /// completed), in ascending id order.
    pub fn ready(&self) -> Vec<EdgeId> {
        (0..self.remaining.len())
            .filter(|&i| self.in_plan[i] && !self.completed[i] && self.remaining[i] == 0)
            .map(EdgeId::from_index)
            .collect()
    }

    /// Mark `e` completed: its head nodes become available, and every plan
    /// edge whose last missing tail node was released is returned, in
    /// ascending id order. Completing an edge twice (or one outside the
    /// plan) is a no-op returning no edges.
    pub fn complete<N, E>(&mut self, graph: &HyperGraph<N, E>, e: EdgeId) -> Vec<EdgeId> {
        if !self.in_plan[e.index()] || self.completed[e.index()] {
            return Vec::new();
        }
        self.completed[e.index()] = true;
        self.pending -= 1;
        let mut newly_ready: Vec<EdgeId> = Vec::new();
        for &h in graph.head(e) {
            if self.available.insert(h) {
                for &consumer in graph.fstar(h) {
                    if self.in_plan[consumer.index()] && !self.completed[consumer.index()] {
                        let r = &mut self.remaining[consumer.index()];
                        *r -= 1;
                        if *r == 0 {
                            newly_ready.push(consumer);
                        }
                    }
                }
            }
        }
        newly_ready.sort_unstable();
        newly_ready
    }

    /// First plan edge (in the order of `edges`) that has not completed —
    /// the witness reported when an edge set is not executable.
    pub fn first_incomplete(&self, edges: &[EdgeId]) -> Option<EdgeId> {
        edges.iter().copied().find(|&e| !self.completed[e.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type G = HyperGraph<&'static str, &'static str>;

    /// Diamond: s → a; a → b; a → c; {b, c} → d.
    fn diamond() -> (G, [NodeId; 5], [EdgeId; 4]) {
        let mut g = G::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        let e0 = g.add_edge(vec![s], vec![a], "load");
        let e1 = g.add_edge(vec![a], vec![b], "left");
        let e2 = g.add_edge(vec![a], vec![c], "right");
        let e3 = g.add_edge(vec![b, c], vec![d], "join");
        (g, [s, a, b, c, d], [e0, e1, e2, e3])
    }

    #[test]
    fn diamond_frontier_widens_then_joins() {
        let (g, n, e) = diamond();
        let edges = [e[3], e[1], e[0], e[2]];
        let mut t = InDegreeTracker::new(&g, &edges, &[n[0]]);
        assert_eq!(t.ready(), vec![e[0]]);
        assert_eq!(t.complete(&g, e[0]), vec![e[1], e[2]], "both branches released");
        assert_eq!(t.ready(), vec![e[1], e[2]], "join waits for both branches");
        assert!(t.complete(&g, e[1]).is_empty());
        assert_eq!(t.complete(&g, e[2]), vec![e[3]]);
        assert_eq!(t.complete(&g, e[3]), vec![]);
        assert!(t.is_done());
    }

    #[test]
    fn wide_fanout_is_ready_all_at_once() {
        let mut g = G::new();
        let s = g.add_node("s");
        let root = g.add_node("root");
        let load = g.add_edge(vec![s], vec![root], "load");
        let branches: Vec<EdgeId> = (0..8)
            .map(|_| {
                let out = g.add_node("leaf");
                g.add_edge(vec![root], vec![out], "branch")
            })
            .collect();
        let mut edges = vec![load];
        edges.extend(&branches);

        let mut t = InDegreeTracker::new(&g, &edges, &[s]);
        assert_eq!(t.ready(), vec![load]);
        let released = t.complete(&g, load);
        assert_eq!(released, branches, "all 8 branches ready simultaneously");
        for &b in &branches {
            assert!(!t.is_done());
            t.complete(&g, b);
        }
        assert!(t.is_done());
    }

    #[test]
    fn multi_tail_edge_needs_every_input() {
        let mut g = G::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let out = g.add_node("out");
        let ea = g.add_edge(vec![s], vec![a], "ta");
        let eb = g.add_edge(vec![s], vec![b], "tb");
        let ec = g.add_edge(vec![s], vec![c], "tc");
        let join = g.add_edge(vec![a, b, c], vec![out], "join3");
        let edges = [ea, eb, ec, join];

        let mut t = InDegreeTracker::new(&g, &edges, &[s]);
        assert_eq!(t.ready(), vec![ea, eb, ec]);
        assert!(t.complete(&g, ea).is_empty());
        assert!(t.complete(&g, ec).is_empty(), "two of three inputs are not enough");
        assert_eq!(t.complete(&g, eb), vec![join]);
    }

    #[test]
    fn multi_head_edge_releases_all_heads() {
        let mut g = G::new();
        let s = g.add_node("s");
        let tr = g.add_node("train");
        let te = g.add_node("test");
        let m = g.add_node("m");
        let p = g.add_node("p");
        let split = g.add_edge(vec![s], vec![tr, te], "split");
        let use_tr = g.add_edge(vec![tr], vec![m], "fit");
        let use_te = g.add_edge(vec![te], vec![p], "eval");
        let mut t = InDegreeTracker::new(&g, &[split, use_tr, use_te], &[s]);
        assert_eq!(t.complete(&g, split), vec![use_tr, use_te]);
    }

    #[test]
    fn duplicate_and_foreign_completions_are_noops() {
        let (g, n, e) = diamond();
        let edges = [e[0], e[1]];
        let mut t = InDegreeTracker::new(&g, &edges, &[n[0]]);
        assert_eq!(t.complete(&g, e[0]), vec![e[1]]);
        assert!(t.complete(&g, e[0]).is_empty(), "double completion");
        assert!(t.complete(&g, e[3]).is_empty(), "edge outside the plan");
        assert_eq!(t.ready(), vec![e[1]]);
        assert!(!t.is_done());
    }

    #[test]
    fn stuck_plan_reports_first_incomplete_edge() {
        let (g, n, e) = diamond();
        // Without the left branch the join can never fire.
        let edges = [e[0], e[2], e[3]];
        let mut t = InDegreeTracker::new(&g, &edges, &[n[0]]);
        let mut queue = t.ready();
        while let Some(next) = queue.pop() {
            queue.extend(t.complete(&g, next));
        }
        assert!(!t.is_done());
        assert_eq!(t.first_incomplete(&edges), Some(e[3]));
    }

    #[test]
    fn empty_plan_has_empty_frontier_and_is_done() {
        let (g, n, _) = diamond();
        let t = InDegreeTracker::new(&g, &[], &[n[0]]);
        assert!(t.ready().is_empty());
        assert!(t.is_done());
    }

    #[test]
    fn sources_make_edges_immediately_ready() {
        let (g, n, e) = diamond();
        // With b and c available as sources, the join is ready at once.
        assert_eq!(InDegreeTracker::new(&g, &[e[3]], &[n[2], n[3]]).ready(), vec![e[3]]);
    }
}
