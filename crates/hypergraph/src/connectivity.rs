//! B-connectivity for directed hypergraphs.
//!
//! A node `t` is *B-connected* to a source set `S` if `t ∈ S` or there is a
//! hyperedge `e` with `t ∈ head(e)` whose tail nodes are all B-connected to
//! `S` (Gallo, Longo, Pallottino 1993; paper §III-B). B-connectivity is the
//! executability criterion for plans: a task can run once *all* of its inputs
//! are derivable.
//!
//! [`b_closure`] computes the full set of B-connected nodes in time linear in
//! the size of the hypergraph using the classic counting algorithm: each edge
//! keeps a counter of not-yet-reached tail nodes and "fires" when the counter
//! hits zero.

use crate::graph::HyperGraph;
use crate::ids::{EdgeId, NodeId};

/// A dense bitset over node ids.
///
/// Node ids are dense indices, so membership tests and inserts are O(1) with
/// no hashing. Used throughout the optimizer's hot path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeBitSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeBitSet {
    /// An empty set able to hold node indices `< bound`.
    pub fn with_bound(bound: usize) -> Self {
        NodeBitSet { words: vec![0; bound.div_ceil(64)], len: 0 }
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `v`; returns `true` if it was not already present.
    ///
    /// Indices at or beyond the construction bound grow the set on demand
    /// (amortized O(1)), mirroring the bound-safety of [`NodeBitSet::contains`].
    #[inline]
    pub fn insert(&mut self, v: NodeId) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        if self.words[w] & mask == 0 {
            self.words[w] |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Remove `v`; returns `true` if it was present. Indices beyond the
    /// current capacity are simply absent (no panic).
    #[inline]
    pub fn remove(&mut self, v: NodeId) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        let Some(word) = self.words.get_mut(w) else {
            return false;
        };
        let mask = 1u64 << b;
        if *word & mask != 0 {
            *word &= !mask;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Order- and capacity-independent 64-bit signature of the member set:
    /// two sets with equal members have equal fingerprints even if their
    /// internal word vectors grew differently. O(words), no allocation.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                h = crate::ids::mix64(h ^ crate::ids::mix64(w ^ crate::ids::mix64(i as u64)));
            }
        }
        h
    }

    /// Iterate over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(NodeId::from_index(wi * 64 + b))
            })
        })
    }
}

impl FromIterator<NodeId> for NodeBitSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let items: Vec<NodeId> = iter.into_iter().collect();
        let bound = items.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        let mut set = NodeBitSet::with_bound(bound);
        for v in items {
            set.insert(v);
        }
        set
    }
}

/// Compute the set of nodes B-connected to `sources`, restricted to the
/// hyperedges for which `edge_enabled` returns `true`.
///
/// Passing `|_| true` explores the whole graph; plan validation passes a
/// predicate selecting only the plan's edges. Runs in `O(|V| + Σ|e|)`.
pub fn b_closure_filtered<N, E>(
    graph: &HyperGraph<N, E>,
    sources: &[NodeId],
    mut edge_enabled: impl FnMut(EdgeId) -> bool,
) -> NodeBitSet {
    let mut reached = NodeBitSet::with_bound(graph.node_bound());
    // Remaining unreached tail nodes per edge; edges fire at zero.
    let mut remaining: Vec<u32> = vec![u32::MAX; graph.edge_bound()];
    let mut queue: Vec<NodeId> = Vec::with_capacity(sources.len());

    for e in graph.edge_ids() {
        if edge_enabled(e) {
            remaining[e.index()] = graph.tail(e).len() as u32;
        }
    }

    for &s in sources {
        if graph.contains_node(s) && reached.insert(s) {
            queue.push(s);
        }
    }

    // Source tasks (empty tail) fire immediately.
    let fire =
        |e: EdgeId, reached: &mut NodeBitSet, queue: &mut Vec<NodeId>, graph: &HyperGraph<N, E>| {
            for &h in graph.head(e) {
                if reached.insert(h) {
                    queue.push(h);
                }
            }
        };
    for e in graph.edge_ids() {
        if remaining[e.index()] == 0 {
            fire(e, &mut reached, &mut queue, graph);
        }
    }

    while let Some(v) = queue.pop() {
        for &e in graph.fstar(v) {
            let r = &mut remaining[e.index()];
            if *r == u32::MAX {
                continue; // edge disabled by the filter
            }
            debug_assert!(*r > 0, "edge fired more tail nodes than it has");
            *r -= 1;
            if *r == 0 {
                fire(e, &mut reached, &mut queue, graph);
            }
        }
    }
    reached
}

/// Compute the set of nodes B-connected to `sources` over the whole graph.
pub fn b_closure<N, E>(graph: &HyperGraph<N, E>, sources: &[NodeId]) -> NodeBitSet {
    b_closure_filtered(graph, sources, |_| true)
}

/// Whether every node of `targets` is B-connected to `sources`.
pub fn is_b_connected<N, E>(
    graph: &HyperGraph<N, E>,
    sources: &[NodeId],
    targets: &[NodeId],
) -> bool {
    let closure = b_closure(graph, sources);
    targets.iter().all(|&t| closure.contains(t))
}

/// Nodes from which some target is *backward-reachable*: the union over
/// targets of everything that can appear in a derivation of that target.
///
/// This is the relevance filter HYPPO's augmenter uses: history nodes not in
/// this set can never participate in a plan for the requested targets.
pub fn backward_relevant<N, E>(graph: &HyperGraph<N, E>, targets: &[NodeId]) -> NodeBitSet {
    backward_walk(graph, targets, |_| ())
}

/// The hyperedges [`backward_relevant`] traverses: every live hyperedge
/// whose head meets the relevant set of `targets`, in increasing id order
/// (the order [`HyperGraph::edge_ids`] would list them in).
///
/// Gathered from the backward stars of the relevant nodes, so the cost is
/// the size of the targets' ancestry, not of the whole graph. Removed
/// hyperedges are detached from every star, so none is returned.
pub fn backward_relevant_edges<N, E>(graph: &HyperGraph<N, E>, targets: &[NodeId]) -> Vec<EdgeId> {
    let mut edges = Vec::new();
    backward_walk(graph, targets, |e| edges.push(e));
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Depth-first walk from `targets` against edge direction, calling `visit`
/// on every backward-star entry of every relevant node.
fn backward_walk<N, E>(
    graph: &HyperGraph<N, E>,
    targets: &[NodeId],
    mut visit: impl FnMut(EdgeId),
) -> NodeBitSet {
    let mut relevant = NodeBitSet::with_bound(graph.node_bound());
    let mut stack: Vec<NodeId> = Vec::new();
    for &t in targets {
        if graph.contains_node(t) && relevant.insert(t) {
            stack.push(t);
        }
    }
    while let Some(v) = stack.pop() {
        for &e in graph.bstar(v) {
            visit(e);
            for &u in graph.tail(e) {
                if relevant.insert(u) {
                    stack.push(u);
                }
            }
        }
    }
    relevant
}

#[cfg(test)]
mod tests {
    use super::*;

    type G = HyperGraph<&'static str, &'static str>;

    /// s -> a ; a -> {b,c} ; {b,c} -> d ; e isolated ; f -> d (alt producer, f unreachable)
    fn sample() -> (G, Vec<NodeId>) {
        let mut g = G::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        let e = g.add_node("e");
        let f = g.add_node("f");
        g.add_edge(vec![s], vec![a], "t0");
        g.add_edge(vec![a], vec![b, c], "t1");
        g.add_edge(vec![b, c], vec![d], "t2");
        g.add_edge(vec![f], vec![d], "t3");
        let _ = e;
        (g, vec![s, a, b, c, d, e, f])
    }

    #[test]
    fn closure_from_source_reaches_derivable_nodes_only() {
        let (g, n) = sample();
        let c = b_closure(&g, &[n[0]]);
        for &v in &[n[0], n[1], n[2], n[3], n[4]] {
            assert!(c.contains(v), "{v} should be B-connected to s");
        }
        assert!(!c.contains(n[5]), "isolated node must not be reached");
        assert!(!c.contains(n[6]), "f has no producer");
    }

    #[test]
    fn and_semantics_requires_all_tail_nodes() {
        let mut g = G::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let d = g.add_node("d");
        g.add_edge(vec![s], vec![a], "t0");
        // d requires BOTH a and b; b is underivable.
        g.add_edge(vec![a, b], vec![d], "t1");
        let c = b_closure(&g, &[s]);
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(!c.contains(d), "AND semantics: d must not fire with missing tail b");
    }

    #[test]
    fn or_semantics_any_alternative_suffices() {
        let mut g = G::new();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let d = g.add_node("d");
        g.add_edge(vec![s], vec![a], "t0");
        g.add_edge(vec![a], vec![d], "t1");
        g.add_edge(vec![b], vec![d], "t2"); // alternative via underivable b
        assert!(is_b_connected(&g, &[s], &[d]), "one viable alternative suffices");
    }

    #[test]
    fn sources_are_self_connected() {
        let (g, n) = sample();
        let c = b_closure(&g, &[n[5]]);
        assert!(c.contains(n[5]));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn empty_tail_edges_fire_unconditionally() {
        let mut g = G::new();
        let a = g.add_node("a");
        g.add_edge(vec![], vec![a], "gen");
        let c = b_closure(&g, &[]);
        assert!(c.contains(a));
    }

    #[test]
    fn filtered_closure_respects_edge_predicate() {
        let (g, n) = sample();
        // Disable t1 (the split); b, c, d become unreachable.
        let closure = b_closure_filtered(&g, &[n[0]], |e| g.edge(e) != &"t1");
        assert!(closure.contains(n[1]));
        assert!(!closure.contains(n[2]));
        assert!(!closure.contains(n[4]));
    }

    #[test]
    fn backward_relevant_collects_all_possible_derivations() {
        let (g, n) = sample();
        let rel = backward_relevant(&g, &[n[4]]);
        // Both derivations of d are relevant: via {b,c}<-a<-s and via f.
        for &v in &[n[0], n[1], n[2], n[3], n[4], n[6]] {
            assert!(rel.contains(v), "{v} participates in a derivation of d");
        }
        assert!(!rel.contains(n[5]));
    }

    #[test]
    fn backward_relevant_edges_are_the_edges_into_the_relevant_set() {
        let (mut g, n) = sample();
        let t0 = g.edge_ids().next().unwrap();
        // A second producer of `a`, removed again: it must not come back.
        let dead = g.add_edge(vec![n[5]], vec![n[1]], "t4");
        g.remove_edge(dead);
        for targets in [vec![n[4]], vec![n[2], n[3]], vec![n[1]], vec![n[5]], vec![]] {
            let rel = backward_relevant(&g, &targets);
            let scanned: Vec<EdgeId> =
                g.edge_ids().filter(|&e| g.head(e).iter().any(|&v| rel.contains(v))).collect();
            assert_eq!(backward_relevant_edges(&g, &targets), scanned, "targets {targets:?}");
        }
        assert_eq!(backward_relevant_edges(&g, &[n[1]]), vec![t0]);
    }

    #[test]
    fn bitset_insert_remove_iter() {
        let mut s = NodeBitSet::with_bound(130);
        assert!(s.insert(NodeId::from_index(0)));
        assert!(s.insert(NodeId::from_index(64)));
        assert!(s.insert(NodeId::from_index(129)));
        assert!(!s.insert(NodeId::from_index(64)));
        assert_eq!(s.len(), 3);
        assert!(s.remove(NodeId::from_index(64)));
        assert!(!s.remove(NodeId::from_index(64)));
        let members: Vec<usize> = s.iter().map(|v| v.index()).collect();
        assert_eq!(members, vec![0, 129]);
    }

    #[test]
    fn bitset_insert_remove_grow_beyond_bound() {
        // Regression: insert/remove used to panic past the construction
        // bound while contains was bound-safe; they now grow / no-op.
        let mut s = NodeBitSet::with_bound(4);
        assert!(s.insert(NodeId::from_index(200)), "insert grows on demand");
        assert!(s.contains(NodeId::from_index(200)));
        assert_eq!(s.len(), 1);
        assert!(!s.remove(NodeId::from_index(999)), "out-of-bound remove is absent, not a panic");
        assert!(s.remove(NodeId::from_index(200)));
        assert!(s.is_empty());
        let empty = NodeBitSet::with_bound(0);
        let mut grown = empty.clone();
        assert!(!grown.remove(NodeId::from_index(0)));
        assert!(grown.insert(NodeId::from_index(0)));
    }

    #[test]
    fn bitset_fingerprint_is_capacity_independent() {
        let mut a = NodeBitSet::with_bound(4);
        let mut b = NodeBitSet::with_bound(1024);
        for i in [1usize, 70, 300] {
            a.insert(NodeId::from_index(i)); // grows on demand
            b.insert(NodeId::from_index(i));
        }
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal sets, different capacity");
        b.remove(NodeId::from_index(300));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            NodeBitSet::with_bound(0).fingerprint(),
            NodeBitSet::with_bound(512).fingerprint(),
            "empty sets fingerprint equal regardless of capacity"
        );
    }

    #[test]
    fn bitset_from_iterator() {
        let s: NodeBitSet = [3usize, 7, 3].iter().map(|&i| NodeId::from_index(i)).collect();
        assert_eq!(s.len(), 2);
        assert!(s.contains(NodeId::from_index(3)));
        assert!(s.contains(NodeId::from_index(7)));
        assert!(!s.contains(NodeId::from_index(200)), "out-of-bound contains is false");
    }

    #[test]
    fn closure_ignores_removed_edges() {
        let (mut g, n) = sample();
        // Remove the only producer of a.
        let t0 = g.edge_ids().next().unwrap();
        g.remove_edge(t0);
        let c = b_closure(&g, &[n[0]]);
        assert!(!c.contains(n[1]));
        assert!(!c.contains(n[4]));
    }
}
