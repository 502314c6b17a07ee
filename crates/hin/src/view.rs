//! The read-only traversal trait every graph algorithm is generic over.
//!
//! The mutable [`crate::Hin`], the memory-mapped [`crate::Snapshot`] and
//! the counterfactual [`crate::DeltaView`] overlay implement [`GraphView`],
//! so transition kernels, the recommender and EMiGRe's explanation search
//! run unchanged on the base graph, a snapshot and hypothetical edits.

use crate::types::{EdgeTypeId, NodeId, NodeTypeId, TypeRegistry};

/// Read-only view of a directed weighted heterogeneous graph.
///
/// Traversal uses callback-style enumeration (`for_each_out` / `for_each_in`)
/// rather than returned iterators: overlay views splice several underlying
/// edge sources together and a monomorphised closure keeps the hot PPR push
/// loops free of boxing and dynamic dispatch.
///
/// Views are `Sync`: the parallel CHECK path shares one `&G` across its
/// worker threads, and every implementation is plain immutable data. An
/// implementation needing interior mutability must use a thread-safe cell.
pub trait GraphView: Sync {
    /// Number of nodes. Node ids are dense in `0..num_nodes()`.
    fn num_nodes(&self) -> usize;

    /// Type of a node.
    fn node_type(&self, n: NodeId) -> NodeTypeId;

    /// The type registry naming node/edge types.
    fn registry(&self) -> &TypeRegistry;

    /// Calls `f(dst, edge_type, weight)` for every outgoing edge of `n`.
    fn for_each_out<F: FnMut(NodeId, EdgeTypeId, f64)>(&self, n: NodeId, f: F);

    /// Calls `f(src, edge_type, weight)` for every incoming edge of `n`.
    fn for_each_in<F: FnMut(NodeId, EdgeTypeId, f64)>(&self, n: NodeId, f: F);

    /// Number of outgoing edges of `n`.
    fn out_degree(&self, n: NodeId) -> usize {
        let mut d = 0usize;
        self.for_each_out(n, |_, _, _| d += 1);
        d
    }

    /// Number of incoming edges of `n`.
    fn in_degree(&self, n: NodeId) -> usize {
        let mut d = 0usize;
        self.for_each_in(n, |_, _, _| d += 1);
        d
    }

    /// Sum of outgoing edge weights of `n` (the normaliser of the weighted
    /// transition row used by Personalized PageRank).
    fn out_weight_sum(&self, n: NodeId) -> f64 {
        let mut s = 0.0;
        self.for_each_out(n, |_, _, w| s += w);
        s
    }

    /// Whether the directed typed edge `(u, v, t)` exists.
    fn has_edge(&self, u: NodeId, v: NodeId, t: EdgeTypeId) -> bool {
        let mut found = false;
        self.for_each_out(u, |dst, et, _| {
            if dst == v && et == t {
                found = true;
            }
        });
        found
    }

    /// Whether *any* directed edge `u -> v` exists, regardless of type.
    fn has_any_edge(&self, u: NodeId, v: NodeId) -> bool {
        let mut found = false;
        self.for_each_out(u, |dst, _, _| {
            if dst == v {
                found = true;
            }
        });
        found
    }

    /// Total number of directed edges in the view.
    fn num_edges(&self) -> usize {
        let mut total = 0usize;
        for i in 0..self.num_nodes() {
            total += self.out_degree(NodeId(i as u32));
        }
        total
    }

    /// Collects the distinct out-neighbours of `n` (ignoring edge types) in
    /// first-encounter order. Convenience for tests and small-scale callers.
    fn out_neighbors(&self, n: NodeId) -> Vec<NodeId> {
        let mut v = Vec::new();
        self.for_each_out(n, |dst, _, _| {
            if !v.contains(&dst) {
                v.push(dst);
            }
        });
        v
    }

    /// Collects all nodes of the given type.
    fn nodes_of_type(&self, t: NodeTypeId) -> Vec<NodeId> {
        (0..self.num_nodes() as u32)
            .map(NodeId)
            .filter(|&n| self.node_type(n) == t)
            .collect()
    }
}

/// Blanket implementation so `&G` works wherever `G: GraphView` is expected.
impl<G: GraphView + ?Sized> GraphView for &G {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }
    fn node_type(&self, n: NodeId) -> NodeTypeId {
        (**self).node_type(n)
    }
    fn registry(&self) -> &TypeRegistry {
        (**self).registry()
    }
    fn for_each_out<F: FnMut(NodeId, EdgeTypeId, f64)>(&self, n: NodeId, f: F) {
        (**self).for_each_out(n, f)
    }
    fn for_each_in<F: FnMut(NodeId, EdgeTypeId, f64)>(&self, n: NodeId, f: F) {
        (**self).for_each_in(n, f)
    }
    fn out_degree(&self, n: NodeId) -> usize {
        (**self).out_degree(n)
    }
    fn in_degree(&self, n: NodeId) -> usize {
        (**self).in_degree(n)
    }
    fn out_weight_sum(&self, n: NodeId) -> f64 {
        (**self).out_weight_sum(n)
    }
    fn has_edge(&self, u: NodeId, v: NodeId, t: EdgeTypeId) -> bool {
        (**self).has_edge(u, v, t)
    }
    fn has_any_edge(&self, u: NodeId, v: NodeId) -> bool {
        (**self).has_any_edge(u, v)
    }
    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }
}
