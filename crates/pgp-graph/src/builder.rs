//! Edge-list graph builder.
//!
//! Accepts arbitrary (possibly duplicated, possibly one-directional) edge
//! lists, symmetrizes them, merges parallel edges by summing their weights,
//! drops self loops, and emits a valid [`CsrGraph`].

use crate::{CsrGraph, Node, Weight};

/// Incremental builder for [`CsrGraph`].
///
/// ```
/// use pgp_graph::GraphBuilder;
/// let g = GraphBuilder::new(4)
///     .add_edge(0, 1)
///     .add_edge(1, 2)
///     .add_weighted_edge(2, 3, 5)
///     .build();
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3);
/// assert_eq!(g.total_edge_weight(), 7);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(Node, Node, Weight)>,
    node_weights: Option<Vec<Weight>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes (IDs `0..n`), unit node
    /// weights unless [`GraphBuilder::node_weights`] is called.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "node count exceeds Node range");
        Self {
            n,
            edges: Vec::new(),
            node_weights: None,
        }
    }

    /// Creates a builder with edge capacity pre-reserved.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Adds an undirected unit-weight edge `{u, v}`. Self loops are silently
    /// dropped; duplicates are merged at [`GraphBuilder::build`] time by
    /// summing weights.
    #[must_use]
    pub fn add_edge(self, u: Node, v: Node) -> Self {
        self.add_weighted_edge(u, v, 1)
    }

    /// Adds an undirected weighted edge.
    #[must_use]
    pub fn add_weighted_edge(mut self, u: Node, v: Node, w: Weight) -> Self {
        self.push_edge(u, v, w);
        self
    }

    /// Non-consuming edge insertion (for loops).
    pub fn push_edge(&mut self, u: Node, v: Node, w: Weight) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge endpoint out of range"
        );
        if u == v {
            return; // self loops carry no cut information
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b, w));
    }

    /// Sets explicit node weights (`len == n`).
    #[must_use]
    pub fn node_weights(mut self, weights: Vec<Weight>) -> Self {
        assert_eq!(weights.len(), self.n, "node weight length mismatch");
        self.node_weights = Some(weights);
        self
    }

    /// Finalizes the CSR graph: sorts, merges duplicates, symmetrizes.
    /// Runs in `O(m log m)`.
    pub fn build(mut self) -> CsrGraph {
        let n = self.n;
        // Merge parallel edges (stored canonically with u < v).
        self.edges.sort_unstable();
        self.edges.dedup_by(|next, acc| {
            if next.0 == acc.0 && next.1 == acc.1 {
                acc.2 += next.2;
                true
            } else {
                false
            }
        });
        let m = self.edges.len();

        // Counting pass for symmetric CSR.
        let mut deg = vec![0u64; n];
        for &(u, v, _) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut xadj = vec![0u64; n + 1];
        for i in 0..n {
            xadj[i + 1] = xadj[i] + deg[i];
        }
        let mut cursor: Vec<u64> = xadj[..n].to_vec();
        let mut adjncy = vec![0 as Node; 2 * m];
        let mut adjwgt = vec![0 as Weight; 2 * m];
        for &(u, v, w) in &self.edges {
            let cu = cursor[u as usize] as usize;
            adjncy[cu] = v;
            adjwgt[cu] = w;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            adjncy[cv] = u;
            adjwgt[cv] = w;
            cursor[v as usize] += 1;
        }
        let node_weight = self.node_weights.unwrap_or_else(|| vec![1; n]);
        CsrGraph::from_parts(xadj, adjncy, adjwgt, node_weight)
    }
}

/// Builds a graph from a plain `(u, v)` edge list with unit weights.
pub fn from_edges(n: usize, edges: &[(Node, Node)]) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for &(u, v) in edges {
        b.push_edge(u, v, 1);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_merged_with_weight_sum() {
        let g = GraphBuilder::new(2)
            .add_edge(0, 1)
            .add_edge(1, 0)
            .add_weighted_edge(0, 1, 3)
            .build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.total_edge_weight(), 5);
        g.validate().unwrap();
    }

    #[test]
    fn self_loops_are_dropped() {
        let g = GraphBuilder::new(2).add_edge(0, 0).add_edge(0, 1).build();
        assert_eq!(g.m(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn adjacency_is_sorted_per_node() {
        let g = from_edges(4, &[(3, 0), (1, 0), (2, 0)]);
        assert_eq!(g.neighbor_slice(0), &[1, 2, 3]);
        g.validate().unwrap();
    }

    #[test]
    fn custom_node_weights() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 1)
            .node_weights(vec![5, 7, 11])
            .build();
        assert_eq!(g.total_node_weight(), 23);
        assert_eq!(g.node_weight(2), 11);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = GraphBuilder::new(2).add_edge(0, 2);
    }

    #[test]
    fn empty_builder_gives_empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The builder always emits a structurally valid graph, whatever the
        /// input edge list (duplicates, self loops, both directions).
        #[test]
        fn builder_output_is_always_valid(
            n in 1usize..40,
            raw in proptest::collection::vec((0u32..40, 0u32..40, 1u64..5), 0..200)
        ) {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in raw {
                let (u, v) = (u % n as u32, v % n as u32);
                b.push_edge(u, v, w);
            }
            let g = b.build();
            prop_assert!(g.validate().is_ok());
        }

        /// Total edge weight equals the sum of inserted non-loop weights.
        #[test]
        fn weight_conservation(
            n in 2usize..30,
            raw in proptest::collection::vec((0u32..30, 0u32..30, 1u64..9), 0..100)
        ) {
            let mut b = GraphBuilder::new(n);
            let mut expect = 0u64;
            for (u, v, w) in raw {
                let (u, v) = (u % n as u32, v % n as u32);
                if u != v { expect += w; }
                b.push_edge(u, v, w);
            }
            let g = b.build();
            prop_assert_eq!(g.total_edge_weight(), expect);
        }
    }
}
