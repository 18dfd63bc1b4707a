//! Induced subgraph extraction — used by recursive bisection, which
//! partitions each side's induced subgraph on its own.

use crate::{CsrGraph, Node};

/// A subgraph induced by a node subset, with the mapping back to the parent
/// graph.
#[derive(Clone, Debug)]
pub struct Subgraph {
    /// The induced subgraph (dense node IDs `0..sub.n()`).
    pub graph: CsrGraph,
    /// `to_parent[local] = parent node`.
    pub to_parent: Vec<Node>,
}

/// Extracts the subgraph induced by `nodes` (must be distinct; order defines
/// the local IDs).
pub fn induced_by_nodes(graph: &CsrGraph, nodes: &[Node]) -> Subgraph {
    let mut local_of = vec![crate::INVALID_NODE; graph.n()];
    for (i, &v) in nodes.iter().enumerate() {
        debug_assert_eq!(local_of[v as usize], crate::INVALID_NODE, "duplicate node");
        local_of[v as usize] = i as Node;
    }
    let mut b = crate::GraphBuilder::new(nodes.len());
    let mut weights = Vec::with_capacity(nodes.len());
    for (i, &v) in nodes.iter().enumerate() {
        weights.push(graph.node_weight(v));
        for (u, w) in graph.neighbors_weighted(v) {
            let lu = local_of[u as usize];
            if lu != crate::INVALID_NODE && (i as Node) < lu {
                b.push_edge(i as Node, lu, w);
            }
        }
    }
    Subgraph {
        graph: b.node_weights(weights).build(),
        to_parent: nodes.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    #[test]
    fn induced_block_subgraph() {
        // Two triangles with a bridge; block 0 = {0,1,2}.
        let g = from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let s = induced_by_nodes(&g, &[0, 1, 2]);
        assert_eq!(s.graph.n(), 3);
        assert_eq!(s.graph.m(), 3); // the triangle, bridge excluded
        assert_eq!(s.to_parent, vec![0, 1, 2]);
        s.graph.validate().unwrap();
    }

    #[test]
    fn induced_preserves_node_weights() {
        let g = crate::GraphBuilder::new(4)
            .add_edge(0, 1)
            .add_edge(2, 3)
            .node_weights(vec![1, 2, 3, 4])
            .build();
        let s = induced_by_nodes(&g, &[2, 3]);
        assert_eq!(s.graph.node_weight(0), 3);
        assert_eq!(s.graph.node_weight(1), 4);
        assert_eq!(s.graph.m(), 1);
    }

    #[test]
    fn empty_selection() {
        let g = from_edges(3, &[(0, 1)]);
        let s = induced_by_nodes(&g, &[]);
        assert_eq!(s.graph.n(), 0);
        assert_eq!(s.graph.m(), 0);
    }

    #[test]
    fn induced_edge_weights_survive() {
        let g = crate::GraphBuilder::new(3)
            .add_weighted_edge(0, 1, 7)
            .add_weighted_edge(1, 2, 9)
            .build();
        let s = induced_by_nodes(&g, &[0, 1]);
        assert_eq!(s.graph.total_edge_weight(), 7);
    }
}
