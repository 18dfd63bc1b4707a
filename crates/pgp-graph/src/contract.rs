//! Sequential contraction of a clustering (Section III, Figure 3).
//!
//! Each cluster becomes one coarse node whose weight is the sum of its
//! members' weights; coarse edges aggregate the inter-cluster edge weights.
//! By construction, a partition of the coarse graph corresponds to a
//! partition of the fine graph with the *same* cut and balance — a property
//! the proptests below check explicitly.

use crate::{BlockId, CsrGraph, Node, Partition, Weight};

/// Result of contracting a clustering: the coarse graph plus the
/// fine-node → coarse-node mapping.
#[derive(Clone, Debug)]
pub struct Contraction {
    /// The contracted graph.
    pub coarse: CsrGraph,
    /// `mapping[v] = coarse node of fine node v` (dense `0..coarse.n()`).
    pub mapping: Vec<Node>,
}

/// Contracts `graph` according to `clustering` (arbitrary labels in
/// `0..n`). Runs in `O(n + m + Σ d' log d')`, `d'` the coarse degrees.
pub fn contract_clustering(graph: &CsrGraph, clustering: &[Node]) -> Contraction {
    assert_eq!(clustering.len(), graph.n(), "clustering length mismatch");
    let n = graph.n();

    // Renumber cluster labels to a dense 0..n' range, preserving label order
    // (deterministic). This mirrors the `q` mapping of Section IV-C.
    let mut mapping = vec![0 as Node; n];
    let n_coarse = dense_renumber(clustering, &mut mapping);

    // The members of every coarse node, by a counting sort on `mapping`.
    let mut first = vec![0usize; n_coarse + 1];
    for &c in &mapping {
        first[c as usize + 1] += 1;
    }
    for c in 0..n_coarse {
        first[c + 1] += first[c];
    }
    let mut members = vec![0 as Node; n];
    let mut fill = first.clone();
    for (v, &c) in mapping.iter().enumerate() {
        members[fill[c as usize]] = v as Node;
        fill[c as usize] += 1;
    }

    // One coarse row at a time: the members' arcs to other coarse nodes go
    // into a dense accumulator, the coarse neighbours in first-touch order
    // (a flag per coarse node: a zero-weight arc still makes an edge), and
    // the short neighbour list is sorted so rows come out by coarse ID.
    let mut node_weight = vec![0 as Weight; n_coarse];
    let mut acc = vec![0 as Weight; n_coarse];
    let mut seen = vec![false; n_coarse];
    let mut touched: Vec<Node> = Vec::new();
    let mut xadj = Vec::with_capacity(n_coarse + 1);
    xadj.push(0u64);
    let mut adjncy = Vec::new();
    let mut adjwgt = Vec::new();
    for cu in 0..n_coarse {
        for &u in &members[first[cu]..first[cu + 1]] {
            node_weight[cu] += graph.node_weight(u);
            for (v, w) in graph.neighbors_weighted(u) {
                let cv = mapping[v as usize];
                if cv as usize != cu {
                    if !seen[cv as usize] {
                        seen[cv as usize] = true;
                        touched.push(cv);
                    }
                    acc[cv as usize] += w;
                }
            }
        }
        touched.sort_unstable();
        for cv in touched.drain(..) {
            seen[cv as usize] = false;
            adjncy.push(cv);
            adjwgt.push(std::mem::take(&mut acc[cv as usize]));
        }
        xadj.push(adjncy.len() as u64);
    }
    let coarse = CsrGraph::from_parts(xadj, adjncy, adjwgt, node_weight);
    Contraction { coarse, mapping }
}

/// Renumbers arbitrary labels into dense `0..n'`, writing per-node coarse
/// IDs into `out`. Returns `n'`. Order-preserving in label value.
fn dense_renumber(labels: &[Node], out: &mut [Node]) -> usize {
    let n = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
    let mut present = vec![false; n];
    for &l in labels {
        present[l as usize] = true;
    }
    let mut rank = vec![0 as Node; n];
    let mut next = 0 as Node;
    for (i, &p) in present.iter().enumerate() {
        if p {
            rank[i] = next;
            next += 1;
        }
    }
    for (v, &l) in labels.iter().enumerate() {
        out[v] = rank[l as usize];
    }
    next as usize
}

/// Projects a partition of the coarse graph back to the fine graph: a fine
/// node inherits the block of its coarse representative.
pub fn project_partition(
    fine: &CsrGraph,
    mapping: &[Node],
    coarse_partition: &Partition,
) -> Partition {
    assert_eq!(mapping.len(), fine.n(), "mapping length mismatch");
    let assignment: Vec<BlockId> = mapping.iter().map(|&c| coarse_partition.block(c)).collect();
    Partition::from_assignment(fine, coarse_partition.k(), assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    /// Two triangles joined by a bridge.
    fn two_triangles() -> CsrGraph {
        from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    #[test]
    fn contract_two_clusters() {
        let g = two_triangles();
        let clustering = vec![0, 0, 0, 3, 3, 3];
        let c = contract_clustering(&g, &clustering);
        assert_eq!(c.coarse.n(), 2);
        assert_eq!(c.coarse.m(), 1);
        assert_eq!(c.coarse.node_weight(0), 3);
        assert_eq!(c.coarse.node_weight(1), 3);
        // The single coarse edge carries the bridge's weight.
        assert_eq!(c.coarse.total_edge_weight(), 1);
        c.coarse.validate().unwrap();
    }

    #[test]
    fn identity_clustering_is_isomorphic() {
        let g = two_triangles();
        let clustering: Vec<Node> = g.nodes().collect();
        let c = contract_clustering(&g, &clustering);
        assert_eq!(c.coarse.n(), g.n());
        assert_eq!(c.coarse.m(), g.m());
        assert_eq!(c.coarse.total_edge_weight(), g.total_edge_weight());
    }

    #[test]
    fn parallel_coarse_edges_merge_weights() {
        // Square 0-1-2-3; cluster {0,1} and {2,3}: edges {1,2} and {0,3}
        // merge into one coarse edge of weight 2.
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let c = contract_clustering(&g, &[7, 7, 2, 2]);
        assert_eq!(c.coarse.n(), 2);
        assert_eq!(c.coarse.m(), 1);
        assert_eq!(c.coarse.total_edge_weight(), 2);
    }

    #[test]
    fn projection_preserves_cut_and_balance() {
        let g = two_triangles();
        let c = contract_clustering(&g, &[0, 0, 0, 3, 3, 3]);
        let coarse_p = Partition::from_assignment(&c.coarse, 2, vec![0, 1]);
        let fine_p = project_partition(&g, &c.mapping, &coarse_p);
        assert_eq!(fine_p.edge_cut(&g), coarse_p.edge_cut(&c.coarse));
        assert_eq!(fine_p.block_weight(0), coarse_p.block_weight(0));
        assert_eq!(fine_p.block_weight(1), coarse_p.block_weight(1));
    }

    #[test]
    fn all_in_one_cluster_gives_singleton() {
        let g = two_triangles();
        let c = contract_clustering(&g, &[5; 6]);
        assert_eq!(c.coarse.n(), 1);
        assert_eq!(c.coarse.m(), 0);
        assert_eq!(c.coarse.node_weight(0), 6);
    }

    #[test]
    fn mapping_is_dense_and_order_preserving() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let c = contract_clustering(&g, &[2, 0, 2]);
        // label 0 -> coarse 0, label 2 -> coarse 1
        assert_eq!(c.mapping, vec![1, 0, 1]);
    }
}

/// The contraction before the counting sort: every inter-cluster arc
/// collected, sorted and merged. Kept as the oracle the differential
/// proptest compares [`contract_clustering`] against.
#[cfg(test)]
fn reference_contract(graph: &CsrGraph, clustering: &[Node]) -> Contraction {
    let n = graph.n();
    let mut mapping = vec![0 as Node; n];
    let n_coarse = dense_renumber(clustering, &mut mapping);
    let mut node_weight = vec![0 as Weight; n_coarse];
    for v in 0..n {
        node_weight[mapping[v] as usize] += graph.node_weight(v as Node);
    }
    let mut arcs: Vec<(Node, Node, Weight)> = Vec::new();
    for u in graph.nodes() {
        let cu = mapping[u as usize];
        for (v, w) in graph.neighbors_weighted(u) {
            let cv = mapping[v as usize];
            if cu != cv {
                arcs.push((cu, cv, w));
            }
        }
    }
    arcs.sort_unstable();
    let mut xadj = vec![0u64; n_coarse + 1];
    let mut adjncy = Vec::new();
    let mut adjwgt = Vec::new();
    let mut i = 0;
    while i < arcs.len() {
        let (cu, cv, mut w) = arcs[i];
        i += 1;
        while i < arcs.len() && arcs[i].0 == cu && arcs[i].1 == cv {
            w += arcs[i].2;
            i += 1;
        }
        adjncy.push(cv);
        adjwgt.push(w);
        xadj[cu as usize + 1] += 1;
    }
    for i in 0..n_coarse {
        xadj[i + 1] += xadj[i];
    }
    let coarse = CsrGraph::from_parts(xadj, adjncy, adjwgt, node_weight);
    Contraction { coarse, mapping }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::GraphBuilder;
    use proptest::prelude::*;

    fn arb_graph_and_clustering() -> impl Strategy<Value = (CsrGraph, Vec<Node>)> {
        (2usize..24)
            .prop_flat_map(|n| {
                let edges =
                    proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 1u64..4), 0..80);
                let clusters = proptest::collection::vec(0u32..n as u32, n);
                (Just(n), edges, clusters)
            })
            .prop_map(|(n, edges, clusters)| {
                let mut b = GraphBuilder::new(n);
                for (u, v, w) in edges {
                    b.push_edge(u, v, w);
                }
                (b.build(), clusters)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The counting-sort contraction builds the graph and mapping the
        /// sort-and-merge one builds: arbitrary labels (gaps, one cluster
        /// holding everything when `one_cluster` is set), zero-weight arcs,
        /// isolated nodes, weighted nodes.
        #[test]
        fn contraction_matches_the_reference(
            n in 1usize..30,
            edges in proptest::collection::vec((0u32..36, 0u32..36, 0u64..4), 0..100),
            node_weights in proptest::collection::vec(1u64..5, 30),
            labels in proptest::collection::vec(0u32..30, 30),
            one_cluster in 0u32..4,
        ) {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                if (u as usize) < n && (v as usize) < n {
                    b.push_edge(u, v, w);
                }
            }
            let g = b.node_weights(node_weights[..n].to_vec()).build();
            let clustering: Vec<Node> = if one_cluster == 0 {
                vec![labels[0] % n as Node; n]
            } else {
                labels[..n].iter().map(|&l| l % n as Node).collect()
            };
            let got = contract_clustering(&g, &clustering);
            let want = reference_contract(&g, &clustering);
            prop_assert_eq!(&got.mapping, &want.mapping);
            prop_assert_eq!(&got.coarse, &want.coarse);
        }
    }

    proptest! {
        /// Cut preservation: for any clustering and any 2-coloring of the
        /// clusters, cut(coarse) == cut(fine under the induced coloring).
        #[test]
        fn contraction_preserves_cut((g, clustering) in arb_graph_and_clustering(),
                                     colors in proptest::collection::vec(0u32..2, 24)) {
            let c = contract_clustering(&g, &clustering);
            let coarse_assign: Vec<BlockId> =
                (0..c.coarse.n()).map(|i| colors[i % colors.len()]).collect();
            let cp = Partition::from_assignment(&c.coarse, 2, coarse_assign);
            let fp = project_partition(&g, &c.mapping, &cp);
            prop_assert_eq!(fp.edge_cut(&g), cp.edge_cut(&c.coarse));
            prop_assert_eq!(fp.block_weight(0), cp.block_weight(0));
            prop_assert_eq!(fp.block_weight(1), cp.block_weight(1));
        }

        /// Node weight is conserved and the coarse graph is valid.
        #[test]
        fn contraction_conserves_node_weight((g, clustering) in arb_graph_and_clustering()) {
            let c = contract_clustering(&g, &clustering);
            prop_assert_eq!(c.coarse.total_node_weight(), g.total_node_weight());
            prop_assert!(c.coarse.validate().is_ok());
            // Intra-cluster weight disappears, inter-cluster weight survives.
            prop_assert!(c.coarse.total_edge_weight() <= g.total_edge_weight());
        }
    }
}
