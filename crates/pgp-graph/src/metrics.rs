//! Partition and clustering quality metrics beside the paper's objective
//! (the edge cut is [`Partition::edge_cut`]): the communication volume its
//! conclusion mentions, and modularity and coverage, which the generator
//! and SCLP tests use as oracles.

use crate::{CsrGraph, Node, Partition};

/// Communication volume of a block: for each node in the block, the number
/// of *other* blocks containing at least one of its neighbors, summed.
/// Returns `(total, max_per_block)`.
pub fn communication_volume(graph: &CsrGraph, partition: &Partition) -> (u64, u64) {
    let k = partition.k();
    let mut per_block = vec![0u64; k];
    let mut seen: Vec<u32> = vec![u32::MAX; k];
    for v in graph.nodes() {
        let bv = partition.block(v);
        let mut distinct = 0u64;
        for u in graph.neighbors(v) {
            let bu = partition.block(u);
            if bu != bv && seen[bu as usize] != v {
                seen[bu as usize] = v;
                distinct += 1;
            }
        }
        per_block[bv as usize] += distinct;
    }
    let total = per_block.iter().sum();
    let max = per_block.iter().copied().max().unwrap_or(0);
    (total, max)
}

/// Newman modularity of a clustering (labels need not be dense).
/// `Q = Σ_c [ w_in(c)/W − (deg(c)/2W)² ]` with `W = ω(E)`.
pub fn modularity(graph: &CsrGraph, clustering: &[Node]) -> f64 {
    assert_eq!(clustering.len(), graph.n());
    let w_total = graph.total_edge_weight() as f64;
    if w_total == 0.0 {
        return 0.0;
    }
    let n = graph.n();
    let mut internal = vec![0u64; n];
    let mut degree = vec![0u64; n];
    for u in graph.nodes() {
        let cu = clustering[u as usize] as usize;
        for (v, w) in graph.neighbors_weighted(u) {
            degree[cu] += w;
            if clustering[v as usize] as usize == cu {
                internal[cu] += w;
            }
        }
    }
    let mut q = 0.0;
    for c in 0..n {
        if degree[c] == 0 {
            continue;
        }
        // internal counted both directions -> /2; w_in/W − (deg/2W)^2
        let win = internal[c] as f64 / 2.0;
        let dc = degree[c] as f64;
        q += win / w_total - (dc / (2.0 * w_total)).powi(2);
    }
    q
}

/// Fraction of edges that are intra-cluster (coverage).
pub fn coverage(graph: &CsrGraph, clustering: &[Node]) -> f64 {
    let w_total = graph.total_edge_weight();
    if w_total == 0 {
        return 1.0;
    }
    let mut intra = 0u64;
    for (u, v, w) in graph.edges() {
        if clustering[u as usize] == clustering[v as usize] {
            intra += w;
        }
    }
    intra as f64 / w_total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    fn two_triangles() -> CsrGraph {
        from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    #[test]
    fn comm_volume_path() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = Partition::from_assignment(&g, 2, vec![0, 0, 1, 1]);
        // node 1 sees block 1 once; node 2 sees block 0 once.
        let (total, max) = communication_volume(&g, &p);
        assert_eq!(total, 2);
        assert_eq!(max, 1);
    }

    #[test]
    fn comm_volume_counts_distinct_blocks_once() {
        // Star center adjacent to 3 nodes in the same other block: volume 1.
        let g = from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let p = Partition::from_assignment(&g, 2, vec![0, 1, 1, 1]);
        let (total, _) = communication_volume(&g, &p);
        // center contributes 1; each leaf contributes 1 -> total 4
        assert_eq!(total, 4);
    }

    #[test]
    fn modularity_of_good_clustering_is_positive() {
        let g = two_triangles();
        let good = modularity(&g, &[0, 0, 0, 1, 1, 1]);
        let singletons: Vec<Node> = g.nodes().collect();
        let bad = modularity(&g, &singletons);
        assert!(
            good > 0.3,
            "good clustering should have high modularity, got {good}"
        );
        assert!(bad < good);
    }

    #[test]
    fn modularity_of_single_cluster_is_zero() {
        let g = two_triangles();
        let q = modularity(&g, &[0; 6]);
        assert!(
            q.abs() < 1e-12,
            "single cluster modularity must be 0, got {q}"
        );
    }

    #[test]
    fn coverage_bounds() {
        let g = two_triangles();
        assert_eq!(coverage(&g, &[0; 6]), 1.0);
        let c = coverage(&g, &[0, 0, 0, 1, 1, 1]);
        assert!((c - 6.0 / 7.0).abs() < 1e-12);
    }
}
