//! Structural graph statistics — used by the benchmark harness and the
//! examples to characterize instances the way Table I does (type
//! classification S/M rests on degree skew and locality).

use crate::{CsrGraph, Node};

/// Summary statistics of a graph.
#[derive(Clone, Debug)]
pub struct GraphStats {
    /// Node count.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Average degree.
    pub avg_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Degree skew `max/avg` — ≫ 1 indicates hubs (complex networks).
    pub degree_skew: f64,
    /// Fraction of nodes with degree ≤ 2.
    pub low_degree_fraction: f64,
    /// Sampled local clustering coefficient (community indicator).
    pub clustering_coefficient: f64,
}

impl GraphStats {
    /// Computes the statistics; the clustering coefficient is sampled on
    /// up to `samples` nodes (deterministic sample: evenly spaced IDs).
    pub fn compute(graph: &CsrGraph, samples: usize) -> Self {
        let n = graph.n();
        let avg = graph.avg_degree();
        let max = graph.max_degree();
        let low = if n == 0 {
            0.0
        } else {
            graph.nodes().filter(|&v| graph.degree(v) <= 2).count() as f64 / n as f64
        };
        Self {
            n,
            m: graph.m(),
            avg_degree: avg,
            max_degree: max,
            degree_skew: degree_skew(n, graph.num_arcs(), max),
            low_degree_fraction: low,
            clustering_coefficient: sampled_clustering_coefficient(graph, samples),
        }
    }

    /// Heuristic Table-I-style classification: heavy skew ⇒ social/web.
    pub fn looks_like_complex_network(&self) -> bool {
        skew_looks_like_complex_network(self.degree_skew)
    }
}

/// Degree skew `max / avg` of a graph with `n` nodes, `arcs` stored arcs
/// and largest degree `max_degree` (0 without arcs): what
/// [`GraphStats::compute`] reports, from the degree sequence alone.
pub fn degree_skew(n: usize, arcs: usize, max_degree: usize) -> f64 {
    let avg = if n == 0 { 0.0 } else { arcs as f64 / n as f64 };
    if avg > 0.0 {
        max_degree as f64 / avg
    } else {
        0.0
    }
}

/// [`GraphStats::looks_like_complex_network`] for a degree skew.
pub fn skew_looks_like_complex_network(skew: f64) -> bool {
    skew > 5.0
}

/// Degree histogram as `(degree, count)` pairs, ascending, skipping zero
/// counts.
pub fn degree_histogram(graph: &CsrGraph) -> Vec<(usize, usize)> {
    let mut counts = vec![0usize; graph.max_degree() + 1];
    for v in graph.nodes() {
        counts[graph.degree(v)] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .collect()
}

/// Local clustering coefficient averaged over an evenly spaced sample of
/// nodes with degree ≥ 2. Exact triangle counting per sampled node via
/// sorted-adjacency intersection: `O(samples · d_max log d_max)`.
pub fn sampled_clustering_coefficient(graph: &CsrGraph, samples: usize) -> f64 {
    let n = graph.n();
    if n == 0 || samples == 0 {
        return 0.0;
    }
    let step = (n / samples.min(n)).max(1);
    let mut total = 0.0;
    let mut counted = 0usize;
    for v in (0..n).step_by(step) {
        let v = v as Node;
        let d = graph.degree(v);
        if d < 2 {
            continue;
        }
        let nbrs = graph.neighbor_slice(v); // sorted by construction
        let mut triangles = 0usize;
        for &u in nbrs {
            // |N(u) ∩ N(v)| via merge (both sorted).
            let un = graph.neighbor_slice(u);
            let (mut i, mut j) = (0, 0);
            while i < un.len() && j < nbrs.len() {
                match un[i].cmp(&nbrs[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        triangles += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        // Each triangle at v counted twice (once per incident neighbour).
        total += triangles as f64 / (d * (d - 1)) as f64;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    #[test]
    fn triangle_has_cc_one() {
        let g = from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!((sampled_clustering_coefficient(&g, 10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_has_cc_zero() {
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(sampled_clustering_coefficient(&g, 10), 0.0);
    }

    #[test]
    fn histogram_partitions_nodes() {
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (3, 4)]);
        let h = degree_histogram(&g);
        let total: usize = h.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 5);
        // degrees: 3,1,1,2,1
        assert_eq!(h, vec![(1, 3), (2, 1), (3, 1)]);
    }

    #[test]
    fn skew_classifies_graph_types() {
        let social = pgp_gen_free_ba(2000);
        let s = GraphStats::compute(&social, 200);
        assert!(s.looks_like_complex_network(), "skew {}", s.degree_skew);

        // A grid is not complex.
        let mut b = crate::GraphBuilder::new(100);
        for y in 0..10u32 {
            for x in 0..10u32 {
                if x + 1 < 10 {
                    b.push_edge(y * 10 + x, y * 10 + x + 1, 1);
                }
                if y + 1 < 10 {
                    b.push_edge(y * 10 + x, (y + 1) * 10 + x, 1);
                }
            }
        }
        let grid = b.build();
        let gs = GraphStats::compute(&grid, 100);
        assert!(!gs.looks_like_complex_network(), "skew {}", gs.degree_skew);
    }

    /// A tiny BA-style generator local to the test (pgp-graph cannot
    /// depend on pgp-gen).
    fn pgp_gen_free_ba(n: usize) -> CsrGraph {
        let mut targets: Vec<Node> = vec![0, 1, 1, 0];
        let mut b = crate::GraphBuilder::new(n);
        b.push_edge(0, 1, 1);
        let mut state = 0x12345678u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for u in 2..n as Node {
            let t = targets[(rng() % targets.len() as u64) as usize];
            b.push_edge(u, t, 1);
            targets.push(u);
            targets.push(t);
        }
        b.build()
    }

    #[test]
    fn empty_graph_stats() {
        let s = GraphStats::compute(&CsrGraph::empty(), 10);
        assert_eq!(s.n, 0);
        assert_eq!(s.degree_skew, 0.0);
    }
}
