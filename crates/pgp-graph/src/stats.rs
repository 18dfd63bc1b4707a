//! Degree skew, the statistic that classifies an input the way Table I
//! does (type S/M). The CLI's `class=auto` picks the graph class from it,
//! and a PE's `DistGraph` rows pick their storage order from the same test
//! on its own rows.

/// Degree skew `max / avg` of a graph with `n` nodes, `arcs` stored arcs
/// and largest degree `max_degree` (0 without arcs), from the degree
/// sequence alone.
pub fn degree_skew(n: usize, arcs: usize, max_degree: usize) -> f64 {
    let avg = if n == 0 { 0.0 } else { arcs as f64 / n as f64 };
    if avg > 0.0 {
        max_degree as f64 / avg
    } else {
        0.0
    }
}

/// Table-I-style classification of a degree skew: heavy skew (hubs) means a
/// social or web graph.
pub fn skew_looks_like_complex_network(skew: f64) -> bool {
    skew > 5.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrGraph, Node};

    /// The skew of a whole graph.
    fn skew(graph: &CsrGraph) -> f64 {
        degree_skew(graph.n(), graph.num_arcs(), graph.max_degree())
    }

    #[test]
    fn skew_classifies_graph_types() {
        let social = pgp_gen_free_ba(2000);
        let s = skew(&social);
        assert!(skew_looks_like_complex_network(s), "skew {s}");

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
        let gs = skew(&b.build());
        assert!(!skew_looks_like_complex_network(gs), "skew {gs}");
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
    fn empty_graph_has_no_skew() {
        assert_eq!(skew(&CsrGraph::empty()), 0.0);
    }
}
