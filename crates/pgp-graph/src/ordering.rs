//! Node traversal orders for label propagation.
//!
//! The paper (Section III-A) found that visiting nodes in order of
//! *increasing degree* improves both quality and running time of the
//! size-constrained label propagation during coarsening, while random order
//! is used during uncoarsening/refinement.

use crate::{CsrGraph, Node};
use rand::seq::SliceRandom;
use rand::Rng;

/// A permutation of `0..n` in increasing-degree order. Ties are broken by
/// node ID, making the order deterministic. Bucket sort, `O(n + Δ)`.
pub fn degree_order(graph: &CsrGraph) -> Vec<Node> {
    let n = graph.n();
    if n == 0 {
        return Vec::new();
    }
    let max_deg = graph.max_degree();
    let mut buckets = vec![0usize; max_deg + 2];
    for v in graph.nodes() {
        buckets[graph.degree(v) + 1] += 1;
    }
    for d in 1..buckets.len() {
        buckets[d] += buckets[d - 1];
    }
    let mut order = vec![0 as Node; n];
    for v in graph.nodes() {
        let d = graph.degree(v);
        order[buckets[d]] = v;
        buckets[d] += 1;
    }
    order
}

/// A uniformly random permutation of `0..n`.
pub fn random_order(n: usize, rng: &mut impl Rng) -> Vec<Node> {
    let mut order: Vec<Node> = (0..n as Node).collect();
    order.shuffle(rng);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn is_permutation(order: &[Node], n: usize) -> bool {
        let mut seen = vec![false; n];
        for &v in order {
            if seen[v as usize] {
                return false;
            }
            seen[v as usize] = true;
        }
        order.len() == n
    }

    #[test]
    fn degree_order_is_sorted_by_degree() {
        // Star + pendant chain: degrees vary.
        let g = from_edges(6, &[(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)]);
        let order = degree_order(&g);
        assert!(is_permutation(&order, 6));
        for w in order.windows(2) {
            assert!(g.degree(w[0]) <= g.degree(w[1]));
        }
        // Node 5 (degree 1) must come before node 0 (degree 3).
        let pos = |v: Node| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(5) < pos(0));
    }

    #[test]
    fn degree_order_deterministic_tiebreak() {
        let g = from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(degree_order(&g), vec![0, 1, 2, 3]);
    }

    #[test]
    fn random_order_is_permutation_and_seed_stable() {
        let mut rng = SmallRng::seed_from_u64(42);
        let a = random_order(100, &mut rng);
        assert!(is_permutation(&a, 100));
        let mut rng2 = SmallRng::seed_from_u64(42);
        let b = random_order(100, &mut rng2);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph_orders() {
        let g = crate::CsrGraph::empty();
        assert!(degree_order(&g).is_empty());
    }
}
