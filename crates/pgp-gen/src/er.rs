//! Erdős–Rényi random graphs.

use pgp_graph::{CsrGraph, GraphBuilder, Node};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `G(n, m)`: exactly `m` distinct random edges (after deduplication the
/// count can be marginally lower on dense inputs; resampling keeps it
/// exact for `m ≤ n(n−1)/4`).
pub fn gnm(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(n >= 2 || m == 0, "need at least two nodes for edges");
    let max_m = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(m <= max_m, "m = {m} exceeds the {max_m} possible edges");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    let mut b = GraphBuilder::with_capacity(n, m);
    while seen.len() < m {
        let u = rng.gen_range(0..n as Node);
        let v = rng.gen_range(0..n as Node);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            b.push_edge(u, v, 1);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_exact_edge_count() {
        let g = gnm(50, 200, 1);
        assert_eq!(g.n(), 50);
        assert_eq!(g.m(), 200);
        g.validate().unwrap();
    }

    #[test]
    fn gnm_deterministic() {
        assert_eq!(gnm(30, 60, 9), gnm(30, 60, 9));
        assert_ne!(gnm(30, 60, 9), gnm(30, 60, 10));
    }

    #[test]
    fn gnm_complete_graph() {
        let g = gnm(5, 10, 3);
        assert_eq!(g.m(), 10);
        assert_eq!(g.max_degree(), 4);
    }
}
