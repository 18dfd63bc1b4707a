//! Static graph data structures and partitioning primitives.
//!
//! This crate is the shared-memory substrate of the ParHIP reproduction:
//! a compact CSR ([`CsrGraph`]) with node and edge weights, a builder that
//! symmetrizes/deduplicates arbitrary edge lists, METIS-format I/O,
//! the [`Partition`] type with balance accounting and edge cut, sequential
//! cluster-contraction ([`contract_clustering`]), induced subgraphs, node
//! orderings, the degree-skew test that classifies an input, and the
//! metrics examples and tests measure with (communication volume,
//! modularity, coverage).
//!
//! Conventions used throughout the workspace:
//!
//! * Graphs are **undirected**; every edge `{u, v}` is stored twice, once in
//!   each endpoint's adjacency list. Self loops are rejected by the builder.
//! * Node IDs are dense `0..n` [`Node`] values (`u32`); weights are `u64`.
//! * A *clustering* is, like a partition, a `Vec<Node>` of labels — but its
//!   labels may be arbitrary values in `0..n` rather than dense `0..k`.

pub mod builder;
pub mod contract;
pub mod csr;
pub mod dsu;
pub mod ids;
pub mod io;
pub mod metrics;
pub mod ordering;
pub mod partition;
pub mod stats;
pub mod subgraph;

pub use builder::GraphBuilder;
pub use contract::{contract_clustering, project_partition, Contraction};
pub use csr::CsrGraph;
pub use partition::{BlockId, Partition, PartitionError};

/// A node identifier. Dense, `0..n`.
pub type Node = u32;
/// A node or edge weight (non-negative; sums must not overflow `u64`).
pub type Weight = u64;

/// The sentinel "no node" value.
pub const INVALID_NODE: Node = u32::MAX;

/// Computes the maximum admissible block weight
/// `Lmax = (1 + eps) * ceil(total / k)` used by the balance constraint.
///
/// The paper (Section II-A) defines `Lmax := (1 + ε)⌈c(V)/k⌉`. `eps` is given
/// as a fraction (`0.03` for the paper's default 3 %).
pub fn lmax(total_weight: Weight, k: usize, eps: f64) -> Weight {
    assert!(k > 0, "k must be positive");
    assert!(eps >= 0.0, "imbalance must be non-negative");
    let avg = total_weight.div_ceil(k as Weight);
    ((1.0 + eps) * avg as f64).floor() as Weight
}

/// The imbalance `max_b c(V_b) / ⌈c(V)/k⌉ − 1` of a `k`-way partition whose
/// heaviest block weighs `max_block_weight` (0 means perfectly balanced;
/// 0 for an empty graph). It divides by the same `⌈c(V)/k⌉` as [`lmax`], so
/// a partition within `Lmax(ε)` never reports more than ε (up to float
/// rounding). Every imbalance the program prints or records is this one.
pub fn imbalance(max_block_weight: Weight, total_weight: Weight, k: usize) -> f64 {
    assert!(k > 0, "k must be positive");
    if total_weight == 0 {
        return 0.0;
    }
    let avg = total_weight.div_ceil(k as Weight);
    max_block_weight as f64 / avg as f64 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lmax_matches_paper_definition() {
        // total 100, k = 4 -> ceil(25) = 25, * 1.03 = 25.75 -> 25
        assert_eq!(lmax(100, 4, 0.03), 25);
        // total 101, k = 4 -> ceil(25.25) = 26, * 1.03 = 26.78 -> 26
        assert_eq!(lmax(101, 4, 0.03), 26);
        // 10 % slack
        assert_eq!(lmax(100, 4, 0.10), 27);
        // eps = 0 keeps the ceiling average
        assert_eq!(lmax(7, 2, 0.0), 4);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn lmax_rejects_zero_k() {
        lmax(10, 0, 0.0);
    }
}
