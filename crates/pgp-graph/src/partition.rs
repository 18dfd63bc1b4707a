//! Partitions of a graph's node set into `k` blocks, with balance
//! accounting.

use crate::{lmax, CsrGraph, Node, Weight};

/// A block identifier, dense in `0..k`.
pub type BlockId = u32;

/// Errors reported by [`Partition::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// A node is assigned to a block `>= k`.
    BlockOutOfRange {
        /// The offending node.
        node: Node,
        /// Its (out-of-range) block ID.
        block: BlockId,
    },
    /// The assignment vector length differs from the graph's node count.
    LengthMismatch {
        /// The graph's node count.
        expected: usize,
        /// The assignment vector's length.
        got: usize,
    },
    /// A block exceeds `Lmax` for the given `eps`.
    Overloaded {
        /// The overloaded block.
        block: BlockId,
        /// Its total node weight.
        weight: Weight,
        /// The balance ceiling it exceeds.
        lmax: Weight,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::BlockOutOfRange { node, block } => {
                write!(f, "node {node} assigned to out-of-range block {block}")
            }
            PartitionError::LengthMismatch { expected, got } => {
                write!(f, "assignment length {got}, expected {expected}")
            }
            PartitionError::Overloaded {
                block,
                weight,
                lmax,
            } => write!(f, "block {block} has weight {weight} > Lmax {lmax}"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A `k`-way partition: one [`BlockId`] per node plus cached block weights.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    k: usize,
    assignment: Vec<BlockId>,
    block_weights: Vec<Weight>,
}

impl Partition {
    /// Builds a partition from an assignment vector, computing block weights
    /// from `graph`.
    ///
    /// # Panics
    /// Panics if lengths mismatch or a block ID is `>= k`.
    pub fn from_assignment(graph: &CsrGraph, k: usize, assignment: Vec<BlockId>) -> Self {
        assert_eq!(assignment.len(), graph.n(), "assignment length mismatch");
        let mut block_weights = vec![0 as Weight; k];
        for v in graph.nodes() {
            let b = assignment[v as usize];
            assert!((b as usize) < k, "block {b} out of range (k = {k})");
            block_weights[b as usize] += graph.node_weight(v);
        }
        Self {
            k,
            assignment,
            block_weights,
        }
    }

    /// Builds a partition from an assignment vector and its block weights,
    /// computed by the caller — summed over PEs by a distributed run, which
    /// holds no global graph to compute them from.
    ///
    /// # Panics
    /// Panics if `block_weights` does not have `k` entries.
    pub fn from_block_weights(
        k: usize,
        assignment: Vec<BlockId>,
        block_weights: Vec<Weight>,
    ) -> Self {
        assert_eq!(block_weights.len(), k, "one weight per block");
        Self {
            k,
            assignment,
            block_weights,
        }
    }

    /// The all-in-one-block partition (k may still be > 1; blocks other than
    /// 0 are empty).
    pub fn trivial(graph: &CsrGraph, k: usize) -> Self {
        Self::from_assignment(graph, k, vec![0; graph.n()])
    }

    /// Number of blocks `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Block of node `v`.
    #[inline]
    pub fn block(&self, v: Node) -> BlockId {
        self.assignment[v as usize]
    }

    /// The raw assignment slice.
    #[inline]
    pub fn assignment(&self) -> &[BlockId] {
        &self.assignment
    }

    /// Consumes the partition, returning the assignment vector.
    pub fn into_assignment(self) -> Vec<BlockId> {
        self.assignment
    }

    /// Weight of block `b`.
    #[inline]
    pub fn block_weight(&self, b: BlockId) -> Weight {
        self.block_weights[b as usize]
    }

    /// All block weights.
    #[inline]
    pub fn block_weights(&self) -> &[Weight] {
        &self.block_weights
    }

    /// The heaviest block's weight.
    pub fn max_block_weight(&self) -> Weight {
        self.block_weights.iter().copied().max().unwrap_or(0)
    }

    /// Imbalance `max_b c(V_b) / ⌈c(V)/k⌉ − 1` (0 means perfectly
    /// balanced), as [`crate::imbalance`] defines it.
    pub fn imbalance(&self, graph: &CsrGraph) -> f64 {
        self.imbalance_of(graph.total_node_weight())
    }

    /// [`Partition::imbalance`] of a graph whose node weights sum to
    /// `total`.
    pub fn imbalance_of(&self, total: Weight) -> f64 {
        crate::imbalance(self.max_block_weight(), total, self.k)
    }

    /// True iff every block obeys `Lmax(eps)`.
    pub fn is_balanced(&self, graph: &CsrGraph, eps: f64) -> bool {
        let l = lmax(graph.total_node_weight(), self.k, eps);
        self.block_weights.iter().all(|&w| w <= l)
    }

    /// Total weight of cut edges (each counted once).
    pub fn edge_cut(&self, graph: &CsrGraph) -> Weight {
        let mut cut = 0;
        for u in graph.nodes() {
            let bu = self.assignment[u as usize];
            for (v, w) in graph.neighbors_weighted(u) {
                if bu != self.assignment[v as usize] {
                    cut += w;
                }
            }
        }
        cut / 2
    }

    /// Number of non-empty blocks.
    pub fn nonempty_blocks(&self) -> usize {
        self.block_weights.iter().filter(|&&w| w > 0).count()
    }

    /// Full validation against a graph and balance constraint.
    pub fn validate(&self, graph: &CsrGraph, eps: f64) -> Result<(), PartitionError> {
        if self.assignment.len() != graph.n() {
            return Err(PartitionError::LengthMismatch {
                expected: graph.n(),
                got: self.assignment.len(),
            });
        }
        for v in graph.nodes() {
            let b = self.assignment[v as usize];
            if b as usize >= self.k {
                return Err(PartitionError::BlockOutOfRange { node: v, block: b });
            }
        }
        self.check_balance(graph.total_node_weight(), eps)
    }

    /// The balance half of [`Partition::validate`]: every block within
    /// `Lmax(eps)` of a graph whose node weights sum to `total`.
    pub fn check_balance(&self, total: Weight, eps: f64) -> Result<(), PartitionError> {
        let l = lmax(total, self.k, eps);
        for (b, &w) in self.block_weights.iter().enumerate() {
            if w > l {
                return Err(PartitionError::Overloaded {
                    block: b as BlockId,
                    weight: w,
                    lmax: l,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    fn path4() -> CsrGraph {
        from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn cut_and_weights() {
        let g = path4();
        let p = Partition::from_assignment(&g, 2, vec![0, 0, 1, 1]);
        assert_eq!(p.edge_cut(&g), 1);
        assert_eq!(p.block_weight(0), 2);
        assert_eq!(p.block_weight(1), 2);
        assert!(p.is_balanced(&g, 0.0));
        assert_eq!(p.imbalance(&g), 0.0);
        p.validate(&g, 0.0).unwrap();
    }

    #[test]
    fn unbalanced_partition_detected() {
        let g = path4();
        let p = Partition::from_assignment(&g, 2, vec![0, 0, 0, 1]);
        assert!(!p.is_balanced(&g, 0.0));
        assert!(matches!(
            p.validate(&g, 0.0),
            Err(PartitionError::Overloaded { block: 0, .. })
        ));
        // With 50 % slack it passes.
        assert!(p.is_balanced(&g, 0.5));
    }

    #[test]
    fn trivial_partition() {
        let g = path4();
        let p = Partition::trivial(&g, 3);
        assert_eq!(p.edge_cut(&g), 0);
        assert_eq!(p.nonempty_blocks(), 1);
        assert!(!p.is_balanced(&g, 0.03)); // all weight in one of 3 blocks
    }

    #[test]
    fn weighted_nodes_affect_balance() {
        let g = crate::GraphBuilder::new(2)
            .add_edge(0, 1)
            .node_weights(vec![10, 1])
            .build();
        let p = Partition::from_assignment(&g, 2, vec![0, 1]);
        // ⌈11 / 2⌉ = 6, max = 10 -> imbalance ~ 0.667
        assert!((p.imbalance(&g) - (10.0 / 6.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn a_balanced_partition_reports_at_most_eps() {
        // 601 unit nodes, k = 4: Lmax(0.03) = ⌊1.03 · ⌈601 / 4⌉⌋ = 155.
        let g = crate::GraphBuilder::new(601).build();
        let assignment = (0..601u32)
            .map(|v| match v {
                0..155 => 0,
                155..305 => 1,
                305..453 => 2,
                _ => 3,
            })
            .collect();
        let p = Partition::from_assignment(&g, 4, assignment);
        assert_eq!(p.block_weights(), &[155, 150, 148, 148]);
        assert!(p.is_balanced(&g, 0.03));
        assert!(p.imbalance(&g) <= 0.03, "imbalance {}", p.imbalance(&g));
    }
}
