//! Compressed sparse row (CSR) graph storage.
//!
//! The layout mirrors the adjacency-array representation described in
//! Section IV-A of the paper: one array of head pointers (`xadj`) and one
//! flat edge array (`adjncy`, `adjwgt`). Undirected edges are stored twice.
//!
//! Unit arc weights are not stored per arc: when every arc weighs 1,
//! `adjwgt` holds one run of ones as long as the longest row and every row
//! reads its weights from the start of it (`adjwgt_mask == 0`). That is the
//! canonical form — the constructors drop an all-ones vector — so two equal
//! graphs always compare equal.
//! [`CsrGraph::neighbors_weighted`] is the one reader that knows, and both
//! forms iterate as the same slice zip at the same cost per arc.

use crate::{Node, Weight};
use std::borrow::Cow;

/// An immutable undirected graph in CSR form with node and edge weights.
///
/// Invariants (checked by [`CsrGraph::validate`] and upheld by
/// [`crate::GraphBuilder`]):
///
/// * `xadj.len() == n + 1`, `xadj[0] == 0`, `xadj` is non-decreasing and
///   `xadj[n] == adjncy.len() == m_directed`.
/// * Either `adjwgt_mask == usize::MAX` and `adjwgt` holds one weight per
///   arc, not all of them 1; or `adjwgt_mask == 0`, every arc weighs 1 and
///   `adjwgt` holds `max_degree` ones. The weights of the row that starts
///   at arc `lo` start at `adjwgt[lo & adjwgt_mask]`.
/// * No self loops; every arc `(u, v)` has a reverse arc `(v, u)` with the
///   same weight.
/// * `node_weight.len() == n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    xadj: Vec<u64>,
    adjncy: Vec<Node>,
    adjwgt: Vec<Weight>,
    adjwgt_mask: usize,
    node_weight: Vec<Weight>,
    total_node_weight: Weight,
    total_edge_weight: Weight,
}

impl CsrGraph {
    /// Builds a graph directly from CSR arrays. `adjwgt` holds one weight
    /// per arc, or nothing when every arc weighs 1 (an all-ones vector is
    /// dropped).
    ///
    /// # Panics
    /// Panics if the arrays are structurally inconsistent (lengths, pointer
    /// monotonicity). Symmetry is *not* checked here — call
    /// [`CsrGraph::validate`] in tests/debug paths for the full invariant.
    pub fn from_parts(
        xadj: Vec<u64>,
        adjncy: Vec<Node>,
        adjwgt: Vec<Weight>,
        node_weight: Vec<Weight>,
    ) -> Self {
        assert!(!xadj.is_empty(), "xadj must have at least one entry");
        let n = xadj.len() - 1;
        assert_eq!(node_weight.len(), n, "node_weight length mismatch");
        assert_eq!(xadj[0], 0, "xadj must start at 0");
        assert_eq!(
            xadj[n] as usize,
            adjncy.len(),
            "xadj[n] must equal the number of stored arcs"
        );
        assert!(
            adjwgt.is_empty() || adjwgt.len() == adjncy.len(),
            "adjncy/adjwgt length mismatch"
        );
        debug_assert!(
            xadj.windows(2).all(|w| w[0] <= w[1]),
            "xadj must be non-decreasing"
        );
        let total_node_weight = node_weight.iter().sum();
        // Every undirected edge is stored twice; halve the arc-weight sum.
        // (Asymmetric inputs — a broken invariant — are caught by
        // `validate`, not here, so tests can construct them.)
        let (adjwgt, adjwgt_mask, arc_weight) = if adjwgt.iter().all(|&w| w == 1) {
            let max_degree = xadj.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
            (vec![1; max_degree as usize], 0, adjncy.len() as Weight)
        } else {
            let sum = adjwgt.iter().sum();
            (adjwgt, usize::MAX, sum)
        };
        let total_edge_weight = arc_weight / 2;
        Self {
            xadj,
            adjncy,
            adjwgt,
            adjwgt_mask,
            node_weight,
            total_node_weight,
            total_edge_weight,
        }
    }

    /// Builds an unweighted graph (all node and edge weights 1) from CSR
    /// adjacency arrays.
    pub fn unweighted(xadj: Vec<u64>, adjncy: Vec<Node>) -> Self {
        let n = xadj.len() - 1;
        Self::from_parts(xadj, adjncy, Vec::new(), vec![1; n])
    }

    /// The empty graph.
    pub fn empty() -> Self {
        Self::from_parts(vec![0], Vec::new(), Vec::new(), Vec::new())
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Number of stored arcs (`2 m`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.adjncy.len()
    }

    /// Degree of `v` (number of incident edges).
    #[inline]
    pub fn degree(&self, v: Node) -> usize {
        (self.xadj[v as usize + 1] - self.xadj[v as usize]) as usize
    }

    /// Weight of node `v`.
    #[inline]
    pub fn node_weight(&self, v: Node) -> Weight {
        self.node_weight[v as usize]
    }

    /// Sum of all node weights, `c(V)`.
    #[inline]
    pub fn total_node_weight(&self) -> Weight {
        self.total_node_weight
    }

    /// Sum of all edge weights, `ω(E)`.
    #[inline]
    pub fn total_edge_weight(&self) -> Weight {
        self.total_edge_weight
    }

    /// Iterates over the neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: Node) -> impl Iterator<Item = Node> + '_ {
        let lo = self.xadj[v as usize] as usize;
        let hi = self.xadj[v as usize + 1] as usize;
        self.adjncy[lo..hi].iter().copied()
    }

    /// Iterates over `(neighbor, edge_weight)` pairs of `v`.
    #[inline]
    pub fn neighbors_weighted(&self, v: Node) -> impl Iterator<Item = (Node, Weight)> + '_ {
        let lo = self.xadj[v as usize] as usize;
        let hi = self.xadj[v as usize + 1] as usize;
        // One array, one masked offset: no branch and no second base
        // pointer between the two weight forms, either of which measurably
        // slows the kernels on this iterator (DESIGN.md §5, "Bytes per arc").
        let row = &self.adjncy[lo..hi];
        let start = lo & self.adjwgt_mask;
        let weights = &self.adjwgt[start..start + row.len()];
        row.iter().copied().zip(weights.iter().copied())
    }

    /// The neighbor slice of `v` (no weights).
    #[inline]
    pub fn neighbor_slice(&self, v: Node) -> &[Node] {
        let lo = self.xadj[v as usize] as usize;
        let hi = self.xadj[v as usize + 1] as usize;
        &self.adjncy[lo..hi]
    }

    /// For every arc, in `adjncy` order, the offset of its reverse arc within
    /// the row of the arc's target: the arc at offset `i` of `v`'s row points
    /// to `u`, and `u`'s row holds `v` at offset `twin_offsets()[lo + i]`,
    /// where `lo` is the number of arcs in rows before `v`'s. Parallel arcs
    /// pair up in row order: the t-th arc `v → u` of `v`'s row with the t-th
    /// arc `u → v` of `u`'s row.
    ///
    /// `O(m)` when every row is sorted by target: walking the rows in node
    /// order meets each row's sources in that row's own order, so a count
    /// per row of the arcs paired so far is the next twin. Otherwise each
    /// row is first ranked by `(target, offset)` and walked in that order.
    pub fn twin_offsets(&self) -> Vec<u32> {
        let n = self.n();
        let sorted = self.nodes().all(|v| {
            let row = self.neighbor_slice(v);
            row.windows(2).all(|w| w[0] <= w[1])
        });
        // `rank[lo + j]`: the offset of the j-th arc of the row starting at
        // arc `lo` in `(target, offset)` order; not built for sorted rows.
        let rank: Vec<u32> = if sorted {
            Vec::new()
        } else {
            let mut rank = Vec::with_capacity(self.num_arcs());
            for v in self.nodes() {
                let row = self.neighbor_slice(v);
                let start = rank.len();
                rank.extend(0..row.len() as u32);
                rank[start..].sort_by_key(|&i| row[i as usize]);
            }
            rank
        };
        // The offset of the j-th arc, in `(target, offset)` order, of the
        // row starting at arc `lo`.
        let at = |lo: usize, j: u32| if sorted { j } else { rank[lo + j as usize] };
        // Per row, how many of its arcs have been paired so far.
        let mut paired = vec![0u32; n];
        let mut twin = vec![0u32; self.num_arcs()];
        for v in 0..n {
            let lo = self.xadj[v] as usize;
            for j in 0..(self.xadj[v + 1] as usize - lo) as u32 {
                let arc = lo + at(lo, j) as usize;
                let u = self.adjncy[arc] as usize;
                twin[arc] = at(self.xadj[u] as usize, paired[u]);
                paired[u] += 1;
                debug_assert_eq!(
                    self.adjncy[self.xadj[u] as usize + twin[arc] as usize] as usize,
                    v,
                    "the adjacency is not symmetric"
                );
            }
        }
        twin
    }

    /// Iterates over all nodes.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = Node> {
        0..self.n() as Node
    }

    /// Iterates over every undirected edge `{u, v}` exactly once (as
    /// `(u, v, w)` with `u < v`).
    pub fn edges(&self) -> impl Iterator<Item = (Node, Node, Weight)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors_weighted(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| (u, v, w))
        })
    }

    /// Raw CSR access: head-pointer array (`n + 1` entries).
    #[inline]
    pub fn xadj(&self) -> &[u64] {
        &self.xadj
    }

    /// Raw CSR access: flat neighbor array.
    #[inline]
    pub fn adjncy(&self) -> &[Node] {
        &self.adjncy
    }

    /// Raw CSR access: flat edge-weight array (parallel to `adjncy`);
    /// borrowed when weights are stored, a vector of ones when they are not.
    pub fn adjwgt(&self) -> Cow<'_, [Weight]> {
        if self.has_arc_weights() {
            Cow::Borrowed(&self.adjwgt)
        } else {
            Cow::Owned(vec![1; self.adjncy.len()])
        }
    }

    /// True iff some arc weighs other than 1, i.e. a weight per arc is
    /// stored.
    #[inline]
    pub fn has_arc_weights(&self) -> bool {
        self.adjwgt_mask != 0
    }

    /// Bytes of heap this graph holds: capacity × element size of every
    /// array.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.xadj.capacity() * size_of::<u64>()
            + self.adjncy.capacity() * size_of::<Node>()
            + (self.adjwgt.capacity() + self.node_weight.capacity()) * size_of::<Weight>()
    }

    /// Raw access: node weights.
    #[inline]
    pub fn node_weights(&self) -> &[Weight] {
        &self.node_weight
    }

    /// Average degree `2m / n` (0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.n() as f64
        }
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Checks the full structural invariant (symmetry, no self loops,
    /// in-range targets). Intended for tests and debug assertions; runs in
    /// `O(m log m)` time and `O(m)` space.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n() as Node;
        for u in self.nodes() {
            for (v, w) in self.neighbors_weighted(u) {
                if v >= n {
                    return Err(format!("arc ({u},{v}) points outside the graph"));
                }
                if v == u {
                    return Err(format!("self loop at {u}"));
                }
                if w == 0 {
                    return Err(format!("zero-weight arc ({u},{v})"));
                }
            }
        }
        // Symmetry: the multiset of (u,v,w) must equal the multiset of (v,u,w).
        let mut fwd: Vec<(Node, Node, Weight)> = Vec::with_capacity(self.num_arcs());
        for u in self.nodes() {
            for (v, w) in self.neighbors_weighted(u) {
                fwd.push((u, v, w));
            }
        }
        let mut rev: Vec<(Node, Node, Weight)> = fwd.iter().map(|&(u, v, w)| (v, u, w)).collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        if fwd != rev {
            return Err("adjacency is not symmetric".to_string());
        }
        Ok(())
    }

    /// Returns true iff the graph is connected (the empty graph counts as
    /// connected). BFS, `O(n + m)`.
    pub fn is_connected(&self) -> bool {
        if self.n() == 0 {
            return true;
        }
        let mut seen = vec![false; self.n()];
        let mut queue = std::collections::VecDeque::new();
        seen[0] = true;
        queue.push_back(0 as Node);
        let mut count = 1usize;
        while let Some(u) = queue.pop_front() {
            for v in self.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count == self.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> CsrGraph {
        GraphBuilder::new(3)
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(0, 2)
            .build()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.total_node_weight(), 3);
        assert_eq!(g.total_edge_weight(), 3);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        g.validate().unwrap();
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert!(g.is_connected());
        assert_eq!(g.avg_degree(), 0.0);
        g.validate().unwrap();
    }

    #[test]
    fn isolated_nodes() {
        let g = GraphBuilder::new(4).add_edge(0, 1).build();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(2), 0);
        assert!(!g.is_connected());
        g.validate().unwrap();
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 1), (0, 2, 1), (1, 2, 1)]);
    }

    #[test]
    fn connectivity() {
        assert!(triangle().is_connected());
        let disconnected = GraphBuilder::new(4).add_edge(0, 1).add_edge(2, 3).build();
        assert!(!disconnected.is_connected());
    }

    #[test]
    fn validate_catches_asymmetry() {
        // Hand-build a broken graph: arc 0->1 without 1->0.
        let g = CsrGraph::from_parts(vec![0, 1, 1], vec![1], vec![1], vec![1, 1]);
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_catches_self_loop() {
        let g = CsrGraph::from_parts(vec![0, 1, 1], vec![0], vec![1], vec![1, 1]);
        assert!(g.validate().is_err());
    }

    #[test]
    fn unit_arc_weights_take_no_heap() {
        // K_20: arcs far outnumber nodes, so an 8 B-per-arc array shows.
        let clique = |w: Weight| {
            let mut b = GraphBuilder::new(20);
            for u in 0..20 {
                for v in u + 1..20 {
                    b.push_edge(u, v, w);
                }
            }
            b.build()
        };
        let (unit, weighted) = (clique(1), clique(3));
        let arcs = unit.num_arcs();
        assert!(!unit.has_arc_weights() && weighted.has_arc_weights());
        let arc_weights = arcs * std::mem::size_of::<Weight>();
        assert!(unit.heap_bytes() < arc_weights);
        // What the unit form holds instead: one row of 19 ones.
        let unit_row = 19 * std::mem::size_of::<Weight>();
        assert_eq!(
            weighted.heap_bytes() + unit_row,
            unit.heap_bytes() + arc_weights
        );
        // The readers cannot tell: same arcs, same totals, a full `adjwgt()`.
        assert_eq!(unit.neighbors_weighted(0).nth(4), Some((5, 1)));
        assert_eq!(unit.total_edge_weight() * 3, weighted.total_edge_weight());
        assert_eq!(unit.adjwgt().len(), arcs);
        assert_eq!(unit.adjwgt().to_vec(), vec![1; arcs]);
    }

    #[test]
    fn max_degree_and_avg_degree() {
        let star = GraphBuilder::new(5)
            .add_edge(0, 1)
            .add_edge(0, 2)
            .add_edge(0, 3)
            .add_edge(0, 4)
            .build();
        assert_eq!(star.max_degree(), 4);
        assert!((star.avg_degree() - 8.0 / 5.0).abs() < 1e-12);
    }

    /// Every arc's twin points back at it, sorted rows or not; parallel
    /// arcs pair in row order.
    #[test]
    fn twin_offsets_pair_each_arc_with_its_reverse() {
        let check = |g: &CsrGraph| {
            let twin = g.twin_offsets();
            let start = |v: Node| g.xadj()[v as usize] as usize;
            for v in g.nodes() {
                for (i, &u) in g.neighbor_slice(v).iter().enumerate() {
                    let r = twin[start(v) + i] as usize;
                    assert_eq!(g.neighbor_slice(u)[r], v, "arc {v} -> {u}");
                    assert_eq!(twin[start(u) + r] as usize, i, "arc {v} -> {u}");
                }
            }
            twin
        };
        check(&triangle());
        // 0 – 1 twice, 1 – 2, 0 – 2; rows sorted (parallel arcs adjacent),
        // then the same graph with rows permuted.
        let sorted = CsrGraph::unweighted(vec![0, 3, 6, 8], vec![1, 1, 2, 0, 0, 2, 0, 1]);
        assert_eq!(check(&sorted), vec![0, 1, 0, 0, 1, 1, 2, 2]);
        let shuffled = CsrGraph::unweighted(vec![0, 3, 6, 8], vec![1, 2, 1, 2, 0, 0, 1, 0]);
        assert_eq!(check(&shuffled), vec![1, 1, 2, 0, 0, 2, 0, 1]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::GraphBuilder;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The unit form is canonical: all-ones weights handed to
        /// `from_parts` give the graph `unweighted` gives, bit for bit in
        /// `==`; one other weight does not.
        #[test]
        fn all_ones_is_the_unweighted_graph(
            n in 1usize..24,
            edges in proptest::collection::vec((0u32..24, 0u32..24), 0..80),
            heavy in 0usize..160,
        ) {
            let mut b = GraphBuilder::new(n);
            for (u, v) in edges {
                b.push_edge(u % n as Node, v % n as Node, 1);
            }
            let built = b.build();
            let (xadj, adjncy) = (built.xadj().to_vec(), built.adjncy().to_vec());
            // Parallel edges merge to weight > 1 in the builder; this is
            // about the structure alone.
            let arcs = adjncy.len();
            let unit = CsrGraph::unweighted(xadj.clone(), adjncy.clone());
            let ones = CsrGraph::from_parts(xadj.clone(), adjncy.clone(), vec![1; arcs], vec![1; n]);
            prop_assert_eq!(&ones, &unit);
            prop_assert_eq!(ones.heap_bytes(), unit.heap_bytes());
            prop_assert_eq!(unit.total_edge_weight(), unit.m() as Weight);
            if arcs > 0 {
                let mut w = vec![1; arcs];
                w[heavy % arcs] = 2;
                let other = CsrGraph::from_parts(xadj, adjncy, w, vec![1; n]);
                prop_assert_ne!(&other, &unit);
            }
        }
    }
}
