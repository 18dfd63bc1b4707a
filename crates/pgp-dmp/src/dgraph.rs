//! The distributed graph data structure of Section IV-A.
//!
//! Each PE owns a *contiguous range* of global node IDs and stores the
//! induced adjacency in a local CSR. Endpoints of cut arcs that live on
//! other PEs are *ghost* (halo) nodes: they get local IDs after the owned
//! nodes, their global IDs live in an extra array, a hash map translates
//! ghost global→local, and a per-ghost owner array gives O(1) owner lookup —
//! exactly the layout the paper describes.

use crate::collectives::{allgatherv, allreduce_sum_vec, alltoallv};
use crate::comm::Comm;
use pgp_graph::ids;
use pgp_graph::io::RowSegment;
use pgp_graph::stats::{degree_skew, skew_looks_like_complex_network};
use pgp_graph::{CsrGraph, Node, Weight, INVALID_NODE};
use rustc_hash::FxHashMap;
use std::ops::Range;

/// Block distribution of `n` global nodes over `p` PEs: PE `r` owns the
/// global IDs `r·⌈n/p⌉ .. min((r+1)·⌈n/p⌉, n)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockDist {
    /// Total number of global nodes.
    pub n_global: u64,
    /// Chunk size `⌈n/p⌉` (1 minimum so owner arithmetic stays valid).
    pub chunk: u64,
    /// Number of PEs.
    pub p: usize,
}

impl BlockDist {
    /// Creates the distribution for `n_global` nodes over `p` PEs.
    pub fn new(n_global: u64, p: usize) -> Self {
        assert!(p > 0);
        let chunk = n_global.div_ceil(ids::count_global(p)).max(1);
        Self { n_global, chunk, p }
    }

    /// The PE owning global node `g`.
    #[inline]
    pub fn owner(&self, g: Node) -> usize {
        ids::global_index(ids::node_global(g) / self.chunk).min(self.p - 1)
    }

    /// The first global ID owned by PE `r`.
    #[inline]
    pub fn first(&self, r: usize) -> u64 {
        (ids::count_global(r) * self.chunk).min(self.n_global)
    }

    /// The one-past-last global ID owned by PE `r`.
    #[inline]
    pub fn last_excl(&self, r: usize) -> u64 {
        ((ids::count_global(r) + 1) * self.chunk).min(self.n_global)
    }

    /// Number of nodes owned by PE `r`.
    #[inline]
    pub fn count(&self, r: usize) -> usize {
        ids::global_index(self.last_excl(r) - self.first(r))
    }
}

/// Sorts one row's arcs by `(target, weight)` unless they already are:
/// every graph this workspace builds has ascending rows, so assembly pays
/// one comparison per arc, and arcs given in any other order still yield
/// the one deterministic numbering. An empty `adjwgt` (every arc weighs 1)
/// sorts the targets alone.
fn sort_row(adjncy: &mut [Node], adjwgt: &mut [Weight]) {
    if adjwgt.is_empty() {
        if !adjncy.is_sorted() {
            adjncy.sort_unstable();
        }
        return;
    }
    // Weights are read only to order two arcs with the same target.
    let ordered = |i: usize| {
        adjncy[i - 1] < adjncy[i] || (adjncy[i - 1] == adjncy[i] && adjwgt[i - 1] <= adjwgt[i])
    };
    if (1..adjncy.len()).all(ordered) {
        return;
    }
    let mut arcs: Vec<(Node, Weight)> =
        adjncy.iter().copied().zip(adjwgt.iter().copied()).collect();
    arcs.sort_unstable();
    for (i, (v, w)) in arcs.into_iter().enumerate() {
        adjncy[i] = v;
        adjwgt[i] = w;
    }
}

/// Where a PE's rows are stored, decided from their degrees alone.
struct RowLayout {
    /// One `(start, end)` arc range per owned node.
    ranges: Vec<(usize, usize)>,
    /// The owned nodes by ascending degree, ties by local ID.
    degree_order: Vec<Node>,
    /// Whether the ranges follow `degree_order` (else they follow IDs).
    by_degree: bool,
}

impl RowLayout {
    /// The layout of rows whose ID-order offsets are `offsets` (any base).
    /// Rows are stored in degree order when this PE's own degree skew
    /// passes the `class=auto` test for a complex network, so a cluster
    /// round reads the arc arrays front to back; otherwise they stay in ID
    /// order, in which a mesh's contraction and refinement read them.
    fn new(offsets: &[u64]) -> Self {
        let n = offsets.len() - 1;
        let degree = |u: usize| ids::global_index(offsets[u + 1] - offsets[u]);
        let max_degree = (0..n).map(degree).max().unwrap_or(0);
        // A counting sort: stable, so equal degrees keep ID order.
        let mut next = vec![0usize; max_degree + 1];
        for u in 0..n {
            next[degree(u)] += 1;
        }
        let mut at = 0;
        for slot in &mut next {
            (*slot, at) = (at, at + *slot);
        }
        let mut degree_order = vec![0; n];
        for u in 0..n {
            let slot = &mut next[degree(u)];
            degree_order[*slot] = ids::node_of_index(u);
            *slot += 1;
        }
        let arcs = ids::global_index(offsets[n] - offsets[0]);
        let by_degree = skew_looks_like_complex_network(degree_skew(n, arcs, max_degree));
        let ranges = if by_degree {
            let mut ranges = vec![(0, 0); n];
            let mut start = 0;
            for &v in &degree_order {
                let u = ids::node_index(v);
                ranges[u] = (start, start + degree(u));
                start = ranges[u].1;
            }
            ranges
        } else {
            let at = |u: usize| ids::global_index(offsets[u] - offsets[0]);
            (0..n).map(|u| (at(u), at(u + 1))).collect()
        };
        Self {
            ranges,
            degree_order,
            by_degree,
        }
    }

    /// Per owned node in ID order: its arcs' positions in rows stored
    /// back to back in ID order, and its place in this layout.
    fn segment_rows(&self) -> impl Iterator<Item = (Range<usize>, Range<usize>)> + '_ {
        self.ranges.iter().scan(0, |at, &(lo, hi)| {
            let row = *at..*at + hi - lo;
            *at = row.end;
            Some((row, lo..hi))
        })
    }

    /// A copy of `src`, rows stored back to back in ID order, with every
    /// row at its place in this layout. A whole-array copy in ID order; in
    /// degree order each row is written to its place first and read again
    /// by the assembly pass, which measured faster than placing and
    /// rewriting each row in one go.
    fn copy_rows<T: Copy + Default>(&self, src: &[T]) -> Vec<T> {
        if !self.by_degree {
            return src.to_vec();
        }
        let mut placed = vec![T::default(); src.len()];
        for (row, place) in self.segment_rows() {
            placed[place].copy_from_slice(&src[row]);
        }
        placed
    }
}

/// For every ghost of a [`DistGraph`], the owned nodes with an arc to it
/// (CSR over ghosts; see [`DistGraph::ghost_rows`]).
#[derive(Clone, Debug)]
pub struct GhostRows {
    n_local: usize,
    xadj: Vec<u64>,
    owned: Vec<Node>,
}

impl GhostRows {
    /// The owned neighbours of ghost `l` (a local ID `≥ n_local`), in
    /// ascending order.
    #[inline]
    pub fn owned_neighbors(&self, l: Node) -> &[Node] {
        let g = ids::node_index(l) - self.n_local;
        &self.owned[ids::global_index(self.xadj[g])..ids::global_index(self.xadj[g + 1])]
    }
}

/// A PE-local view of a distributed graph: owned nodes `0..n_local`,
/// ghost nodes `n_local..n_local+n_ghost` (ghosts have weights and labels
/// but no stored adjacency).
///
/// Each owned node's arcs are one `(start, end)` range of the arc arrays.
/// On a PE whose rows look like a complex network the ranges follow
/// [`DistGraph::degree_order`], the order a cluster round visits them in;
/// otherwise they follow local IDs. Either way a row holds the same arcs
/// in the same order (DESIGN.md §8, "Rows in visit order").
///
/// As in [`CsrGraph`], unit arc weights are not stored per arc: when every
/// arc of this PE weighs 1, `adjwgt` holds one run of ones as long as the
/// longest row (`adjwgt_mask == 0`). Assembly drops an all-ones vector, and
/// [`DistGraph::neighbors`] is the one reader that knows.
#[derive(Clone, Debug)]
pub struct DistGraph {
    rank: usize,
    dist: BlockDist,
    /// Per owned node, its arcs' range in `adjncy`; targets are local IDs
    /// (owned or ghost).
    ranges: Vec<(usize, usize)>,
    adjncy: Vec<Node>,
    /// One weight per arc (`adjwgt_mask == usize::MAX`), or — every arc
    /// weighs 1, `adjwgt_mask == 0` — as many ones as the longest row has
    /// arcs. The weights of the row that starts at arc `lo` start at
    /// `adjwgt[lo & adjwgt_mask]`.
    adjwgt: Vec<Weight>,
    adjwgt_mask: usize,
    /// The owned nodes by ascending degree, ties by local ID.
    degree_order: Vec<Node>,
    /// Weights of owned nodes followed by ghost nodes.
    node_weight: Vec<Weight>,
    /// Ghost local index → global ID.
    ghost_global: Vec<Node>,
    /// Ghost local index → owning PE.
    ghost_owner: Vec<u32>,
    /// Global ID → ghost local ID.
    ghost_map: FxHashMap<Node, Node>,
    /// For each owned node, the PEs owning at least one of its ghost
    /// neighbours (CSR layout). Non-empty ⇔ the node is an interface node.
    iface_xadj: Vec<u32>,
    iface_pes: Vec<u32>,
    /// Ranks of all adjacent PEs (sorted, distinct).
    adjacent_pes: Vec<u32>,
    /// Global totals (identical on every PE).
    total_node_weight: Weight,
    total_edge_weight: Weight,
    global_m: u64,
}

/// The weights of `ghosts` (global IDs), asked of their owners: one
/// query / answer pair of `alltoallv`s, each PE answering from `owned`,
/// its owned node weights. Ghosts are asked in ascending ID order; a block
/// distribution's owner is monotone in the ID, so the answers concatenated
/// by PE come back in exactly that order.
fn fetch_ghost_weights(
    comm: &Comm,
    dist: BlockDist,
    ghosts: &[Node],
    owned: &[Weight],
) -> Vec<Weight> {
    let first = dist.first(comm.rank());
    let mut order: Vec<usize> = (0..ghosts.len()).collect();
    order.sort_unstable_by_key(|&i| ghosts[i]);
    let mut queries: Vec<Vec<Node>> = vec![Vec::new(); comm.size()];
    for &i in &order {
        queries[dist.owner(ghosts[i])].push(ghosts[i]);
    }
    let answers: Vec<Vec<Weight>> = alltoallv(comm, queries)
        .into_iter()
        .map(|q| {
            q.into_iter()
                .map(|g| owned[ids::global_index(ids::node_global(g) - first)])
                .collect()
        })
        .collect();
    let mut weights = vec![0; ghosts.len()];
    for (&i, w) in order
        .iter()
        .zip(alltoallv(comm, answers).into_iter().flatten())
    {
        weights[i] = w;
    }
    weights
}

impl DistGraph {
    /// Builds PE `comm.rank()`'s local view from a globally shared graph.
    ///
    /// This is the test/benchmark "scatter": the global graph is only read
    /// during construction (this PE's rows are copied out of it, no
    /// messages); all algorithms afterwards touch local state and messages
    /// exclusively.
    pub fn from_global(comm: &Comm, global: &CsrGraph) -> Self {
        let dist = BlockDist::new(ids::count_global(global.n()), comm.size());
        let rank = comm.rank();
        let nodes = ids::global_index(dist.first(rank))..ids::global_index(dist.last_excl(rank));
        let offsets = &global.xadj()[nodes.start..=nodes.end];
        let arcs = ids::global_index(offsets[0])..ids::global_index(offsets[nodes.len()]);
        let layout = RowLayout::new(offsets);
        let adjncy = layout.copy_rows(&global.adjncy()[arcs.clone()]);
        let adjwgt = if global.has_arc_weights() {
            layout.copy_rows(&global.adjwgt()[arcs])
        } else {
            Vec::new()
        };
        // Ghost weights can be read straight off the shared input here; the
        // fully distributed constructor fetches them by message instead.
        Self::from_rows(
            comm,
            dist,
            layout,
            adjncy,
            adjwgt,
            global.node_weights()[nodes].to_vec(),
            |ghosts, _| ghosts.iter().map(|&g| global.node_weight(g)).collect(),
        )
    }

    /// Fully distributed construction from local arcs: `arcs` holds, for
    /// every *owned* node `u` (global ID), all arcs `(u, v_global, w)`, in
    /// any order. Ghost node weights are fetched from their owners via one
    /// query/reply pair of `alltoallv`s.
    pub fn from_arcs(
        comm: &Comm,
        n_global: u64,
        owned_weights: Vec<Weight>,
        mut arcs: Vec<(Node, Node, Weight)>,
    ) -> Self {
        let dist = BlockDist::new(n_global, comm.size());
        let rank = comm.rank();
        let n_local = dist.count(rank);
        assert_eq!(owned_weights.len(), n_local, "owned weight count mismatch");
        let first = dist.first(rank);

        // Triples → rows. Contraction hands them over in row order already;
        // a stable sort keeps every row's arcs in the order given.
        if !arcs.is_sorted_by_key(|a| a.0) {
            arcs.sort_by_key(|a| a.0);
        }
        let mut xadj = vec![0u64; n_local + 1];
        for &(u, _, _) in &arcs {
            assert!(
                ids::node_global(u) >= first && ids::node_global(u) < dist.last_excl(rank),
                "arc source {u} not owned by PE {rank}"
            );
            xadj[ids::global_index(ids::node_global(u) - first) + 1] += 1;
        }
        for i in 0..n_local {
            xadj[i + 1] += xadj[i];
        }
        let layout = RowLayout::new(&xadj);
        let mut adjncy = vec![0; arcs.len()];
        let mut adjwgt = vec![0; arcs.len()];
        for (row, place) in layout.segment_rows() {
            for (i, &(_, v, w)) in place.zip(&arcs[row]) {
                adjncy[i] = v;
                adjwgt[i] = w;
            }
        }
        drop(arcs);

        Self::from_rows(
            comm,
            dist,
            layout,
            adjncy,
            adjwgt,
            owned_weights,
            |ghosts, owned| fetch_ghost_weights(comm, dist, ghosts, owned),
        )
    }

    /// Fully distributed construction from this PE's own rows, global IDs
    /// — its segment of a file read by
    /// `pgp_graph::io::read_metis_file_segments` at the first IDs of
    /// `BlockDist::new(n_global, comm.size())`. In ID order the segment's
    /// arrays become the view's, rewritten in place, so assembly copies no
    /// arc; in degree order the targets and then the weights are copied to
    /// their places, each source array freed before the next copy. Ghost
    /// node weights are fetched from their owners as in
    /// [`DistGraph::from_arcs`].
    ///
    /// # Panics
    /// Panics if the segment does not hold exactly the rows this PE owns.
    pub fn from_segment(comm: &Comm, n_global: u64, rows: RowSegment) -> Self {
        let dist = BlockDist::new(n_global, comm.size());
        let rank = comm.rank();
        assert!(
            rows.first == dist.first(rank) && rows.rows() == dist.count(rank),
            "PE {rank} owns rows {}..{}, was handed {} from {}",
            dist.first(rank),
            dist.last_excl(rank),
            rows.rows(),
            rows.first
        );
        let RowSegment {
            xadj,
            mut adjncy,
            mut adjwgt,
            node_weight,
            ..
        } = rows;
        let layout = RowLayout::new(&xadj);
        drop(xadj);
        if layout.by_degree {
            adjncy = layout.copy_rows(&adjncy);
            if !adjwgt.is_empty() {
                adjwgt = layout.copy_rows(&adjwgt);
            }
        }
        Self::from_rows(
            comm,
            dist,
            layout,
            adjncy,
            adjwgt,
            node_weight,
            |ghosts, owned| fetch_ghost_weights(comm, dist, ghosts, owned),
        )
    }

    /// The one assembly path, row by row in ID order: this PE's rows at
    /// their places in `layout`, `adjncy` still in global IDs and `adjwgt`
    /// either parallel to it or empty (all ones; an all-ones vector is
    /// dropped). Rewrites `adjncy` to local IDs in place — ghosts are
    /// numbered in first-appearance order, rows in ID order, each row's
    /// arcs ascending by `(target, weight)` — and builds the ghost tables
    /// and the interface structure in the same pass. `ghost_weights(ghosts,
    /// owned_weights)` resolves the weights of the discovered ghosts (global
    /// IDs, in ghost-local order).
    fn from_rows(
        comm: &Comm,
        dist: BlockDist,
        layout: RowLayout,
        mut adjncy: Vec<Node>,
        mut adjwgt: Vec<Weight>,
        owned_weights: Vec<Weight>,
        ghost_weights: impl FnOnce(&[Node], &[Weight]) -> Vec<Weight>,
    ) -> Self {
        let rank = comm.rank();
        let first = dist.first(rank);
        let last = dist.last_excl(rank);
        let RowLayout {
            ranges,
            degree_order,
            ..
        } = layout;
        let n_local = ranges.len();
        if adjwgt.iter().all(|&w| w == 1) {
            adjwgt = Vec::new();
        }

        let mut ghost_global: Vec<Node> = Vec::new();
        let mut ghost_owner: Vec<u32> = Vec::new();
        let mut ghost_map: FxHashMap<Node, Node> = FxHashMap::default();
        // Interface structure: per owned node, distinct adjacent PEs.
        let mut iface_xadj = vec![0u32; n_local + 1];
        let mut iface_pes: Vec<u32> = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        for (u, &(lo, hi)) in ranges.iter().enumerate() {
            sort_row(
                &mut adjncy[lo..hi],
                adjwgt.get_mut(lo..hi).unwrap_or(&mut []),
            );
            scratch.clear();
            for t in &mut adjncy[lo..hi] {
                let g = ids::node_global(*t);
                *t = if g >= first && g < last {
                    ids::global_node(g - first)
                } else {
                    let l = *ghost_map.entry(*t).or_insert_with(|| {
                        ghost_global.push(*t);
                        ghost_owner.push(ids::pe_rank(dist.owner(*t)));
                        ids::node_of_index(n_local + ghost_global.len() - 1)
                    });
                    scratch.push(ghost_owner[ids::node_index(l) - n_local]);
                    l
                };
            }
            scratch.sort_unstable();
            scratch.dedup();
            iface_pes.extend_from_slice(&scratch);
            iface_xadj[u + 1] = ids::offset_of_index(iface_pes.len());
        }
        let mut adjacent_pes: Vec<u32> = ghost_owner.clone();
        adjacent_pes.sort_unstable();
        adjacent_pes.dedup();

        let mut node_weight = owned_weights;
        let weights = ghost_weights(&ghost_global, &node_weight);
        assert_eq!(weights.len(), ghost_global.len(), "one weight per ghost");
        node_weight.extend(weights);

        // Global totals, one collective for the three.
        let totals = allreduce_sum_vec(
            comm,
            vec![
                node_weight[..n_local].iter().sum(),
                if adjwgt.is_empty() {
                    ids::count_global(adjncy.len())
                } else {
                    adjwgt.iter().sum()
                },
                ids::count_global(adjncy.len()),
            ],
        );
        let (total_node_weight, total_edge_weight, global_m) =
            (totals[0], totals[1] / 2, totals[2] / 2);

        // From "none or one per arc" to the stored form.
        let (adjwgt, adjwgt_mask) = if adjwgt.is_empty() {
            let max_degree = ranges.iter().map(|&(lo, hi)| hi - lo).max().unwrap_or(0);
            (vec![1; max_degree], 0)
        } else {
            (adjwgt, usize::MAX)
        };

        Self {
            rank,
            dist,
            ranges,
            adjncy,
            adjwgt,
            adjwgt_mask,
            degree_order,
            node_weight,
            ghost_global,
            ghost_owner,
            ghost_map,
            iface_xadj,
            iface_pes,
            adjacent_pes,
            total_node_weight,
            total_edge_weight,
            global_m,
        }
    }

    /// This PE's rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The global block distribution.
    #[inline]
    pub fn dist(&self) -> BlockDist {
        self.dist
    }

    /// Number of owned (local) nodes.
    #[inline]
    pub fn n_local(&self) -> usize {
        self.ranges.len()
    }

    /// Number of ghost nodes.
    #[inline]
    pub fn n_ghost(&self) -> usize {
        self.ghost_global.len()
    }

    /// Total number of global nodes.
    #[inline]
    pub fn n_global(&self) -> u64 {
        self.dist.n_global
    }

    /// Total number of global undirected edges.
    #[inline]
    pub fn m_global(&self) -> u64 {
        self.global_m
    }

    /// Global sum of node weights.
    #[inline]
    pub fn total_node_weight(&self) -> Weight {
        self.total_node_weight
    }

    /// Global sum of edge weights.
    #[inline]
    pub fn total_edge_weight(&self) -> Weight {
        self.total_edge_weight
    }

    /// First owned global ID.
    #[inline]
    pub fn first_global(&self) -> u64 {
        self.dist.first(self.rank)
    }

    /// True iff local ID `l` denotes a ghost node.
    #[inline]
    pub fn is_ghost(&self, l: Node) -> bool {
        ids::node_index(l) >= self.n_local()
    }

    /// The owned nodes by ascending degree, ties by local ID: the order a
    /// cluster round visits them in (§IV-A), computed once at assembly.
    #[inline]
    pub fn degree_order(&self) -> &[Node] {
        &self.degree_order
    }

    /// Local → global ID translation (owned and ghost).
    #[inline]
    pub fn local_to_global(&self, l: Node) -> Node {
        let nl = self.n_local();
        if ids::node_index(l) < nl {
            ids::global_node(self.first_global() + ids::node_global(l))
        } else {
            self.ghost_global[ids::node_index(l) - nl]
        }
    }

    /// Global → local ID translation; `INVALID_NODE` if `g` is neither
    /// owned nor a ghost here.
    #[inline]
    pub fn global_to_local(&self, g: Node) -> Node {
        let first = self.first_global();
        let last = self.dist.last_excl(self.rank);
        if ids::node_global(g) >= first && ids::node_global(g) < last {
            ids::global_node(ids::node_global(g) - first)
        } else {
            self.ghost_map.get(&g).copied().unwrap_or(INVALID_NODE)
        }
    }

    /// Owner PE of ghost-local node `l`.
    #[inline]
    pub fn ghost_owner_of(&self, l: Node) -> u32 {
        self.ghost_owner[ids::node_index(l) - self.n_local()]
    }

    /// Weight of local node `l` (owned or ghost).
    #[inline]
    pub fn node_weight(&self, l: Node) -> Weight {
        self.node_weight[ids::node_index(l)]
    }

    /// Degree of owned node `l`.
    #[inline]
    pub fn degree(&self, l: Node) -> usize {
        let (lo, hi) = self.ranges[ids::node_index(l)];
        hi - lo
    }

    /// Iterates `(target_local, weight)` over the arcs of owned node `l`.
    #[inline]
    pub fn neighbors(&self, l: Node) -> impl Iterator<Item = (Node, Weight)> + '_ {
        let (lo, hi) = self.ranges[ids::node_index(l)];
        // One array, one masked offset: a branch between two slicings here
        // cost the SCLP cluster sweep a quarter of its time on `web_p1`
        // (DESIGN.md §5, "Bytes per arc").
        let row = &self.adjncy[lo..hi];
        let start = lo & self.adjwgt_mask;
        let weights = &self.adjwgt[start..start + row.len()];
        row.iter().copied().zip(weights.iter().copied())
    }

    /// True iff owned node `l` has at least one ghost neighbour.
    #[inline]
    pub fn is_interface(&self, l: Node) -> bool {
        let u = ids::node_index(l);
        self.iface_xadj[u] != self.iface_xadj[u + 1]
    }

    /// The adjacent PEs of owned interface node `l`.
    #[inline]
    pub fn interface_pes(&self, l: Node) -> &[u32] {
        let u = ids::node_index(l);
        let lo = ids::offset_index(self.iface_xadj[u]);
        let hi = ids::offset_index(self.iface_xadj[u + 1]);
        &self.iface_pes[lo..hi]
    }

    /// All PEs this PE shares a cut arc with.
    #[inline]
    pub fn adjacent_pes(&self) -> &[u32] {
        &self.adjacent_pes
    }

    /// The ghost → owned reverse adjacency, built from the interface rows
    /// (two passes over them, nothing cached): refinement uses it to wake
    /// the owned neighbours of a ghost whose block changed.
    pub fn ghost_rows(&self) -> GhostRows {
        let nl = self.n_local();
        let ghost_arcs = |u: Node| {
            self.neighbors(u)
                .filter(|&(t, _)| self.is_ghost(t))
                .map(move |(t, _)| ids::node_index(t) - nl)
        };
        let interface = || (0..ids::node_of_index(nl)).filter(|&u| self.is_interface(u));
        let mut xadj = vec![0u64; self.n_ghost() + 1];
        for u in interface() {
            for g in ghost_arcs(u) {
                xadj[g + 1] += 1;
            }
        }
        for g in 0..self.n_ghost() {
            xadj[g + 1] += xadj[g];
        }
        let mut cursor = xadj.clone();
        let mut owned: Vec<Node> = vec![0; ids::global_index(xadj[self.n_ghost()])];
        for u in interface() {
            for g in ghost_arcs(u) {
                owned[ids::global_index(cursor[g])] = u;
                cursor[g] += 1;
            }
        }
        GhostRows {
            n_local: nl,
            xadj,
            owned,
        }
    }

    /// Number of owned arcs.
    pub fn local_arc_count(&self) -> u64 {
        ids::count_global(self.adjncy.len())
    }

    /// Bytes of heap this PE's view holds: capacity × element size of every
    /// array, the ghost map at one entry plus one control byte per slot of
    /// capacity.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ranges.capacity() * size_of::<(usize, usize)>()
            + (self.adjncy.capacity() + self.degree_order.capacity() + self.ghost_global.capacity())
                * size_of::<Node>()
            + (self.adjwgt.capacity() + self.node_weight.capacity()) * size_of::<Weight>()
            + (self.ghost_owner.capacity()
                + self.iface_xadj.capacity()
                + self.iface_pes.capacity()
                + self.adjacent_pes.capacity())
                * size_of::<u32>()
            + self.ghost_map.capacity() * (size_of::<(Node, Node)>() + 1)
    }

    /// Weights of the owned nodes (slice of length `n_local`).
    pub fn owned_weights(&self) -> &[Weight] {
        &self.node_weight[..self.n_local()]
    }

    /// Where owned node `l`'s arcs are stored, as positions `0..`
    /// [`local_arc_count`](Self::local_arc_count) of the arc arrays
    /// (validator access; algorithms use [`neighbors`](Self::neighbors)).
    pub fn arc_range(&self, l: Node) -> Range<usize> {
        let (lo, hi) = self.ranges[ids::node_index(l)];
        lo..hi
    }

    /// Whether arc weights are stored per arc: false when every arc of this
    /// PE weighs 1.
    pub fn has_arc_weights(&self) -> bool {
        self.adjwgt_mask != 0
    }

    /// Ghost global IDs in ghost-local order (validator access).
    pub fn ghost_globals(&self) -> &[Node] {
        &self.ghost_global
    }

    /// The global→ghost-local map (validator access).
    pub fn ghost_map(&self) -> &FxHashMap<Node, Node> {
        &self.ghost_map
    }

    /// Ghost owner ranks in ghost-local order (validator access).
    pub fn ghost_owners(&self) -> &[u32] {
        &self.ghost_owner
    }

    /// Mutable ghost map, for seeding corruptions in validator tests.
    #[doc(hidden)]
    pub fn ghost_map_mut_for_test(&mut self) -> &mut FxHashMap<Node, Node> {
        &mut self.ghost_map
    }

    /// Mutable node weights, for seeding corruptions in validator tests.
    #[doc(hidden)]
    pub fn node_weights_mut_for_test(&mut self) -> &mut Vec<Weight> {
        &mut self.node_weight
    }

    /// Mutable arc weights (unit weights written out first), for seeding
    /// corruptions in validator tests.
    #[doc(hidden)]
    pub fn adjwgt_mut_for_test(&mut self) -> &mut Vec<Weight> {
        if self.adjwgt_mask == 0 {
            self.adjwgt = vec![1; self.adjncy.len()];
            self.adjwgt_mask = usize::MAX;
        }
        &mut self.adjwgt
    }

    /// Mutable arc ranges, for seeding corruptions in validator tests.
    #[doc(hidden)]
    pub fn ranges_mut_for_test(&mut self) -> &mut Vec<(usize, usize)> {
        &mut self.ranges
    }

    /// Mutable visit order, for seeding corruptions in validator tests.
    #[doc(hidden)]
    pub fn degree_order_mut_for_test(&mut self) -> &mut Vec<Node> {
        &mut self.degree_order
    }

    /// Mutable ghost owners, for seeding corruptions in validator tests.
    #[doc(hidden)]
    pub fn ghost_owners_mut_for_test(&mut self) -> &mut Vec<u32> {
        &mut self.ghost_owner
    }

    /// Gathers the full global graph onto every PE (used once the coarsest
    /// level is small enough for the evolutionary algorithm — §IV-E).
    pub fn gather_global(&self, comm: &Comm) -> CsrGraph {
        // Exchange (global_u, global_v, w) arcs and (global_u, weight).
        let mut arcs: Vec<(Node, Node, Weight)> = Vec::with_capacity(self.adjncy.len());
        for u in 0..ids::node_of_index(self.n_local()) {
            let gu = self.local_to_global(u);
            for (v, w) in self.neighbors(u) {
                arcs.push((gu, self.local_to_global(v), w));
            }
        }
        let all_arcs = allgatherv(comm, arcs);
        let weights = allgatherv(comm, self.owned_weights().to_vec());
        let n = ids::global_index(self.n_global());
        assert_eq!(weights.len(), n, "gathered weight count mismatch");
        // Arcs contain both directions; keep u < v to avoid double insert.
        let mut b = pgp_graph::GraphBuilder::with_capacity(n, all_arcs.len() / 2);
        for (u, v, w) in all_arcs {
            if u < v {
                b.push_edge(u, v, w);
            }
        }
        b.node_weights(weights).build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use pgp_graph::builder::from_edges;

    fn ring(n: usize) -> CsrGraph {
        let edges: Vec<(Node, Node)> = (0..n).map(|i| (i as Node, ((i + 1) % n) as Node)).collect();
        from_edges(n, &edges)
    }

    #[test]
    fn block_dist_covers_everything() {
        for n in [0u64, 1, 7, 8, 9, 100] {
            for p in [1usize, 2, 3, 8] {
                let d = BlockDist::new(n, p);
                let total: u64 = (0..p).map(|r| d.count(r) as u64).sum();
                assert_eq!(total, n, "n={n} p={p}");
                for g in 0..n {
                    let r = d.owner(g as Node);
                    assert!(d.first(r) <= g && g < d.last_excl(r), "n={n} p={p} g={g}");
                }
            }
        }
    }

    #[test]
    fn from_global_partitions_ring() {
        let g = ring(10);
        let stats = run(4, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            (
                dg.n_local(),
                dg.n_ghost(),
                dg.total_edge_weight(),
                dg.m_global(),
            )
        });
        let total_local: usize = stats.iter().map(|s| s.0).sum();
        assert_eq!(total_local, 10);
        for &(_, _, tw, m) in &stats {
            assert_eq!(tw, 10);
            assert_eq!(m, 10);
        }
        // Interior PEs of a ring see exactly 2 ghosts.
        assert!(stats.iter().all(|s| s.1 == 2));
    }

    #[test]
    fn id_translation_roundtrip() {
        let g = ring(13);
        run(3, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            for l in 0..(dg.n_local() + dg.n_ghost()) as Node {
                let gid = dg.local_to_global(l);
                assert_eq!(dg.global_to_local(gid), l);
            }
            // A global ID that is neither owned nor ghost maps to INVALID.
            // On a 13-ring split 3 ways, PE 0 owns 0..5 with ghosts 5 and 12.
            if comm.rank() == 0 {
                assert_eq!(dg.global_to_local(8), INVALID_NODE);
            }
        });
    }

    #[test]
    fn ghost_owners_and_interfaces() {
        let g = ring(12);
        run(3, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            // Every ghost's owner differs from our rank.
            for l in dg.n_local() as Node..(dg.n_local() + dg.n_ghost()) as Node {
                assert_ne!(dg.ghost_owner_of(l) as usize, comm.rank());
            }
            // Ring: first and last owned nodes are interface nodes.
            assert!(dg.is_interface(0));
            assert!(dg.is_interface(dg.n_local() as Node - 1));
            // Middle ones are not (each PE owns 4 nodes).
            assert!(!dg.is_interface(1));
            assert_eq!(dg.adjacent_pes().len(), 2);
        });
    }

    #[test]
    fn ghost_rows_reverse_the_ghost_arcs() {
        // Every fifth node is a hub, so ghosts have several owned neighbours.
        let mut edges: Vec<(Node, Node)> = (0..30).map(|i| (i, (i + 1) % 30)).collect();
        edges.extend(
            (0..30)
                .filter(|i| i % 5 != 0)
                .map(|i| (i, (i * 7) % 30 / 5 * 5)),
        );
        let g = from_edges(30, &edges);
        run(3, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let rows = dg.ghost_rows();
            let mut arcs = 0;
            for l in dg.n_local() as Node..(dg.n_local() + dg.n_ghost()) as Node {
                let expected: Vec<Node> = (0..dg.n_local() as Node)
                    .filter(|&u| dg.neighbors(u).any(|(t, _)| t == l))
                    .collect();
                assert_eq!(rows.owned_neighbors(l), expected, "ghost {l}");
                arcs += expected.len() as u64;
            }
            let nl = dg.n_local();
            let ghost_arcs = (0..nl as Node)
                .flat_map(|u| dg.neighbors(u))
                .filter(|&(t, _)| t as usize >= nl)
                .count();
            assert_eq!(arcs, ghost_arcs as u64);
        });
    }

    #[test]
    fn node_weights_include_ghosts() {
        let g = pgp_graph::GraphBuilder::new(4)
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .node_weights(vec![10, 20, 30, 40])
            .build();
        run(2, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            assert_eq!(dg.total_node_weight(), 100);
            if comm.rank() == 0 {
                // owns {0,1}, ghost {2} with weight 30
                let ghost = dg.global_to_local(2);
                assert!(dg.is_ghost(ghost));
                assert_eq!(dg.node_weight(ghost), 30);
            }
        });
    }

    #[test]
    fn from_arcs_matches_from_global() {
        let g = ring(9);
        run(3, |comm| {
            let a = DistGraph::from_global(comm, &g);
            // Reconstruct via the fully distributed path.
            let mut arcs = Vec::new();
            for u in 0..a.n_local() as Node {
                let gu = a.local_to_global(u);
                for (v, w) in a.neighbors(u) {
                    arcs.push((gu, a.local_to_global(v), w));
                }
            }
            let b = DistGraph::from_arcs(comm, 9, a.owned_weights().to_vec(), arcs);
            assert_eq!(a.n_local(), b.n_local());
            assert_eq!(a.n_ghost(), b.n_ghost());
            assert_eq!(a.total_edge_weight(), b.total_edge_weight());
            for l in 0..(a.n_local() + a.n_ghost()) as Node {
                assert_eq!(a.local_to_global(l), b.local_to_global(l));
                assert_eq!(a.node_weight(l), b.node_weight(l));
            }
        });
    }

    #[test]
    fn gather_global_roundtrips() {
        let g = ring(11);
        let gathered = run(3, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            dg.gather_global(comm)
        });
        for gg in gathered {
            assert_eq!(gg, g);
        }
    }

    #[test]
    fn unit_arc_weights_take_no_heap() {
        // K_32 on 2 PEs: arcs far outnumber nodes and ghosts, so an
        // 8 B-per-arc array shows.
        let clique = |w: Weight| {
            let mut b = pgp_graph::GraphBuilder::new(32);
            for u in 0..32 {
                for v in u + 1..32 {
                    b.push_edge(u, v, w);
                }
            }
            b.build()
        };
        let (unit, weighted) = (clique(1), clique(3));
        run(2, |comm| {
            let u = DistGraph::from_global(comm, &unit);
            let w = DistGraph::from_global(comm, &weighted);
            let arc_weights = u.local_arc_count() as usize * std::mem::size_of::<Weight>();
            assert!(!u.has_arc_weights());
            assert!(u.heap_bytes() < arc_weights);
            // What the unit form holds instead: one row of 31 ones.
            let unit_row = 31 * std::mem::size_of::<Weight>();
            assert_eq!(w.heap_bytes() + unit_row, u.heap_bytes() + arc_weights);
            assert_eq!(u.total_edge_weight() * 3, w.total_edge_weight());
            assert!(u.neighbors(0).all(|(_, x)| x == 1));
            // All ones handed over as triples are dropped again.
            let mut arcs = Vec::new();
            for l in 0..u.n_local() as Node {
                let gl = u.local_to_global(l);
                arcs.extend(u.neighbors(l).map(|(t, x)| (gl, u.local_to_global(t), x)));
            }
            let again = DistGraph::from_arcs(comm, 32, u.owned_weights().to_vec(), arcs);
            assert!(!again.has_arc_weights());
            assert_eq!(again.owned_weights(), u.owned_weights());
            for l in 0..u.n_local() as Node {
                let row = |g: &DistGraph| -> Vec<(Node, Weight)> {
                    let globals = g.neighbors(l).map(|(t, x)| (g.local_to_global(t), x));
                    globals.collect()
                };
                assert_eq!(row(&again), row(&u), "row {l}");
            }
        });
    }

    /// Rows are stored back to back in visit order exactly where the PE's
    /// own degrees look like a complex network: on every PE of the R-MAT
    /// web graph `tests/assembly.rs` weights (per-PE skew 10–21), on none
    /// of its Delaunay mesh's.
    #[test]
    fn rows_follow_the_degree_order_on_a_web_graph_only() {
        let web = pgp_gen::rmat::rmat_web(9, 8, 3);
        let mesh = pgp_gen::delaunay::delaunay_x(9, 7);
        for p in 1..=4 {
            for (g, by_degree) in [(&web, true), (&mesh, false)] {
                run(p, |comm| {
                    let dg = DistGraph::from_global(comm, g);
                    let back_to_back = |order: &[Node]| {
                        let mut at = 0;
                        for &v in order {
                            if dg.ranges[v as usize].0 != at {
                                return false;
                            }
                            at = dg.ranges[v as usize].1;
                        }
                        at == dg.adjncy.len()
                    };
                    let ids: Vec<Node> = (0..dg.n_local() as Node).collect();
                    let what = format!("by degree {by_degree}, p={p}, PE {}", comm.rank());
                    assert_eq!(back_to_back(dg.degree_order()), by_degree, "{what}");
                    assert_eq!(back_to_back(&ids), !by_degree, "{what}");
                });
            }
        }
    }

    #[test]
    fn single_pe_has_no_ghosts() {
        let g = ring(6);
        run(1, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            assert_eq!(dg.n_local(), 6);
            assert_eq!(dg.n_ghost(), 0);
            assert!(dg.adjacent_pes().is_empty());
        });
    }

    #[test]
    fn more_pes_than_nodes() {
        let g = ring(3);
        let counts = run(6, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            dg.n_local()
        });
        assert_eq!(counts.iter().sum::<usize>(), 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `owner` inverts `first`/`last_excl`: every global ID lies in the
        /// range of exactly the PE that owns it, including degenerate
        /// distributions (`n_global < p`, `n_global = 0`).
        #[test]
        fn owner_agrees_with_ranges(n_global in 0u64..10_000, p in 1usize..64, probe in 0u64..10_000) {
            let dist = BlockDist::new(n_global, p);
            // Ranges tile 0..n_global without gaps or overlap.
            let mut covered = 0u64;
            for r in 0..p {
                prop_assert_eq!(dist.first(r), covered, "gap before PE {}", r);
                prop_assert!(dist.first(r) <= dist.last_excl(r));
                prop_assert_eq!(
                    dist.count(r) as u64,
                    dist.last_excl(r) - dist.first(r)
                );
                covered = dist.last_excl(r);
            }
            prop_assert_eq!(covered, n_global, "ranges must tile 0..n_global");
            // Round-trip: owner(g) is the unique PE whose range holds g.
            if n_global > 0 {
                let g = pgp_graph::ids::global_node(probe % n_global);
                let o = dist.owner(g);
                prop_assert!(o < p);
                let gg = pgp_graph::ids::node_global(g);
                prop_assert!(dist.first(o) <= gg && gg < dist.last_excl(o));
            }
        }

        /// The empty distribution assigns every PE an empty range.
        #[test]
        fn empty_distribution_is_all_empty(p in 1usize..64) {
            let dist = BlockDist::new(0, p);
            for r in 0..p {
                prop_assert_eq!(dist.count(r), 0);
            }
        }
    }
}
