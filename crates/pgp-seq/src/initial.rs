//! Initial partitioning of the coarsest graph.
//!
//! * k ≥ 3: direct k-way greedy growing, once. k distinct seed nodes start
//!   one block each (nodes heavier than ⌈W/k⌉ first, each alone in its
//!   block). Every block below ⌈W/k⌉ absorbs its most strongly connected
//!   unassigned frontier node — the strongest such offer of all blocks
//!   first — until it reaches ⌈W/k⌉ or its frontier runs dry. What no block
//!   reached (other components, heavy nodes every block skipped) goes, node
//!   by node from the lowest ID, to the lightest block, which grows on from
//!   there. The growing is repaired by LP (an overloaded block sheds weight)
//!   and refined by one k-way FM run. A block LP or FM left empty gets a
//!   low-degree node of a block with two or more.
//! * k ≤ 2: [`recursive_bisection`] — greedy growing + two-way FM, the best
//!   of `attempts` per bisection, then the same repair and k-way FM.
//!
//! The growing costs O(m log m) time and O(n + m + k) memory whatever k is:
//! each block's frontier is a heap of every offer made to it, with the
//! connections in a hash map, so no n · k table is built even at k ≥ n.

use crate::fm::{two_way_fm, FmConfig};
use crate::heap::{GrowEntry, NodeHeap};
use pgp_graph::subgraph::induced_by_nodes;
use pgp_graph::{BlockId, CsrGraph, Node, Partition, Weight};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rustc_hash::FxHashMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration for initial partitioning.
#[derive(Clone, Debug)]
pub struct InitialConfig {
    /// Balance slack `ε`.
    pub eps: f64,
    /// Independent growing + two-way FM starts per bisection of
    /// [`recursive_bisection`]; the best cut wins. Direct k-way growing
    /// (k ≥ 3) grows once.
    pub attempts: usize,
    /// FM passes: the k-way FM run that closes either path, and the two-way
    /// FM after each bisection attempt.
    pub fm_passes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for InitialConfig {
    fn default() -> Self {
        Self {
            eps: 0.03,
            attempts: 4,
            fm_passes: 3,
            seed: 0,
        }
    }
}

/// Partitions `graph` into `k` blocks: directly by k-way growing at k ≥ 3,
/// by [`recursive_bisection`] at k ≤ 2 (module docs).
pub fn initial_partition(graph: &CsrGraph, k: usize, cfg: &InitialConfig) -> Partition {
    if k <= 2 {
        return recursive_bisection(graph, k, cfg);
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let assignment = Grower::grow(graph, k, &mut rng);
    let mut p = Partition::from_assignment(graph, k, assignment);
    repair_and_refine(graph, &mut p, cfg);
    fill_empty_blocks(graph, &mut p);
    p
}

/// Partitions `graph` into `k` blocks by recursive bisection with greedy
/// graph growing and two-way FM, then LP repair and k-way FM. The ParMetis
/// stand-in's initial partitioner (ParMetis partitions its coarsest graph
/// by recursive bisection) and [`initial_partition`]'s at k ≤ 2.
pub fn recursive_bisection(graph: &CsrGraph, k: usize, cfg: &InitialConfig) -> Partition {
    assert!(k >= 1);
    let mut assignment = vec![0 as BlockId; graph.n()];
    if k > 1 && graph.n() > 0 {
        let nodes: Vec<Node> = graph.nodes().collect();
        recurse(graph, &nodes, k, 0, cfg, cfg.seed, &mut assignment);
    }
    let mut p = Partition::from_assignment(graph, k, assignment);
    if k > 1 {
        repair_and_refine(graph, &mut p, cfg);
    }
    p
}

/// Balance repair (LP refinement's overloaded-block rule shifts weight out
/// of any block the initial partition pushed past Lmax, and
/// [`shed_arcless_nodes`] what LP cannot reach), then one k-way FM run
/// across all block borders.
fn repair_and_refine(graph: &CsrGraph, p: &mut Partition, cfg: &InitialConfig) {
    pgp_lp::seq::sclp_refine(graph, p, cfg.eps, 4, cfg.seed ^ 0xBA1A);
    shed_arcless_nodes(graph, p, cfg.eps);
    crate::fm::refine_partition(graph, p, cfg.eps, cfg.seed ^ 0xF00D, cfg.fm_passes);
}

/// Moves nodes without arcs, lowest ID first, out of every block above
/// Lmax into the lightest block while it stays within Lmax. LP and FM only
/// move a node to an adjacent block, so an arc-less node never leaves an
/// overloaded block that way; wherever it goes it cuts nothing. A
/// bisection caps a side at `⌈target·(1+ε)⌉`, which can exceed Lmax: 4
/// against Lmax 3 for a triangle plus three isolated nodes at k = 2.
fn shed_arcless_nodes(graph: &CsrGraph, p: &mut Partition, eps: f64) {
    let lmax = pgp_graph::lmax(graph.total_node_weight(), p.k(), eps);
    if p.max_block_weight() <= lmax {
        return;
    }
    let mut weights = p.block_weights().to_vec();
    let mut assignment = p.assignment().to_vec();
    // Every block, lightest first; an entry is current while its weight is
    // the block's, and one is pushed per weight change.
    let mut lightest: BinaryHeap<Reverse<(Weight, usize)>> = weights
        .iter()
        .enumerate()
        .map(|(b, &w)| Reverse((w, b)))
        .collect();
    let mut moved = false;
    for v in graph.nodes().filter(|&v| graph.degree(v) == 0) {
        let from = assignment[v as usize] as usize;
        let w = graph.node_weight(v);
        while lightest
            .peek()
            .is_some_and(|&Reverse((lw, b))| lw != weights[b])
        {
            lightest.pop();
        }
        let Some(&Reverse((_, to))) = lightest.peek() else {
            break;
        };
        if weights[from] > lmax && to != from && weights[to] + w <= lmax {
            weights[from] -= w;
            weights[to] += w;
            lightest.push(Reverse((weights[from], from)));
            lightest.push(Reverse((weights[to], to)));
            assignment[v as usize] = to as BlockId;
            moved = true;
        }
    }
    if moved {
        *p = Partition::from_assignment(graph, p.k(), assignment);
    }
}

/// A node no block has absorbed yet.
const UNASSIGNED: BlockId = BlockId::MAX;

/// The state of one k-way greedy growing.
struct Grower {
    /// Every block grows towards ⌈W/k⌉.
    target: Weight,
    /// Each node's block, [`UNASSIGNED`] until absorbed.
    block: Vec<BlockId>,
    weights: Vec<Weight>,
    /// Each block's frontier: a heap of the offers of the unassigned nodes
    /// next to it, most strongly connected first (a random tie-break per
    /// node among equals), each at the node's connection to the block when
    /// offered. A node's latest offer pops before its stale ones; offers of
    /// absorbed nodes, or of nodes the block skipped (for good: a block only
    /// gets heavier), are dropped when they reach the top.
    frontier: Vec<BinaryHeap<GrowEntry>>,
    /// Each (node, block) connection so far, keyed `node << 32 | block`: at
    /// most one key, like one offer, per arc, whatever k is. Sized for one
    /// key per arc up front, so it never rehashes (×0.96 `evo_k32` wall).
    connection: FxHashMap<u64, Weight>,
    /// Each node's random tie-break.
    tiebreak: Vec<u64>,
    /// Every block below the target with an offer it may take, at its best
    /// offer (the lowest ID among equals), so the strongest offer of all is
    /// taken next. At most one entry per block; an entry whose node another
    /// block took is re-keyed when it pops.
    growing: BinaryHeap<(GrowEntry, Reverse<BlockId>)>,
    /// Every block, lightest first, where leftovers go. An entry is current
    /// while its weight is the block's; one is pushed per weight change.
    lightest: BinaryHeap<Reverse<(Weight, BlockId)>>,
}

impl Grower {
    /// Grows all k blocks at once (module docs) and returns each node's
    /// block.
    fn grow(graph: &CsrGraph, k: usize, rng: &mut SmallRng) -> Vec<BlockId> {
        let n = graph.n();
        let target = graph.total_node_weight().div_ceil(k as Weight);
        let mut grower = Self {
            target,
            block: vec![UNASSIGNED; n],
            weights: vec![0; k],
            frontier: (0..k).map(|_| BinaryHeap::new()).collect(),
            connection: FxHashMap::with_capacity_and_hasher(graph.num_arcs(), Default::default()),
            tiebreak: (0..n).map(|_| rng.gen()).collect(),
            growing: BinaryHeap::new(),
            lightest: (0..k as BlockId).map(|b| Reverse((0, b))).collect(),
        };
        // Nodes heavier than the target, heaviest first, at most k, seed
        // the first blocks, so each sits alone in a block that never grows
        // instead of landing, as a leftover, on top of one. Distinct random
        // seeds (all nodes when k ≥ n) start the others.
        let (mut pinned, mut order): (Vec<Node>, Vec<Node>) =
            graph.nodes().partition(|&v| graph.node_weight(v) > target);
        pinned.sort_by_key(|&v| Reverse(graph.node_weight(v)));
        order.extend(pinned.drain(k.min(pinned.len())..));
        for (b, &v) in pinned.iter().enumerate() {
            grower.absorb(graph, v, b as BlockId);
        }
        for i in 0..k.min(n) - pinned.len() {
            let j = rng.gen_range(i..order.len());
            order.swap(i, j);
            grower.absorb(graph, order[i], (pinned.len() + i) as BlockId);
        }
        for b in 0..k.min(n) as BlockId {
            grower.queue(graph, b);
        }
        let mut untouched = 0;
        loop {
            if let Some((offer, Reverse(b))) = grower.growing.pop() {
                match grower.best_offer(graph, b) {
                    Some(best) if best == offer => {
                        grower.frontier[b as usize].pop();
                        grower.absorb(graph, offer.2, b);
                        grower.queue(graph, b);
                    }
                    Some(best) => grower.growing.push((best, Reverse(b))),
                    None => {}
                }
                continue;
            }
            // No block can grow: the first unassigned node goes to the
            // lightest block, which grows on from it.
            let Some(v) = (untouched..n).find(|&v| grower.block[v] == UNASSIGNED) else {
                break;
            };
            untouched = v + 1;
            let b = grower.lightest_block();
            grower.absorb(graph, v as Node, b);
            grower.queue(graph, b);
        }
        grower.block
    }

    /// Puts `v` into block `b` and offers its unassigned neighbours to `b`:
    /// each one's connection to `b` rises by the arc between them.
    fn absorb(&mut self, graph: &CsrGraph, v: Node, b: BlockId) {
        self.block[v as usize] = b;
        let w = graph.node_weight(v);
        if w > 0 {
            self.weights[b as usize] += w;
            self.lightest.push(Reverse((self.weights[b as usize], b)));
        }
        for (u, w) in graph.neighbors_weighted(v) {
            if self.block[u as usize] == UNASSIGNED {
                let c = self
                    .connection
                    .entry(u64::from(u) << 32 | u64::from(b))
                    .or_insert(0);
                *c += w;
                self.frontier[b as usize].push((*c, Reverse(self.tiebreak[u as usize]), u));
            }
        }
    }

    /// Queues `b` at its best offer while it is below the target.
    fn queue(&mut self, graph: &CsrGraph, b: BlockId) {
        if self.weights[b as usize] < self.target {
            if let Some(offer) = self.best_offer(graph, b) {
                self.growing.push((offer, Reverse(b)));
            }
        }
    }

    /// `b`'s most strongly connected unassigned frontier node's offer, left
    /// on top of its frontier. Offers of absorbed nodes are dropped on the
    /// way, and so is a node that would move `b` further past the target
    /// than stopping short leaves it — for good, as `b` only gets heavier.
    fn best_offer(&mut self, graph: &CsrGraph, b: BlockId) -> Option<GrowEntry> {
        let (grown, target) = (self.weights[b as usize], self.target);
        let frontier = &mut self.frontier[b as usize];
        while let Some(&offer) = frontier.peek() {
            let u = offer.2;
            let w = graph.node_weight(u);
            let overshoots = grown + w > target && grown + w - target > target - grown;
            if self.block[u as usize] == UNASSIGNED && !overshoots {
                return Some(offer);
            }
            frontier.pop();
        }
        None
    }

    /// The lightest block (the lowest ID among equals).
    fn lightest_block(&mut self) -> BlockId {
        loop {
            let Reverse((w, b)) = *self.lightest.peek().expect("one entry per block");
            if w == self.weights[b as usize] {
                return b;
            }
            self.lightest.pop();
        }
    }
}

/// Gives every empty block one node while a block has two or more, so a
/// partition of n ≥ k nodes uses all k blocks: nodes are taken in
/// increasing-degree order (isolated nodes first, which cut nothing). A
/// moved node leaves a block at least as heavy as itself, so the heaviest
/// block never gets heavier.
fn fill_empty_blocks(graph: &CsrGraph, p: &mut Partition) {
    let k = p.k();
    let mut count = vec![0usize; k];
    for &b in p.assignment() {
        count[b as usize] += 1;
    }
    let mut empty = (0..k as BlockId)
        .filter(|&b| count[b as usize] == 0)
        .collect::<Vec<_>>();
    if empty.is_empty() {
        return;
    }
    empty.reverse();
    let mut assignment = p.assignment().to_vec();
    for v in pgp_graph::ordering::degree_order(graph) {
        let from = assignment[v as usize] as usize;
        if count[from] < 2 {
            continue;
        }
        let Some(to) = empty.pop() else { break };
        count[from] -= 1;
        count[to as usize] = 1;
        assignment[v as usize] = to;
    }
    *p = Partition::from_assignment(graph, k, assignment);
}

/// Recursively bisects the subgraph induced by `nodes` into blocks
/// `base..base + k`.
fn recurse(
    graph: &CsrGraph,
    nodes: &[Node],
    k: usize,
    base: BlockId,
    cfg: &InitialConfig,
    seed: u64,
    out: &mut [BlockId],
) {
    if k == 1 || nodes.len() <= 1 {
        for &v in nodes {
            out[v as usize] = base;
        }
        return;
    }
    if nodes.len() <= k {
        // As many nodes as blocks (or fewer): singleton blocks.
        for (i, &v) in nodes.iter().enumerate() {
            out[v as usize] = base + (i as BlockId).min(k as BlockId - 1);
        }
        return;
    }
    let sub = induced_by_nodes(graph, nodes);
    let k0 = k / 2;
    let k1 = k - k0;
    let total = sub.graph.total_node_weight();
    let target0 = total * k0 as Weight / k as Weight;
    // Intermediate bisections get only part of the slack so the leaf blocks
    // stay within the global eps despite multiplicative drift.
    let local_cfg = if k > 2 {
        InitialConfig {
            eps: cfg.eps * 0.4,
            ..cfg.clone()
        }
    } else {
        cfg.clone()
    };
    let side = bisect(&sub.graph, target0, &local_cfg, seed);
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (local, &s) in side.iter().enumerate() {
        if s == 0 {
            left.push(sub.to_parent[local]);
        } else {
            right.push(sub.to_parent[local]);
        }
    }
    recurse(
        graph,
        &left,
        k0,
        base,
        cfg,
        seed.wrapping_mul(0x1234_5677).wrapping_add(1),
        out,
    );
    recurse(
        graph,
        &right,
        k1,
        base + k0 as BlockId,
        cfg,
        seed.wrapping_mul(0x5678_ABCD).wrapping_add(2),
        out,
    );
}

/// Bisects `graph` into sides 0/1 with side-0 target weight `target0`,
/// using `attempts` greedy-growing starts each followed by 2-way FM; the
/// best resulting cut — as FM's gain rows report it — wins.
pub fn bisect(graph: &CsrGraph, target0: Weight, cfg: &InitialConfig, seed: u64) -> Vec<Node> {
    let n = graph.n();
    let total = graph.total_node_weight();
    let target1 = total - target0;
    let cap0 = ((target0 as f64) * (1.0 + cfg.eps)).ceil() as Weight;
    let cap1 = ((target1 as f64) * (1.0 + cfg.eps)).ceil() as Weight;
    let mut rng = SmallRng::seed_from_u64(seed);

    let mut best: Option<(u64, Vec<Node>)> = None;
    for _ in 0..cfg.attempts.max(1) {
        let mut side = grow(graph, target0, &mut rng);
        let (_, cut) = two_way_fm(
            graph,
            &mut side,
            &FmConfig {
                max_passes: cfg.fm_passes,
                block_caps: vec![cap0.max(1), cap1.max(1)],
                seed: rng.gen(),
                patience: 32,
            },
        );
        if best.as_ref().is_none_or(|(bc, _)| cut < *bc) {
            best = Some((cut, side));
        }
    }
    best.map(|(_, s)| s).unwrap_or_else(|| vec![0; n])
}

/// Greedy graph growing: start from a random seed node, repeatedly absorb
/// the frontier node with the strongest connection to the growing side,
/// until the side-0 target weight is reached. Everything else is side 1.
///
/// Every offer of a frontier node draws one random tie-break, and the heap
/// keeps the node once, at the largest `(connection, tie-break)` offered.
/// That pops nodes in the order a heap of every offer would: a node's first
/// pop is at its largest entry either way, and whatever such a heap pops of
/// it afterwards changes nothing — an absorbed node is never offered again,
/// and the skip rule `2 · grown + w > 2 · target0` only gets truer as
/// `grown` rises, so a skipped node stays skipped.
fn grow(graph: &CsrGraph, target0: Weight, rng: &mut SmallRng) -> Vec<Node> {
    let n = graph.n();
    let mut side = vec![1 as Node; n];
    if n == 0 || target0 == 0 {
        return side;
    }
    let start = rng.gen_range(0..n as Node);
    let mut grown: Weight = 0;
    // Max-heap on (connection strength, random tiebreak).
    let mut heap = NodeHeap::new(n);
    heap.offer((0, Reverse(rng.gen()), start));
    let mut in_heap_or_grown = vec![false; n];
    in_heap_or_grown[start as usize] = true;
    // Restart candidates: no node below the cursor is untouched (flags are
    // never cleared), so the scan resumes where the last one stopped.
    let mut untouched = 0 as Node;
    while grown < target0 {
        let Some((_, _, v)) = heap.pop() else {
            // Disconnected graph: restart from the first untouched node.
            match (untouched..n as Node).find(|&v| !in_heap_or_grown[v as usize]) {
                Some(v) => {
                    untouched = v + 1;
                    in_heap_or_grown[v as usize] = true;
                    heap.offer((0, Reverse(rng.gen()), v));
                    continue;
                }
                None => break,
            }
        };
        let w = graph.node_weight(v);
        // Don't absorb a node that moves us further from the target than
        // stopping here would (heavy nodes near the end of growth).
        if grown + w > target0 && (grown + w - target0) > (target0 - grown) {
            continue;
        }
        side[v as usize] = 0;
        grown += w;
        for (u, w) in graph.neighbors_weighted(v) {
            if side[u as usize] == 1 {
                in_heap_or_grown[u as usize] = true;
                heap.offer((w, Reverse(rng.gen()), u));
            }
        }
    }
    side
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bipartition_of_grid_is_balanced_and_decent() {
        let g = pgp_gen::mesh::grid2d(16, 16);
        let p = initial_partition(&g, 2, &InitialConfig::default());
        p.validate(&g, 0.05).unwrap();
        // Optimal is 16; anything below 3x optimal is acceptable for an
        // initial partition.
        assert!(p.edge_cut(&g) <= 48, "cut {}", p.edge_cut(&g));
    }

    #[test]
    fn kway_partition_validity_for_many_k() {
        let (g, _) = pgp_gen::sbm::sbm(400, pgp_gen::sbm::SbmParams::default(), 3);
        for k in [2, 3, 5, 8, 16] {
            let p = initial_partition(
                &g,
                k,
                &InitialConfig {
                    seed: k as u64,
                    ..Default::default()
                },
            );
            assert_eq!(p.k(), k);
            // Recursive bisection with eps splits can drift slightly above
            // the global eps; allow a loose factor here.
            assert!(
                p.validate(&g, 0.15).is_ok(),
                "k = {k}: imbalance {}",
                p.imbalance(&g)
            );
            assert_eq!(p.nonempty_blocks(), k, "k = {k}");
        }
    }

    #[test]
    fn k1_is_trivial() {
        let g = pgp_gen::mesh::grid2d(5, 5);
        let p = initial_partition(&g, 1, &InitialConfig::default());
        assert_eq!(p.edge_cut(&g), 0);
        assert_eq!(p.nonempty_blocks(), 1);
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = pgp_graph::builder::from_edges(8, &[(0, 1), (1, 2), (4, 5), (5, 6)]);
        let p = initial_partition(&g, 2, &InitialConfig::default());
        p.validate(&g, 0.30).unwrap();
        assert_eq!(p.nonempty_blocks(), 2);
    }

    #[test]
    fn two_triangles_bisect_on_the_bridge() {
        let g = pgp_graph::builder::from_edges(
            6,
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        );
        let p = initial_partition(
            &g,
            2,
            &InitialConfig {
                attempts: 6,
                ..Default::default()
            },
        );
        assert_eq!(p.edge_cut(&g), 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = pgp_gen::ba::barabasi_albert(200, 2, 8);
        let cfg = InitialConfig {
            seed: 5,
            ..Default::default()
        };
        let a = initial_partition(&g, 4, &cfg);
        let b = initial_partition(&g, 4, &cfg);
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn weighted_bisection_targets() {
        // Path of 4 heavy + 4 light nodes; target0 = half the weight.
        let g = pgp_graph::GraphBuilder::new(8)
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .add_edge(3, 4)
            .add_edge(4, 5)
            .add_edge(5, 6)
            .add_edge(6, 7)
            .node_weights(vec![4, 4, 4, 4, 1, 1, 1, 1])
            .build();
        let cfg = InitialConfig {
            attempts: 4,
            ..Default::default()
        };
        let side = bisect(&g, 10, &cfg, 3);
        let w0: Weight = g
            .nodes()
            .filter(|&v| side[v as usize] == 0)
            .map(|v| g.node_weight(v))
            .sum();
        assert!((8..=12).contains(&w0), "side-0 weight {w0}");
    }

    /// k = 2 is recursive bisection, byte for byte.
    #[test]
    fn k2_is_recursive_bisection() {
        let graphs = [
            pgp_gen::mesh::grid2d(16, 16),
            pgp_gen::sbm::sbm(400, pgp_gen::sbm::SbmParams::default(), 3).0,
            pgp_graph::builder::from_edges(8, &[(0, 1), (1, 2), (4, 5), (5, 6)]),
        ];
        for (i, g) in graphs.iter().enumerate() {
            for seed in 0..4 {
                let cfg = InitialConfig {
                    seed,
                    ..Default::default()
                };
                assert_eq!(
                    initial_partition(g, 2, &cfg).assignment(),
                    recursive_bisection(g, 2, &cfg).assignment(),
                    "graph {i}, seed {seed}"
                );
            }
        }
    }

    /// Empty blocks get nodes of blocks with two or more, lowest degree
    /// first, and the heaviest block gets no heavier.
    #[test]
    fn empty_blocks_are_filled_from_shared_blocks() {
        let g = pgp_graph::GraphBuilder::new(6)
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(3, 4)
            .node_weights(vec![1, 5, 1, 2, 2, 1])
            .build();
        let mut p = Partition::from_assignment(&g, 5, vec![0, 0, 0, 1, 1, 4]);
        let before = p.max_block_weight();
        fill_empty_blocks(&g, &mut p);
        // Isolated node 5 is alone in block 4; degree-1 nodes 0, 2, 3, 4
        // come next, and block 1 keeps one of its two.
        assert_eq!(p.assignment(), &[2, 0, 3, 1, 1, 4]);
        assert!(p.max_block_weight() <= before);
    }

    /// `n` nodes in `comps` components plus `isolated` nodes without arcs;
    /// each edge of `edges` is moved into the component of its first
    /// endpoint. Node weights cycle through `weights` (zeros included), and
    /// node `heavy % n` weighs as much as all others together plus one.
    fn messy_graph(
        n: usize,
        comps: usize,
        isolated: usize,
        edges: &[(u32, u32, u64)],
        weights: &[Weight],
        heavy: usize,
    ) -> CsrGraph {
        let linked = (n - isolated.min(n - 1)) as u32;
        let comps = comps.clamp(1, linked as usize) as u32;
        let span = linked.div_ceil(comps);
        let mut b = pgp_graph::GraphBuilder::new(n);
        for &(u, v, w) in edges {
            let u = u % linked;
            let start = u / span * span;
            let v = start + v % (linked - start).min(span);
            if u != v {
                b.push_edge(u, v, w);
            }
        }
        let mut ws: Vec<Weight> = (0..n).map(|v| weights[v % weights.len()]).collect();
        let heavy = heavy % n;
        ws[heavy] = ws.iter().sum::<Weight>() + 1;
        b.node_weights(ws).build()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Many components, isolated nodes, zero-weight nodes, a node
        /// heavier than W/k, and k ∈ {3, n/2, n, n + 3}: exactly k blocks,
        /// min(n, k) of them used (all k when n ≥ k), the same result for
        /// the same seed, and a heaviest block within Lmax or no heavier than
        /// recursive bisection's.
        #[test]
        fn kway_growing_on_messy_graphs(
            n in 8usize..60,
            comps in 1usize..6,
            isolated in 0usize..8,
            edges in proptest::collection::vec((0u32..60, 0u32..60, 0u64..4), 0..160),
            weights in proptest::collection::vec(0u64..4, 1..6),
            heavy in 0usize..60,
            kind in 0usize..4,
            seed in 0u64..1000,
        ) {
            let g = messy_graph(n, comps, isolated, &edges, &weights, heavy);
            let k = [3, n / 2, n, n + 3][kind];
            let cfg = InitialConfig { seed, ..Default::default() };
            let p = initial_partition(&g, k, &cfg);
            proptest::prop_assert_eq!(p.k(), k);
            let used: std::collections::BTreeSet<BlockId> = p.assignment().iter().copied().collect();
            proptest::prop_assert!(used.iter().all(|&b| (b as usize) < k));
            proptest::prop_assert_eq!(used.len(), n.min(k));
            proptest::prop_assert_eq!(initial_partition(&g, k, &cfg).assignment(), p.assignment());
            let rb = recursive_bisection(&g, k, &cfg);
            let l = pgp_graph::lmax(g.total_node_weight(), k, cfg.eps);
            proptest::prop_assert!(
                p.max_block_weight() <= rb.max_block_weight().max(l),
                "k = {}: heaviest block {} against recursive bisection's {} (Lmax {})",
                k, p.max_block_weight(), rb.max_block_weight(), l
            );
        }
    }

    /// Growing before the indexed heap: a lazy heap of every offer, stale
    /// entries skipped at the pop. The oracle for [`grow`]; also counts the
    /// restarts and the pops the skip rule turns away.
    fn reference_grow(
        graph: &CsrGraph,
        target0: Weight,
        rng: &mut SmallRng,
        (restarts, skips): (&mut usize, &mut usize),
    ) -> Vec<Node> {
        use std::collections::BinaryHeap;
        let n = graph.n();
        let mut side = vec![1 as Node; n];
        if n == 0 || target0 == 0 {
            return side;
        }
        let start = rng.gen_range(0..n as Node);
        let mut grown: Weight = 0;
        let mut heap: BinaryHeap<crate::heap::GrowEntry> = BinaryHeap::new();
        heap.push((0, Reverse(rng.gen()), start));
        let mut in_heap_or_grown = vec![false; n];
        in_heap_or_grown[start as usize] = true;
        let mut untouched = 0 as Node;
        while grown < target0 {
            let Some((_, _, v)) = heap.pop() else {
                match (untouched..n as Node).find(|&v| !in_heap_or_grown[v as usize]) {
                    Some(v) => {
                        untouched = v + 1;
                        in_heap_or_grown[v as usize] = true;
                        heap.push((0, Reverse(rng.gen()), v));
                        *restarts += 1;
                        continue;
                    }
                    None => break,
                }
            };
            if side[v as usize] == 0 {
                continue;
            }
            let w = graph.node_weight(v);
            if grown + w > target0 && (grown + w - target0) > (target0 - grown) {
                *skips += 1;
                continue;
            }
            side[v as usize] = 0;
            grown += w;
            for (u, w) in graph.neighbors_weighted(v) {
                if side[u as usize] == 1 {
                    in_heap_or_grown[u as usize] = true;
                    heap.push((w, Reverse(rng.gen()), u));
                }
            }
        }
        side
    }

    /// Components of different sizes, isolated nodes and heavy nodes (so
    /// growing restarts, and skips nodes that would overshoot), arcs of
    /// weight 0..=2: the indexed heap grows the side the lazy heap grows and
    /// leaves the random stream where the lazy heap leaves it.
    #[test]
    fn grow_matches_the_lazy_heap_on_disconnected_heavy_graphs() {
        let (mut restarts, mut skips) = (0, 0);
        for case in 0..40u64 {
            let mut b = pgp_graph::GraphBuilder::new(60);
            let mut base = 0;
            for (i, size) in [11u32, 3, 17, 1, 8, 6].into_iter().enumerate() {
                for j in 1..size {
                    let w = (case + u64::from(j)) % 3;
                    b.push_edge(base + j, base + (j * 7 + case as u32) % j, w);
                    if (i as u32 + j).is_multiple_of(3) {
                        b.push_edge(base + j, base + (j + 1) % size, 1);
                    }
                }
                base += size;
            }
            let weights = (0..60u64)
                .map(|v| {
                    if (v + case).is_multiple_of(9) {
                        12
                    } else {
                        1 + v % 3
                    }
                })
                .collect();
            let g = b.node_weights(weights).build();
            let total = g.total_node_weight();
            for target0 in [total / 2, total / 3, 13, 1] {
                let mut rng = SmallRng::seed_from_u64(case);
                let mut want_rng = rng.clone();
                let got = grow(&g, target0, &mut rng);
                let want = reference_grow(&g, target0, &mut want_rng, (&mut restarts, &mut skips));
                assert_eq!(got, want, "case {case}, target {target0}");
                assert_eq!(rng.gen::<u64>(), want_rng.gen::<u64>());
            }
        }
        assert!(
            restarts > 0 && skips > 0,
            "{restarts} restarts, {skips} skips"
        );
    }
}
