//! k-way Fiduccia–Mattheyses local search with hill climbing and rollback.
//!
//! KaHIP's refinement toolbox is much richer (flows, multi-try FM); this is
//! the "lite" k-way boundary FM that provides the non-worsening guarantee
//! the combine operator relies on: each pass applies a sequence of moves
//! (possibly through negative-gain territory), then rolls back to the best
//! prefix, so the cut never increases.
//!
//! One pass loop, three ways to answer "the best move for `v`" (DESIGN.md §8,
//! *Sequential FM*). Each gives exactly the answer a fresh scan of `v`'s
//! arcs gives and draws the same random numbers, so the heap, the moves and
//! the rollbacks do not depend on which one runs:
//! * k = 2: `TwoWay` caches every node's connection to both blocks once per
//!   call and updates the rows of a mover's neighbours — rollbacks included —
//!   so a candidate costs O(1) instead of a re-scan, and the rows carry the
//!   cut along;
//! * k ≥ 3 with `n · k ≤ 2 · arcs`: `Table` caches every node's connection
//!   to every block and the offset of its first arc into each, and marks
//!   those first arcs in a bit per arc; a candidate walks the marked arcs of
//!   `v`'s row, which are the blocks in first-touch order, the order ties
//!   are drawn in;
//! * k ≥ 3 otherwise (k close to n, where the table would take n² entries):
//!   `Dense` re-scans `v`'s arcs into a dense `conn[k]` table and walks the
//!   blocks in first-touch order.
//!
//! The pass keeps each unlocked node's latest candidate once, in an indexed
//! max-heap keyed by node.

use crate::heap::NodeHeap;
use pgp_graph::{CsrGraph, Node, Weight};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;

/// Configuration for a k-way FM run.
#[derive(Clone, Debug)]
pub struct FmConfig {
    /// Maximum improvement passes.
    pub max_passes: usize,
    /// Per-block weight caps (usually `Lmax` for every block).
    pub block_caps: Vec<Weight>,
    /// RNG seed (tie shuffling).
    pub seed: u64,
    /// Abort a pass after this many consecutive non-improving moves
    /// (hill-climb patience); `0` disables hill climbing.
    pub patience: usize,
}

/// Result of an FM run — the unified pass-metric type from `pgp-obs`
/// (`rounds` = passes executed, `moves` = moves kept after rollbacks,
/// `gain` = total cut improvement across all passes).
///
/// `edges_scanned` counts the arc entries FM reads, by gain source:
/// * k = 2 (cached rows): every arc once per call, plus the mover's row for
///   every applied move and once more for every rolled-back one;
/// * k ≥ 3, table: every arc once per call to build it, plus the mover's row
///   for every applied or rolled-back move, plus the arcs a forward scan for
///   a neighbour's new first arc into the mover's old block reads, plus, per
///   evaluated node, the first-arc entries of its row (one per adjacent
///   block, its own included);
/// * k ≥ 3, dense: the row of every evaluated node.
pub type FmStats = pgp_obs::PassStats;

/// Runs k-way FM on `labels` (block IDs, in place). Returns statistics;
/// the cut never increases and the block caps are never violated
/// (assuming the input respects them; overloaded inputs are tolerated —
/// moves out of overloaded blocks are always allowed).
pub fn kway_fm(graph: &CsrGraph, k: usize, labels: &mut [Node], cfg: &FmConfig) -> FmStats {
    assert_eq!(labels.len(), graph.n());
    assert_eq!(cfg.block_caps.len(), k);
    if graph.n() == 0 || k < 2 {
        return FmStats::default();
    }
    if k == 2 {
        two_way_fm(graph, labels, cfg).0
    } else if takes_table(graph, k) {
        let mut built = 0;
        let mut stats = run(
            graph,
            labels,
            cfg,
            &mut Table::new(graph, k, labels, &mut built),
        );
        stats.edges_scanned += built;
        stats
    } else {
        run(graph, labels, cfg, &mut Dense::new(k))
    }
}

/// Whether k-way FM keeps the per-(node, block) table: when `n · k ≤ 2 ·
/// arcs` its 12 bytes per entry come to at most 24 per arc, O(m) like the
/// graph. Beyond that (k close to n) only `Dense` is safe.
fn takes_table(graph: &CsrGraph, k: usize) -> bool {
    graph.n() as u128 * k as u128 <= 2 * graph.num_arcs() as u128
}

/// Two-way FM on `labels` (sides 0 / 1, in place): [`kway_fm`] at k = 2,
/// also returning the cut of the result, which the gain rows keep current,
/// so a caller needs no recount.
pub(crate) fn two_way_fm(
    graph: &CsrGraph,
    labels: &mut [Node],
    cfg: &FmConfig,
) -> (FmStats, Weight) {
    assert_eq!(labels.len(), graph.n());
    assert_eq!(cfg.block_caps.len(), 2);
    let mut built = 0;
    let mut gains = TwoWay::new(graph, labels, &mut built);
    let mut stats = run(graph, labels, cfg, &mut gains);
    stats.edges_scanned += built;
    (stats, gains.cut)
}

/// Where a pass gets a node's best move from.
trait Gains {
    /// The best move for `v`: `(gain, target)` over eligible blocks, or
    /// `None` when no other block is adjacent/eligible. Ties between blocks
    /// of equal gain are broken by `rng`, in first-touch order.
    #[allow(clippy::too_many_arguments)]
    fn best_move(
        &mut self,
        graph: &CsrGraph,
        labels: &[Node],
        weights: &[Weight],
        caps: &[Weight],
        v: Node,
        rng: &mut SmallRng,
        scanned: &mut u64,
    ) -> Option<(i64, Node)>;

    /// `v` has just moved from block `from` to block `to` — applied, or
    /// rolled back with `from` and `to` swapped; `labels` already holds `to`
    /// for `v`.
    fn moved(
        &mut self,
        graph: &CsrGraph,
        labels: &[Node],
        v: Node,
        from: Node,
        to: Node,
        scanned: &mut u64,
    );
}

/// The best of the candidate blocks offered in first-touch order: a larger
/// gain wins, and the i-th block of equal gain replaces the pick with
/// probability 1/i.
#[derive(Default)]
struct Pick {
    best: Option<(i64, Node)>,
    ties: u32,
}

impl Pick {
    fn offer(&mut self, gain: i64, b: Node, rng: &mut SmallRng) {
        match self.best {
            Some((bg, _)) if gain < bg => {}
            Some((bg, _)) if gain == bg => {
                self.ties += 1;
                if rng.gen_range(0..self.ties) == 0 {
                    self.best = Some((gain, b));
                }
            }
            _ => {
                self.best = Some((gain, b));
                self.ties = 1;
            }
        }
    }
}

/// k ≥ 3, k close to n: every candidate re-scans the node's arcs into a
/// dense table.
struct Dense {
    /// Connection of the scanned node to each block.
    conn: Vec<Weight>,
    /// Whether an arc reached the block — a zero-weight arc makes a block
    /// adjacent without raising `conn`, so `conn == 0` cannot stand in.
    seen: Vec<bool>,
    /// The blocks reached, in first-touch order.
    touched: Vec<Node>,
}

impl Dense {
    fn new(k: usize) -> Self {
        Self {
            conn: vec![0; k],
            seen: vec![false; k],
            touched: Vec::new(),
        }
    }
}

impl Gains for Dense {
    fn best_move(
        &mut self,
        graph: &CsrGraph,
        labels: &[Node],
        weights: &[Weight],
        caps: &[Weight],
        v: Node,
        rng: &mut SmallRng,
        scanned: &mut u64,
    ) -> Option<(i64, Node)> {
        let cur = labels[v as usize];
        for (u, w) in graph.neighbors_weighted(v) {
            let b = labels[u as usize];
            if !self.seen[b as usize] {
                self.seen[b as usize] = true;
                self.touched.push(b);
            }
            self.conn[b as usize] += w;
        }
        *scanned += graph.degree(v) as u64;
        let internal = self.conn[cur as usize] as i64;
        let cw = graph.node_weight(v);
        let mut pick = Pick::default();
        for b in self.touched.drain(..) {
            let w = std::mem::take(&mut self.conn[b as usize]);
            self.seen[b as usize] = false;
            if b == cur || weights[b as usize] + cw > caps[b as usize] {
                continue;
            }
            pick.offer(w as i64 - internal, b, rng);
        }
        pick.best
    }

    fn moved(&mut self, _: &CsrGraph, _: &[Node], _: Node, _: Node, _: Node, _: &mut u64) {}
}

/// Offset of "no arc into this block" in [`Table::first`].
const NONE: u32 = u32::MAX;

/// k ≥ 3 with `n · k ≤ 2 · arcs`: every node's connection to every block
/// and the offset of its first arc into each, built once per call and kept
/// current as nodes move and as rollbacks move them back.
///
/// A fresh scan of `v`'s row meets the blocks in the order of their first
/// arcs, so walking the marked first arcs in position order is the scan's
/// first-touch order, and ties draw as they do in `Dense`. A zero-weight arc
/// has a first-arc offset like any other, so it still makes its block
/// adjacent.
struct Table {
    k: usize,
    /// Per node, the index of its row's first arc (`n + 1` entries).
    row_start: Vec<usize>,
    /// Per arc, the offset of its reverse arc in its target's row.
    twin: Vec<u32>,
    /// One bit per arc, set iff the arc is its row's first into its
    /// target's block.
    first_arcs: Vec<u64>,
    /// `conn[v · k + b]`: the summed weight of `v`'s arcs into block `b`.
    conn: Vec<Weight>,
    /// `first[v · k + b]`: the offset in `v`'s row of its first arc into
    /// block `b`, or `NONE`.
    first: Vec<u32>,
}

impl Table {
    /// Builds the table of `labels`, reading every arc once.
    fn new(graph: &CsrGraph, k: usize, labels: &[Node], scanned: &mut u64) -> Self {
        let mut row_start = Vec::with_capacity(graph.n() + 1);
        row_start.push(0);
        for v in graph.nodes() {
            row_start.push(row_start[v as usize] + graph.degree(v));
        }
        let mut table = Self {
            k,
            row_start,
            twin: graph.twin_offsets(),
            first_arcs: vec![0; graph.num_arcs().div_ceil(64)],
            conn: vec![0; graph.n() * k],
            first: vec![NONE; graph.n() * k],
        };
        for v in graph.nodes() {
            let (base, lo) = (v as usize * k, table.row_start[v as usize]);
            for (i, (u, w)) in graph.neighbors_weighted(v).enumerate() {
                let entry = base + labels[u as usize] as usize;
                table.conn[entry] += w;
                if table.first[entry] == NONE {
                    table.first[entry] = i as u32;
                    table.mark(lo + i, true);
                }
            }
        }
        *scanned += graph.num_arcs() as u64;
        table
    }

    fn mark(&mut self, arc: usize, first: bool) {
        let bit = 1u64 << (arc % 64);
        if first {
            self.first_arcs[arc / 64] |= bit;
        } else {
            self.first_arcs[arc / 64] &= !bit;
        }
    }

    /// The marked arcs in `lo..hi`, in position order.
    fn first_arcs_in(&self, lo: usize, hi: usize) -> impl Iterator<Item = usize> + '_ {
        (lo / 64..hi.div_ceil(64)).flat_map(move |w| {
            let mut word = self.first_arcs[w];
            if w * 64 < lo {
                word &= !0 << (lo % 64);
            }
            if (w + 1) * 64 > hi {
                word &= (1 << (hi % 64)) - 1;
            }
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

impl Gains for Table {
    fn best_move(
        &mut self,
        graph: &CsrGraph,
        labels: &[Node],
        weights: &[Weight],
        caps: &[Weight],
        v: Node,
        rng: &mut SmallRng,
        scanned: &mut u64,
    ) -> Option<(i64, Node)> {
        let cur = labels[v as usize];
        let base = v as usize * self.k;
        let internal = self.conn[base + cur as usize] as i64;
        let cw = graph.node_weight(v);
        let row = graph.neighbor_slice(v);
        let (lo, hi) = (self.row_start[v as usize], self.row_start[v as usize + 1]);
        let mut pick = Pick::default();
        for arc in self.first_arcs_in(lo, hi) {
            *scanned += 1;
            let b = labels[row[arc - lo] as usize];
            if b == cur || weights[b as usize] + cw > caps[b as usize] {
                continue;
            }
            pick.offer(self.conn[base + b as usize] as i64 - internal, b, rng);
        }
        pick.best
    }

    fn moved(
        &mut self,
        graph: &CsrGraph,
        labels: &[Node],
        v: Node,
        from: Node,
        to: Node,
        scanned: &mut u64,
    ) {
        let lo = self.row_start[v as usize];
        for (i, (u, w)) in graph.neighbors_weighted(v).enumerate() {
            // `u`'s arc at offset `r` now points into `to` instead of `from`.
            let r = self.twin[lo + i];
            let (base, start) = (u as usize * self.k, self.row_start[u as usize]);
            let (from_entry, to_entry) = (base + from as usize, base + to as usize);
            self.conn[from_entry] -= w;
            self.conn[to_entry] += w;
            if self.first[from_entry] == r {
                self.mark(start + r as usize, false);
                let rest = &graph.neighbor_slice(u)[r as usize + 1..];
                match rest.iter().position(|&y| labels[y as usize] == from) {
                    Some(s) => {
                        *scanned += s as u64 + 1;
                        self.first[from_entry] = r + 1 + s as u32;
                        self.mark(start + r as usize + 1 + s, true);
                    }
                    None => {
                        *scanned += rest.len() as u64;
                        self.first[from_entry] = NONE;
                    }
                }
            }
            let first_to = self.first[to_entry];
            if r < first_to {
                if first_to != NONE {
                    self.mark(start + first_to as usize, false);
                }
                self.first[to_entry] = r;
                self.mark(start + r as usize, true);
            }
        }
        *scanned += graph.degree(v) as u64;
    }
}

/// k = 2: every node's connection to both blocks, built once per call and
/// kept current as nodes move and as rollbacks move them back. With one
/// other block there is one candidate, so no tie is ever drawn.
struct TwoWay {
    /// Per node, the summed weight of its arcs into block 0 and block 1.
    conn: Vec<[Weight; 2]>,
    /// Per node, the number of its arcs into each block: a zero-weight arc
    /// still makes the block adjacent.
    arcs: Vec<[u32; 2]>,
    /// The cut of the current labels.
    cut: Weight,
}

impl TwoWay {
    /// Builds the rows of `labels`, reading every arc once.
    fn new(graph: &CsrGraph, labels: &[Node], scanned: &mut u64) -> Self {
        let mut rows = Self {
            conn: Vec::with_capacity(graph.n()),
            arcs: Vec::with_capacity(graph.n()),
            cut: 0,
        };
        let mut doubled_cut = 0;
        for v in graph.nodes() {
            let (mut conn, mut arcs) = ([0; 2], [0; 2]);
            for (u, w) in graph.neighbors_weighted(v) {
                let b = labels[u as usize] as usize;
                conn[b] += w;
                arcs[b] += 1;
            }
            doubled_cut += conn[labels[v as usize] as usize ^ 1];
            rows.conn.push(conn);
            rows.arcs.push(arcs);
        }
        rows.cut = doubled_cut / 2;
        *scanned += graph.num_arcs() as u64;
        rows
    }
}

impl Gains for TwoWay {
    fn best_move(
        &mut self,
        graph: &CsrGraph,
        labels: &[Node],
        weights: &[Weight],
        caps: &[Weight],
        v: Node,
        _: &mut SmallRng,
        _: &mut u64,
    ) -> Option<(i64, Node)> {
        let cur = labels[v as usize] as usize;
        let other = cur ^ 1;
        if self.arcs[v as usize][other] == 0 || weights[other] + graph.node_weight(v) > caps[other]
        {
            return None;
        }
        let conn = self.conn[v as usize];
        Some((conn[other] as i64 - conn[cur] as i64, other as Node))
    }

    fn moved(
        &mut self,
        graph: &CsrGraph,
        _: &[Node],
        v: Node,
        from: Node,
        to: Node,
        scanned: &mut u64,
    ) {
        let (from, to) = (from as usize, to as usize);
        // `v`'s arcs into `from` become cut, those into `to` stop being cut.
        let own = self.conn[v as usize];
        self.cut = self.cut + own[from] - own[to];
        for (u, w) in graph.neighbors_weighted(v) {
            let (conn, arcs) = (&mut self.conn[u as usize], &mut self.arcs[u as usize]);
            conn[from] -= w;
            conn[to] += w;
            arcs[from] -= 1;
            arcs[to] += 1;
        }
        *scanned += graph.degree(v) as u64;
    }
}

/// Up to `cfg.max_passes` passes, stopping at the first that gains nothing.
fn run(graph: &CsrGraph, labels: &mut [Node], cfg: &FmConfig, gains: &mut impl Gains) -> FmStats {
    let mut stats = FmStats::default();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut weights = vec![0 as Weight; cfg.block_caps.len()];
    for v in graph.nodes() {
        weights[labels[v as usize] as usize] += graph.node_weight(v);
    }
    for _pass in 0..cfg.max_passes {
        stats.rounds += 1;
        let gain = fm_pass(
            graph,
            labels,
            &mut weights,
            cfg,
            &mut rng,
            gains,
            &mut stats,
        );
        if gain <= 0 {
            break;
        }
        stats.gain += gain;
    }
    stats
}

/// One pass. The heap holds every unlocked node with a candidate once, at
/// its latest `(gain, tie-break, node, target)`; each evaluation draws one
/// tie-break. That pops the moves a heap of every evaluation would, skipping
/// the entries of locked nodes and all but each node's latest: such a skip
/// changes nothing and draws nothing, and no two live entries compare equal.
fn fm_pass(
    graph: &CsrGraph,
    labels: &mut [Node],
    weights: &mut [Weight],
    cfg: &FmConfig,
    rng: &mut SmallRng,
    gains: &mut impl Gains,
    stats: &mut FmStats,
) -> i64 {
    let caps = &cfg.block_caps[..];
    let scanned = &mut stats.edges_scanned;
    let mut locked = vec![false; graph.n()];
    let mut heap = NodeHeap::new(graph.n());

    // Seed with boundary nodes (an interior node has no candidate).
    for v in graph.nodes() {
        if let Some((gain, target)) = gains.best_move(graph, labels, weights, caps, v, rng, scanned)
        {
            heap.set((gain, Reverse(rng.gen()), v, target));
        }
    }

    // Apply moves, tracking the best prefix.
    let mut journal: Vec<(Node, Node, Node)> = Vec::new(); // (v, from, to)
    let mut cum_gain = 0i64;
    let mut best_gain = 0i64;
    let mut best_len = 0usize;
    let mut since_best = 0usize;
    while let Some((gain, _, v, target)) = heap.pop() {
        // Re-validate: weights may have changed since the entry was set.
        let cur = labels[v as usize];
        let cw = graph.node_weight(v);
        if weights[target as usize] + cw > caps[target as usize] {
            // Try to recompute a fresh candidate.
            if let Some((g2, t2)) = gains.best_move(graph, labels, weights, caps, v, rng, scanned) {
                heap.set((g2, Reverse(rng.gen()), v, t2));
            }
            continue;
        }
        // Apply.
        weights[cur as usize] -= cw;
        weights[target as usize] += cw;
        labels[v as usize] = target;
        locked[v as usize] = true;
        journal.push((v, cur, target));
        gains.moved(graph, labels, v, cur, target, scanned);
        cum_gain += gain;
        if cum_gain > best_gain {
            best_gain = cum_gain;
            best_len = journal.len();
            since_best = 0;
        } else {
            since_best += 1;
            if since_best > cfg.patience {
                break;
            }
        }
        // Refresh neighbours.
        for u in graph.neighbors(v) {
            if locked[u as usize] {
                continue;
            }
            match gains.best_move(graph, labels, weights, caps, u, rng, scanned) {
                Some((g2, t2)) => heap.set((g2, Reverse(rng.gen()), u, t2)),
                None => heap.remove(u),
            }
        }
    }
    // Roll back past the best prefix.
    for &(v, from, to) in journal[best_len..].iter().rev() {
        let cw = graph.node_weight(v);
        weights[to as usize] -= cw;
        weights[from as usize] += cw;
        labels[v as usize] = from;
        gains.moved(graph, labels, v, to, from, scanned);
    }
    stats.moves += best_len as u64;
    best_gain
}

/// Convenience wrapper operating on a [`pgp_graph::Partition`].
pub fn refine_partition(
    graph: &CsrGraph,
    partition: &mut pgp_graph::Partition,
    eps: f64,
    cfg_seed: u64,
    max_passes: usize,
) -> FmStats {
    let k = partition.k();
    let lmax = pgp_graph::lmax(graph.total_node_weight(), k, eps);
    let mut labels: Vec<Node> = partition.assignment().to_vec();
    let stats = kway_fm(
        graph,
        k,
        &mut labels,
        &FmConfig {
            max_passes,
            block_caps: vec![lmax; k],
            seed: cfg_seed,
            patience: 32,
        },
    );
    *partition = pgp_graph::Partition::from_assignment(graph, k, labels);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgp_graph::Partition;

    fn cut(g: &CsrGraph, labels: &[Node], k: usize) -> u64 {
        Partition::from_assignment(g, k, labels.to_vec()).edge_cut(g)
    }

    #[test]
    fn fm_fixes_a_swapped_pair() {
        // Two triangles + bridge, with one node swapped across.
        let g = pgp_graph::builder::from_edges(
            6,
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        );
        let mut labels = vec![0, 0, 1, 0, 1, 1]; // nodes 2 and 3 swapped
        let before = cut(&g, &labels, 2);
        let stats = kway_fm(
            &g,
            2,
            &mut labels,
            &FmConfig {
                max_passes: 5,
                block_caps: vec![4, 4],
                seed: 1,
                patience: 8,
            },
        );
        let after = cut(&g, &labels, 2);
        assert_eq!(after, 1, "optimal cut is the bridge, got {after}");
        assert_eq!(stats.gain, (before - after) as i64);
    }

    #[test]
    fn fm_never_worsens() {
        let g = pgp_gen::mesh::grid2d(12, 12);
        for seed in 0..5u64 {
            let mut labels: Vec<Node> = (0..144).map(|i| (i / 72) as Node).collect();
            let before = cut(&g, &labels, 2);
            kway_fm(
                &g,
                2,
                &mut labels,
                &FmConfig {
                    max_passes: 4,
                    block_caps: vec![80, 80],
                    seed,
                    patience: 20,
                },
            );
            assert!(cut(&g, &labels, 2) <= before);
        }
    }

    #[test]
    fn fm_respects_caps() {
        let g = pgp_gen::mesh::grid2d(10, 10);
        let mut labels: Vec<Node> = (0..100).map(|i| (i % 4) as Node).collect();
        kway_fm(
            &g,
            4,
            &mut labels,
            &FmConfig {
                max_passes: 6,
                block_caps: vec![26, 26, 26, 26],
                seed: 3,
                patience: 20,
            },
        );
        let p = Partition::from_assignment(&g, 4, labels);
        assert!(p.max_block_weight() <= 26);
        // And all four blocks still exist.
        assert_eq!(p.nonempty_blocks(), 4);
    }

    #[test]
    fn fm_improves_random_kway() {
        let g = pgp_gen::mesh::grid2d(14, 14);
        let mut labels: Vec<Node> = (0..196).map(|i| (i * 7 % 4) as Node).collect();
        let before = cut(&g, &labels, 4);
        let lmax = pgp_graph::lmax(196, 4, 0.05);
        let stats = kway_fm(
            &g,
            4,
            &mut labels,
            &FmConfig {
                max_passes: 8,
                block_caps: vec![lmax; 4],
                seed: 7,
                patience: 40,
            },
        );
        let after = cut(&g, &labels, 4);
        assert!(after < before / 2, "cut {before} -> {after}");
        assert!(stats.gain > 0);
    }

    #[test]
    fn k1_and_empty_are_noops() {
        let g = pgp_gen::mesh::grid2d(4, 4);
        let mut labels = vec![0 as Node; 16];
        let stats = kway_fm(
            &g,
            1,
            &mut labels,
            &FmConfig {
                max_passes: 3,
                block_caps: vec![100],
                seed: 1,
                patience: 4,
            },
        );
        assert_eq!(stats.moves, 0);
        let ge = CsrGraph::empty();
        let mut no_labels: Vec<Node> = Vec::new();
        kway_fm(
            &ge,
            2,
            &mut no_labels,
            &FmConfig {
                max_passes: 1,
                block_caps: vec![1, 1],
                seed: 1,
                patience: 1,
            },
        );
    }

    #[test]
    fn weighted_nodes_respect_caps_small() {
        let g = pgp_graph::GraphBuilder::new(4)
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .node_weights(vec![5, 1, 1, 5])
            .build();
        let mut labels = vec![0, 1, 1, 1];
        // Block caps tight: node 3 (weight 5) cannot join block 0 (5+5>7).
        kway_fm(
            &g,
            2,
            &mut labels,
            &FmConfig {
                max_passes: 3,
                block_caps: vec![7, 7],
                seed: 2,
                patience: 8,
            },
        );
        let p = Partition::from_assignment(&g, 2, labels);
        assert!(p.max_block_weight() <= 7);
    }

    /// Wraps a candidate source and records the node of every move it is
    /// told of, applied ones and rolled-back ones. Also re-derives, from the
    /// labels alone, what the table source reads by the `FmStats` rule: the
    /// first-arc entries of an evaluated row (its adjacent blocks), the
    /// mover's row, and the forward scans of the neighbours whose first arc
    /// into the old block was an arc to the mover.
    struct Recording<G> {
        inner: G,
        moved: Vec<Node>,
        table_reads: u64,
        forward_scans: u64,
    }

    impl<G> Recording<G> {
        fn new(inner: G) -> Self {
            Self {
                inner,
                moved: Vec::new(),
                table_reads: 0,
                forward_scans: 0,
            }
        }
    }

    impl<G: Gains> Gains for Recording<G> {
        fn best_move(
            &mut self,
            graph: &CsrGraph,
            labels: &[Node],
            weights: &[Weight],
            caps: &[Weight],
            v: Node,
            rng: &mut SmallRng,
            scanned: &mut u64,
        ) -> Option<(i64, Node)> {
            let mut blocks: Vec<Node> = graph.neighbors(v).map(|u| labels[u as usize]).collect();
            blocks.sort_unstable();
            blocks.dedup();
            self.table_reads += blocks.len() as u64;
            self.inner
                .best_move(graph, labels, weights, caps, v, rng, scanned)
        }

        fn moved(
            &mut self,
            graph: &CsrGraph,
            labels: &[Node],
            v: Node,
            from: Node,
            to: Node,
            scanned: &mut u64,
        ) {
            self.moved.push(v);
            self.table_reads += graph.degree(v) as u64;
            let before = |y: Node| if y == v { from } else { labels[y as usize] };
            let mut neighbours: Vec<Node> = graph.neighbors(v).collect();
            neighbours.sort_unstable();
            neighbours.dedup();
            for u in neighbours {
                let row = graph.neighbor_slice(u);
                let first = row.iter().position(|&y| before(y) == from);
                if let Some(r) = first.filter(|&r| row[r] == v) {
                    let rest = &row[r + 1..];
                    let read = rest
                        .iter()
                        .position(|&y| labels[y as usize] == from)
                        .map_or(rest.len(), |s| s + 1);
                    self.table_reads += read as u64;
                    self.forward_scans += 1;
                }
            }
            self.inner.moved(graph, labels, v, from, to, scanned);
        }
    }

    #[test]
    fn table_reads_each_arc_once_per_call_plus_rows_scans_and_first_arcs() {
        let (g, _) = pgp_gen::sbm::sbm(300, Default::default(), 5);
        let k = 5;
        assert!(takes_table(&g, k));
        let start: Vec<Node> = (0..g.n() as Node).map(|v| v * 7 % k as Node).collect();
        let cfg = FmConfig {
            max_passes: 4,
            block_caps: vec![pgp_graph::lmax(g.total_node_weight(), k, 0.03); k],
            seed: 8,
            patience: 10,
        };
        let mut labels = start.clone();
        let mut built = 0;
        let mut rec = Recording::new(Table::new(&g, k, &labels, &mut built));
        let stats = run(&g, &mut labels, &cfg, &mut rec);
        assert_eq!(built, g.num_arcs() as u64);
        assert_eq!(stats.edges_scanned, rec.table_reads);
        assert!(stats.rounds > 1 && stats.moves > 0 && rec.forward_scans > 0);
        let rolled_back = (rec.moved.len() as u64 - stats.moves) / 2;
        assert!(rolled_back > 0, "no move was rolled back");
        // The entry point runs this very call.
        let mut again = start.clone();
        let stats_again = kway_fm(&g, k, &mut again, &cfg);
        assert_eq!(again, labels);
        assert_eq!(
            stats_again,
            FmStats {
                edges_scanned: built + rec.table_reads,
                ..stats
            }
        );
    }

    /// At k = n on a path the table would take n² entries: `kway_fm` takes
    /// `Dense` there, and the table only while `n · k ≤ 2 · arcs`.
    #[test]
    fn k_close_to_n_on_a_sparse_graph_takes_the_dense_source() {
        let n = 20_000;
        let edges: Vec<(Node, Node)> = (1..n as Node).map(|v| (v - 1, v)).collect();
        let g = pgp_graph::builder::from_edges(n, &edges);
        // 2 · arcs = 4 (n − 1): the path keeps the table up to k = 3.
        assert!(!takes_table(&g, n));
        assert!(!takes_table(&g, 4));
        assert!(takes_table(&g, 3));
        // Every node in a block of its own: FM runs through `Dense` (a
        // table would be 20 000² entries) and nothing moves into an
        // occupied block of cap 1.
        let mut labels: Vec<Node> = (0..n as Node).collect();
        let stats = kway_fm(
            &g,
            n,
            &mut labels,
            &FmConfig {
                max_passes: 2,
                block_caps: vec![1; n],
                seed: 1,
                patience: 4,
            },
        );
        assert_eq!(stats.edges_scanned, g.num_arcs() as u64);
        assert!(labels.iter().enumerate().all(|(v, &b)| b == v as Node));
    }

    #[test]
    fn two_way_fm_reads_each_arc_once_per_call_plus_the_movers_rows() {
        let g = pgp_gen::mesh::grid2d(9, 7);
        let start: Vec<Node> = (0..63).map(|v| Node::from(v * 7 % 5 < 2)).collect();
        let cfg = FmConfig {
            max_passes: 4,
            block_caps: vec![33, 33],
            seed: 4,
            patience: 6,
        };
        let mut labels = start.clone();
        let mut built = 0;
        let mut rec = Recording::new(TwoWay::new(&g, &labels, &mut built));
        let stats = run(&g, &mut labels, &cfg, &mut rec);
        assert_eq!(built, g.num_arcs() as u64);
        // Each applied move reads the mover's row, and each rolled-back one
        // reads it once more on the way back.
        let rows: u64 = rec.moved.iter().map(|&v| g.degree(v) as u64).sum();
        assert_eq!(stats.edges_scanned, rows);
        assert!(stats.rounds > 1 && stats.moves > 0);
        let rolled_back = (rec.moved.len() as u64 - stats.moves) / 2;
        assert!(rolled_back > 0, "no move was rolled back");
        // The rows carry the cut along.
        let cut = Partition::from_assignment(&g, 2, labels.clone()).edge_cut(&g);
        assert_eq!(rec.inner.cut, cut);
        // The entry points run this very call.
        let mut again = start.clone();
        let (two_way, two_way_cut) = two_way_fm(&g, &mut again, &cfg);
        assert_eq!((&again, two_way_cut), (&labels, cut));
        assert_eq!(
            two_way,
            FmStats {
                edges_scanned: built + rows,
                ..stats
            }
        );
        assert_eq!(kway_fm(&g, 2, &mut start.clone(), &cfg), two_way);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pgp_graph::{GraphBuilder, Partition};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// FM never worsens the cut and never violates caps, for arbitrary
        /// graphs, k, and (feasible) initial assignments.
        #[test]
        fn fm_never_worsens_or_overloads(
            n in 4usize..40,
            edges in proptest::collection::vec((0u32..40, 0u32..40, 1u64..4), 4..120),
            k in 2usize..5,
            seed in 0u64..50,
        ) {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                b.push_edge(u % n as u32, v % n as u32, w);
            }
            let g = b.build();
            let mut labels: Vec<Node> = (0..n as Node).map(|v| v % k as Node).collect();
            let before = Partition::from_assignment(&g, k, labels.clone()).edge_cut(&g);
            let cap = pgp_graph::lmax(g.total_node_weight(), k, 0.10);
            kway_fm(
                &g,
                k,
                &mut labels,
                &FmConfig {
                    max_passes: 3,
                    block_caps: vec![cap; k],
                    seed,
                    patience: 16,
                },
            );
            let p = Partition::from_assignment(&g, k, labels);
            prop_assert!(p.edge_cut(&g) <= before);
            prop_assert!(p.max_block_weight() <= cap);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The cached two-way pass makes the moves the generic dense pass
        /// makes at k = 2 (the oracle), and its cut is a recount's:
        /// zero-weight arcs, weighted nodes, caps tight enough that a side
        /// can start overloaded.
        #[test]
        fn two_way_pass_matches_the_dense_pass(
            n in 2usize..40,
            edges in proptest::collection::vec((0u32..40, 0u32..40, 0u64..4), 0..120),
            node_weights in proptest::collection::vec(1u64..6, 40),
            sides in proptest::collection::vec(0u32..2, 40),
            (slack0, slack1) in (0u64..4, 0u64..4),
            (seed, patience) in (0u64..1000, 0usize..12),
        ) {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                b.push_edge(u % n as u32, v % n as u32, w);
            }
            let g = b.node_weights(node_weights[..n].to_vec()).build();
            let half = g.total_node_weight() / 2;
            let cfg = FmConfig {
                max_passes: 3,
                block_caps: vec![half + slack0, g.total_node_weight() - half + slack1],
                seed,
                patience,
            };
            let mut cached = sides[..n].to_vec();
            let mut dense = cached.clone();
            let (got, cut) = two_way_fm(&g, &mut cached, &cfg);
            let want = run(&g, &mut dense, &cfg, &mut Dense::new(2));
            prop_assert_eq!(&cached, &dense);
            prop_assert_eq!(
                (got.rounds, got.moves, got.gain),
                (want.rounds, want.moves, want.gain)
            );
            prop_assert_eq!(cut, Partition::from_assignment(&g, 2, dense).edge_cut(&g));
        }
    }

    /// The pass before the indexed heap: a lazy heap of every evaluation,
    /// with a version per node, stale entries skipped at the pop. The oracle
    /// for [`fm_pass`].
    fn reference_fm_pass(
        graph: &CsrGraph,
        labels: &mut [Node],
        weights: &mut [Weight],
        cfg: &FmConfig,
        rng: &mut SmallRng,
        gains: &mut impl Gains,
        stats: &mut FmStats,
    ) -> i64 {
        use std::collections::BinaryHeap;
        let caps = &cfg.block_caps[..];
        let scanned = &mut stats.edges_scanned;
        let mut version = vec![0u32; graph.n()];
        let mut locked = vec![false; graph.n()];
        let mut heap: BinaryHeap<(i64, Reverse<u64>, Node, Node, u32)> = BinaryHeap::new();
        for v in graph.nodes() {
            if let Some((gain, target)) =
                gains.best_move(graph, labels, weights, caps, v, rng, scanned)
            {
                heap.push((gain, Reverse(rng.gen()), v, target, 0));
            }
        }
        let mut journal: Vec<(Node, Node, Node)> = Vec::new();
        let (mut cum_gain, mut best_gain, mut best_len, mut since_best) = (0i64, 0i64, 0, 0);
        while let Some((gain, _, v, target, ver)) = heap.pop() {
            if locked[v as usize] || ver != version[v as usize] {
                continue;
            }
            let cur = labels[v as usize];
            let cw = graph.node_weight(v);
            if weights[target as usize] + cw > caps[target as usize] {
                version[v as usize] += 1;
                if let Some((g2, t2)) =
                    gains.best_move(graph, labels, weights, caps, v, rng, scanned)
                {
                    heap.push((g2, Reverse(rng.gen()), v, t2, version[v as usize]));
                }
                continue;
            }
            weights[cur as usize] -= cw;
            weights[target as usize] += cw;
            labels[v as usize] = target;
            locked[v as usize] = true;
            journal.push((v, cur, target));
            gains.moved(graph, labels, v, cur, target, scanned);
            cum_gain += gain;
            if cum_gain > best_gain {
                best_gain = cum_gain;
                best_len = journal.len();
                since_best = 0;
            } else {
                since_best += 1;
                if since_best > cfg.patience {
                    break;
                }
            }
            for u in graph.neighbors(v) {
                if locked[u as usize] {
                    continue;
                }
                version[u as usize] += 1;
                if let Some((g2, t2)) =
                    gains.best_move(graph, labels, weights, caps, u, rng, scanned)
                {
                    heap.push((g2, Reverse(rng.gen()), u, t2, version[u as usize]));
                }
            }
        }
        for &(v, from, to) in journal[best_len..].iter().rev() {
            let cw = graph.node_weight(v);
            weights[to as usize] -= cw;
            weights[from as usize] += cw;
            labels[v as usize] = from;
            gains.moved(graph, labels, v, to, from, scanned);
        }
        stats.moves += best_len as u64;
        best_gain
    }

    /// [`run`] over [`reference_fm_pass`].
    fn reference_run(
        graph: &CsrGraph,
        labels: &mut [Node],
        cfg: &FmConfig,
        gains: &mut impl Gains,
    ) -> FmStats {
        let mut stats = FmStats::default();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut weights = vec![0 as Weight; cfg.block_caps.len()];
        for v in graph.nodes() {
            weights[labels[v as usize] as usize] += graph.node_weight(v);
        }
        for _pass in 0..cfg.max_passes {
            stats.rounds += 1;
            let gain = reference_fm_pass(
                graph,
                labels,
                &mut weights,
                cfg,
                &mut rng,
                gains,
                &mut stats,
            );
            if gain <= 0 {
                break;
            }
            stats.gain += gain;
        }
        stats
    }

    /// A graph on `n` nodes from `edges` (endpoints taken mod `n`, weights
    /// 0..): built by `GraphBuilder` (sorted rows, parallel edges merged),
    /// or — `raw` — straight from CSR parts, each edge stored as given
    /// (repeats become parallel arcs) and each row shuffled by `shuffle`.
    fn test_graph(
        n: usize,
        edges: &[(u32, u32, u64)],
        node_weights: &[Weight],
        raw: bool,
        shuffle: u64,
    ) -> CsrGraph {
        let node_weights = node_weights[..n].to_vec();
        if !raw {
            let mut b = GraphBuilder::new(n);
            for &(u, v, w) in edges {
                b.push_edge(u % n as u32, v % n as u32, w);
            }
            return b.node_weights(node_weights).build();
        }
        let mut rows: Vec<Vec<(Node, Weight)>> = vec![Vec::new(); n];
        for &(u, v, w) in edges {
            let (u, v) = (u % n as u32, v % n as u32);
            if u != v {
                rows[u as usize].push((v, w));
                rows[v as usize].push((u, w));
            }
        }
        let mut rng = SmallRng::seed_from_u64(shuffle);
        let (mut xadj, mut adjncy, mut adjwgt) = (vec![0u64], Vec::new(), Vec::new());
        for row in &mut rows {
            for i in (1..row.len()).rev() {
                row.swap(i, rng.gen_range(0..i + 1));
            }
            adjncy.extend(row.iter().map(|&(u, _)| u));
            adjwgt.extend(row.iter().map(|&(_, w)| w));
            xadj.push(adjncy.len() as u64);
        }
        CsrGraph::from_parts(xadj, adjncy, adjwgt, node_weights)
    }

    /// Per-block caps around `total / k`, `slack[b]` above it: tight enough
    /// that a block can start overloaded.
    fn tight_caps(g: &CsrGraph, k: usize, slack: &[u64]) -> Vec<Weight> {
        let share = g.total_node_weight() / k as Weight;
        slack[..k].iter().map(|&s| share + s).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table source makes the moves the dense source makes (the
        /// reference), with the same rounds, moves and gain: zero-weight
        /// arcs, weighted nodes, tight caps, and CSR rows that are unsorted
        /// and repeat neighbours (the twin-offset fallback, parallel arcs).
        #[test]
        fn table_pass_matches_the_dense_pass(
            n in 2usize..40,
            edges in proptest::collection::vec((0u32..40, 0u32..40, 0u64..4), 0..160),
            node_weights in proptest::collection::vec(1u64..6, 40),
            blocks in proptest::collection::vec(0u32..6, 40),
            k in 3usize..=6,
            slack in proptest::collection::vec(0u64..4, 6),
            (raw, shuffle) in (0u32..2, 0u64..1000),
            (seed, patience) in (0u64..1000, 0usize..12),
        ) {
            let g = test_graph(n, &edges, &node_weights, raw == 1, shuffle);
            let cfg = FmConfig {
                max_passes: 3,
                block_caps: tight_caps(&g, k, &slack),
                seed,
                patience,
            };
            let start: Vec<Node> = blocks[..n].iter().map(|&b| b % k as Node).collect();
            let (mut table, mut dense) = (start.clone(), start.clone());
            let mut built = 0;
            let got = run(&g, &mut table, &cfg, &mut Table::new(&g, k, &start, &mut built));
            let want = run(&g, &mut dense, &cfg, &mut Dense::new(k));
            prop_assert_eq!(&table, &dense);
            prop_assert_eq!(
                (got.rounds, got.moves, got.gain),
                (want.rounds, want.moves, want.gain)
            );
        }

        /// The indexed-heap pass makes the lazy-heap pass's moves, with the
        /// same stats down to the arcs scanned, through the dense source and
        /// (k ≥ 3) the table.
        #[test]
        fn indexed_heap_pass_matches_the_lazy_heap_pass(
            n in 2usize..40,
            edges in proptest::collection::vec((0u32..40, 0u32..40, 0u64..4), 0..160),
            node_weights in proptest::collection::vec(1u64..6, 40),
            blocks in proptest::collection::vec(0u32..6, 40),
            k in 2usize..=6,
            slack in proptest::collection::vec(0u64..4, 6),
            (raw, shuffle) in (0u32..2, 0u64..1000),
            (seed, patience) in (0u64..1000, 0usize..12),
        ) {
            let g = test_graph(n, &edges, &node_weights, raw == 1, shuffle);
            let cfg = FmConfig {
                max_passes: 3,
                block_caps: tight_caps(&g, k, &slack),
                seed,
                patience,
            };
            let start: Vec<Node> = blocks[..n].iter().map(|&b| b % k as Node).collect();
            let (mut got, mut want) = (start.clone(), start.clone());
            let got_stats = run(&g, &mut got, &cfg, &mut Dense::new(k));
            let want_stats = reference_run(&g, &mut want, &cfg, &mut Dense::new(k));
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(got_stats, want_stats);
            if k >= 3 {
                let (mut got, mut want) = (start.clone(), start.clone());
                let mut built = 0;
                let got_stats = run(&g, &mut got, &cfg, &mut Table::new(&g, k, &start, &mut built));
                let want_stats =
                    reference_run(&g, &mut want, &cfg, &mut Table::new(&g, k, &start, &mut built));
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(got_stats, want_stats);
            }
        }
    }
}
