//! Parallel size-constrained label propagation (Sections IV-A and IV-B).
//!
//! Each PE iterates over its owned nodes; ghost labels are refreshed through
//! the phase-overlapped [`LabelExchange`]. The two roles differ in how block
//! weights are maintained, exactly as in the paper:
//!
//! * **Clustering** (coarsening): there are up to `n` clusters, so no PE can
//!   hold all weights. Each PE keeps a *localized* table with the weights of
//!   the clusters its local and ghost nodes belong to — exact at
//!   initialization (every cluster is a singleton), updated on local moves
//!   and on incoming ghost updates, never communicated. The `U = Lmax/f`
//!   bound is soft; concurrent moves on different PEs may overshoot it
//!   slightly, which the paper explicitly tolerates.
//! * **Refinement**: only `k` blocks, so exact global weights are restored
//!   with one `allreduce` per computation phase (ParMetis-style); between
//!   allreduces each PE sees `exact + own local deltas`. The allreduce
//!   carries the per-phase *delta* vector (and the phase's move count as one
//!   more element), not a recount of all local nodes — `exact + Σ deltas` is
//!   maintained incrementally and checked against a full recount under
//!   `debug_assertions` (and by the `pgp-check` claimed-weights validator).
//!   To *guarantee* the balance constraint (the paper reports ParMetis
//!   drifting to 6 % imbalance; ParHIP does not), each PE additionally
//!   limits the weight it moves into any block per phase to its `1/p` share
//!   of the block's remaining slack.
//!
//! Refinement visits only *active* nodes. A node goes **quiet** when an
//! evaluation leaves it where it is and either no neighbour is in another
//! block, or its block is not overloaded and its connection to it is
//! strictly larger than to every other adjacent block. Evaluating a quiet
//! node again changes nothing and draws no random number: every candidate
//! has `w < best_w`, so neither the `>` nor the `==` branch can fire
//! whatever the budgets are, and budgeted inflow means a block that is not
//! overloaded never becomes so. The connections change only when a
//! neighbour changes block, which wakes the node (an own move wakes the
//! mover's owned neighbours, a ghost update the ghost's). So the skipping is
//! exact: same moves, same random stream, same partition as a full sweep.
//!
//! Both modes draw their visit order from a [`SclpScratch`], which caches the
//! degree order per graph so repeated invocations on the same graph
//! (V-cycles, multiple refinement levels) skip the O(n log n) re-sort.

use crate::cluster_map::ClusterMap;
use crate::seq::SclpStats;
use pgp_dmp::collectives::{allreduce_sum, allreduce_sum_vec, allreduce_sum_vec_i64};
use pgp_dmp::{Comm, DistGraph, LabelExchange};
use pgp_graph::ids;
use pgp_graph::{Node, Weight};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rustc_hash::FxHashMap;

/// Reusable SCLP working memory: visit orders and the neighbour-cluster
/// aggregation map, cached per graph.
///
/// The degree order and map capacity only depend on the graph, so one
/// scratch threaded through a whole V-cycle run recomputes them once per
/// distinct level instead of once per SCLP call ([`prepare`](Self) is a
/// fingerprint-guarded no-op when the graph is unchanged).
pub struct SclpScratch {
    /// Fingerprint of the graph the cached fields belong to.
    fingerprint: Option<u64>,
    /// Local nodes in degree-increasing order (cluster-mode visit order).
    degree_order: Vec<Node>,
    /// Refine-mode shuffle buffer (reset to identity at each call).
    index_order: Vec<Node>,
    /// Neighbour-cluster aggregation map, regrown at graph boundaries.
    map: ClusterMap,
}

impl SclpScratch {
    /// Creates an empty scratch; the first SCLP call fills it.
    pub fn new() -> Self {
        Self {
            fingerprint: None,
            degree_order: Vec::new(),
            index_order: Vec::new(),
            map: ClusterMap::with_max_degree(1),
        }
    }

    /// Points the scratch at `graph`: recomputes the degree order and the
    /// map capacity when the graph changed since the last call; a no-op
    /// when it did not (the same finest graph recurs once per V-cycle). The
    /// guard compares [`DistGraph`]'s cached degree fingerprint — O(1),
    /// computed once at graph assembly — instead of re-hashing the offset
    /// array on every SCLP call.
    fn prepare(&mut self, graph: &DistGraph) {
        let fp = graph.degree_fingerprint();
        if self.fingerprint == Some(fp) {
            return;
        }
        self.fingerprint = Some(fp);
        self.degree_order.clear();
        self.degree_order
            .extend(0..ids::node_of_index(graph.n_local()));
        self.degree_order.sort_by_key(|&v| graph.degree(v));
        let max_degree = self
            .degree_order
            .last()
            .map(|&v| graph.degree(v))
            .unwrap_or(0);
        self.map.clear();
        self.map.ensure_degree(max_degree.max(1));
    }
}

impl Default for SclpScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The localized cluster weights of clustering mode (§IV-B): for every
/// cluster, the weight of its members among this PE's owned and ghost nodes.
/// Cluster IDs are global node IDs, and nearly every lookup names a cluster
/// that started on this PE, so those live in a plain array; the hash map
/// holds only clusters named after other PEs' nodes.
struct ClusterWeights {
    /// This PE's first global node ID: cluster `first + i` is `dense[i]`.
    first: usize,
    dense: Vec<i64>,
    /// FxHash because keys are node IDs, not attacker-controlled input.
    spill: FxHashMap<Node, i64>,
}

impl ClusterWeights {
    /// Counts the weights under `labels` (owned + ghost nodes).
    fn new(graph: &DistGraph, labels: &[Node]) -> Self {
        let mut weights = Self {
            first: ids::global_index(graph.first_global()),
            dense: vec![0; graph.n_local()],
            spill: FxHashMap::with_capacity_and_hasher(graph.n_ghost(), Default::default()),
        };
        for (l, &c) in labels.iter().enumerate() {
            weights.add(c, graph.node_weight(ids::node_of_index(l)) as i64);
        }
        weights
    }

    #[inline]
    fn get(&self, c: Node) -> i64 {
        let own = ids::node_index(c).checked_sub(self.first);
        match own.and_then(|i| self.dense.get(i)) {
            Some(&w) => w,
            None => self.spill.get(&c).copied().unwrap_or(0),
        }
    }

    #[inline]
    fn add(&mut self, c: Node, delta: i64) {
        let own = ids::node_index(c).checked_sub(self.first);
        match own.and_then(|i| self.dense.get_mut(i)) {
            Some(w) => *w += delta,
            None => *self.spill.entry(c).or_insert(0) += delta,
        }
    }

    /// A node of weight `weight` left cluster `from` for cluster `to`.
    #[inline]
    fn transfer(&mut self, from: Node, to: Node, weight: i64) {
        self.add(from, -weight);
        self.add(to, weight);
    }

    /// Whether the incrementally kept table equals a recount under `labels`.
    fn matches_recount(&self, graph: &DistGraph, labels: &[Node]) -> bool {
        let recount = Self::new(graph, labels);
        self.dense == recount.dense
            && self.spill.iter().all(|(&c, &w)| recount.get(c) == w)
            && recount.spill.iter().all(|(&c, &w)| self.get(c) == w)
    }
}

/// Applies a signed allreduced weight delta to the exact block weights.
fn apply_weight_delta(exact: &mut [u64], delta: &[i64]) {
    for (w, &d) in exact.iter_mut().zip(delta) {
        let next = i64::try_from(*w).expect("block weight fits in i64") + d;
        *w = u64::try_from(next).expect("block weight stays non-negative");
    }
}

/// Initial clustering labels: every node (owned and ghost) starts in its
/// own singleton cluster, identified by *global* node ID.
pub fn singleton_labels(graph: &DistGraph) -> Vec<Node> {
    (0..ids::node_of_index(graph.n_local() + graph.n_ghost()))
        .map(|l| graph.local_to_global(l))
        .collect()
}

/// Parallel SCLP in **cluster mode**. `labels` covers owned + ghost nodes
/// and holds global cluster IDs (see [`singleton_labels`]). `constraint`,
/// when given (V-cycles), also covers owned + ghost nodes and holds the
/// input-partition block of each node; clusters never straddle blocks.
///
/// Returns statistics; `labels` is updated in place. Allocates fresh
/// working memory — callers with repeated invocations should use
/// [`parallel_sclp_cluster_with_scratch`].
pub fn parallel_sclp_cluster(
    comm: &Comm,
    graph: &DistGraph,
    u_bound: Weight,
    iterations: usize,
    seed: u64,
    labels: &mut [Node],
    constraint: Option<&[Node]>,
) -> SclpStats {
    let mut scratch = SclpScratch::new();
    parallel_sclp_cluster_with_scratch(
        comm,
        graph,
        u_bound,
        iterations,
        seed,
        labels,
        constraint,
        &mut scratch,
    )
}

/// As [`parallel_sclp_cluster`], drawing visit order and aggregation map
/// from `scratch` (recomputed only when `graph` differs from the scratch's
/// last graph).
#[allow(clippy::too_many_arguments)] // the scratch-threading variant of an already-wide API
pub fn parallel_sclp_cluster_with_scratch(
    comm: &Comm,
    graph: &DistGraph,
    u_bound: Weight,
    iterations: usize,
    seed: u64,
    labels: &mut [Node],
    constraint: Option<&[Node]>,
    scratch: &mut SclpScratch,
) -> SclpStats {
    cluster_rounds(
        comm,
        graph,
        u_bound,
        iterations,
        seed,
        labels,
        constraint,
        scratch,
        |weights, labels| {
            debug_assert!(
                weights.matches_recount(graph, labels),
                "localized cluster weights drifted"
            );
        },
    )
}

/// The cluster-mode round loop; `after_round(weights, labels)` runs once a
/// round's ghost updates are applied, and once more after the final drain.
#[allow(clippy::too_many_arguments)] // the public signature plus the hook
fn cluster_rounds(
    comm: &Comm,
    graph: &DistGraph,
    u_bound: Weight,
    iterations: usize,
    seed: u64,
    labels: &mut [Node],
    constraint: Option<&[Node]>,
    scratch: &mut SclpScratch,
    mut after_round: impl FnMut(&ClusterWeights, &[Node]),
) -> SclpStats {
    let n_local = graph.n_local();
    let n_all = n_local + graph.n_ghost();
    assert_eq!(labels.len(), n_all, "labels must cover owned + ghost nodes");
    if let Some(c) = constraint {
        assert_eq!(c.len(), n_all, "constraint must cover owned + ghost nodes");
    }
    let rank_seed = pgp_dmp::mix_seed(seed, ids::count_global(comm.rank()));
    let mut rng = SmallRng::seed_from_u64(rank_seed);

    // Exact at init because every cluster the PE can see is composed of
    // nodes the PE can see (singletons).
    let mut weights = ClusterWeights::new(graph, labels);

    let mut exchange = LabelExchange::new(comm, graph);
    scratch.prepare(graph);
    let SclpScratch {
        degree_order: order,
        map,
        ..
    } = scratch;

    let mut stats = SclpStats::default();
    for _ in 0..iterations {
        let _round_span = comm.recorder().span("sclp_round");
        let mut moved = 0u64;
        for &v in order.iter() {
            let degree = graph.degree(v);
            if degree == 0 {
                continue;
            }
            stats.edges_scanned += ids::count_global(degree);
            let cur = labels[ids::node_index(v)];
            map.clear();
            match constraint {
                None => {
                    for (u, w) in graph.neighbors(v) {
                        map.add(labels[ids::node_index(u)], w);
                    }
                }
                Some(cons) => {
                    let cv = cons[ids::node_index(v)];
                    for (u, w) in graph.neighbors(v) {
                        if cons[ids::node_index(u)] == cv {
                            map.add(labels[ids::node_index(u)], w);
                        }
                    }
                }
            }
            let cv_weight = graph.node_weight(v) as i64;
            let mut best = cur;
            let mut best_w = map.get(cur);
            let mut ties = 1u32;
            for (c, w) in map.iter() {
                // A candidate that can neither win nor tie is dropped before
                // its weight is looked up: it would have changed nothing.
                if c == cur || w < best_w || (w == best_w && best == cur) {
                    continue;
                }
                if weights.get(c).max(0) + cv_weight > u_bound as i64 {
                    continue;
                }
                if w > best_w {
                    best = c;
                    best_w = w;
                    ties = 1;
                } else {
                    ties += 1;
                    if rng.gen_range(0..ties) == 0 {
                        best = c;
                    }
                }
            }
            if best != cur {
                weights.transfer(cur, best, cv_weight);
                labels[ids::node_index(v)] = best;
                exchange.record(graph, v, best);
                moved += 1;
            }
        }
        stats.rounds += 1;
        stats.moves += moved;
        // Phase boundary: overlap scheme — send now, apply phase κ−1.
        exchange.flush_overlap_with(comm, graph, labels, |l, old, new| {
            weights.transfer(old, new, graph.node_weight(l) as i64);
        });
        after_round(&weights, labels);
        // Convergence is global: stop only when *no* PE moved anything.
        let global_moves = allreduce_sum(comm, moved);
        if global_moves == 0 {
            break;
        }
    }
    exchange.finish_with(comm, graph, labels, |l, old, new| {
        weights.transfer(old, new, graph.node_weight(l) as i64);
    });
    after_round(&weights, labels);
    stats
}

/// Parallel SCLP in **refine mode** over a `k`-way partition. `blocks`
/// covers owned + ghost nodes and holds block IDs (< `k`). Exact global
/// block weights are maintained incrementally (one delta allreduce per
/// phase); per-phase inflow budgeting guarantees `Lmax` is never exceeded.
///
/// Allocates fresh working memory — callers with repeated invocations
/// should use [`parallel_sclp_refine_with_scratch`].
pub fn parallel_sclp_refine(
    comm: &Comm,
    graph: &DistGraph,
    k: usize,
    lmax: Weight,
    iterations: usize,
    seed: u64,
    blocks: &mut [Node],
) -> SclpStats {
    let mut scratch = SclpScratch::new();
    parallel_sclp_refine_with_scratch(comm, graph, k, lmax, iterations, seed, blocks, &mut scratch)
}

/// As [`parallel_sclp_refine`], drawing working memory from `scratch`.
#[allow(clippy::too_many_arguments)] // the scratch-threading variant of an already-wide API
pub fn parallel_sclp_refine_with_scratch(
    comm: &Comm,
    graph: &DistGraph,
    k: usize,
    lmax: Weight,
    iterations: usize,
    seed: u64,
    blocks: &mut [Node],
    scratch: &mut SclpScratch,
) -> SclpStats {
    let _refine_span = comm.recorder().span("refine");
    let n_local = graph.n_local();
    let n_all = n_local + graph.n_ghost();
    assert_eq!(blocks.len(), n_all, "blocks must cover owned + ghost nodes");
    let p: Weight = ids::count_global(comm.size());
    let rank_seed = pgp_dmp::mix_seed(seed, ids::count_global(comm.rank()));
    let mut rng = SmallRng::seed_from_u64(rank_seed);

    // Exact global block weights: full recount once at entry; afterwards
    // only the per-phase deltas are allreduced (see module docs).
    let local_contrib = |blocks: &[Node]| -> Vec<u64> {
        let mut c = vec![0u64; k];
        for v in 0..ids::node_of_index(n_local) {
            c[ids::node_index(blocks[ids::node_index(v)])] += graph.node_weight(v);
        }
        c
    };
    let mut exact: Vec<u64> = allreduce_sum_vec(comm, local_contrib(blocks));

    let mut exchange = LabelExchange::new(comm, graph);
    scratch.prepare(graph);
    let SclpScratch {
        index_order: order,
        map,
        ..
    } = scratch;
    // Identity order at entry; within a call the shuffles compound.
    order.clear();
    order.extend(0..ids::node_of_index(n_local));

    // Per-round working vectors, hoisted out of the loop and refilled. The
    // delta vector's last element carries the round's move count, so one
    // allreduce settles both the weights and the convergence test.
    let mut budget: Vec<i64> = vec![0; k];
    let mut view: Vec<i64> = vec![0; k];
    let mut delta: Vec<i64> = vec![0; k + 1];
    // The visited node's connection to every block, the blocks it touches in
    // first-touch order (the order ties are drawn in), and the flags that
    // tell a touched block from an untouched one — a zero-weight arc touches
    // a block without raising its connection.
    let mut conn: Vec<Weight> = vec![0; k];
    let mut seen: Vec<bool> = vec![false; k];
    let mut touched: Vec<Node> = Vec::new();
    // The active set (see module docs): everything starts active.
    let mut quiet: Vec<bool> = vec![false; n_local];
    let ghost_rows = graph.ghost_rows();

    let mut stats = SclpStats::default();
    for round in 0..iterations {
        let _round_span = comm.recorder().span("sclp_round");
        order.shuffle(&mut rng);
        // Per-phase inflow budget: the block's remaining slack is split
        // across PEs (floor share + round-robin remainder, rotated per block
        // and round so small slacks still make progress somewhere), so the
        // per-PE inflows can never jointly exceed Lmax. `view` is the PE's
        // live estimate (exact + its own deltas).
        let r = ids::count_global(comm.rank());
        for (b, &w) in exact.iter().enumerate() {
            let slack = lmax.saturating_sub(w);
            let base = slack / p;
            let rotation = r + ids::count_global(b) + ids::count_global(round);
            let extra = u64::from(rotation % p < slack % p);
            budget[b] = (base + extra) as i64;
            view[b] = w as i64;
        }
        delta.fill(0);
        let mut moved = 0u64;
        for &v in order.iter() {
            if quiet[ids::node_index(v)] {
                continue;
            }
            let cur = blocks[ids::node_index(v)];
            for (u, w) in graph.neighbors(v) {
                let b = blocks[ids::node_index(u)];
                if !seen[ids::node_index(b)] {
                    seen[ids::node_index(b)] = true;
                    touched.push(b);
                }
                conn[ids::node_index(b)] += w;
            }
            stats.edges_scanned += ids::count_global(graph.degree(v));
            let cw = graph.node_weight(v) as i64;
            let overloaded = view[ids::node_index(cur)] > lmax as i64;
            let own = conn[ids::node_index(cur)];
            let interior = touched.len() == usize::from(seen[ids::node_index(cur)]);
            let mut best: Node = if overloaded { Node::MAX } else { cur };
            let mut best_w: Weight = if overloaded { 0 } else { own };
            let mut ties = 1u32;
            // Whether `cur` beats every other adjacent block outright,
            // budgets aside.
            let mut strict = true;
            for c in touched.drain(..) {
                let w = std::mem::take(&mut conn[ids::node_index(c)]);
                seen[ids::node_index(c)] = false;
                if c == cur {
                    continue;
                }
                strict &= w < own;
                if cw > budget[ids::node_index(c)] {
                    continue; // would risk exceeding Lmax globally
                }
                if best == Node::MAX || w > best_w {
                    best = c;
                    best_w = w;
                    ties = 1;
                } else if w == best_w {
                    ties += 1;
                    if rng.gen_range(0..ties) == 0 {
                        best = c;
                    }
                }
            }
            if best != cur && best != Node::MAX {
                view[ids::node_index(cur)] -= cw;
                view[ids::node_index(best)] += cw;
                budget[ids::node_index(best)] -= cw;
                delta[ids::node_index(cur)] -= cw;
                delta[ids::node_index(best)] += cw;
                blocks[ids::node_index(v)] = best;
                exchange.record(graph, v, best);
                moved += 1;
                // The mover stays active; its owned neighbours wake.
                for (u, _) in graph.neighbors(v) {
                    if let Some(q) = quiet.get_mut(ids::node_index(u)) {
                        *q = false;
                    }
                }
                stats.edges_scanned += ids::count_global(graph.degree(v));
            } else {
                quiet[ids::node_index(v)] = interior || (!overloaded && strict);
            }
        }
        stats.rounds += 1;
        stats.moves += moved;
        // Phase end: exact ghost labels, then exact weights via one delta
        // allreduce (own moves are counted by the owner, so the summed
        // deltas cover every node exactly once).
        exchange.flush_sync_with(comm, graph, blocks, |ghost, _, _| {
            for &u in ghost_rows.owned_neighbors(ghost) {
                quiet[ids::node_index(u)] = false;
            }
        });
        delta[k] = i64::try_from(moved).expect("move count fits in i64");
        delta = allreduce_sum_vec_i64(comm, delta);
        apply_weight_delta(&mut exact, &delta);
        #[cfg(debug_assertions)]
        {
            let recount = allreduce_sum_vec(comm, local_contrib(blocks));
            assert_eq!(exact, recount, "incremental block weights drifted");
        }
        if delta[k] == 0 {
            break;
        }
    }

    // Forced balance repair: the overloaded-block rule above only considers
    // *adjacent* blocks, which can strand weight when no boundary to an
    // underloaded block exists (small or disconnected instances). Drain any
    // remaining overload with budget-coordinated moves to arbitrary
    // underloaded blocks (largest connection first, which is usually 0).
    for round in 0..4u64 {
        if exact.iter().all(|&w| w <= lmax) {
            break;
        }
        let r = ids::count_global(comm.rank());
        for (b, &w) in exact.iter().enumerate() {
            let slack = lmax.saturating_sub(w);
            let base = slack / p;
            let extra = u64::from((r + ids::count_global(b) + round) % p < slack % p);
            budget[b] = (base + extra) as i64;
            view[b] = w as i64;
        }
        delta.fill(0);
        let mut moved = 0u64;
        for v in 0..ids::node_of_index(n_local) {
            let cur = blocks[ids::node_index(v)];
            if view[ids::node_index(cur)] <= lmax as i64 {
                continue;
            }
            let cw = graph.node_weight(v) as i64;
            map.clear();
            for (u, w) in graph.neighbors(v) {
                map.add(blocks[ids::node_index(u)], w);
            }
            // Best target over *all* blocks: maximize connection, break
            // ties toward the lightest block; must fit the budget.
            let mut best: Option<(Weight, i64, Node)> = None;
            for b in 0..ids::node_of_index(k) {
                if b == cur || cw > budget[ids::node_index(b)] {
                    continue;
                }
                let conn = map.get(b);
                let light = -view[ids::node_index(b)];
                if best.map(|(c, l, _)| (conn, light) > (c, l)).unwrap_or(true) {
                    best = Some((conn, light, b));
                }
            }
            if let Some((_, _, b)) = best {
                view[ids::node_index(cur)] -= cw;
                view[ids::node_index(b)] += cw;
                budget[ids::node_index(b)] -= cw;
                delta[ids::node_index(cur)] -= cw;
                delta[ids::node_index(b)] += cw;
                blocks[ids::node_index(v)] = b;
                exchange.record(graph, v, b);
                moved += 1;
            }
        }
        stats.moves += moved;
        exchange.flush_sync(comm, graph, blocks);
        delta[k] = i64::try_from(moved).expect("move count fits in i64");
        delta = allreduce_sum_vec_i64(comm, delta);
        apply_weight_delta(&mut exact, &delta);
        #[cfg(debug_assertions)]
        {
            let recount = allreduce_sum_vec(comm, local_contrib(blocks));
            assert_eq!(exact, recount, "incremental block weights drifted");
        }
        if delta[k] == 0 {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgp_dmp::run;
    use pgp_graph::CsrGraph;
    use std::collections::HashMap;

    fn cluster_weights_global(
        g: &CsrGraph,
        all_labels: &[Vec<Node>],
        dists: &[(u64, usize)],
    ) -> HashMap<Node, u64> {
        // Reassemble global labels from per-PE local label slices.
        let mut global = vec![0 as Node; g.n()];
        for (rank, labels) in all_labels.iter().enumerate() {
            let (first, n_local) = dists[rank];
            for i in 0..n_local {
                global[first as usize + i] = labels[i];
            }
        }
        let mut w = HashMap::new();
        for v in g.nodes() {
            *w.entry(global[v as usize]).or_insert(0) += g.node_weight(v);
        }
        w
    }

    #[test]
    fn parallel_clustering_groups_planted_communities() {
        let (g, truth) = pgp_gen::sbm::sbm(600, pgp_gen::sbm::SbmParams::default(), 1);
        let results = run(4, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut labels = singleton_labels(&dg);
            parallel_sclp_cluster(comm, &dg, 200, 8, 42, &mut labels, None);
            (
                labels[..dg.n_local()].to_vec(),
                (dg.first_global(), dg.n_local()),
            )
        });
        let labels: Vec<Vec<Node>> = results.iter().map(|r| r.0.clone()).collect();
        let dists: Vec<(u64, usize)> = results.iter().map(|r| r.1).collect();
        // Coverage of the found clustering should be decent given the
        // planted structure.
        let mut global = vec![0 as Node; g.n()];
        for (rank, l) in labels.iter().enumerate() {
            for i in 0..dists[rank].1 {
                global[dists[rank].0 as usize + i] = l[i];
            }
        }
        let cov = pgp_graph::metrics::coverage(&g, &global);
        assert!(cov > 0.55, "coverage {cov}");
        let _ = truth;
        // Far fewer clusters than nodes.
        let distinct: std::collections::HashSet<_> = global.iter().collect();
        assert!(distinct.len() < g.n() / 3, "{} clusters", distinct.len());
    }

    #[test]
    fn parallel_cluster_weights_respect_soft_bound() {
        let g = pgp_gen::mesh::grid2d(20, 20);
        let u = 25u64;
        let results = run(4, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut labels = singleton_labels(&dg);
            parallel_sclp_cluster(comm, &dg, u, 6, 7, &mut labels, None);
            (
                labels[..dg.n_local()].to_vec(),
                (dg.first_global(), dg.n_local()),
            )
        });
        let labels: Vec<Vec<Node>> = results.iter().map(|r| r.0.clone()).collect();
        let dists: Vec<(u64, usize)> = results.iter().map(|r| r.1).collect();
        let w = cluster_weights_global(&g, &labels, &dists);
        // Soft bound: slight overshoot from concurrent moves is tolerated
        // (the paper: "it does no harm if a cluster contains slightly more
        // nodes than the upper bound").
        let max = w.values().copied().max().unwrap();
        assert!(max <= 2 * u, "max cluster weight {max} vs U {u}");
    }

    #[test]
    fn parallel_clustering_is_deterministic() {
        let g = pgp_gen::ba::barabasi_albert(400, 3, 2);
        let go = |seed: u64| {
            run(3, |comm| {
                let dg = DistGraph::from_global(comm, &g);
                let mut labels = singleton_labels(&dg);
                parallel_sclp_cluster(comm, &dg, 50, 5, seed, &mut labels, None);
                labels
            })
        };
        assert_eq!(go(5), go(5));
    }

    #[test]
    fn single_pe_matches_own_rerun() {
        let g = pgp_gen::mesh::grid2d(10, 10);
        let a = run(1, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut labels = singleton_labels(&dg);
            parallel_sclp_cluster(comm, &dg, 20, 5, 3, &mut labels, None);
            labels
        });
        assert_eq!(a[0].len(), 100);
        let distinct: std::collections::HashSet<_> = a[0].iter().collect();
        assert!(distinct.len() < 50);
    }

    #[test]
    fn scratch_reuse_is_identical_to_fresh() {
        // Reusing one scratch across calls (and across modes) must produce
        // bit-identical results to fresh per-call working memory.
        let g = pgp_gen::ba::barabasi_albert(300, 3, 4);
        let k = 2usize;
        let lmax = pgp_graph::lmax(g.total_node_weight(), k, 0.03);
        let go = |reuse: bool| {
            run(2, |comm| {
                let dg = DistGraph::from_global(comm, &g);
                let mut scratch = SclpScratch::new();
                let mut out = Vec::new();
                for pass in 0..2u64 {
                    let mut labels = singleton_labels(&dg);
                    let mut blocks: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                        .map(|l| dg.local_to_global(l) % k as Node)
                        .collect();
                    if reuse {
                        parallel_sclp_cluster_with_scratch(
                            comm,
                            &dg,
                            40,
                            4,
                            9 + pass,
                            &mut labels,
                            None,
                            &mut scratch,
                        );
                        parallel_sclp_refine_with_scratch(
                            comm,
                            &dg,
                            k,
                            lmax,
                            4,
                            9 + pass,
                            &mut blocks,
                            &mut scratch,
                        );
                    } else {
                        parallel_sclp_cluster(comm, &dg, 40, 4, 9 + pass, &mut labels, None);
                        parallel_sclp_refine(comm, &dg, k, lmax, 4, 9 + pass, &mut blocks);
                    }
                    out.push((labels, blocks));
                }
                out
            })
        };
        assert_eq!(go(true), go(false));
    }

    #[test]
    fn parallel_refine_reduces_cut_and_keeps_balance() {
        use rand::seq::SliceRandom;
        let g = pgp_gen::mesh::grid2d(16, 16);
        let k = 2usize;
        let lmax = pgp_graph::lmax(g.total_node_weight(), k, 0.03);
        // Random balanced bipartition: terrible cut, perfectly balanced.
        let mut rng0 = SmallRng::seed_from_u64(21);
        let mut ids: Vec<usize> = (0..256).collect();
        ids.shuffle(&mut rng0);
        let mut init = vec![0 as Node; 256];
        for &i in &ids[128..] {
            init[i] = 1;
        }
        let init_p = pgp_graph::Partition::from_assignment(&g, k, init.clone());
        let before = init_p.edge_cut(&g);
        let results = run(4, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut blocks: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                .map(|l| init[dg.local_to_global(l) as usize])
                .collect();
            parallel_sclp_refine(comm, &dg, k, lmax, 10, 11, &mut blocks);
            (
                blocks[..dg.n_local()].to_vec(),
                (dg.first_global(), dg.n_local()),
            )
        });
        let mut global = vec![0 as Node; g.n()];
        for (part, (first, n_local)) in &results {
            for i in 0..*n_local {
                global[*first as usize + i] = part[i];
            }
        }
        let p = pgp_graph::Partition::from_assignment(&g, k, global);
        let after = p.edge_cut(&g);
        assert!(after < before, "cut {before} -> {after}");
        assert!(
            p.max_block_weight() <= lmax,
            "weight {} > {lmax}",
            p.max_block_weight()
        );
    }

    #[test]
    fn parallel_refine_never_exceeds_lmax() {
        let g = pgp_gen::ba::barabasi_albert(500, 3, 9);
        let k = 4usize;
        let lmax = pgp_graph::lmax(g.total_node_weight(), k, 0.03);
        // Balanced striped init.
        let init: Vec<Node> = (0..500).map(|i| (i % 4) as Node).collect();
        let results = run(4, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut blocks: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                .map(|l| init[dg.local_to_global(l) as usize])
                .collect();
            parallel_sclp_refine(comm, &dg, k, lmax, 8, 13, &mut blocks);
            (
                blocks[..dg.n_local()].to_vec(),
                (dg.first_global(), dg.n_local()),
            )
        });
        let mut global = vec![0 as Node; g.n()];
        for (part, (first, n_local)) in &results {
            for i in 0..*n_local {
                global[*first as usize + i] = part[i];
            }
        }
        let p = pgp_graph::Partition::from_assignment(&g, k, global);
        assert!(p.max_block_weight() <= lmax);
    }

    #[test]
    fn vcycle_constraint_holds_in_parallel() {
        let (g, _) = pgp_gen::sbm::sbm(300, pgp_gen::sbm::SbmParams::default(), 5);
        // Constraint: global parity partition.
        let cons_of = |gid: Node| gid % 2;
        let results = run(3, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut labels = singleton_labels(&dg);
            let cons: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                .map(|l| cons_of(dg.local_to_global(l)))
                .collect();
            parallel_sclp_cluster(comm, &dg, 100, 6, 1, &mut labels, Some(&cons));
            (
                labels[..dg.n_local()].to_vec(),
                (dg.first_global(), dg.n_local()),
            )
        });
        for (labels, (first, n_local)) in &results {
            #[allow(clippy::needless_range_loop)] // i is a local node id
            for i in 0..*n_local {
                let gid = *first as Node + i as Node;
                // Cluster IDs are node IDs; the cluster's parity class must
                // match the member's.
                assert_eq!(cons_of(labels[i]), cons_of(gid));
            }
        }
    }

    /// Three PEs in a chain: every PE 1 node hangs on a heavy edge to a PE 0
    /// node and a light one to a PE 2 node, so PE 2's ghosts soon carry
    /// labels of PE 0's nodes — clusters PE 2 can only keep in the spill map,
    /// PE 0 not being adjacent to it.
    fn chain_of_three(m: Node) -> CsrGraph {
        let mut b = pgp_graph::GraphBuilder::new(3 * m as usize);
        for i in 0..m {
            b.push_edge(i, m + i, 10);
            b.push_edge(m + i, 2 * m + i, 1);
            for part in 0..3 {
                b.push_edge(part * m + i, part * m + (i + 1) % m, 1);
            }
        }
        b.build()
    }

    #[test]
    fn dense_and_spill_weights_equal_a_recount_after_every_round() {
        let g = chain_of_three(40);
        let foreign = run(3, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut labels = singleton_labels(&dg);
            let mut rounds = 0;
            let mut scratch = SclpScratch::new();
            cluster_rounds(
                comm,
                &dg,
                6,
                5,
                17,
                &mut labels,
                None,
                &mut scratch,
                |weights, labels| {
                    rounds += 1;
                    assert!(
                        weights.matches_recount(&dg, labels),
                        "PE {} after round {rounds}",
                        comm.rank()
                    );
                },
            );
            assert!(
                rounds >= 3,
                "several rounds and the final drain were checked"
            );
            // Ghosts whose cluster is named after a node of a PE this one
            // shares no arc with.
            (dg.n_local()..dg.n_local() + dg.n_ghost())
                .filter(|&l| {
                    let owner = dg.dist().owner(labels[l]) as u32;
                    owner as usize != comm.rank() && !dg.adjacent_pes().contains(&owner)
                })
                .count()
        });
        assert!(
            foreign[2] > 0,
            "the spill path was not reached: {foreign:?}"
        );
    }

    #[test]
    fn cluster_mode_scans_every_local_arc_every_round() {
        let g = pgp_gen::ba::barabasi_albert(400, 3, 2);
        run(3, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut labels = singleton_labels(&dg);
            let stats = parallel_sclp_cluster(comm, &dg, 50, 4, 5, &mut labels, None);
            assert!(stats.rounds > 1);
            assert_eq!(
                stats.edges_scanned,
                dg.local_arc_count() * stats.rounds as u64
            );
        });
    }

    #[test]
    fn refining_a_refined_mesh_scans_the_boundary_only() {
        let g = pgp_gen::mesh::grid2d(48, 48);
        let k = 2usize;
        let lmax = pgp_graph::lmax(g.total_node_weight(), k, 0.03);
        let max_degree = 4u64;
        // (arcs, boundary arcs at entry, moves, scanned) per PE and call.
        let results = run(2, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let n_all = dg.n_local() + dg.n_ghost();
            // Split along the diagonal, where a grid node has two neighbours
            // on either side and ties keep a few nodes moving for ever;
            // refined once before anything is counted.
            let mut blocks: Vec<Node> = (0..n_all as Node)
                .map(|l| dg.local_to_global(l))
                .map(|g| Node::from(g % 48 + g / 48 >= 47))
                .collect();
            parallel_sclp_refine(comm, &dg, k, lmax, 10, 3, &mut blocks);
            let boundary_arcs: u64 = (0..dg.n_local() as Node)
                .filter(|&v| {
                    dg.neighbors(v)
                        .any(|(u, _)| blocks[u as usize] != blocks[v as usize])
                })
                .map(|v| dg.degree(v) as u64)
                .sum();
            let one = parallel_sclp_refine(comm, &dg, k, lmax, 1, 4, &mut blocks.clone());
            let six = parallel_sclp_refine(comm, &dg, k, lmax, 6, 4, &mut blocks);
            (dg.local_arc_count(), boundary_arcs, one, six)
        });
        type PerPe = (u64, u64, SclpStats, SclpStats);
        let total = |f: fn(&PerPe) -> u64| -> u64 { results.iter().map(f).sum() };
        let arcs = total(|r| r.0);
        let boundary = total(|r| r.1);
        // Round 0 reads every arc once, and a mover's row once more to wake
        // its neighbours.
        let one_scanned = total(|r| r.2.edges_scanned);
        let one_moves = total(|r| r.2.moves);
        assert!(one_scanned >= arcs);
        assert!(one_scanned <= arcs + one_moves * max_degree);
        // Later rounds read only the rows of nodes that are not their
        // block's outright: the boundary at entry, and movers (on any PE)
        // with their neighbours.
        let six_scanned = total(|r| r.3.edges_scanned);
        let six_moves = total(|r| r.3.moves);
        let later_rounds = results[0].3.rounds as u64 - 1;
        assert!(later_rounds >= 1, "the instance converged in one round");
        let per_round = boundary + six_moves * (max_degree + 1) * max_degree;
        assert!(
            six_scanned <= arcs + later_rounds * per_round + six_moves * max_degree,
            "{six_scanned} arcs scanned, {arcs} per full sweep, boundary {boundary}, {six_moves} moves"
        );
        assert!(six_scanned * 2 < arcs * (later_rounds + 1), "{six_scanned}");
    }
}
