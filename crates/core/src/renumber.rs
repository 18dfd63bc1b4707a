//! Renumbering the graph by block between V-cycles (DESIGN.md §9, "What a
//! V-cycle hands the next").
//!
//! Every cluster of a later V-cycle lies inside one block of the carried
//! partition, so a PE that owns whole blocks crosses PEs only along cut
//! arcs. At a cycle boundary the nodes get new global IDs by a counting
//! sort on `(block, current ID)`: the per-PE block counts travel in one
//! `allgatherv`, and PE r's uniform
//! `BlockDist` range of the new IDs becomes one block-aligned region. The
//! interface nodes send their new IDs to the PEs that hold them as ghosts
//! (one `alltoallv`), and one `allreduce` counts the arcs that cross PEs
//! now and under the new numbering. The graph moves only when that count
//! at least halves: each owned row then travels to its new owner in one
//! `alltoallv`, carrying its node weight, arc weights, current block and
//! input ID, and the new owner assembles its level 0 with
//! [`DistGraph::from_segment`].

use crate::contract::query_owner_values;
use pgp_dmp::collectives::{allgatherv, allreduce_sum_vec, alltoallv};
use pgp_dmp::dgraph::BlockDist;
use pgp_dmp::{Comm, DistGraph};
use pgp_graph::ids;
use pgp_graph::io::RowSegment;
use pgp_graph::{Node, Weight};
use std::borrow::Cow;
use std::ops::Range;

/// One V-cycle boundary's renumbering rule: the arcs that cross PEs (each
/// undirected edge counted from both ends) under the current numbering and
/// under the block numbering, and whether the graph moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Renumbering {
    /// The V-cycle the boundary follows.
    pub after_cycle: usize,
    /// Arcs whose endpoints lie on different PEs now.
    pub crossing_now: u64,
    /// Arcs whose endpoints would lie on different PEs under the block
    /// numbering.
    pub crossing_by_block: u64,
    /// Whether the graph moved: the count at least halves.
    pub migrated: bool,
}

/// New global IDs for the owned and ghost nodes of `graph` (aligned with
/// local IDs): the nodes in `(block, current ID)` order, `blocks` covering
/// owned + ghost nodes of a `k`-way partition. One `allgatherv` of the
/// per-PE block counts, one `alltoallv` of the interface nodes' new IDs.
pub(crate) fn block_numbering(
    comm: &Comm,
    graph: &DistGraph,
    blocks: &[Node],
    k: usize,
) -> Vec<Node> {
    let n_local = graph.n_local();
    let mut counts = vec![0u64; k];
    for &b in &blocks[..n_local] {
        counts[ids::node_index(b)] += 1;
    }
    // Every PE's k counts in rank order. Block b's nodes start after all
    // lower blocks' and, within b, after the lower ranks' (whose current
    // IDs are lower).
    let all = allgatherv(comm, counts);
    let mut next = vec![0u64; k];
    let mut at = 0u64;
    for (b, slot) in next.iter_mut().enumerate() {
        for r in 0..comm.size() {
            if r == comm.rank() {
                *slot = at;
            }
            at += all[r * k + b];
        }
    }
    // A stable counting sort: inside a block, current-ID order.
    let mut new_ids: Vec<Node> = vec![0; n_local + graph.n_ghost()];
    for (new, &b) in new_ids.iter_mut().zip(&blocks[..n_local]) {
        let slot = &mut next[ids::node_index(b)];
        *new = ids::global_node(*slot);
        *slot += 1;
    }
    // The ghosts' new IDs, from their owners: each owner sends its
    // interface nodes' new IDs to every adjacent PE in ascending ID order,
    // which is the order of that PE's ghosts it owns; a block distribution's
    // owner is monotone in the ID, so the messages concatenated by rank line
    // up with all ghosts in ascending ID order.
    let mut sends: Vec<Vec<Node>> = vec![Vec::new(); comm.size()];
    for u in 0..ids::node_of_index(n_local) {
        for &pe in graph.interface_pes(u) {
            sends[ids::pe_index(pe)].push(new_ids[ids::node_index(u)]);
        }
    }
    let mut ghosts: Vec<u64> = graph
        .ghost_globals()
        .iter()
        .enumerate()
        .map(|(i, &g)| ids::node_global(g) << Node::BITS | ids::count_global(i))
        .collect();
    ghosts.sort_unstable();
    let received = alltoallv(comm, sends).into_iter().flatten();
    for (word, new) in ghosts.into_iter().zip(received) {
        let i = ids::global_index(word & u64::from(Node::MAX));
        new_ids[n_local + i] = new;
    }
    new_ids
}

/// The arcs that cross PEs now and under `new_ids` (owned + ghost), summed
/// over the group in one `allreduce`.
pub(crate) fn crossing_arcs(comm: &Comm, graph: &DistGraph, new_ids: &[Node]) -> (u64, u64) {
    let dist = graph.dist();
    let owner: Vec<u32> = new_ids
        .iter()
        .map(|&g| ids::pe_rank(dist.owner(g)))
        .collect();
    let (mut now, mut by_block) = (0u64, 0u64);
    for u in 0..ids::node_of_index(graph.n_local()) {
        let ou = owner[ids::node_index(u)];
        for (v, _) in graph.neighbors(u) {
            now += u64::from(graph.is_ghost(v));
            by_block += u64::from(owner[ids::node_index(v)] != ou);
        }
    }
    let sums = allreduce_sum_vec(comm, vec![now, by_block]);
    (sums[0], sums[1])
}

/// The rule: move only when the crossing arcs at least halve.
pub(crate) fn worth_moving(crossing_now: u64, crossing_by_block: u64) -> bool {
    crossing_now > 0 && 2 * crossing_by_block <= crossing_now
}

/// A level 0 that moved to its block numbering.
pub(crate) struct Migrated {
    /// This PE's part of the renumbered graph.
    pub(crate) graph: DistGraph,
    /// The blocks of its owned and ghost nodes.
    pub(crate) blocks: Vec<Node>,
    /// The input ID of each owned node.
    pub(crate) input_ids: Vec<Node>,
}

/// One PE's rows for one new owner: per row `(new ID, input ID, block,
/// degree)`, the node weights, the targets' new IDs, and the arc weights
/// (empty while every arc of the sending PE weighs 1).
type Rows = (
    Vec<(Node, Node, Node, Node)>,
    Vec<Weight>,
    Vec<Node>,
    Vec<Weight>,
);

/// Moves every owned row of `graph` to the owner of its new ID in one
/// `alltoallv` and assembles the renumbered level 0. `graph` is dropped
/// (when owned) once its rows are packed; `input_ids` holds the owned
/// nodes' input IDs, `None` when the current IDs are the input's. The
/// blocks of the new ghosts are fetched from their owners.
pub(crate) fn migrate(
    comm: &Comm,
    graph: Cow<'_, DistGraph>,
    new_ids: Vec<Node>,
    blocks: Vec<Node>,
    input_ids: Option<Vec<Node>>,
) -> Migrated {
    let n_global = graph.n_global();
    let dist = graph.dist();
    let weighted = graph.has_arc_weights();
    let mut sends: Vec<Rows> = vec![Default::default(); comm.size()];
    for u in 0..ids::node_of_index(graph.n_local()) {
        let l = ids::node_index(u);
        let (heads, weights, targets, arc_weights) = &mut sends[dist.owner(new_ids[l])];
        let input = input_ids
            .as_ref()
            .map_or_else(|| graph.local_to_global(u), |ids| ids[l]);
        heads.push((
            new_ids[l],
            input,
            blocks[l],
            ids::node_of_index(graph.degree(u)),
        ));
        weights.push(graph.node_weight(u));
        for (v, w) in graph.neighbors(u) {
            targets.push(new_ids[ids::node_index(v)]);
            if weighted {
                arc_weights.push(w);
            }
        }
    }
    drop((graph, new_ids, blocks, input_ids));
    // One message per new owner, each PE's rows in one piece.
    let runs: Vec<Rows> = alltoallv(comm, sends.into_iter().map(|rows| vec![rows]).collect())
        .into_iter()
        .flatten()
        .collect();

    // Every new ID of this PE's range arrives exactly once: first where
    // each row's arcs lie in the message it came in, at the row's ID, then
    // the rows appended in ID order. Rows keep the move at 4 bytes per
    // unit-weight arc; `(u, v, w)` triples for `DistGraph::from_arcs` take
    // 16 and raised mesh_p2's peak RSS from 112 to 165 MiB.
    let rank = comm.rank();
    let first = dist.first(rank);
    let n_rows = dist.count(rank);
    let mut place: Vec<(usize, Range<usize>)> = vec![(0, 0..0); n_rows];
    let mut node_weight: Vec<Weight> = vec![0; n_rows];
    let mut owned_blocks: Vec<Node> = vec![0; n_rows];
    let mut input_ids: Vec<Node> = vec![0; n_rows];
    for (run, (heads, weights, ..)) in runs.iter().enumerate() {
        let mut at = 0;
        for (&(g, input, block, degree), &w) in heads.iter().zip(weights) {
            let r = ids::global_index(ids::node_global(g) - first);
            place[r] = (run, at..at + ids::node_index(degree));
            at = place[r].1.end;
            node_weight[r] = w;
            owned_blocks[r] = block;
            input_ids[r] = input;
        }
    }
    let arcs = runs.iter().map(|(_, _, targets, _)| targets.len()).sum();
    let weighted = runs.iter().any(|(.., w)| !w.is_empty());
    let mut rows = RowSegment {
        first,
        xadj: Vec::with_capacity(n_rows + 1),
        adjncy: Vec::with_capacity(arcs),
        adjwgt: Vec::with_capacity(if weighted { arcs } else { 0 }),
        node_weight,
    };
    rows.xadj.push(0);
    for (run, from) in place {
        let (_, _, targets, arc_weights) = &runs[run];
        rows.adjncy.extend_from_slice(&targets[from.clone()]);
        if weighted {
            if arc_weights.is_empty() {
                // Every arc of the sending PE weighs 1.
                rows.adjwgt.resize(rows.adjncy.len(), 1);
            } else {
                rows.adjwgt.extend_from_slice(&arc_weights[from]);
            }
        }
        rows.xadj.push(ids::count_global(rows.adjncy.len()));
    }
    drop(runs);
    let graph = DistGraph::from_segment(comm, n_global, rows);
    let ghost_blocks = query_owner_values(comm, dist, graph.ghost_globals(), |i| owned_blocks[i]);
    let mut blocks = owned_blocks;
    blocks.extend(ghost_blocks);
    Migrated {
        graph,
        blocks,
        input_ids,
    }
}

/// The blocks of the input's owned nodes on this PE, from the blocks of
/// the current graph's owned nodes and their input IDs: every `(input ID,
/// block)` pair goes to the input's owner under `input_dist` in one
/// `alltoallv`.
pub(crate) fn blocks_in_input_order(
    comm: &Comm,
    input_dist: BlockDist,
    input_ids: &[Node],
    blocks: &[Node],
) -> Vec<Node> {
    let mut sends: Vec<Vec<(Node, Node)>> = vec![Vec::new(); comm.size()];
    for (&g, &b) in input_ids.iter().zip(blocks) {
        sends[input_dist.owner(g)].push((g, b));
    }
    let first = input_dist.first(comm.rank());
    let mut out: Vec<Node> = vec![0; input_dist.count(comm.rank())];
    for (g, b) in alltoallv(comm, sends).into_iter().flatten() {
        out[ids::global_index(ids::node_global(g) - first)] = b;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GraphClass;
    use crate::partitioner::{Partitioned, Partitioner};
    use crate::ParhipConfig;
    use pgp_graph::CsrGraph;

    /// The two-cycle fast preset at k = 8.
    fn run(g: &CsrGraph, p: usize, class: GraphClass, run: pgp_dmp::RunConfig) -> Partitioned {
        let cfg = ParhipConfig::fast(8, class, 5);
        let out = Partitioner::new(&cfg)
            .run(run)
            .partition(g, p)
            .expect("valid input");
        out.partition
            .validate(g, cfg.eps)
            .expect("a valid partition");
        out
    }

    fn rule(after_cycle: usize, now: u64, by_block: u64, migrated: bool) -> Renumbering {
        Renumbering {
            after_cycle,
            crossing_now: now,
            crossing_by_block: by_block,
            migrated,
        }
    }

    /// At p = 2 a Delaunay mesh's random IDs put half its arcs across PEs
    /// and its blocks almost none, so it moves; a row-major grid already
    /// crosses PEs along one row, and an SBM graph's cut crosses PEs under
    /// any numbering, so both stay.
    #[test]
    fn the_rule_counts_crossing_arcs_exactly() {
        let mesh = pgp_gen::delaunay::delaunay_x(12, 3);
        let grid = pgp_gen::mesh::grid2d(64, 64);
        let (sbm, _) = pgp_gen::sbm::sbm(4000, Default::default(), 3);
        for (what, g, class, want) in [
            ("mesh", &mesh, GraphClass::Mesh, rule(0, 12_350, 988, true)),
            ("grid", &grid, GraphClass::Mesh, rule(0, 128, 472, false)),
            ("sbm", &sbm, GraphClass::Social, rule(0, 4154, 3940, false)),
        ] {
            let out = run(g, 2, class, Default::default());
            assert_eq!(out.stats.renumberings, [want], "{what}");
            assert_eq!(out.stats.cut, out.partition.edge_cut(g), "{what}");
        }
    }

    /// p = 1 never evaluates the rule: a two-cycle run makes the collective
    /// calls it made before the rule existed, the closing's one gather
    /// included. (The `validate` feature's checks add collectives of their
    /// own.)
    #[cfg(not(feature = "validate"))]
    #[test]
    fn one_pe_makes_no_renumbering_calls() {
        let mesh = pgp_gen::delaunay::delaunay_x(12, 3);
        let obs = pgp_dmp::Obs::new(1);
        let out = run(
            &mesh,
            1,
            GraphClass::Mesh,
            pgp_dmp::RunConfig {
                obs: Some(std::sync::Arc::clone(&obs)),
                ..Default::default()
            },
        );
        assert!(out.stats.renumberings.is_empty());
        let calls: Vec<(String, u64)> = obs.report().per_pe[0]
            .comm
            .collectives
            .iter()
            .map(|c| (c.name.clone(), c.count))
            .collect();
        // Before: the same counts with 7 allgathers, the closing's among
        // them, and no gather. Debug builds recount the block weights
        // after each of the run's 12 refinement rounds, one allreduce each.
        let recounts = if cfg!(debug_assertions) { 12 } else { 0 };
        let want = [
            ("allgather", 6),
            ("allreduce", 33 + recounts),
            ("alltoallv", 20),
            ("broadcast", 2),
            ("exscan_sum", 2),
            ("gather", 1),
        ];
        assert_eq!(calls, want.map(|(n, c)| (n.to_string(), c)));
    }
}
