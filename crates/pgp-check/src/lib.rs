//! Distributed-graph invariant validators (the "correctness wall").
//!
//! Distributed partitioning bugs are quiet: a ghost map pointing at the
//! wrong local slot or a lost weight contribution during contraction does
//! not crash — it silently degrades cut quality or balance, which then
//! reads as an algorithmic problem. These validators make the structural
//! invariants of the paper's data structures (§IV) checkable, so
//! corruption is caught at the phase boundary where it happens.
//!
//! All validators are **collective**: every PE of the group must call them
//! at the same point (they run allreduces/alltoallv internally). The
//! verdict is symmetric — either all PEs get `Ok(())` or all get the same
//! sorted error list — so a failing PE can never leave the others stuck in
//! a collective.
//!
//! Checked invariants (see DESIGN.md "Invariants & verification"):
//!
//! * **Row layout** — the owned nodes' arc ranges tile the arc arrays
//!   exactly once, each range as long as its node's degree, targets in
//!   `0..n_local+n_ghost`; the rows that store weights fill the arcs
//!   before `weighted_arcs()`, each with an arc that weighs other than 1;
//!   `degree_order` is the owned nodes by ascending degree, ties by ID.
//!   Arc weights may be zero: the reader accepts them and every kernel
//!   handles them.
//! * **Ghost tables** — `ghost_map` ⇄ `ghost_global` is a bijection onto
//!   `n_local..n_local+n_ghost`; `ghost_owner` agrees with the `BlockDist`
//!   arithmetic and never names the local PE; no ghost global ID lies in
//!   the owned range.
//! * **Cut-arc symmetry** — every arc `(u, v)` crossing to another PE has
//!   a mirror arc `(v, u)` of equal weight stored by `v`'s owner (the
//!   graph is undirected; an asymmetric cut arc means scatter or
//!   contraction dropped or duplicated a direction).
//! * **Global totals** — stored `total_node_weight`, `total_edge_weight`,
//!   `m_global` and `n_global` equal a fresh allreduce recount.
//! * **Partition sanity** — block IDs in `0..k`; ghost block labels agree
//!   with the owner's labels; claimed block weights equal an allreduce
//!   recount.
//! * **Contraction** — the fine→coarse map is surjective onto the coarse
//!   node set and node-weight preserving per coarse node.

use pgp_dmp::collectives::{allgatherv, allreduce_sum, allreduce_sum_vec, alltoallv};
use pgp_dmp::{Comm, DistGraph};
use pgp_graph::ids;
use pgp_graph::{Node, Weight};
use std::collections::HashMap;

/// Tags local findings with the discovering rank and merges them
/// group-wide so every PE returns the same verdict.
fn finish(comm: &Comm, local: Vec<String>) -> Result<(), Vec<String>> {
    let rank = comm.rank();
    let tagged: Vec<String> = local
        .into_iter()
        .map(|m| format!("[PE {rank}] {m}"))
        .collect();
    let mut all = allgatherv(comm, tagged);
    if all.is_empty() {
        Ok(())
    } else {
        all.sort();
        Err(all)
    }
}

/// Validates the full structural invariant set of a [`DistGraph`].
///
/// Collective over `comm`. On failure every PE receives the same sorted
/// list of violation messages (each prefixed with the discovering PE).
pub fn validate_dist_graph(comm: &Comm, g: &DistGraph) -> Result<(), Vec<String>> {
    let mut errs: Vec<String> = Vec::new();
    let rank = comm.rank();
    let dist = g.dist();
    let n_local = g.n_local();
    let n_ghost = g.n_ghost();
    let n_all = n_local + n_ghost;
    let owned = 0..ids::node_of_index(n_local);

    // ---- Ownership arithmetic --------------------------------------------
    if dist.count(rank) != n_local {
        errs.push(format!(
            "ownership range {}..{} disagrees with n_local = {n_local}",
            dist.first(rank),
            dist.last_excl(rank)
        ));
    }

    // ---- Row layout ---------------------------------------------------------
    // The non-empty ranges, by start, must follow each other from arc 0 to
    // the last arc; an empty one may sit anywhere inside the arrays.
    let arcs = ids::global_index(g.local_arc_count());
    let ranges: Vec<_> = owned.clone().map(|u| g.arc_range(u)).collect();
    let mut tiles: Vec<_> = ranges.iter().filter(|r| r.start < r.end).collect();
    tiles.sort_unstable_by_key(|r| r.start);
    let covered = tiles
        .iter()
        .try_fold(0, |at, r| (r.start == at).then_some(r.end));
    // Rows are read only once their ranges are known to be sound, but the
    // collectives below run either way.
    let rows_ok = covered == Some(arcs) && ranges.iter().all(|r| r.start <= r.end && r.end <= arcs);
    if !rows_ok {
        errs.push(format!(
            "the arc ranges of {n_local} owned nodes do not tile the {arcs} arcs exactly once"
        ));
    }
    // The rows that store weights fill arcs `0..w_end`, no row straddling it.
    let w_end = g.weighted_arcs();
    let weights_ok = w_end <= arcs && ranges.iter().all(|r| r.end <= w_end || r.start >= w_end);
    if rows_ok && !weights_ok {
        errs.push(format!(
            "the stored weights end at arc {w_end} of {arcs}, inside a row or past the last"
        ));
    }
    let mut all_ones = None;
    for u in owned.clone().filter(|_| rows_ok && weights_ok) {
        let (range, degree) = (g.arc_range(u).len(), g.degree(u));
        if range != degree || g.neighbors(u).count() != degree {
            errs.push(format!(
                "node {u} has degree {degree} but an arc range of {range}"
            ));
            break;
        }
        if let Some((t, _)) = g.neighbors(u).find(|&(t, _)| ids::node_index(t) >= n_all) {
            errs.push(format!(
                "node {u} has target {t} out of local range 0..{n_all}"
            ));
            break; // one report is enough; corrupt rows repeat
        }
        // Not a safety fault: the rows after it are still checked.
        if all_ones.is_none() && g.stores_weights(u) && g.neighbors(u).all(|(_, w)| w == 1) {
            all_ones = Some(format!("node {u} stores weights, all of them 1"));
        }
    }
    errs.extend(all_ones);
    let order = g.degree_order();
    let sorted = order.len() == n_local
        && order.iter().all(|&v| ids::node_index(v) < n_local)
        && order
            .windows(2)
            .all(|w| (g.degree(w[0]), w[0]) < (g.degree(w[1]), w[1]));
    if !sorted {
        errs.push("degree_order is not the owned nodes by ascending degree, ties by ID".into());
    }

    // ---- Ghost tables -----------------------------------------------------
    let ghost_global = g.ghost_globals();
    let ghost_map = g.ghost_map();
    let ghost_owner = g.ghost_owners();
    if ghost_map.len() != n_ghost {
        errs.push(format!(
            "ghost_map has {} entries for {n_ghost} ghosts",
            ghost_map.len()
        ));
    }
    let first = dist.first(rank);
    let last = dist.last_excl(rank);
    for (i, &gid) in ghost_global.iter().enumerate() {
        let expected_local = ids::node_of_index(n_local + i);
        match ghost_map.get(&gid) {
            Some(&l) if l == expected_local => {}
            Some(&l) => errs.push(format!(
                "ghost_map[{gid}] = {l}, but ghost_global[{i}] places it at {expected_local}"
            )),
            None => errs.push(format!(
                "ghost global ID {gid} (slot {i}) missing from ghost_map"
            )),
        }
        if ids::node_global(gid) >= first && ids::node_global(gid) < last {
            errs.push(format!("ghost global ID {gid} lies in the owned range"));
        }
    }
    for (&gid, &l) in ghost_map {
        let li = ids::node_index(l);
        if li < n_local || li >= n_all {
            errs.push(format!(
                "ghost_map[{gid}] = {l} outside the ghost slot range"
            ));
        } else if ghost_global.get(li - n_local) != Some(&gid) {
            errs.push(format!(
                "ghost_map[{gid}] = {l} disagrees with ghost_global[{}]",
                li - n_local
            ));
        }
    }
    if ghost_owner.len() != n_ghost {
        errs.push(format!(
            "ghost_owner has {} entries for {n_ghost} ghosts",
            ghost_owner.len()
        ));
    }
    for (i, (&gid, &owner)) in ghost_global.iter().zip(ghost_owner).enumerate() {
        let expect = dist.owner(gid);
        if ids::pe_index(owner) != expect {
            errs.push(format!(
                "ghost_owner[{i}] = {owner}, but the BlockDist owns {gid} on PE {expect}"
            ));
        }
        if ids::pe_index(owner) == rank {
            errs.push(format!("ghost_owner[{i}] names the local PE"));
        }
    }

    // ---- Cut-arc symmetry (collective) -----------------------------------
    // Send every cross-PE arc (gu, gv, w) to v's owner; the owner confirms
    // it stores the mirror arc with equal weight. Parallel arcs are matched
    // as a multiset, so duplicated directions are caught too.
    let mut outgoing: Vec<Vec<(Node, Node, Weight)>> = vec![Vec::new(); comm.size()];
    let mut mirror: HashMap<(Node, Node), Vec<Weight>> = HashMap::new();
    for u in owned.clone().filter(|_| rows_ok) {
        let gu = g.local_to_global(u);
        for (v, w) in g.neighbors(u) {
            if g.is_ghost(v) {
                let gv = g.local_to_global(v);
                outgoing[ids::pe_index(g.ghost_owner_of(v))].push((gu, gv, w));
                mirror.entry((gu, gv)).or_default().push(w);
            }
        }
    }
    let incoming = alltoallv(comm, outgoing);
    for (src_pe, claims) in incoming.into_iter().enumerate() {
        for (gu, gv, w) in claims {
            // The claim: PE src_pe stores arc gu→gv with weight w, and gv
            // is ours — we must store gv→gu with the same weight.
            match mirror.get_mut(&(gv, gu)) {
                Some(ws) if !ws.is_empty() => {
                    if let Some(pos) = ws.iter().position(|&x| x == w) {
                        ws.swap_remove(pos);
                    } else {
                        errs.push(format!(
                            "cut arc {gu}→{gv} (from PE {src_pe}) has weight {w}, \
                             mirror {gv}→{gu} has {ws:?}"
                        ));
                    }
                }
                _ => errs.push(format!(
                    "cut arc {gu}→{gv} (weight {w}, from PE {src_pe}) has no mirror here"
                )),
            }
        }
    }
    if let Some(((gu, gv), ws)) = mirror.iter().find(|(_, ws)| !ws.is_empty()) {
        errs.push(format!(
            "cut arc {gu}→{gv} (weights {ws:?}) was never claimed by the far side"
        ));
    }

    // ---- Global totals (collective) --------------------------------------
    let local_nw: Weight = g.owned_weights().iter().sum();
    let recount_nw = allreduce_sum(comm, local_nw);
    if recount_nw != g.total_node_weight() {
        errs.push(format!(
            "total_node_weight {} != allreduce recount {recount_nw}",
            g.total_node_weight()
        ));
    }
    let local_aw: Weight = owned
        .filter(|_| rows_ok)
        .flat_map(|u| g.neighbors(u).map(|(_, w)| w))
        .sum();
    let recount_ew = allreduce_sum(comm, local_aw) / 2;
    if recount_ew != g.total_edge_weight() {
        errs.push(format!(
            "total_edge_weight {} != allreduce recount {recount_ew}",
            g.total_edge_weight()
        ));
    }
    let recount_m = allreduce_sum(comm, g.local_arc_count()) / 2;
    if recount_m != g.m_global() {
        errs.push(format!(
            "m_global {} != allreduce recount {recount_m}",
            g.m_global()
        ));
    }
    let recount_n = allreduce_sum(comm, ids::count_global(n_local));
    if recount_n != g.n_global() {
        errs.push(format!(
            "n_global {} != sum of n_local {recount_n}",
            g.n_global()
        ));
    }

    finish(comm, errs)
}

/// Validates a `k`-way block assignment over `graph`.
///
/// `blocks` covers owned followed by ghost nodes. `claimed_weights`, when
/// given, is the caller's view of the per-block weights (e.g. a refinement
/// loop's running tally) and is compared against an allreduce recount.
/// Collective over `comm`.
pub fn validate_dist_partition(
    comm: &Comm,
    graph: &DistGraph,
    blocks: &[Node],
    k: usize,
    claimed_weights: Option<&[Weight]>,
) -> Result<(), Vec<String>> {
    let mut errs: Vec<String> = Vec::new();
    let n_local = graph.n_local();
    let n_all = n_local + graph.n_ghost();
    if blocks.len() != n_all {
        errs.push(format!(
            "blocks covers {} nodes, expected owned + ghost = {n_all}",
            blocks.len()
        ));
        // Dimensions are wrong: skip content checks but keep the collective
        // schedule aligned with the PEs taking the full path.
        let _ = allreduce_sum_vec(comm, vec![0; k]);
        let _ = alltoallv::<(Node, Node)>(comm, vec![Vec::new(); comm.size()]);
        return finish(comm, errs);
    }

    for (l, &b) in blocks.iter().enumerate() {
        if ids::node_index(b) >= k {
            errs.push(format!("node local {l} assigned to block {b} >= k = {k}"));
            break;
        }
    }

    // Block weights: owned contribution only, then allreduce recount.
    let mut contrib: Vec<Weight> = vec![0; k];
    for l in 0..ids::node_of_index(n_local) {
        let b = ids::node_index(blocks[ids::node_index(l)]).min(k - 1);
        contrib[b] += graph.node_weight(l);
    }
    let recount = allreduce_sum_vec(comm, contrib);
    if let Some(claimed) = claimed_weights {
        if claimed != recount.as_slice() {
            errs.push(format!(
                "claimed block weights {claimed:?} != allreduce recount {recount:?}"
            ));
        }
    }

    // Ghost label agreement: report each ghost's cached label to its owner.
    let mut queries: Vec<Vec<(Node, Node)>> = vec![Vec::new(); comm.size()];
    for (i, (&gid, &owner)) in graph
        .ghost_globals()
        .iter()
        .zip(graph.ghost_owners())
        .enumerate()
    {
        let ghost_label = blocks[n_local + i];
        queries[ids::pe_index(owner)].push((gid, ghost_label));
    }
    let incoming = alltoallv(comm, queries);
    let first = graph.first_global();
    for (src_pe, claims) in incoming.into_iter().enumerate() {
        for (gid, their_label) in claims {
            let l = ids::global_index(ids::node_global(gid) - first);
            let ours = blocks[l];
            if ours != their_label {
                errs.push(format!(
                    "PE {src_pe} holds stale block {their_label} for node {gid} \
                     (owner says {ours})"
                ));
            }
        }
    }

    finish(comm, errs)
}

/// Validates one contraction step: `mapping` (fine owned + ghost → global
/// coarse ID) must be surjective onto the coarse node set and preserve
/// node weight per coarse node. Collective over `comm`.
pub fn validate_contraction(
    comm: &Comm,
    fine: &DistGraph,
    coarse: &DistGraph,
    mapping: &[Node],
) -> Result<(), Vec<String>> {
    let mut errs: Vec<String> = Vec::new();
    let n_all = fine.n_local() + fine.n_ghost();
    if mapping.len() != n_all {
        errs.push(format!(
            "mapping covers {} fine nodes, expected owned + ghost = {n_all}",
            mapping.len()
        ));
        let _ = alltoallv::<(Node, Weight)>(comm, vec![Vec::new(); comm.size()]);
        return finish(comm, errs);
    }

    let n_coarse = coarse.n_global();
    for (l, &c) in mapping.iter().enumerate() {
        if ids::node_global(c) >= n_coarse {
            errs.push(format!(
                "mapping[{l}] = {c} out of coarse range 0..{n_coarse}"
            ));
            break;
        }
    }

    // Weight preservation + surjectivity: owned fine nodes send
    // (coarse ID, weight) to the coarse owner, which compares the
    // aggregate against its stored coarse node weights. A coarse node
    // receiving no contribution at all breaks surjectivity.
    let coarse_dist = coarse.dist();
    let mut sends: Vec<Vec<(Node, Weight)>> = vec![Vec::new(); comm.size()];
    for l in 0..ids::node_of_index(fine.n_local()) {
        let c = mapping[ids::node_index(l)];
        sends[coarse_dist.owner(c)].push((c, fine.node_weight(l)));
    }
    let incoming = alltoallv(comm, sends);
    let first = coarse.first_global();
    // Members are counted, not weighed: a cluster of zero-weight nodes
    // has members that sum to 0.
    let mut sums: Vec<(usize, Weight)> = vec![(0, 0); coarse.n_local()];
    for contribs in incoming {
        for (c, w) in contribs {
            let idx = ids::global_index(ids::node_global(c) - first);
            let Some((members, sum)) = sums.get_mut(idx) else {
                errs.push(format!("coarse ID {c} routed to the wrong owner"));
                continue;
            };
            *members += 1;
            *sum += w;
        }
    }
    for (i, (&(members, got), &want)) in sums.iter().zip(coarse.owned_weights()).enumerate() {
        let cid = first + ids::count_global(i);
        if members == 0 {
            errs.push(format!(
                "coarse node {cid} has no fine members (mapping not surjective)"
            ));
        } else if got != want {
            errs.push(format!(
                "coarse node {cid} weighs {want} but its members sum to {got}"
            ));
        }
    }

    // Totals survive contraction by construction; re-check them anyway.
    if fine.total_node_weight() != coarse.total_node_weight() {
        errs.push(format!(
            "contraction changed total node weight: {} -> {}",
            fine.total_node_weight(),
            coarse.total_node_weight()
        ));
    }

    finish(comm, errs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgp_dmp::run;
    use pgp_graph::CsrGraph;

    fn ring(n: usize) -> CsrGraph {
        let edges: Vec<(Node, Node)> = (0..n).map(|i| (i as Node, ((i + 1) % n) as Node)).collect();
        pgp_graph::builder::from_edges(n, &edges)
    }

    #[test]
    fn healthy_graph_validates() {
        let g = ring(24);
        run(4, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            // The ring is unweighted: the audit sees the unit form.
            assert_eq!(dg.weighted_arcs(), 0);
            validate_dist_graph(comm, &dg).unwrap();
        });
    }

    #[test]
    fn healthy_rmat_validates() {
        let g = pgp_gen::rmat::rmat_web(9, 8, 3);
        run(3, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            validate_dist_graph(comm, &dg).unwrap();
        });
    }

    #[test]
    fn corrupted_ghost_map_is_detected() {
        let g = ring(16);
        let reports = run(4, |comm| {
            let mut dg = DistGraph::from_global(comm, &g);
            if comm.rank() == 2 {
                // Shift one ghost's slot: classic off-by-one corruption.
                let gid = dg.ghost_globals()[0];
                let wrong = dg.global_to_local(gid) + 1;
                dg.ghost_map_mut_for_test().insert(gid, wrong);
            }
            validate_dist_graph(comm, &dg)
        });
        for r in reports {
            let errs = r.expect_err("corruption must be detected");
            assert!(
                errs.iter()
                    .any(|e| e.contains("[PE 2]") && e.contains("ghost_map")),
                "unexpected error set: {errs:?}"
            );
        }
    }

    #[test]
    fn corrupted_ghost_owner_is_detected() {
        let g = ring(16);
        let reports = run(4, |comm| {
            let mut dg = DistGraph::from_global(comm, &g);
            if comm.rank() == 1 {
                dg.ghost_owners_mut_for_test()[0] = comm.rank() as u32;
            }
            validate_dist_graph(comm, &dg)
        });
        for r in reports {
            let errs = r.expect_err("corruption must be detected");
            assert!(errs.iter().any(|e| e.contains("ghost_owner")), "{errs:?}");
        }
    }

    #[test]
    fn asymmetric_cut_arc_is_detected() {
        let g = ring(12);
        let reports = run(3, |comm| {
            let mut dg = DistGraph::from_global(comm, &g);
            if comm.rank() == 0 {
                // Tamper with the weight of the first cut arc on this side
                // only: the mirror no longer matches.
                let (u, cut) = (0..dg.n_local() as Node)
                    .find_map(|u| Some((u, dg.neighbors(u).position(|(t, _)| dg.is_ghost(t))?)))
                    .expect("ring PE has cut arcs");
                dg.set_arc_weight_for_test(u, cut, 7);
            }
            validate_dist_graph(comm, &dg)
        });
        for r in reports {
            let errs = r.expect_err("asymmetry must be detected");
            assert!(errs.iter().any(|e| e.contains("mirror")), "{errs:?}");
            assert!(
                !errs.iter().any(|e| e.contains("stores weights")),
                "{errs:?}"
            );
        }
    }

    /// A unit row moved into the stored rows, its weights all 1: the layout
    /// still tiles, and only the canonical form is reported.
    #[test]
    fn stored_unit_row_is_reported() {
        let g = ring(12);
        let reports = run(2, |comm| {
            let mut dg = DistGraph::from_global(comm, &g);
            if comm.rank() == 1 {
                dg.set_arc_weight_for_test(2, 0, 1);
                assert_eq!(dg.weighted_arcs(), 2);
            }
            validate_dist_graph(comm, &dg)
        });
        for r in reports {
            let errs = r.expect_err("the stored unit row must be reported");
            assert_eq!(errs, ["[PE 1] node 2 stores weights, all of them 1"]);
        }
    }

    /// One row's range pointed at another's: the ranges no longer tile the
    /// arc arrays. Two entries of the visit order swapped: it is no longer
    /// the degree sort. The R-MAT graph stores its rows in degree order.
    #[test]
    fn corrupted_row_layout_is_detected() {
        let g = pgp_gen::rmat::rmat_web(9, 8, 3);
        let reports = run(2, |comm| {
            let mut dg = DistGraph::from_global(comm, &g);
            let order = dg.degree_order().to_vec();
            let (low, high) = (order[0] as usize, order[order.len() - 1] as usize);
            if comm.rank() == 0 {
                dg.ranges_mut_for_test()[low] = dg.ranges_mut_for_test()[high];
            } else {
                dg.degree_order_mut_for_test().swap(0, order.len() - 1);
            }
            validate_dist_graph(comm, &dg)
        });
        for r in reports {
            let errs = r.expect_err("corruption must be detected");
            assert!(
                errs.iter()
                    .any(|e| e.contains("[PE 0]") && e.contains("tile")),
                "{errs:?}"
            );
            assert!(
                errs.iter()
                    .any(|e| e.contains("[PE 1]") && e.contains("degree_order")),
                "{errs:?}"
            );
        }
    }

    #[test]
    fn corrupted_node_weight_breaks_totals() {
        let g = ring(16);
        let reports = run(2, |comm| {
            let mut dg = DistGraph::from_global(comm, &g);
            if comm.rank() == 1 {
                dg.node_weights_mut_for_test()[0] += 5;
            }
            validate_dist_graph(comm, &dg)
        });
        for r in reports {
            let errs = r.expect_err("weight drift must be detected");
            assert!(
                errs.iter().any(|e| e.contains("total_node_weight")),
                "{errs:?}"
            );
        }
    }

    #[test]
    fn verdict_is_symmetric_across_pes() {
        let g = ring(16);
        let reports = run(4, |comm| {
            let mut dg = DistGraph::from_global(comm, &g);
            if comm.rank() == 3 {
                dg.node_weights_mut_for_test()[0] += 1;
            }
            validate_dist_graph(comm, &dg)
        });
        let errs: Vec<_> = reports.into_iter().map(|r| r.unwrap_err()).collect();
        assert!(errs.windows(2).all(|w| w[0] == w[1]), "all PEs must agree");
    }

    #[test]
    fn valid_partition_passes_and_stale_ghost_fails() {
        let g = ring(16);
        // Healthy: blocks by parity of global ID, ghosts consistent.
        run(4, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let blocks: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                .map(|l| dg.local_to_global(l) % 2)
                .collect();
            validate_dist_partition(comm, &dg, &blocks, 2, None).unwrap();
        });
        // Stale ghost label on one PE.
        let reports = run(4, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut blocks: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                .map(|l| dg.local_to_global(l) % 2)
                .collect();
            if comm.rank() == 0 && dg.n_ghost() > 0 {
                let i = dg.n_local();
                blocks[i] = 1 - blocks[i];
            }
            validate_dist_partition(comm, &dg, &blocks, 2, None)
        });
        for r in reports {
            let errs = r.expect_err("stale ghost must be detected");
            assert!(errs.iter().any(|e| e.contains("stale")), "{errs:?}");
        }
    }

    #[test]
    fn wrong_claimed_block_weights_fail() {
        let g = ring(16);
        let reports = run(2, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let blocks: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                .map(|l| dg.local_to_global(l) % 2)
                .collect();
            let bogus = vec![1u64, 15];
            validate_dist_partition(comm, &dg, &blocks, 2, Some(&bogus))
        });
        for r in reports {
            let errs = r.expect_err("bogus weights must be detected");
            assert!(errs.iter().any(|e| e.contains("recount")), "{errs:?}");
        }
    }

    /// A cluster of zero-weight nodes has members whose weights sum to 0;
    /// a coarse node no fine node maps to is still caught.
    #[test]
    fn zero_weight_cluster_contracts_validly() {
        let n = 16;
        let mut b = pgp_graph::GraphBuilder::new(n);
        for i in 0..n {
            b.push_edge(i as Node, ((i + 1) % n) as Node, 1);
        }
        let weights = (0..n).map(|i| Weight::from(i >= 4)).collect();
        let g = b.node_weights(weights).build();
        let clustering: Vec<Node> = (0..n as Node).map(|v| v / 4).collect();
        let c = pgp_graph::contract_clustering(&g, &clustering);
        assert_eq!(c.coarse.node_weight(c.mapping[0]), 0);
        for orphan in [false, true] {
            let reports = run(2, |comm| {
                let fine = DistGraph::from_global(comm, &g);
                let coarse = DistGraph::from_global(comm, &c.coarse);
                let mapping: Vec<Node> = (0..(fine.n_local() + fine.n_ghost()) as Node)
                    .map(|l| {
                        let cu = c.mapping[ids::node_index(fine.local_to_global(l))];
                        // Folding the zero-weight cluster into its neighbour
                        // moves no weight but leaves its coarse node empty.
                        if orphan && cu == c.mapping[0] {
                            c.mapping[4]
                        } else {
                            cu
                        }
                    })
                    .collect();
                validate_contraction(comm, &fine, &coarse, &mapping)
            });
            for r in reports {
                if orphan {
                    let errs = r.expect_err("an empty coarse node must be detected");
                    assert!(
                        errs.iter().any(|e| e.contains("no fine members")),
                        "{errs:?}"
                    );
                } else {
                    r.unwrap();
                }
            }
        }
    }

    #[test]
    fn out_of_range_block_fails() {
        let g = ring(8);
        let reports = run(2, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let blocks: Vec<Node> = vec![9; dg.n_local() + dg.n_ghost()];
            validate_dist_partition(comm, &dg, &blocks, 2, None)
        });
        for r in reports {
            assert!(r.is_err(), "out-of-range block must be detected");
        }
    }
}
