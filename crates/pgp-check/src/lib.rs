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
//! * **CSR well-formedness** — `xadj` monotone and bounded, targets in
//!   `0..n_local+n_ghost`, weight array lengths agree, positive arc
//!   weights.
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
//! * **Recovery consensus** — after a supervised recovery, every PE holds
//!   the same dead-rank verdict and resume point, and the verdict is
//!   sorted, in range, and leaves survivors.

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
    let xadj = g.xadj_raw();
    let adjncy = g.adjncy_raw();
    let adjwgt = g.adjwgt_raw();

    // ---- Ownership arithmetic --------------------------------------------
    if dist.count(rank) != n_local {
        errs.push(format!(
            "ownership range {}..{} disagrees with n_local = {n_local}",
            dist.first(rank),
            dist.last_excl(rank)
        ));
    }

    // ---- CSR well-formedness ---------------------------------------------
    if xadj.len() != n_local + 1 {
        errs.push(format!(
            "xadj has {} entries for {n_local} owned nodes",
            xadj.len()
        ));
    }
    if xadj.first() != Some(&0) {
        errs.push("xadj[0] != 0".to_string());
    }
    if xadj.windows(2).any(|w| w[0] > w[1]) {
        errs.push("xadj is not monotone".to_string());
    }
    if xadj.last().copied() != Some(ids::count_global(adjncy.len())) {
        errs.push(format!(
            "xadj end {:?} != adjncy length {}",
            xadj.last(),
            adjncy.len()
        ));
    }
    // Empty stands for "every arc weighs 1" (the canonical unit form).
    if !adjwgt.is_empty() && adjwgt.len() != adjncy.len() {
        errs.push(format!(
            "adjwgt length {} != adjncy length {}",
            adjwgt.len(),
            adjncy.len()
        ));
    }
    for (i, &t) in adjncy.iter().enumerate() {
        if ids::node_index(t) >= n_all {
            errs.push(format!("adjncy[{i}] = {t} out of local range 0..{n_all}"));
            break; // one report is enough; corrupt CSRs repeat
        }
    }
    if let Some(i) = adjwgt.iter().position(|&w| w == 0) {
        errs.push(format!(
            "adjwgt[{i}] is zero (arcs must carry positive weight)"
        ));
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
    for u in 0..ids::node_of_index(n_local) {
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
    let local_aw: Weight = if adjwgt.is_empty() {
        g.local_arc_count()
    } else {
        adjwgt.iter().sum()
    };
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
    let mut sums: Vec<Weight> = vec![0; coarse.n_local()];
    for contribs in incoming {
        for (c, w) in contribs {
            let idx = ids::global_index(ids::node_global(c) - first);
            if idx >= sums.len() {
                errs.push(format!("coarse ID {c} routed to the wrong owner"));
                continue;
            }
            sums[idx] += w;
        }
    }
    for (i, (&got, &want)) in sums.iter().zip(coarse.owned_weights()).enumerate() {
        let cid = first + ids::count_global(i);
        if got == 0 {
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

/// Validates the recovery state a respawned group resumes under: the
/// failure-consensus verdict (`dead_ranks`, the ranks of the *previous*
/// universe declared dead) and the resume point (`resume_cycle`, the
/// checkpointed V-cycle being resumed from, `None` when restarting from
/// scratch).
///
/// Local checks: ranks in `0..p`, strictly ascending (sorted, no
/// duplicates), and fewer dead than group members. A verdict naming the
/// calling PE's own rank is fine — the respawned replacement occupies the
/// rank index of the PE it replaces. Collective check: every PE's
/// (verdict, resume point) view is allgathered and compared — recovery
/// must not proceed from divergent views, or the resumed run forks.
/// Collective over `comm`.
pub fn validate_recovery(
    comm: &Comm,
    dead_ranks: &[usize],
    resume_cycle: Option<usize>,
) -> Result<(), Vec<String>> {
    let mut errs: Vec<String> = Vec::new();
    let p = comm.size();

    for &d in dead_ranks {
        if d >= p {
            errs.push(format!("dead rank {d} out of group range 0..{p}"));
        }
    }
    if dead_ranks.windows(2).any(|w| w[0] >= w[1]) {
        errs.push(format!(
            "dead-rank verdict {dead_ranks:?} is not strictly ascending"
        ));
    }
    if dead_ranks.len() >= p {
        errs.push(format!(
            "verdict declares {} dead of {p} PEs — no survivors to resume",
            dead_ranks.len()
        ));
    }

    // Group agreement: one canonical line per PE, gathered in rank order.
    let view = format!("dead={dead_ranks:?} resume={resume_cycle:?}");
    let all_views = allgatherv(comm, vec![view.clone()]);
    for (r, theirs) in all_views.iter().enumerate() {
        if *theirs != view {
            errs.push(format!(
                "recovery view disagrees with PE {r}: ours [{view}], theirs [{theirs}]"
            ));
        }
    }

    finish(comm, errs)
}

/// Validates the internal consistency of a V-cycle checkpoint snapshot:
/// both assignments stay inside `0..k`, the coarsest assignment covers the
/// coarsest graph exactly, the fine→coarsest map covers the fine
/// assignment and targets real coarsest nodes, and the coarsest graph
/// itself is structurally well-formed.
///
/// Deliberately **not** checked: `assignment[v] ==
/// coarsest_assignment[fine_to_coarsest[v]]`. The snapshot's fine
/// assignment is taken *after* uncoarsening refinement, which legitimately
/// moves nodes away from the block their coarsest ancestor was given by
/// the evolutionary partitioner.
///
/// Unlike the other validators this one is **non-collective**: the
/// checkpoint is a replicated snapshot (every PE assembles identical
/// bytes), so each PE can validate its copy locally without a group
/// verdict exchange.
pub fn validate_checkpoint(
    k: usize,
    assignment: &[Node],
    coarsest: &pgp_graph::CsrGraph,
    coarsest_assignment: &[Node],
    fine_to_coarsest: &[Node],
) -> Result<(), Vec<String>> {
    let mut errs: Vec<String> = Vec::new();

    for (v, &b) in assignment.iter().enumerate() {
        if ids::node_index(b) >= k {
            errs.push(format!("assignment[{v}] = {b} out of block range 0..{k}"));
            break;
        }
    }

    let n_coarse = coarsest.n();
    if coarsest_assignment.len() != n_coarse {
        errs.push(format!(
            "coarsest assignment covers {} nodes, coarsest graph has {n_coarse}",
            coarsest_assignment.len()
        ));
    }
    for (c, &b) in coarsest_assignment.iter().enumerate() {
        if ids::node_index(b) >= k {
            errs.push(format!(
                "coarsest_assignment[{c}] = {b} out of block range 0..{k}"
            ));
            break;
        }
    }

    if fine_to_coarsest.len() != assignment.len() {
        errs.push(format!(
            "fine_to_coarsest covers {} nodes, assignment covers {}",
            fine_to_coarsest.len(),
            assignment.len()
        ));
    }
    for (v, &c) in fine_to_coarsest.iter().enumerate() {
        if ids::node_index(c) >= n_coarse {
            errs.push(format!(
                "fine_to_coarsest[{v}] = {c} out of coarsest range 0..{n_coarse}"
            ));
            break;
        }
    }

    if let Err(e) = coarsest.validate() {
        errs.push(format!("coarsest graph malformed: {e}"));
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
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
            assert!(dg.adjwgt_raw().is_empty());
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
                let nl = dg.n_local();
                let pos = dg
                    .adjncy_raw()
                    .iter()
                    .position(|&t| (t as usize) >= nl)
                    .expect("ring PE has cut arcs");
                dg.adjwgt_mut_for_test()[pos] = 7;
            }
            validate_dist_graph(comm, &dg)
        });
        for r in reports {
            let errs = r.expect_err("asymmetry must be detected");
            assert!(errs.iter().any(|e| e.contains("mirror")), "{errs:?}");
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

    #[test]
    fn agreed_recovery_verdict_passes() {
        run(4, |comm| {
            validate_recovery(comm, &[2], Some(1)).unwrap();
            validate_recovery(comm, &[], None).unwrap();
        });
    }

    #[test]
    fn divergent_recovery_view_is_detected() {
        let reports = run(3, |comm| {
            let dead: &[usize] = if comm.rank() == 1 { &[0] } else { &[2] };
            validate_recovery(comm, dead, Some(0))
        });
        for r in reports {
            let errs = r.expect_err("divergent views must be detected");
            assert!(errs.iter().any(|e| e.contains("disagrees")), "{errs:?}");
        }
    }

    #[test]
    fn malformed_local_verdict_is_detected() {
        let reports = run(2, |comm| {
            // Out of range, unsorted, and no survivors — all at once.
            validate_recovery(comm, &[1, 1, 9], None)
        });
        for r in reports {
            let errs = r.expect_err("malformed verdict must be detected");
            assert!(
                errs.iter().any(|e| e.contains("out of group range")),
                "{errs:?}"
            );
            assert!(errs.iter().any(|e| e.contains("ascending")), "{errs:?}");
            assert!(errs.iter().any(|e| e.contains("no survivors")), "{errs:?}");
        }
    }

    /// A tiny healthy checkpoint: 8 fine nodes contracted onto a
    /// 4-node ring, 2 blocks, fine nodes map pairwise to coarsest nodes.
    fn healthy_checkpoint() -> (usize, Vec<Node>, CsrGraph, Vec<Node>, Vec<Node>) {
        let coarsest = ring(4);
        let assignment: Vec<Node> = (0..8).map(|v| (v / 4) as Node).collect();
        let coarsest_assignment: Vec<Node> = (0..4).map(|c| (c / 2) as Node).collect();
        let fine_to_coarsest: Vec<Node> = (0..8).map(|v| (v / 2) as Node).collect();
        (
            2,
            assignment,
            coarsest,
            coarsest_assignment,
            fine_to_coarsest,
        )
    }

    #[test]
    fn healthy_checkpoint_validates() {
        let (k, a, g, ca, f2c) = healthy_checkpoint();
        validate_checkpoint(k, &a, &g, &ca, &f2c).unwrap();
    }

    #[test]
    fn checkpoint_block_out_of_range_fails() {
        let (k, mut a, g, ca, f2c) = healthy_checkpoint();
        a[3] = 9;
        let errs = validate_checkpoint(k, &a, &g, &ca, &f2c).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("block range")), "{errs:?}");
    }

    #[test]
    fn checkpoint_coarsest_coverage_mismatch_fails() {
        let (k, a, g, mut ca, f2c) = healthy_checkpoint();
        ca.pop();
        let errs = validate_checkpoint(k, &a, &g, &ca, &f2c).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("coarsest graph has")),
            "{errs:?}"
        );
    }

    #[test]
    fn checkpoint_map_target_out_of_range_fails() {
        let (k, a, g, ca, mut f2c) = healthy_checkpoint();
        f2c[5] = 4; // coarsest has nodes 0..4
        let errs = validate_checkpoint(k, &a, &g, &ca, &f2c).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("coarsest range")),
            "{errs:?}"
        );
    }

    #[test]
    fn checkpoint_map_length_mismatch_fails() {
        let (k, a, g, ca, mut f2c) = healthy_checkpoint();
        f2c.truncate(6);
        let errs = validate_checkpoint(k, &a, &g, &ca, &f2c).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("fine_to_coarsest covers")),
            "{errs:?}"
        );
    }
}
