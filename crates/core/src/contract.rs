//! Parallel contraction and uncoarsening (Section IV-C).
//!
//! Cluster IDs after label propagation are arbitrarily distributed in
//! `0..n`. The contraction algorithm:
//!
//! 1. Every PE sends the distinct cluster IDs of its local nodes to the
//!    PE *responsible* for that ID range (`Ip` intervals).
//! 2. Responsible PEs count their distinct IDs; a prefix sum (`exscan`)
//!    over those counts yields the renumbering `q` onto a contiguous
//!    interval — `q(c)` is the PE's offset plus `c`'s rank in its sorted ID
//!    list — and a reduction yields the coarse node count `n'`.
//! 3. Each PE sorts its owned + ghost nodes by cluster ID once
//!    (`rank_keys`). The distinct IDs in that order are what it asks `q`
//!    for, and a node's cluster is from here on its *position* in that
//!    list: a block distribution's owner is monotone in the ID, so the
//!    replies concatenated by PE line up with the list and the
//!    fine→coarse mapping `C` is one indexed read per node.
//! 4. The quotient rows are built cluster by cluster in the same order:
//!    the arcs of a cluster's owned members are summed into a dense table
//!    indexed by the target's position (flags and a touched list reset it;
//!    flags because a zero-weight arc is still an arc), the members' node
//!    weights in the same pass, and each row goes out ascending — `(cu,
//!    cv, w)` and `(cu, weight)` to the PE owning `cu` in the coarse block
//!    distribution. `q` is monotone in the cluster ID, so every message is
//!    a sorted run.
//! 5. Owners merge the `p` runs they receive, add up the arcs several PEs
//!    contributed to, and assemble their coarse subgraph.
//!
//! Uncoarsening answers "which block is my coarse representative in" with
//! one query/answer `alltoallv` round-trip, also per the paper.

use pgp_dmp::collectives::{allreduce_sum, alltoallv, exscan_sum};
use pgp_dmp::dgraph::BlockDist;
use pgp_dmp::{Comm, DistGraph};
use pgp_graph::ids;
use pgp_graph::{Node, Weight};

/// Result of one parallel contraction step, from one PE's perspective.
pub struct ParContraction {
    /// The coarse distributed graph (this PE's part).
    pub coarse: DistGraph,
    /// `mapping[l] = global coarse node of fine local node l` — covers
    /// owned *and* ghost fine nodes (the paper propagates the mapping of
    /// ghosts from their owners; here it follows from ghost labels).
    pub mapping: Vec<Node>,
}

/// Generic owner lookup: resolves `value_of(local_index)` on the owner of
/// each queried global ID. `queries` may contain duplicates; the result is
/// aligned with `queries`.
pub fn query_owner_values<T: Clone + pgp_dmp::Wire>(
    comm: &Comm,
    dist: BlockDist,
    queries: &[Node],
    value_of: impl Fn(usize) -> T,
) -> Vec<T> {
    let p = comm.size();
    let mut buckets: Vec<Vec<Node>> = vec![Vec::new(); p];
    let mut origin: Vec<(usize, usize)> = Vec::with_capacity(queries.len());
    for &g in queries {
        let owner = dist.owner(g);
        origin.push((owner, buckets[owner].len()));
        buckets[owner].push(g);
    }
    let incoming = alltoallv(comm, buckets);
    let answers: Vec<Vec<T>> = incoming
        .into_iter()
        .map(|qs| {
            qs.into_iter()
                .map(|g| {
                    let first = dist.first(comm.rank());
                    value_of(ids::global_index(ids::node_global(g) - first))
                })
                .collect()
        })
        .collect();
    let replies = alltoallv(comm, answers);
    origin
        .into_iter()
        .map(|(owner, idx)| replies[owner][idx].clone())
        .collect()
}

/// `keys` ranked: the distinct keys ascending, each key's position among
/// them, and the indices of `keys` in ascending `(key, index)` order.
struct Ranked {
    distinct: Vec<Node>,
    pos: Vec<Node>,
    order: Vec<Node>,
}

fn rank_keys(keys: &[Node]) -> Ranked {
    // One word per key, key above index: plain integer order is
    // `(key, index)` order, and sorts about twice as fast as tuples.
    let mut by_key: Vec<u64> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| ids::node_global(k) << Node::BITS | ids::count_global(i))
        .collect();
    by_key.sort_unstable();
    let index_of = |word: u64| ids::global_node(word & u64::from(Node::MAX));
    let mut distinct: Vec<Node> = Vec::new();
    let mut pos: Vec<Node> = vec![0; keys.len()];
    for &word in &by_key {
        let k = ids::global_node(word >> Node::BITS);
        if distinct.last() != Some(&k) {
            distinct.push(k);
        }
        pos[ids::node_index(index_of(word))] = ids::node_of_index(distinct.len() - 1);
    }
    Ranked {
        distinct,
        pos,
        order: by_key.into_iter().map(index_of).collect(),
    }
}

/// Sends every ID of `sorted` (ascending) to its owner under `dist` and
/// returns the owners' answers, aligned with `sorted`: `answer` runs on the
/// owner, once per ID it was asked for. The owner is monotone in the ID, so
/// the replies concatenated by PE are already in `sorted`'s order.
fn query_sorted<T: pgp_dmp::Wire>(
    comm: &Comm,
    dist: BlockDist,
    sorted: &[Node],
    answer: impl Fn(Node) -> T,
) -> Vec<T> {
    debug_assert!(sorted.is_sorted());
    let mut buckets: Vec<Vec<Node>> = vec![Vec::new(); comm.size()];
    for &c in sorted {
        buckets[dist.owner(c)].push(c);
    }
    let answers: Vec<Vec<T>> = alltoallv(comm, buckets)
        .into_iter()
        .map(|asked| asked.into_iter().map(&answer).collect())
        .collect();
    alltoallv(comm, answers).into_iter().flatten().collect()
}

/// Contracts `graph` according to `labels` (global cluster IDs for owned +
/// ghost nodes, as produced by the parallel SCLP).
pub fn parallel_contract(comm: &Comm, graph: &DistGraph, labels: &[Node]) -> ParContraction {
    let _span = comm.recorder().span("contract");
    let n_local = graph.n_local();
    let n_all = n_local + graph.n_ghost();
    assert_eq!(labels.len(), n_all, "labels must cover owned + ghost nodes");
    let p = comm.size();
    let fine_dist = graph.dist();

    // -- Step 1: distinct local cluster IDs to their responsible PEs. -----
    let mut local_ids: Vec<Node> = labels[..n_local].to_vec();
    local_ids.sort_unstable();
    local_ids.dedup();
    let mut to_resp: Vec<Vec<Node>> = vec![Vec::new(); p];
    for &c in &local_ids {
        to_resp[fine_dist.owner(c)].push(c);
    }
    let received = alltoallv(comm, to_resp);

    // -- Step 2: count distinct IDs in my responsibility interval; q(c) is
    //    my offset plus c's rank in `my_ids`.
    let mut my_ids: Vec<Node> = received.into_iter().flatten().collect();
    my_ids.sort_unstable();
    my_ids.dedup();
    let my_count = ids::count_global(my_ids.len());
    let offset = exscan_sum(comm, my_count);
    let n_coarse = allreduce_sum(comm, my_count);

    // -- Step 3: resolve C(v) = q(label(v)) for every local + ghost node.
    // (Not `query_owner_values`: q is keyed by cluster ID on the
    // *responsible* PE, not by owned-node index.)
    let Ranked {
        distinct: want,
        pos,
        order,
    } = rank_keys(labels);
    let q_of: Vec<Node> = query_sorted(comm, fine_dist, &want, |c| {
        let rank = my_ids
            .binary_search(&c)
            .expect("a queried cluster ID was announced by its members' PE in step 1");
        ids::global_node(offset + ids::count_global(rank))
    });
    let mapping: Vec<Node> = pos.iter().map(|&c| q_of[ids::node_index(c)]).collect();

    // -- Step 4: quotient rows + weight contributions, cluster by cluster,
    //    to the coarse owners.
    let coarse_dist = BlockDist::new(n_coarse, p);
    let mut arc_sends: Vec<Vec<(Node, Node, Weight)>> = vec![Vec::new(); p];
    let mut weight_sends: Vec<Vec<(Node, Weight)>> = vec![Vec::new(); p];
    let mut acc: Vec<Weight> = vec![0; want.len()];
    let mut seen = vec![false; want.len()];
    let mut touched: Vec<Node> = Vec::new();
    let cluster_of = |v: Node| pos[ids::node_index(v)];
    for cluster in order.chunk_by(|&a, &b| cluster_of(a) == cluster_of(b)) {
        let c = cluster_of(cluster[0]);
        // Members ascend, so the owned ones come first; ghost members have
        // neither rows nor a weight contribution here.
        let owned = &cluster[..cluster.partition_point(|&u| ids::node_index(u) < n_local)];
        if owned.is_empty() {
            continue;
        }
        let mut weight: Weight = 0;
        for &u in owned {
            weight += graph.node_weight(u);
            for (v, w) in graph.neighbors(u) {
                let t = cluster_of(v);
                if t != c {
                    if !seen[ids::node_index(t)] {
                        seen[ids::node_index(t)] = true;
                        touched.push(t);
                    }
                    acc[ids::node_index(t)] += w;
                }
            }
        }
        let cu = q_of[ids::node_index(c)];
        let owner = coarse_dist.owner(cu);
        weight_sends[owner].push((cu, weight));
        touched.sort_unstable();
        for t in touched.drain(..) {
            let t = ids::node_index(t);
            arc_sends[owner].push((cu, q_of[t], acc[t]));
            acc[t] = 0;
            seen[t] = false;
        }
    }
    let arc_recv = alltoallv(comm, arc_sends);
    let weight_recv = alltoallv(comm, weight_sends);

    // -- Step 5: merge the p sorted runs (a stable sort does exactly that),
    //    sum what several PEs sent for one arc, assemble the subgraph.
    let mut arcs: Vec<(Node, Node, Weight)> = arc_recv.into_iter().flatten().collect();
    arcs.sort();
    arcs.dedup_by(|next, kept| {
        let same = (next.0, next.1) == (kept.0, kept.1);
        if same {
            kept.2 += next.2;
        }
        same
    });
    let first = coarse_dist.first(comm.rank());
    let n_owned = coarse_dist.count(comm.rank());
    let mut owned_weights: Vec<Weight> = vec![0; n_owned];
    for (c, w) in weight_recv.into_iter().flatten() {
        owned_weights[ids::global_index(ids::node_global(c) - first)] += w;
    }
    let coarse = DistGraph::from_arcs(comm, n_coarse, owned_weights, arcs);
    #[cfg(feature = "validate")]
    {
        crate::validate::assert_graph_valid(comm, &coarse, "parallel_contract coarse graph");
        crate::validate::assert_contraction_valid(comm, graph, &coarse, &mapping);
    }
    ParContraction { coarse, mapping }
}

/// Parallel uncoarsening: every fine PE asks the owners of its coarse
/// representatives for their block IDs. `coarse_blocks` covers the coarse
/// graph's owned nodes on this PE; `mapping` is the fine→coarse mapping
/// from [`parallel_contract`]. Returns fine block IDs covering owned +
/// ghost fine nodes.
pub fn parallel_project_blocks(
    comm: &Comm,
    coarse: &DistGraph,
    mapping: &[Node],
    coarse_blocks: &[Node],
) -> Vec<Node> {
    assert_eq!(
        coarse_blocks.len(),
        coarse.n_local(),
        "one block per owned coarse node"
    );
    let Ranked { distinct, pos, .. } = rank_keys(mapping);
    let first = coarse.first_global();
    let block_of = query_sorted(comm, coarse.dist(), &distinct, |c| {
        coarse_blocks[ids::global_index(ids::node_global(c) - first)]
    });
    pos.iter().map(|&c| block_of[ids::node_index(c)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgp_dmp::run;
    use pgp_graph::{contract_clustering, CsrGraph};

    /// Sequential/parallel contraction equivalence on a fixed clustering.
    fn check_equivalence(g: &CsrGraph, clustering: &[Node], p: usize) {
        let seq = contract_clustering(g, clustering);
        let gathered = run(p, |comm| {
            let dg = DistGraph::from_global(comm, g);
            let labels: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                .map(|l| clustering[dg.local_to_global(l) as usize])
                .collect();
            let c = parallel_contract(comm, &dg, &labels);
            (c.coarse.gather_global(comm), c.mapping)
        });
        for (coarse_global, _) in &gathered {
            assert_eq!(coarse_global.n(), seq.coarse.n(), "coarse node count");
            assert_eq!(coarse_global.m(), seq.coarse.m(), "coarse edge count");
            assert_eq!(
                coarse_global.total_edge_weight(),
                seq.coarse.total_edge_weight(),
                "coarse edge weight"
            );
            assert_eq!(
                coarse_global.total_node_weight(),
                seq.coarse.total_node_weight(),
                "coarse node weight"
            );
            // The renumbering is identical (both are label-order dense).
            assert_eq!(coarse_global, &seq.coarse);
        }
    }

    #[test]
    fn matches_sequential_contraction_on_sbm() {
        let (g, _) = pgp_gen::sbm::sbm(300, pgp_gen::sbm::SbmParams::default(), 3);
        let clustering = pgp_lp::sclp_cluster(&g, 40, 5, 1);
        for p in [1, 2, 3, 5] {
            check_equivalence(&g, &clustering, p);
        }
    }

    #[test]
    fn matches_sequential_contraction_on_grid() {
        let g = pgp_gen::mesh::grid2d(12, 12);
        let clustering = pgp_lp::sclp_cluster(&g, 12, 4, 7);
        check_equivalence(&g, &clustering, 4);
    }

    #[test]
    fn identity_clustering_keeps_graph() {
        let g = pgp_gen::mesh::grid2d(6, 6);
        let clustering: Vec<Node> = g.nodes().collect();
        check_equivalence(&g, &clustering, 3);
    }

    #[test]
    fn ghost_label_owned_by_a_third_pe() {
        // 9-ring on 3 PEs (0..3, 3..6, 6..9). Node 3 carries label 7: PE 0
        // sees it as a ghost owned by PE 1 whose cluster ID PE 2 answers for.
        let edges: Vec<(Node, Node)> = (0..9).map(|i| (i, (i + 1) % 9)).collect();
        let g = pgp_graph::builder::from_edges(9, &edges);
        check_equivalence(&g, &[0, 0, 1, 7, 4, 4, 7, 7, 8], 3);
    }

    /// The phase-boundary validator of the `validate` feature insists on
    /// positive arc weights; contraction itself does not.
    #[cfg(not(feature = "validate"))]
    #[test]
    fn zero_weight_arcs_between_clusters_survive() {
        // Clusters {0,1} and {2,3} touch only through weight-0 edges: the
        // coarse arc exists and weighs 0 (a table that reads "untouched" off
        // a zero sum would drop it).
        let g = pgp_graph::GraphBuilder::new(6)
            .add_weighted_edge(0, 1, 5)
            .add_weighted_edge(1, 2, 0)
            .add_weighted_edge(0, 3, 0)
            .add_weighted_edge(2, 3, 2)
            .add_weighted_edge(3, 4, 1)
            .add_weighted_edge(4, 5, 0)
            .build();
        let clustering = [0, 0, 2, 2, 4, 5];
        let seq = contract_clustering(&g, &clustering);
        assert_eq!(
            seq.coarse.neighbors_weighted(0).collect::<Vec<_>>(),
            vec![(1, 0)]
        );
        for p in [1, 2, 3] {
            check_equivalence(&g, &clustering, p);
        }
    }

    #[test]
    fn mapping_is_consistent_across_pes() {
        let g = pgp_gen::mesh::grid2d(8, 8);
        let clustering = pgp_lp::sclp_cluster(&g, 8, 4, 2);
        let results = run(4, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let labels: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                .map(|l| clustering[dg.local_to_global(l) as usize])
                .collect();
            let c = parallel_contract(comm, &dg, &labels);
            // Report (fine global id, coarse id) pairs for owned nodes.
            (0..dg.n_local())
                .map(|l| (dg.local_to_global(l as Node), c.mapping[l]))
                .collect::<Vec<_>>()
        });
        // Two fine nodes in the same cluster must map to the same coarse id,
        // regardless of which PE owned them.
        let mut by_cluster: std::collections::HashMap<Node, Node> =
            std::collections::HashMap::new();
        for pairs in results {
            for (fine, coarse) in pairs {
                let cl = clustering[fine as usize];
                if let Some(&prev) = by_cluster.get(&cl) {
                    assert_eq!(prev, coarse, "cluster {cl} split across coarse ids");
                } else {
                    by_cluster.insert(cl, coarse);
                }
            }
        }
    }

    #[test]
    fn project_blocks_roundtrip() {
        let g = pgp_gen::mesh::grid2d(10, 10);
        let clustering = pgp_lp::sclp_cluster(&g, 10, 4, 5);
        let fine_blocks = run(4, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let labels: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                .map(|l| clustering[dg.local_to_global(l) as usize])
                .collect();
            let c = parallel_contract(comm, &dg, &labels);
            // Color coarse nodes by parity of their global coarse ID.
            let coarse_blocks: Vec<Node> = (0..c.coarse.n_local() as Node)
                .map(|l| c.coarse.local_to_global(l) % 2)
                .collect();
            let fine = parallel_project_blocks(comm, &c.coarse, &c.mapping, &coarse_blocks);
            (0..dg.n_local())
                .map(|l| (dg.local_to_global(l as Node), fine[l], c.mapping[l]))
                .collect::<Vec<_>>()
        });
        for pes in fine_blocks {
            for (_fine, block, coarse) in pes {
                assert_eq!(block, coarse % 2);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pgp_dmp::run;
    use pgp_graph::{contract_clustering, GraphBuilder};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Parallel contraction equals sequential contraction for arbitrary
        /// graphs, clusterings, and PE counts.
        #[test]
        fn parallel_equals_sequential(
            n in 4usize..36,
            edges in proptest::collection::vec((0u32..36, 0u32..36, 1u64..4), 2..120),
            labels in proptest::collection::vec(0u32..36, 36),
            p in 1usize..6,
        ) {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                b.push_edge(u % n as u32, v % n as u32, w);
            }
            let g = b.build();
            let clustering: Vec<Node> = (0..n).map(|v| labels[v] % n as u32).collect();
            let seq = contract_clustering(&g, &clustering);
            let gathered = run(p, |comm| {
                let dg = DistGraph::from_global(comm, &g);
                let l: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                    .map(|x| clustering[dg.local_to_global(x) as usize])
                    .collect();
                parallel_contract(comm, &dg, &l).coarse.gather_global(comm)
            });
            for cg in gathered {
                prop_assert_eq!(&cg, &seq.coarse);
            }
        }
    }
}
