//! Sequential size-constrained label propagation (Section III-A).
//!
//! One algorithm, two roles:
//!
//! * **Cluster mode** (coarsening): labels start as node IDs; the size
//!   constraint is the soft bound `U = Lmax/f`; nodes are visited in
//!   increasing-degree order (the paper's quality/runtime improvement).
//! * **Refine mode** (uncoarsening): labels are block IDs of a `k`-way
//!   partition; the constraint is the partition's own `U = Lmax`; random
//!   visiting order; a node in an *overloaded* block must leave it if any
//!   eligible target exists (improves balance at the cost of cut).
//!
//! The kernel is the one `par.rs` runs (DESIGN.md §8): the visited node's
//! connections go into a dense table over the label space, walked in
//! first-touch order — the order ties draw random numbers in. Refine mode
//! visits only *active* nodes. A node goes **quiet** when an evaluation
//! leaves it where it is and either no neighbour is in another block, or its
//! block is not overloaded and its connection to it is strictly larger than
//! to every other adjacent block. Evaluating a quiet node again changes
//! nothing and draws no random number: every candidate has `w < best_w`, so
//! neither the `>` nor the `==` branch can fire, and a move never pushes a
//! block past `U`, so a block that is not overloaded never becomes so. Its
//! connections change only when a neighbour changes block, and a mover wakes
//! its neighbours. So the skipping is exact: same moves, same random stream,
//! same labels as a full sweep.

use pgp_graph::ordering::{degree_order, random_order};
use pgp_graph::{CsrGraph, Node, Weight};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which role the algorithm plays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Graph clustering for coarsening (soft constraint).
    Cluster,
    /// Partition refinement (tight constraint, overloaded-block rule).
    Refine,
}

/// Node visiting order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Increasing node degree (used during coarsening).
    Degree,
    /// Uniformly random, reshuffled every round (used during refinement).
    Random,
}

/// Configuration of one SCLP run.
#[derive(Clone, Debug)]
pub struct SclpConfig {
    /// Upper bound `U` on cluster/block weight.
    pub u_bound: Weight,
    /// Maximum number of rounds `ℓ`.
    pub iterations: usize,
    /// Cluster or Refine.
    pub mode: Mode,
    /// Visiting order.
    pub order: Order,
    /// RNG seed (tie breaking, random order).
    pub seed: u64,
}

/// Outcome statistics — the unified pass-metric type from `pgp-obs`
/// (`rounds` = rounds actually executed with early exit on convergence,
/// `moves` = total node moves, `gain` stays 0 for SCLP, `edges_scanned` =
/// arcs read: evaluated rows, plus a refine-mode mover's row once more to
/// wake its neighbours).
pub type SclpStats = pgp_obs::PassStats;

/// Runs size-constrained label propagation in place.
///
/// `labels` must hold one label per node: node IDs (identity) for
/// clustering, block IDs for refinement. `constraint`, when given, restricts
/// moves to clusters whose members share the node's constraint value — the
/// V-cycle rule that every cluster stays inside one block of the input
/// partition (Section IV-D).
pub fn sclp(
    graph: &CsrGraph,
    cfg: &SclpConfig,
    labels: &mut [Node],
    constraint: Option<&[Node]>,
) -> SclpStats {
    assert_eq!(labels.len(), graph.n(), "label vector length mismatch");
    if let Some(c) = constraint {
        assert_eq!(c.len(), graph.n(), "constraint vector length mismatch");
    }
    let n = graph.n();
    if n == 0 {
        return SclpStats::default();
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    // Cluster/block weights indexed by label.
    let max_label = labels.iter().copied().max().unwrap_or(0) as usize;
    let mut weights = vec![0 as Weight; max_label.max(n - 1) + 1];
    for v in graph.nodes() {
        weights[labels[v as usize] as usize] += graph.node_weight(v);
    }

    let refine = cfg.mode == Mode::Refine;
    // The visited node's connection to every label, the labels it touches
    // in first-touch order (the order ties are drawn in, as
    // `ClusterMap::iter`'s insertion order was), and the flags that tell a
    // touched label from an untouched one — a zero-weight arc touches a label
    // without raising its connection.
    let mut conn: Vec<Weight> = vec![0; weights.len()];
    let mut seen: Vec<bool> = vec![false; weights.len()];
    let mut touched: Vec<Node> = Vec::new();
    // The active set (module docs): everything starts active; only refine
    // mode ever quiets a node.
    let mut quiet = vec![false; n];
    let mut order = match cfg.order {
        Order::Degree => degree_order(graph),
        Order::Random => random_order(n, &mut rng),
    };

    let mut stats = SclpStats::default();
    for _round in 0..cfg.iterations {
        if cfg.order == Order::Random && stats.rounds > 0 {
            order = random_order(n, &mut rng);
        }
        let mut moved = 0u64;
        for &v in &order {
            let degree = graph.degree(v);
            if degree == 0 || quiet[v as usize] {
                continue;
            }
            let cur = labels[v as usize];
            let mut touch = |c: Node, w: Weight| {
                if !seen[c as usize] {
                    seen[c as usize] = true;
                    touched.push(c);
                }
                conn[c as usize] += w;
            };
            match constraint {
                None => {
                    for (u, w) in graph.neighbors_weighted(v) {
                        touch(labels[u as usize], w);
                    }
                }
                Some(cons) => {
                    let cv = cons[v as usize];
                    for (u, w) in graph.neighbors_weighted(v) {
                        if cons[u as usize] == cv {
                            touch(labels[u as usize], w);
                        }
                    }
                }
            }
            stats.edges_scanned += degree as u64;
            let cv_weight = graph.node_weight(v);
            let overloaded = refine && weights[cur as usize] > cfg.u_bound;
            let own = conn[cur as usize];
            let interior = touched.len() == usize::from(seen[cur as usize]);
            let mut best: Node = if overloaded { Node::MAX } else { cur };
            let mut best_w: Weight = if overloaded { 0 } else { own };
            let mut ties = 1u32;
            // Whether `cur` beats every other reached label outright,
            // eligibility aside.
            let mut strict = true;
            for c in touched.drain(..) {
                let w = std::mem::take(&mut conn[c as usize]);
                seen[c as usize] = false;
                if c == cur {
                    continue;
                }
                strict &= w < own;
                if weights[c as usize] + cv_weight > cfg.u_bound {
                    continue; // not eligible: target would overload
                }
                if best == Node::MAX || w > best_w {
                    best = c;
                    best_w = w;
                    ties = 1;
                } else if w == best_w {
                    // Random tie break with reservoir sampling.
                    ties += 1;
                    if rng.gen_range(0..ties) == 0 {
                        best = c;
                    }
                }
            }
            if best != cur && best != Node::MAX {
                weights[cur as usize] -= cv_weight;
                weights[best as usize] += cv_weight;
                labels[v as usize] = best;
                moved += 1;
                if refine {
                    // The mover stays active; its neighbours wake.
                    for u in graph.neighbors(v) {
                        quiet[u as usize] = false;
                    }
                    stats.edges_scanned += degree as u64;
                }
            } else if refine {
                quiet[v as usize] = interior || (!overloaded && strict);
            }
        }
        stats.rounds += 1;
        stats.moves += moved;
        if moved == 0 {
            break;
        }
    }
    stats
}

/// Convenience: clustering from singletons with degree ordering.
pub fn sclp_cluster(graph: &CsrGraph, u_bound: Weight, iterations: usize, seed: u64) -> Vec<Node> {
    let mut labels: Vec<Node> = graph.nodes().collect();
    sclp(
        graph,
        &SclpConfig {
            u_bound,
            iterations,
            mode: Mode::Cluster,
            order: Order::Degree,
            seed,
        },
        &mut labels,
        None,
    );
    labels
}

/// Convenience: refinement of a `k`-way partition in place; returns stats.
pub fn sclp_refine(
    graph: &CsrGraph,
    partition: &mut pgp_graph::Partition,
    eps: f64,
    iterations: usize,
    seed: u64,
) -> SclpStats {
    let k = partition.k();
    let u = pgp_graph::lmax(graph.total_node_weight(), k, eps);
    let mut labels: Vec<Node> = partition.assignment().to_vec();
    let stats = sclp(
        graph,
        &SclpConfig {
            u_bound: u,
            iterations,
            mode: Mode::Refine,
            order: Order::Random,
            seed,
        },
        &mut labels,
        None,
    );
    *partition = pgp_graph::Partition::from_assignment(graph, k, labels);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgp_graph::builder::from_edges;
    use pgp_graph::Partition;

    fn two_triangles() -> CsrGraph {
        from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    #[test]
    fn clustering_finds_triangles() {
        let g = two_triangles();
        let labels = sclp_cluster(&g, 3, 10, 1);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn u_bound_one_freezes_singletons() {
        let g = two_triangles();
        let labels = sclp_cluster(&g, 1, 10, 1);
        let expect: Vec<Node> = g.nodes().collect();
        assert_eq!(labels, expect);
    }

    #[test]
    fn cluster_weights_respect_bound() {
        let g = pgp_gen::mesh::grid2d(12, 12);
        let u = 10;
        let labels = sclp_cluster(&g, u, 8, 3);
        let mut w = vec![0u64; g.n()];
        for v in g.nodes() {
            w[labels[v as usize] as usize] += g.node_weight(v);
        }
        assert!(
            w.iter().all(|&x| x <= u),
            "max cluster {}",
            w.iter().max().unwrap()
        );
        // And the clustering is non-trivial.
        let clusters = w.iter().filter(|&&x| x > 0).count();
        assert!(clusters < g.n() / 2, "only {clusters} clusters");
    }

    #[test]
    fn refinement_reduces_cut_of_random_partition() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let g = pgp_gen::mesh::grid2d(16, 16);
        // Random balanced bipartition: plenty of profitable moves.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(8);
        let mut ids: Vec<usize> = (0..256).collect();
        ids.shuffle(&mut rng);
        let mut assign = vec![0u32; 256];
        for &i in &ids[128..] {
            assign[i] = 1;
        }
        let mut p = Partition::from_assignment(&g, 2, assign);
        let before = p.edge_cut(&g);
        sclp_refine(&g, &mut p, 0.03, 12, 5);
        let after = p.edge_cut(&g);
        assert!(after < before / 2, "cut {before} -> {after}");
        assert!(p.is_balanced(&g, 0.03), "imbalance {}", p.imbalance(&g));
    }

    #[test]
    fn overloaded_block_rule_restores_balance() {
        let g = pgp_gen::mesh::grid2d(10, 10);
        // 90/10 split: block 0 badly overloaded.
        let assign: Vec<u32> = (0..100).map(|i| if i < 90 { 0 } else { 1 }).collect();
        let mut p = Partition::from_assignment(&g, 2, assign);
        assert!(!p.is_balanced(&g, 0.03));
        sclp_refine(&g, &mut p, 0.03, 30, 7);
        assert!(p.is_balanced(&g, 0.03), "imbalance {}", p.imbalance(&g));
    }

    #[test]
    fn vcycle_constraint_respected() {
        let g = two_triangles();
        // Input partition separates nodes {0,1,2} and {3,4,5}; clusters must
        // not straddle it even though the bridge is attractive.
        let cons = vec![0, 0, 0, 1, 1, 1];
        let mut labels: Vec<Node> = g.nodes().collect();
        sclp(
            &g,
            &SclpConfig {
                u_bound: 100,
                iterations: 10,
                mode: Mode::Cluster,
                order: Order::Degree,
                seed: 2,
            },
            &mut labels,
            Some(&cons),
        );
        for (v, &l) in labels.iter().enumerate() {
            // The label's constraint class must match the node's.
            assert_eq!(cons[l as usize], cons[v]);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = pgp_gen::ba::barabasi_albert(300, 3, 4);
        assert_eq!(sclp_cluster(&g, 30, 5, 9), sclp_cluster(&g, 30, 5, 9));
    }

    #[test]
    fn empty_and_isolated() {
        let g = CsrGraph::empty();
        let mut labels: Vec<Node> = Vec::new();
        let s = sclp(
            &g,
            &SclpConfig {
                u_bound: 5,
                iterations: 3,
                mode: Mode::Cluster,
                order: Order::Degree,
                seed: 1,
            },
            &mut labels,
            None,
        );
        assert_eq!(s.rounds, 0);
        // Isolated nodes keep their labels.
        let g2 = from_edges(3, &[(0, 1)]);
        let labels2 = sclp_cluster(&g2, 5, 3, 1);
        assert_eq!(labels2[2], 2);
    }

    #[test]
    fn refine_never_moves_into_overloaded_block() {
        let g = pgp_gen::mesh::grid2d(6, 6);
        let assign: Vec<u32> = (0..36).map(|i| if i < 18 { 0 } else { 1 }).collect();
        let mut p = Partition::from_assignment(&g, 2, assign);
        sclp_refine(&g, &mut p, 0.0, 10, 3);
        // eps = 0: Lmax = 18; blocks must stay exactly even.
        assert_eq!(p.block_weight(0), 18);
        assert_eq!(p.block_weight(1), 18);
    }

    #[test]
    fn cluster_mode_scans_every_arc_every_round() {
        let g = pgp_gen::ba::barabasi_albert(400, 3, 2);
        let mut labels: Vec<Node> = g.nodes().collect();
        let cfg = SclpConfig {
            u_bound: 50,
            iterations: 4,
            mode: Mode::Cluster,
            order: Order::Degree,
            seed: 5,
        };
        let stats = sclp(&g, &cfg, &mut labels, None);
        assert!(stats.rounds > 1);
        assert_eq!(
            stats.edges_scanned,
            g.num_arcs() as u64 * stats.rounds as u64
        );
    }

    #[test]
    fn refining_a_refined_mesh_scans_the_boundary_only() {
        let g = pgp_gen::mesh::grid2d(48, 48);
        let max_degree = 4u64;
        let arcs = g.num_arcs() as u64;
        let cfg = |iterations, seed| SclpConfig {
            u_bound: pgp_graph::lmax(g.total_node_weight(), 2, 0.03),
            iterations,
            mode: Mode::Refine,
            order: Order::Random,
            seed,
        };
        // Split along the diagonal, where a grid node has two neighbours on
        // either side and ties keep a few nodes moving for ever; refined once
        // before anything is counted.
        let mut labels: Vec<Node> = g
            .nodes()
            .map(|v| Node::from(v % 48 + v / 48 >= 47))
            .collect();
        sclp(&g, &cfg(10, 3), &mut labels, None);
        let boundary_arcs: u64 = g
            .nodes()
            .filter(|&v| {
                g.neighbors(v)
                    .any(|u| labels[u as usize] != labels[v as usize])
            })
            .map(|v| g.degree(v) as u64)
            .sum();
        // Round 0 reads every arc once, and a mover's row once more to wake
        // its neighbours.
        let one = sclp(&g, &cfg(1, 4), &mut labels.clone(), None);
        assert!(one.edges_scanned >= arcs);
        assert!(one.edges_scanned <= arcs + one.moves * max_degree);
        // Later rounds read only the rows of nodes that are not their block's
        // outright: the boundary at entry, and movers with their neighbours.
        let six = sclp(&g, &cfg(6, 4), &mut labels, None);
        let later_rounds = six.rounds as u64 - 1;
        assert!(later_rounds >= 1, "the instance converged in one round");
        let per_round = boundary_arcs + six.moves * (max_degree + 1) * max_degree;
        assert!(
            six.edges_scanned <= arcs + later_rounds * per_round + six.moves * max_degree,
            "{} arcs scanned, {arcs} per full sweep, boundary {boundary_arcs}, {} moves",
            six.edges_scanned,
            six.moves
        );
        assert!(six.edges_scanned * 2 < arcs * (later_rounds + 1), "{six:?}");
    }
}

/// The kernel before the dense table and the active set: every round
/// re-aggregates every row through the linear-probing `ClusterMap`. Kept as
/// the oracle the differential proptest compares [`sclp`] against.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::cluster_map::ClusterMap;

    pub(super) fn sclp(
        graph: &CsrGraph,
        cfg: &SclpConfig,
        labels: &mut [Node],
        constraint: Option<&[Node]>,
    ) -> SclpStats {
        let n = graph.n();
        if n == 0 {
            return SclpStats::default();
        }
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let max_label = labels.iter().copied().max().unwrap_or(0) as usize;
        let mut weights = vec![0 as Weight; max_label.max(n - 1) + 1];
        for v in graph.nodes() {
            weights[labels[v as usize] as usize] += graph.node_weight(v);
        }
        let mut map = ClusterMap::with_max_degree(graph.max_degree());
        let mut order = match cfg.order {
            Order::Degree => degree_order(graph),
            Order::Random => random_order(n, &mut rng),
        };
        let mut stats = SclpStats::default();
        for _round in 0..cfg.iterations {
            if cfg.order == Order::Random && stats.rounds > 0 {
                order = random_order(n, &mut rng);
            }
            let mut moved = 0u64;
            for &v in &order {
                if graph.degree(v) == 0 {
                    continue;
                }
                let cur = labels[v as usize];
                map.clear();
                for (u, w) in graph.neighbors_weighted(v) {
                    if constraint.is_none_or(|cons| cons[u as usize] == cons[v as usize]) {
                        map.add(labels[u as usize], w);
                    }
                }
                let cv_weight = graph.node_weight(v);
                let overloaded = cfg.mode == Mode::Refine && weights[cur as usize] > cfg.u_bound;
                let mut best: Node = if overloaded { Node::MAX } else { cur };
                let mut best_w: Weight = if overloaded { 0 } else { map.get(cur) };
                let mut ties = 1u32;
                for (c, w) in map.iter() {
                    if c == cur || weights[c as usize] + cv_weight > cfg.u_bound {
                        continue;
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
                    weights[cur as usize] -= cv_weight;
                    weights[best as usize] += cv_weight;
                    labels[v as usize] = best;
                    moved += 1;
                }
            }
            stats.rounds += 1;
            stats.moves += moved;
            if moved == 0 {
                break;
            }
        }
        stats
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pgp_graph::GraphBuilder;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The dense table and the active set make the moves the
        /// `ClusterMap` kernel makes, in both modes, with and without a
        /// constraint: weighted nodes, zero-weight arcs, isolated nodes
        /// (indices past every edge's end), refine blocks that start
        /// overloaded.
        #[test]
        fn sclp_matches_the_reference_kernel(
            n in 1usize..40,
            edges in proptest::collection::vec((0u32..48, 0u32..48, 0u64..4), 0..120),
            node_weights in proptest::collection::vec(1u64..6, 40),
            blocks in proptest::collection::vec(0u32..4, 40),
            classes in proptest::collection::vec(0u32..3, 40),
            flags in 0u8..8,
            (u_bound, iterations, seed) in (1u64..40, 1usize..8, 0u64..1000),
        ) {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                if (u as usize) < n && (v as usize) < n {
                    b.push_edge(u, v, w);
                }
            }
            let g = b.node_weights(node_weights[..n].to_vec()).build();
            let (refine, constrained, random_order) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
            let cfg = SclpConfig {
                u_bound,
                iterations,
                mode: if refine { Mode::Refine } else { Mode::Cluster },
                order: if random_order { Order::Random } else { Order::Degree },
                seed,
            };
            let start: Vec<Node> = if refine { blocks[..n].to_vec() } else { g.nodes().collect() };
            let constraint = constrained.then(|| classes[..n].to_vec());
            let mut got = start.clone();
            let mut want = start;
            let got_stats = sclp(&g, &cfg, &mut got, constraint.as_deref());
            let want_stats = reference::sclp(&g, &cfg, &mut want, constraint.as_deref());
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(
                (got_stats.rounds, got_stats.moves),
                (want_stats.rounds, want_stats.moves)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Cluster mode always yields cluster weights ≤ U (for U ≥ max node
        /// weight) and labels that are real node IDs.
        #[test]
        fn cluster_mode_invariants(n in 2usize..60, m in 1usize..150, u in 1u64..20, seed in 0u64..50) {
            let g = pgp_gen::er::gnm(n, m.min(n*(n-1)/2), seed);
            let u = u.max(1);
            let labels = sclp_cluster(&g, u, 5, seed);
            let mut w = vec![0u64; n];
            for v in g.nodes() {
                prop_assert!((labels[v as usize] as usize) < n);
                w[labels[v as usize] as usize] += g.node_weight(v);
            }
            prop_assert!(w.iter().all(|&x| x <= u));
        }

        /// Refine mode never worsens balance and never produces an invalid
        /// assignment.
        #[test]
        fn refine_mode_invariants(seed in 0u64..40) {
            let g = pgp_gen::mesh::grid2d(9, 7);
            let k = 3;
            let assign: Vec<u32> = (0..63u32).map(|i| i % k).collect();
            let mut p = pgp_graph::Partition::from_assignment(&g, k as usize, assign);
            let before = p.max_block_weight();
            sclp_refine(&g, &mut p, 0.03, 6, seed);
            prop_assert!(p.max_block_weight() <= before.max(pgp_graph::lmax(63, 3, 0.03)));
            p.validate(&g, 0.10).unwrap();
        }
    }
}
