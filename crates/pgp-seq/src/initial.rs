//! Initial partitioning of the coarsest graph: greedy graph growing +
//! FM, wrapped in recursive bisection for general `k`, with multiple
//! attempts keeping the best.

use crate::fm::{two_way_fm, FmConfig};
use crate::heap::NodeHeap;
use pgp_graph::subgraph::induced_by_nodes;
use pgp_graph::{BlockId, CsrGraph, Node, Partition, Weight};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;

/// Configuration for initial partitioning.
#[derive(Clone, Debug)]
pub struct InitialConfig {
    /// Balance slack `ε`.
    pub eps: f64,
    /// Independent attempts per bisection; the best cut wins.
    pub attempts: usize,
    /// FM passes applied after each growing attempt.
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

/// Partitions `graph` into `k` blocks by recursive bisection with greedy
/// graph growing and FM refinement.
pub fn initial_partition(graph: &CsrGraph, k: usize, cfg: &InitialConfig) -> Partition {
    assert!(k >= 1);
    let mut assignment = vec![0 as BlockId; graph.n()];
    if k > 1 && graph.n() > 0 {
        let nodes: Vec<Node> = graph.nodes().collect();
        recurse(graph, &nodes, k, 0, cfg, cfg.seed, &mut assignment);
    }
    let mut p = Partition::from_assignment(graph, k, assignment);
    if k > 1 {
        // Balance repair (LP refinement's overloaded-block rule shifts
        // weight out of any block the bisection drift pushed past Lmax)...
        pgp_lp::seq::sclp_refine(graph, &mut p, cfg.eps, 4, cfg.seed ^ 0xBA1A);
        // ...then a direct k-way FM pass across all bisection borders.
        crate::fm::refine_partition(graph, &mut p, cfg.eps, cfg.seed ^ 0xF00D, cfg.fm_passes);
    }
    p
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
