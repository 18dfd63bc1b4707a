//! KaFFPa-lite: the sequential multilevel partitioner.
//!
//! Coarsen (cluster contraction or matching) → initial partition (direct
//! k-way growing at k ≥ 3, recursive bisection at k = 2 —
//! [`crate::initial`]) → project back level by level with LP + FM
//! refinement. Supports the evolutionary combine protocol: when input
//! partitions are given, their cut edges are never contracted (via the
//! constraint mechanism) and the coarsest level is the better input itself,
//! refined there like every finer level, so the output is never worse than
//! the better input. A combine runs no initial partitioning unless the
//! better input is unbalanced; then a fresh partition of the coarsest graph
//! is the fallback, kept when its cut is no larger.

use crate::coarsen::{coarsen, CoarsenConfig, Hierarchy, Scheme};
use crate::fm::{kway_fm, FmConfig};
use crate::initial::{initial_partition, InitialConfig};
use pgp_graph::{lmax, project_partition, CsrGraph, Node, Partition, Weight};
use pgp_lp::seq::{sclp, Mode, Order, SclpConfig};

/// Full configuration of a KaFFPa-lite run.
#[derive(Clone, Debug)]
pub struct KaffpaConfig {
    /// Number of blocks.
    pub k: usize,
    /// Balance slack `ε` (paper default 0.03).
    pub eps: f64,
    /// Coarsening scheme.
    pub scheme: Scheme,
    /// Coarsening stops at this size (paper: small multiples of `k`).
    pub stop_size: usize,
    /// Size-constraint factor `f`: clusters are bounded by `Lmax/f`.
    pub cluster_factor: f64,
    /// LP refinement rounds per level during uncoarsening.
    pub refine_iterations: usize,
    /// FM passes per level during uncoarsening.
    pub fm_passes: usize,
    /// Attempts per bisection of initial partitioning at k = 2 (k ≥ 3 grows
    /// k blocks once).
    pub initial_attempts: usize,
    /// RNG seed.
    pub seed: u64,
}

impl KaffpaConfig {
    /// A sensible default mirroring the paper's fast sequential settings.
    pub fn new(k: usize, seed: u64) -> Self {
        Self {
            k,
            eps: 0.03,
            scheme: Scheme::ClusterLp { iterations: 3 },
            stop_size: (40 * k).max(60),
            cluster_factor: 14.0,
            refine_iterations: 6,
            fm_passes: 3,
            initial_attempts: 4,
            seed,
        }
    }

    /// The soft cluster bound `U = Lmax / f`.
    pub fn u_bound(&self, graph: &CsrGraph) -> Weight {
        let l = lmax(graph.total_node_weight(), self.k, self.eps);
        let max_nw = graph.node_weights().iter().copied().max().unwrap_or(1);
        ((l as f64 / self.cluster_factor) as Weight).max(max_nw)
    }
}

/// Partitions `graph` into `cfg.k` blocks.
pub fn kaffpa(graph: &CsrGraph, cfg: &KaffpaConfig) -> Partition {
    kaffpa_with_inputs(graph, cfg, &[])
}

/// Partitions with optional input partitions (the combine operator).
///
/// Cut edges of *any* input are never contracted, and the coarsest level is
/// the input with the smallest cut, projected and refined, so no initial
/// partitioning runs and the result's cut is at most the best input's — the
/// KaFFPaE offspring guarantee. Only when that input is unbalanced is a
/// fresh initial partition computed, and it replaces the projection unless
/// the projection's cut is smaller.
pub fn kaffpa_with_inputs(
    graph: &CsrGraph,
    cfg: &KaffpaConfig,
    inputs: &[&Partition],
) -> Partition {
    assert!(cfg.k >= 1);
    if graph.n() == 0 {
        return Partition::from_assignment(graph, cfg.k, Vec::new());
    }
    if cfg.k == 1 {
        return Partition::trivial(graph, 1);
    }

    // Constraint: the combined block signature of all inputs; clusters never
    // straddle a signature boundary, so no input cut edge is contracted.
    let constraint = (!inputs.is_empty()).then(|| combined_signature(inputs));

    let coarsen_cfg = CoarsenConfig {
        scheme: cfg.scheme,
        stop_size: cfg.stop_size,
        u_bound: cfg.u_bound(graph),
        min_shrink: 1.05,
        max_levels: 64,
        seed: cfg.seed,
    };
    let hierarchy = coarsen(graph, &coarsen_cfg, constraint.as_deref());

    // The coarsest partition. A combine starts from the better input alone:
    // projected, it keeps its cut (no cut edge was contracted) and its block
    // weights, so when it is balanced no initial partitioning runs and the
    // coarsest level is refined like the finer ones. Only an unbalanced
    // better input falls back to a fresh partition, which wins unless the
    // projection has the smaller cut.
    let coarsest = hierarchy.coarsest();
    let fresh = || {
        initial_partition(
            coarsest,
            cfg.k,
            &InitialConfig {
                eps: cfg.eps,
                attempts: cfg.initial_attempts,
                fm_passes: cfg.fm_passes,
                seed: cfg.seed ^ 0xABCD,
            },
        )
    };
    let (coarse_p, refine_coarsest) = match inputs.iter().min_by_key(|p| p.edge_cut(graph)) {
        None => (fresh(), false),
        Some(best_input) => {
            let projected = project_to_coarsest(&hierarchy, best_input);
            if projected.is_balanced(coarsest, cfg.eps) {
                (projected, true)
            } else {
                let fresh = fresh();
                if projected.edge_cut(coarsest) < fresh.edge_cut(coarsest) {
                    (projected, false)
                } else {
                    (fresh, false)
                }
            }
        }
    };

    uncoarsen(&hierarchy, coarse_p, cfg, refine_coarsest)
}

/// Per node, a signature equal for two nodes iff every input puts them in
/// the same block: the first input's block, then, input by input, the dense
/// rank of the pair (signature so far, block). Ranks stay below `n`, so no
/// two block tuples share a signature, whatever `k` and the number of
/// inputs; the signature is only ever compared for equality.
fn combined_signature(inputs: &[&Partition]) -> Vec<Node> {
    let mut sig = inputs[0].assignment().to_vec();
    for p in &inputs[1..] {
        let pairs: Vec<u64> = sig
            .iter()
            .zip(p.assignment())
            .map(|(&s, &b)| u64::from(s) << 32 | u64::from(b))
            .collect();
        let mut distinct = pairs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        sig = pairs
            .iter()
            .map(|pair| distinct.binary_search(pair).expect("a listed pair") as Node)
            .collect();
    }
    sig
}

/// Pushes a partition of the finest graph down to the coarsest level of a
/// hierarchy whose contractions never merged two of its blocks (guaranteed
/// when the hierarchy was built with this partition as a constraint).
pub fn project_to_coarsest(hierarchy: &Hierarchy, fine: &Partition) -> Partition {
    let mut labels: Vec<Node> = fine.assignment().to_vec();
    for (level, mapping) in hierarchy.mappings.iter().enumerate() {
        let coarse_n = hierarchy.graphs[level + 1].n();
        let mut next = vec![0 as Node; coarse_n];
        for (v, &c) in mapping.iter().enumerate() {
            next[c as usize] = labels[v];
        }
        labels = next;
    }
    Partition::from_assignment(hierarchy.coarsest(), fine.k(), labels)
}

/// Uncoarsening: project up level by level, refining with LP then FM.
/// The coarsest level itself is refined first when `refine_coarsest` is
/// set or when there is no uncoarsening to do (single-level hierarchy); that
/// refinement is kept only if it does not raise the cut.
fn uncoarsen(
    hierarchy: &Hierarchy,
    coarse_p: Partition,
    cfg: &KaffpaConfig,
    refine_coarsest: bool,
) -> Partition {
    let mut p = coarse_p;
    let l = lmax(hierarchy.graphs[0].total_node_weight(), cfg.k, cfg.eps);
    let levels = hierarchy.mappings.len();
    if refine_coarsest || levels == 0 {
        let coarsest = hierarchy.coarsest();
        let mut q = p.clone();
        refine_level(coarsest, &mut q, l, cfg, levels as u64);
        if q.edge_cut(coarsest) <= p.edge_cut(coarsest) {
            p = q;
        }
    }
    for level in (0..levels).rev() {
        let fine = &hierarchy.graphs[level];
        p = project_partition(fine, &hierarchy.mappings[level], &p);
        refine_level(fine, &mut p, l, cfg, level as u64);
    }
    p
}

fn refine_level(fine: &CsrGraph, p: &mut Partition, l: Weight, cfg: &KaffpaConfig, level: u64) {
    let mut labels: Vec<Node> = p.assignment().to_vec();
    sclp(
        fine,
        &SclpConfig {
            u_bound: l,
            iterations: cfg.refine_iterations,
            mode: Mode::Refine,
            order: Order::Random,
            seed: cfg.seed.wrapping_add(level * 77),
        },
        &mut labels,
        None,
    );
    kway_fm(
        fine,
        cfg.k,
        &mut labels,
        &FmConfig {
            max_passes: cfg.fm_passes,
            block_caps: vec![l; cfg.k],
            seed: cfg.seed.wrapping_add(level * 131 + 7),
            patience: 32,
        },
    );
    *p = Partition::from_assignment(fine, cfg.k, labels);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_grid_well() {
        let g = pgp_gen::mesh::grid2d(24, 24);
        let p = kaffpa(&g, &KaffpaConfig::new(2, 1));
        p.validate(&g, 0.03).unwrap();
        assert!(p.edge_cut(&g) <= 60, "cut {}", p.edge_cut(&g)); // optimal 24; multilevel-fast lands well under 2.5x
    }

    #[test]
    fn partitions_sbm_near_ground_truth() {
        let (g, _) = pgp_gen::sbm::sbm(800, pgp_gen::sbm::SbmParams::default(), 2);
        let p = kaffpa(&g, &KaffpaConfig::new(4, 3));
        p.validate(&g, 0.03).unwrap();
        // Sanity: far better than a random balanced 4-way cut.
        let rand_cut = {
            let assign: Vec<u32> = (0..g.n() as u32).map(|i| i % 4).collect();
            Partition::from_assignment(&g, 4, assign).edge_cut(&g)
        };
        assert!(
            p.edge_cut(&g) < rand_cut / 2,
            "{} vs random {rand_cut}",
            p.edge_cut(&g)
        );
    }

    #[test]
    fn matching_scheme_also_works() {
        let g = pgp_gen::mesh::grid2d(20, 20);
        let mut cfg = KaffpaConfig::new(2, 5);
        cfg.scheme = Scheme::Matching;
        let p = kaffpa(&g, &cfg);
        p.validate(&g, 0.03).unwrap();
        assert!(p.edge_cut(&g) <= 60, "cut {}", p.edge_cut(&g));
    }

    #[test]
    fn combine_never_worse_than_better_parent() {
        let (g, _) = pgp_gen::sbm::sbm(500, pgp_gen::sbm::SbmParams::default(), 7);
        let cfg = KaffpaConfig::new(2, 11);
        let p1 = kaffpa(&g, &KaffpaConfig::new(2, 100));
        let p2 = kaffpa(&g, &KaffpaConfig::new(2, 200));
        let best_parent = p1.edge_cut(&g).min(p2.edge_cut(&g));
        let child = kaffpa_with_inputs(&g, &cfg, &[&p1, &p2]);
        assert!(
            child.edge_cut(&g) <= best_parent,
            "child {} worse than best parent {best_parent}",
            child.edge_cut(&g)
        );
        child.validate(&g, 0.03).unwrap();
    }

    #[test]
    fn single_input_vcycle_never_worsens() {
        let g = pgp_gen::mesh::grid2d(16, 16);
        let cfg = KaffpaConfig::new(4, 3);
        let p0 = kaffpa(&g, &cfg);
        let before = p0.edge_cut(&g);
        let p1 = kaffpa_with_inputs(&g, &KaffpaConfig::new(4, 999), &[&p0]);
        assert!(p1.edge_cut(&g) <= before, "{} > {before}", p1.edge_cut(&g));
    }

    /// A triangle plus three nodes without arcs: Lmax is 3 at k = 2 and 2
    /// at k = 3, and only an arc-less node can leave a block the growing
    /// overfilled, because LP and FM move nodes to adjacent blocks only.
    #[test]
    fn arcless_nodes_leave_an_overloaded_block() {
        let g = pgp_graph::builder::from_edges(6, &[(0, 1), (1, 2), (0, 2)]);
        for k in [2, 3] {
            for seed in 0..200 {
                let p = kaffpa(&g, &KaffpaConfig::new(k, seed));
                assert!(
                    p.is_balanced(&g, 0.03),
                    "kaffpa k = {k}, seed {seed}: {:?}",
                    p.assignment()
                );
                let cfg = crate::InitialConfig {
                    seed,
                    ..Default::default()
                };
                let p = crate::initial_partition(&g, k, &cfg);
                assert!(
                    p.is_balanced(&g, 0.03),
                    "initial_partition k = {k}, seed {seed}: {:?}",
                    p.assignment()
                );
            }
        }
    }

    /// FNV offset folded through splitmix, as `tests/pinned.rs` hashes.
    fn assignment_hash(p: &Partition) -> u64 {
        p.assignment().iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            let mut z = h.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(b);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
    }

    /// With a balanced better parent the coarsest level is that parent, so
    /// the initial partitioner's settings cannot reach the offspring. At
    /// k = 2, where initial partitioning is recursive bisection, its
    /// attempts are the probe (k-way growing at k ≥ 3 grows once).
    #[test]
    fn balanced_parents_combine_without_initial_partitioning() {
        let (g, _) = pgp_gen::sbm::sbm(2000, pgp_gen::sbm::SbmParams::default(), 5);
        let k = 2;
        let p1 = kaffpa(&g, &KaffpaConfig::new(k, 100));
        let p2 = kaffpa(&g, &KaffpaConfig::new(k, 200));
        assert!(p1.is_balanced(&g, 0.03) && p2.is_balanced(&g, 0.03));
        let best_parent = p1.edge_cut(&g).min(p2.edge_cut(&g));
        let child = |attempts| {
            let cfg = KaffpaConfig {
                initial_attempts: attempts,
                ..KaffpaConfig::new(k, 11)
            };
            kaffpa_with_inputs(&g, &cfg, &[&p1, &p2])
        };
        let (one, four) = (child(1), child(4));
        assert!(
            one.assignment() == four.assignment(),
            "the attempts reached the child"
        );
        assert!(
            four.edge_cut(&g) <= best_parent,
            "child {} worse than best parent {best_parent}",
            four.edge_cut(&g)
        );
        four.validate(&g, 0.03).unwrap();
    }

    /// An unbalanced better parent still gets a fresh initial partition and
    /// the old choice between the two. Hashes taken before combines stopped
    /// computing the fresh partition for a balanced parent. In the first
    /// case the better parent, a 3 x 3 corner (cut 6), keeps the coarsest
    /// level; in the second, three rows with teeth (cut 77) lose it to the
    /// fresh partition.
    #[test]
    fn unbalanced_better_parent_combines_as_before() {
        let g = pgp_gen::mesh::grid2d(20, 20);
        let cfg = KaffpaConfig::new(2, 11);
        let block = |f: &dyn Fn(usize, usize) -> bool| {
            let labels = (0..400).map(|v| Node::from(f(v / 20, v % 20))).collect();
            Partition::from_assignment(&g, 2, labels)
        };
        let corner = block(&|r, c| r < 3 && c < 3);
        let teeth = block(&|r, c| r < 3 || (r < 6 && c % 2 == 0));
        let balanced = kaffpa(&g, &KaffpaConfig::new(2, 100));
        let alternating = block(&|_, c| c % 2 == 0);
        let cases = [
            (&corner, &balanced, 0xa985_c7c0_fc01_ef05u64),
            (&teeth, &alternating, 0x1610_b66e_6f02_2f1e),
        ];
        for (better, other, pinned) in cases {
            assert!(better.edge_cut(&g) < other.edge_cut(&g));
            assert!(!better.is_balanced(&g, cfg.eps));
            let child = kaffpa_with_inputs(&g, &cfg, &[better, other]);
            assert_eq!(
                assignment_hash(&child),
                pinned,
                "{:#018x}",
                assignment_hash(&child)
            );
        }
    }

    #[test]
    fn k_equals_n_and_k1() {
        let g = pgp_gen::mesh::grid2d(4, 4);
        let p1 = kaffpa(&g, &KaffpaConfig::new(1, 1));
        assert_eq!(p1.edge_cut(&g), 0);
        // k = n: every node its own block is the only balanced solution.
        let pn = kaffpa(&g, &KaffpaConfig::new(16, 1));
        assert_eq!(pn.nonempty_blocks(), 16);
    }

    #[test]
    fn deterministic() {
        let g = pgp_gen::ba::barabasi_albert(300, 3, 4);
        let cfg = KaffpaConfig::new(4, 42);
        assert_eq!(kaffpa(&g, &cfg).assignment(), kaffpa(&g, &cfg).assignment());
    }

    /// At k = 70 000, `61 356 · k + 47 296 = 2³²`: folding the blocks into
    /// one number gave the pair (61 356, 47 296) the signature of (0, 0).
    #[test]
    fn combined_signature_separates_every_block_tuple() {
        let g = pgp_graph::builder::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let k = 70_000;
        let p1 = Partition::from_assignment(&g, k, vec![61_356, 0, 0, 61_356]);
        let p2 = Partition::from_assignment(&g, k, vec![47_296, 0, 1, 47_296]);
        let p3 = Partition::from_assignment(&g, k, vec![5, 5, 5, 6]);
        let sig = combined_signature(&[&p1, &p2]);
        assert_ne!(sig[0], sig[1]);
        assert_ne!(sig[1], sig[2]);
        assert_eq!(sig[0], sig[3]);
        let sig = combined_signature(&[&p1, &p2, &p3]);
        let classes: std::collections::BTreeSet<Node> = sig.iter().copied().collect();
        assert_eq!(classes.len(), 4, "{sig:?}");
        assert!(sig.iter().all(|&s| (s as usize) < g.n()));
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty();
        let p = kaffpa(&g, &KaffpaConfig::new(4, 1));
        assert_eq!(p.assignment().len(), 0);
    }
}
