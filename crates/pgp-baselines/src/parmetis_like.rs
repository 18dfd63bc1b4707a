//! The ParMetis-like baseline: a matching-based parallel multilevel
//! partitioner on the *same* message-passing substrate as ParHIP.
//!
//! Coarsening is parallel heavy-edge matching (at best a 2× shrink per
//! level; stalls on hub-dominated complex networks), contraction reuses
//! ParHIP's parallel contraction (a matching is a clustering with cluster
//! size ≤ 2), initial partitioning replicates the coarsest graph on every
//! PE and runs recursive bisection, and refinement is the exact-weight
//! parallel label propagation (ParMetis's greedy refinement is of the same
//! family).
//!
//! The baseline also reproduces ParMetis's *failure mode* from the paper
//! (Tables II/III, `*` entries): when coarsening stalls, the still-huge
//! coarsest graph must be replicated per PE, and a configurable memory
//! model reports the run as failed.

use parhip::contract::{parallel_contract, parallel_project_blocks};
use pgp_dmp::collectives::allgatherv;
use pgp_dmp::{Comm, DistGraph, RunConfig};
use pgp_graph::{lmax, CsrGraph, Node, Partition};
use pgp_lp::par::parallel_sclp_refine;
use pgp_seq::initial::{recursive_bisection, InitialConfig};

use crate::matching::parallel_hem;

/// Why a baseline run failed.
#[derive(Clone, Debug, PartialEq)]
pub enum BaselineError {
    /// The replicated coarsest graph exceeds the per-PE memory budget —
    /// the paper's `*` outcome ("the amount of memory needed by the
    /// partitioner exceeded the amount of memory available").
    OutOfMemory {
        /// Bytes the replication would need per PE.
        required: u64,
        /// The configured budget.
        budget: u64,
        /// Nodes left in the coarsest graph.
        coarsest_n: u64,
    },
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::OutOfMemory {
                required,
                budget,
                coarsest_n,
            } => write!(
                f,
                "coarsest graph ({coarsest_n} nodes) needs {required} bytes/PE, budget {budget}"
            ),
        }
    }
}

impl std::error::Error for BaselineError {}

/// Configuration of the ParMetis-like baseline.
#[derive(Clone, Debug)]
pub struct ParmetisLikeConfig {
    /// Number of blocks.
    pub k: usize,
    /// Imbalance (ParMetis is laxer here than ParHIP; the paper observed
    /// up to 6 % drift — we keep the refinement budgeted, so this is the
    /// cap passed to refinement).
    pub eps: f64,
    /// Matching rounds per level.
    pub matching_rounds: usize,
    /// Coarsening stops at this many global nodes.
    pub stop_size: u64,
    /// Abort coarsening when a level shrinks by less than this factor —
    /// matching on complex networks triggers this quickly.
    pub min_shrink: f64,
    /// Per-PE memory budget in bytes for the replicated coarsest graph
    /// (`None` disables the failure model).
    pub memory_budget: Option<u64>,
    /// LP refinement rounds per level.
    pub refine_iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ParmetisLikeConfig {
    /// Defaults mirroring the role ParMetis plays in the paper's tables.
    pub fn new(k: usize, seed: u64) -> Self {
        Self {
            k,
            eps: 0.03,
            matching_rounds: 4,
            stop_size: (100 * k as u64).max(400),
            min_shrink: 1.25,
            memory_budget: None,
            refine_iterations: 4,
            seed,
        }
    }

    /// Enables the paper-style memory model: bytes per PE available for
    /// the replicated coarsest graph.
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }
}

/// Structural statistics of a baseline run.
#[derive(Clone, Debug, Default)]
pub struct ParmetisLikeStats {
    /// Hierarchy depth.
    pub levels: usize,
    /// Coarsest global node count.
    pub coarsest_n: u64,
    /// Coarsest global edge count.
    pub coarsest_m: u64,
    /// Whether coarsening stalled (shrink below threshold).
    pub stalled: bool,
}

/// Estimated bytes/PE for replicating a graph with `n` nodes and `m`
/// edges: CSR arrays (`xadj` 8B, per-arc target 4B + weight 8B, node
/// weights 8B).
pub fn replication_bytes(n: u64, m: u64) -> u64 {
    16 * n + 24 * m
}

/// Runs the ParMetis-like baseline on an already-distributed graph;
/// returns this PE's owned block assignment and stats.
pub fn parmetis_like_distributed(
    comm: &Comm,
    graph: &DistGraph,
    cfg: &ParmetisLikeConfig,
) -> Result<(Vec<Node>, ParmetisLikeStats), BaselineError> {
    let mut stats = ParmetisLikeStats::default();

    // ---- Matching-based coarsening ------------------------------------
    struct Level {
        graph: DistGraph,
        mapping: Vec<Node>,
    }
    let mut levels: Vec<Level> = Vec::new();
    let mut current = graph.clone();
    loop {
        if current.n_global() <= cfg.stop_size {
            break;
        }
        let labels = parallel_hem(
            comm,
            &current,
            cfg.matching_rounds,
            cfg.seed.wrapping_add(levels.len() as u64),
        );
        let c = parallel_contract(comm, &current, &labels);
        let shrink = current.n_global() as f64 / c.coarse.n_global().max(1) as f64;
        if shrink < cfg.min_shrink {
            stats.stalled = true;
            break;
        }
        levels.push(Level {
            graph: current,
            mapping: c.mapping,
        });
        current = c.coarse;
    }
    stats.levels = levels.len() + 1;
    stats.coarsest_n = current.n_global();
    stats.coarsest_m = current.m_global();

    // ---- Memory model: the coarsest graph is replicated per PE --------
    if let Some(budget) = cfg.memory_budget {
        let required = replication_bytes(stats.coarsest_n, stats.coarsest_m);
        if required > budget {
            return Err(BaselineError::OutOfMemory {
                required,
                budget,
                coarsest_n: stats.coarsest_n,
            });
        }
    }

    // ---- Initial partitioning on the replicated coarsest graph --------
    let coarsest_global: CsrGraph = current.gather_global(comm);
    // Independent attempts across PEs (different seeds), best cut wins —
    // that is also how the real systems exploit spare parallelism here.
    let local = recursive_bisection(
        &coarsest_global,
        cfg.k,
        &InitialConfig {
            eps: cfg.eps,
            attempts: 3,
            fm_passes: 3,
            seed: pgp_dmp::mix_seed(cfg.seed, comm.rank() as u64),
        },
    );
    let local_cut = local.edge_cut(&coarsest_global);
    let (_, winner) = pgp_dmp::collectives::allreduce_min_with_rank(comm, local_cut);
    let coarse_assignment = pgp_dmp::collectives::broadcast(
        comm,
        winner,
        (comm.rank() == winner).then(|| local.assignment().to_vec()),
    );

    // ---- Uncoarsening with parallel LP refinement ----------------------
    let lmax_v = lmax(graph.total_node_weight(), cfg.k, cfg.eps);
    let first = current.first_global();
    let mut level_blocks: Vec<Node> = (0..current.n_local())
        .map(|l| coarse_assignment[first as usize + l])
        .collect();
    for li in (0..levels.len()).rev() {
        let fine = &levels[li].graph;
        let coarse = if li + 1 < levels.len() {
            &levels[li + 1].graph
        } else {
            &current
        };
        let mut fine_blocks =
            parallel_project_blocks(comm, coarse, &levels[li].mapping, &level_blocks);
        parallel_sclp_refine(
            comm,
            fine,
            cfg.k,
            lmax_v,
            cfg.refine_iterations,
            cfg.seed.wrapping_add(li as u64 * 101),
            &mut fine_blocks,
        );
        level_blocks = fine_blocks[..fine.n_local()].to_vec();
    }
    if levels.is_empty() {
        // No coarsening happened: refine the replicated solution directly.
        let fine = &current;
        let mut fb = vec![0 as Node; fine.n_local() + fine.n_ghost()];
        for l in 0..fb.len() {
            fb[l] = coarse_assignment[fine.local_to_global(l as Node) as usize];
        }
        parallel_sclp_refine(
            comm,
            fine,
            cfg.k,
            lmax_v,
            cfg.refine_iterations,
            cfg.seed,
            &mut fb,
        );
        level_blocks = fb[..fine.n_local()].to_vec();
    }
    Ok((level_blocks, stats))
}

/// Shared input graph, `p` PEs carried by `run` (as
/// `parhip::Partitioner::run` takes it: watchdog, delay plan, `Obs`
/// registry), assembled partition.
///
/// # Panics
/// Panics if a PE fails with a structured comm error (only possible under
/// a watchdog deadline).
pub fn parmetis_like(
    graph: &CsrGraph,
    p: usize,
    cfg: &ParmetisLikeConfig,
    run: RunConfig,
) -> Result<(Partition, ParmetisLikeStats), BaselineError> {
    let results = pgp_dmp::run_config(p, run, |comm| {
        let dg = DistGraph::from_global(comm, graph);
        // All PEs fail together (the memory check is on replicated state,
        // identical everywhere).
        parmetis_like_distributed(comm, &dg, cfg)
            .map(|(local, stats)| (allgatherv(comm, local), stats))
    });
    let (assignment, stats) = results
        .into_iter()
        .next()
        .expect("at least one PE")
        .unwrap_or_else(|e| panic!("PE failed: {e}"))?;
    Ok((Partition::from_assignment(graph, cfg.k, assignment), stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_mesh_well() {
        let g = pgp_gen::mesh::grid2d(24, 24);
        let (p, stats) =
            parmetis_like(&g, 4, &ParmetisLikeConfig::new(2, 1), RunConfig::default()).unwrap();
        p.validate(&g, 0.03).unwrap();
        assert!(stats.levels >= 2, "matching should coarsen a mesh");
        assert!(!stats.stalled);
        assert!(p.edge_cut(&g) <= 72, "cut {}", p.edge_cut(&g));
    }

    #[test]
    fn stalls_on_hub_networks() {
        let g = pgp_gen::ba::barabasi_albert(3000, 2, 5);
        let mut cfg = ParmetisLikeConfig::new(2, 3);
        cfg.stop_size = 100;
        let (_, stats) = parmetis_like(&g, 2, &cfg, RunConfig::default()).unwrap();
        assert!(
            stats.stalled || stats.coarsest_n > 100,
            "matching unexpectedly coarsened a BA graph to {}",
            stats.coarsest_n
        );
    }

    #[test]
    fn memory_model_fails_on_complex_networks_only() {
        let web = pgp_gen::rmat::rmat_web(11, 16, 7);
        let mesh = pgp_gen::mesh::grid2d(45, 45);
        let budget = 60_000; // bytes/PE — scaled-down "cluster node"
        let mut cfg = ParmetisLikeConfig::new(2, 1).with_memory_budget(budget);
        cfg.stop_size = 500;
        let web_result = parmetis_like(&web, 2, &cfg, RunConfig::default());
        assert!(
            matches!(web_result, Err(BaselineError::OutOfMemory { .. })),
            "web graph should exceed the memory model: {web_result:?}"
        );
        let mesh_result = parmetis_like(&mesh, 2, &cfg, RunConfig::default());
        assert!(
            mesh_result.is_ok(),
            "mesh must fit: {:?}",
            mesh_result.err()
        );
    }

    #[test]
    fn deterministic_per_seed_and_p() {
        let g = pgp_gen::mesh::grid2d(16, 16);
        let cfg = ParmetisLikeConfig::new(4, 9);
        let (a, _) = parmetis_like(&g, 3, &cfg, RunConfig::default()).unwrap();
        let (b, _) = parmetis_like(&g, 3, &cfg, RunConfig::default()).unwrap();
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn single_pe_works() {
        let g = pgp_gen::mesh::grid2d(12, 12);
        let (p, _) =
            parmetis_like(&g, 1, &ParmetisLikeConfig::new(2, 2), RunConfig::default()).unwrap();
        p.validate(&g, 0.03).unwrap();
    }
}
