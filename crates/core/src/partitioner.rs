//! The overall parallel system (Section IV-E, Figure 4).
//!
//! Per V-cycle: parallel cluster coarsening until `10 000·k`-scaled nodes
//! remain → the distributed coarsest graph is collected on every PE →
//! KaFFPaE partitions it (seeded with the current partition after the
//! first cycle) → the best solution is broadcast and carried up by the
//! parallel uncoarsening, with `r` iterations of parallel SCLP refinement
//! per level.

use crate::coarsen::{coarsen_borrowed, level_work};
use crate::config::ParhipConfig;
use crate::contract::parallel_project_blocks;
use crate::renumber::{
    block_numbering, blocks_in_input_order, crossing_arcs, migrate, worth_moving, Migrated,
    Renumbering,
};
use pgp_dmp::collectives::{allgatherv, allreduce_sum_vec, gatherv};
use pgp_dmp::{Comm, CommError, DistGraph, RunConfig};
use pgp_evo::{Budget, EvoConfig};
use pgp_graph::ids;
use pgp_graph::io::{RowSegment, SegmentedGraph};
use pgp_graph::{lmax, CsrGraph, Node, Partition, Weight};
use pgp_lp::par::{parallel_sclp_refine_with_scratch, SclpScratch};
use pgp_obs::{LevelWork, PassStats};
use std::borrow::Cow;
use std::sync::{Mutex, PoisonError};

/// Structural statistics of one run (as reported by rank 0; all PEs see
/// the same structure). Per-phase timing lives in the
/// [`pgp_obs::RunReport`] of a run that carries an `Obs` registry (see
/// `pgp_dmp::RunConfig::obs`).
#[derive(Clone, Debug, Default)]
pub struct ParhipStats {
    /// Hierarchy depth of the first cycle.
    pub levels: usize,
    /// Global node count of the first cycle's coarsest graph.
    pub coarsest_n: u64,
    /// Final edge cut.
    pub cut: u64,
    /// Final imbalance, as [`Partition::imbalance`] defines it.
    pub imbalance: f64,
    /// The renumbering rule at every V-cycle boundary it was evaluated at
    /// (p > 1, cycles left), in cycle order.
    pub renumberings: Vec<Renumbering>,
}

/// Why the front door turned a run away, or why the run it started failed.
#[derive(Clone, Debug, PartialEq)]
pub enum PartitionError {
    /// `k = 0`: there is no partition into zero blocks.
    InvalidK,
    /// `p = 0`: a run needs at least one PE.
    InvalidP,
    /// `eps` is negative, NaN or infinite.
    InvalidEps(f64),
    /// The prepartition does not fit the run: its block count differs from
    /// `k`, or it does not cover the graph's nodes.
    PrepartitionMismatch {
        /// Block count of the prepartition.
        k: usize,
        /// Nodes the prepartition covers.
        n: usize,
    },
    /// The node weights sum past `i64::MAX`: SCLP keeps block weights and
    /// their deltas in `i64`, so such a graph cannot be partitioned.
    NodeWeightOverflow {
        /// The sum of the node weights.
        total: u128,
    },
    /// The arc weights (each undirected edge counted twice) sum past
    /// `i64::MAX`: FM keeps gains in `i64`, so such a graph cannot be
    /// partitioned.
    EdgeWeightOverflow {
        /// The sum of the arc weights.
        total: u128,
    },
    /// A structured comm failure (a watchdog timeout, a PE that panicked)
    /// ended the run.
    Comm(CommError),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidK => write!(f, "invalid k=0: need at least one block"),
            Self::InvalidP => write!(f, "invalid p=0: need at least one PE"),
            Self::InvalidEps(eps) => {
                write!(f, "invalid eps={eps}: need a finite imbalance >= 0")
            }
            Self::PrepartitionMismatch { k, n } => write!(
                f,
                "prepartition ({k} blocks over {n} nodes) does not match the run's k and graph"
            ),
            Self::NodeWeightOverflow { total } => write!(
                f,
                "node weights sum to {total}, past the {} a block weight can hold",
                i64::MAX
            ),
            Self::EdgeWeightOverflow { total } => write!(
                f,
                "arc weights sum to {total}, past the {} a gain can hold",
                i64::MAX
            ),
            Self::Comm(e) => write!(f, "run failed: {e}"),
        }
    }
}

impl std::error::Error for PartitionError {}

impl From<CommError> for PartitionError {
    fn from(e: CommError) -> Self {
        Self::Comm(e)
    }
}

/// What [`Partitioner::partition`] returns.
#[derive(Clone, Debug)]
pub struct Partitioned {
    /// The assembled global partition, in the input's node order.
    pub partition: Partition,
    /// The run's statistics, `cut` and `imbalance` filled in.
    pub stats: ParhipStats,
    /// Why the result fails the closing check — a block above
    /// `Lmax(eps)`, or what `pgp_check::validate_dist_partition` found —
    /// or `None` when it passes.
    pub violation: Option<String>,
}

/// What [`Partitioner::partition`] partitions: a whole graph, or the same
/// graph read straight into one row segment per PE. Both feed the same run;
/// only where a PE's rows come from differs.
#[derive(Debug)]
pub enum GraphInput<'g> {
    /// A global graph, borrowed: every PE copies its rows out of it
    /// ([`DistGraph::from_global`]).
    Global(&'g CsrGraph),
    /// One segment per PE at the first IDs of the run's block distribution
    /// (`pgp_graph::io::read_metis_file_segments`); every PE takes its own
    /// ([`DistGraph::from_segment`]) and no global graph exists.
    Segments(SegmentedGraph),
}

impl<'g> From<&'g CsrGraph> for GraphInput<'g> {
    fn from(graph: &'g CsrGraph) -> Self {
        Self::Global(graph)
    }
}

impl From<SegmentedGraph> for GraphInput<'_> {
    fn from(graph: SegmentedGraph) -> Self {
        Self::Segments(graph)
    }
}

/// Where the PEs of a run get their rows.
enum Rows<'g> {
    Global(&'g CsrGraph),
    /// One slot per PE; each PE moves its segment out.
    Segments {
        n: u64,
        slots: Vec<Mutex<Option<RowSegment>>>,
    },
}

impl Rows<'_> {
    /// PE `comm.rank()`'s view of the graph.
    fn distribute(&self, comm: &Comm) -> DistGraph {
        match self {
            Rows::Global(graph) => DistGraph::from_global(comm, graph),
            Rows::Segments { n, slots } => {
                let rows = slots[comm.rank()]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .expect("a run takes each PE's rows once");
                DistGraph::from_segment(comm, *n, rows)
            }
        }
    }
}

/// The closing evaluation of a run on one PE, from the final owned + ghost
/// blocks.
struct Closing {
    cut: u64,
    block_weights: Vec<Weight>,
    total_node_weight: Weight,
    errors: Vec<String>,
}

/// [`Closing`] for `blocks` on `graph`: one allreduce of the cut, one of
/// the `k` block weights, then `pgp_check::validate_dist_partition`.
fn close_run(comm: &Comm, graph: &DistGraph, blocks: &[Node], k: usize) -> Closing {
    let (cut, block_weights) = cut_and_block_weights(comm, graph, blocks, k);
    let errors = pgp_check::validate_dist_partition(comm, graph, blocks, k, Some(&block_weights))
        .err()
        .unwrap_or_default();
    Closing {
        cut,
        block_weights,
        total_node_weight: graph.total_node_weight(),
        errors,
    }
}

/// The one way to call the partitioner: a borrowed [`ParhipConfig`] plus
/// two orthogonal options — a prepartition, and the [`RunConfig`] that
/// carries the run (watchdog deadline, delay plan, and the `Obs` registry
/// a report or trace is later read from) — and one verb,
/// [`partition`](Self::partition), on a global graph or its per-PE row
/// segments.
///
/// ```no_run
/// use parhip::{GraphClass, ParhipConfig, Partitioner};
/// let g = pgp_gen::rmat::rmat_web(12, 8, 1);
/// let cfg = ParhipConfig::fast(16, GraphClass::Social, 42);
/// let out = Partitioner::new(&cfg).partition(&g, 8).expect("valid input");
/// assert!(out.partition.is_balanced(&g, 0.05));
/// println!("cut {} in {} levels", out.stats.cut, out.stats.levels);
/// ```
#[derive(Clone)]
pub struct Partitioner<'a> {
    cfg: &'a ParhipConfig,
    run: RunConfig,
    prepartition: Option<&'a Partition>,
}

impl<'a> Partitioner<'a> {
    /// A plain run of `cfg`: no watchdog, no recorder, no prepartition.
    pub fn new(cfg: &'a ParhipConfig) -> Self {
        Self {
            cfg,
            run: RunConfig::default(),
            prepartition: None,
        }
    }

    /// How [`partition`](Self::partition) carries the run: watchdog
    /// deadline, delay plan (a test hook, `pgp_dmp::DelayPlan`) and the
    /// `Obs` registry. Recording adds one scan of the local arcs and one
    /// allreduce per refine call and never changes the partition;
    /// read `obs.report()` / `obs.trace()` after the run. The registry
    /// must be sized for exactly `p` PEs.
    pub fn run(mut self, run: RunConfig) -> Self {
        self.run = run;
        self
    }

    /// Starts from a *prepartition* (paper §VI: "this prepartition could
    /// be directly fed into the first V-cycle and consecutively be
    /// improved" — e.g. a geographic or hash-based initialization from a
    /// cloud toolkit). The first cycle then behaves like a later V-cycle:
    /// cut edges of the input survive coarsening and the input seeds the
    /// evolutionary population, so the result is never worse than the
    /// input.
    pub fn prepartition(mut self, input: &'a Partition) -> Self {
        self.prepartition = Some(input);
        self
    }

    /// Partitions `graph` — a `&CsrGraph`, or a [`SegmentedGraph`] read
    /// with one segment per PE ([`GraphInput`]) — into `cfg.k` blocks on
    /// `p` PEs and assembles the global result. Outside input is checked
    /// here, once, before any PE starts: `k ≥ 1`, `p ≥ 1`, a finite
    /// `ε ≥ 0`, node weights and arc weights that each sum to at most
    /// `i64::MAX`, a prepartition that matches `k` and the graph. A
    /// structured comm failure comes back as [`PartitionError::Comm`].
    ///
    /// The cut, the imbalance and the closing check
    /// ([`Partitioned::violation`]) are computed on the PEs, on the graph
    /// the last V-cycle ran on; only the assignment is gathered, on rank 0,
    /// in input order.
    ///
    /// # Panics
    /// Panics if a [`SegmentedGraph`] does not have `p` segments.
    pub fn partition<'g>(
        &self,
        graph: impl Into<GraphInput<'g>>,
        p: usize,
    ) -> Result<Partitioned, PartitionError> {
        let cfg = self.cfg;
        let graph = graph.into();
        if cfg.k == 0 {
            return Err(PartitionError::InvalidK);
        }
        if p == 0 {
            return Err(PartitionError::InvalidP);
        }
        if !(cfg.eps.is_finite() && cfg.eps >= 0.0) {
            return Err(PartitionError::InvalidEps(cfg.eps));
        }
        let (n_global, total, arc_total) = match &graph {
            GraphInput::Global(g) => (
                ids::count_global(g.n()),
                weight_sum(g.node_weights()),
                if g.has_arc_weights() {
                    weight_sum(&g.adjwgt())
                } else {
                    u128::from(ids::count_global(g.num_arcs()))
                },
            ),
            GraphInput::Segments(g) => (
                g.n,
                g.segments.iter().map(|s| weight_sum(&s.node_weight)).sum(),
                g.segments
                    .iter()
                    .map(|s| match s.adjwgt.as_slice() {
                        [] => u128::from(ids::count_global(s.adjncy.len())),
                        w => weight_sum(w),
                    })
                    .sum(),
            ),
        };
        if total > i64::MAX as u128 {
            return Err(PartitionError::NodeWeightOverflow { total });
        }
        if arc_total > i64::MAX as u128 {
            return Err(PartitionError::EdgeWeightOverflow { total: arc_total });
        }
        if let Some(input) = self.prepartition {
            let (k, n) = (input.k(), input.assignment().len());
            if k != cfg.k || ids::count_global(n) != n_global {
                return Err(PartitionError::PrepartitionMismatch { k, n });
            }
        }
        let rows = match graph {
            GraphInput::Global(g) => Rows::Global(g),
            GraphInput::Segments(g) => {
                assert_eq!(g.segments.len(), p, "one row segment per PE");
                Rows::Segments {
                    n: g.n,
                    slots: g
                        .segments
                        .into_iter()
                        .map(|s| Mutex::new(Some(s)))
                        .collect(),
                }
            }
        };
        let values = pgp_dmp::run_config(p, self.run.clone(), |comm| {
            let dg = rows.distribute(comm);
            let (run, mut stats) = self.run_on_pe(comm, dg);
            let closing = close_run(comm, &run.graph, &run.blocks, cfg.k);
            stats.cut = closing.cut;
            // Rank 0 alone gathers the assignment, in input order.
            let assignment = gatherv(comm, 0, run.input_blocks(comm));
            (assignment, stats, closing)
        })
        .into_iter()
        .collect::<Result<Vec<_>, CommError>>()?;
        // Every PE holds the same statistics; rank 0 holds the assignment.
        let (assignment, mut stats, closing) =
            values.into_iter().next().expect("p >= 1 was checked");
        let assignment = assignment.expect("rank 0 gathers the assignment");
        let total = closing.total_node_weight;
        let partition = Partition::from_block_weights(cfg.k, assignment, closing.block_weights);
        stats.imbalance = partition.imbalance_of(total);
        let violation = if closing.errors.is_empty() {
            partition
                .check_balance(total, cfg.eps)
                .err()
                .map(|e| e.to_string())
        } else {
            Some(closing.errors.join("; "))
        };
        Ok(Partitioned {
            partition,
            stats,
            violation,
        })
    }

    /// One run on one PE, from its part of the input graph (moved in, so
    /// a migration frees it): where the run ended, and the stats.
    fn run_on_pe(&self, comm: &Comm, graph: DistGraph) -> (CycleRun<'static>, ParhipStats) {
        let cfg = self.cfg;
        let input = self.prepartition.map(|ip| {
            assert_eq!(ip.k(), cfg.k, "prepartition block count mismatch");
            (0..ids::node_of_index(graph.n_local() + graph.n_ghost()))
                .map(|l| ip.block(graph.local_to_global(l)))
                .collect()
        });
        parhip_cycles(comm, Cow::Owned(graph), cfg, input)
    }
}

/// The sum of `weights`, exact whatever it is.
fn weight_sum(weights: &[Weight]) -> u128 {
    weights.iter().map(|&w| u128::from(w)).sum()
}

/// The bare per-PE call, in the shape of KaHIP's `ParHIPPartitionKWay`,
/// for code already inside a `pgp_dmp::run*` closure: runs the full system
/// on an already-distributed graph with no options; returns this PE's
/// local block assignment (owned nodes of `graph`) plus stats. When the run
/// moved to a block numbering, the blocks come back to their input owners
/// in one `alltoallv`.
pub fn parhip_distributed(
    comm: &Comm,
    graph: &DistGraph,
    cfg: &ParhipConfig,
) -> (Vec<Node>, ParhipStats) {
    let (run, stats) = parhip_cycles(comm, Cow::Borrowed(graph), cfg, None);
    (run.input_blocks(comm), stats)
}

/// Where a run's V-cycles ended: the graph of the last cycle — the input
/// graph, or the block-numbered one the run moved to — with the blocks of
/// its owned and ghost nodes and, after a move, its owned nodes' input IDs.
struct CycleRun<'g> {
    graph: Cow<'g, DistGraph>,
    blocks: Vec<Node>,
    input_ids: Option<Vec<Node>>,
}

impl CycleRun<'_> {
    /// The blocks of the input nodes this PE owns, in ID order. The graph
    /// is dropped first; after a move every block goes back to its input
    /// owner with its input ID, in one `alltoallv`. A move keeps the node
    /// count and the PE count, so the graph's distribution is the input's.
    fn input_blocks(self, comm: &Comm) -> Vec<Node> {
        let Self {
            graph,
            mut blocks,
            input_ids,
        } = self;
        let input_dist = graph.dist();
        blocks.truncate(graph.n_local());
        drop(graph);
        match input_ids {
            None => blocks,
            Some(input_ids) => blocks_in_input_order(comm, input_dist, &input_ids, &blocks),
        }
    }
}

/// The shared V-cycle engine: runs `cfg.vcycles` cycles from an optional
/// carried-in assignment `blocks` of the owned and ghost nodes — the one
/// state a V-cycle hands the next, with the graph it is numbered by — and
/// returns both after the last cycle. Between cycles at p > 1 the graph
/// may move to its block numbering ([`crate::renumber`]).
/// [`Partitioner::partition`] and [`parhip_distributed`] funnel here.
fn parhip_cycles<'g>(
    comm: &Comm,
    mut graph: Cow<'g, DistGraph>,
    cfg: &ParhipConfig,
    mut blocks: Option<Vec<Node>>,
) -> (CycleRun<'g>, ParhipStats) {
    let mut stats = ParhipStats::default();
    let mut input_ids: Option<Vec<Node>> = None;
    #[cfg(feature = "validate")]
    crate::validate::assert_graph_valid(comm, &graph, "parhip input graph");

    // One SCLP scratch for the whole run: the finest graph recurs every
    // cycle, so its degree order is computed once and reused.
    let mut scratch = SclpScratch::new();

    let cycles = cfg.vcycles.max(1);
    for cycle in 0..cycles {
        let rec = comm.recorder();
        rec.enter("vcycle");
        // Whether this cycle ends at a boundary that may renumber.
        let renumber = comm.size() > 1 && cycle + 1 < cycles;
        // ---- Parallel coarsening -------------------------------------
        rec.enter("coarsen");
        // Level 0 of the hierarchy is `graph` itself, borrowed.
        let (hierarchy, coarsest_blocks) =
            coarsen_borrowed(comm, &graph, cfg, cycle, blocks.as_deref(), &mut scratch);
        rec.exit("coarsen");
        let depth = hierarchy.depth();
        if cycle == 0 {
            stats.levels = depth;
            stats.coarsest_n = hierarchy.coarsest().n_global();
        }

        // ---- Initial partitioning on the replicated coarsest graph ----
        rec.enter("initial_partition");
        let coarsest = hierarchy.coarsest();
        let coarsest_global: CsrGraph = coarsest.gather_global(comm);
        // The carried partition, projected down with the coarsening: its
        // owned part, gathered.
        let seed_partition: Option<Partition> = coarsest_blocks.map(|mut b| {
            b.truncate(coarsest.n_local());
            Partition::from_assignment(&coarsest_global, cfg.k, allgatherv(comm, b))
        });
        // The budget is the group's: each PE runs `⌈evo_operations / p⌉`
        // operations (the paper's `t_p = t_1 / p`), after an initial
        // population the group builds once when there are operations.
        let evo_cfg = EvoConfig {
            k: cfg.k,
            eps: cfg.eps,
            population_size: cfg.population_size,
            budget: Budget::Operations(cfg.evo_operations),
            mutation_rate: 0.1,
            rumor_fanout: if cfg.deterministic { 0 } else { 1 },
            rumor_interval: 2,
            seed: cfg.seed.wrapping_add(ids::count_global(cycle) * 0xE70),
            objective: pgp_evo::Objective::EdgeCut,
        };
        let coarse_partition =
            pgp_evo::kaffpae(comm, &coarsest_global, &evo_cfg, seed_partition.as_ref());
        rec.record_work(level_work(
            "initial_partition",
            cycle,
            depth - 1,
            coarsest,
            PassStats::default(),
        ));
        rec.exit("initial_partition");

        // ---- Parallel uncoarsening + refinement ------------------------
        rec.enter("uncoarsen");
        let lmax_v = lmax(graph.total_node_weight(), cfg.k, cfg.eps);
        // Owned + ghost blocks of the coarsest level, read off the
        // replicated solution.
        let mut cur: Vec<Node> = (0..ids::node_of_index(coarsest.n_local() + coarsest.n_ghost()))
            .map(|l| coarse_partition.block(coarsest.local_to_global(l)))
            .collect();
        // Walk levels coarse→fine: project onto the finer level, refine it.
        // A single-level hierarchy has nothing to project and refines its
        // one level.
        for li in (0..(depth - 1).max(1)).rev() {
            let fine = hierarchy.graph(li);
            if li + 1 < depth {
                let coarse = hierarchy.graph(li + 1);
                cur = parallel_project_blocks(
                    comm,
                    coarse,
                    hierarchy.mapping(li),
                    &cur[..coarse.n_local()],
                );
            }
            let seed = if depth == 1 {
                ids::count_global(cycle) * 7919
            } else {
                ids::count_global(cycle * 1000 + li)
            };
            // Ends in a label flush, so the ghost entries of `cur` leave
            // exact.
            let pass = parallel_sclp_refine_with_scratch(
                comm,
                fine,
                cfg.k,
                lmax_v,
                cfg.refine_iterations,
                cfg.seed.wrapping_add(seed),
                &mut cur,
                &mut scratch,
            );
            #[cfg(feature = "validate")]
            crate::validate::assert_partition_valid(
                comm,
                fine,
                &cur,
                cfg.k,
                &format!("V-cycle {cycle}, level {li} refined"),
            );
            // Quality after the pass — one extra allreduce, taken only
            // when recording (enabledness is SPMD-uniform, so the gate
            // cannot desynchronize the group). Integer weights in, a
            // deterministic f64 out: reports compare byte-for-byte.
            if rec.is_enabled() {
                let (cut, weights) = cut_and_block_weights(comm, fine, &cur, cfg.k);
                let max_w = weights.iter().copied().max().unwrap_or(0);
                let imbalance = pgp_graph::imbalance(max_w, weights.iter().sum(), cfg.k);
                rec.record_work(LevelWork {
                    cut: Some(cut),
                    imbalance: Some(imbalance),
                    ..level_work("refine", cycle, li, fine, pass)
                });
            }
        }
        rec.exit("uncoarsen");
        drop(hierarchy);
        if renumber {
            // ---- Renumbering by block ----------------------------------
            rec.enter("migrate");
            let new_ids = block_numbering(comm, &graph, &cur, cfg.k);
            let (crossing_now, crossing_by_block) = crossing_arcs(comm, &graph, &new_ids);
            let migrated = worth_moving(crossing_now, crossing_by_block);
            stats.renumberings.push(Renumbering {
                after_cycle: cycle,
                crossing_now,
                crossing_by_block,
                migrated,
            });
            if migrated {
                let Migrated {
                    graph: moved,
                    blocks: moved_blocks,
                    input_ids: moved_ids,
                } = migrate(comm, graph, new_ids, cur, input_ids);
                #[cfg(feature = "validate")]
                crate::validate::assert_graph_valid(comm, &moved, "block-numbered graph");
                graph = Cow::Owned(moved);
                cur = moved_blocks;
                input_ids = Some(moved_ids);
            }
            rec.exit("migrate");
        }
        blocks = Some(cur);
        rec.exit("vcycle");
    }

    let run = CycleRun {
        graph,
        blocks: blocks.expect("at least one cycle ran"),
        input_ids,
    };
    (run, stats)
}

/// Global edge cut and block weights of `blocks` (owned + ghost) on
/// `graph`, from one vector allreduce: slots `0..k` hold the block
/// weights, slot `k` the directed cut.
fn cut_and_block_weights(
    comm: &Comm,
    graph: &DistGraph,
    blocks: &[Node],
    k: usize,
) -> (u64, Vec<Weight>) {
    let mut sums = vec![0u64; k + 1];
    for l in 0..graph.n_local() {
        let v = ids::node_of_index(l);
        let bv = blocks[l];
        sums[ids::node_index(bv)] += graph.node_weight(v);
        for (u, w) in graph.neighbors(v) {
            if blocks[ids::node_index(u)] != bv {
                sums[k] += w;
            }
        }
    }
    let mut weights = allreduce_sum_vec(comm, sums);
    let cut2 = weights.pop().expect("slot k holds the cut");
    (cut2 / 2, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GraphClass;

    fn small_cfg(k: usize, class: GraphClass, seed: u64) -> ParhipConfig {
        let mut cfg = ParhipConfig::fast(k, class, seed);
        cfg.coarsest_nodes_per_block = 50;
        cfg.deterministic = true;
        cfg
    }

    fn run(g: &CsrGraph, p: usize, cfg: &ParhipConfig) -> Partitioned {
        Partitioner::new(cfg).partition(g, p).expect("valid input")
    }

    #[test]
    fn partitions_social_standin_validly() {
        let (g, _) = pgp_gen::sbm::sbm(1200, pgp_gen::sbm::SbmParams::default(), 4);
        let Partitioned {
            partition: p,
            stats,
            ..
        } = run(&g, 4, &small_cfg(4, GraphClass::Social, 1));
        p.validate(&g, 0.03).unwrap();
        assert!(stats.levels >= 2);
        assert!(stats.cut > 0);
        // Much better than a random balanced partition.
        let rand_cut =
            Partition::from_assignment(&g, 4, (0..g.n() as u32).map(|i| i % 4).collect())
                .edge_cut(&g);
        assert!(
            stats.cut < rand_cut / 2,
            "cut {} vs random {rand_cut}",
            stats.cut
        );
    }

    #[test]
    fn partitions_mesh_validly() {
        let g = pgp_gen::mesh::grid2d(30, 30);
        let p = run(&g, 3, &small_cfg(3, GraphClass::Mesh, 7)).partition;
        p.validate(&g, 0.03).unwrap();
        // 3-way cut of a 30x30 grid: decent quality sanity bound.
        assert!(p.edge_cut(&g) <= 120, "cut {}", p.edge_cut(&g));
    }

    #[test]
    fn single_pe_works() {
        let (g, _) = pgp_gen::sbm::sbm(400, pgp_gen::sbm::SbmParams::default(), 9);
        let p = run(&g, 1, &small_cfg(2, GraphClass::Social, 3)).partition;
        p.validate(&g, 0.03).unwrap();
    }

    #[test]
    fn deterministic_given_seed_and_p() {
        let (g, _) = pgp_gen::sbm::sbm(500, pgp_gen::sbm::SbmParams::default(), 11);
        let cfg = small_cfg(2, GraphClass::Social, 21);
        let a = run(&g, 3, &cfg).partition;
        let b = run(&g, 3, &cfg).partition;
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn more_vcycles_do_not_hurt() {
        let (g, _) = pgp_gen::sbm::sbm(700, pgp_gen::sbm::SbmParams::default(), 13);
        let mut one = small_cfg(4, GraphClass::Social, 5);
        one.vcycles = 1;
        let mut three = small_cfg(4, GraphClass::Social, 5);
        three.vcycles = 3;
        let p1 = run(&g, 2, &one).partition;
        let p3 = run(&g, 2, &three).partition;
        assert!(
            p3.edge_cut(&g) <= p1.edge_cut(&g),
            "3 cycles {} vs 1 cycle {}",
            p3.edge_cut(&g),
            p1.edge_cut(&g)
        );
    }

    #[test]
    fn prepartition_is_improved_never_worsened() {
        let (g, _) = pgp_gen::sbm::sbm(800, pgp_gen::sbm::SbmParams::default(), 23);
        let cfg = small_cfg(4, GraphClass::Social, 5);
        // A hash prepartition (balanced, terrible cut) fed into the first
        // V-cycle, as §VI suggests for cloud toolkits.
        let hash: Vec<Node> = (0..g.n() as Node)
            .map(|v| (pgp_dmp::mix_seed(7, v as u64) % 4) as Node)
            .collect();
        let input = Partition::from_assignment(&g, 4, hash);
        let hash_cut = input.edge_cut(&g);
        let p = Partitioner::new(&cfg)
            .prepartition(&input)
            .partition(&g, 2)
            .expect("valid input")
            .partition;
        assert!(
            p.edge_cut(&g) < hash_cut / 2,
            "prepartition {hash_cut} should be drastically improved, got {}",
            p.edge_cut(&g)
        );
        p.validate(&g, 0.03).unwrap();
    }

    /// End-to-end with the invariant wall up: every contraction, the input
    /// graph, and every cycle's final partition are validated collectively.
    #[test]
    #[cfg(feature = "validate")]
    fn validated_rmat_partition_end_to_end() {
        let g = pgp_gen::rmat::rmat_web(10, 8, 5);
        let Partitioned {
            partition: p,
            stats,
            ..
        } = run(&g, 4, &small_cfg(4, GraphClass::Social, 9));
        p.validate(&g, 0.03).unwrap();
        assert!(stats.cut > 0);
    }

    /// Zero-weight arcs are valid input: the METIS reader takes them and
    /// every kernel handles them. With the `validate` feature, the input
    /// graph and every level must pass the invariant wall too.
    #[test]
    fn zero_weight_arcs_pass_the_invariant_wall() {
        let text = "4 4 1\n2 0 4 1\n1 0 3 1\n2 1 4 0\n1 1 3 0\n";
        let g = pgp_graph::io::read_metis(text.as_bytes()).expect("the reader takes zero weights");
        for p in [1, 2] {
            let part = run(&g, p, &small_cfg(2, GraphClass::Social, 3)).partition;
            part.validate(&g, 0.03)
                .unwrap_or_else(|e| panic!("p = {p}: {e}"));
        }
    }

    /// A star keeps every arc in one row (stored in degree order on every
    /// PE); two nodes on up to eight PEs leave some PEs without rows.
    #[test]
    fn a_star_and_empty_pes_partition_validly() {
        let star =
            pgp_graph::builder::from_edges(100, &(1..100).map(|v| (0, v)).collect::<Vec<_>>());
        let pair = pgp_graph::builder::from_edges(2, &[(0, 1)]);
        for (what, g) in [("star", &star), ("p > n", &pair)] {
            for p in [1, 2, 3, 8] {
                let part = run(g, p, &small_cfg(2, GraphClass::Social, 5)).partition;
                part.validate(g, 0.03)
                    .unwrap_or_else(|e| panic!("{what}, p = {p}: {e}"));
            }
        }
    }

    #[test]
    fn stats_are_populated() {
        let (g, _) = pgp_gen::sbm::sbm(600, pgp_gen::sbm::SbmParams::default(), 2);
        let stats = run(&g, 2, &small_cfg(2, GraphClass::Social, 17)).stats;
        assert!(stats.coarsest_n > 0);
        assert!(stats.levels >= 1);
    }

    /// Node weights that the reader accepts (their sum fits `u64`) but
    /// that sum past `i64::MAX` are turned away before any PE starts; a
    /// sum just below it partitions.
    #[test]
    fn node_weights_past_i64_are_rejected_before_any_pe_starts() {
        let path = |w: Weight| {
            pgp_graph::GraphBuilder::new(3)
                .add_edge(0, 1)
                .add_edge(1, 2)
                .node_weights(vec![w; 3])
                .build()
        };
        let heavy = path(6_000_000_000_000_000_000);
        let total = 18_000_000_000_000_000_000;
        for p in [1, 2] {
            for cfg in [
                small_cfg(2, GraphClass::Social, 3),
                ParhipConfig::eco(2, GraphClass::Social, 3),
            ] {
                let out = Partitioner::new(&cfg).partition(&heavy, p);
                assert_eq!(
                    out.err(),
                    Some(PartitionError::NodeWeightOverflow { total }),
                    "p = {p}"
                );
            }
        }
        let light = path(3_000_000_000_000_000_000);
        for p in [1, 2] {
            let part = run(&light, p, &small_cfg(2, GraphClass::Social, 3)).partition;
            assert_eq!(part.assignment().len(), 3, "p = {p}");
        }
    }

    /// Arc weights that fit `u64` but sum past `i64::MAX` (FM's gains) are
    /// turned away before any PE starts, as a global graph and as row
    /// segments; a sum just below it partitions.
    #[test]
    fn edge_weights_past_i64_are_rejected_before_any_pe_starts() {
        // A weighted path 0 - 1 - 2: two edges, four arcs.
        let global = |w: Weight| {
            pgp_graph::GraphBuilder::new(3)
                .add_weighted_edge(0, 1, w)
                .add_weighted_edge(1, 2, w)
                .build()
        };
        let segments = |w: Weight, p: usize| {
            let text = format!("3 2 1\n2 {w}\n1 {w} 3 {w}\n2 {w}\n");
            pgp_graph::io::read_metis_segments(text.as_bytes(), |n| {
                let dist = pgp_dmp::dgraph::BlockDist::new(n, p);
                (0..p).map(|r| dist.first(r)).collect()
            })
            .expect("a valid weighted path")
        };
        let heavy = 3_000_000_000_000_000_000;
        let total = Some(PartitionError::EdgeWeightOverflow {
            total: 12_000_000_000_000_000_000,
        });
        for p in [1, 2] {
            for cfg in [
                small_cfg(2, GraphClass::Social, 3),
                ParhipConfig::eco(2, GraphClass::Social, 3),
            ] {
                let partitioner = Partitioner::new(&cfg);
                let out = partitioner.partition(&global(heavy), p);
                assert_eq!(out.err(), total, "global, p = {p}");
                let out = partitioner.partition(segments(heavy, p), p);
                assert_eq!(out.err(), total, "segments, p = {p}");
            }
        }
        let light = 2_000_000_000_000_000_000;
        let cfg = small_cfg(2, GraphClass::Social, 3);
        for p in [1, 2] {
            let part = run(&global(light), p, &cfg).partition;
            assert_eq!(part.assignment().len(), 3, "global, p = {p}");
            let out = Partitioner::new(&cfg).partition(segments(light, p), p);
            assert_eq!(
                out.expect("fits").partition.assignment().len(),
                3,
                "segments, p = {p}"
            );
        }
    }
}
