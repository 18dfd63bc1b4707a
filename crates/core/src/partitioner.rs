//! The overall parallel system (Section IV-E, Figure 4).
//!
//! Per V-cycle: parallel cluster coarsening until `10 000·k`-scaled nodes
//! remain → the distributed coarsest graph is collected on every PE →
//! KaFFPaE partitions it (seeded with the current partition after the
//! first cycle) → the best solution is broadcast and carried up by the
//! parallel uncoarsening, with `r` iterations of parallel SCLP refinement
//! per level.
//!
//! # Checkpoint/restart (DESIGN.md §9)
//!
//! The only state a V-cycle carries into the next one is the block
//! assignment — every seed is derived from the *absolute* cycle index, so
//! replaying cycles `c+1..` from cycle `c`'s assignment is bit-identical
//! to a run that never stopped. A [`Partitioner`] with a
//! [`Partitioner::store`] saves a [`VCycleCheckpoint`] into the
//! [`CheckpointStore`] at each V-cycle boundary (assignment, the cycle's
//! replicated coarsest graph + its initial partition, the composite
//! fine→coarsest map, level shapes, and graph/config fingerprints); with
//! [`Partitioner::resume`] it verifies the fingerprints of the store's
//! latest snapshot and replays the remaining cycles.

use crate::coarsen::{coarsen_borrowed, BorrowedHierarchy};
use crate::config::ParhipConfig;
use crate::contract::{parallel_project_blocks, query_owner_values};
use pgp_dmp::collectives::allgatherv;
use pgp_dmp::{AttemptInfo, Comm, CommError, DistGraph, RecoveryLimits, RunConfig};
use pgp_evo::{Budget, EvoConfig};
use pgp_graph::ids;
use pgp_graph::{lmax, CsrGraph, Node, Partition};
use pgp_lp::par::{parallel_sclp_refine_with_scratch, SclpScratch};
use pgp_obs::RefineMetrics;

/// Per-phase timings and structural statistics of one run (as reported by
/// rank 0; all PEs see the same structure).
///
/// The `*_s` timing fields are filled from the observation recorder and
/// are therefore 0.0 unless the run carries an `Obs` registry (see
/// `pgp_dmp::RunConfig::obs`) — per-phase timing now lives in the
/// [`pgp_obs::RunReport`], not in ad-hoc stopwatches.
#[derive(Clone, Debug, Default)]
pub struct ParhipStats {
    /// Seconds spent in parallel coarsening (all cycles; 0.0 when
    /// observation is disabled).
    pub coarsening_s: f64,
    /// Seconds spent in the evolutionary initial partitioning (0.0 when
    /// observation is disabled).
    pub initial_s: f64,
    /// Seconds spent in uncoarsening + refinement (0.0 when observation is
    /// disabled).
    pub uncoarsening_s: f64,
    /// Hierarchy depth of the first cycle.
    pub levels: usize,
    /// Global node count of the first cycle's coarsest graph.
    pub coarsest_n: u64,
    /// Global edge count of the first cycle's coarsest graph.
    pub coarsest_m: u64,
    /// Final edge cut.
    pub cut: u64,
}

/// Shape of one hierarchy level captured in a [`VCycleCheckpoint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelSummary {
    /// Global node count of the level.
    pub n_global: u64,
    /// Global edge count of the level.
    pub m_global: u64,
}

/// A V-cycle boundary snapshot: everything needed to replay the remaining
/// cycles bit-identically, plus the cycle's coarse state for inspection
/// and validation (`pgp_check::validate_checkpoint`).
#[derive(Clone, Debug)]
pub struct VCycleCheckpoint {
    /// The completed V-cycle this snapshot was taken after (0-based).
    pub cycle: usize,
    /// Block count of the run.
    pub k: usize,
    /// Global block assignment after the cycle (indexed by global node ID).
    pub assignment: Vec<Node>,
    /// The cycle's replicated coarsest graph.
    pub coarsest: CsrGraph,
    /// The evolutionary initial partition of `coarsest` (before
    /// uncoarsening refinement).
    pub coarsest_assignment: Vec<Node>,
    /// Composite fine→coarsest map: global fine node ID → global coarsest
    /// node ID (the chain of per-level cluster mappings, collapsed).
    pub fine_to_coarsest: Vec<Node>,
    /// Shape of every hierarchy level, finest first.
    pub levels: Vec<LevelSummary>,
    /// Group-wide graph fingerprint (see [`DistGraph::fingerprint_local`]).
    pub graph_fingerprint: u64,
    /// [`ParhipConfig::fingerprint`] of the run's configuration.
    pub config_fingerprint: u64,
    /// Nanoseconds elapsed on the run's trace epoch when the snapshot was
    /// taken (0 when observation is disabled). A resumed run offsets its
    /// trace clock by this amount so the stitched timeline of
    /// original + resumed segments stays monotone.
    pub elapsed_ns: u64,
}

/// In-memory store holding the latest [`VCycleCheckpoint`] of a run.
/// Shared between the driver and the PE group (rank 0 writes it at each
/// V-cycle boundary); after a faulted run, hand it to a
/// [`Partitioner::resume`] run.
#[derive(Default)]
pub struct CheckpointStore {
    latest: std::sync::Mutex<Option<VCycleCheckpoint>>,
    /// Total V-cycle *starts* recorded against this store (rank 0 marks
    /// one per cycle entry, across all attempts). A fault-free run starts
    /// exactly `vcycles` cycles, so anything beyond that is work a fault
    /// destroyed — a supervised run reports the difference as
    /// `lost_cycles`.
    cycles_started: std::sync::atomic::AtomicU64,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one V-cycle start (called by rank 0 at each cycle entry).
    pub fn note_cycle_started(&self) {
        self.cycles_started
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed); // lint:relaxed-ok: monotonic diagnostic counter
    }

    /// Total V-cycle starts recorded so far (see the field docs).
    pub fn cycles_started(&self) -> u64 {
        self.cycles_started
            .load(std::sync::atomic::Ordering::Relaxed) // lint:relaxed-ok: monotonic diagnostic counter
    }

    /// Replaces the stored checkpoint (later cycles win).
    pub fn save(&self, cp: VCycleCheckpoint) {
        // A panicking writer cannot leave a half-written checkpoint: the
        // value is moved in whole, so poisoning is safe to swallow.
        let mut slot = self.latest.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(cp);
    }

    /// The latest checkpoint, if any.
    pub fn latest(&self) -> Option<VCycleCheckpoint> {
        self.latest
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The cycle index of the latest checkpoint, if any.
    pub fn latest_cycle(&self) -> Option<usize> {
        self.latest
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|cp| cp.cycle)
    }
}

/// Group-wide graph identity: every PE's local fingerprint bound to its
/// rank, combined with a wrapping-sum allreduce (commutative, so the
/// reduction tree's shape cannot matter). Identical graph + identical PE
/// count ⇔ identical value on every PE.
fn group_graph_fingerprint(comm: &Comm, graph: &DistGraph) -> u64 {
    let local = pgp_dmp::mix_seed(
        graph.fingerprint_local(),
        ids::count_global(comm.rank()).wrapping_add(1),
    );
    pgp_dmp::collectives::allreduce(comm, local, |a, b| a.wrapping_add(b))
}

/// Collapses the hierarchy's per-level cluster mappings into one map from
/// this PE's owned *finest* nodes to global *coarsest* node IDs. Each step
/// resolves the current coarse IDs through their owners' next-level
/// mapping (an alltoallv round trip via [`query_owner_values`]).
fn compose_to_coarsest(comm: &Comm, hierarchy: &BorrowedHierarchy<'_>) -> Vec<Node> {
    let depth = hierarchy.depth();
    let finest = hierarchy.graph(0);
    if depth == 1 {
        return (0..finest.n_local())
            .map(|l| finest.local_to_global(ids::node_of_index(l)))
            .collect();
    }
    // Level mappings cover owned + ghost nodes; the composite map covers
    // owned finest nodes only (it is allgathered into global node order).
    let mut cur: Vec<Node> = hierarchy.mapping(0)[..finest.n_local()].to_vec();
    for li in 1..depth - 1 {
        let level_graph = hierarchy.graph(li);
        let mapping = hierarchy.mapping(li);
        cur = query_owner_values(comm, level_graph.dist(), &cur, |idx| mapping[idx]);
    }
    cur
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
    /// [`Partitioner::resume`] without a store, or with an empty one.
    NoCheckpoint,
    /// A structured comm failure (watchdog timeout, dead peer) ended the
    /// run — under supervision, after the recovery budget was spent.
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
            Self::NoCheckpoint => write!(f, "resume: the checkpoint store holds no snapshot"),
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
    /// The assembled global partition (identical to what rank 0 holds).
    pub partition: Partition,
    /// The run's statistics, `cut` filled in.
    pub stats: ParhipStats,
    /// The supervisor's counters (attempts, retries, recoveries, dead
    /// ranks, lost V-cycles); `Some` iff the run was
    /// [`Partitioner::supervised`].
    pub recovery: Option<pgp_obs::RecoveryReport>,
}

/// The one way to call the partitioner: a borrowed [`ParhipConfig`] plus
/// the four orthogonal options — a prepartition, the [`RunConfig`] that
/// carries the run (backend, watchdog deadline, fault hook, and the `Obs`
/// registry a report or trace is later read from), a
/// [`CheckpointStore`] with resume-from-latest, and supervision — and two
/// verbs: [`partition`](Self::partition) on a global graph,
/// [`partition_distributed`](Self::partition_distributed) per PE.
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
    store: Option<&'a CheckpointStore>,
    resume: bool,
    supervised: Option<RecoveryLimits>,
}

impl<'a> Partitioner<'a> {
    /// A plain run of `cfg`: threads backend, no recorder, no checkpoints,
    /// no supervision.
    pub fn new(cfg: &'a ParhipConfig) -> Self {
        Self {
            cfg,
            run: RunConfig::default(),
            prepartition: None,
            store: None,
            resume: false,
            supervised: None,
        }
    }

    /// How [`partition`](Self::partition) carries the run: comm backend,
    /// watchdog deadline, fault hook (`pgp-chaos` builds one from a
    /// `FaultPlan`) and the `Obs` registry. Recording adds two
    /// allreduces per refinement pass and never changes the partition;
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

    /// Saves a [`VCycleCheckpoint`] into `store` at the V-cycle boundaries
    /// `cfg.checkpoint` selects (rank 0 writes; the snapshot itself is
    /// assembled collectively).
    pub fn store(mut self, store: &'a CheckpointStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Resumes from the store's latest snapshot instead of starting over:
    /// verifies the graph and config fingerprints and replays cycles
    /// `snapshot.cycle + 1` onward. Because every cycle's seeds derive
    /// from the absolute cycle index, the result is bit-identical to the
    /// uninterrupted run.
    ///
    /// The run panics if the snapshot was taken on a different graph, PE
    /// count, or configuration (fingerprint mismatch) — resuming would
    /// silently produce a different partition, which is worse than
    /// failing loudly.
    pub fn resume(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Runs [`partition`](Self::partition) under the automatic-recovery
    /// supervisor (DESIGN.md §14): every V-cycle boundary is checkpointed
    /// at the cadence in `cfg.checkpoint` (into the [`store`](Self::store)
    /// if one was given), and when a PE dies mid-run the survivors'
    /// failure consensus picks the dead ranks, the supervisor respawns a
    /// fresh universe, and the run resumes from the latest validated
    /// snapshot — bit-identical to the fault-free partition.
    /// Uncorroborated timeouts are retried with exponential backoff
    /// (jitter seeded from `cfg.seed`) before escalating to full recovery.
    pub fn supervised(mut self, limits: RecoveryLimits) -> Self {
        self.supervised = Some(limits);
        self
    }

    /// Partitions `graph` into `cfg.k` blocks on `p` PEs and assembles the
    /// global result. Outside input is checked here, once: `k ≥ 1`,
    /// `p ≥ 1`, a finite `ε ≥ 0`, a prepartition that matches `k` and the
    /// graph, a snapshot to resume from. A structured comm failure comes
    /// back as [`PartitionError::Comm`] — under supervision only once the
    /// recovery budget is exhausted.
    pub fn partition(&self, graph: &CsrGraph, p: usize) -> Result<Partitioned, PartitionError> {
        let cfg = self.cfg;
        if cfg.k == 0 {
            return Err(PartitionError::InvalidK);
        }
        if p == 0 {
            return Err(PartitionError::InvalidP);
        }
        if !(cfg.eps.is_finite() && cfg.eps >= 0.0) {
            return Err(PartitionError::InvalidEps(cfg.eps));
        }
        if let Some(input) = self.prepartition {
            let (k, n) = (input.k(), input.assignment().len());
            if k != cfg.k || n != graph.n() {
                return Err(PartitionError::PrepartitionMismatch { k, n });
            }
        }
        if self.resume && self.store.and_then(CheckpointStore::latest_cycle).is_none() {
            return Err(PartitionError::NoCheckpoint);
        }
        // A supervised run always checkpoints — recovery resumes from it.
        let own_store = CheckpointStore::new();
        let store = self.store.or(self.supervised.map(|_| &own_store));
        let started_before = store.map_or(0, CheckpointStore::cycles_started);
        let on_pe = |comm: &Comm, attempt: Option<&AttemptInfo>| {
            let dg = DistGraph::from_global(comm, graph);
            let (local, stats) = self.run_on_pe(comm, &dg, store, attempt);
            (allgatherv(comm, local), stats)
        };
        let (values, recovery) = match self.supervised {
            None => {
                let values = pgp_dmp::run_config(p, self.run.clone(), |comm| on_pe(comm, None))
                    .into_iter()
                    .collect::<Result<Vec<_>, CommError>>()?;
                (values, None)
            }
            Some(limits) => {
                let sup = pgp_dmp::SupervisorConfig {
                    base: self.run.clone(),
                    limits,
                    seed: cfg.seed,
                };
                let (values, mut recovery) =
                    pgp_dmp::run_config_supervised(p, sup, |comm, info| on_pe(comm, Some(info)))?;
                // Work destroyed by faults: cycle starts beyond the
                // fault-free count.
                let started = store.map_or(0, CheckpointStore::cycles_started) - started_before;
                let lost = started.saturating_sub(cfg.vcycles.max(1) as u64); // lint:cast-ok: small cycle count
                recovery.lost_cycles = lost;
                if let Some(obs) = &self.run.obs {
                    obs.record_recovery(|r| r.lost_cycles = lost);
                }
                (values, Some(recovery))
            }
        };
        let (assignment, mut stats) = values.into_iter().next().expect("p >= 1 was checked");
        let partition = Partition::from_assignment(graph, cfg.k, assignment);
        stats.cut = partition.edge_cut(graph);
        Ok(Partitioned {
            partition,
            stats,
            recovery,
        })
    }

    /// The per-PE verb, for callers already inside a `pgp_dmp::run*`
    /// closure: runs the full system on an already-distributed graph and
    /// returns this PE's local block assignment (owned nodes) plus stats.
    /// The prepartition, store and resume options apply; the group `comm`
    /// belongs to was built by the caller, so [`run`](Self::run) and
    /// [`supervised`](Self::supervised) have nothing to act on here.
    ///
    /// # Panics
    /// Panics on what [`partition`](Self::partition) rejects with an
    /// error (this verb sits behind the door).
    pub fn partition_distributed(
        &self,
        comm: &Comm,
        graph: &DistGraph,
    ) -> (Vec<Node>, ParhipStats) {
        self.run_on_pe(comm, graph, self.store, None)
    }

    /// One attempt on one PE. `attempt` is `Some` under supervision: a
    /// re-attempt resumes from the store's latest *usable* snapshot and
    /// otherwise starts over. That choice is SPMD-uniform — `attempt`
    /// comes from the supervisor (identical on every PE) and the store is
    /// only written at collective V-cycle boundaries, so all PEs observe
    /// the same latest snapshot between attempts.
    fn run_on_pe(
        &self,
        comm: &Comm,
        graph: &DistGraph,
        store: Option<&CheckpointStore>,
        attempt: Option<&AttemptInfo>,
    ) -> (Vec<Node>, ParhipStats) {
        let cfg = self.cfg;
        let latest = || store.and_then(CheckpointStore::latest);
        if attempt.is_some_and(|a| a.attempt > 0) {
            #[cfg(feature = "validate")]
            crate::validate::assert_recovery_agreed(
                comm,
                attempt.map_or(&[], |a| &a.dead_ranks),
                store.and_then(CheckpointStore::latest_cycle),
                "supervised attempt entry",
            );
            let rec = comm.recorder();
            rec.enter("restore");
            // Fingerprint checks are collective (group_graph_fingerprint is an
            // allreduce) and must run unconditionally on this branch.
            let group_fp = group_graph_fingerprint(comm, graph);
            let config_fp = cfg.fingerprint();
            let usable = latest().filter(|cp| {
                cp.graph_fingerprint == group_fp && cp.config_fingerprint == config_fp
            });
            rec.exit("restore");
            if let Some(cp) = usable {
                return resume_cycles(comm, graph, cfg, &cp, store);
            }
        } else if self.resume {
            let cp = latest().expect("resume: the checkpoint store holds no snapshot");
            return resume_cycles(comm, graph, cfg, &cp, store);
        }
        let input: Option<Vec<Node>> = self.prepartition.map(|ip| {
            assert_eq!(ip.k(), cfg.k, "prepartition block count mismatch");
            (0..ids::node_of_index(graph.n_local() + graph.n_ghost()))
                .map(|l| ip.block(graph.local_to_global(l)))
                .collect()
        });
        parhip_cycles(comm, graph, cfg, input.as_deref(), 0, store)
    }
}

/// The bare distributed verb, in the shape of KaHIP's
/// `ParHIPPartitionKWay`: runs the full system on an already-distributed
/// graph; returns this PE's local block assignment (owned nodes) plus
/// stats. Same as `Partitioner::new(cfg).partition_distributed(comm, graph)`.
pub fn parhip_distributed(
    comm: &Comm,
    graph: &DistGraph,
    cfg: &ParhipConfig,
) -> (Vec<Node>, ParhipStats) {
    parhip_cycles(comm, graph, cfg, None, 0, None)
}

/// Replays cycles `checkpoint.cycle + 1` onward from `checkpoint` after
/// verifying its fingerprints, rebuilding this PE's owned + ghost
/// assignment from the snapshot's global assignment.
fn resume_cycles(
    comm: &Comm,
    graph: &DistGraph,
    cfg: &ParhipConfig,
    checkpoint: &VCycleCheckpoint,
    store: Option<&CheckpointStore>,
) -> (Vec<Node>, ParhipStats) {
    assert_eq!(
        checkpoint.graph_fingerprint,
        group_graph_fingerprint(comm, graph),
        "checkpoint/graph mismatch: snapshot of cycle {} was taken on a different graph or PE count",
        checkpoint.cycle
    );
    assert_eq!(
        checkpoint.config_fingerprint,
        cfg.fingerprint(),
        "checkpoint/config mismatch: snapshot of cycle {} was taken under a different configuration",
        checkpoint.cycle
    );
    assert_eq!(
        ids::count_global(checkpoint.assignment.len()),
        graph.n_global(),
        "checkpoint assignment must cover every global node"
    );
    // Continue the original run's trace clock: resumed events start where
    // the snapshot left off instead of restarting at 0.
    comm.recorder().resume_epoch(checkpoint.elapsed_ns);
    let n_all = graph.n_local() + graph.n_ghost();
    let blocks: Vec<Node> = (0..n_all)
        .map(|l| {
            let g = graph.local_to_global(ids::node_of_index(l));
            checkpoint.assignment[ids::node_index(g)]
        })
        .collect();
    parhip_cycles(comm, graph, cfg, Some(&blocks), checkpoint.cycle + 1, store)
}

/// The shared V-cycle engine: runs cycles `start_cycle..cfg.vcycles` from
/// an optional carried-in assignment, optionally checkpointing each cycle
/// boundary into `store`. Both verbs funnel here.
fn parhip_cycles(
    comm: &Comm,
    graph: &DistGraph,
    cfg: &ParhipConfig,
    input: Option<&[Node]>,
    start_cycle: usize,
    store: Option<&CheckpointStore>,
) -> (Vec<Node>, ParhipStats) {
    let mut stats = ParhipStats::default();
    let n_all = graph.n_local() + graph.n_ghost();
    // blocks: owned + ghost, maintained across cycles.
    let mut blocks: Option<Vec<Node>> = input.map(|b| {
        assert_eq!(
            b.len(),
            n_all,
            "prepartition must cover owned + ghost nodes"
        );
        b.to_vec()
    });
    assert!(
        start_cycle == 0 || blocks.is_some(),
        "resuming past cycle 0 requires a carried-in assignment"
    );
    #[cfg(feature = "validate")]
    crate::validate::assert_graph_valid(comm, graph, "parhip input graph");

    // One SCLP scratch for the whole run: the finest graph recurs every
    // cycle, so its degree order is computed once and reused.
    let mut scratch = SclpScratch::new();

    let last_cycle = cfg.vcycles.max(1) - 1;
    for cycle in start_cycle..cfg.vcycles.max(1) {
        let rec = comm.recorder();
        rec.enter("vcycle");
        // Cycle-start accounting for the recovery layer: one mark per
        // entered cycle (rank 0 only — the counter is global, not per-PE).
        if let Some(store) = store {
            if comm.rank() == 0 {
                store.note_cycle_started();
            }
        }
        // ---- Parallel coarsening -------------------------------------
        rec.enter("coarsen");
        // Level 0 of the hierarchy is `graph` itself, borrowed.
        let hierarchy = coarsen_borrowed(comm, graph, cfg, cycle, blocks.as_deref(), &mut scratch);
        rec.exit("coarsen");
        if cycle == 0 {
            stats.levels = hierarchy.depth();
            stats.coarsest_n = hierarchy.coarsest().n_global();
            stats.coarsest_m = hierarchy.coarsest().m_global();
        }

        // ---- Initial partitioning on the replicated coarsest graph ----
        rec.enter("initial_partition");
        let coarsest = hierarchy.coarsest();
        let coarsest_global: CsrGraph = coarsest.gather_global(comm);
        let seed_partition: Option<Partition> = blocks.as_ref().map(|b| {
            // Project the current partition to the coarsest level: walk the
            // mapping chain for the local part, then allgather.
            let coarse_local = project_down(comm, &hierarchy, b);
            let all = allgatherv(comm, coarse_local);
            Partition::from_assignment(&coarsest_global, cfg.k, all)
        });
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
        rec.exit("initial_partition");

        // ---- Parallel uncoarsening + refinement ------------------------
        rec.enter("uncoarsen");
        let lmax_v = lmax(graph.total_node_weight(), cfg.k, cfg.eps);
        // Blocks of this PE's *owned coarsest* nodes from the replicated
        // solution.
        let first = coarsest.first_global();
        let mut level_blocks: Vec<Node> = (0..coarsest.n_local())
            .map(|l| coarse_partition.block(ids::global_node(first + ids::count_global(l))))
            .collect();
        // Walk levels coarse→fine.
        for li in (0..hierarchy.depth() - 1).rev() {
            let fine = hierarchy.graph(li);
            let coarse = hierarchy.graph(li + 1);
            let mapping = hierarchy.mapping(li);
            let mut fine_blocks = parallel_project_blocks(comm, coarse, mapping, &level_blocks);
            parallel_sclp_refine_with_scratch(
                comm,
                fine,
                cfg.k,
                lmax_v,
                cfg.refine_iterations,
                cfg.seed.wrapping_add(ids::count_global(cycle * 1000 + li)),
                &mut fine_blocks,
                &mut scratch,
            );
            // Quality after the pass — two extra allreduces, taken only
            // when recording (enabledness is SPMD-uniform, so the gate
            // cannot desynchronize the group).
            if rec.is_enabled() {
                let (cut, imbalance) = observed_quality(comm, fine, &fine_blocks, cfg.k);
                rec.record_refine(RefineMetrics::at(cycle, li, cut, imbalance));
            }
            level_blocks = fine_blocks[..fine.n_local()].to_vec();
        }
        // When the hierarchy is a single level, refine directly on it.
        if hierarchy.depth() == 1 {
            let fine = hierarchy.graph(0);
            let mut fb: Vec<Node> = vec![0; fine.n_local() + fine.n_ghost()];
            fb[..fine.n_local()].copy_from_slice(&level_blocks);
            // Ghost blocks from the replicated coarse partition (coarsest ==
            // finest here).
            #[allow(clippy::needless_range_loop)] // l is a local node id
            for l in fine.n_local()..fine.n_local() + fine.n_ghost() {
                fb[l] = coarse_partition.block(fine.local_to_global(ids::node_of_index(l)));
            }
            parallel_sclp_refine_with_scratch(
                comm,
                fine,
                cfg.k,
                lmax_v,
                cfg.refine_iterations,
                cfg.seed.wrapping_add(ids::count_global(cycle) * 7919),
                &mut fb,
                &mut scratch,
            );
            if rec.is_enabled() {
                let (cut, imbalance) = observed_quality(comm, fine, &fb, cfg.k);
                rec.record_refine(RefineMetrics::at(cycle, 0, cut, imbalance));
            }
            level_blocks = fb[..fine.n_local()].to_vec();
        }
        rec.exit("uncoarsen");

        // Refresh ghost blocks for the next cycle's constraint.
        let mut full: Vec<Node> = vec![0; n_all];
        full[..graph.n_local()].copy_from_slice(&level_blocks);
        let ghost_ids: Vec<Node> = (graph.n_local()..n_all)
            .map(|l| graph.local_to_global(ids::node_of_index(l)))
            .collect();
        let ghost_blocks =
            crate::contract::query_owner_values(comm, graph.dist(), &ghost_ids, |idx| {
                level_blocks[idx]
            });
        full[graph.n_local()..].copy_from_slice(&ghost_blocks);
        #[cfg(feature = "validate")]
        crate::validate::assert_partition_valid(comm, graph, &full, cfg.k, "end of V-cycle");
        blocks = Some(full);

        // ---- V-cycle boundary checkpoint -------------------------------
        // The cadence gate is SPMD-uniform (pure function of cycle index
        // and config), so skipping a boundary cannot desynchronize the
        // group. The last cycle is always taken.
        if let Some(store) = store.filter(|_| cfg.checkpoint.take_at(cycle, last_cycle)) {
            let assignment = allgatherv(comm, level_blocks.clone());
            let fine_to_coarsest = allgatherv(comm, compose_to_coarsest(comm, &hierarchy));
            let checkpoint = VCycleCheckpoint {
                cycle,
                k: cfg.k,
                assignment,
                coarsest: coarsest_global.clone(),
                coarsest_assignment: coarse_partition.assignment().to_vec(),
                fine_to_coarsest,
                levels: (0..hierarchy.depth())
                    .map(|li| LevelSummary {
                        n_global: hierarchy.graph(li).n_global(),
                        m_global: hierarchy.graph(li).m_global(),
                    })
                    .collect(),
                graph_fingerprint: group_graph_fingerprint(comm, graph),
                config_fingerprint: cfg.fingerprint(),
                elapsed_ns: rec.epoch_elapsed_ns(),
            };
            #[cfg(feature = "validate")]
            crate::validate::assert_checkpoint_valid(comm, &checkpoint, "V-cycle checkpoint");
            // The snapshot is assembled collectively (identical on every
            // PE); one writer suffices for the shared store.
            if comm.rank() == 0 {
                store.save(checkpoint);
            }
        }
        rec.exit("vcycle");
    }

    // Phase timings come from the recorder (summed over all span paths
    // ending in the phase name); zero when observation is disabled.
    let rec = comm.recorder();
    if rec.is_enabled() {
        stats.coarsening_s = rec.phase_seconds("coarsen");
        stats.initial_s = rec.phase_seconds("initial_partition");
        stats.uncoarsening_s = rec.phase_seconds("uncoarsen");
    }

    let final_blocks = blocks.expect("at least one cycle ran");
    (final_blocks[..graph.n_local()].to_vec(), stats)
}

/// Global edge cut and imbalance of `blocks` (owned + ghost) on `graph`:
/// one scalar allreduce for the directed cut, one vector allreduce for the
/// block weights. Only called while observation is enabled.
fn observed_quality(comm: &Comm, graph: &DistGraph, blocks: &[Node], k: usize) -> (u64, f64) {
    let mut cut2 = 0u64;
    for l in 0..graph.n_local() {
        let v = ids::node_of_index(l);
        let bv = blocks[l];
        for (u, w) in graph.neighbors(v) {
            if blocks[ids::node_index(u)] != bv {
                cut2 += w;
            }
        }
    }
    let cut = pgp_dmp::collectives::allreduce_sum(comm, cut2) / 2;
    let mut weights = vec![0u64; k];
    for l in 0..graph.n_local() {
        let v = ids::node_of_index(l);
        weights[ids::node_index(blocks[l])] += graph.node_weight(v);
    }
    let weights = pgp_dmp::collectives::allreduce_sum_vec(comm, weights);
    let total: u64 = weights.iter().sum();
    let max_w = weights.iter().copied().max().unwrap_or(0);
    let target = total.div_ceil(ids::count_global(k)).max(1);
    // Integer weights in, deterministic f64 out — safe to compare across
    // runs byte-for-byte (the golden-report tests rely on this).
    let imbalance = max_w as f64 / target as f64 - 1.0; // lint:cast-ok: exact small integers
    (cut, imbalance)
}

/// Projects the current fine blocks (owned part) down the hierarchy to the
/// coarsest level, returning the blocks of this PE's owned coarsest nodes.
fn project_down(comm: &Comm, hierarchy: &BorrowedHierarchy<'_>, fine_blocks: &[Node]) -> Vec<Node> {
    // At each step: owned fine nodes vote (coarse_id, block) to the coarse
    // owner; all members agree because the coarsening was constrained.
    let mut cur: Vec<Node> = fine_blocks[..hierarchy.graph(0).n_local()].to_vec();
    for li in 0..hierarchy.depth() - 1 {
        let coarse = hierarchy.graph(li + 1);
        let mapping = hierarchy.mapping(li);
        let dist = coarse.dist();
        let mut votes: Vec<Vec<(Node, Node)>> = vec![Vec::new(); comm.size()];
        for (v, &b) in cur.iter().enumerate() {
            let cid = mapping[v];
            votes[dist.owner(cid)].push((cid, b));
        }
        let first = dist.first(comm.rank());
        let mut next: Vec<Node> = vec![0; coarse.n_local()];
        for (cid, b) in pgp_dmp::collectives::alltoallv(comm, votes)
            .into_iter()
            .flatten()
        {
            next[ids::global_index(ids::node_global(cid) - first)] = b;
        }
        cur = next;
    }
    cur
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

    /// Checkpoints written before unit arc weights stopped being stored
    /// must still match: both fingerprints mix a 1 per unit arc. The
    /// constants are what the commit before that change printed.
    #[test]
    fn graph_fingerprints_do_not_depend_on_the_weight_representation() {
        let unit = pgp_gen::mesh::grid2d(6, 5);
        let weighted = pgp_graph::GraphBuilder::new(5)
            .add_weighted_edge(0, 1, 1)
            .add_weighted_edge(1, 2, 3)
            .add_weighted_edge(2, 3, 2)
            .add_weighted_edge(3, 4, 1)
            .add_weighted_edge(4, 0, 1)
            .node_weights(vec![1, 2, 1, 4, 1])
            .build();
        assert!(!unit.has_arc_weights() && weighted.has_arc_weights());
        // PE 2 of 3 owns node 4 alone: a unit slice of the weighted graph.
        for (g, csr, group) in [
            (&unit, 0x5834_4af9_24e6_ec5a, 0x5155_bc02_31ff_c4d1),
            (&weighted, 0x2253_51ee_1484_898f, 0x98db_ccbd_7ae9_3198),
        ] {
            assert_eq!(g.fingerprint(), csr);
            let per_pe = pgp_dmp::run(3, |comm| {
                let dg = DistGraph::from_global(comm, g);
                let stored = !dg.adjwgt_raw().is_empty();
                (group_graph_fingerprint(comm, &dg), stored)
            });
            assert!(per_pe.iter().all(|&(fp, _)| fp == group));
            let stored: Vec<bool> = per_pe.iter().map(|&(_, stored)| stored).collect();
            assert_eq!(stored, [g.has_arc_weights(), g.has_arc_weights(), false]);
        }
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

    #[test]
    fn stats_are_populated() {
        let (g, _) = pgp_gen::sbm::sbm(600, pgp_gen::sbm::SbmParams::default(), 2);
        let stats = run(&g, 2, &small_cfg(2, GraphClass::Social, 17)).stats;
        assert!(stats.coarsening_s >= 0.0);
        assert!(stats.coarsest_n > 0);
        assert!(stats.levels >= 1);
    }

    fn stored(g: &CsrGraph, cfg: &ParhipConfig, store: &CheckpointStore) -> Partition {
        Partitioner::new(cfg)
            .store(store)
            .partition(g, 2)
            .expect("valid input")
            .partition
    }

    fn resumed(g: &CsrGraph, cfg: &ParhipConfig, store: &CheckpointStore) -> Partition {
        Partitioner::new(cfg)
            .store(store)
            .resume()
            .partition(g, 2)
            .expect("the store holds a snapshot")
            .partition
    }

    #[test]
    fn checkpointed_run_fills_store() {
        let (g, _) = pgp_gen::sbm::sbm(600, pgp_gen::sbm::SbmParams::default(), 31);
        let mut cfg = small_cfg(2, GraphClass::Social, 41);
        cfg.vcycles = 3;
        let store = CheckpointStore::new();
        let stored = stored(&g, &cfg, &store);
        let cp = store.latest().expect("store must hold a snapshot");
        assert_eq!(cp.cycle, cfg.vcycles - 1, "last V-cycle wins");
        assert_eq!(cp.assignment, stored.assignment());
        assert_eq!(cp.assignment.len(), g.n());
        assert!(cp.coarsest.n() > 0);
        assert_eq!(cp.fine_to_coarsest.len(), g.n());
        assert!(!cp.levels.is_empty());
        assert_eq!(cp.config_fingerprint, cfg.fingerprint());
    }

    /// Resume from the cycle-`c` snapshot must replay cycles `c+1..` to a
    /// bit-identical final assignment: the only inter-cycle state is the
    /// block assignment, and every seed derives from the absolute cycle
    /// index (see the module docs). The "crashed after cycle 0" snapshot is
    /// forged from a 1-cycle run of the same config: `vcycles` is only the
    /// loop bound, so cycle 0 computes identical state either way; only the
    /// config fingerprint differs, which the forgery patches.
    #[test]
    fn resume_replays_bit_identically() {
        let (g, _) = pgp_gen::sbm::sbm(600, pgp_gen::sbm::SbmParams::default(), 31);
        let mut cfg = small_cfg(2, GraphClass::Social, 43);
        cfg.vcycles = 3;
        let full_store = CheckpointStore::new();
        let full = stored(&g, &cfg, &full_store);
        // The run a fault would have truncated after its first V-cycle.
        let mut one = cfg.clone();
        one.vcycles = 1;
        let early_store = CheckpointStore::new();
        let _ = stored(&g, &one, &early_store);
        let mut cycle0 = early_store.latest().expect("cycle-0 snapshot");
        assert_eq!(cycle0.cycle, 0);
        cycle0.config_fingerprint = cfg.fingerprint();
        let store = CheckpointStore::new();
        store.save(cycle0);
        // Replays cycles 1 and 2 from the snapshot.
        let resumed = resumed(&g, &cfg, &store);
        assert_eq!(full.assignment(), resumed.assignment());
        // Resume also keeps checkpointing: the store's latest snapshot must
        // now be the final cycle's.
        assert_eq!(store.latest_cycle(), Some(cfg.vcycles - 1));
    }

    #[test]
    #[should_panic(expected = "different configuration")]
    fn resume_rejects_config_mismatch() {
        let (g, _) = pgp_gen::sbm::sbm(400, pgp_gen::sbm::SbmParams::default(), 31);
        let cfg = small_cfg(2, GraphClass::Social, 47);
        let store = CheckpointStore::new();
        let _ = stored(&g, &cfg, &store);
        let mut other = cfg;
        other.seed = 48;
        let _ = resumed(&g, &other, &store);
    }

    #[test]
    #[should_panic(expected = "different graph or PE count")]
    fn resume_rejects_graph_mismatch() {
        let (g, _) = pgp_gen::sbm::sbm(400, pgp_gen::sbm::SbmParams::default(), 31);
        let cfg = small_cfg(2, GraphClass::Social, 53);
        let store = CheckpointStore::new();
        let _ = stored(&g, &cfg, &store);
        let (h, _) = pgp_gen::sbm::sbm(400, pgp_gen::sbm::SbmParams::default(), 32);
        let _ = resumed(&h, &cfg, &store);
    }
}
