//! Every call into the repository's crates is in this file, so that a later
//! change to the program's API re-pins the benchmark in one place. The
//! README lists the public functions used; nothing else is touched, and no
//! span is added inside the program — all timing is taken out here, around
//! the calls.

use crate::trace::{Span, Tracer, DRIVER};
use crate::verify::{Instance, EPS};
use crate::workloads::{Class, Generator, Preset, Workload};
use pgp::parhip::coarsen::{parallel_coarsen_with_scratch, ParHierarchy};
use pgp::parhip::{
    parallel_contract, parallel_project_blocks, parhip_distributed, GraphClass, ParhipConfig,
};
use pgp::pgp_dmp::collectives::{allgatherv, allreduce};
use pgp::pgp_dmp::{run_config, Comm, DistGraph, LabelExchange, RunConfig};
use pgp::pgp_evo::{kaffpae, Budget, EvoConfig, Objective};
use pgp::pgp_gen::{delaunay, sbm, webgraph};
use pgp::pgp_graph::io::{read_metis_file, write_metis_file, write_partition};
use pgp::pgp_graph::{lmax, project_partition, CsrGraph, Node, Partition};
use pgp::pgp_lp::par::{
    parallel_sclp_cluster, parallel_sclp_refine_with_scratch, singleton_labels, SclpScratch,
};
use pgp::pgp_obs::Obs;
use pgp::pgp_seq::{
    coarsen, initial_partition, kaffpa, refine_partition, CoarsenConfig, InitialConfig,
    KaffpaConfig,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Generates the instance, writes it as a METIS file — the only thing the
/// program ever sees of it — and keeps a plain copy for the output check.
pub fn generate(generator: Generator, seed: u64, path: &Path) -> Result<Instance, String> {
    let graph = match generator {
        Generator::Web { log_n } => {
            webgraph::web_graph(
                1usize << log_n,
                webgraph::WebGraphParams {
                    intra_degree: 27.2,
                    inter_degree: 4.8,
                    ..Default::default()
                },
                seed,
            )
            .0
        }
        Generator::Delaunay { log_n } => delaunay::delaunay_x(log_n, seed),
        Generator::Sbm { log_n } => {
            sbm::sbm(
                1usize << log_n,
                sbm::SbmParams {
                    intra_degree: 8.0,
                    inter_degree: 3.0,
                    ..Default::default()
                },
                seed,
            )
            .0
        }
    };
    write_metis_file(&graph, path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(Instance {
        xadj: graph.xadj().to_vec(),
        adjncy: graph.adjncy().to_vec(),
        adjwgt: graph.adjwgt().to_vec(),
        vwgt: graph.node_weights().to_vec(),
    })
}

/// The configuration `pgp-partition k=… preset=… class=… seed=…` builds.
fn config(w: &Workload, seed: u64) -> ParhipConfig {
    let class = match w.class {
        Class::Social => GraphClass::Social,
        Class::Mesh => GraphClass::Mesh,
    };
    let cfg = match w.preset {
        Preset::Fast => ParhipConfig::fast(w.k, class, seed),
        Preset::Eco => ParhipConfig::eco(w.k, class, seed),
    };
    // The output check and the program must mean the same balance constraint.
    assert_eq!(
        cfg.eps, EPS,
        "the presets' eps is no longer the benchmark's"
    );
    cfg
}

/// Runs `f` on `p` PEs the way the CLI does (threads backend, one thread
/// per PE), with the recorder on only when `obs` is given.
fn on_pes<R: Send>(p: usize, obs: Option<Arc<Obs>>, f: impl Fn(&Comm) -> R + Sync) -> Vec<R> {
    let cfg = RunConfig {
        obs,
        threads_per_pe: 1,
        ..Default::default()
    };
    run_config(p, cfg, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("PE failed without fault injection: {e}")))
        .collect()
}

/// A graph as the program holds it after reading the file.
pub struct Graph(CsrGraph);

impl Graph {
    pub fn read(path: &Path) -> Result<Graph, String> {
        read_metis_file(path)
            .map(Graph)
            .map_err(|e| format!("reading {}: {e}", path.display()))
    }

    /// Undirected edges.
    pub fn m(&self) -> usize {
        self.0.m()
    }
}

/// One sample of the input path: the seconds from the graph file to `p`
/// distributed graphs ready to partition — `read_metis_file`, then
/// `DistGraph::from_global` on every PE (the slowest PE counts).
pub fn setup_sample(path: &Path, p: usize) -> Result<f64, String> {
    let t = Instant::now();
    let graph = Graph::read(path)?;
    let read_s = t.elapsed().as_secs_f64();
    let distribute_s = on_pes(p, None, |comm| {
        let t = Instant::now();
        let dg = DistGraph::from_global(comm, &graph.0);
        let s = t.elapsed().as_secs_f64();
        drop(dg);
        s
    });
    Ok(read_s + distribute_s.into_iter().fold(0.0, f64::max))
}

/// Comm counters of one whole run, from the typed aggregate of its report.
#[derive(Clone, Copy, Debug)]
pub struct CommCounters {
    pub messages: u64,
    pub bytes: u64,
    pub collective_calls: u64,
    /// Summed over PEs.
    pub recv_wait_s: f64,
}

pub struct WholeRun {
    pub spans: Vec<Span>,
    pub assignment: Vec<u32>,
    /// `Some` when the run was observed.
    pub comm: Option<CommCounters>,
}

/// What `partition_parallel` does for the CLI, timed step by step:
/// distribute, every V-cycle of `parhip_distributed`, gather. With
/// `observed` the program's recorder is on and its counters are returned.
pub fn whole_run(
    graph: &Graph,
    w: &Workload,
    seed: u64,
    observed: bool,
    epoch: Instant,
    rep: u32,
) -> WholeRun {
    let cfg = config(w, seed);
    let obs = observed.then(|| Obs::new(w.p));
    let mut driver = Tracer::new(epoch, rep, DRIVER, None);
    let name = if observed { "whole.observed" } else { "whole" };
    let per_pe = driver.span(name, None, |driver| {
        let parent = driver.current();
        on_pes(w.p, obs.clone(), |comm| {
            let mut t = Tracer::new(epoch, rep, comm.rank() as i32, parent);
            let assignment = t.span("pe", None, |t| {
                let dg = t.span("dmp.distribute", None, |_| {
                    DistGraph::from_global(comm, &graph.0)
                });
                let (local, _) =
                    t.span("core.parhip", None, |_| parhip_distributed(comm, &dg, &cfg));
                t.span("dmp.gather", None, |_| allgatherv(comm, local))
            });
            (t.into_spans(), assignment)
        })
    });
    let mut spans = driver.into_spans();
    let mut assignment = Vec::new();
    for (pe_spans, a) in per_pe {
        spans.extend(pe_spans);
        assignment = a;
    }
    let comm = obs.map(|obs| {
        let a = obs.report().aggregate;
        CommCounters {
            messages: a.messages,
            bytes: a.bytes,
            collective_calls: a.collective_calls,
            recv_wait_s: a.recv_wait_s,
        }
    });
    WholeRun {
        spans,
        assignment,
        comm,
    }
}

/// Work of one SCLP call, from its return value and the level's shape.
#[derive(Clone, Debug)]
pub struct SclpWork {
    /// Rounds executed (the same on every PE).
    pub rounds: usize,
    /// `SclpStats.moves`, summed over PEs.
    pub moves: u64,
    /// Arcs of owned nodes per PE: what one round scans there.
    pub arcs_per_pe: Vec<u64>,
}

impl SclpWork {
    /// Arcs scanned over all PEs and rounds (computed, not counted).
    pub fn edges_scanned(&self) -> u64 {
        self.arcs_per_pe.iter().sum::<u64>() * self.rounds as u64
    }
}

/// What the replay and the probes of one rep found besides times.
pub struct Replay {
    pub spans: Vec<Span>,
    /// Global node count of every level of V-cycle 0's hierarchy, finest
    /// first.
    pub level_nodes: Vec<u64>,
    pub refine: Vec<SclpWork>,
    pub cluster: Vec<SclpWork>,
    /// Arcs fed to `parallel_contract`, summed over the probed levels.
    pub contract_arcs: u64,
    /// Label updates one flush of every interface node moves, all PEs.
    pub exchange_updates: u64,
    /// A cluster + contract probe did not reproduce the next level's node
    /// count: the probes measured something the program did not run.
    pub probe_mismatch: bool,
}

/// One SCLP call on one PE.
struct PeSclp {
    rounds: usize,
    /// `SclpStats.moves` of this PE.
    moves: u64,
    /// Arcs of this PE's owned nodes.
    arcs: u64,
}

/// What V-cycle 0 leaves behind on one PE.
struct PeCycle {
    spans: Vec<Span>,
    assignment: Vec<u32>,
    hierarchy: ParHierarchy,
    coarsest_global: CsrGraph,
    refine: Vec<PeSclp>,
}

struct PeProbe {
    spans: Vec<Span>,
    cluster: Vec<PeSclp>,
    exchange_updates: u64,
    mismatch: bool,
}

/// Per call (level order), the PEs' numbers put together.
fn merge_sclp(per_pe: &[&[PeSclp]]) -> Vec<SclpWork> {
    (0..per_pe[0].len())
        .map(|i| SclpWork {
            rounds: per_pe[0][i].rounds,
            moves: per_pe.iter().map(|pe| pe[i].moves).sum(),
            arcs_per_pe: per_pe.iter().map(|pe| pe[i].arcs).collect(),
        })
        .collect()
}

/// V-cycle 0 rebuilt from the program's public pieces under a `replay` root
/// span, file to file, followed — outside that root — by probes of single
/// layers on the level graphs the replay produced. The replay mirrors the
/// first cycle of `parhip_distributed` call for call (same seeds, same
/// configuration), so its spans split a time the program spends; the probes
/// repeat the clustering and contraction of every level, which the replay
/// can only see as one `parallel_coarsen_with_scratch` call.
pub fn replay(
    input: &Path,
    out: &Path,
    w: &Workload,
    seed: u64,
    epoch: Instant,
    rep: u32,
) -> Result<Replay, String> {
    let cfg = config(w, seed);
    let mut driver = Tracer::new(epoch, rep, DRIVER, None);
    let mut cycles = driver.span("replay", None, |driver| {
        let graph = driver.span("graph.read", None, |_| Graph::read(input))?;
        let mut cycles = driver.span("run", None, |driver| {
            let parent = driver.current();
            on_pes(w.p, None, |comm| {
                cycle0_on_pe(
                    comm,
                    &graph.0,
                    &cfg,
                    Tracer::new(epoch, rep, comm.rank() as i32, parent),
                )
            })
        });
        let partition = driver.span("graph.evaluate", None, |_| {
            // The CLI reports cut and imbalance and validates before writing.
            let partition = Partition::from_assignment(
                &graph.0,
                cfg.k,
                std::mem::take(&mut cycles[0].assignment),
            );
            std::hint::black_box((
                partition.edge_cut(&graph.0),
                partition.imbalance(&graph.0),
                partition.validate(&graph.0, cfg.eps).is_ok(),
            ));
            partition
        });
        driver.span("graph.write", None, |_| {
            std::fs::File::create(out)
                .map_err(|e| e.to_string())
                .and_then(|f| write_partition(&partition, f).map_err(|e| e.to_string()))
                .map_err(|e| format!("writing {}: {e}", out.display()))
        })?;
        Ok::<_, String>(cycles)
    })?;
    let probes = driver.span("probe", None, |driver| {
        let parent = driver.current();
        on_pes(w.p, None, |comm| {
            let cycle = &cycles[comm.rank()];
            probe_on_pe(
                comm,
                &cfg,
                &cycle.hierarchy,
                &cycle.coarsest_global,
                Tracer::new(epoch, rep, comm.rank() as i32, parent),
            )
        })
    });

    let refine: Vec<&[PeSclp]> = cycles.iter().map(|c| c.refine.as_slice()).collect();
    let refine = merge_sclp(&refine);
    let cluster: Vec<&[PeSclp]> = probes.iter().map(|p| p.cluster.as_slice()).collect();
    let cluster = merge_sclp(&cluster);
    let level_nodes = cycles[0]
        .hierarchy
        .levels
        .iter()
        .map(|l| l.graph.n_global())
        .collect();
    let mut spans = driver.into_spans();
    for cycle in &mut cycles {
        spans.append(&mut cycle.spans);
    }
    for probe in &probes {
        spans.extend_from_slice(&probe.spans);
    }
    Ok(Replay {
        spans,
        level_nodes,
        refine,
        contract_arcs: cluster
            .iter()
            .map(|c| c.arcs_per_pe.iter().sum::<u64>())
            .sum(),
        cluster,
        exchange_updates: probes.iter().map(|p| p.exchange_updates).sum(),
        probe_mismatch: probes.iter().any(|p| p.mismatch),
    })
}

/// The first cycle of `parhip_distributed`, piece by piece.
fn cycle0_on_pe(comm: &Comm, graph: &CsrGraph, cfg: &ParhipConfig, mut t: Tracer) -> PeCycle {
    let mut refine = Vec::new();
    let (assignment, hierarchy, coarsest_global) = t.span("pe", None, |t| {
        let mut scratch = SclpScratch::new();
        let dg = t.span("dmp.distribute", None, |_| {
            DistGraph::from_global(comm, graph)
        });
        let hierarchy = t.span("core.coarsen", None, |_| {
            parallel_coarsen_with_scratch(comm, dg.clone(), cfg, 0, None, &mut scratch)
        });
        let coarsest = hierarchy.coarsest();
        let coarsest_global = t.span("dmp.gather_coarsest", None, |_| {
            coarsest.gather_global(comm)
        });
        // The first cycle's evolutionary configuration, field for field.
        let evo_cfg = EvoConfig {
            k: cfg.k,
            eps: cfg.eps,
            population_size: cfg.population_size,
            budget: Budget::Operations(cfg.evo_operations),
            mutation_rate: 0.1,
            rumor_fanout: if cfg.deterministic { 0 } else { 1 },
            rumor_interval: 2,
            seed: cfg.seed,
            objective: Objective::EdgeCut,
        };
        let coarse_partition = t.span("evo.kaffpae", None, |_| {
            kaffpae(comm, &coarsest_global, &evo_cfg, None)
        });
        let lmax_v = lmax(dg.total_node_weight(), cfg.k, cfg.eps);
        let first = coarsest.first_global();
        let mut level_blocks: Vec<Node> = (0..coarsest.n_local() as u64)
            .map(|l| coarse_partition.block((first + l) as Node))
            .collect();
        let mut refine_level = |t: &mut Tracer, li: usize, seed: u64, blocks: &mut Vec<Node>| {
            let fine = &hierarchy.levels[li].graph;
            let stats = t.span("lp.refine", Some(li), |_| {
                parallel_sclp_refine_with_scratch(
                    comm,
                    fine,
                    cfg.k,
                    lmax_v,
                    cfg.refine_iterations,
                    seed,
                    blocks,
                    &mut scratch,
                )
            });
            refine.push(PeSclp {
                rounds: stats.rounds,
                moves: stats.moves,
                arcs: fine.local_arc_count(),
            });
            blocks.truncate(fine.n_local());
        };
        for li in (0..hierarchy.depth() - 1).rev() {
            let coarse = &hierarchy.levels[li + 1].graph;
            let mapping = &hierarchy.levels[li].mapping;
            let mut fine_blocks = t.span("core.project", Some(li), |_| {
                parallel_project_blocks(comm, coarse, mapping, &level_blocks)
            });
            refine_level(t, li, cfg.seed.wrapping_add(li as u64), &mut fine_blocks);
            level_blocks = fine_blocks;
        }
        if hierarchy.depth() == 1 {
            // Coarsest == finest: ghost blocks come from the replicated
            // partition, then one refinement on the only level.
            let fine = &hierarchy.levels[0].graph;
            let mut blocks = level_blocks.clone();
            blocks.extend(
                (fine.n_local()..fine.n_local() + fine.n_ghost())
                    .map(|l| coarse_partition.block(fine.local_to_global(l as Node))),
            );
            refine_level(t, 0, cfg.seed, &mut blocks);
            level_blocks = blocks;
        }
        let all = t.span("dmp.gather", None, |_| allgatherv(comm, level_blocks));
        (all, hierarchy, coarsest_global)
    });
    PeCycle {
        spans: t.into_spans(),
        assignment,
        hierarchy,
        coarsest_global,
        refine,
    }
}

/// Single layers on the inputs V-cycle 0 gave them.
fn probe_on_pe(
    comm: &Comm,
    cfg: &ParhipConfig,
    hierarchy: &ParHierarchy,
    coarsest_global: &CsrGraph,
    mut t: Tracer,
) -> PeProbe {
    let mut cluster = Vec::new();
    let mut mismatch = false;
    let mut exchange_updates = 0;
    t.span("pe", None, |t| {
        // Cluster + contract of every level that was contracted, with the
        // bound, rounds and seed `parallel_coarsen` used there in cycle 0.
        for li in 0..hierarchy.depth() - 1 {
            let g = &hierarchy.levels[li].graph;
            let local_max_w = (0..g.n_local() as Node)
                .map(|v| g.node_weight(v))
                .max()
                .unwrap_or(1);
            let max_w = allreduce(comm, local_max_w, |a, b| a.max(b));
            let u = cfg.u_bound(g.total_node_weight(), max_w, 0);
            let mut labels = singleton_labels(g);
            let stats = t.span("lp.cluster", Some(li), |_| {
                parallel_sclp_cluster(
                    comm,
                    g,
                    u,
                    cfg.coarsen_iterations,
                    cfg.seed.wrapping_add(li as u64 * 0x51CE),
                    &mut labels,
                    None,
                )
            });
            cluster.push(PeSclp {
                rounds: stats.rounds,
                moves: stats.moves,
                arcs: g.local_arc_count(),
            });
            let contraction = t.span("core.contract", Some(li), |_| {
                parallel_contract(comm, g, &labels)
            });
            mismatch |= contraction.coarse.n_global() != hierarchy.levels[li + 1].graph.n_global();
        }
        // One synchronous flush of every interface node's label on level 0.
        let g0 = &hierarchy.levels[0].graph;
        let mut labels = singleton_labels(g0);
        let mut exchange = LabelExchange::new(comm, g0);
        t.span("dmp.exchange", Some(0), |_| {
            for v in 0..g0.n_local() as Node {
                exchange.record(g0, v, labels[v as usize]);
            }
            exchange.flush_sync(comm, g0, &mut labels);
        });
        exchange_updates = exchange.updates_recorded();
        // The layers inside KaFFPaE, on the gathered coarsest graph, with
        // the configuration `kaffpae` gives each of its multilevel runs.
        let mut kc = KaffpaConfig::new(cfg.k, cfg.seed);
        kc.eps = cfg.eps;
        t.span("seq.kaffpa", None, |_| {
            std::hint::black_box(kaffpa(coarsest_global, &kc));
        });
        let seq_hierarchy = t.span("seq.coarsen", None, |_| {
            let cc = CoarsenConfig {
                scheme: kc.scheme,
                stop_size: kc.stop_size,
                u_bound: kc.u_bound(coarsest_global),
                min_shrink: 1.05,
                max_levels: 64,
                seed: kc.seed,
            };
            coarsen(coarsest_global, &cc, None)
        });
        let mut partition = t.span("seq.initial", None, |_| {
            let ic = InitialConfig {
                eps: kc.eps,
                attempts: kc.initial_attempts,
                fm_passes: kc.fm_passes,
                seed: kc.seed ^ 0xABCD,
            };
            initial_partition(seq_hierarchy.coarsest(), kc.k, &ic)
        });
        // FM on every level of the sequential hierarchy, coarse to fine;
        // the projection between levels is left outside the span.
        for level in (0..seq_hierarchy.levels()).rev() {
            let fine = &seq_hierarchy.graphs[level];
            if level < seq_hierarchy.mappings.len() {
                partition = project_partition(fine, &seq_hierarchy.mappings[level], &partition);
            }
            t.span("seq.fm", Some(level), |_| {
                refine_partition(fine, &mut partition, kc.eps, kc.seed, kc.fm_passes);
            });
        }
    });
    PeProbe {
        spans: t.into_spans(),
        cluster,
        exchange_updates,
        mismatch,
    }
}
/// `parallel_sclp_cluster` call alone.
pub fn cluster_level0_seconds(graph: &Graph, w: &Workload, seed: u64, threads: usize) -> f64 {
    let cfg = config(w, seed);
    let run_cfg = RunConfig {
        threads_per_pe: threads,
        ..Default::default()
    };
    let seconds = run_config(1, run_cfg, |comm| {
        let g = DistGraph::from_global(comm, &graph.0);
        let max_w = (0..g.n_local() as Node)
            .map(|v| g.node_weight(v))
            .max()
            .unwrap_or(1);
        let u = cfg.u_bound(g.total_node_weight(), max_w, 0);
        let mut labels = singleton_labels(&g);
        let t = Instant::now();
        parallel_sclp_cluster(
            comm,
            &g,
            u,
            cfg.coarsen_iterations,
            cfg.seed,
            &mut labels,
            None,
        );
        t.elapsed().as_secs_f64()
    });
    match seconds.into_iter().next() {
        Some(Ok(s)) => s,
        other => panic!("single-PE run failed without fault injection: {other:?}"),
    }
}
