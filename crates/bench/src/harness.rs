//! Experiment drivers shared by the table/figure binaries.

use crate::{fnum, geomean, summarize_runs, RunSummary, Table};
use parhip::{GraphClass, ParhipConfig, Partitioner, Preset};
use pgp_baselines::{parmetis_like, BaselineError, ParmetisLikeConfig};
use pgp_dmp::{Obs, RunConfig};
use pgp_gen::benchmark_set::{self, Tier};
use pgp_graph::{CsrGraph, Partition};
use pgp_obs::RunReport;

/// One recorded run: the partition and the report of the run that made it.
/// Every experiment reads its times and counts off the report, the same
/// way for ParHIP and the ParMetis-like baseline (see EXPERIMENTS.md).
pub struct Observed {
    /// The assembled global partition.
    pub partition: Partition,
    /// The run's report (`Obs` sized for the run's `p`).
    pub report: RunReport,
}

impl Observed {
    /// The *maximum per-PE thread CPU time* in seconds — each PE's compute
    /// time as if it had a dedicated core, so the max over PEs is the
    /// parallel makespan (critical path).
    pub fn time_s(&self) -> f64 {
        self.report
            .per_pe
            .iter()
            .map(|pe| pe.resources.thread_cpu_s)
            .fold(0.0, f64::max)
    }

    /// SCLP arcs scanned (cluster and refine calls, every level and
    /// V-cycle) on the busiest PE and on the mean PE: the host-independent
    /// work behind [`time_s`](Self::time_s).
    pub fn sclp_arcs(&self) -> (u64, f64) {
        let per_pe: Vec<u64> = self
            .report
            .per_pe
            .iter()
            .map(|pe| pe.work.iter().map(|w| w.edges_scanned).sum())
            .collect();
        let max = per_pe.iter().copied().max().unwrap_or(0);
        let mean = per_pe.iter().sum::<u64>() as f64 / per_pe.len().max(1) as f64;
        (max, mean)
    }
}

/// A [`RunConfig`] recording into a fresh `Obs` for `p` PEs, and the
/// registry to read the report from.
fn recorded(p: usize) -> (std::sync::Arc<Obs>, RunConfig) {
    let obs = Obs::new(p);
    let run = RunConfig {
        obs: Some(obs.clone()),
        ..Default::default()
    };
    (obs, run)
}

/// Runs ParHIP on `p` simulated PEs through the front door, recorded.
///
/// # Panics
/// Panics if the front door rejects `cfg`, the run fails, or its result
/// fails the closing check (a block above `Lmax`) — an experiment's
/// configurations are fixed and valid.
pub fn run_parhip(graph: &CsrGraph, p: usize, cfg: &ParhipConfig) -> Observed {
    let (obs, run) = recorded(p);
    let out = Partitioner::new(cfg)
        .run(run)
        .partition(graph, p)
        .unwrap_or_else(|e| panic!("ParHIP run failed: {e}"));
    if let Some(violation) = out.violation {
        panic!("ParHIP result fails its closing check: {violation}");
    }
    Observed {
        partition: out.partition,
        report: obs.report(),
    }
}

/// Runs the ParMetis-like baseline, recorded the same way. It has no
/// closing check and records no per-level cut, so its time lacks work
/// that ParHIP's holds (EXPERIMENTS.md gives that work's share). `Err`
/// carries the baseline's failure (the paper's `*` entries).
pub fn run_parmetis(
    graph: &CsrGraph,
    p: usize,
    cfg: &ParmetisLikeConfig,
) -> Result<Observed, BaselineError> {
    let (obs, run) = recorded(p);
    let (partition, _) = parmetis_like(graph, p, cfg, run)?;
    Ok(Observed {
        partition,
        report: obs.report(),
    })
}

/// Per-PE memory budget (bytes) for the baseline's replication failure
/// model, scaled per tier so that — like the paper's fixed 512 GB machine —
/// the mesh instances fit comfortably while the large stalled web graphs
/// do not.
pub fn memory_budget(tier: Tier) -> u64 {
    // Calibrated so the paper's outcome pattern holds at each tier: the
    // main benchmark set (including the mid-size web crawls, where real
    // ParMetis coarsens poorly but finishes) fits, while the three large
    // web graphs (arabic-2005, sk-2005, uk-2007) exceed the budget after
    // their coarsening stalls.
    match tier {
        Tier::Tiny => 600_000,
        Tier::Small => 4_500_000,
        Tier::Medium => 18_000_000,
    }
}

/// Parses a tier CLI value; an unknown one ends the process through
/// [`bad_arg`](crate::bad_arg).
pub fn parse_tier(s: Option<String>) -> Tier {
    match s.as_deref() {
        None | Some("small") => Tier::Small,
        Some("tiny") => Tier::Tiny,
        Some("medium") => Tier::Medium,
        Some(other) => crate::bad_arg("tier", other),
    }
}

/// One instance row of Table II / III.
pub struct InstanceResult {
    /// Instance name.
    pub name: String,
    /// Whether it is one of the large web graphs ParMetis fails on.
    pub large_web: bool,
    /// ParMetis-like summary, or the failure marker.
    pub parmetis: Result<RunSummary, BaselineError>,
    /// ParHIP fast summary.
    pub fast: RunSummary,
    /// ParHIP eco summary.
    pub eco: RunSummary,
}

/// Runs the full Table II/III experiment for a given `k`.
pub fn run_quality_table(
    k: usize,
    tier: Tier,
    reps: usize,
    p: usize,
    seed: u64,
    include_large: bool,
) -> Vec<InstanceResult> {
    let mut out = Vec::new();
    let names: Vec<(&str, bool)> = benchmark_set::MAIN_SET
        .iter()
        .map(|&n| (n, false))
        .chain(
            include_large
                .then_some(benchmark_set::LARGE_WEB_SET)
                .into_iter()
                .flatten()
                .map(|n| (n, true)),
        )
        .collect();
    for (name, large_web) in names {
        let inst = benchmark_set::instance(name, tier, seed);
        let class = match inst.class {
            benchmark_set::GraphClass::Social => GraphClass::Social,
            benchmark_set::GraphClass::Mesh => GraphClass::Mesh,
        };
        let g = &inst.graph;
        eprintln!("[{name}] n = {}, m = {} ({:?})", g.n(), g.m(), inst.class);

        // ParMetis-like with the tier's memory model. The first failing
        // seed marks the instance failed.
        let seeds = seed..seed + reps as u64;
        let pm_cfg_base = ParmetisLikeConfig::new(k, seed).with_memory_budget(memory_budget(tier));
        let parmetis = seeds
            .clone()
            .map(|s| {
                let mut c = pm_cfg_base.clone();
                c.seed = s;
                run_parmetis(g, p, &c)
            })
            .collect::<Result<Vec<_>, _>>()
            .map(|runs| summarize_runs(g, runs));
        let parhip = |preset| {
            summarize_runs(
                g,
                seeds.clone().map(|s| {
                    let mut cfg = ParhipConfig::preset(preset, k, class, s);
                    cfg.seed = s;
                    run_parhip(g, p, &cfg)
                }),
            )
        };
        let fast = parhip(Preset::Fast);
        let eco = parhip(Preset::Eco);
        out.push(InstanceResult {
            name: name.to_string(),
            large_web,
            parmetis,
            fast,
            eco,
        });
    }
    out
}

/// Renders the paper-style table plus the aggregate comparison lines from
/// §V-B, and saves a CSV. The `imb` columns are each ParHIP preset's
/// worst imbalance over the reps, to read against the paper's ε = 3 %.
pub fn render_quality_table(results: &[InstanceResult], title: &str, csv_name: &str) {
    let mut t = Table::new(&[
        "graph",
        "PM avg cut",
        "PM best",
        "PM t[s]",
        "Fast avg cut",
        "Fast best",
        "Fast t[s]",
        "Fast imb",
        "Eco avg cut",
        "Eco best",
        "Eco t[s]",
        "Eco imb",
    ]);
    for r in results {
        let (pm_avg, pm_best, pm_t) = match &r.parmetis {
            Ok(s) => (fnum(s.avg_cut), s.best_cut.to_string(), fnum(s.avg_time_s)),
            Err(_) => ("*".into(), "*".into(), "*".into()),
        };
        t.row(vec![
            r.name.clone(),
            pm_avg,
            pm_best,
            pm_t,
            fnum(r.fast.avg_cut),
            r.fast.best_cut.to_string(),
            fnum(r.fast.avg_time_s),
            fnum(r.fast.max_imbalance),
            fnum(r.eco.avg_cut),
            r.eco.best_cut.to_string(),
            fnum(r.eco.avg_time_s),
            fnum(r.eco.max_imbalance),
        ]);
    }
    println!("\n== {title} ==\n{}", t.render());
    t.save_csv(csv_name);

    // Aggregates over instances ParMetis could solve (geometric means of
    // cut ratios, as the paper reports).
    let solved: Vec<&InstanceResult> = results.iter().filter(|r| r.parmetis.is_ok()).collect();
    if !solved.is_empty() {
        let ratio = |f: &dyn Fn(&InstanceResult) -> f64| geomean(solved.iter().map(|r| f(r)));
        let fast_impr = 1.0
            - ratio(&|r| {
                r.fast.avg_cut
                    / r.parmetis
                        .as_ref()
                        .expect("parmetis baseline ran for this row")
                        .avg_cut
            });
        let eco_impr = 1.0
            - ratio(&|r| {
                r.eco.avg_cut
                    / r.parmetis
                        .as_ref()
                        .expect("parmetis baseline ran for this row")
                        .avg_cut
            });
        println!(
            "vs ParMetis-like (geomean over {} solved instances): fast cuts {:.1}% smaller, eco cuts {:.1}% smaller",
            solved.len(),
            fast_impr * 100.0,
            eco_impr * 100.0
        );
        for r in results {
            if r.parmetis.is_err() {
                println!(
                    "  {}: ParMetis-like failed (paper '*'): {}",
                    r.name,
                    match &r.parmetis {
                        Err(e) => e.to_string(),
                        Ok(_) => unreachable!(),
                    }
                );
            }
        }
    }
}
