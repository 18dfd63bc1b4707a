//! Runs one workload: the end-to-end reps as fresh processes of the shipped
//! binary, and the traced run in this process.

use crate::child;
use crate::host::{Guard, HostNoise};
use crate::layers::{self, Graph, Replay, SclpWork, WholeRun};
use crate::metrics::{Measured, Samples};
use crate::trace::{self, Span};
use crate::verify::{self, Instance};
use crate::workloads::Workload;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Where things are.
pub struct Env {
    /// Generated inputs and the program's outputs; emptied of both after
    /// each workload.
    pub data: PathBuf,
    pub results: PathBuf,
    /// The shipped `pgp-partition`.
    pub program: PathBuf,
}

pub struct Options {
    /// Drives the instance and the partitioner's seed alike.
    pub seed: u64,
    /// How long each of the two runs may measure.
    pub seconds: f64,
    pub smoke: bool,
    pub end_to_end: bool,
    pub traced: bool,
}

pub struct WorkloadResult {
    pub workload: &'static Workload,
    pub generator: String,
    pub n: usize,
    pub m: usize,
    pub file_bytes: u64,
    /// Outputs judged, and how many were rejected.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Measured>,
    pub per_layer: Vec<Measured>,
    pub noise: HostNoise,
}

/// Measured end-to-end reps a run takes at least, whatever its seconds.
const MIN_REPS: usize = 3;
/// Measured traced reps a run takes at most.
const MAX_TRACED_REPS: u32 = 3;
/// Input-path samples: at least this many, more while they are cheap.
const MIN_SETUP_SAMPLES: usize = 5;
const MAX_SETUP_SAMPLES: usize = 40;
const SETUP_SAMPLING_S: f64 = 1.0;

struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn judge<T>(&mut self, what: &str, verdict: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match verdict {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(format!("{what}: {e}"));
                }
                None
            }
        }
    }
}

pub fn run_workload(
    w: &'static Workload,
    opts: &Options,
    env: &Env,
) -> Result<WorkloadResult, String> {
    let generator = if opts.smoke {
        w.smoke_generator
    } else {
        w.generator
    };
    let input = env.data.join(format!("{}-seed{}.metis", w.name, opts.seed));
    let output = env.data.join(format!("{}-seed{}.part", w.name, opts.seed));
    let instance = layers::generate(generator, opts.seed, &input)?;
    let file_bytes = std::fs::metadata(&input).map_err(|e| e.to_string())?.len();
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };

    let guard = Guard::start();
    let end_to_end = if opts.end_to_end {
        end_to_end(w, opts, env, &instance, &input, &output, &mut tally)?
    } else {
        Vec::new()
    };
    let mut per_layer = Samples::default();
    if opts.traced {
        let spans = traced(
            w,
            opts,
            &instance,
            &input,
            &output,
            file_bytes,
            &mut per_layer,
            &mut tally,
        )?;
        let path = env
            .results
            .join(format!("trace-{}-seed{}.json", w.name, opts.seed));
        std::fs::write(&path, trace::spans_to_json(&spans).to_compact())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let noise = guard.finish();
    if opts.traced {
        per_layer.layer("host.calib_spread", noise.calib_spread);
        per_layer.layer("host.steal_share", noise.steal_share);
    }
    for path in [&input, &output] {
        let _ = std::fs::remove_file(path);
    }
    Ok(WorkloadResult {
        workload: w,
        generator: generator.describe(),
        n: instance.n(),
        m: instance.m(),
        file_bytes,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        end_to_end,
        per_layer: per_layer.into_vec(),
        noise,
    })
}

/// Closed loop, one client: every rep is a fresh process of the shipped
/// binary, graph file in, partition file out; the next starts when the
/// previous one's output has been judged.
fn end_to_end(
    w: &Workload,
    opts: &Options,
    env: &Env,
    instance: &Instance,
    input: &Path,
    output: &Path,
    tally: &mut Tally,
) -> Result<Vec<Measured>, String> {
    let mut samples = Samples::default();

    // The input path, in this process, around the calls the CLI makes.
    let sampling = Instant::now();
    let mut setup = Vec::new();
    while setup.len() < MIN_SETUP_SAMPLES
        || (!opts.smoke
            && setup.len() < MAX_SETUP_SAMPLES
            && sampling.elapsed().as_secs_f64() < SETUP_SAMPLING_S)
    {
        setup.push(layers::setup_sample(input, w.p)?);
    }

    // Each rep partitions under a seed of its own, so that a run's median
    // cut and time are medians over partitioner seeds, not one seed's luck.
    let args = |rep: usize| -> Vec<String> {
        vec![
            input.display().to_string(),
            format!("k={}", w.k),
            format!("p={}", w.p),
            format!("seed={}", rep_seed(opts.seed, rep)),
            format!("preset={}", w.preset.as_str()),
            format!("class={}", w.class.as_str()),
            format!("output={}", output.display()),
        ]
    };
    let timeout = Duration::from_secs_f64(20.0 * w.expected_rep_s);
    let max_reps = if opts.smoke { MIN_REPS } else { w.max_reps };
    let measuring = Instant::now();
    let mut last_rep_s = 0.0;
    // Rep 0 warms the page cache; it is judged like the others but sampled
    // nowhere.
    let mut rep = 0;
    while rep <= MIN_REPS
        || (rep <= max_reps && measuring.elapsed().as_secs_f64() + last_rep_s <= opts.seconds)
    {
        let _ = std::fs::remove_file(output);
        let run = child::run(&env.program, &args(rep), timeout)?;
        last_rep_s = run.wall_s;
        let verdict = if run.timed_out {
            Err(format!("killed after {:.0} s", timeout.as_secs_f64()))
        } else if run.exit_code != Some(0) {
            Err(format!("exit code {:?}", run.exit_code))
        } else {
            verify::check_file(instance, w.k, output).map_err(|e| e.to_string())
        };
        if let Some(quality) = tally.judge(&format!("{} rep {rep}", w.name), verdict) {
            if rep > 0 {
                samples.end_to_end("wall_s", run.wall_s);
                samples.end_to_end("cpu_s", run.cpu_s);
                samples.end_to_end("peak_rss_mib", run.peak_rss_kib as f64 / 1024.0);
                samples.end_to_end("edge_cut", quality.edge_cut as f64);
            }
        }
        rep += 1;
    }
    for s in setup {
        samples.end_to_end("setup_s", s);
    }
    Ok(samples.into_vec())
}

/// The partitioner seed of end-to-end rep `rep` of a run with `--seed seed`.
fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(rep as u64)
}

fn span_named<'a>(spans: &'a [Span], name: &str) -> Result<&'a Span, String> {
    spans
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("the trace has no '{name}' span"))
}

fn total_edges(work: &[SclpWork]) -> u64 {
    work.iter().map(SclpWork::edges_scanned).sum()
}

/// The traced run, in this process: per rep the replay of V-cycle 0 with
/// its probes, a pair of whole runs (recorder on and off) and the level-0
/// clustering at one and two threads. Rep 0 is a warm-up of the replay
/// alone; its spans are kept, its numbers are not.
#[allow(clippy::too_many_arguments)]
fn traced(
    w: &Workload,
    opts: &Options,
    instance: &Instance,
    input: &Path,
    output: &Path,
    file_bytes: u64,
    out: &mut Samples,
    tally: &mut Tally,
) -> Result<Vec<Span>, String> {
    let graph = Graph::read(input)?;
    let m = graph.m() as f64;
    let epoch = Instant::now();
    let mut all_spans = Vec::new();
    let mut last_rep_s = 0.0;
    let max_reps = if opts.smoke { 1 } else { MAX_TRACED_REPS };
    let mut rep = 0u32;
    while rep <= 1
        || (rep <= max_reps && epoch.elapsed().as_secs_f64() + last_rep_s <= opts.seconds)
    {
        let rep_start = Instant::now();
        let _ = std::fs::remove_file(output);
        let replay = layers::replay(input, output, w, opts.seed, epoch, rep)?;
        let verdict = verify::check_file(instance, w.k, output)
            .map_err(|e| e.to_string())
            .and_then(|q| {
                if replay.probe_mismatch {
                    Err("a cluster + contract probe did not reproduce the hierarchy".to_string())
                } else {
                    Ok(q)
                }
            });
        tally.judge(&format!("{} traced rep {rep} replay", w.name), verdict);
        all_spans.extend_from_slice(&replay.spans);
        if rep > 0 {
            // The recorder-on and recorder-off runs, and the one- and
            // two-thread clusterings, swap order from rep to rep.
            let observed_first = rep % 2 == 1;
            let mut whole = |observed: bool| {
                let run = layers::whole_run(&graph, w, opts.seed, observed, epoch, rep);
                let verdict = verify::check_assignment(instance, w.k, &run.assignment);
                tally.judge(
                    &format!("{} traced rep {rep} whole run", w.name),
                    verdict.map_err(|e| e.to_string()),
                );
                all_spans.extend_from_slice(&run.spans);
                run
            };
            let cluster_s = |threads| layers::cluster_level0_seconds(&graph, w, opts.seed, threads);
            let (plain, observed) = if observed_first {
                let observed = whole(true);
                (whole(false), observed)
            } else {
                let plain = whole(false);
                (plain, whole(true))
            };
            let (t1_s, t2_s) = if observed_first {
                let t1_s = cluster_s(1);
                (t1_s, cluster_s(2))
            } else {
                let t2_s = cluster_s(2);
                (cluster_s(1), t2_s)
            };
            layer_metrics(&plain, &observed, &replay, m, file_bytes, out)?;
            out.layer("lp.cluster_t2_speedup", t1_s / t2_s);
        }
        last_rep_s = rep_start.elapsed().as_secs_f64();
        rep += 1;
    }
    Ok(all_spans)
}

/// One rep's per-layer numbers. Times are the slowest PE's.
fn layer_metrics(
    plain: &WholeRun,
    observed: &WholeRun,
    replay: &Replay,
    m: f64,
    file_bytes: u64,
    out: &mut Samples,
) -> Result<(), String> {
    let rep = replay.spans.first().map_or(0, |s| s.rep);
    let in_replay = |name: &str| trace::seconds_max_over_pes(&replay.spans, rep, name);
    let ns_per = |seconds: f64, edges: u64| seconds * 1e9 / (edges.max(1) as f64);

    let read_s = in_replay("graph.read");
    out.layer("graph.read_s", read_s);
    out.layer("graph.read_mb_per_s", file_bytes as f64 / 1e6 / read_s);
    out.layer("graph.evaluate_s", in_replay("graph.evaluate"));
    out.layer("graph.write_s", in_replay("graph.write"));

    out.layer("dmp.distribute_s", in_replay("dmp.distribute"));
    out.layer("dmp.gather_coarsest_s", in_replay("dmp.gather_coarsest"));
    out.layer("dmp.gather_s", in_replay("dmp.gather"));
    let comm = observed
        .comm
        .ok_or("the observed run returned no counters")?;
    out.layer("dmp.messages", comm.messages as f64);
    out.layer("dmp.bytes", comm.bytes as f64);
    out.layer("dmp.collective_calls", comm.collective_calls as f64);
    out.layer("dmp.bytes_per_edge", comm.bytes as f64 / m);
    out.layer("dmp.recv_wait_s", comm.recv_wait_s);
    let exchange_s = in_replay("dmp.exchange");
    out.layer(
        "dmp.exchange_updates_per_s",
        replay.exchange_updates as f64 / exchange_s,
    );

    let cluster_s = in_replay("lp.cluster");
    let cluster_edges = total_edges(&replay.cluster);
    out.layer("lp.cluster_s", cluster_s);
    out.layer("lp.cluster_edges", cluster_edges as f64);
    out.layer("lp.cluster_ns_per_edge", ns_per(cluster_s, cluster_edges));
    out.layer(
        "lp.cluster_moves",
        replay.cluster.iter().map(|c| c.moves).sum::<u64>() as f64,
    );
    out.layer("lp.cluster_pe_skew", pe_skew(&replay.cluster));
    let refine_s = in_replay("lp.refine");
    let refine_edges = total_edges(&replay.refine);
    out.layer("lp.refine_s", refine_s);
    out.layer("lp.refine_edges", refine_edges as f64);
    out.layer("lp.refine_ns_per_edge", ns_per(refine_s, refine_edges));
    out.layer(
        "lp.refine_moves",
        replay.refine.iter().map(|c| c.moves).sum::<u64>() as f64,
    );

    let parhip_s = trace::seconds_max_over_pes(&plain.spans, rep, "core.parhip");
    let parhip_observed_s = trace::seconds_max_over_pes(&observed.spans, rep, "core.parhip");
    out.layer("core.parhip_s", parhip_s);
    out.layer("core.ns_per_edge", parhip_s * 1e9 / m);
    let root = span_named(&replay.spans, "replay")?;
    out.layer("core.replay_s", root.seconds());
    out.layer("core.coarsen_s", in_replay("core.coarsen"));
    let contract_s = in_replay("core.contract");
    out.layer("core.contract_s", contract_s);
    out.layer(
        "core.contract_ns_per_edge",
        ns_per(contract_s, replay.contract_arcs),
    );
    out.layer("core.project_s", in_replay("core.project"));
    let nodes = &replay.level_nodes;
    out.layer("core.levels", nodes.len() as f64);
    out.layer(
        "core.shrink_l0",
        nodes.get(1).map_or(1.0, |&n1| nodes[0] as f64 / n1 as f64),
    );
    out.layer("core.coarsest_n", nodes.last().map_or(0.0, |&n| n as f64));
    out.layer("core.coverage", trace::coverage(&replay.spans, root));

    let kaffpae_s = in_replay("evo.kaffpae");
    out.layer("evo.kaffpae_s", kaffpae_s);
    out.layer("evo.share", kaffpae_s / root.seconds());
    out.layer("seq.kaffpa_s", in_replay("seq.kaffpa"));
    out.layer("seq.coarsen_s", in_replay("seq.coarsen"));
    out.layer("seq.initial_s", in_replay("seq.initial"));
    out.layer("seq.fm_s", in_replay("seq.fm"));
    out.layer("obs.overhead_ratio", parhip_observed_s / parhip_s);
    Ok(())
}

/// The busiest PE's share of scanned arcs over the mean PE's: what evening
/// out the load could at most buy the clustering (computed from level
/// shapes and round counts).
fn pe_skew(cluster: &[SclpWork]) -> f64 {
    let p = cluster.first().map_or(1, |c| c.arcs_per_pe.len());
    let per_pe: Vec<f64> = (0..p)
        .map(|pe| {
            cluster
                .iter()
                .map(|c| (c.arcs_per_pe[pe] * c.rounds as u64) as f64)
                .sum()
        })
        .collect();
    let mean = per_pe.iter().sum::<f64>() / p as f64;
    if mean == 0.0 {
        1.0
    } else {
        per_pe.iter().copied().fold(0.0, f64::max) / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_is_busiest_over_mean() {
        let work = |rounds, arcs: [u64; 2]| SclpWork {
            rounds,
            moves: 0,
            arcs_per_pe: arcs.to_vec(),
        };
        // PE 0 scans 3·100 + 2·10 = 320, PE 1 scans 3·60 + 2·10 = 200.
        let cluster = vec![work(3, [100, 60]), work(2, [10, 10])];
        assert!((pe_skew(&cluster) - 320.0 / 260.0).abs() < 1e-12);
        assert_eq!(total_edges(&cluster), 3 * 160 + 2 * 20);
        assert_eq!(pe_skew(&[]), 1.0);
    }
}
