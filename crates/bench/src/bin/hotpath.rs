//! Hot-path benchmark gate (ISSUE 2): measures the layers the hot-path
//! overhaul targets and emits a machine-readable JSON snapshot so every
//! perf PR records before/after numbers.
//!
//! Sections:
//!
//! 1. **comm** — selective-receive throughput on the mailbox under the
//!    traffic the algorithms actually generate: per-peer tag backlogs
//!    received out of order (exchange/collective pattern) plus an
//!    in-order ping stream. Reported as messages/sec.
//!
//!    1b. **obs** — the same ping stream under each recorder mode
//!    (disabled / report / trace / live): the disabled mode must sit
//!    within noise of the plain comm ping (single-branch hooks), and the
//!    others quantify the cost of turning recording on; `live` adds
//!    snapshot publication with a polling telemetry monitor attached
//!    (DESIGN.md §16).
//! 2. **exchange** — `LabelExchange` phase throughput on an R-MAT graph:
//!    every interface node records an update each phase. Reported as
//!    updates/sec.
//! 3. **sclp** — one `parallel_sclp_cluster` and one
//!    `parallel_sclp_refine` run on the same graph; per-round time from
//!    max per-PE CPU seconds.
//!
//!    3b. **sclp thread scaling** — the same cluster run under the
//!    intra-PE worker pool (DESIGN.md §13) at `threads_per_pe` ∈
//!    {1, 2, 4}, timed by per-PE wall clock (worker threads are invisible
//!    to per-thread CPU accounting). On a single-core container the x4
//!    ratio sits at or below 1.0 — the ≥ 1.5× target is a multi-core
//!    number; CI uploads this section from its multi-core runners.
//!
//!    3c. **sclp warm-call overhead** — repeated zero-round
//!    `parallel_sclp_cluster_with_scratch` calls on a warm scratch:
//!    the fixed per-call cost, dominated before the cached
//!    `degree_fingerprint` by re-hashing the whole `xadj` array.
//! 4. **end_to_end** — full `parhip_distributed` on the R-MAT harness
//!    with fixed seeds: wall clock, max per-PE CPU time, edge cut,
//!    imbalance, and the message/element counters.
//!
//! Usage: `cargo run -p bench --release --bin hotpath -- [smoke=1]
//! [out=results/hotpath.json] [scale=13] [p=4] [k=8] [reps=3] [seed=3]`
//!
//! The committed `BENCH_hotpath.json` holds a before/after pair of these
//! snapshots (see EXPERIMENTS.md "Microbenchmarks").

use bench::harness::run_timed;
use bench::{arg, arg_usize};
use parhip::{GraphClass, ParhipConfig};
use pgp_dmp::{run, DistGraph, LabelExchange};
use pgp_graph::Node;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = arg(&args, "smoke").is_some();
    let out = arg(&args, "out").unwrap_or_else(|| "results/hotpath.json".to_string());
    let p = arg_usize(&args, "p", 4);
    let k = arg_usize(&args, "k", 8);
    let scale = arg_usize(&args, "scale", if smoke { 10 } else { 13 }) as u32;
    let reps = arg_usize(&args, "reps", if smoke { 1 } else { 3 });
    let seed = arg_usize(&args, "seed", 3) as u64;

    // Microbench sizes: the backlog depth is the lever that exposes the
    // O(queue) selective-receive scan of a single-deque mailbox — each PE
    // holds `(p-1) * backlog` queued messages spread over a handful of
    // tags (the live-tag count of real traffic: collectives drain
    // promptly, the exchange keeps at most two phases in flight) and
    // receives the tags in reverse order. Finding the highest tag then
    // means scanning past the whole lower-tag backlog on every receive —
    // quadratic for a single deque, O(1) for per-tag buckets.
    let backlog_tags: u64 = 4;
    let backlog: u64 = arg_usize(&args, "backlog", if smoke { 32 } else { 4_096 }) as u64;
    let backlog_per_tag = (backlog / backlog_tags).max(1);
    let ping_rounds: u64 = if smoke { 500 } else { 5_000 };
    let exchange_phases: usize = if smoke { 20 } else { 100 };

    eprintln!("[hotpath] p={p} k={k} scale={scale} reps={reps} seed={seed} smoke={smoke}");

    // ---- 1. comm: out-of-order tag backlog -----------------------------
    // Every PE sends `backlog` messages to each peer, round-robin over
    // `backlog_tags` tags (FIFO within each tag), then receives them per
    // peer in *reverse* tag order — the pattern of an exchange receiving
    // phases out of order while earlier phases are still queued. Best wall
    // time over `reps` runs: thread-scheduling noise on few-core machines
    // only ever slows a run down, so the minimum is the cleanest estimate
    // of the mailbox's own cost.
    let mut backlog_wall = f64::INFINITY;
    let mut backlog_msgs = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        let msgs = run(p, |comm| {
            let mut got = 0u64;
            for dst in 0..comm.size() {
                if dst == comm.rank() {
                    continue;
                }
                for i in 0..backlog_per_tag {
                    for tag in 0..backlog_tags {
                        comm.send(dst, 1_000 + tag, vec![comm.rank() as u64, tag, i]);
                    }
                }
            }
            for src in 0..comm.size() {
                if src == comm.rank() {
                    continue;
                }
                for tag in (0..backlog_tags).rev() {
                    for i in 0..backlog_per_tag {
                        let v: Vec<u64> = comm.recv(src, 1_000 + tag);
                        assert_eq!(v, vec![src as u64, tag, i], "FIFO per (src, tag)");
                        got += 1;
                    }
                }
            }
            got
        });
        backlog_wall = backlog_wall.min(t0.elapsed().as_secs_f64());
        backlog_msgs = msgs.iter().sum();
    }
    let comm_backlog_msgs_per_s = backlog_msgs as f64 / backlog_wall;

    // In-order ping stream between two PEs (latency-bound path); best of
    // `reps` as above.
    let mut ping_wall = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..ping_rounds {
                    comm.send(1, 7, vec![i]);
                    let _: Vec<u64> = comm.recv(1, 9);
                }
            } else {
                for _ in 0..ping_rounds {
                    let v: Vec<u64> = comm.recv(0, 7);
                    comm.send(0, 9, v);
                }
            }
        });
        ping_wall = ping_wall.min(t0.elapsed().as_secs_f64());
    }
    let comm_ping_msgs_per_s = (2 * ping_rounds) as f64 / ping_wall;

    // ---- 1b. obs A/B: the same ping stream under each recorder mode ----
    // The observability discipline promises a single-branch hot path when
    // recording is off; `obs.disabled` vs the plain ping above must sit
    // within noise, and `obs.report`/`obs.trace`/`obs.live` quantify the
    // cost of turning recording on (counters + histograms, then + event
    // rings, then + live snapshot publication under a polling monitor).
    let ping_obs = |obs: Option<std::sync::Arc<pgp_obs::Obs>>| -> f64 {
        let mut wall = f64::INFINITY;
        for _ in 0..reps {
            let rc = pgp_dmp::RunConfig {
                obs: obs.clone(),
                ..Default::default()
            };
            let t0 = Instant::now();
            let results = pgp_dmp::run_config(2, rc, |comm| {
                if comm.rank() == 0 {
                    for i in 0..ping_rounds {
                        comm.send(1, 7, vec![i]);
                        let _: Vec<u64> = comm.recv(1, 9);
                    }
                } else {
                    for _ in 0..ping_rounds {
                        let v: Vec<u64> = comm.recv(0, 7);
                        comm.send(0, 9, v);
                    }
                }
            });
            for r in results {
                r.expect("fault-free ping cannot fail");
            }
            wall = wall.min(t0.elapsed().as_secs_f64());
        }
        (2 * ping_rounds) as f64 / wall
    };
    let obs_ping_disabled = ping_obs(None);
    let obs_ping_report = ping_obs(Some(pgp_obs::Obs::new(2)));
    let obs_ping_trace = ping_obs(Some(pgp_obs::Obs::with_trace(
        2,
        pgp_obs::DEFAULT_TRACE_CAPACITY,
    )));
    // Live telemetry mode: recording on, live publication enabled, and an
    // aggregating monitor polling the snapshot slots concurrently (stream
    // discarded). The delta vs `obs.report` is the live plane's whole
    // cost on the recording path; `obs.disabled` above stays the gate for
    // the telemetry-off single-branch claim.
    let obs_ping_live = {
        let mut wall = f64::INFINITY;
        for _ in 0..reps {
            let obs = pgp_obs::Obs::new(2);
            obs.enable_live();
            let monitor = pgp_obs::LiveMonitor::spawn(
                obs.clone(),
                pgp_obs::LiveMonitorConfig::default(),
                Box::new(std::io::sink()),
            )
            .expect("spawn live monitor");
            let rc = pgp_dmp::RunConfig {
                obs: Some(obs),
                ..Default::default()
            };
            let t0 = Instant::now();
            let results = pgp_dmp::run_config(2, rc, |comm| {
                if comm.rank() == 0 {
                    for i in 0..ping_rounds {
                        comm.send(1, 7, vec![i]);
                        let _: Vec<u64> = comm.recv(1, 9);
                    }
                } else {
                    for _ in 0..ping_rounds {
                        let v: Vec<u64> = comm.recv(0, 7);
                        comm.send(0, 9, v);
                    }
                }
            });
            for r in results {
                r.expect("fault-free ping cannot fail");
            }
            wall = wall.min(t0.elapsed().as_secs_f64());
            monitor.finish().expect("live monitor stream");
        }
        (2 * ping_rounds) as f64 / wall
    };

    // ---- shared R-MAT instance for exchange / sclp / end-to-end --------
    let g = pgp_gen::rmat::rmat_web(scale, 8, seed);
    eprintln!("[hotpath] rmat n = {}, m = {}", g.n(), g.m());

    // ---- 2. exchange: per-phase ghost-update throughput ----------------
    let t0 = Instant::now();
    let ex_stats = run(p, |comm| {
        let dg = DistGraph::from_global(comm, &g);
        let mut labels: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
            .map(|l| dg.local_to_global(l))
            .collect();
        let mut ex = LabelExchange::new(comm, &dg);
        let iface: Vec<Node> = (0..dg.n_local() as Node)
            .filter(|&l| dg.is_interface(l))
            .collect();
        for phase in 0..exchange_phases {
            for &l in &iface {
                ex.record(&dg, l, phase as Node);
            }
            ex.flush_overlap(comm, &dg, &mut labels);
        }
        ex.finish(comm, &dg, &mut labels);
        ex.updates_recorded()
    });
    let exchange_wall = t0.elapsed().as_secs_f64();
    let exchange_updates: u64 = ex_stats.iter().sum();
    let exchange_updates_per_s = exchange_updates as f64 / exchange_wall;

    // ---- 3. sclp: cluster + refine round times -------------------------
    let sclp_iters = 4usize;
    let (cluster_rounds, cluster_times) = {
        let (stats, times) = run_timed(p, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut labels = pgp_lp::singleton_labels(&dg);
            let u = (dg.total_node_weight() / 16).max(2);
            pgp_lp::parallel_sclp_cluster(comm, &dg, u, sclp_iters, seed, &mut labels, None)
        });
        (stats[0].rounds.max(1), times)
    };
    let cluster_cpu = cluster_times.into_iter().fold(0.0f64, f64::max);
    let sclp_cluster_round_s = cluster_cpu / cluster_rounds as f64;

    let (refine_rounds, refine_times) = {
        let lmax = pgp_graph::lmax(g.total_node_weight(), k, 0.03);
        let (stats, times) = run_timed(p, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut blocks: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                .map(|l| dg.local_to_global(l) % k as Node)
                .collect();
            pgp_lp::parallel_sclp_refine(comm, &dg, k, lmax, sclp_iters, seed, &mut blocks)
        });
        (stats[0].rounds.max(1), times)
    };
    let refine_cpu = refine_times.into_iter().fold(0.0f64, f64::max);
    let sclp_refine_round_s = refine_cpu / refine_rounds as f64;

    // ---- 3b. sclp thread scaling: worker pool at T ∈ {1, 2, 4} ---------
    // Per-PE wall time around the SCLP call itself (graph distribution
    // excluded), max over PEs, best over reps; divided by rounds.
    let cluster_round_at = |threads: usize| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let rc = pgp_dmp::RunConfig {
                threads_per_pe: threads,
                ..Default::default()
            };
            let results = pgp_dmp::run_config(p, rc, |comm| {
                let dg = DistGraph::from_global(comm, &g);
                let mut labels = pgp_lp::singleton_labels(&dg);
                let u = (dg.total_node_weight() / 16).max(2);
                let t0 = Instant::now();
                let stats = pgp_lp::parallel_sclp_cluster(
                    comm,
                    &dg,
                    u,
                    sclp_iters,
                    seed,
                    &mut labels,
                    None,
                );
                (t0.elapsed().as_secs_f64(), stats.rounds.max(1))
            });
            let (wall, rounds) = results
                .into_iter()
                .map(|r| r.expect("fault-free sclp cannot fail"))
                .fold((0.0f64, 1usize), |(w, r), (pw, pr)| (w.max(pw), r.max(pr)));
            best = best.min(wall / rounds as f64);
        }
        best
    };
    let sclp_cluster_round_t1_s = cluster_round_at(1);
    let sclp_cluster_round_t2_s = cluster_round_at(2);
    let sclp_cluster_round_t4_s = cluster_round_at(4);
    let sclp_thread_scaling_x4 = sclp_cluster_round_t1_s / sclp_cluster_round_t4_s;

    // ---- 3c. sclp warm-call overhead: cached degree fingerprint --------
    // Zero-round calls on a warm scratch isolate the per-call fixed cost:
    // `SclpScratch::prepare` (an O(1) fingerprint compare since the cache
    // moved onto `DistGraph`) plus cluster-weight init and exchange setup.
    let warm_calls: u32 = if smoke { 50 } else { 500 };
    let warm_walls = run(p, |comm| {
        let dg = DistGraph::from_global(comm, &g);
        let mut labels = pgp_lp::singleton_labels(&dg);
        let u = (dg.total_node_weight() / 16).max(2);
        let mut scratch = pgp_lp::SclpScratch::new();
        // One real call fills the scratch caches.
        pgp_lp::parallel_sclp_cluster_with_scratch(
            comm,
            &dg,
            u,
            1,
            seed,
            &mut labels,
            None,
            &mut scratch,
        );
        let t0 = Instant::now();
        for _ in 0..warm_calls {
            pgp_lp::parallel_sclp_cluster_with_scratch(
                comm,
                &dg,
                u,
                0,
                seed,
                &mut labels,
                None,
                &mut scratch,
            );
        }
        t0.elapsed().as_secs_f64()
    });
    let warm_wall = warm_walls.into_iter().fold(0.0f64, f64::max);
    let sclp_warm_call_us = warm_wall / warm_calls as f64 * 1e6;

    // ---- 4. end-to-end R-MAT partition ---------------------------------
    let mut cuts: Vec<u64> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    let mut cpu_maxes: Vec<f64> = Vec::new();
    let mut imbalance = 0.0f64;
    let mut msg_count = 0u64;
    let mut elem_count = 0u64;
    for rep in 0..reps {
        let mut cfg = ParhipConfig::fast(k, GraphClass::Social, seed + rep as u64);
        cfg.deterministic = true;
        let t0 = Instant::now();
        // Mirror harness::run_parhip, keeping the universe for counters.
        let (results, times) = run_timed(p, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let (local, _) = parhip::parhip_distributed(comm, &dg, &cfg);
            let all = pgp_dmp::collectives::allgatherv(comm, local);
            (
                all,
                comm.universe().message_count(),
                comm.universe().element_count(),
            )
        });
        walls.push(t0.elapsed().as_secs_f64());
        cpu_maxes.push(times.into_iter().fold(0.0f64, f64::max));
        let (assignment, m, e) = results.into_iter().next().expect("p >= 1 results");
        msg_count = msg_count.max(m);
        elem_count = elem_count.max(e);
        let part = pgp_graph::Partition::from_assignment(&g, k, assignment);
        cuts.push(part.edge_cut(&g));
        imbalance = imbalance.max(part.imbalance(&g));
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let e2e_wall_s = avg(&walls);
    let e2e_cpu_max_s = avg(&cpu_maxes);
    let avg_cut = cuts.iter().map(|&c| c as f64).sum::<f64>() / cuts.len() as f64;

    // ---- JSON ----------------------------------------------------------
    let json = format!(
        "{{\n  \"meta\": {{ \"p\": {p}, \"k\": {k}, \"scale\": {scale}, \"reps\": {reps}, \
         \"seed\": {seed}, \"smoke\": {smoke}, \"n\": {n}, \"m\": {m} }},\n  \
         \"comm\": {{ \"backlog_msgs_per_s\": {bpers:.0}, \"ping_msgs_per_s\": {ping:.0}, \
         \"backlog\": {backlog}, \"backlog_tags\": {backlog_tags}, \
         \"backlog_msgs\": {backlog_msgs} }},\n  \
         \"obs\": {{ \"ping_disabled_msgs_per_s\": {opd:.0}, \
         \"ping_report_msgs_per_s\": {opr:.0}, \"ping_trace_msgs_per_s\": {opt:.0}, \
         \"ping_live_msgs_per_s\": {opl:.0} }},\n  \
         \"exchange\": {{ \"updates_per_s\": {exu:.0}, \"updates\": {exn}, \"phases\": {exp} }},\n  \
         \"sclp\": {{ \"cluster_round_s\": {cr:.6}, \"refine_round_s\": {rr:.6}, \
         \"cluster_round_t1_s\": {ct1:.6}, \"cluster_round_t2_s\": {ct2:.6}, \
         \"cluster_round_t4_s\": {ct4:.6}, \"thread_scaling_x4\": {tsx:.3}, \
         \"warm_call_us\": {wcu:.2} }},\n  \
         \"end_to_end\": {{ \"wall_s\": {wall:.4}, \"cpu_max_s\": {cpum:.4}, \
         \"avg_cut\": {cut:.1}, \"cuts\": {cuts:?}, \"max_imbalance\": {imb:.5}, \
         \"messages\": {msgs}, \"elements\": {elems} }}\n}}\n",
        n = g.n(),
        m = g.m(),
        bpers = comm_backlog_msgs_per_s,
        ping = comm_ping_msgs_per_s,
        opd = obs_ping_disabled,
        opr = obs_ping_report,
        opt = obs_ping_trace,
        opl = obs_ping_live,
        exu = exchange_updates_per_s,
        exn = exchange_updates,
        exp = exchange_phases,
        cr = sclp_cluster_round_s,
        rr = sclp_refine_round_s,
        ct1 = sclp_cluster_round_t1_s,
        ct2 = sclp_cluster_round_t2_s,
        ct4 = sclp_cluster_round_t4_s,
        tsx = sclp_thread_scaling_x4,
        wcu = sclp_warm_call_us,
        wall = e2e_wall_s,
        cpum = e2e_cpu_max_s,
        cut = avg_cut,
        cuts = cuts,
        imb = imbalance,
        msgs = msg_count,
        elems = elem_count,
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&out, &json).expect("write json");
    println!("{json}");
    println!("[saved {out}]");
}
