//! Hot-path microbenchmark (ISSUE 2): measures the layers the hot-path
//! overhaul targets and emits a machine-readable JSON snapshot. Its
//! numbers compare within one run on one host (the recorder-mode A/B
//! below); across snapshots they mostly measure the host.
//!
//! Sections:
//!
//! 1. **comm** — selective-receive throughput on the mailbox under the
//!    traffic the algorithms actually generate: per-peer tag backlogs
//!    received out of order (exchange/collective pattern) plus an
//!    in-order ping stream. Reported as messages/sec.
//!
//!    1b. **obs** — the same ping stream under each recorder mode
//!    (disabled / report / trace): the disabled mode must sit within
//!    noise of the plain comm ping (single-branch hooks), and the others
//!    quantify the cost of turning recording on.
//! 2. **exchange** — `LabelExchange` phase throughput on an R-MAT graph:
//!    every interface node records an update each phase. Reported as
//!    updates/sec.
//!
//! Usage: `cargo run -p bench --release --bin hotpath -- [smoke=1]
//! [out=results/hotpath.json] [scale=13] [p=4] [reps=3] [seed=3]`
//! (see EXPERIMENTS.md "Microbenchmarks").

use bench::{arg, arg_usize};
use pgp_dmp::{run, DistGraph, LabelExchange};
use pgp_graph::Node;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = arg(&args, "smoke").is_some();
    let out = arg(&args, "out").unwrap_or_else(|| "results/hotpath.json".to_string());
    let p = arg_usize(&args, "p", 4);
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

    eprintln!("[hotpath] p={p} scale={scale} reps={reps} seed={seed} smoke={smoke}");

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
    // within noise, and `obs.report`/`obs.trace` quantify the cost of
    // turning recording on (counters + histograms, then + event rings).
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

    // ---- R-MAT instance for the exchange --------------------------------
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

    // ---- JSON ----------------------------------------------------------
    let json = format!(
        "{{\n  \"meta\": {{ \"p\": {p}, \"scale\": {scale}, \"reps\": {reps}, \
         \"seed\": {seed}, \"smoke\": {smoke}, \"n\": {n}, \"m\": {m} }},\n  \
         \"comm\": {{ \"backlog_msgs_per_s\": {bpers:.0}, \"ping_msgs_per_s\": {ping:.0}, \
         \"backlog\": {backlog}, \"backlog_tags\": {backlog_tags}, \
         \"backlog_msgs\": {backlog_msgs} }},\n  \
         \"obs\": {{ \"ping_disabled_msgs_per_s\": {opd:.0}, \
         \"ping_report_msgs_per_s\": {opr:.0}, \"ping_trace_msgs_per_s\": {opt:.0} }},\n  \
         \"exchange\": {{ \"updates_per_s\": {exu:.0}, \"updates\": {exn}, \"phases\": {exp} }}\n}}\n",
        n = g.n(),
        m = g.m(),
        bpers = comm_backlog_msgs_per_s,
        ping = comm_ping_msgs_per_s,
        opd = obs_ping_disabled,
        opr = obs_ping_report,
        opt = obs_ping_trace,
        exu = exchange_updates_per_s,
        exn = exchange_updates,
        exp = exchange_phases,
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&out, &json).expect("write json");
    println!("{json}");
    println!("[saved {out}]");
}
