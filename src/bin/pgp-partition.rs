//! Command-line graph partitioner, in the spirit of the KaHIP/ParHIP
//! executables: reads a METIS-format graph, writes a partition file.
//!
//! ```text
//! pgp-partition <graph.metis> k=8 [preset=fast|eco|minimal] [p=4]
//!               [eps=0.03] [seed=0] [class=auto|social|mesh]
//!               [backend=threads|sockets] [output=<graph>.part.<k>]
//!               [report=<file.json>] [trace=<file.json>]
//! ```
//!
//! `backend=<b>` (or `--backend <b>`) selects the comm transport
//! (DESIGN.md §15): `threads` (default) runs the PEs as OS threads over
//! in-process mailboxes; `sockets` moves every message through
//! length-prefixed frames on Unix-domain socketpairs. The partition is
//! bit-identical either way (the cross-backend golden tests enforce it);
//! `sockets` exists to exercise the real wire path and is the transport
//! the multi-process runner uses.
//!
//! `report=<file.json>` (or `--report <file.json>`) runs with the
//! observability recorder enabled and writes the schema-versioned JSON
//! `RunReport` — per-PE phase timings, per-tag comm counters, per-level
//! structural metrics (DESIGN.md §10, EXPERIMENTS.md for consuming it).
//!
//! `trace=<file.json>` (or `--trace <file.json>`) additionally records a
//! per-PE event timeline and writes it as Chrome-trace/Perfetto JSON
//! (DESIGN.md §11) — open at <https://ui.perfetto.dev> to see one track
//! per PE with spans, collectives, receive waits, and send→recv flows.
//!
//! `--recover` (or `recover=1`) runs under the automatic-recovery
//! supervisor (DESIGN.md §14): V-cycle boundaries are checkpointed every
//! `checkpoint-every=<n>` cycles (default 1), confirmed PE deaths trigger
//! respawn-and-resume from the latest snapshot, and uncorroborated
//! timeouts are retried up to `max-retries=<n>` times (default 3) with
//! seeded exponential backoff before escalating. The partition is
//! bit-identical to the fault-free run; recovery counters land in the
//! run report's `recovery` block.

use pgp::parhip::{
    CheckpointPolicy, GraphClass, ParhipConfig, PartitionError, Partitioner, Preset, RecoveryLimits,
};
use pgp::pgp_dmp::{BackendKind, RunConfig};
use pgp::pgp_graph::io::{read_metis_file, write_partition};
use pgp::pgp_graph::stats::GraphStats;
use pgp::pgp_obs::ObsOutputs;
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "usage: pgp-partition <graph.metis> k=<blocks> [preset=fast|eco|minimal] \
    [p=<PEs>] [eps=0.03] [seed=0] [class=auto|social|mesh] \
    [backend=threads|sockets] [output=<file>] \
    [report=<file.json>] [trace=<file.json>] [--recover] \
    [max-retries=<n>] [checkpoint-every=<n>]";

/// Every `key=` the CLI understands. Anything else is rejected: a typo
/// (`sed=3`) must not run the default experiment and exit 0.
const KEYS: [&str; 13] = [
    "k",
    "p",
    "seed",
    "eps",
    "preset",
    "class",
    "backend",
    "output",
    "report",
    "trace",
    "recover",
    "max-retries",
    "checkpoint-every",
];

/// Why the run stopped: the exit code (2 — the invocation is wrong, 1 —
/// the run or its I/O failed) and the one-line message for stderr.
struct Failure(u8, String);

fn invalid(msg: String) -> Failure {
    Failure(2, msg)
}

fn failed(msg: String) -> Failure {
    Failure(1, msg)
}

fn arg(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .find_map(|a| a.strip_prefix(&format!("{key}=")).map(|v| v.to_string()))
}

/// The value of `key=<value>` as a `T`, or `default` when the key is
/// absent. A value that is present but does not parse is an error naming
/// the key — never the default: a typo must not run a different experiment.
fn parsed<T: FromStr>(args: &[String], key: &str, default: T) -> Result<T, Failure> {
    match arg(args, key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| invalid(format!("error: invalid {key}={v}"))),
    }
}

fn flag(args: &[String], key: &str) -> bool {
    arg(args, key).is_some_and(|v| v != "0")
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure(code, msg)) => {
            eprintln!("{msg}");
            ExitCode::from(code)
        }
    }
}

fn run(mut args: Vec<String>) -> Result<(), Failure> {
    // Normalize the conventional `--flag <path>` spellings into the
    // `key=value` form before positional-argument detection.
    for key in [
        "report",
        "trace",
        "backend",
        "max-retries",
        "checkpoint-every",
    ] {
        if let Some(i) = args.iter().position(|a| a == &format!("--{key}")) {
            if i + 1 >= args.len() {
                return Err(invalid(format!("error: --{key} requires a value argument")));
            }
            let value = args.remove(i + 1);
            args[i] = format!("{key}={value}");
        }
    }
    // `--recover` is a boolean switch, not a value flag.
    if let Some(i) = args.iter().position(|a| a == "--recover") {
        args[i] = "recover=1".to_string();
    }
    if let Some(unknown) = args.iter().find(|a| match a.split_once('=') {
        Some((key, _)) => !KEYS.contains(&key),
        None => a.starts_with("--"),
    }) {
        return Err(invalid(format!("error: unknown argument {unknown}")));
    }
    let Some(path) = args.iter().find(|a| !a.contains('=')) else {
        return Err(invalid(USAGE.to_string()));
    };
    if arg(&args, "k").is_none() {
        return Err(invalid("error: missing k=<blocks>".to_string()));
    }
    let k: usize = parsed(&args, "k", 0)?;
    let p: usize = parsed(&args, "p", 4)?;
    let seed: u64 = parsed(&args, "seed", 0)?;
    let eps: f64 = parsed(&args, "eps", 0.03)?;
    let backend: BackendKind = parsed(&args, "backend", BackendKind::Threads)?;
    let max_retries: u32 = parsed(&args, "max-retries", RecoveryLimits::default().max_retries)?;
    let checkpoint_every: usize = parsed(&args, "checkpoint-every", 1)?;
    let preset = match arg(&args, "preset").as_deref() {
        Some("eco") => Preset::Eco,
        Some("minimal") => Preset::Minimal,
        Some("fast") | None => Preset::Fast,
        Some(other) => return Err(invalid(format!("error: invalid preset={other}"))),
    };
    let class = match arg(&args, "class").as_deref() {
        Some("social") => Some(GraphClass::Social),
        Some("mesh") => Some(GraphClass::Mesh),
        Some("auto") | None => None,
        Some(other) => return Err(invalid(format!("error: invalid class={other}"))),
    };

    let graph = read_metis_file(path).map_err(|e| failed(format!("error reading {path}: {e}")))?;
    eprintln!(
        "read {path}: n = {}, m = {}, {:.1} bytes per arc in memory",
        graph.n(),
        graph.m(),
        graph.heap_bytes() as f64 / graph.num_arcs().max(1) as f64
    );

    // Class: explicit, or inferred from the degree distribution the way
    // Table I classifies instances.
    let class = class.unwrap_or_else(|| {
        let stats = GraphStats::compute(&graph, 256);
        let c = if stats.looks_like_complex_network() {
            GraphClass::Social
        } else {
            GraphClass::Mesh
        };
        eprintln!(
            "class=auto: degree skew {:.1} -> {:?}",
            stats.degree_skew, c
        );
        c
    });

    let mut cfg = ParhipConfig::preset(preset, k, class, seed);
    cfg.eps = eps;
    cfg.checkpoint = CheckpointPolicy::every(checkpoint_every);
    let outputs = ObsOutputs {
        report: arg(&args, "report"),
        trace: arg(&args, "trace"),
    };
    // No recorder unless an output needs one: the plain run pays nothing.
    let session = outputs.any().then(|| outputs.open(p));
    let mut partitioner = Partitioner::new(&cfg).run(RunConfig {
        backend,
        obs: session.as_ref().map(|s| s.obs.clone()),
        ..Default::default()
    });
    if flag(&args, "recover") {
        partitioner = partitioner.supervised(RecoveryLimits {
            max_retries,
            ..RecoveryLimits::default()
        });
    }
    let t0 = std::time::Instant::now();
    let out = partitioner.partition(&graph, p).map_err(|e| match e {
        PartitionError::Comm(_) => failed(format!("error: {e}")),
        _ => invalid(format!("error: {e}")),
    })?;
    if let Some(recovery) = &out.recovery {
        eprintln!(
            "recovery: {} attempt(s), {} transient retries, {} full recoveries, \
             dead ranks {:?}, {} lost V-cycle(s)",
            recovery.attempts,
            recovery.retries,
            recovery.recoveries,
            recovery.dead_ranks,
            recovery.lost_cycles
        );
    }
    if let Some(session) = session {
        session
            .finish()
            .map_err(|e| failed(format!("error writing {e}")))?;
    }
    let partition = out.partition;
    eprintln!(
        "partitioned in {:.2}s wall: cut = {}, imbalance = {:.4} ({} levels, coarsest n = {})",
        t0.elapsed().as_secs_f64(),
        out.stats.cut,
        partition.imbalance(&graph),
        out.stats.levels,
        out.stats.coarsest_n
    );
    if let Err(e) = partition.validate(&graph, eps) {
        eprintln!("warning: balance constraint not met exactly: {e}");
    }

    let output = arg(&args, "output").unwrap_or_else(|| format!("{path}.part.{k}"));
    let file = std::fs::File::create(&output)
        .map_err(|e| failed(format!("error creating {output}: {e}")))?;
    write_partition(&partition, file)
        .map_err(|e| failed(format!("error writing {output}: {e}")))?;
    let (_, peak_rss_kb) = pgp::pgp_obs::read_rss_kb();
    eprintln!(
        "wrote {output}; peak RSS {:.1} MiB",
        peak_rss_kb as f64 / 1024.0
    );
    Ok(())
}
