//! Single-run CLI for the parallel partitioner with the observability
//! layer enabled: partitions one benchmark instance on `p` simulated PEs
//! and (optionally) writes the schema-versioned JSON run report and/or a
//! Chrome-trace/Perfetto event timeline.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin partition -- \
//!     [graph=amazon] [tier=small] [k=4] [p=4] [seed=1] [preset=fast] \
//!     [report=results/run_report.json] \
//!     [trace=results/trace.json]
//! ```
//!
//! `--report <path>` / `--trace <path>` are accepted as aliases for the
//! `key=value` forms. The report format and the trace schema are
//! documented in DESIGN.md §10; re-running the binary regenerates the
//! phase, work and straggler tables (see EXPERIMENTS.md). Open a trace at
//! <https://ui.perfetto.dev> or `chrome://tracing`.

use bench::harness::parse_tier;
use bench::{
    arg, arg_usize, bad_arg, report_phase_table, report_straggler_table, report_work_table,
};
use parhip::{GraphClass, ParhipConfig, PartitionError, Partitioner, Preset};
use pgp_gen::benchmark_set;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Normalize the conventional `--flag <path>` spellings into the
    // harness `key=value` form.
    for flag in ["report", "trace"] {
        if let Some(i) = args.iter().position(|a| a == &format!("--{flag}")) {
            if i + 1 == args.len() {
                bad_arg(flag, "");
            }
            let path = args.remove(i + 1);
            args[i] = format!("{flag}={path}");
        }
    }
    let name = arg(&args, "graph").unwrap_or_else(|| "amazon".to_string());
    let tier = parse_tier(arg(&args, "tier"));
    let k = arg_usize(&args, "k", 4);
    let p = arg_usize(&args, "p", 4);
    let seed = arg_usize(&args, "seed", 1) as u64;
    let preset = match arg(&args, "preset").as_deref() {
        None | Some("fast") => Preset::Fast,
        Some("eco") => Preset::Eco,
        Some("minimal") => Preset::Minimal,
        Some(other) => bad_arg("preset", other),
    };

    let inst = benchmark_set::instance(&name, tier, seed);
    let class = match inst.class {
        benchmark_set::GraphClass::Social => GraphClass::Social,
        benchmark_set::GraphClass::Mesh => GraphClass::Mesh,
    };
    let cfg = ParhipConfig::preset(preset, k, class, seed);
    let graph = &inst.graph;
    println!(
        "partition: {} (n = {}, m = {}), k = {k}, p = {p}, preset = {preset:?}, seed = {seed}",
        inst.name,
        graph.n(),
        graph.m()
    );

    // This binary always records — its tables are read off the report.
    let outputs = pgp_obs::ObsOutputs {
        report: arg(&args, "report"),
        trace: arg(&args, "trace"),
    };
    let session = outputs.open(p);
    let obs = session.obs.clone();
    let partitioner = Partitioner::new(&cfg).run(pgp_dmp::RunConfig {
        obs: Some(obs.clone()),
        ..Default::default()
    });
    let out = partitioner.partition(graph, p).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        // 2 — the front door turned the input away; 1 — the run failed.
        std::process::exit(if matches!(e, PartitionError::Comm(_)) {
            1
        } else {
            2
        })
    });
    session
        .finish()
        .unwrap_or_else(|e| fail(&format!("writing {e}")));
    let report = obs.report();
    println!(
        "cut = {}, imbalance = {:.4}, levels = {}, coarsest_n = {}",
        out.partition.edge_cut(graph),
        out.partition.imbalance(graph),
        out.stats.levels,
        out.stats.coarsest_n
    );
    println!("\n{}", report_phase_table(&report).render());
    println!("{}", report_work_table(&report).render());
    println!("{}", report_straggler_table(&report, &obs.trace()).render());
    println!(
        "comm: {} messages, {} bytes, {} collective calls",
        report.aggregate.messages, report.aggregate.bytes, report.aggregate.collective_calls
    );
}

/// The run or its I/O failed: exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}
