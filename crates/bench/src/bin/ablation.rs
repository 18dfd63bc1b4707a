//! Ablation studies backing the paper's design-choice claims:
//!
//! * `ordering` — §III-A: degree-increasing node ordering during label
//!   propagation improves quality (and convergence) over random order.
//! * `fsweep` — §V-A: sensitivity to the size-constraint factor `f`.
//! * `iters` — §V-A: "we also tried larger amounts of label propagation
//!   iterations during coarsening, but did not observe a significant
//!   impact on solution quality".
//! * `vcycles` — fast(2) vs eco(5) vs minimal(1): more V-cycles trade
//!   time for quality; minimal is much faster with a moderately worse cut
//!   (uk-2007: +18.2 % cut for a large speedup in the paper).
//!
//! Usage: `cargo run -p bench --release --bin ablation -- <which> [tier=small] [p=4] [reps=3] [seed=1]`
//! with `which` ∈ {ordering, fsweep, iters, vcycles, all}.

use bench::harness::{parse_tier, run_parhip};
use bench::{arg, arg_usize, bad_arg, fnum, summarize_runs, Table};
use parhip::{GraphClass, ParhipConfig};
use pgp_gen::benchmark_set::{instance, Tier};
use pgp_graph::Node;
use pgp_lp::seq::{sclp, Mode, Order, SclpConfig};

fn social_instances(tier: Tier, seed: u64) -> Vec<(String, pgp_graph::CsrGraph)> {
    ["youtube", "eu-2005", "amazon"]
        .iter()
        .map(|&n| (n.to_string(), instance(n, tier, seed).graph))
        .collect()
}

/// §III-A: quality of one coarsening clustering under degree vs random
/// ordering, measured as edge coverage (fraction of edge weight kept
/// inside clusters — higher is better for the cut objective).
fn ordering(tier: Tier, reps: usize, seed: u64) {
    let mut t = Table::new(&[
        "graph",
        "order",
        "coverage",
        "clusters",
        "rounds-to-converge",
    ]);
    for (name, g) in social_instances(tier, seed) {
        for order in [Order::Degree, Order::Random] {
            let mut covs = Vec::new();
            let mut clusters = Vec::new();
            let mut rounds = Vec::new();
            for r in 0..reps {
                let mut labels: Vec<Node> = g.nodes().collect();
                let stats = sclp(
                    &g,
                    &SclpConfig {
                        u_bound: (g.total_node_weight() / 14).max(1),
                        iterations: 20, // to convergence: measures speed too
                        mode: Mode::Cluster,
                        order,
                        seed: seed + r as u64,
                    },
                    &mut labels,
                    None,
                );
                covs.push(pgp_graph::metrics::coverage(&g, &labels));
                let distinct: std::collections::HashSet<_> = labels.iter().collect();
                clusters.push(distinct.len() as f64);
                rounds.push(stats.rounds as f64);
            }
            t.row(vec![
                name.clone(),
                format!("{order:?}"),
                fnum(covs.iter().sum::<f64>() / reps as f64),
                fnum(clusters.iter().sum::<f64>() / reps as f64),
                fnum(rounds.iter().sum::<f64>() / reps as f64),
            ]);
        }
    }
    println!(
        "\n== Ablation: node ordering (paper §III-A) ==\n{}",
        t.render()
    );
    t.save_csv("ablation_ordering");
}

/// §V-A: cut sensitivity to the size-constraint factor `f` on a social
/// and a mesh instance.
fn fsweep(tier: Tier, p: usize, reps: usize, seed: u64) {
    let mut t = Table::new(&["graph", "f", "avg cut", "avg t[s]"]);
    for (name, class) in [("eu-2005", GraphClass::Social), ("rgg26", GraphClass::Mesh)] {
        let inst = instance(name, tier, seed);
        let g = &inst.graph;
        for f in [4.0, 10.0, 14.0, 20.0, 40.0] {
            let s = summarize_runs(
                g,
                (seed..seed + reps as u64).map(|sd| {
                    let mut cfg = ParhipConfig::fast(2, class, sd);
                    cfg.social_first_factor = f;
                    // For the mesh instance sweep the ratio path as well.
                    cfg.mesh_first_cluster_weight =
                        ((pgp_graph::lmax(g.total_node_weight(), 2, 0.03) as f64 / f) as u64)
                            .max(2);
                    run_parhip(g, p, &cfg)
                }),
            );
            t.row(vec![
                name.into(),
                fnum(f),
                fnum(s.avg_cut),
                fnum(s.avg_time_s),
            ]);
        }
    }
    println!(
        "\n== Ablation: size-constraint factor f (paper §V-A) ==\n{}",
        t.render()
    );
    t.save_csv("ablation_fsweep");
}

/// §V-A: number of LP iterations during coarsening.
fn iters(tier: Tier, p: usize, reps: usize, seed: u64) {
    let mut t = Table::new(&["graph", "coarsen iters", "avg cut", "avg t[s]"]);
    for (name, g) in social_instances(tier, seed) {
        for it in [1usize, 2, 3, 5, 8] {
            let s = summarize_runs(
                &g,
                (seed..seed + reps as u64).map(|sd| {
                    let mut cfg = ParhipConfig::fast(2, GraphClass::Social, sd);
                    cfg.coarsen_iterations = it;
                    run_parhip(&g, p, &cfg)
                }),
            );
            t.row(vec![
                name.clone(),
                it.to_string(),
                fnum(s.avg_cut),
                fnum(s.avg_time_s),
            ]);
        }
    }
    println!(
        "\n== Ablation: LP iterations during coarsening (paper §V-A) ==\n{}",
        t.render()
    );
    t.save_csv("ablation_iters");
}

/// minimal(1) / fast(2) / eco(5) V-cycles: the time/quality trade.
fn vcycles(tier: Tier, p: usize, reps: usize, seed: u64) {
    let mut t = Table::new(&["graph", "V-cycles", "avg cut", "avg t[s]", "cut vs fast"]);
    for name in ["uk-2007", "uk-2002"] {
        let inst = instance(name, tier, seed);
        let g = &inst.graph;
        let summaries: Vec<(usize, _)> = [1usize, 2, 5]
            .into_iter()
            .map(|cycles| {
                let s = summarize_runs(
                    g,
                    (seed..seed + reps as u64).map(|sd| {
                        let mut cfg = ParhipConfig::fast(2, GraphClass::Social, sd);
                        cfg.vcycles = cycles;
                        if cycles == 5 {
                            cfg.evo_operations = 4; // eco
                            cfg.population_size = 5;
                        }
                        run_parhip(g, p, &cfg)
                    }),
                );
                (cycles, s)
            })
            .collect();
        let fast_cut = summaries
            .iter()
            .find(|(c, _)| *c == 2)
            .map(|(_, s)| s.avg_cut)
            .unwrap_or(1.0);
        for (cycles, s) in &summaries {
            t.row(vec![
                name.into(),
                cycles.to_string(),
                fnum(s.avg_cut),
                fnum(s.avg_time_s),
                format!("{:+.1}%", (s.avg_cut / fast_cut - 1.0) * 100.0),
            ]);
        }
    }
    println!(
        "\n== Ablation: V-cycles (minimal/fast/eco) ==\n{}",
        t.render()
    );
    t.save_csv("ablation_vcycles");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args
        .iter()
        .find(|a| !a.contains('='))
        .cloned()
        .unwrap_or_else(|| "all".into());
    let tier = parse_tier(arg(&args, "tier"));
    let p = arg_usize(&args, "p", 4);
    let reps = arg_usize(&args, "reps", 3);
    let seed = arg_usize(&args, "seed", 1) as u64;

    match which.as_str() {
        "ordering" => ordering(tier, reps, seed),
        "fsweep" => fsweep(tier, p, reps, seed),
        "iters" => iters(tier, p, reps, seed),
        "vcycles" => vcycles(tier, p, reps, seed),
        "all" => {
            ordering(tier, reps, seed);
            fsweep(tier, p, reps, seed);
            iters(tier, p, reps, seed);
            vcycles(tier, p, reps, seed);
        }
        other => bad_arg("panel", other),
    }
}
