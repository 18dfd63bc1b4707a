//! Reproduces **Figure 6**: strong scaling — total time vs number of PEs
//! on (top) Delaunay graphs, (middle) random geometric graphs, (bottom)
//! the large web stand-ins, where the ParMetis-like baseline fails due to
//! ineffective coarsening and the *minimal* variant is additionally shown
//! on the largest web graph. Beside each ParHIP time: SCLP arcs scanned
//! on the busiest and the mean PE, and bytes on the wire.
//!
//! Usage: `cargo run -p bench --release --bin fig6_strong -- [panel] [pmax=8] [seed=1] [tier=small]`
//! where `panel` ∈ {del, rgg, web, all} (default all).

use bench::harness::{memory_budget, parse_tier, run_parhip, run_parmetis, Observed};
use bench::{arg, arg_usize, bad_arg, fnum, Table};
use parhip::{GraphClass, ParhipConfig, Preset};
use pgp_baselines::ParmetisLikeConfig;
use pgp_gen::benchmark_set::{instance, Tier};
use pgp_graph::CsrGraph;

fn pe_counts(pmax: usize) -> Vec<usize> {
    let mut v = vec![1];
    while *v.last().expect("starts with one element") * 2 <= pmax {
        v.push(v.last().expect("starts with one element") * 2);
    }
    v
}

fn panel(
    title: &str,
    csv: &str,
    graphs: &[(String, CsrGraph, GraphClass)],
    pmax: usize,
    seed: u64,
    tier: Tier,
    with_minimal_on_last: bool,
) {
    let mut t = Table::new(&[
        "graph",
        "p",
        "ParHIP t[s]",
        "ParHIP cut",
        "PM t[s]",
        "PM cut",
        "ParHIP SCLP arcs max/mean PE",
        "ParHIP bytes",
    ]);
    // The ParHIP cells of one row: time, cut, arcs, bytes.
    let parhip_cells = |run: &Observed, g: &CsrGraph| {
        let (max, mean) = run.sclp_arcs();
        [
            fnum(run.time_s()),
            run.partition.edge_cut(g).to_string(),
            format!("{max}/{mean:.0}"),
            run.report.aggregate.bytes.to_string(),
        ]
    };
    for (idx, (name, g, class)) in graphs.iter().enumerate() {
        for &p in &pe_counts(pmax) {
            let cfg = ParhipConfig::preset(Preset::Fast, 2, *class, seed);
            let [time, cut, arcs, bytes] = parhip_cells(&run_parhip(g, p, &cfg), g);
            let (pm_t, pm_c) = {
                let c = ParmetisLikeConfig::new(2, seed).with_memory_budget(memory_budget(tier));
                match run_parmetis(g, p, &c) {
                    Ok(run) => (fnum(run.time_s()), run.partition.edge_cut(g).to_string()),
                    Err(_) => ("*".into(), "*".into()),
                }
            };
            t.row(vec![
                name.clone(),
                p.to_string(),
                time,
                cut,
                pm_t,
                pm_c,
                arcs,
                bytes,
            ]);
            if with_minimal_on_last && idx == graphs.len() - 1 {
                let mcfg = ParhipConfig::preset(Preset::Minimal, 2, *class, seed);
                let [time, cut, arcs, bytes] = parhip_cells(&run_parhip(g, p, &mcfg), g);
                t.row(vec![
                    format!("{name}-minimal"),
                    p.to_string(),
                    time,
                    cut,
                    "-".into(),
                    "-".into(),
                    arcs,
                    bytes,
                ]);
            }
        }
        eprintln!("[{name}] done");
    }
    println!("\n== {title} ==\n{}", t.render());
    t.save_csv(csv);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args
        .iter()
        .find(|a| !a.contains('='))
        .cloned()
        .unwrap_or_else(|| "all".into());
    let pmax = arg_usize(&args, "pmax", 8);
    let seed = arg_usize(&args, "seed", 1) as u64;
    if !["del", "rgg", "web", "all"].contains(&which.as_str()) {
        bad_arg("panel", &which);
    }
    let tier = parse_tier(arg(&args, "tier"));
    let (x_small, x_large) = match tier {
        Tier::Tiny => (10, 12),
        Tier::Small => (12, 14),
        Tier::Medium => (14, 16),
    };

    if which == "del" || which == "all" {
        let graphs: Vec<(String, CsrGraph, GraphClass)> = [x_small, x_large]
            .iter()
            .map(|&x| {
                (
                    format!("del{x}"),
                    pgp_gen::delaunay::delaunay_x(x, seed),
                    GraphClass::Mesh,
                )
            })
            .collect();
        panel(
            "Figure 6 (top): Delaunay strong scaling",
            "fig6_del",
            &graphs,
            pmax,
            seed,
            tier,
            false,
        );
    }
    if which == "rgg" || which == "all" {
        let graphs: Vec<(String, CsrGraph, GraphClass)> = [x_small, x_large]
            .iter()
            .map(|&x| {
                (
                    format!("rgg{x}"),
                    pgp_gen::ensure_connected(pgp_gen::rgg::rgg_x(x, seed)),
                    GraphClass::Mesh,
                )
            })
            .collect();
        panel(
            "Figure 6 (middle): RGG strong scaling",
            "fig6_rgg",
            &graphs,
            pmax,
            seed,
            tier,
            false,
        );
    }
    if which == "web" || which == "all" {
        let graphs: Vec<(String, CsrGraph, GraphClass)> = ["uk-2002", "arabic-2005", "uk-2007"]
            .iter()
            .map(|&n| {
                (
                    n.to_string(),
                    instance(n, tier, seed).graph,
                    GraphClass::Social,
                )
            })
            .collect();
        panel(
            "Figure 6 (bottom): web-graph strong scaling (+ minimal variant)",
            "fig6_web",
            &graphs,
            pmax,
            seed,
            tier,
            true,
        );
    }
}
