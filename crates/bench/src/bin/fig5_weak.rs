//! Reproduces **Figure 5**: weak scaling on the `rggX` and `delX`
//! families. With `p` PEs the instance has `base·p` nodes (the paper uses
//! `2^19·p`; the laptop default is `2^12·p`), k = 16 blocks, and the
//! reported series is *time per edge* for ParHIP fast and the
//! ParMetis-like baseline, plus ParHIP's SCLP arcs scanned on the busiest
//! and the mean PE and its bytes on the wire (means over the reps).
//!
//! Usage: `cargo run -p bench --release --bin fig5_weak -- [base_log=12] [pmax=8] [reps=2] [seed=1]`

use bench::harness::{run_parhip, run_parmetis};
use bench::{arg_usize, fnum, Table};
use parhip::{GraphClass, ParhipConfig, Preset};
use pgp_baselines::ParmetisLikeConfig;
use pgp_graph::CsrGraph;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let base_log = arg_usize(&args, "base_log", 12) as u32;
    let pmax = arg_usize(&args, "pmax", 8);
    let reps = arg_usize(&args, "reps", 2);
    let seed = arg_usize(&args, "seed", 1) as u64;
    let k = 16;

    let mut t = Table::new(&[
        "family",
        "p",
        "n",
        "m",
        "ParHIP t/edge [s]",
        "ParHIP cut",
        "PM t/edge [s]",
        "PM cut",
        "ParHIP SCLP arcs max/mean PE",
        "ParHIP bytes",
    ]);
    let mut p = 1usize;
    while p <= pmax {
        let x = base_log + p.trailing_zeros();
        for family in ["rgg", "del"] {
            let g: CsrGraph = match family {
                "rgg" => pgp_gen::ensure_connected(pgp_gen::rgg::rgg_x(x, seed)),
                _ => pgp_gen::delaunay::delaunay_x(x, seed),
            };
            eprintln!("[{family}{x}] p = {p}, n = {}, m = {}", g.n(), g.m());

            let (mut ph_time, mut ph_cut) = (0.0, 0u64);
            let (mut arcs_max, mut arcs_mean, mut bytes) = (0u64, 0.0, 0u64);
            for r in 0..reps {
                let cfg = ParhipConfig::preset(Preset::Fast, k, GraphClass::Mesh, seed + r as u64);
                let run = run_parhip(&g, p, &cfg);
                ph_time += run.time_s();
                ph_cut += run.partition.edge_cut(&g);
                let (max, mean) = run.sclp_arcs();
                arcs_max += max;
                arcs_mean += mean;
                bytes += run.report.aggregate.bytes;
            }
            let (mut pm_time, mut pm_cut, mut pm_ok) = (0.0, 0u64, true);
            for r in 0..reps {
                let cfg = ParmetisLikeConfig::new(k, seed + r as u64);
                match run_parmetis(&g, p, &cfg) {
                    Ok(run) => {
                        pm_time += run.time_s();
                        pm_cut += run.partition.edge_cut(&g);
                    }
                    Err(_) => pm_ok = false,
                }
            }
            let reps_f = reps as f64;
            let m = g.m() as f64;
            t.row(vec![
                family.into(),
                p.to_string(),
                g.n().to_string(),
                g.m().to_string(),
                fnum(ph_time / reps as f64 / m),
                (ph_cut / reps as u64).to_string(),
                if pm_ok {
                    fnum(pm_time / reps as f64 / m)
                } else {
                    "*".into()
                },
                if pm_ok {
                    (pm_cut / reps as u64).to_string()
                } else {
                    "*".into()
                },
                format!("{:.0}/{:.0}", arcs_max as f64 / reps_f, arcs_mean / reps_f),
                format!("{:.0}", bytes as f64 / reps_f),
            ]);
        }
        p *= 2;
    }
    println!(
        "\n== Figure 5 stand-in: weak scaling, k = {k} ==\n{}",
        t.render()
    );
    t.save_csv("fig5_weak");
}
