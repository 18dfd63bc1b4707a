//! Reproduces the paper's coarsening-effectiveness narrative (§V-B):
//! ParMetis "cannot coarsen complex networks effectively — on uk-2007 the
//! coarsest graph still has more than 60 M vertices, less than a factor of
//! two reduction", while cluster contraction shrinks the same graph by
//! *two orders of magnitude* (and a factor ~300 in edges) in one step.
//!
//! For each instance class the harness performs one coarsening step with
//! each scheme and reports node/edge shrink factors and the coarse average
//! degree. The final coarsest size and depth come, for clustering, from a
//! ParHIP run's first V-cycle (`ParhipStats`) and, for matching, from the
//! baseline's coarsening loop with stall detection.
//!
//! Usage: `cargo run -p bench --release --bin coarsening_effectiveness -- [tier=small] [p=4] [seed=1]`

use bench::harness::parse_tier;
use bench::{arg, arg_usize, fnum, Table};
use parhip::{GraphClass, ParhipConfig, Partitioner};
use pgp_baselines::matching::parallel_hem;
use pgp_dmp::DistGraph;
use pgp_gen::benchmark_set::{instance, GraphClass as BClass};
use pgp_lp::par::{parallel_sclp_cluster, singleton_labels};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tier = parse_tier(arg(&args, "tier"));
    let p = arg_usize(&args, "p", 4);
    let seed = arg_usize(&args, "seed", 1) as u64;

    let mut t = Table::new(&[
        "graph",
        "class",
        "scheme",
        "1-step n-shrink",
        "1-step m-shrink",
        "coarse avg deg",
        "final coarsest n",
        "levels",
    ]);

    for name in [
        "uk-2007", "sk-2005", "eu-2005", "youtube", "channel", "rgg26",
    ] {
        let inst = instance(name, tier, seed);
        let g = &inst.graph;
        let class = match inst.class {
            BClass::Social => GraphClass::Social,
            BClass::Mesh => GraphClass::Mesh,
        };
        eprintln!("[{name}] n = {}, m = {}", g.n(), g.m());

        let mut cfg = ParhipConfig::fast(2, class, seed);
        cfg.coarsest_nodes_per_block = 100;
        for scheme in ["cluster", "matching"] {
            let rows = pgp_dmp::run(p, |comm| {
                let dg = DistGraph::from_global(comm, g);
                // One explicit step for the shrink factors.
                let labels = if scheme == "cluster" {
                    let u = cfg.u_bound(dg.total_node_weight(), 1, 0);
                    let mut l = singleton_labels(&dg);
                    parallel_sclp_cluster(comm, &dg, u, 3, seed, &mut l, None);
                    l
                } else {
                    parallel_hem(comm, &dg, 4, seed)
                };
                let c = parhip::parallel_contract(comm, &dg, &labels);
                let one_n = dg.n_global() as f64 / c.coarse.n_global().max(1) as f64;
                let one_m = dg.m_global() as f64 / c.coarse.m_global().max(1) as f64;
                let deg = if c.coarse.n_global() == 0 {
                    0.0
                } else {
                    2.0 * c.coarse.m_global() as f64 / c.coarse.n_global() as f64
                };
                // Matching: the full loop with stall detection (as the
                // baseline) for the final coarsest size.
                let final_level = (scheme == "matching").then(|| {
                    let mut cur = dg;
                    let mut levels = 1usize;
                    loop {
                        if cur.n_global() <= 200 {
                            break;
                        }
                        let l = parallel_hem(comm, &cur, 4, seed + levels as u64);
                        let c = parhip::parallel_contract(comm, &cur, &l);
                        if (c.coarse.n_global() as f64) > cur.n_global() as f64 / 1.25 {
                            break;
                        }
                        cur = c.coarse;
                        levels += 1;
                    }
                    (cur.n_global(), levels)
                });
                (one_n, one_m, deg, final_level)
            });
            let (one_n, one_m, deg, final_level) = rows
                .into_iter()
                .next()
                .expect("run() always yields p >= 1 results");
            // Clustering: the ParHIP run's first V-cycle coarsens the same
            // graph with the same configuration.
            let (final_n, levels) = final_level.unwrap_or_else(|| {
                let out = Partitioner::new(&cfg)
                    .partition(g, p)
                    .unwrap_or_else(|e| panic!("ParHIP run failed: {e}"));
                (out.stats.coarsest_n, out.stats.levels)
            });
            t.row(vec![
                name.into(),
                format!("{:?}", inst.class),
                scheme.into(),
                fnum(one_n),
                fnum(one_m),
                fnum(deg),
                final_n.to_string(),
                levels.to_string(),
            ]);
        }
    }
    println!(
        "\n== Coarsening effectiveness (paper §V-B narrative) ==\n{}",
        t.render()
    );
    t.save_csv("coarsening_effectiveness");
}
