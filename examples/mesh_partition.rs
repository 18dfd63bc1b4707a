//! Mesh-type workloads (the `rggX` / `delX` families of the paper's
//! scalability study): on meshes, matching-based multilevel partitioning
//! is in its comfort zone — the gap to ParHIP narrows, exactly as Table II
//! reports ("on mesh type networks our algorithm does not have the same
//! advantage as on social networks").
//!
//! ```text
//! cargo run --release --example mesh_partition
//! ```

use pgp::parhip::{GraphClass, ParhipConfig, Partitioner, Preset};
use pgp::pgp_baselines::ParmetisLikeConfig;
use pgp::pgp_dmp::collectives::allgatherv;
use pgp::pgp_dmp::DistGraph;
use pgp::pgp_graph::Partition;

fn main() {
    let k = 8;
    let p = 4;
    for (name, graph) in [
        (
            "rgg15",
            pgp::pgp_gen::ensure_connected(pgp::pgp_gen::rgg::rgg_x(15, 5)),
        ),
        ("del14", pgp::pgp_gen::delaunay::delaunay_x(14, 5)),
    ] {
        println!("\n[{name}] n = {}, m = {}", graph.n(), graph.m());

        // ParHIP eco (quality-oriented) on the mesh class.
        let cfg = ParhipConfig::preset(Preset::Eco, k, GraphClass::Mesh, 11);
        let part = Partitioner::new(&cfg)
            .partition(&graph, p)
            .expect("valid input")
            .partition;
        println!(
            "  ParHIP eco     : cut = {:>6}, imbalance = {:.3}",
            part.edge_cut(&graph),
            part.imbalance(&graph)
        );

        // The ParMetis-like baseline — driven through the SPMD interface to
        // show the lower-level API as well.
        let cfg = ParmetisLikeConfig::new(k, 11);
        let results = pgp::pgp_dmp::run(p, |comm| {
            let dg = DistGraph::from_global(comm, &graph);
            let (local, stats) =
                pgp::pgp_baselines::parmetis_like_distributed(comm, &dg, &cfg).expect("fits");
            (allgatherv(comm, local), stats.levels)
        });
        let (assignment, levels) = results
            .into_iter()
            .next()
            .expect("run() always yields p >= 1 results");
        let part = Partition::from_assignment(&graph, k, assignment);
        println!(
            "  ParMetis-like  : cut = {:>6}, imbalance = {:.3} ({levels} levels)",
            part.edge_cut(&graph),
            part.imbalance(&graph)
        );
    }
}
