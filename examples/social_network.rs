//! Partitioning a social network for distributed graph processing — the
//! paper's motivating scenario (PageRank-style workloads on k machines).
//!
//! Generates a community-structured social-network stand-in, partitions it
//! into k = 16 blocks with ParHIP, and compares against hash partitioning
//! (the cloud-toolkit default the paper calls out): cut, communication
//! volume, balance.
//!
//! ```text
//! cargo run --release --example social_network
//! ```

use pgp::parhip::{GraphClass, ParhipConfig, Partitioned, Partitioner};
use pgp::pgp_baselines::hash_partition;
use pgp::pgp_gen::sbm::{sbm, SbmParams};
use pgp::pgp_graph::metrics::communication_volume;

fn main() {
    let n = 20_000;
    let (graph, _truth) = sbm(
        n,
        SbmParams {
            intra_degree: 10.0,
            inter_degree: 2.5,
            ..Default::default()
        },
        7,
    );
    println!(
        "social network stand-in: n = {}, m = {}, max degree = {}",
        graph.n(),
        graph.m(),
        graph.max_degree()
    );

    let k = 16;
    let cfg = ParhipConfig::fast(k, GraphClass::Social, 1);
    let Partitioned {
        partition: parhip_p,
        stats,
        ..
    } = Partitioner::new(&cfg)
        .partition(&graph, 4)
        .expect("valid input");
    let hash_p = hash_partition(&graph, k, 1);

    let (pv_total, pv_max) = communication_volume(&graph, &parhip_p);
    let (hv_total, hv_max) = communication_volume(&graph, &hash_p);

    println!("\n{:<22}{:>12}{:>12}", "", "ParHIP", "hash");
    println!(
        "{:<22}{:>12}{:>12}",
        "edge cut",
        parhip_p.edge_cut(&graph),
        hash_p.edge_cut(&graph)
    );
    println!(
        "{:<22}{:>12}{:>12}",
        "comm volume (total)", pv_total, hv_total
    );
    println!("{:<22}{:>12}{:>12}", "comm volume (max/PE)", pv_max, hv_max);
    println!(
        "{:<22}{:>12.3}{:>12.3}",
        "imbalance",
        parhip_p.imbalance(&graph),
        hash_p.imbalance(&graph)
    );
    println!(
        "\ncoarsening shrank the graph to {} nodes over {} levels",
        stats.coarsest_n, stats.levels
    );
    let ratio = hash_p.edge_cut(&graph) as f64 / parhip_p.edge_cut(&graph) as f64;
    println!("ParHIP cuts {ratio:.1}x fewer edges than hash partitioning");
    assert!(ratio > 2.0, "community structure should be worth >2x");
}
