//! Quickstart: build a graph, partition it on 4 simulated PEs, inspect the
//! result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pgp::parhip::{GraphClass, ParhipConfig, Partitioned, Partitioner};
use pgp::pgp_graph::GraphBuilder;

fn main() {
    // A graph can be built from any edge list; here: two dense communities
    // bridged by a single edge, plus a custom weighted edge.
    let mut b = GraphBuilder::new(8);
    for &(u, v) in &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
        b.push_edge(u, v, 1);
    }
    for &(u, v) in &[(4, 5), (4, 6), (5, 6), (5, 7), (6, 7)] {
        b.push_edge(u, v, 1);
    }
    b.push_edge(3, 4, 1); // the bridge
    let graph = b.build();

    // Partition into k = 2 blocks with 3 % imbalance on 4 PEs, using the
    // paper's "fast" configuration.
    let mut cfg = ParhipConfig::fast(2, GraphClass::Social, /* seed */ 42);
    cfg.coarsest_nodes_per_block = 4; // tiny demo graph: coarsen it anyway
    let Partitioned {
        partition, stats, ..
    } = Partitioner::new(&cfg)
        .partition(&graph, 4)
        .expect("valid input");

    println!("edge cut        : {}", partition.edge_cut(&graph));
    println!("block weights   : {:?}", partition.block_weights());
    println!("imbalance       : {:.3}", partition.imbalance(&graph));
    println!("assignment      : {:?}", partition.assignment());
    println!("hierarchy depth : {}", stats.levels);
    assert_eq!(
        partition.edge_cut(&graph),
        1,
        "the bridge is the optimal cut"
    );
}
