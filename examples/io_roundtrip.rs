//! METIS-format I/O: write a generated graph to the standard `.graph`
//! text format (readable by METIS/KaHIP/Chaco-family tools), read it back,
//! partition it, and emit the partition file in the conventional
//! one-block-per-line format. Also writes a Delaunay mesh of 2^14 random
//! points, its node IDs in random order (`mesh.graph`), for CLI runs that
//! move the graph to its block numbering between V-cycles. And the social
//! graph's edges twice more: all at weight 1 (`example_unit.graph`), and
//! with two of them at weight 2 (`example_weighted.graph`). Only those two
//! edges' rows store weights, so the CLI's `read …` line shows the same
//! bytes per arc for both files.
//!
//! ```text
//! cargo run --release --example io_roundtrip
//! ```

use pgp::parhip::{GraphClass, ParhipConfig, Partitioner};
use pgp::pgp_graph::io::{read_metis_file, read_partition, write_metis_file, write_partition};
use pgp::pgp_graph::{CsrGraph, GraphBuilder, Node};

fn main() {
    let dir = std::env::temp_dir().join("pgp_example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let graph_path = dir.join("example.graph");
    let part_path = dir.join("example.graph.part.4");

    // Generate and persist.
    let (graph, _) = pgp::pgp_gen::sbm::sbm(5_000, Default::default(), 21);
    write_metis_file(&graph, &graph_path).expect("write graph");
    println!(
        "wrote {} ({} nodes, {} edges, METIS format)",
        graph_path.display(),
        graph.n(),
        graph.m()
    );

    let half = graph.n() as Node / 2;
    for (name, heavy) in [
        ("example_unit.graph", &[][..]),
        ("example_weighted.graph", &[0, half]),
    ] {
        let path = dir.join(name);
        write_metis_file(&reweighted(&graph, heavy), &path).expect("write graph");
        println!(
            "wrote {} (the same edges at weight 1, the first of node {heavy:?} at 2)",
            path.display()
        );
    }

    let mesh_path = dir.join("mesh.graph");
    let mesh = pgp::pgp_gen::delaunay::delaunay_x(14, 5);
    write_metis_file(&mesh, &mesh_path).expect("write mesh");
    println!(
        "wrote {} ({} nodes, {} edges, METIS format)",
        mesh_path.display(),
        mesh.n(),
        mesh.m()
    );

    // Read back and verify the round trip.
    let loaded = read_metis_file(&graph_path).expect("read graph");
    assert_eq!(loaded, graph, "METIS round trip must be lossless");

    // Partition and write the partition file.
    let cfg = ParhipConfig::fast(4, GraphClass::Social, 5);
    let partition = Partitioner::new(&cfg)
        .partition(&loaded, 2)
        .expect("valid input")
        .partition;
    let f = std::fs::File::create(&part_path).expect("create partition file");
    write_partition(&partition, f).expect("write partition");
    // And the partition file reads back losslessly too.
    let reread = read_partition(
        &loaded,
        std::fs::File::open(&part_path).expect("open partition"),
    )
    .expect("read partition");
    assert_eq!(reread.assignment(), partition.assignment());
    println!(
        "wrote {} (cut = {}, imbalance = {:.3})",
        part_path.display(),
        partition.edge_cut(&loaded),
        partition.imbalance(&loaded)
    );
}

/// `graph`'s edges at weight 1, except the first edge of each node in
/// `heavy`, which weighs 2.
fn reweighted(graph: &CsrGraph, heavy: &[Node]) -> CsrGraph {
    let two: Vec<(Node, Node)> = heavy
        .iter()
        .map(|&u| (u, graph.neighbors(u).next().expect("an edge")))
        .collect();
    let mut b = GraphBuilder::new(graph.n());
    for u in graph.nodes() {
        for v in graph.neighbors(u).filter(|&v| u < v) {
            let w = if two.contains(&(u, v)) || two.contains(&(v, u)) {
                2
            } else {
                1
            };
            b.push_edge(u, v, w);
        }
    }
    b.build()
}
