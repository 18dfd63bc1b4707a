//! METIS-format I/O: write a generated graph to the standard `.graph`
//! text format (readable by METIS/KaHIP/Chaco-family tools), read it back,
//! partition it, and emit the partition file in the conventional
//! one-block-per-line format.
//!
//! ```text
//! cargo run --release --example io_roundtrip
//! ```

use pgp::parhip::{GraphClass, ParhipConfig, Partitioner};
use pgp::pgp_graph::io::{read_metis_file, read_partition, write_metis_file, write_partition};

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
