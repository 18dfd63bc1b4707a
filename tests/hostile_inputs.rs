//! Hostile inputs through both front doors, at p > 1 where the graph may
//! move to its block numbering between V-cycles: random-ID meshes (which
//! move), isolated nodes, zero-weight nodes, a node heavier than `Lmax`,
//! several components and fewer nodes than PEs; k ∈ {1, 2, 3, 8}, p ∈ {2, 3,
//! 4, 8}, fast and eco. Every run returns a complete partition or a typed
//! error, never a panic; its reported cut is the cut recomputed on the
//! input; a second run with the same seed returns the same assignment; and
//! `parhip_distributed`'s per-PE blocks, gathered in rank order, are that
//! assignment in input order.

use pgp::parhip::{parhip_distributed, GraphClass, ParhipConfig, PartitionError, Partitioner};
use pgp::pgp_dmp::collectives::allgatherv;
use pgp::pgp_dmp::{run_config, DistGraph, RunConfig};
use pgp::pgp_graph::{CsrGraph, GraphBuilder, Node, Weight};
use proptest::prelude::*;
use std::time::Duration;

/// The input families, by `shape`.
const SHAPES: [&str; 6] = [
    "random-ID mesh",
    "isolated nodes",
    "zero-weight nodes",
    "one node heavier than Lmax",
    "several components",
    "fewer nodes than PEs",
];

/// A mesh of `n` random points, its IDs in random order.
fn mesh(n: usize, seed: u64) -> CsrGraph {
    pgp::pgp_gen::delaunay::delaunay_random(n.max(3), seed)
}

/// `g`'s edges and node weights, `offset` added to every ID.
fn copy_into(b: &mut GraphBuilder, g: &CsrGraph, offset: usize, weights: &mut Vec<Weight>) {
    let offset = offset as Node;
    for (u, v, w) in g.edges() {
        b.push_edge(u + offset, v + offset, w);
    }
    weights.extend_from_slice(g.node_weights());
}

fn graph(shape: usize, size: usize, p: usize, seed: u64) -> CsrGraph {
    let base = mesh(size, seed);
    let n = base.n();
    match shape {
        0 => base,
        // The mesh followed by as many nodes without arcs.
        1 => {
            let mut b = GraphBuilder::new(2 * n);
            let mut weights = Vec::new();
            copy_into(&mut b, &base, 0, &mut weights);
            weights.resize(2 * n, 1);
            b.node_weights(weights).build()
        }
        // Every third node weighs nothing.
        2 => {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in base.edges() {
                b.push_edge(u, v, w);
            }
            b.node_weights((0..n).map(|v| Weight::from(v % 3 != 0)).collect())
                .build()
        }
        // Node 0 weighs as much as all others together.
        3 => {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in base.edges() {
                b.push_edge(u, v, w);
            }
            let mut weights = vec![1; n];
            weights[0] = (n - 1).max(1) as Weight;
            b.node_weights(weights).build()
        }
        // Three meshes side by side.
        4 => {
            let parts = [base, mesh(size / 2, seed + 1), mesh(size / 3, seed + 2)];
            let total = parts.iter().map(CsrGraph::n).sum();
            let mut b = GraphBuilder::new(total);
            let mut weights = Vec::new();
            let mut offset = 0;
            for g in &parts {
                copy_into(&mut b, g, offset, &mut weights);
                offset += g.n();
            }
            b.node_weights(weights).build()
        }
        // A path of fewer nodes than PEs (possibly none).
        _ => {
            let n = size % p;
            let edges: Vec<(Node, Node)> = (1..n as Node).map(|v| (v - 1, v)).collect();
            pgp::pgp_graph::builder::from_edges(n, &edges)
        }
    }
}

fn config(k: usize, eco: bool, seed: u64) -> ParhipConfig {
    let mut cfg = if eco {
        ParhipConfig::eco(k, GraphClass::Mesh, seed)
    } else {
        ParhipConfig::fast(k, GraphClass::Mesh, seed)
    };
    // Several levels at these sizes.
    cfg.coarsest_nodes_per_block = 10;
    cfg
}

/// A watchdog deadline: a PE that skips a collective the others enter
/// fails with a `Timeout` instead of hanging the suite.
fn watched() -> RunConfig {
    RunConfig {
        deadline: Some(Duration::from_secs(60)),
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hostile_inputs_partition_validly_or_fail_typed(
        shape in 0usize..6,
        size in 0usize..500,
        k_at in 0usize..4,
        p_at in 0usize..4,
        eco in 0u8..2,
        seed in 0u64..1000,
    ) {
        let (k, p) = ([1, 2, 3, 8][k_at], [2, 3, 4, 8][p_at]);
        let g = graph(shape, size, p, seed);
        let cfg = config(k, eco == 1, seed);
        let what = format!("{}, n = {}, k = {k}, p = {p}, eco = {eco}, seed = {seed}", SHAPES[shape], g.n());
        let partitioner = Partitioner::new(&cfg).run(watched());
        let out = match partitioner.partition(&g, p) {
            Ok(out) => out,
            Err(PartitionError::Comm(e)) => panic!("{what}: the run died: {e}"),
            // A typed refusal of the input is an answer too.
            Err(_) => return,
        };
        let assignment = out.partition.assignment();
        prop_assert_eq!(assignment.len(), g.n(), "{}", what);
        prop_assert!(assignment.iter().all(|&b| (b as usize) < k), "{}", what);
        if shape != 3 {
            prop_assert_eq!(out.violation.as_deref(), None, "{}", what);
        }
        prop_assert_eq!(out.stats.cut, out.partition.edge_cut(&g), "{}", what);

        let again = partitioner.partition(&g, p).expect("the same input again");
        prop_assert_eq!(again.partition.assignment(), assignment, "{}: a second run", what);

        let gathered = run_config(p, watched(), |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let (local, _) = parhip_distributed(comm, &dg, &cfg);
            assert_eq!(local.len(), dg.n_local(), "one block per owned node");
            allgatherv(comm, local)
        });
        for pe in gathered {
            let pe = pe.unwrap_or_else(|e| panic!("{what}: the bare call died: {e}"));
            prop_assert_eq!(pe.as_slice(), assignment, "{}: parhip_distributed", what);
        }
    }
}

/// A 3-node mesh plus 3 isolated nodes, k = 2, fast, seed 150 (the case an
/// 800-case run of the property above found at p = 8): the bisection of the
/// coarsest graph may put 4 nodes on a side against Lmax 3, and LP and FM
/// never move a node without arcs, so initial partitioning must shed such
/// nodes out of an overloaded block.
#[test]
fn isolated_nodes_at_large_p_stay_balanced() {
    let g = graph(1, 3, 8, 150);
    assert_eq!(g.n(), 6);
    let cfg = config(2, false, 150);
    for p in [4, 5, 7, 8] {
        let out = Partitioner::new(&cfg)
            .run(watched())
            .partition(&g, p)
            .expect("a valid input");
        assert_eq!(
            out.violation.as_deref(),
            None,
            "p = {p}: {:?}",
            out.partition.assignment()
        );
    }
}
