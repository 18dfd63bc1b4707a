//! Workspace-level property tests: the full pipeline on arbitrary inputs.

use pgp::parhip::{GraphClass, ParhipConfig, Partitioner};
use pgp::pgp_graph::{CsrGraph, GraphBuilder};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (10usize..80).prop_flat_map(|n| {
        proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 1u64..4), n..4 * n).prop_map(
            move |edges| {
                let mut b = GraphBuilder::new(n);
                for (u, v, w) in edges {
                    b.push_edge(u, v, w);
                }
                // Ensure a few edges exist even after self-loop removal.
                b.push_edge(0, (n - 1) as u32, 1);
                pgp::pgp_gen::ensure_connected(b.build())
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any connected input, k ∈ {2,3,4}, p ∈ {1,2,3}: the output is a
    /// complete, in-range, balanced partition.
    #[test]
    fn full_pipeline_always_valid(g in arb_graph(), k in 2usize..5, p in 1usize..4, seed in 0u64..100) {
        let mut cfg = ParhipConfig::fast(k, GraphClass::Social, seed);
        cfg.coarsest_nodes_per_block = 8;
        cfg.deterministic = true;
        let part = Partitioner::new(&cfg).partition(&g, p).expect("valid input").partition;
        prop_assert_eq!(part.assignment().len(), g.n());
        // Balance at the configured eps; tiny graphs may round awkwardly,
        // so accept the ceiling-based bound with one max-node-weight slack.
        let lmax = pgp::pgp_graph::lmax(g.total_node_weight(), k, 0.03);
        let max_nw = g.node_weights().iter().copied().max().unwrap_or(1);
        prop_assert!(part.max_block_weight() <= lmax + max_nw,
            "weight {} > {} + {}", part.max_block_weight(), lmax, max_nw);
    }

    /// METIS round trip is lossless for arbitrary weighted graphs.
    #[test]
    fn metis_roundtrip_arbitrary(g in arb_graph()) {
        let mut buf = Vec::new();
        pgp::pgp_graph::io::write_metis(&g, &mut buf).unwrap();
        let g2 = pgp::pgp_graph::io::read_metis(&buf[..]).unwrap();
        prop_assert_eq!(g, g2);
    }

    /// Distributed scatter/gather is lossless for any p.
    #[test]
    fn dist_graph_roundtrip(g in arb_graph(), p in 1usize..5) {
        let gathered = pgp::pgp_dmp::run(p, |comm| {
            let dg = pgp::pgp_dmp::DistGraph::from_global(comm, &g);
            dg.gather_global(comm)
        });
        for gg in gathered {
            prop_assert_eq!(&gg, &g);
        }
    }
}
