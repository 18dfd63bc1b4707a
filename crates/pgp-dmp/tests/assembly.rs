//! The two `DistGraph` constructors end in one row-wise assembly core:
//! given the same rows they must build the same graph, and that graph must
//! pass the distributed validator.

use pgp_check::validate_dist_graph;
use pgp_dmp::{run, DistGraph};
use pgp_gen::{sbm, webgraph};
use pgp_graph::{CsrGraph, Node, Weight};

/// Everything observable about one PE's view.
#[derive(Debug, PartialEq)]
struct View {
    n_local: usize,
    n_ghost: usize,
    globals: Vec<Node>,
    node_weights: Vec<Weight>,
    rows: Vec<Vec<(Node, Weight)>>,
    interface: Vec<Vec<u32>>,
    adjacent_pes: Vec<u32>,
    degree_fingerprint: u64,
    fingerprint_local: u64,
    totals: (Weight, Weight, u64, u64),
}

fn view(g: &DistGraph) -> View {
    let all = 0..(g.n_local() + g.n_ghost()) as Node;
    let owned = 0..g.n_local() as Node;
    View {
        n_local: g.n_local(),
        n_ghost: g.n_ghost(),
        globals: all.clone().map(|l| g.local_to_global(l)).collect(),
        node_weights: all.map(|l| g.node_weight(l)).collect(),
        rows: owned.clone().map(|u| g.neighbors(u).collect()).collect(),
        interface: owned.map(|u| g.interface_pes(u).to_vec()).collect(),
        adjacent_pes: g.adjacent_pes().to_vec(),
        degree_fingerprint: g.degree_fingerprint(),
        fingerprint_local: g.fingerprint_local(),
        totals: (
            g.total_node_weight(),
            g.total_edge_weight(),
            g.m_global(),
            g.n_global(),
        ),
    }
}

/// `from_global`, and `from_arcs` fed the same rows as triples — in row
/// order and back to front — on every PE of a `p`-PE group.
fn constructors_agree(graph: &CsrGraph, p: usize) {
    run(p, |comm| {
        let a = DistGraph::from_global(comm, graph);
        validate_dist_graph(comm, &a).unwrap_or_else(|e| panic!("from_global, p={p}: {e:?}"));

        let mut arcs: Vec<(Node, Node, Weight)> = Vec::new();
        for u in 0..a.n_local() as Node {
            let gu = a.local_to_global(u);
            arcs.extend(a.neighbors(u).map(|(v, w)| (gu, a.local_to_global(v), w)));
        }
        let reversed: Vec<_> = arcs.iter().rev().copied().collect();
        let weights = a.owned_weights().to_vec();
        let b = DistGraph::from_arcs(comm, a.n_global(), weights.clone(), arcs);
        validate_dist_graph(comm, &b).unwrap_or_else(|e| panic!("from_arcs, p={p}: {e:?}"));
        assert_eq!(view(&a), view(&b), "p={p}, PE {}", comm.rank());
        let c = DistGraph::from_arcs(comm, a.n_global(), weights, reversed);
        assert_eq!(
            view(&a),
            view(&c),
            "p={p}, PE {}, arcs reversed",
            comm.rank()
        );

        // Rows sum to the global graph this PE was cut from.
        assert_eq!(a.total_node_weight(), graph.total_node_weight());
        assert_eq!(a.total_edge_weight(), graph.total_edge_weight());
        assert_eq!(a.m_global(), graph.m() as u64);
    });
}

#[test]
fn constructors_agree_on_an_sbm() {
    let params = sbm::SbmParams {
        intra_degree: 8.0,
        inter_degree: 3.0,
        ..Default::default()
    };
    let (graph, _) = sbm::sbm(1 << 9, params, 7);
    for p in 1..=4 {
        constructors_agree(&graph, p);
    }
}

#[test]
fn constructors_agree_on_a_weighted_web_graph() {
    let params = webgraph::WebGraphParams {
        intra_degree: 12.0,
        inter_degree: 4.0,
        ..Default::default()
    };
    let (graph, _) = webgraph::web_graph(1 << 9, params, 7);
    assert!(
        graph.adjwgt().iter().any(|&w| w != 1),
        "the instance must carry non-unit edge weights"
    );
    for p in 1..=4 {
        constructors_agree(&graph, p);
    }
}

/// A CSR whose rows are not ascending yields the same view as its sorted
/// twin: the numbering depends on the arcs, not on the order given.
#[test]
fn unsorted_rows_are_sorted_per_row() {
    let sorted = CsrGraph::from_parts(
        vec![0, 2, 4, 6, 8],
        vec![1, 3, 0, 2, 1, 3, 0, 2],
        vec![5, 6, 5, 7, 7, 8, 6, 8],
        vec![1, 2, 3, 4],
    );
    let shuffled = CsrGraph::from_parts(
        vec![0, 2, 4, 6, 8],
        vec![3, 1, 2, 0, 3, 1, 2, 0],
        vec![6, 5, 7, 5, 8, 7, 8, 6],
        vec![1, 2, 3, 4],
    );
    sorted.validate().unwrap();
    for p in 1..=3 {
        run(p, |comm| {
            let a = DistGraph::from_global(comm, &sorted);
            let b = DistGraph::from_global(comm, &shuffled);
            assert_eq!(view(&a), view(&b), "p={p}, PE {}", comm.rank());
        });
    }
}
