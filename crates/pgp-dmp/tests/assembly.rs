//! The three `DistGraph` constructors end in one row-wise assembly core:
//! given the same rows they must build the same graph, and that graph must
//! pass the distributed validator.

use pgp_check::validate_dist_graph;
use pgp_dmp::dgraph::BlockDist;
use pgp_dmp::{run, DistGraph};
use pgp_gen::{delaunay, rmat, sbm, webgraph};
use pgp_graph::io::{read_metis, read_metis_file_segments, read_metis_segments, write_metis};
use pgp_graph::io::{RowSegment, SegmentedGraph};
use pgp_graph::{CsrGraph, GraphBuilder, Node, Weight};
use std::io::Read;
use std::ops::Range;
use std::sync::Mutex;

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
    degree_order: Vec<Node>,
    arc_ranges: Vec<Range<usize>>,
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
        interface: owned.clone().map(|u| g.interface_pes(u).to_vec()).collect(),
        arc_ranges: owned.map(|u| g.arc_range(u)).collect(),
        adjacent_pes: g.adjacent_pes().to_vec(),
        degree_order: g.degree_order().to_vec(),
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

/// R-MAT's web graph with arc weights 1..=3: skewed enough that every PE
/// of up to four stores its rows in degree order, where the other
/// instances here keep ID order. Rows with a non-unit arc come first.
fn weighted_rmat() -> CsrGraph {
    reweighted(&rmat::rmat_web(9, 8, 3), |u, v| {
        1 + Weight::from((u + v) % 3)
    })
}

/// `graph`'s edges, edge `{u, v}` (`u < v`) weighing `w(u, v)`.
fn reweighted(graph: &CsrGraph, w: impl Fn(Node, Node) -> Weight) -> CsrGraph {
    let mut b = GraphBuilder::new(graph.n());
    for u in graph.nodes() {
        for v in graph.neighbors(u).filter(|&v| u < v) {
            b.push_edge(u, v, w(u, v));
        }
    }
    b.build()
}

#[test]
fn constructors_agree_on_a_weighted_rmat_graph() {
    let graph = weighted_rmat();
    assert!(graph.has_arc_weights());
    for p in 1..=4 {
        constructors_agree(&graph, p);
        run(p, |comm| {
            let g = DistGraph::from_global(comm, &graph);
            assert!(g.weighted_arcs() > 0, "p={p}, PE {}", comm.rank());
            let order = g.degree_order();
            let stored = order.iter().filter(|&&v| g.stores_weights(v));
            let unit = order.iter().filter(|&&v| !g.stores_weights(v));
            let mut at = 0;
            for &v in stored.chain(unit) {
                assert_eq!(g.arc_range(v).start, at, "p={p}, PE {}", comm.rank());
                at = g.arc_range(v).end;
            }
        });
    }
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

/// A reader that hands out at most three bytes per call: the parser's
/// buffer never holds more than the line it is on, so every row straddles
/// a refill and is carried to the front of the buffer at least once.
struct Trickle<'a>(&'a [u8]);

impl Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let k = self.0.len().min(out.len()).min(3);
        out[..k].copy_from_slice(&self.0[..k]);
        self.0 = &self.0[k..];
        Ok(k)
    }
}

/// The first IDs of a `p`-PE block distribution of `n` nodes.
fn block_starts(n: u64, p: usize) -> Vec<u64> {
    let dist = BlockDist::new(n, p);
    (0..p).map(|r| dist.first(r)).collect()
}

/// Every PE of a `p`-PE group builds its view from its own streamed
/// segment of `graph` and from `from_global`: the two views are equal,
/// ghost tables and heap bytes included.
fn streamed_rows_agree(graph: &CsrGraph, streamed: SegmentedGraph, p: usize, what: &str) {
    assert_eq!(streamed.segments.len(), p);
    let n = streamed.n;
    let slots: Vec<Mutex<Option<RowSegment>>> = streamed
        .segments
        .into_iter()
        .map(|s| Mutex::new(Some(s)))
        .collect();
    run(p, |comm| {
        let a = DistGraph::from_global(comm, graph);
        let mut slot = slots[comm.rank()]
            .lock()
            .expect("no PE panicked holding a slot");
        let rows = slot.take().expect("each PE takes its segment once");
        drop(slot);
        let b = DistGraph::from_segment(comm, n, rows);
        validate_dist_graph(comm, &b).unwrap_or_else(|e| panic!("{what}, p={p}: {e:?}"));
        let pe = comm.rank();
        assert_eq!(view(&a), view(&b), "{what}, p={p}, PE {pe}");
        assert_eq!(a.ghost_owners(), b.ghost_owners(), "{what}, p={p}, PE {pe}");
        assert_eq!(a.ghost_map(), b.ghost_map(), "{what}, p={p}, PE {pe}");
        assert_eq!(a.heap_bytes(), b.heap_bytes(), "{what}, p={p}, PE {pe}");
    });
}

/// Comments between rows, unsorted / repeated / self-loop neighbours,
/// `fmt 011` weights, CR/LF line ends and a node without neighbours.
const HAND_WRITTEN: &str = "% made by hand\r\n\r\n6 4 011\r\n\
    % row 1 follows\r\n\
    2 2 1 4 1 2 2 1 5\r\n\
    1 4 2 1 3\r\n\
    % nothing but a comment\r\n\
    7 5 9\r\n\
    1 2 2 1 1\r\n\
    3 5 4 3 9\r\n\
    4\r\n\
    % trailing\r\n";

/// Blank rows, a comment among them, blank lines after the last row.
const BLANK_ROWS: &str = "6 1\n\n3\n% c\n2\n\n\n\n \n\n";

#[test]
fn streamed_segments_build_the_from_global_graph() {
    let web = webgraph::web_graph(
        1 << 9,
        webgraph::WebGraphParams {
            intra_degree: 12.0,
            inter_degree: 4.0,
            ..Default::default()
        },
        7,
    )
    .0;
    assert!(web.has_arc_weights(), "the web instance must be weighted");
    let sbm = sbm::sbm(1 << 9, sbm::SbmParams::default(), 7).0;
    let mesh = delaunay::delaunay_x(9, 7);
    let mut files: Vec<(&str, Vec<u8>)> = vec![
        ("hand-written", HAND_WRITTEN.into()),
        ("blank-rows", BLANK_ROWS.into()),
    ];
    let rmat = weighted_rmat();
    for (what, graph) in [
        ("web", &web),
        ("sbm", &sbm),
        ("delaunay", &mesh),
        ("rmat", &rmat),
    ] {
        let mut text = Vec::new();
        write_metis(graph, &mut text).unwrap();
        files.push((what, text));
    }
    let dir = std::env::temp_dir().join(format!("pgp-assembly-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (what, text) in &files {
        let graph = read_metis(&text[..]).unwrap();
        let path = dir.join(format!("{what}.metis"));
        std::fs::write(&path, text).unwrap();
        for p in [1, 2, 3, 4, 8] {
            let trickled = read_metis_segments(Trickle(text), |n| block_starts(n, p)).unwrap();
            streamed_rows_agree(&graph, trickled, p, what);
            let from_file = read_metis_file_segments(&path, |n| block_starts(n, p)).unwrap();
            streamed_rows_agree(&graph, from_file, p, what);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Whether `order`'s rows are stored back to back in that order.
fn back_to_back(g: &DistGraph, order: impl Iterator<Item = Node>) -> bool {
    let mut at = 0;
    for v in order {
        if g.arc_range(v).start != at {
            return false;
        }
        at = g.arc_range(v).end;
    }
    at as u64 == g.local_arc_count()
}

/// A row whose arcs all weigh 1 stores no weights, whichever constructor
/// built the view: a grid (rows in ID order) and a web stand-in (rows in
/// degree order), each all unit, with a few weight-2 edges, and all
/// weighted, at p = 1, 2, 3. Every row reads back its global row; the rows
/// with a non-unit arc come first, each group in visit order; they cost at
/// most 8 B per arc of theirs over the unit form; and the two uniform
/// weightings keep the one-group layout, back to back in visit order.
#[test]
fn only_rows_with_a_non_unit_arc_store_weights() {
    let grid = pgp_gen::mesh::grid2d(64, 64);
    let params = webgraph::WebGraphParams {
        intra_degree: 12.0,
        inter_degree: 4.0,
        ..Default::default()
    };
    // Seed 6: skewed enough on every PE of up to three to keep degree order.
    let web = webgraph::web_graph(1 << 12, params, 6).0;
    for (what, g, by_degree) in [("grid", &grid, false), ("web", &web, true)] {
        let forms = [
            ("unit", reweighted(g, |_, _| 1)),
            (
                "mixed",
                reweighted(g, |u, v| 1 + Weight::from((u + v).is_multiple_of(401))),
            ),
            ("heavy", reweighted(g, |u, v| 2 + Weight::from((u ^ v) & 1))),
        ];
        for p in 1..=3 {
            // Each form's rows as the reader streams them, one slot per PE.
            let slots: Vec<Vec<Mutex<Option<RowSegment>>>> = forms
                .iter()
                .map(|(_, graph)| {
                    let mut text = Vec::new();
                    write_metis(graph, &mut text).unwrap();
                    let streamed = read_metis_segments(&text[..], |n| block_starts(n, p)).unwrap();
                    let slot = |s| Mutex::new(Some(s));
                    streamed.segments.into_iter().map(slot).collect()
                })
                .collect();
            run(p, |comm| {
                let pe = comm.rank();
                let mut built: Vec<DistGraph> = Vec::new();
                for ((form, graph), slots) in forms.iter().zip(&slots) {
                    let at = format!("{what} {form}, p={p}, PE {pe}");
                    let a = DistGraph::from_global(comm, graph);
                    let mut arcs: Vec<(Node, Node, Weight)> = Vec::new();
                    for u in 0..a.n_local() as Node {
                        let gu = a.local_to_global(u);
                        arcs.extend(a.neighbors(u).map(|(v, w)| (gu, a.local_to_global(v), w)));
                    }
                    let b =
                        DistGraph::from_arcs(comm, a.n_global(), a.owned_weights().to_vec(), arcs);
                    let rows = slots[pe].lock().unwrap().take().unwrap();
                    let c = DistGraph::from_segment(comm, a.n_global(), rows);
                    for (how, dg) in [("from_global", &a), ("from_arcs", &b), ("from_segment", &c)]
                    {
                        validate_dist_graph(comm, dg)
                            .unwrap_or_else(|e| panic!("{how}, {at}: {e:?}"));
                        let mut stored_arcs = 0;
                        for u in 0..dg.n_local() as Node {
                            let gu = dg.local_to_global(u);
                            let row: Vec<(Node, Weight)> = dg
                                .neighbors(u)
                                .map(|(v, w)| (dg.local_to_global(v), w))
                                .collect();
                            let want: Vec<(Node, Weight)> = graph.neighbors_weighted(gu).collect();
                            assert_eq!(row, want, "{how}, {at}, row {gu}");
                            let stores = want.iter().any(|&(_, w)| w != 1);
                            assert_eq!(dg.stores_weights(u), stores, "{how}, {at}, row {gu}");
                            stored_arcs += if stores { want.len() } else { 0 };
                        }
                        assert_eq!(dg.weighted_arcs(), stored_arcs, "{how}, {at}");
                    }
                    assert_eq!(view(&a), view(&b), "from_arcs, {at}");
                    assert_eq!(view(&a), view(&c), "from_segment, {at}");
                    assert_eq!(a.heap_bytes(), c.heap_bytes(), "from_segment, {at}");
                    built.push(a);
                }
                let [unit, mixed, heavy] = &built[..] else {
                    unreachable!("three forms")
                };
                let at = format!("{what}, p={p}, PE {pe}");
                let arcs = unit.local_arc_count() as usize;
                assert_eq!(
                    (unit.weighted_arcs(), heavy.weighted_arcs()),
                    (0, arcs),
                    "{at}"
                );
                assert!(
                    0 < mixed.weighted_arcs() && mixed.weighted_arcs() < arcs,
                    "{at}"
                );
                assert!(
                    mixed.heap_bytes() <= unit.heap_bytes() + 8 * mixed.weighted_arcs(),
                    "{at}: {} > {} + 8 * {}",
                    mixed.heap_bytes(),
                    unit.heap_bytes(),
                    mixed.weighted_arcs()
                );
                let ids = || 0..unit.n_local() as Node;
                let visit: Vec<Node> = if by_degree {
                    unit.degree_order().to_vec()
                } else {
                    ids().collect()
                };
                for g in [unit, heavy] {
                    assert!(back_to_back(g, visit.iter().copied()), "{at}");
                }
                let ranges = |g: &DistGraph| ids().map(|u| g.arc_range(u)).collect::<Vec<_>>();
                assert_eq!(ranges(unit), ranges(heavy), "{at}");
                let stored = visit.iter().copied().filter(|&u| mixed.stores_weights(u));
                let others = visit.iter().copied().filter(|&u| !mixed.stores_weights(u));
                assert!(back_to_back(mixed, stored.chain(others)), "{at}");
            });
        }
    }
}
