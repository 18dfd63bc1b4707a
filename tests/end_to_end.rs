//! Cross-crate integration tests: the full parallel system on every
//! generator family, across k and p.

use pgp::parhip::{GraphClass, ParhipConfig, Partitioned, Partitioner, Preset};
use pgp::pgp_graph::CsrGraph;

fn cfg(k: usize, class: GraphClass, seed: u64) -> ParhipConfig {
    let mut c = ParhipConfig::fast(k, class, seed);
    c.coarsest_nodes_per_block = 50;
    c.deterministic = true;
    c
}

fn all_generators() -> Vec<(&'static str, CsrGraph, GraphClass)> {
    vec![
        (
            "sbm",
            pgp::pgp_gen::sbm::sbm(900, Default::default(), 3).0,
            GraphClass::Social,
        ),
        (
            "ba",
            pgp::pgp_gen::ba::barabasi_albert(900, 3, 3),
            GraphClass::Social,
        ),
        (
            "rmat",
            pgp::pgp_gen::ensure_connected(pgp::pgp_gen::rmat::rmat_web(10, 8, 3)),
            GraphClass::Social,
        ),
        (
            "ws",
            pgp::pgp_gen::ws::watts_strogatz(800, 6, 0.1, 3),
            GraphClass::Social,
        ),
        ("grid", pgp::pgp_gen::mesh::grid2d(30, 30), GraphClass::Mesh),
        (
            "torus",
            pgp::pgp_gen::mesh::torus2d(25, 25),
            GraphClass::Mesh,
        ),
        (
            "rgg",
            pgp::pgp_gen::ensure_connected(pgp::pgp_gen::rgg::rgg_x(10, 3)),
            GraphClass::Mesh,
        ),
        (
            "delaunay",
            pgp::pgp_gen::delaunay::delaunay_x(10, 3),
            GraphClass::Mesh,
        ),
        (
            "er",
            pgp::pgp_gen::ensure_connected(pgp::pgp_gen::er::gnm(800, 3200, 3)),
            GraphClass::Social,
        ),
    ]
}

#[test]
fn every_generator_partitions_validly() {
    for (name, g, class) in all_generators() {
        for k in [2usize, 8] {
            let Partitioned {
                partition: p,
                stats,
                ..
            } = Partitioner::new(&cfg(k, class, 7))
                .partition(&g, 2)
                .expect("valid input");
            p.validate(&g, 0.03)
                .unwrap_or_else(|e| panic!("{name} k={k}: {e}"));
            assert!(stats.cut > 0 || p.nonempty_blocks() == 1, "{name} k={k}");
            assert_eq!(p.nonempty_blocks(), k, "{name} k={k} lost blocks");
        }
    }
}

#[test]
fn pe_counts_all_give_valid_results() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(1000, Default::default(), 5);
    for p in [1usize, 2, 3, 4, 6] {
        let part = Partitioner::new(&cfg(4, GraphClass::Social, 9))
            .partition(&g, p)
            .expect("valid input")
            .partition;
        part.validate(&g, 0.03)
            .unwrap_or_else(|e| panic!("p = {p}: {e}"));
    }
}

#[test]
fn determinism_per_seed_and_p() {
    let g = pgp::pgp_gen::delaunay::delaunay_x(10, 2);
    let c = cfg(4, GraphClass::Mesh, 31);
    let a = Partitioner::new(&c)
        .partition(&g, 3)
        .expect("valid input")
        .partition;
    let b = Partitioner::new(&c)
        .partition(&g, 3)
        .expect("valid input")
        .partition;
    assert_eq!(a.assignment(), b.assignment());
    // Different seeds give different partitions (with overwhelming
    // probability).
    let mut c2 = c.clone();
    c2.seed = 32;
    let d = Partitioner::new(&c2)
        .partition(&g, 3)
        .expect("valid input")
        .partition;
    assert_ne!(a.assignment(), d.assignment());
}

#[test]
fn quality_beats_hash_partitioning_on_social_graphs() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(2000, Default::default(), 11);
    let part = Partitioner::new(&cfg(8, GraphClass::Social, 1))
        .partition(&g, 4)
        .expect("valid input")
        .partition;
    let hash = pgp::pgp_baselines::hash_partition(&g, 8, 1);
    assert!(
        part.edge_cut(&g) * 2 < hash.edge_cut(&g),
        "parhip {} vs hash {}",
        part.edge_cut(&g),
        hash.edge_cut(&g)
    );
}

#[test]
fn eco_at_least_as_good_as_fast_on_average() {
    // Over a few seeds, eco (more V-cycles + evolutionary budget) must not
    // lose to fast in total cut: on a social graph at p = 2, and on Table
    // II's hugebubbles stand-in (a 128 x 128 grid) at k = 2 and p = 4 with
    // the presets as Table II runs them, where eco's PEs share one initial
    // population and each runs one operation.
    fn total(g: &CsrGraph, p: usize, cfgs: impl Iterator<Item = ParhipConfig>) -> u64 {
        cfgs.map(|c| {
            Partitioner::new(&c)
                .partition(g, p)
                .expect("valid input")
                .partition
                .edge_cut(g)
        })
        .sum()
    }
    let (g, _) = pgp::pgp_gen::sbm::sbm(1200, Default::default(), 13);
    let social = |preset, seed| {
        let mut c = ParhipConfig::preset(preset, 4, GraphClass::Social, seed);
        c.coarsest_nodes_per_block = 50;
        c.deterministic = true;
        c
    };
    let fast_total = total(&g, 2, (0..3).map(|s| social(Preset::Fast, s)));
    let eco_total = total(&g, 2, (0..3).map(|s| social(Preset::Eco, s)));
    assert!(
        eco_total <= fast_total,
        "social, p = 2: eco {eco_total} worse than fast {fast_total}"
    );

    let g = pgp::pgp_gen::mesh::grid2d(128, 128);
    let mesh = |preset| (1..=5).map(move |s| ParhipConfig::preset(preset, 2, GraphClass::Mesh, s));
    let fast_total = total(&g, 4, mesh(Preset::Fast));
    let eco_total = total(&g, 4, mesh(Preset::Eco));
    assert!(
        eco_total <= fast_total,
        "mesh, p = 4: eco {eco_total} worse than fast {fast_total}"
    );
}

#[test]
fn weighted_input_graphs_respect_weighted_balance() {
    // Node weights 1..=4 by id; the balance constraint is on weight.
    let base = pgp::pgp_gen::mesh::grid2d(20, 20);
    let weights: Vec<u64> = base.nodes().map(|v| 1 + (v as u64 % 4)).collect();
    let mut b = pgp::pgp_graph::GraphBuilder::new(base.n());
    for (u, v, w) in base.edges() {
        b.push_edge(u, v, w);
    }
    let g = b.node_weights(weights).build();
    let part = Partitioner::new(&cfg(4, GraphClass::Mesh, 17))
        .partition(&g, 3)
        .expect("valid input")
        .partition;
    part.validate(&g, 0.03).unwrap();
}

#[test]
fn k_larger_than_coarsest_limit_still_works() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(600, Default::default(), 19);
    let mut c = ParhipConfig::fast(32, GraphClass::Social, 3);
    c.coarsest_nodes_per_block = 10; // stop at 320 nodes for k = 32
    c.deterministic = true;
    let part = Partitioner::new(&c)
        .partition(&g, 2)
        .expect("valid input")
        .partition;
    part.validate(&g, 0.05).unwrap();
    assert_eq!(part.nonempty_blocks(), 32);
}
