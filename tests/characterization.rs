//! Characterization of the partitioner's output: a table of
//! `(generator, n, weights, k, p, eps, seed, preset) → 64-bit hash of the
//! assignment`, filled in on the commit before the SCLP kernel was rewritten
//! and reproduced bit for bit by every kernel since; the p > 1 rows were
//! re-pinned once, when cluster-mode SCLP began flushing ghost labels φ
//! times per round (the p = 1 rows did not move), and the Delaunay rows
//! with p > 1 and more than one V-cycle once more, when the graph began
//! moving to its block numbering between cycles (their random node IDs put
//! half the arcs across PEs; every other row declines). The rows are
//! small instances chosen to reach every branch of the two round loops:
//! `eps = 0` with heavy nodes (overloaded blocks at refine entry, forced
//! repair), weighted nodes and edges, zero-weight edges (the first-touch
//! order of neighbour blocks must not be derived from `conn == 0`),
//! k ∈ {2, 8, 100}, p ∈ {1, 2, 3, 4}, and more than one V-cycle (cluster
//! mode under the constraint). Each row runs its preset as the CLI does, so
//! the eco rows at p > 1 build KaFFPaE's shared initial population.
//!
//! A mismatch prints the whole recomputed table, so a deliberate change of
//! the algorithm re-pins it with one paste.

use pgp::parhip::{GraphClass, ParhipConfig, Partitioner, Preset};
use pgp::pgp_dmp::RunConfig;
use pgp::pgp_graph::{CsrGraph, GraphBuilder, Node, Weight};
use std::time::Duration;

#[derive(Clone, Copy, Debug)]
enum Gen {
    Grid,
    Delaunay,
    Sbm,
    Ba,
    Web,
}

/// What the generated (unit-weight) graph is decorated with.
#[derive(Clone, Copy, Debug)]
enum Weights {
    Unit,
    /// Node weights 1..=5.
    Nodes,
    /// Edge weights 0..=3: a quarter of the edges weigh nothing.
    Edges,
    /// Both of the above.
    Both,
    /// Every 29th node weighs 25, the rest 1.
    Heavy,
}

/// `(generator, n, weights, k, p, eps, seed, preset, hash of the assignment)`.
type Case = (Gen, usize, Weights, usize, usize, f64, u64, Preset, u64);

use Gen::*;
use Preset::{Eco, Fast, Minimal};
use Weights::*;

#[rustfmt::skip]
const CASES: &[Case] = &[
    // Unit weights, every p, the three k.
    (Grid,     900,  Unit,  2,   1, 0.03, 1,  Fast,    0x5c27fa64233908ef),
    (Grid,     900,  Unit,  8,   2, 0.03, 2,  Fast,    0x01ec143574c5ecb8),
    (Grid,     900,  Unit,  8,   3, 0.03, 3,  Eco,     0xad955d72e1ca8f9b),
    (Delaunay, 1500, Unit,  8,   4, 0.03, 4,  Fast,    0x896550d538e2b3c9),
    (Delaunay, 1500, Unit,  2,   2, 0.03, 5,  Minimal, 0x2ba07d6705ca608a),
    (Delaunay, 4000, Unit,  100, 2, 0.03, 6,  Fast,    0x61b1d9a288f9b13c),
    (Sbm,      1200, Unit,  8,   1, 0.03, 7,  Fast,    0x9d785f3ae82e6761),
    (Sbm,      1200, Unit,  8,   2, 0.03, 8,  Eco,     0x93a22d427099955c),
    (Sbm,      1200, Unit,  2,   3, 0.03, 9,  Fast,    0xc7d551b99f6148ff),
    (Ba,       1000, Unit,  8,   4, 0.03, 10, Fast,    0x6de6b06e90cc42bd),
    (Ba,       3000, Unit,  100, 3, 0.03, 11, Fast,    0xae63fea58a8dde6f),
    (Web,      2048, Unit,  8,   2, 0.03, 12, Fast,    0xaa1b76e28ed617da),
    (Web,      2048, Unit,  2,   4, 0.03, 13, Eco,     0x46aedc64fa20ad1a),
    (Web,      4096, Unit,  100, 1, 0.03, 14, Minimal, 0x7df5f76983763ea3),
    // eps = 0: every block is at or over Lmax after projection.
    (Grid,     900,  Unit,  8,   2, 0.0,  15, Fast,    0x604bcfcd38172fd0),
    (Sbm,      1200, Unit,  2,   3, 0.0,  16, Fast,    0xcf73c7c6d16d2d68),
    (Web,      2048, Unit,  8,   4, 0.0,  17, Fast,    0xe1817f5f2941f289),
    (Ba,       1000, Unit,  100, 2, 0.0,  18, Fast,    0x49848282cfa8d7f6),
    // Heavy nodes: overloaded blocks at refine entry, forced repair.
    (Grid,     900,  Heavy, 8,   1, 0.0,  19, Fast,    0x5e2dc3e1d5b6181d),
    (Grid,     900,  Heavy, 8,   2, 0.0,  20, Fast,    0x1b5dd465f52f3c4f),
    (Delaunay, 1500, Heavy, 8,   3, 0.0,  21, Eco,     0x1ed11ff80ff491e7),
    (Sbm,      1200, Heavy, 2,   4, 0.0,  22, Fast,    0x8832f020b8f64970),
    (Ba,       1000, Heavy, 8,   2, 0.001, 23, Fast,   0xc3d200ffb84162b4),
    (Web,      2048, Heavy, 100, 3, 0.0,  24, Fast,    0x98139636dbbbb6c5),
    (Web,      2048, Heavy, 8,   2, 0.03, 25, Eco,     0xe7e4977821463b95),
    // Weighted nodes and edges, zero-weight edges among them.
    (Grid,     900,  Nodes, 8,   2, 0.03, 26, Fast,    0xaece47dc1cdd9a09),
    (Grid,     900,  Edges, 8,   3, 0.03, 27, Fast,    0x83fbc7d1f06c893c),
    (Delaunay, 1500, Edges, 2,   1, 0.03, 28, Fast,    0x7d62e0e3e9b17e5d),
    (Delaunay, 1500, Both,  8,   2, 0.01, 29, Eco,     0xe62a46889d5b982c),
    (Sbm,      1200, Edges, 8,   4, 0.03, 30, Fast,    0x5dc817f9b19df718),
    (Sbm,      1200, Both,  2,   2, 0.0,  31, Fast,    0xebeac43512b1ea0a),
    (Ba,       1000, Edges, 8,   1, 0.03, 32, Eco,     0xf39ce5a40f9c9269),
    (Ba,       3000, Both,  100, 4, 0.03, 33, Fast,    0x0cd2253b54bdfa46),
    (Web,      2048, Edges, 8,   3, 0.03, 34, Fast,    0x0095a95b05e1310a),
    (Web,      2048, Both,  8,   2, 0.0,  35, Minimal, 0x010df93bd6e89a0c),
    (Web,      2048, Nodes, 2,   1, 0.001, 36, Fast,   0xdb93b72661263394),
];

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn generate(gen: Gen, n: usize, weights: Weights, seed: u64) -> CsrGraph {
    let base = match gen {
        Grid => {
            let side = (n as f64).sqrt() as usize;
            pgp::pgp_gen::mesh::grid2d(side, n / side)
        }
        Delaunay => pgp::pgp_gen::delaunay::delaunay_random(n, seed),
        Sbm => pgp::pgp_gen::sbm::sbm(n, Default::default(), seed).0,
        Ba => pgp::pgp_gen::ba::barabasi_albert(n, 3, seed),
        Web => pgp::pgp_gen::webgraph::web_graph(n, Default::default(), seed).0,
    };
    let node_weight = |v: usize| -> Weight {
        match weights {
            Nodes | Both => 1 + mix(seed, v as u64) % 5,
            Heavy if v.is_multiple_of(29) => 25,
            _ => 1,
        }
    };
    let edge_weight = |u: Node, v: Node, w: Weight| -> Weight {
        match weights {
            Edges | Both => mix(mix(seed, u64::from(u)), u64::from(v)) % 4,
            _ => w,
        }
    };
    let mut b = GraphBuilder::with_capacity(base.n(), base.m());
    for (u, v, w) in base.edges() {
        b.push_edge(u, v, edge_weight(u, v, w));
    }
    b.node_weights((0..base.n()).map(node_weight).collect())
        .build()
}

fn assignment_hash(&(gen, n, weights, k, p, eps, seed, preset, _): &Case) -> u64 {
    let g = generate(gen, n, weights, seed);
    let class = match gen {
        Grid | Delaunay => GraphClass::Mesh,
        Sbm | Ba | Web => GraphClass::Social,
    };
    let mut cfg = ParhipConfig::preset(preset, k, class, seed);
    cfg.eps = eps;
    // Several levels even at these sizes.
    cfg.coarsest_nodes_per_block = 10;
    // A watchdog deadline: a PE that skips a collective the others enter
    // fails the row with a `Timeout` instead of hanging the suite.
    let run = RunConfig {
        deadline: Some(Duration::from_secs(60)),
        ..Default::default()
    };
    let out = Partitioner::new(&cfg)
        .run(run)
        .partition(&g, p)
        .expect("valid input");
    let assignment = out.partition.assignment();
    assert_eq!(assignment.len(), g.n());
    assert!(assignment.iter().all(|&b| (b as usize) < k));
    assignment
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| mix(h, u64::from(b)))
}

fn check(cases: impl Iterator<Item = &'static Case>) {
    let rows: Vec<(&Case, u64)> = cases.map(|c| (c, assignment_hash(c))).collect();
    if rows.iter().any(|(c, h)| c.8 != *h) {
        for (&(gen, n, weights, k, p, eps, seed, preset, pinned), h) in &rows {
            let mark = if pinned == *h { "  " } else { "!=" };
            eprintln!(
                "{mark} ({gen:?}, {n}, {weights:?}, {k}, {p}, {eps:?}, {seed}, {preset:?}, {h:#018x}),"
            );
        }
        panic!("the partition of a pinned instance changed (rows marked != above)");
    }
}

/// The rows tier-1 runs: every third one, which still covers every
/// generator, decoration, k and p.
#[test]
fn characterization_slice() {
    check(CASES.iter().step_by(3));
}

/// The whole table (`cargo test --test characterization -- --ignored`, and
/// CI's workspace stage).
#[test]
#[ignore = "the whole table; the slice above is what tier-1 runs"]
fn characterization_full() {
    check(CASES.iter());
}
