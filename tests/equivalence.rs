//! Equivalence and conservation properties across the sequential and
//! parallel implementations.

use pgp::pgp_dmp::{run, DistGraph};
use pgp::pgp_graph::{contract_clustering, CsrGraph, Node, Partition};

/// The parallel contraction must produce exactly the sequential coarse
/// graph (same dense renumbering) for any clustering and PE count.
#[test]
fn parallel_contraction_equals_sequential_everywhere() {
    let graphs: Vec<CsrGraph> = vec![
        pgp::pgp_gen::sbm::sbm(500, Default::default(), 1).0,
        pgp::pgp_gen::mesh::grid2d(20, 20),
        pgp::pgp_gen::ba::barabasi_albert(400, 2, 1),
    ];
    for g in &graphs {
        let clustering = pgp::pgp_lp::sclp_cluster(g, 30, 4, 5);
        let seq = contract_clustering(g, &clustering);
        for p in [1usize, 2, 4, 5] {
            let gathered = run(p, |comm| {
                let dg = DistGraph::from_global(comm, g);
                let labels: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                    .map(|l| clustering[dg.local_to_global(l) as usize])
                    .collect();
                let c = pgp::parhip::parallel_contract(comm, &dg, &labels);
                c.coarse.gather_global(comm)
            });
            for cg in gathered {
                assert_eq!(cg, seq.coarse, "p = {p}");
            }
        }
    }
}

/// Projecting any coarse partition through the full parallel hierarchy
/// preserves the cut (the defining property of cluster contraction).
#[test]
fn hierarchy_projection_preserves_cut() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(800, Default::default(), 3);
    let clustering = pgp::pgp_lp::sclp_cluster(&g, 40, 4, 2);
    let seq = contract_clustering(&g, &clustering);
    // 2-color the coarse graph and compare cut values after projection.
    let coarse_assign: Vec<u32> = (0..seq.coarse.n()).map(|i| (i % 2) as u32).collect();
    let coarse_p = Partition::from_assignment(&seq.coarse, 2, coarse_assign.clone());
    let fine_p = pgp::pgp_graph::project_partition(&g, &seq.mapping, &coarse_p);
    assert_eq!(fine_p.edge_cut(&g), coarse_p.edge_cut(&seq.coarse));

    // The same through the parallel projection machinery.
    let fine_blocks = run(3, |comm| {
        let dg = DistGraph::from_global(comm, &g);
        let labels: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
            .map(|l| clustering[dg.local_to_global(l) as usize])
            .collect();
        let c = pgp::parhip::parallel_contract(comm, &dg, &labels);
        let coarse_blocks: Vec<Node> = (0..c.coarse.n_local())
            .map(|l| coarse_assign[c.coarse.local_to_global(l as Node) as usize])
            .collect();
        let fine =
            pgp::parhip::parallel_project_blocks(comm, &c.coarse, &c.mapping, &coarse_blocks);
        pgp::pgp_dmp::collectives::allgatherv(comm, fine[..dg.n_local()].to_vec())
    });
    let par_p = Partition::from_assignment(&g, 2, fine_blocks.into_iter().next().unwrap());
    assert_eq!(par_p.edge_cut(&g), coarse_p.edge_cut(&seq.coarse));
}

/// Sequential SCLP clustering quality: the parallel version on 1 PE visits
/// in the same degree order, so it finds a clustering of comparable
/// coverage (not identical — localized weights differ — but close).
#[test]
fn parallel_lp_quality_matches_sequential_ballpark() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(1500, Default::default(), 7);
    let seq_labels = pgp::pgp_lp::sclp_cluster(&g, 100, 4, 9);
    let seq_cov = pgp::pgp_graph::metrics::coverage(&g, &seq_labels);
    for p in [1usize, 4] {
        let par_cov = run(p, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut labels = pgp::pgp_lp::singleton_labels(&dg);
            pgp::pgp_lp::parallel_sclp_cluster(comm, &dg, 100, 4, 9, &mut labels, None);
            let local = labels[..dg.n_local()].to_vec();
            let all = pgp::pgp_dmp::collectives::allgatherv(comm, local);
            pgp::pgp_graph::metrics::coverage(&g, &all)
        })
        .into_iter()
        .next()
        .unwrap();
        assert!(
            par_cov > seq_cov - 0.2,
            "p = {p}: parallel coverage {par_cov} far below sequential {seq_cov}"
        );
    }
}
