//! Integration tests for the paper's §VI future-work extensions that this
//! reproduction implements: modularity clustering, alternative
//! evolutionary objectives, and prepartition input.

use pgp::pgp_dmp::run;
use pgp::pgp_evo::{kaffpae, EvoConfig, Objective};
use pgp::pgp_graph::metrics::communication_volume;
use pgp::pgp_seq::{cluster_modularity, ModularityConfig};

/// Multilevel modularity clustering finds strong community structure on a
/// planted-partition graph — the "huge unstructured graphs in a short
/// amount of time" use case.
#[test]
fn modularity_clustering_end_to_end() {
    let (g, truth) = pgp::pgp_gen::sbm::sbm(2500, Default::default(), 17);
    let r = cluster_modularity(&g, &ModularityConfig::default());
    let truth_q = pgp::pgp_graph::metrics::modularity(&g, &truth);
    assert!(
        r.modularity > truth_q * 0.8,
        "Q = {:.3} vs planted {truth_q:.3}",
        r.modularity
    );
    // Sanity: labels form a valid clustering of the node set.
    assert_eq!(r.labels.len(), g.n());
    assert!(r.clusters >= 2);
}

/// Selecting for communication volume produces partitions whose volume is
/// no worse than cut-selected ones (on average over seeds), and still
/// balanced.
#[test]
fn comm_volume_objective_steers_selection() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(600, Default::default(), 21);
    let k = 4;
    let mut vol_with_cut_objective = 0u64;
    let mut vol_with_vol_objective = 0u64;
    for seed in 0..3u64 {
        for objective in [Objective::EdgeCut, Objective::TotalCommVolume] {
            let cfg = EvoConfig {
                objective,
                rumor_fanout: 0,
                ..EvoConfig::with_operations(k, 4, seed)
            };
            let parts = run(2, |comm| kaffpae(comm, &g, &cfg, None));
            let p = &parts[0];
            p.validate(&g, 0.03).unwrap();
            let (vol, _) = communication_volume(&g, p);
            match objective {
                Objective::EdgeCut => vol_with_cut_objective += vol,
                _ => vol_with_vol_objective += vol,
            }
        }
    }
    assert!(
        vol_with_vol_objective <= vol_with_cut_objective * 11 / 10,
        "volume-objective selection gave {vol_with_vol_objective} vs {vol_with_cut_objective}"
    );
}

/// A hash prepartition fed through the public API is drastically improved
/// and the result stays valid (§VI "prepartition … directly fed into the
/// first V-cycle").
#[test]
fn prepartition_public_api() {
    use pgp::parhip::{GraphClass, ParhipConfig, Partitioner};
    let (g, _) = pgp::pgp_gen::sbm::sbm(900, Default::default(), 31);
    let k = 4;
    let input = pgp::pgp_baselines::hash_partition(&g, k, 3);
    let input_cut = input.edge_cut(&g);
    let mut cfg = ParhipConfig::fast(k, GraphClass::Social, 7);
    cfg.coarsest_nodes_per_block = 50;
    cfg.deterministic = true;
    let p = Partitioner::new(&cfg)
        .prepartition(&input)
        .partition(&g, 2)
        .expect("valid input")
        .partition;
    assert!(
        p.edge_cut(&g) < input_cut / 2,
        "{} vs input {input_cut}",
        p.edge_cut(&g)
    );
    p.validate(&g, 0.03).unwrap();
}

/// MaxCommVolume is a different quantity than the total and is accepted by
/// the whole pipeline.
#[test]
fn max_comm_volume_objective_runs() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(400, Default::default(), 5);
    let cfg = EvoConfig {
        objective: Objective::MaxCommVolume,
        rumor_fanout: 0,
        ..EvoConfig::with_operations(4, 2, 9)
    };
    let parts = run(2, |comm| kaffpae(comm, &g, &cfg, None));
    parts[0].validate(&g, 0.03).unwrap();
}
