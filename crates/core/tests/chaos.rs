//! The full ParHIP pipeline under a seeded cross-tag delay plan: the
//! partition is *bit-identical* to the run without one, because the comm
//! substrate keeps FIFO per `(src, tag)` and every receive is selective —
//! KaFFPaE's ring exchange and the move to a block numbering between
//! V-cycles included.

use parhip::{GraphClass, ParhipConfig, Partitioner};
use pgp_dmp::collectives::allgatherv;
use pgp_dmp::{run_config, DelayPlan, DistGraph, RunConfig};
use pgp_graph::{CsrGraph, Partition};
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(20);

fn small_cfg(k: usize, seed: u64) -> ParhipConfig {
    let mut cfg = ParhipConfig::fast(k, GraphClass::Social, seed);
    cfg.coarsest_nodes_per_block = 50;
    cfg.deterministic = true;
    cfg
}

fn fault_free(g: &CsrGraph, p: usize, cfg: &ParhipConfig) -> Partition {
    Partitioner::new(cfg)
        .partition(g, p)
        .expect("valid input")
        .partition
}

/// Runs `cfg` on `g` at `p` PEs under three delay plans and asserts every
/// PE returns the fault-free partition.
fn assert_bit_identical_under_delay(g: &CsrGraph, p: usize, cfg: &ParhipConfig) {
    let reference = fault_free(g, p, cfg);
    for plan_seed in [1u64, 42, 777] {
        let plan = RunConfig {
            deadline: Some(DEADLINE),
            delay: Some(DelayPlan {
                seed: plan_seed,
                per_mille: 400,
                max_holds: 5,
            }),
            ..RunConfig::default()
        };
        let results = run_config(p, plan, |comm| {
            let dg = DistGraph::from_global(comm, g);
            let (local, _) = parhip::parhip_distributed(comm, &dg, cfg);
            allgatherv(comm, local)
        });
        for r in results {
            let assignment = r.expect("delay faults must not break the run");
            assert_eq!(
                assignment.as_slice(),
                reference.assignment(),
                "plan seed {plan_seed} changed the partition"
            );
        }
    }
}

#[test]
fn rmat_partition_is_bit_identical_under_delay_reorder() {
    let g = pgp_gen::rmat::rmat_web(9, 8, 5);
    assert_bit_identical_under_delay(&g, 4, &small_cfg(4, 11));
}

/// Eco with KaFFPaE's ring exchange on (`deterministic` is the preset's
/// `false`): the shared initial population's allgather and the exchange's
/// receives are selective too, so delays cannot change which individual a
/// PE folds in. Nine operations give each of 3 PEs a share of 3, so the
/// ring fires before operation 2 (the preset's 4 give shares of 2, and
/// none).
#[test]
fn eco_rmat_partition_is_bit_identical_under_delay_reorder() {
    let g = pgp_gen::rmat::rmat_web(9, 8, 5);
    let mut cfg = ParhipConfig::eco(4, GraphClass::Social, 11);
    cfg.coarsest_nodes_per_block = 50;
    cfg.evo_operations = 9;
    assert!(!cfg.deterministic);
    assert_bit_identical_under_delay(&g, 3, &cfg);
}

/// A random-ID Delaunay mesh moves to its block numbering after the first
/// V-cycle (at p = 3 blocks straddle PE ranges): the counts that decide it,
/// the rows that move and the blocks mapped back to the input owners are
/// the same under delay.
#[test]
fn migrating_mesh_partition_is_bit_identical_under_delay_reorder() {
    let g = pgp_gen::delaunay::delaunay_random(3000, 7);
    let mut cfg = ParhipConfig::fast(8, GraphClass::Mesh, 13);
    cfg.coarsest_nodes_per_block = 50;
    let out = Partitioner::new(&cfg)
        .partition(&g, 3)
        .expect("valid input");
    assert!(
        out.stats.renumberings.iter().any(|r| r.migrated),
        "the mesh must move: {:?}",
        out.stats.renumberings
    );
    assert_bit_identical_under_delay(&g, 3, &cfg);
}
