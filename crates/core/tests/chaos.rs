//! End-to-end chaos tests (ISSUE 3 acceptance criteria): the full ParHIP
//! pipeline under injected faults.
//!
//! * Delay/reorder faults must be *invisible* — the partition is
//!   bit-identical to a fault-free run, because the comm substrate keeps
//!   FIFO per `(src, tag)` and every receive is selective.
//! * A PE killed mid-run must surface as a structured
//!   [`CommError::PeerDead`] / [`CommError::Timeout`] on every PE within
//!   the watchdog deadline — never a hang.
//! * A run killed after a V-cycle boundary must be resumable from its
//!   checkpoint to the exact fault-free result.

use parhip::{CheckpointStore, GraphClass, ParhipConfig, PartitionError, Partitioner};
use pgp_chaos::{chaos_run, FaultPlan};
use pgp_dmp::collectives::allgatherv;
use pgp_dmp::{CommError, DistGraph};
use pgp_graph::{CsrGraph, Partition};
use std::time::{Duration, Instant};

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

#[test]
fn rmat_partition_is_bit_identical_under_delay_reorder() {
    let g = pgp_gen::rmat::rmat_web(9, 8, 5);
    let cfg = small_cfg(4, 11);
    let reference = fault_free(&g, 4, &cfg);
    for plan_seed in [1u64, 42, 777] {
        let plan = FaultPlan::new(plan_seed).delay(400, 5);
        let results = chaos_run(4, plan, DEADLINE, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let (local, _) = parhip::parhip_distributed(comm, &dg, &cfg);
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

/// The per-PE phase counts of a fault-free checkpointed run: one entry per
/// `vcycles` setting probed. Phases (tag blocks) are deterministic for a
/// deterministic config, so a clean probe tells us exactly where a later
/// cycle begins — which is where the kill goes.
fn probe_phases(g: &CsrGraph, cfg: &ParhipConfig, p: usize) -> u64 {
    let store = CheckpointStore::new();
    let counts = pgp_dmp::run(p, |comm| {
        let dg = DistGraph::from_global(comm, g);
        let _ = Partitioner::new(cfg)
            .store(&store)
            .partition_distributed(comm, &dg);
        comm.phases_started()
    });
    counts.into_iter().max().expect("at least one PE")
}

#[test]
fn killed_pe_surfaces_structured_error_not_a_hang() {
    let g = pgp_gen::rmat::rmat_web(9, 8, 5);
    let cfg = small_cfg(2, 13);
    // Kill rank 1 about a third of the way through the run — inside the
    // first cycle's coarsening.
    let total = probe_phases(&g, &cfg, 3);
    let plan = FaultPlan::new(0).kill(1, total / 3);
    let t0 = Instant::now();
    let results = chaos_run(3, plan, Duration::from_secs(5), |comm| {
        let dg = DistGraph::from_global(comm, &g);
        let (local, _) = parhip::parhip_distributed(comm, &dg, &cfg);
        allgatherv(comm, local)
    });
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(60),
        "watchdog must bound the failure, took {elapsed:?}"
    );
    for (rank, r) in results.into_iter().enumerate() {
        match r {
            Err(CommError::PeerDead { dead, .. }) => {
                assert_eq!(dead, 1, "PE {rank} blamed the wrong peer")
            }
            Err(CommError::Timeout { .. }) => {}
            Ok(_) => panic!("PE {rank} claims success despite a dead peer"),
        }
    }
}

#[test]
fn checkpoint_resume_reproduces_fault_free_result_after_kill() {
    let g = pgp_gen::rmat::rmat_web(9, 8, 5);
    let mut cfg = small_cfg(2, 17);
    cfg.vcycles = 2;
    let reference = fault_free(&g, 3, &cfg);

    // Phase counts of cycle 0 alone and of the full two-cycle run; the
    // kill lands midway through cycle 1, well past rank 0's cycle-0
    // checkpoint write.
    let mut one = cfg.clone();
    one.vcycles = 1;
    let phases_c0 = probe_phases(&g, &one, 3);
    let total = probe_phases(&g, &cfg, 3);
    assert!(total > phases_c0 + 4, "cycle 1 too short to kill inside");
    let kill_phase = phases_c0 + (total - phases_c0) / 2;

    let store = CheckpointStore::new();
    let plan = FaultPlan::new(0).kill(1, kill_phase);
    let killed = Partitioner::new(&cfg)
        .run(plan.into_config(Some(Duration::from_secs(5))))
        .store(&store)
        .partition(&g, 3);
    assert!(
        matches!(killed, Err(PartitionError::Comm(_))),
        "the kill must fail the run: {killed:?}"
    );
    assert_eq!(
        store.latest_cycle(),
        Some(0),
        "cycle 0's snapshot must have been written before the kill"
    );

    // Restart replays cycle 1 from the snapshot — bit-identical to the
    // uninterrupted run.
    let resumed = Partitioner::new(&cfg)
        .store(&store)
        .resume()
        .partition(&g, 3)
        .expect("the store holds cycle 0's snapshot")
        .partition;
    assert_eq!(resumed.assignment(), reference.assignment());
    assert_eq!(resumed.edge_cut(&g), reference.edge_cut(&g));
}
