//! End-to-end tests for the survivor-led automatic-recovery layer
//! (DESIGN.md §14): the full ParHIP pipeline run under
//! a supervised [`Partitioner`] with injected faults.
//!
//! * A PE killed mid-V-cycle must be recovered without manual
//!   intervention — failure consensus names the dead rank, the group is
//!   respawned, and the run resumes from the latest checkpoint to a
//!   partition *bit-identical* to the fault-free one.
//! * Transient faults (stalls past the watchdog deadline, with no rank
//!   self-reporting dead) must be retried in place — zero full
//!   recoveries — and still converge to the bit-identical result.
//! * The recovery counters published in the [`pgp_obs`] run report must
//!   match the injected fault plan.

use parhip::{
    CheckpointPolicy, CheckpointStore, GraphClass, ParhipConfig, Partitioner, RecoveryLimits,
};
use pgp_chaos::FaultPlan;
use pgp_dmp::{DistGraph, RunConfig};
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

/// The max per-PE phase count of a fault-free checkpointed run — phases
/// (tag blocks) are deterministic for a deterministic config, so a clean
/// probe tells us exactly where to aim a kill.
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

/// A phase index midway through the *last* V-cycle of `cfg` — past the
/// previous cycle's checkpoint write, well before the finish line.
fn mid_last_cycle_phase(g: &CsrGraph, cfg: &ParhipConfig, p: usize) -> u64 {
    let mut head = cfg.clone();
    head.vcycles = cfg.vcycles.max(1) - 1;
    let phases_head = if head.vcycles == 0 {
        0
    } else {
        probe_phases(g, &head, p)
    };
    let total = probe_phases(g, cfg, p);
    assert!(
        total > phases_head + 4,
        "last cycle too short to kill inside ({phases_head}..{total})"
    );
    phases_head + (total - phases_head) / 2
}

/// Runs the supervised partitioner under `plan` with an observability
/// registry attached; returns the partition, the supervisor's counters,
/// and the published run report.
fn supervised_under_plan(
    g: &CsrGraph,
    p: usize,
    cfg: &ParhipConfig,
    plan: FaultPlan,
    deadline: Duration,
    limits: RecoveryLimits,
) -> (
    pgp_graph::Partition,
    pgp_obs::RecoveryReport,
    pgp_obs::RunReport,
) {
    let obs = pgp_obs::Obs::new(p);
    let mut run: RunConfig = plan.into_config(Some(deadline));
    run.obs = Some(obs.clone());
    let out = Partitioner::new(cfg)
        .run(run)
        .supervised(limits)
        .partition(g, p)
        .expect("supervised run must complete within the recovery budget");
    let recovery = out.recovery.expect("supervised runs report recovery");
    (out.partition, recovery, obs.report())
}

/// ISSUE 8 acceptance: a chaos plan killing one PE mid-V-cycle, run
/// under the supervisor, completes without manual intervention and is
/// bit-identical to the fault-free run; the consensus verdict, recovery
/// count, and lost-cycle accounting all match the plan.
#[test]
fn supervised_run_survives_mid_cycle_kill_bit_identically() {
    let g = pgp_gen::rmat::rmat_web(9, 8, 5);
    let mut cfg = small_cfg(2, 17);
    cfg.vcycles = 2;
    let reference = fault_free(&g, 3, &cfg);

    // Kill rank 1 midway through cycle 1 — after rank 0 wrote cycle 0's
    // snapshot, so recovery resumes rather than restarts.
    let kill_phase = mid_last_cycle_phase(&g, &cfg, 3);
    let plan = FaultPlan::new(0).kill(1, kill_phase);
    let (partition, recovery, report) = supervised_under_plan(
        &g,
        3,
        &cfg,
        plan,
        Duration::from_secs(5),
        RecoveryLimits::default(),
    );

    assert_eq!(partition.assignment(), reference.assignment());
    assert_eq!(partition.edge_cut(&g), reference.edge_cut(&g));
    assert_eq!(recovery.attempts, 2, "one kill, one respawn: {recovery:?}");
    assert_eq!(recovery.recoveries, 1, "{recovery:?}");
    assert_eq!(recovery.retries, 0, "a kill is not transient: {recovery:?}");
    assert_eq!(recovery.dead_ranks, vec![1], "{recovery:?}");
    assert_eq!(
        recovery.lost_cycles, 1,
        "cycle 1 was destroyed and replayed once: {recovery:?}"
    );
    // The same counters must land in the published run report.
    assert_eq!(report.recovery, recovery);
}

/// Satellite (c): seeded chaos soak matrix — kill-at-phase × rank ×
/// (1 or 2 concurrent kills) on BA and SBM instances. Every cell must
/// complete bit-identically to the fault-free run, with recovery
/// counters consistent with the plan.
#[test]
fn soak_matrix_kills_across_graphs_ranks_and_phases() {
    let sbm = pgp_gen::sbm::sbm(1200, pgp_gen::sbm::SbmParams::default(), 3).0;
    let instances = [
        ("ba", pgp_gen::ba::barabasi_albert(1200, 3, 7)),
        ("sbm", sbm),
    ];
    let p = 4;
    for (name, g) in &instances {
        let cfg = small_cfg(4, 23);
        let reference = fault_free(g, p, &cfg);
        let total = probe_phases(g, &cfg, p);
        // One early kill, one late kill, a deterministic double kill at
        // phase 0 (both die before any cross-talk, one consensus round),
        // and a racy staggered double kill (either one or two recovery
        // rounds depending on who dies before the first verdict).
        let cells: Vec<(&str, Vec<(usize, u64)>)> = vec![
            ("early-r1", vec![(1, total / 4)]),
            ("late-r2", vec![(2, 3 * total / 4)]),
            ("double-at-start", vec![(0, 0), (2, 0)]),
            ("double-staggered", vec![(1, total / 3), (3, 2 * total / 3)]),
        ];
        for (cell, kills) in cells {
            let mut plan = FaultPlan::new(kills[0].1);
            for &(rank, phase) in &kills {
                plan = plan.kill(rank, phase);
            }
            let n_kills = plan.kills().len() as u64;
            let planned: Vec<usize> = kills.iter().map(|&(r, _)| r).collect();
            let (partition, recovery, report) = supervised_under_plan(
                g,
                p,
                &cfg,
                plan,
                Duration::from_secs(5),
                RecoveryLimits::default(),
            );
            assert_eq!(
                partition.assignment(),
                reference.assignment(),
                "{name}/{cell}: partition differs from fault-free"
            );
            assert_eq!(
                partition.edge_cut(g),
                reference.edge_cut(g),
                "{name}/{cell}"
            );
            assert!(
                recovery.recoveries >= 1 && recovery.recoveries <= n_kills,
                "{name}/{cell}: {n_kills} kill(s) need 1..={n_kills} recoveries: {recovery:?}"
            );
            assert_eq!(
                recovery.attempts,
                recovery.recoveries + recovery.retries + 1,
                "{name}/{cell}: {recovery:?}"
            );
            assert!(
                !recovery.dead_ranks.is_empty()
                    && recovery.dead_ranks.iter().all(|r| planned.contains(r)),
                "{name}/{cell}: verdict {:?} must be drawn from the plan {planned:?}",
                recovery.dead_ranks
            );
            assert!(
                recovery.lost_cycles <= recovery.recoveries * cfg.vcycles.max(1) as u64,
                "{name}/{cell}: lost work beyond what the kills destroyed: {recovery:?}"
            );
            assert_eq!(report.recovery, recovery, "{name}/{cell}");
        }
    }
}

/// A stall plan that pushes every rank-1 send past the watchdog deadline
/// is a *transient* fault: no rank self-reports dead, so consensus
/// retries in place with a widened deadline instead of respawning.
/// `max_recoveries: 0` makes any escalation a hard error — the run can
/// only complete via the retry path.
#[test]
fn transient_stall_is_retried_in_place_without_recovery() {
    let g = pgp_gen::rmat::rmat_web(7, 8, 5);
    let cfg = small_cfg(2, 29);
    let reference = fault_free(&g, 2, &cfg);

    // 15 ms stalls on every rank-1 send vs. a 4 ms base deadline: the
    // first attempt is guaranteed to time out; deadline widening (×2 per
    // retry) converges once the window covers a few chained stalls.
    let plan = FaultPlan::new(3).stall(1000, 15_000).only_src(1);
    let limits = RecoveryLimits {
        max_retries: 8,
        max_recoveries: 0,
        ..RecoveryLimits::default()
    };
    let (partition, recovery, report) =
        supervised_under_plan(&g, 2, &cfg, plan, Duration::from_millis(4), limits);

    assert_eq!(partition.assignment(), reference.assignment());
    assert_eq!(partition.edge_cut(&g), reference.edge_cut(&g));
    assert_eq!(
        recovery.recoveries, 0,
        "stalls must never escalate to a respawn: {recovery:?}"
    );
    assert!(
        recovery.retries >= 1,
        "the 4 ms deadline must have tripped at least once: {recovery:?}"
    );
    assert_eq!(recovery.attempts, recovery.retries + 1, "{recovery:?}");
    assert_eq!(recovery.dead_ranks, Vec::<usize>::new(), "{recovery:?}");
    // A timed-out attempt may already have entered a V-cycle; that work
    // counts as lost even though no PE died.
    assert!(recovery.lost_cycles <= recovery.retries, "{recovery:?}");
    assert_eq!(report.recovery, recovery);
}

/// Delay/reorder faults never trip the watchdog at all: the supervised
/// run completes first-attempt with every recovery counter at zero, and
/// the partition is still bit-identical (FIFO per `(src, tag)` plus
/// selective receives absorb the reordering).
#[test]
fn delay_reorder_keeps_all_recovery_counters_at_zero() {
    let g = pgp_gen::rmat::rmat_web(9, 8, 5);
    let cfg = small_cfg(4, 11);
    let reference = fault_free(&g, 4, &cfg);
    let plan = FaultPlan::new(42).delay(400, 5);
    let (partition, recovery, report) =
        supervised_under_plan(&g, 4, &cfg, plan, DEADLINE, RecoveryLimits::default());

    assert_eq!(partition.assignment(), reference.assignment());
    assert_eq!(
        recovery,
        pgp_obs::RecoveryReport {
            attempts: 1,
            ..Default::default()
        },
        "delays are invisible to the supervisor"
    );
    assert_eq!(report.recovery, recovery);
}

/// The checkpoint cadence decides the resume point: with a snapshot
/// every cycle, a kill in cycle 1 loses exactly that cycle; with
/// `every(2)` the cycle-0 boundary is skipped, so the same kill forces a
/// from-scratch restart and loses both cycles. Either way the result is
/// bit-identical — the cadence only trades checkpoint overhead against
/// repeated work.
#[test]
fn checkpoint_cadence_decides_how_much_work_a_kill_destroys() {
    let g = pgp_gen::rmat::rmat_web(9, 8, 5);
    let mut cfg = small_cfg(2, 17);
    cfg.vcycles = 2;
    // `checkpoint` is excluded from the config fingerprint, so one
    // fault-free reference serves both cadences.
    let reference = fault_free(&g, 3, &cfg);

    for (every, expect_lost) in [(1usize, 1u64), (2, 2)] {
        let mut cadenced = cfg.clone();
        cadenced.checkpoint = CheckpointPolicy::every(every);
        let kill_phase = mid_last_cycle_phase(&g, &cadenced, 3);
        let plan = FaultPlan::new(0).kill(1, kill_phase);
        let (partition, recovery, _) = supervised_under_plan(
            &g,
            3,
            &cadenced,
            plan,
            Duration::from_secs(5),
            RecoveryLimits::default(),
        );
        assert_eq!(
            partition.assignment(),
            reference.assignment(),
            "every({every}): cadence must not change the partition"
        );
        assert_eq!(recovery.recoveries, 1, "every({every}): {recovery:?}");
        assert_eq!(
            recovery.lost_cycles,
            expect_lost,
            "every({every}): cycle-0 snapshot {} → the kill in cycle 1 \
             should cost {expect_lost} cycle(s): {recovery:?}",
            if every == 1 { "taken" } else { "skipped" }
        );
    }
}
