//! Collectives under a seeded cross-tag delay plan must be *bit-identical*
//! to the run without one: the comm layer keeps FIFO per `(src, tag)` and
//! every receive is selective, so reordering across tags is invisible to a
//! correct protocol.

use pgp_dmp::collectives::{allgatherv, alltoallv, barrier};
use pgp_dmp::{run, run_config, DelayPlan, RunConfig};
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(10);

/// A run under the watchdog that delays `per_mille`/1000 of all sends by
/// up to `max_holds` later send events.
fn delayed(seed: u64, per_mille: u64, max_holds: u32) -> RunConfig {
    RunConfig {
        deadline: Some(DEADLINE),
        delay: Some(DelayPlan {
            seed,
            per_mille,
            max_holds,
        }),
        ..RunConfig::default()
    }
}

/// A multi-round alltoallv workload with rank- and round-dependent
/// payloads: plenty of concurrent tags to reorder across.
fn alltoallv_workload(comm: &pgp_dmp::Comm) -> Vec<Vec<u64>> {
    let p = comm.size();
    let mut received = Vec::new();
    for round in 0..6u64 {
        let sends: Vec<Vec<u64>> = (0..p)
            .map(|dst| {
                (0..1 + (comm.rank() + dst + round as usize) % 4)
                    .map(|i| {
                        round * 1_000_000
                            + (comm.rank() as u64) * 10_000
                            + (dst as u64) * 100
                            + i as u64
                    })
                    .collect()
            })
            .collect();
        received.extend(alltoallv(comm, sends));
    }
    received
}

/// A multi-round allgatherv workload.
fn allgatherv_workload(comm: &pgp_dmp::Comm) -> Vec<u64> {
    let mut out = Vec::new();
    for round in 0..6u64 {
        let mine: Vec<u64> = (0..1 + comm.rank() % 3)
            .map(|i| round * 1000 + (comm.rank() as u64) * 10 + i as u64)
            .collect();
        out.extend(allgatherv(comm, mine));
        barrier(comm);
    }
    out
}

#[test]
fn alltoallv_bit_identical_under_delay_reorder() {
    for p in [2, 4] {
        let clean = run(p, alltoallv_workload);
        for seed in [1u64, 42, 777] {
            let plan = delayed(seed, 400, 5);
            let chaotic = run_config(p, plan, alltoallv_workload);
            let chaotic: Vec<_> = chaotic
                .into_iter()
                .map(|r| r.expect("delay injection must not fail a run"))
                .collect();
            assert_eq!(
                clean, chaotic,
                "alltoallv diverged under delay plan seed {seed}, p={p}"
            );
        }
    }
}

#[test]
fn allgatherv_bit_identical_under_delay_reorder() {
    for p in [2, 4] {
        let clean = run(p, allgatherv_workload);
        for seed in [3u64, 99] {
            let plan = delayed(seed, 500, 6);
            let chaotic = run_config(p, plan, allgatherv_workload);
            let chaotic: Vec<_> = chaotic
                .into_iter()
                .map(|r| r.expect("delay injection must not fail a run"))
                .collect();
            assert_eq!(
                clean, chaotic,
                "allgatherv diverged under delay plan seed {seed}, p={p}"
            );
        }
    }
}
