//! Real-process SIGKILL recovery e2e (DESIGN.md §15).
//!
//! The chaos suite simulates PE deaths inside one process; this test makes
//! the death *real*: each PE is an OS process over the multi-process
//! socket mesh, and on the first attempt rank 1 delivers `SIGKILL` to
//! itself mid-run — no result file, no socket goodbye, just an EOF on
//! every peer link. The process supervisor must diagnose the death from
//! the missing result file, respawn the group with rank 1's kill disarmed
//! (via `WorkerCtx::attempt`), and converge to the *bit-identical*
//! partition a fault-free thread-backend run produces.

use parhip::{parhip_distributed, GraphClass, ParhipConfig, Partitioner};
use pgp_dmp::collectives::{allgatherv, barrier};
use pgp_dmp::{
    maybe_run_worker, run_multiprocess_supervised, Comm, ProcessConfig, RecoveryLimits, Wire,
    WorkerCtx,
};
use pgp_graph::Node;
use std::time::Duration;

const P: usize = 3;
const N: usize = 2_000;
const K: usize = 4;
const SEED: u64 = 31;

fn test_config() -> ParhipConfig {
    let mut cfg = ParhipConfig::fast(K, GraphClass::Social, SEED);
    cfg.deterministic = true;
    cfg
}

/// The worker entry: build the shared seeded instance, partition it over
/// the socket-mesh communicator, return the full assignment. On the first
/// attempt rank 1 SIGKILLs its own process after the mesh is live — an
/// unclean OS-level death its peers discover as EOF.
fn partition_worker(comm: &Comm, ctx: &WorkerCtx, args: &[u8]) -> Vec<u8> {
    let seed = u64::decode_all(args).expect("worker args seed");
    let g = pgp_gen::ba::barabasi_albert(N, 3, seed);
    let cfg = test_config();
    let dg = pgp_dmp::DistGraph::from_global(comm, &g);
    // All links are live and every peer is past setup before the kill, so
    // the EOF lands mid-partition, not during mesh construction.
    barrier(comm);
    if ctx.rank == 1 && ctx.attempt == 0 {
        let pid = std::process::id();
        // `.status()` blocks until `sh` exits — which it only does after
        // the kernel has already delivered our SIGKILL, so this call
        // never actually returns.
        let _ = std::process::Command::new("sh")
            .arg("-c")
            .arg(format!("kill -9 {pid}"))
            .status();
        unreachable!("SIGKILL is not catchable");
    }
    let (local, _stats) = parhip_distributed(comm, &dg, &cfg);
    let full: Vec<Node> = allgatherv(comm, local);
    full.encode_to_vec()
}

#[test]
fn sigkill_mid_run_recovers_to_fault_free_partition() {
    // In a spawned worker process this call never returns; in the parent
    // it is a no-op.
    maybe_run_worker(&[("partition", partition_worker)]);

    let cfg = ProcessConfig {
        entry: "partition".to_string(),
        args: SEED.encode_to_vec(),
        deadline: Some(Duration::from_secs(60)),
        extra_args: vec![
            "--exact".to_string(),
            "sigkill_mid_run_recovers_to_fault_free_partition".to_string(),
            "--nocapture".to_string(),
        ],
    };
    let (values, report) = run_multiprocess_supervised(P, &cfg, RecoveryLimits::default())
        .expect("supervisor must recover from one SIGKILL");

    assert_eq!(
        report.recoveries, 1,
        "exactly one full recovery: {report:?}"
    );
    assert_eq!(
        report.dead_ranks,
        vec![1],
        "consensus names the killed rank"
    );
    assert!(
        report.attempts >= 2,
        "the killed attempt plus the clean one"
    );

    // Every rank returns the same full assignment...
    let assignment = Vec::<Node>::decode_all(&values[0]).expect("worker result decodes");
    for (rank, v) in values.iter().enumerate() {
        assert_eq!(
            v, &values[0],
            "rank {rank} must agree on the global assignment"
        );
    }

    // ...and it is bit-identical to the fault-free thread-backend run.
    let g = pgp_gen::ba::barabasi_albert(N, 3, SEED);
    let fault_free = Partitioner::new(&test_config())
        .partition(&g, P)
        .expect("valid input")
        .partition;
    let from_processes = pgp_graph::Partition::from_assignment(&g, K, assignment);
    assert_eq!(
        from_processes, fault_free,
        "recovered multi-process partition must match the fault-free one"
    );
    from_processes
        .validate(&g, test_config().eps)
        .expect("recovered partition is valid");
}
