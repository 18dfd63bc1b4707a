//! Comm conformance suite: the whole-group contracts of the public `Comm`
//! API — every payload type the algorithms send, every collective, the
//! poison protocol (a timeout, and a collective one rank skipped) and exact
//! send/receive conservation in the observation layer.
//! Point-to-point basics and the delay plan are unit-tested in `comm.rs`.

use pgp_dmp::collectives::{
    allgatherv, allreduce, allreduce_min_with_rank, allreduce_sum, allreduce_sum_vec, alltoallv,
    barrier, broadcast, exscan_sum, reduce,
};
use pgp_dmp::{run_config, Comm, CommError, Obs, RunConfig};
use pgp_graph::Node;
use std::sync::Arc;
use std::time::Duration;

/// Runs `f` on `p` PEs with a generous watchdog, panicking on any
/// structural failure. The conformance scenarios assert on the returned
/// rank-ordered values.
fn run_on<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    let cfg = RunConfig {
        deadline: Some(Duration::from_secs(30)),
        ..RunConfig::default()
    };
    run_config(p, cfg, f)
        .into_iter()
        .map(|r| r.expect("conformance run must not fail structurally"))
        .collect()
}

#[test]
fn typed_payload_roundtrip() {
    // The payload inventory every algorithm in the workspace sends:
    // label-update pairs, word vectors, tuples, strings, options, floats.
    let results = run_on(2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 1, vec![(3 as Node, 4 as Node), (5, 6)]);
            comm.send(1, 2, vec![7u64, 8, 9]);
            comm.send(1, 3, ("boxed".to_string(), 10u32));
            comm.send(1, 4, Some(2.5f64));
            comm.send(1, 5, Vec::<u64>::new());
            comm.send(1, 6, (21u64, 2usize));
            0
        } else {
            let pairs: Vec<(Node, Node)> = comm.recv(0, 1);
            let words: Vec<u64> = comm.recv(0, 2);
            let (s, x): (String, u32) = comm.recv(0, 3);
            let f: Option<f64> = comm.recv(0, 4);
            let empty: Vec<u64> = comm.recv(0, 5);
            let (a, b): (u64, usize) = comm.recv(0, 6);
            assert_eq!(pairs, vec![(3, 4), (5, 6)]);
            assert_eq!(s, "boxed");
            assert_eq!(f, Some(2.5));
            assert!(empty.is_empty());
            assert_eq!((a, b), (21, 2));
            words.iter().sum::<u64>() + u64::from(x)
        }
    });
    assert_eq!(results[1], 34);
}

#[test]
fn collectives_agree() {
    const P: usize = 4;
    let results = run_on(P, |comm| {
        let rank = u64::try_from(comm.rank()).expect("small rank");
        barrier(comm);
        let b = broadcast(comm, 1, (comm.rank() == 1).then(|| rank * 10));
        let red = reduce(comm, 2, rank, |a, b| a + b);
        let red_all = allreduce(comm, rank + 1, |a, b| a * b);
        let sum = allreduce_sum(comm, rank);
        let sum_vec = allreduce_sum_vec(comm, vec![rank, 1]);
        let (min, min_rank) = allreduce_min_with_rank(comm, 100 - rank);
        let ex = exscan_sum(comm, rank);
        let agv = allgatherv(comm, vec![rank; comm.rank()]);
        let a2a = alltoallv(comm, (0..P).map(|d| vec![rank * 10 + d as u64]).collect());
        (b, red, red_all, sum, sum_vec, min, min_rank, ex, agv, a2a)
    });
    for (rank, r) in results.iter().enumerate() {
        let (b, red, red_all, sum, sum_vec, min, min_rank, ex, agv, a2a) = r;
        assert_eq!(*b, 10, "broadcast from rank 1");
        assert_eq!(red.is_some(), rank == 2, "reduce lands only on the root");
        if rank == 2 {
            assert_eq!(*red, Some(6));
        }
        assert_eq!(*red_all, 24, "4! over p ranks");
        assert_eq!(*sum, 6);
        assert_eq!(sum_vec, &vec![6, 4]);
        assert_eq!((*min, *min_rank), (97, 3));
        assert_eq!(*ex, (0..rank as u64).sum::<u64>(), "exclusive prefix sum");
        let want_agv: Vec<u64> = (0..P as u64).flat_map(|r| vec![r; r as usize]).collect();
        assert_eq!(agv, &want_agv, "allgatherv concatenates in rank order");
        let want_a2a: Vec<Vec<u64>> = (0..P as u64).map(|s| vec![s * 10 + rank as u64]).collect();
        assert_eq!(a2a, &want_a2a, "alltoallv transposes");
    }
}

#[test]
fn timeout_is_structural() {
    // A receive that can never complete must surface as a Timeout on the
    // waiting rank and poison the peers, not hang.
    let cfg = RunConfig {
        deadline: Some(Duration::from_millis(80)),
        ..RunConfig::default()
    };
    let results = run_config(2, cfg, |comm| {
        // Both ranks park on a message the peer never sends; whichever
        // watchdog fires first poisons the group and unblocks the other.
        comm.recv::<u64>(1 - comm.rank(), 7);
    });
    assert!(
        results.iter().all(Result::is_err),
        "both ranks must unwind, got {results:?}"
    );
    assert!(
        results.iter().enumerate().any(|(rank, r)| matches!(
            r,
            Err(CommError::Timeout { rank: tr, tag: 7, .. }) if *tr == rank
        )),
        "some rank must self-report the watchdog timeout, got {results:?}"
    );
}

#[test]
fn collective_under_a_rank_guard_fails_structurally() {
    // SPMD divergence: rank 1 skips a barrier the others enter, so every
    // later collective's tag block is off by one on rank 1. No rank can
    // complete; each must unwind with a Timeout instead of hanging.
    let cfg = RunConfig {
        deadline: Some(Duration::from_millis(80)),
        ..RunConfig::default()
    };
    let results = run_config(3, cfg, |comm| {
        if comm.rank() != 1 {
            barrier(comm);
        }
        allreduce_sum(comm, 1u64)
    });
    assert!(
        results
            .iter()
            .all(|r| matches!(r, Err(CommError::Timeout { .. }))),
        "every rank must time out, got {results:?}"
    );
}

#[test]
fn obs_conservation() {
    // Whatever the mailbox does with a payload, the recorder's per-tag
    // totals must balance exactly: Σ sent == Σ received.
    let obs = Obs::new(3);
    let cfg = RunConfig {
        deadline: Some(Duration::from_secs(30)),
        obs: Some(Arc::clone(&obs)),
        ..RunConfig::default()
    };
    let results = run_config(3, cfg, |comm| {
        let rank = u64::try_from(comm.rank()).expect("small rank");
        comm.send((comm.rank() + 1) % 3, 11, vec![rank; 5]);
        let _: Vec<u64> = comm.recv((comm.rank() + 2) % 3, 11);
        allreduce_sum(comm, rank)
    });
    for r in results {
        assert_eq!(r.expect("fault-free run"), 3);
    }
    // Per tag, (messages, bytes) summed over the group.
    let report = obs.report();
    let total = |side: fn(&pgp_obs::CommReport) -> &[pgp_obs::TagEntry]| {
        let mut sums = std::collections::BTreeMap::new();
        for e in report.per_pe.iter().flat_map(|pe| side(&pe.comm)) {
            let slot = sums.entry(e.tag).or_insert((0, 0));
            *slot = (slot.0 + e.msgs, slot.1 + e.bytes);
        }
        sums
    };
    let sent = total(|c| &c.sent);
    assert_eq!(sent, total(|c| &c.recvd), "every sent byte was received");
    // Each message counts its 8-byte length plus five 8-byte words, and no
    // header.
    assert_eq!(sent.get(&11), Some(&(3, 3 * (8 + 5 * 8))));
}
