//! Backend conformance suite (DESIGN.md §15).
//!
//! Every scenario in this file runs once per comm backend: the in-process
//! thread mailboxes (`threads`) and the Unix-domain socket frames
//! (`sockets`). The macro at the bottom generates a `<scenario>::threads`
//! and a `<scenario>::sockets` test per scenario, so `cargo test --test
//! conformance sockets` selects one backend's half of the matrix.
//!
//! The suite is the gate for adding a transport: a backend that passes
//! it supports typed selective receive, per-(src, tag) FIFO, every
//! collective, the poison protocol (timeout + peer death), chaos fault
//! injection, supervised recovery, and exact send/receive conservation
//! in the observation layer.

use pgp_dmp::collectives::{
    allgather, allgatherv, allreduce, allreduce_min_with_rank, allreduce_sum, allreduce_sum_vec,
    alltoallv, barrier, broadcast, exscan_sum, gather, reduce,
};
use pgp_dmp::{
    run_config, run_config_supervised, BackendKind, Comm, CommError, FaultHook, Obs, RunConfig,
    SendFault, SupervisorConfig, Tag,
};
use pgp_graph::Node;
use std::sync::Arc;
use std::time::Duration;

/// Runs `f` on `p` PEs over `backend` with a generous watchdog, panicking
/// on any structural failure. The conformance scenarios assert on the
/// returned rank-ordered values.
fn run_on<R, F>(backend: BackendKind, p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    let cfg = RunConfig {
        backend,
        deadline: Some(Duration::from_secs(30)),
        ..RunConfig::default()
    };
    run_config(p, cfg, f)
        .into_iter()
        .map(|r| r.expect("conformance run must not fail structurally"))
        .collect()
}

fn ping_pong(backend: BackendKind) {
    let results = run_on(backend, 2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 7, 42u64);
            comm.recv::<u64>(1, 8)
        } else {
            let x: u64 = comm.recv(0, 7);
            comm.send(0, 8, x * 2);
            x
        }
    });
    assert_eq!(results, vec![84, 42]);
}

fn selective_receive_by_tag(backend: BackendKind) {
    let results = run_on(backend, 2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 1, "one".to_string());
            comm.send(1, 2, "two".to_string());
            String::new()
        } else {
            let two: String = comm.recv(0, 2);
            let one: String = comm.recv(0, 1);
            format!("{two},{one}")
        }
    });
    assert_eq!(results[1], "two,one");
}

fn selective_receive_by_source(backend: BackendKind) {
    let results = run_on(backend, 3, |comm| {
        if comm.rank() == 2 {
            let a: u32 = comm.recv(1, 5);
            let b: u32 = comm.recv(0, 5);
            a * 100 + b
        } else {
            comm.send(2, 5, u32::try_from(comm.rank()).expect("small rank"));
            0
        }
    });
    assert_eq!(results[2], 100);
}

fn typed_payload_roundtrip(backend: BackendKind) {
    // The payload inventory every algorithm in the workspace sends:
    // the two fast-path vector types, tuples, strings, options, floats.
    let results = run_on(backend, 2, |comm| {
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

fn fifo_per_src_tag_under_collisions(backend: BackendKind) {
    // More live tags than mailbox slots forces bucket collisions; FIFO
    // within each (src, tag) stream must hold while the receiver takes
    // tags in reverse order.
    const TAGS: u64 = 40;
    const PER_TAG: u64 = 5;
    let results = run_on(backend, 2, |comm| {
        if comm.rank() == 0 {
            for i in 0..PER_TAG {
                for t in 0..TAGS {
                    comm.send(1, 100 + t, t * 1000 + i);
                }
            }
            0
        } else {
            let mut ok = 0u64;
            for t in (0..TAGS).rev() {
                for i in 0..PER_TAG {
                    let v: u64 = comm.recv(0, 100 + t);
                    assert_eq!(v, t * 1000 + i, "FIFO broken for tag {t}");
                    ok += 1;
                }
            }
            ok
        }
    });
    assert_eq!(results[1], TAGS * PER_TAG);
}

fn drain_groups_by_source(backend: BackendKind) {
    let results = run_on(backend, 4, |comm| {
        if comm.rank() == 0 {
            assert!(comm.drain::<u8>(99).is_empty(), "tag 99 never sent");
            // A link delivers one sender's frames in send order, so once
            // the tag-4 marker is here that sender's tag-3 pair is queued.
            for src in (1..4).rev() {
                comm.recv::<()>(src, 4);
            }
            comm.drain::<u8>(3)
        } else {
            let me = u8::try_from(comm.rank()).expect("small rank");
            comm.send(0, 3, me * 10);
            comm.send(0, 3, me * 10 + 1);
            comm.send(0, 4, ());
            Vec::new()
        }
    });
    assert_eq!(
        results[0],
        vec![(1, 10), (1, 11), (2, 20), (2, 21), (3, 30), (3, 31)],
        "drain groups by source in rank order, FIFO within a source"
    );
}

fn collectives_agree(backend: BackendKind) {
    const P: usize = 4;
    let results = run_on(backend, P, |comm| {
        let rank = u64::try_from(comm.rank()).expect("small rank");
        barrier(comm);
        let b = broadcast(comm, 1, (comm.rank() == 1).then(|| rank * 10));
        let red = reduce(comm, 2, rank, |a, b| a + b);
        let red_all = allreduce(comm, rank + 1, |a, b| a * b);
        let sum = allreduce_sum(comm, rank);
        let sum_vec = allreduce_sum_vec(comm, vec![rank, 1]);
        let (min, min_rank) = allreduce_min_with_rank(comm, 100 - rank);
        let ex = exscan_sum(comm, rank);
        let g = gather(comm, 0, rank * 2);
        let ag = allgather(comm, rank);
        let agv = allgatherv(comm, vec![rank; comm.rank()]);
        let a2a = alltoallv(comm, (0..P).map(|d| vec![rank * 10 + d as u64]).collect());
        (
            b, red, red_all, sum, sum_vec, min, min_rank, ex, g, ag, agv, a2a,
        )
    });
    for (rank, r) in results.iter().enumerate() {
        let (b, red, red_all, sum, sum_vec, min, min_rank, ex, g, ag, agv, a2a) = r;
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
        assert_eq!(g.is_some(), rank == 0, "gather lands only on the root");
        if rank == 0 {
            assert_eq!(g.as_deref(), Some(&[0u64, 2, 4, 6][..]));
        }
        assert_eq!(ag, &vec![0, 1, 2, 3]);
        let want_agv: Vec<u64> = (0..P as u64).flat_map(|r| vec![r; r as usize]).collect();
        assert_eq!(agv, &want_agv, "allgatherv concatenates in rank order");
        let want_a2a: Vec<Vec<u64>> = (0..P as u64).map(|s| vec![s * 10 + rank as u64]).collect();
        assert_eq!(a2a, &want_a2a, "alltoallv transposes");
    }
}

fn timeout_is_structural(backend: BackendKind) {
    // A receive that can never complete must surface as a Timeout on the
    // waiting rank and poison the peers, not hang.
    let cfg = RunConfig {
        backend,
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

/// Drops one specific (src, dst, tag) message (chaos conformance).
struct DropOne {
    src: usize,
    dst: usize,
    tag: Tag,
}

impl FaultHook for DropOne {
    fn on_send(&self, src: usize, dst: usize, tag: Tag, _seq: u64) -> SendFault {
        if (src, dst, tag) == (self.src, self.dst, self.tag) {
            SendFault::Drop
        } else {
            SendFault::Deliver
        }
    }
}

/// Delays every `n`-th send event by `holds` send events.
struct DelayEveryNth {
    n: u64,
    holds: u32,
}

impl FaultHook for DelayEveryNth {
    fn on_send(&self, _src: usize, _dst: usize, _tag: Tag, seq: u64) -> SendFault {
        if seq.is_multiple_of(self.n) {
            SendFault::Delay { holds: self.holds }
        } else {
            SendFault::Deliver
        }
    }
}

/// Kills `rank` when it starts phase `phase`.
struct KillAt {
    rank: usize,
    phase: u64,
}

impl FaultHook for KillAt {
    fn on_send(&self, _src: usize, _dst: usize, _tag: Tag, _seq: u64) -> SendFault {
        SendFault::Deliver
    }

    fn kill_at_phase(&self, rank: usize) -> Option<u64> {
        (rank == self.rank).then_some(self.phase)
    }
}

fn chaos_drop_times_out(backend: BackendKind) {
    let cfg = RunConfig {
        backend,
        deadline: Some(Duration::from_millis(80)),
        fault_hook: Some(Arc::new(DropOne {
            src: 0,
            dst: 1,
            tag: 7,
        })),
        ..RunConfig::default()
    };
    let results = run_config(2, cfg, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 7, 42u64);
            0
        } else {
            comm.recv::<u64>(0, 7)
        }
    });
    assert!(
        matches!(
            results[1],
            Err(CommError::Timeout {
                rank: 1,
                src: 0,
                tag: 7
            })
        ),
        "dropped message must time out structurally, got {:?}",
        results[1]
    );
}

fn chaos_delay_preserves_fifo(backend: BackendKind) {
    let cfg = RunConfig {
        backend,
        deadline: Some(Duration::from_secs(10)),
        fault_hook: Some(Arc::new(DelayEveryNth { n: 3, holds: 2 })),
        ..RunConfig::default()
    };
    let results = run_config(2, cfg, |comm| {
        if comm.rank() == 0 {
            for t in 0..4u64 {
                for i in 0..10u64 {
                    comm.send(1, 10 + t, t * 100 + i);
                }
            }
            Vec::new()
        } else {
            let mut got = Vec::new();
            for t in 0..4u64 {
                for _ in 0..10u64 {
                    got.push(comm.recv::<u64>(0, 10 + t));
                }
            }
            got
        }
    });
    let got = results[1].as_ref().expect("receiver succeeds");
    let want: Vec<u64> = (0..4u64)
        .flat_map(|t| (0..10u64).map(move |i| t * 100 + i))
        .collect();
    assert_eq!(got, &want, "delay injection must not break per-tag FIFO");
}

fn chaos_kill_poisons_group(backend: BackendKind) {
    let cfg = RunConfig {
        backend,
        deadline: Some(Duration::from_secs(10)),
        fault_hook: Some(Arc::new(KillAt { rank: 1, phase: 0 })),
        ..RunConfig::default()
    };
    let results = run_config(2, cfg, |comm| {
        if comm.rank() == 0 {
            comm.recv::<u64>(1, 3)
        } else {
            let _ = comm.fresh_tag_block(); // killed here
            comm.send(0, 3, 9u64);
            9
        }
    });
    assert!(
        matches!(results[0], Err(CommError::PeerDead { rank: 0, dead: 1 })),
        "rank 0 should observe rank 1's death, got {:?}",
        results[0]
    );
    assert!(
        matches!(results[1], Err(CommError::PeerDead { rank: 1, dead: 1 })),
        "rank 1 should report its own death, got {:?}",
        results[1]
    );
}

fn supervised_recovery(backend: BackendKind) {
    // The PR 8 supervisor must recover from a chaos kill on either
    // backend: consensus declares rank 1 dead, the group respawns with
    // the kill disarmed, and attempt 1 completes.
    let sup = SupervisorConfig {
        base: RunConfig {
            backend,
            deadline: Some(Duration::from_secs(10)),
            fault_hook: Some(Arc::new(KillAt { rank: 1, phase: 0 })),
            ..RunConfig::default()
        },
        ..SupervisorConfig::default()
    };
    let (values, report) = run_config_supervised(3, sup, |comm, info| {
        barrier(comm);
        (comm.rank(), info.attempt, info.dead_ranks.clone())
    })
    .expect("supervisor must recover from a single kill");
    for (rank, (r, attempt, dead)) in values.into_iter().enumerate() {
        assert_eq!(r, rank);
        assert_eq!(attempt, 1);
        assert_eq!(dead, vec![1]);
    }
    assert_eq!(report.attempts, 2);
    assert_eq!(report.recoveries, 1);
    assert_eq!(report.dead_ranks, vec![1]);
}

fn obs_conservation_and_backend_field(backend: BackendKind) {
    // Whatever the transport does to a payload, the recorder's per-tag
    // totals must balance exactly: Σ sent − Σ dropped == Σ received.
    // The report must also name the backend that carried the run.
    let obs = Obs::new(3);
    let cfg = RunConfig {
        backend,
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
    let report = obs.report();
    assert_eq!(report.backend, backend.name(), "report names the transport");
    let sent = report.total_sent_per_tag();
    let recvd = report.total_recvd_per_tag();
    assert!(report.total_dropped_per_tag().is_empty(), "no chaos here");
    assert_eq!(sent, recvd, "conservation: every sent byte was received");
    assert_eq!(sent.get(&11).map(|c| c.msgs), Some(3));
}

/// Generates a `mod <scenario> { threads, sockets }` pair per scenario, so
/// each backend runs the identical conformance body and the test filter
/// `threads` / `sockets` selects one column of the matrix.
macro_rules! for_each_backend {
    ($($scenario:ident),+ $(,)?) => {
        $(mod $scenario {
            #[test]
            fn threads() {
                super::$scenario(pgp_dmp::BackendKind::Threads);
            }

            #[test]
            fn sockets() {
                super::$scenario(pgp_dmp::BackendKind::Sockets);
            }
        })+
    };
}

for_each_backend!(
    ping_pong,
    selective_receive_by_tag,
    selective_receive_by_source,
    typed_payload_roundtrip,
    fifo_per_src_tag_under_collisions,
    drain_groups_by_source,
    collectives_agree,
    timeout_is_structural,
    chaos_drop_times_out,
    chaos_delay_preserves_fifo,
    chaos_kill_poisons_group,
    supervised_recovery,
    obs_conservation_and_backend_field,
);
