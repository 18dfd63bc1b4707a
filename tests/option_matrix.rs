//! The front door's options are orthogonal to the result: on one seeded
//! instance, at every PE count, a plain run, a recorded run, a traced
//! run, a run over the socket backend, a checkpointed run, a resume from
//! the final snapshot and a fault-free supervised run produce the identical
//! assignment (the two backends also count the same messages and
//! collectives) — and a prepartitioned run is valid and no worse than what
//! it was given.

use pgp::parhip::{CheckpointStore, GraphClass, ParhipConfig, Partitioner, RecoveryLimits};
use pgp::pgp_dmp::{BackendKind, Obs, RunConfig};
use pgp::pgp_obs::DEFAULT_TRACE_CAPACITY;
use std::sync::Arc;

fn recording(obs: &Arc<Obs>) -> RunConfig {
    RunConfig {
        obs: Some(Arc::clone(obs)),
        ..Default::default()
    }
}

#[test]
fn every_option_yields_the_plain_partition() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(600, Default::default(), 31);
    let mut cfg = ParhipConfig::fast(4, GraphClass::Social, 41);
    cfg.coarsest_nodes_per_block = 50;
    cfg.deterministic = true;
    let door = Partitioner::new(&cfg);

    for p in [1, 2, 3] {
        let plain = door.partition(&g, p).expect("valid input");
        assert!(
            plain.recovery.is_none(),
            "p={p}: nobody asked for supervision"
        );
        let plain = plain.partition;
        plain.validate(&g, cfg.eps).expect("plain run is balanced");

        // The one ignored field: there is a single SCLP path, whatever it says.
        for threads_per_pe in [0, 1, 4] {
            let run = RunConfig {
                threads_per_pe,
                ..Default::default()
            };
            let out = door.clone().run(run).partition(&g, p);
            assert_eq!(
                out.expect("valid input").partition,
                plain,
                "p={p}: threads_per_pe={threads_per_pe}"
            );
        }

        let obs = Obs::new(p);
        let observed = door.clone().run(recording(&obs)).partition(&g, p);
        assert_eq!(
            observed.expect("valid input").partition,
            plain,
            "p={p}: Obs"
        );
        let threads = obs.report();
        assert_eq!(threads.p, p);

        let obs = Obs::new(p);
        let run = RunConfig {
            backend: BackendKind::Sockets,
            ..recording(&obs)
        };
        let socketed = door.clone().run(run).partition(&g, p);
        assert_eq!(
            socketed.expect("valid input").partition,
            plain,
            "p={p}: sockets"
        );
        let sockets = obs.report();
        assert_eq!(sockets.backend, "sockets");
        assert_eq!(
            (
                sockets.aggregate.messages,
                sockets.aggregate.collective_calls
            ),
            (
                threads.aggregate.messages,
                threads.aggregate.collective_calls
            ),
            "p={p}: both transports count the same sends and collectives"
        );
        assert_eq!(threads.aggregate.messages == 0, p == 1, "p={p}");

        let obs = Obs::with_trace(p, DEFAULT_TRACE_CAPACITY);
        let traced = door.clone().run(recording(&obs)).partition(&g, p);
        assert_eq!(
            traced.expect("valid input").partition,
            plain,
            "p={p}: trace"
        );
        assert!(obs.trace().is_some_and(|t| t.per_pe.len() == p));

        let store = CheckpointStore::new();
        let stored = door.clone().store(&store).partition(&g, p);
        assert_eq!(
            stored.expect("valid input").partition,
            plain,
            "p={p}: store"
        );
        let last = store.latest().expect("a finished store holds the result");
        assert_eq!(last.cycle, cfg.vcycles - 1, "p={p}: last V-cycle wins");
        assert_eq!(last.assignment, plain.assignment());

        // Resuming from the final snapshot replays zero cycles.
        let resumed = door.clone().store(&store).resume().partition(&g, p);
        assert_eq!(resumed.expect("snapshot").partition, plain, "p={p}: resume");

        let supervised = door
            .clone()
            .supervised(RecoveryLimits::default())
            .partition(&g, p)
            .expect("a fault-free run needs no recovery budget");
        assert_eq!(supervised.partition, plain, "p={p}: supervised");
        let recovery = supervised
            .recovery
            .expect("supervised runs report recovery");
        assert_eq!((recovery.attempts, recovery.lost_cycles), (1, 0), "p={p}");

        let input = pgp::pgp_baselines::hash_partition(&g, cfg.k, 3);
        let improved = door.clone().prepartition(&input).partition(&g, p);
        let improved = improved.expect("valid input").partition;
        improved
            .validate(&g, cfg.eps)
            .expect("prepartitioned run is balanced");
        assert!(improved.edge_cut(&g) <= input.edge_cut(&g), "p={p}: §VI");
    }
}
