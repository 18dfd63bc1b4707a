//! The front door's options are orthogonal to the result: on one seeded
//! instance, at every PE count, a plain run, a recorded run, a traced
//! run, a checkpointed run and a resume from the final snapshot produce
//! the identical assignment — and a prepartitioned run is valid and no
//! worse than what it was given.
//!
//! Every run carries a watchdog deadline, so a PE that skips a collective
//! the others enter fails this test with a `Timeout` instead of hanging it.

use pgp::parhip::{CheckpointStore, GraphClass, ParhipConfig, Partitioner};
use pgp::pgp_dmp::{Obs, RunConfig};
use pgp::pgp_obs::DEFAULT_TRACE_CAPACITY;
use std::sync::Arc;
use std::time::Duration;

/// The plain run configuration plus a watchdog deadline.
fn watched() -> RunConfig {
    RunConfig {
        deadline: Some(Duration::from_secs(60)),
        ..Default::default()
    }
}

fn recording(obs: &Arc<Obs>) -> RunConfig {
    RunConfig {
        obs: Some(Arc::clone(obs)),
        ..watched()
    }
}

#[test]
fn every_option_yields_the_plain_partition() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(600, Default::default(), 31);
    let mut cfg = ParhipConfig::fast(4, GraphClass::Social, 41);
    cfg.coarsest_nodes_per_block = 50;
    cfg.deterministic = true;
    let door = Partitioner::new(&cfg).run(watched());

    for p in [1, 2, 3] {
        let plain = door.partition(&g, p).expect("valid input").partition;
        plain.validate(&g, cfg.eps).expect("plain run is balanced");

        // The one ignored field: there is a single SCLP path, whatever it says.
        for threads_per_pe in [0, 1, 4] {
            let run = RunConfig {
                threads_per_pe,
                ..watched()
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
        let report = obs.report();
        assert_eq!(report.p, p);
        assert_eq!(report.aggregate.messages == 0, p == 1, "p={p}");

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

        let input = pgp::pgp_baselines::hash_partition(&g, cfg.k, 3);
        let improved = door.clone().prepartition(&input).partition(&g, p);
        let improved = improved.expect("valid input").partition;
        improved
            .validate(&g, cfg.eps)
            .expect("prepartitioned run is balanced");
        assert!(improved.edge_cut(&g) <= input.edge_cut(&g), "p={p}: §VI");
    }
}
