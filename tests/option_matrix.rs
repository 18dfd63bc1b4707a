//! The front door's options are orthogonal to the result: on one seeded
//! instance, at every PE count, a plain run, a recorded run and a run
//! under a cross-tag delay plan produce the identical assignment, and a
//! prepartitioned run is valid and no worse than what it was given.
//! Every run passes the closing check, so the owned + ghost blocks the
//! V-cycles carry agree with their owners.
//!
//! Every run carries a watchdog deadline, so a PE that skips a collective
//! the others enter fails this test with a `Timeout` instead of hanging it.

use pgp::parhip::{GraphClass, ParhipConfig, PartitionError, Partitioned, Partitioner};
use pgp::pgp_dmp::{DelayPlan, Obs, RunConfig};
use pgp::pgp_graph::Partition;
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

/// The partition of a run that must succeed and pass its closing check.
fn passed(out: Result<Partitioned, PartitionError>, what: &str) -> Partition {
    let out = out.unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(out.violation, None, "{what}");
    out.partition
}

#[test]
fn every_option_yields_the_plain_partition() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(600, Default::default(), 31);
    let mut cfg = ParhipConfig::fast(4, GraphClass::Social, 41);
    cfg.coarsest_nodes_per_block = 50;
    cfg.deterministic = true;
    let door = Partitioner::new(&cfg).run(watched());

    for p in [1, 2, 3] {
        let plain = passed(door.partition(&g, p), &format!("p={p}: plain"));
        plain.validate(&g, cfg.eps).expect("plain run is balanced");

        // The one ignored field: there is a single SCLP path, whatever it says.
        for threads_per_pe in [0, 1, 4] {
            let run = RunConfig {
                threads_per_pe,
                ..watched()
            };
            let what = format!("p={p}: threads_per_pe={threads_per_pe}");
            let out = door.clone().run(run).partition(&g, p);
            assert_eq!(passed(out, &what), plain, "{what}");
        }

        let obs = Obs::new(p);
        let observed = door.clone().run(recording(&obs)).partition(&g, p);
        assert_eq!(passed(observed, &format!("p={p}: Obs")), plain);
        let report = obs.report();
        assert_eq!(report.p, p);
        assert_eq!(report.aggregate.messages == 0, p == 1, "p={p}");
        assert_eq!(obs.trace().per_pe.len(), p);

        // Sends held back and reordered across tags change nothing.
        let delayed = RunConfig {
            delay: Some(DelayPlan {
                seed: 7,
                per_mille: 400,
                max_holds: 5,
            }),
            ..watched()
        };
        let out = door.clone().run(delayed).partition(&g, p);
        assert_eq!(passed(out, &format!("p={p}: delay")), plain);

        let input = pgp::pgp_baselines::hash_partition(&g, cfg.k, 3);
        let improved = door.clone().prepartition(&input).partition(&g, p);
        let improved = passed(improved, &format!("p={p}: prepartition"));
        improved
            .validate(&g, cfg.eps)
            .expect("prepartitioned run is balanced");
        assert!(improved.edge_cut(&g) <= input.edge_cut(&g), "p={p}: §VI");
    }
}
