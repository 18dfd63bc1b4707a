//! Golden-report determinism: the same seed and configuration must yield
//! the *identical* `RunReport` — byte-for-byte once wall-clock fields are
//! zeroed (`to_json(true)`) — across repeated runs and across the
//! checkpoint/resume path. Any nondeterminism in message counts, span
//! structure, level metrics, or refinement quality shows up here as a
//! one-byte diff.

use pgp::parhip::{CheckpointStore, GraphClass, ParhipConfig, Partitioner, VCycleCheckpoint};
use pgp::pgp_dmp::{Obs, RunConfig};
use pgp::pgp_graph::{CsrGraph, Partition};
use pgp::pgp_obs::{RunReport, SCHEMA_VERSION};
use std::sync::Arc;

fn cfg(k: usize, seed: u64) -> ParhipConfig {
    let mut c = ParhipConfig::fast(k, GraphClass::Social, seed);
    c.coarsest_nodes_per_block = 50;
    c.deterministic = true;
    c
}

fn recording(obs: &Arc<Obs>) -> RunConfig {
    RunConfig {
        obs: Some(Arc::clone(obs)),
        ..Default::default()
    }
}

/// One run under a fresh recorder: the partition and its report.
fn observed(g: &CsrGraph, p: usize, c: &ParhipConfig) -> (Partition, RunReport) {
    let obs = Obs::new(p);
    let out = Partitioner::new(c)
        .run(recording(&obs))
        .partition(g, p)
        .expect("valid input");
    (out.partition, obs.report())
}

#[test]
fn same_seed_same_report() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(700, Default::default(), 5);
    let c = cfg(4, 23);
    let (p1, r1) = observed(&g, 4, &c);
    let (p2, r2) = observed(&g, 4, &c);
    assert_eq!(p1.assignment(), p2.assignment(), "partition nondeterminism");
    let j1 = r1.to_json(true);
    let j2 = r2.to_json(true);
    assert_eq!(j1, j2, "RunReport differs between identical runs");
    assert!(j1.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
}

#[test]
fn report_json_roundtrips_on_a_real_run() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(500, Default::default(), 7);
    let (_, report) = observed(&g, 2, &cfg(2, 29));
    // With timings kept: parse must re-derive the identical report.
    let parsed = RunReport::from_json(&report.to_json(false)).expect("parse own output");
    assert_eq!(parsed, report);
    // With timings zeroed: serialization is a fixed point.
    let zeroed = report.to_json(true);
    let reparsed = RunReport::from_json(&zeroed).expect("parse zeroed output");
    assert_eq!(reparsed.to_json(true), zeroed);
}

/// Observed resume: replays cycles `start.cycle + 1..` from the snapshot
/// under a recorder, returning the final partition and the zeroed report.
/// (A resumed run keeps checkpointing, so each resume gets its own store.)
fn observed_resume(
    g: &CsrGraph,
    p: usize,
    c: &ParhipConfig,
    start: &VCycleCheckpoint,
) -> (Partition, String) {
    let store = CheckpointStore::new();
    store.save(start.clone());
    let obs = Obs::new(p);
    let out = Partitioner::new(c)
        .run(recording(&obs))
        .store(&store)
        .resume()
        .partition(g, p)
        .expect("the store holds a snapshot");
    (out.partition, obs.report().to_json(true))
}

fn stored(g: &CsrGraph, p: usize, c: &ParhipConfig, store: &CheckpointStore) -> Partition {
    Partitioner::new(c)
        .store(store)
        .partition(g, p)
        .expect("valid input")
        .partition
}

/// The report is deterministic across the checkpoint/resume path too: two
/// resumes from the same cycle-0 snapshot record byte-identical reports,
/// and reproduce the uninterrupted run's partition bit-identically.
#[test]
fn golden_report_across_checkpoint_resume() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(600, Default::default(), 9);
    let mut c = cfg(2, 31);
    c.vcycles = 3;
    let full_store = CheckpointStore::new();
    let full = stored(&g, 2, &c, &full_store);
    // The snapshot a fault would have left after cycle 0: a 1-cycle run of
    // the same config computes identical cycle-0 state (`vcycles` is only
    // the loop bound); patch the config fingerprint accordingly.
    let mut one = c.clone();
    one.vcycles = 1;
    let early_store = CheckpointStore::new();
    let _ = stored(&g, 2, &one, &early_store);
    let mut cycle0 = early_store.latest().expect("cycle-0 snapshot");
    assert_eq!(cycle0.cycle, 0);
    cycle0.config_fingerprint = c.fingerprint();

    let (a1, j1) = observed_resume(&g, 2, &c, &cycle0);
    let (a2, j2) = observed_resume(&g, 2, &c, &cycle0);
    assert_eq!(a1, a2, "resumed partition nondeterminism");
    assert_eq!(j1, j2, "RunReport differs between identical resumes");
    assert_eq!(a1, full, "resume diverged from the uninterrupted run");
}
