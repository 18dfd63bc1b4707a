//! Golden-report determinism: the same seed and configuration must yield
//! the *identical* `RunReport` — byte-for-byte once wall-clock fields are
//! zeroed (`zeroed().to_json()`) — across repeated runs and across the
//! checkpoint/resume path. Any nondeterminism in message counts, span
//! structure, level metrics, or refinement quality shows up here as a
//! one-byte diff.

use pgp::parhip::{
    CheckpointStore, GraphClass, ParhipConfig, Partitioned, Partitioner, VCycleCheckpoint,
};
use pgp::pgp_dmp::{Obs, RunConfig};
use pgp::pgp_graph::{CsrGraph, Partition};
use pgp::pgp_obs::{JsonValue, RunReport, SCHEMA_VERSION};
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

/// One run under a fresh recorder: its result and its report.
fn observed(g: &CsrGraph, p: usize, c: &ParhipConfig) -> (Partitioned, RunReport) {
    let obs = Obs::new(p);
    let out = Partitioner::new(c)
        .run(recording(&obs))
        .partition(g, p)
        .expect("valid input");
    (out, obs.report())
}

#[test]
fn same_seed_same_report() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(700, Default::default(), 5);
    let c = cfg(4, 23);
    let (p1, r1) = observed(&g, 4, &c);
    let (p2, r2) = observed(&g, 4, &c);
    assert_eq!(
        p1.partition.assignment(),
        p2.partition.assignment(),
        "partition nondeterminism"
    );
    let j1 = r1.zeroed().to_json();
    let j2 = r2.zeroed().to_json();
    assert_eq!(j1, j2, "RunReport differs between identical runs");
    assert!(j1.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
}

#[test]
fn report_json_roundtrips_on_a_real_run() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(500, Default::default(), 7);
    let (_, report) = observed(&g, 2, &cfg(2, 29));
    // What the report writes parses, and has only keys the schema names.
    let parsed = JsonValue::parse(&report.to_json()).expect("parse own output");
    let paths = parsed.key_paths();
    let schema = RunReport::schema_fingerprint();
    assert!(paths.len() > 40, "a real run fills most of the schema");
    for path in paths {
        assert!(schema.contains(&path), "{path} is not in the schema");
    }
}

/// The report's quality snapshots use the partition's own imbalance: with
/// a node count `k` does not divide, the last refinement pass records the
/// imbalance the run returns.
#[test]
fn report_imbalance_is_the_run_imbalance() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(601, Default::default(), 11);
    assert_ne!(g.total_node_weight() % 4, 0);
    let (out, report) = observed(&g, 2, &cfg(4, 37));
    let last = report.per_pe[0].refinements.last().expect("refinements");
    assert_eq!(last.imbalance, out.stats.imbalance);
    assert_eq!(last.imbalance, out.partition.imbalance(&g));
    assert_eq!(report.aggregate.final_cut, Some(out.stats.cut));
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
    (out.partition, obs.report().zeroed().to_json())
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
