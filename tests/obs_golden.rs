//! Golden-report determinism: the same seed and configuration must yield
//! the *identical* `RunReport` — byte-for-byte once wall-clock fields are
//! zeroed (`zeroed().to_json()`) — across repeated runs. Any
//! nondeterminism in message counts, span structure, level metrics, or
//! refinement quality shows up here as a one-byte diff.

use pgp::parhip::{GraphClass, ParhipConfig, Partitioned, Partitioner};
use pgp::pgp_dmp::{Obs, RunConfig};
use pgp::pgp_graph::CsrGraph;
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
