//! Golden-trace determinism: the same seed and configuration must record
//! the *identical* event sequence — span opens/closes, sends and receives
//! with per-peer seqnos, collective entries/exits, delayed sends — across
//! repeated runs. Timestamps and receive waits are racy by nature and are
//! excluded from the signature (see `RunTrace::event_signature`);
//! everything else diverging shows up here as a line diff. The Perfetto export is also
//! structurally validated.

use pgp::parhip::{GraphClass, ParhipConfig, Partitioner};
use pgp::pgp_dmp::{Obs, RunConfig};
use pgp::pgp_graph::{CsrGraph, Partition};
use pgp::pgp_obs::{to_perfetto_json, validate_perfetto, RunTrace};
use std::sync::Arc;

fn cfg(k: usize, seed: u64) -> ParhipConfig {
    let mut c = ParhipConfig::fast(k, GraphClass::Social, seed);
    c.coarsest_nodes_per_block = 50;
    c.deterministic = true;
    c
}

/// A `Partitioner` for `c` recording event logs into `obs`.
fn tracing<'a>(c: &'a ParhipConfig, obs: &Arc<Obs>) -> Partitioner<'a> {
    Partitioner::new(c).run(RunConfig {
        obs: Some(Arc::clone(obs)),
        ..Default::default()
    })
}

/// One run under a fresh tracing recorder: the partition and its trace.
fn traced(g: &CsrGraph, p: usize, c: &ParhipConfig) -> (Partition, RunTrace) {
    let obs = Obs::new(p);
    let out = tracing(c, &obs).partition(g, p).expect("valid input");
    (out.partition, obs.trace())
}

#[test]
fn same_seed_same_event_sequence() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(600, Default::default(), 5);
    let c = cfg(4, 23);
    let (p1, t1) = traced(&g, 4, &c);
    let (p2, t2) = traced(&g, 4, &c);
    assert_eq!(p1.assignment(), p2.assignment(), "partition nondeterminism");
    assert_eq!(
        t1.event_signature(),
        t2.event_signature(),
        "trace event sequence differs between identical runs"
    );
    // A different seed records a different message pattern.
    let (_, t3) = traced(&g, 4, &cfg(4, 24));
    assert_ne!(
        t1.event_signature(),
        t3.event_signature(),
        "different seeds should not share an event signature"
    );
}

#[test]
fn perfetto_export_of_a_real_run_validates() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(500, Default::default(), 7);
    let (_, trace) = traced(&g, 2, &cfg(2, 29));
    let json = to_perfetto_json(&trace);
    let summary = validate_perfetto(&json).expect("real-run trace must validate");
    // Two PE tracks, a non-trivial number of events, resolvable flows.
    assert!(summary.contains("2 tracks"), "summary: {summary}");
    for pe in &trace.per_pe {
        assert!(!pe.events.is_empty(), "every PE records events");
    }
}
