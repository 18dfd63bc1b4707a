//! Golden-trace determinism: the same seed and configuration must record
//! the *identical* event sequence — span opens/closes, sends with per-peer
//! seqnos, collective entries/exits, fault incidents — across repeated
//! runs and across the checkpoint/resume path. Timestamps and receive
//! waits are racy by nature and are excluded from the signature (see
//! `RunTrace::event_signature`); everything else diverging shows up here
//! as a line diff. The Perfetto export is also structurally validated.

use pgp::parhip::{CheckpointStore, GraphClass, ParhipConfig, Partitioner, VCycleCheckpoint};
use pgp::pgp_dmp::{Obs, RunConfig};
use pgp::pgp_graph::{CsrGraph, Partition};
use pgp::pgp_obs::{to_perfetto_json, validate_perfetto, RunTrace, DEFAULT_TRACE_CAPACITY};
use std::sync::Arc;

fn cfg(k: usize, seed: u64) -> ParhipConfig {
    let mut c = ParhipConfig::fast(k, GraphClass::Social, seed);
    c.coarsest_nodes_per_block = 50;
    c.deterministic = true;
    c
}

/// A `Partitioner` for `c` recording event rings into `obs`.
fn tracing<'a>(c: &'a ParhipConfig, obs: &Arc<Obs>) -> Partitioner<'a> {
    Partitioner::new(c).run(RunConfig {
        obs: Some(Arc::clone(obs)),
        ..Default::default()
    })
}

/// One run under a fresh tracing recorder: the partition and its trace.
fn traced(g: &CsrGraph, p: usize, c: &ParhipConfig) -> (Partition, RunTrace) {
    let obs = Obs::with_trace(p, DEFAULT_TRACE_CAPACITY);
    let out = tracing(c, &obs).partition(g, p).expect("valid input");
    let trace = obs.trace().expect("registry was built with tracing on");
    (out.partition, trace)
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
        assert_eq!(pe.dropped, 0, "default capacity must not drop events");
        assert!(!pe.events.is_empty(), "every PE records events");
    }
}

/// Traced resume: replays cycles `start.cycle + 1..` from the snapshot
/// under a tracing recorder, returning the partition and the trace. (A
/// resumed run keeps checkpointing, so each resume gets its own store.)
fn traced_resume(
    g: &CsrGraph,
    p: usize,
    c: &ParhipConfig,
    start: &VCycleCheckpoint,
) -> (Partition, RunTrace) {
    let store = CheckpointStore::new();
    store.save(start.clone());
    let obs = Obs::with_trace(p, DEFAULT_TRACE_CAPACITY);
    let out = tracing(c, &obs)
        .store(&store)
        .resume()
        .partition(g, p)
        .expect("the store holds a snapshot");
    let trace = obs.trace().expect("registry was built with tracing on");
    (out.partition, trace)
}

fn stored(g: &CsrGraph, p: usize, c: &ParhipConfig, store: &CheckpointStore) -> Partition {
    Partitioner::new(c)
        .store(store)
        .partition(g, p)
        .expect("valid input")
        .partition
}

/// The event sequence is deterministic across the checkpoint/resume path
/// too: two resumes from the same cycle-0 snapshot record identical
/// signatures, reproduce the uninterrupted run's partition, and start
/// their trace clocks at the snapshot's epoch offset.
#[test]
fn golden_trace_across_checkpoint_resume() {
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
    // The unobserved runs above carry no epoch; give the snapshot one so
    // the resumed timeline provably starts past it.
    cycle0.elapsed_ns = 5_000_000_000;

    let (a1, t1) = traced_resume(&g, 2, &c, &cycle0);
    let (a2, t2) = traced_resume(&g, 2, &c, &cycle0);
    assert_eq!(a1, a2, "resumed partition nondeterminism");
    assert_eq!(
        t1.event_signature(),
        t2.event_signature(),
        "trace event sequence differs between identical resumes"
    );
    assert_eq!(a1, full, "resume diverged from the uninterrupted run");
    // Epoch continuity: the resumed V-cycle work sits after the snapshot's
    // elapsed time, so stitching original + resumed traces stays monotone.
    // (The graph-distribution preamble runs before the checkpoint's offset
    // is applied and may predate it; the replayed cycles must not.)
    for pe in &t1.per_pe {
        let last = pe.events.last().expect("every PE records events");
        assert!(
            last.ts_ns >= 5_000_000_000,
            "resumed work on rank {} ended at {} ns, before the snapshot epoch",
            pe.rank,
            last.ts_ns
        );
    }
    // And the resumed trace still exports as valid Perfetto JSON.
    validate_perfetto(&to_perfetto_json(&t1)).expect("resumed trace must validate");
}
