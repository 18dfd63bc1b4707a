//! Cross-backend golden equivalence (DESIGN.md §15): the full partition
//! pipeline must be *byte-identical* between the thread-mailbox and the
//! Unix-socket comm backends — same assignment, same cut and balance,
//! same message and collective counters — on seeded social-network
//! instances (BA and SBM). Only payload *bytes* may differ (the socket
//! backend counts framed wire bytes, threads count in-memory size), and
//! the report's `backend` field naturally names each transport.

use parhip::{GraphClass, ParhipConfig, Partitioner};
use pgp_dmp::{BackendKind, RunConfig};
use pgp_graph::{CsrGraph, Partition};
use pgp_obs::RunReport;
use std::collections::BTreeMap;

fn run_backend(
    g: &CsrGraph,
    p: usize,
    cfg: &ParhipConfig,
    backend: BackendKind,
) -> (Partition, RunReport) {
    let obs = pgp_obs::Obs::new(p);
    let run = RunConfig {
        backend,
        obs: Some(obs.clone()),
        ..Default::default()
    };
    let out = Partitioner::new(cfg)
        .run(run)
        .partition(g, p)
        .expect("valid input");
    (out.partition, obs.report())
}

/// Per-tag *message* counts (bytes excluded — the backends legitimately
/// count payload size differently; message counts must match exactly).
fn msgs_per_tag(report: &RunReport) -> BTreeMap<u64, u64> {
    report
        .total_sent_per_tag()
        .into_iter()
        .map(|(tag, c)| (tag, c.msgs))
        .collect()
}

fn assert_golden_equivalence(name: &str, g: &CsrGraph, p: usize, cfg: &ParhipConfig) {
    let (part_t, rep_t) = run_backend(g, p, cfg, BackendKind::Threads);
    let (part_s, rep_s) = run_backend(g, p, cfg, BackendKind::Sockets);

    // The partition itself: identical block for every node.
    assert_eq!(
        part_t, part_s,
        "{name}: threads and sockets must produce the identical partition"
    );
    part_t
        .validate(g, cfg.eps)
        .unwrap_or_else(|e| panic!("{name}: invalid partition: {e}"));

    // Quality metrics as recorded by the observation layer.
    assert_eq!(
        rep_t.aggregate.final_cut, rep_s.aggregate.final_cut,
        "{name}: final cut must match"
    );
    assert_eq!(
        rep_t.aggregate.max_imbalance, rep_s.aggregate.max_imbalance,
        "{name}: max imbalance must match"
    );
    assert_eq!(part_t.edge_cut(g), part_s.edge_cut(g), "{name}: edge cut");

    // The communication structure: same messages on the same tags, same
    // collective count. (Bytes differ by design: wire framing vs
    // in-memory size.)
    assert_eq!(
        rep_t.aggregate.messages, rep_s.aggregate.messages,
        "{name}: total message count must match"
    );
    assert_eq!(
        rep_t.aggregate.collective_calls, rep_s.aggregate.collective_calls,
        "{name}: collective call count must match"
    );
    assert_eq!(
        msgs_per_tag(&rep_t),
        msgs_per_tag(&rep_s),
        "{name}: per-tag message counts must match"
    );

    // The one field allowed to differ names each transport.
    assert_eq!(rep_t.backend, "threads");
    assert_eq!(rep_s.backend, "sockets");
}

#[test]
fn ba_instance_is_backend_invariant() {
    let g = pgp_gen::ba::barabasi_albert(5_000, 3, 42);
    let mut cfg = ParhipConfig::fast(4, GraphClass::Social, 42);
    cfg.deterministic = true;
    assert_golden_equivalence("ba(5000, 3, seed 42)", &g, 3, &cfg);
}

#[test]
fn sbm_instance_is_backend_invariant() {
    let (g, _truth) = pgp_gen::sbm::sbm(4_000, pgp_gen::sbm::SbmParams::default(), 7);
    let g = pgp_gen::ensure_connected(g);
    let mut cfg = ParhipConfig::fast(4, GraphClass::Social, 7);
    cfg.deterministic = true;
    assert_golden_equivalence("sbm(4000, seed 7)", &g, 3, &cfg);
}
