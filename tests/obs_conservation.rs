//! Conservation laws of the observability comm counters (the test oracle
//! the recorder buys us): for every message tag, the messages and wire
//! bytes sent across the PE group equal the messages and bytes received —
//! exactly, both without and under a seeded delay/reorder plan.

use pgp::parhip::{GraphClass, ParhipConfig, Partitioner};
use pgp::pgp_dmp::{DelayPlan, Obs, RunConfig};
use pgp::pgp_obs::RunReport;
use std::sync::Arc;
use std::time::Duration;

fn cfg(k: usize, seed: u64) -> ParhipConfig {
    let mut c = ParhipConfig::fast(k, GraphClass::Social, seed);
    c.coarsest_nodes_per_block = 50;
    c.deterministic = true;
    c
}

/// Per tag: sent == received, in messages and in bytes.
fn assert_conservation(report: &RunReport) {
    let sent = report.total_sent_per_tag();
    let recvd = report.total_recvd_per_tag();
    let tags: std::collections::BTreeSet<u64> = sent.keys().chain(recvd.keys()).copied().collect();
    assert!(!tags.is_empty(), "the run produced no traffic at all");
    for tag in tags {
        let s = sent.get(&tag).copied().unwrap_or_default();
        let r = recvd.get(&tag).copied().unwrap_or_default();
        assert_eq!(
            s.msgs, r.msgs,
            "tag {tag}: {} sent != {} received (messages)",
            s.msgs, r.msgs
        );
        assert_eq!(
            s.bytes, r.bytes,
            "tag {tag}: byte conservation violated ({} sent != {} received)",
            s.bytes, r.bytes
        );
    }
}

/// Runs the full partitioner SPMD program under `rc` and returns the
/// recorder's report (every PE must finish cleanly).
fn observed_run(rc: RunConfig, obs: Arc<Obs>, p: usize, seed: u64) -> RunReport {
    let (g, _) = pgp::pgp_gen::sbm::sbm(800, Default::default(), seed);
    let c = cfg(4, seed);
    Partitioner::new(&c)
        .run(rc)
        .partition(&g, p)
        .expect("no PE may fail structurally");
    obs.report()
}

#[test]
fn conservation_fault_free() {
    let p = 4;
    let obs = Obs::new(p);
    let rc = RunConfig {
        obs: Some(Arc::clone(&obs)),
        ..Default::default()
    };
    let report = observed_run(rc, obs, p, 11);
    assert_eq!(report.p, p);
    assert_conservation(&report);
    // No delay plan: nothing delayed.
    for pe in &report.per_pe {
        assert_eq!(pe.comm.delayed, 0);
        assert_eq!(pe.orphan_exits, 0, "PE {} had orphan span exits", pe.rank);
        // The runner's closing resource sample: nonzero on Linux,
        // peak-dominant, and rolled up into the aggregate.
        let res = &pe.resources;
        assert!(res.rss_peak_kb > 0, "PE {} report RSS zero", pe.rank);
        assert!(res.rss_peak_kb >= res.rss_current_kb);
        assert!(report.aggregate.rss_peak_max_kb >= res.rss_peak_kb);
    }
}

#[test]
fn conservation_under_chaos_delay_reorder() {
    let p = 4;
    let obs = Obs::new(p);
    // 10% of sends held in limbo for 1–4 phase boundaries: messages are
    // reordered across tags but never lost, so the balance stays exact.
    let rc = RunConfig {
        deadline: Some(Duration::from_secs(60)),
        delay: Some(DelayPlan {
            seed: 0xDE1A,
            per_mille: 100,
            max_holds: 4,
        }),
        obs: Some(Arc::clone(&obs)),
        ..Default::default()
    };
    let report = observed_run(rc, obs, p, 13);
    assert_conservation(&report);
    // The plan must actually have fired for this test to mean anything.
    let delayed: u64 = report.per_pe.iter().map(|pe| pe.comm.delayed).sum();
    assert!(delayed > 0, "delay plan never fired; weaken the roll?");
}

#[test]
fn collective_tags_balance_too() {
    // Collectives ride on tags ≥ 2^48; they are subject to the same
    // conservation law, which pins down the tag-block protocol.
    let p = 2;
    let obs = Obs::new(p);
    let rc = RunConfig {
        obs: Some(Arc::clone(&obs)),
        ..Default::default()
    };
    let report = observed_run(rc, obs, p, 17);
    let collective_base = 1u64 << 48;
    let sent = report.total_sent_per_tag();
    assert!(
        sent.keys().any(|&t| t >= collective_base),
        "expected collective traffic above the tag base"
    );
    let recvd = report.total_recvd_per_tag();
    for (tag, s) in sent.iter().filter(|(&t, _)| t >= collective_base) {
        let r = recvd.get(tag).copied().unwrap_or_default();
        assert_eq!(s.msgs, r.msgs, "collective tag {tag} unbalanced");
        assert_eq!(s.bytes, r.bytes, "collective tag {tag} bytes unbalanced");
    }
    // And the recorder saw the collectives as invocations, not just tags.
    assert!(report.aggregate.collective_calls > 0);
}
