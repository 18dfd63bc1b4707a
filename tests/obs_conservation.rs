//! Conservation laws of the observability event log (the test oracle the
//! recorder buys us): message by message, every send on one PE has
//! exactly one matching receive on its destination, with the same tag,
//! per-peer sequence number and wire bytes, and every receive has exactly
//! one send — both without and under a seeded delay/reorder plan. The
//! report's per-tag totals, a fold of the same events, balance with it.

use pgp::parhip::{GraphClass, ParhipConfig, Partitioner};
use pgp::pgp_dmp::{DelayPlan, Obs, RunConfig};
use pgp::pgp_obs::{RunReport, RunTrace, TraceEventKind};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn cfg(k: usize, seed: u64) -> ParhipConfig {
    let mut c = ParhipConfig::fast(k, GraphClass::Social, seed);
    c.coarsest_nodes_per_block = 50;
    c.deterministic = true;
    c
}

/// A message's identity: (src, dst, tag, seq).
type MessageId = (usize, usize, u64, u64);

/// Every send matches exactly one receive and the reverse, in bytes too.
/// Returns the matched messages with their bytes.
fn assert_conservation(trace: &RunTrace) -> BTreeMap<MessageId, u64> {
    let mut sends: BTreeMap<MessageId, u64> = BTreeMap::new();
    let mut recvs: BTreeMap<MessageId, u64> = BTreeMap::new();
    for pe in &trace.per_pe {
        for ev in &pe.events {
            let (side, id, bytes) = match ev.kind {
                TraceEventKind::Send {
                    dst,
                    tag,
                    seq,
                    bytes,
                } => (&mut sends, (pe.rank, dst, tag, seq), bytes),
                TraceEventKind::Recv {
                    src,
                    tag,
                    seq,
                    bytes,
                } => (&mut recvs, (src, pe.rank, tag, seq), bytes),
                _ => continue,
            };
            assert_eq!(side.insert(id, bytes), None, "{id:?} logged twice");
        }
    }
    assert!(!sends.is_empty(), "the run produced no traffic at all");
    for (id, bytes) in &sends {
        assert_eq!(
            recvs.get(id),
            Some(bytes),
            "send {id:?} has no matching receive"
        );
    }
    for id in recvs.keys() {
        assert!(
            sends.contains_key(id),
            "receive {id:?} has no matching send"
        );
    }
    sends
}

/// Runs the full partitioner SPMD program under `rc` and returns the
/// recorder's report and trace (every PE must finish cleanly).
fn observed_run(rc: RunConfig, obs: Arc<Obs>, p: usize, seed: u64) -> (RunReport, RunTrace) {
    let (g, _) = pgp::pgp_gen::sbm::sbm(800, Default::default(), seed);
    let c = cfg(4, seed);
    Partitioner::new(&c)
        .run(rc)
        .partition(&g, p)
        .expect("no PE may fail structurally");
    (obs.report(), obs.trace())
}

#[test]
fn conservation_fault_free() {
    let p = 4;
    let obs = Obs::new(p);
    let rc = RunConfig {
        obs: Some(Arc::clone(&obs)),
        ..Default::default()
    };
    let (report, trace) = observed_run(rc, obs, p, 11);
    assert_eq!(report.p, p);
    let messages = assert_conservation(&trace);
    assert_eq!(report.aggregate.messages, messages.len() as u64);
    assert_eq!(report.aggregate.bytes, messages.values().sum::<u64>());
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
    // reordered across tags but never lost, so every one still matches.
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
    let (report, trace) = observed_run(rc, obs, p, 13);
    assert_conservation(&trace);
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
    let (report, trace) = observed_run(rc, obs, p, 17);
    let messages = assert_conservation(&trace);
    let collective_base = 1u64 << 48;
    assert!(
        messages
            .keys()
            .any(|&(_, _, tag, _)| tag >= collective_base),
        "expected collective traffic above the tag base"
    );
    // And the recorder saw the collectives as invocations, not just tags.
    assert!(report.aggregate.collective_calls > 0);
}
