//! The schema-versioned structured run report.
//!
//! Each block lists its fields once, in the `field_lists!` table at the
//! end of this file, and prints through the one JSON printer
//! ([`JsonValue::write`]). Ordering is **fully
//! deterministic**: phases sorted by path (BTreeMap order), per-tag
//! counters sorted by tag ascending, collectives sorted by name.
//! [`RunReport::zeroed`] empties every wall-clock or racy field, so
//! reports from two runs with the same seed and config compare
//! byte-for-byte (the golden determinism tests rely on this).

use std::collections::BTreeMap;

use crate::json::{JsonValue, ToValue};
use crate::metrics::{LevelWork, WaitHistogram};
use crate::recorder::PeState;
use crate::resources::ResourceSample;
use crate::trace::TraceEventKind;

/// Report schema version. Bump whenever the JSON shape changes (fields
/// added, removed or renamed); the `schema_fingerprint` test guards this.
/// The shape is: `schema_version`, `p`, one `per_pe` entry per rank
/// (phases, comm counters with the receive-wait histogram and per-peer
/// blame, per-level work, orphan exits, resources) and the
/// `aggregate` block derived from them. CHANGES.md records how it got
/// here.
pub const SCHEMA_VERSION: u32 = 10;

/// A complete observed run: per-PE detail plus cross-PE aggregates.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Schema version of this report ([`SCHEMA_VERSION`] at creation).
    pub schema_version: u32,
    /// Number of PEs in the run.
    pub p: usize,
    /// Per-PE reports, rank ascending.
    pub per_pe: Vec<PeReport>,
    /// Cross-PE aggregates.
    pub aggregate: Aggregate,
}

/// Everything one PE observed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PeReport {
    /// The PE's rank.
    pub rank: usize,
    /// Closed-span aggregates, path ascending.
    pub phases: Vec<PhaseEntry>,
    /// Communication counters.
    pub comm: CommReport,
    /// One record per SCLP cluster call, initial partitioning and SCLP
    /// refine call, recording order.
    pub work: Vec<LevelWork>,
    /// Span exits dropped because their name did not match the innermost
    /// open span. Always 0 for RAII-guarded instrumentation.
    pub orphan_exits: u64,
    /// The PE's last resource sample (RSS, thread-CPU). Wall-clock
    /// observations — zeroed by [`RunReport::zeroed`].
    pub resources: ResourceSample,
}

/// One span path's aggregate timing.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseEntry {
    /// Full span path, e.g. `vcycle/coarsen/contract`.
    pub path: String,
    /// Number of closures.
    pub count: u64,
    /// Total seconds (wall clock); zeroed by [`RunReport::zeroed`].
    pub total_s: f64,
}

/// One PE's communication counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommReport {
    /// Sent messages/bytes, tag ascending.
    pub sent: Vec<TagEntry>,
    /// Received messages/bytes, tag ascending.
    pub recvd: Vec<TagEntry>,
    /// Collective invocation counts, name ascending.
    pub collectives: Vec<CollectiveEntry>,
    /// Seconds blocked in receive waits; zeroed by [`RunReport::zeroed`].
    pub recv_wait_s: f64,
    /// Number of receive waits that actually blocked. Whether a wait
    /// blocks is a race against the sender, so this (and the histogram
    /// and blame below) is emptied by [`RunReport::zeroed`].
    pub recv_wait_count: u64,
    /// Receive-wait latency distribution: sparse √2-log-bucket counts,
    /// bucket index ascending (see `WaitHistogram`). The aggregate's
    /// p50/p95/p99 are derived from these.
    pub recv_wait_hist: Vec<HistBucketEntry>,
    /// Receive-wait seconds blamed on each awaited source PE, peer
    /// ascending.
    pub recv_wait_by_peer: Vec<PeerWaitEntry>,
    /// Sends held in limbo queues by a delay plan.
    pub delayed: u64,
}

/// One sparse histogram bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistBucketEntry {
    /// Bucket index (see `WaitHistogram::bucket_lower_bound`).
    pub bucket: u32,
    /// Values recorded in this bucket.
    pub count: u64,
}

/// Receive-wait blame for one awaited peer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeerWaitEntry {
    /// The awaited source PE.
    pub peer: usize,
    /// Seconds this PE spent blocked waiting on that peer.
    pub wait_s: f64,
}

/// Messages/bytes for one tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TagEntry {
    /// The message tag (collective tags are ≥ 2^48).
    pub tag: u64,
    /// Message count.
    pub msgs: u64,
    /// Payload bytes: what the messages would occupy between MPI
    /// processes, with no header. Computed once per message when it is
    /// sent, so the send and receive sides agree exactly.
    pub bytes: u64,
}

/// Invocation count for one collective.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollectiveEntry {
    /// Collective name (`barrier`, `allreduce`, …).
    pub name: String,
    /// Invocation count.
    pub count: u64,
}

/// Cross-PE aggregates, derived from `per_pe` by
/// [`Aggregate::from_per_pe`], so they cannot drift from the detail.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Aggregate {
    /// Total messages sent across all PEs.
    pub messages: u64,
    /// Total payload bytes sent across all PEs.
    pub bytes: u64,
    /// Total collective invocations across all PEs.
    pub collective_calls: u64,
    /// Total seconds blocked in receive waits across all PEs. A plain sum — it hides skew, which is why the
    /// max (and its owner) and the quantiles below exist.
    pub recv_wait_s: f64,
    /// The largest single-PE receive-wait total.
    pub recv_wait_max_s: f64,
    /// Rank of the PE owning `recv_wait_max_s` (0 when no PE waited).
    pub recv_wait_max_pe: usize,
    /// Median single-wait latency across all PEs, re-derived from the
    /// merged per-PE histograms (bucket lower-bound resolution).
    pub recv_wait_p50_s: f64,
    /// 95th-percentile single-wait latency (as `recv_wait_p50_s`).
    pub recv_wait_p95_s: f64,
    /// 99th-percentile single-wait latency (as `recv_wait_p50_s`).
    pub recv_wait_p99_s: f64,
    /// Edge cut after the last recorded refine call (rank 0's view; the
    /// value is global). `None` when no refine call was recorded.
    pub final_cut: Option<u64>,
    /// Maximum imbalance over all recorded refine calls (rank 0).
    pub max_imbalance: f64,
    /// Largest per-PE peak RSS (KiB) — the number a semi-external run's
    /// memory-budget proof cares about. All PEs share one address space,
    /// so this is the process peak.
    pub rss_peak_max_kb: u64,
    /// Total thread-CPU seconds across the PE threads.
    pub thread_cpu_total_s: f64,
    /// Span aggregates summed across PEs, path ascending.
    pub phases: Vec<PhaseEntry>,
}

impl PeReport {
    /// Folds a finished PE cell's event log into its report form: span
    /// counts and nanoseconds per path from open/close pairs, messages and
    /// bytes per tag, collective counts, the receive-wait histogram and
    /// per-peer blame, and the delayed sends.
    pub(crate) fn from_state(rank: usize, st: &PeState) -> Self {
        let mut phases: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        let mut open: Vec<u64> = Vec::new();
        let mut sent: BTreeMap<u64, TagEntry> = BTreeMap::new();
        let mut recvd: BTreeMap<u64, TagEntry> = BTreeMap::new();
        let mut collectives: BTreeMap<&str, u64> = BTreeMap::new();
        let mut hist = WaitHistogram::default();
        let mut by_peer: BTreeMap<usize, u64> = BTreeMap::new();
        let mut delayed = 0;
        let tally = |map: &mut BTreeMap<u64, TagEntry>, tag, bytes| {
            let e = map.entry(tag).or_insert(TagEntry {
                tag,
                msgs: 0,
                bytes: 0,
            });
            e.msgs += 1;
            e.bytes += bytes;
        };
        for ev in &st.events {
            match &ev.kind {
                TraceEventKind::SpanOpen { .. } => open.push(ev.ts_ns),
                TraceEventKind::SpanClose { path } => {
                    // Only a matched exit is logged, so closes pair with
                    // opens like brackets.
                    let start = open.pop().expect("a span closes after it opens");
                    let slot = phases.entry(path).or_default();
                    slot.0 += 1;
                    slot.1 += ev.ts_ns.saturating_sub(start);
                }
                TraceEventKind::Send { tag, bytes, .. } => tally(&mut sent, *tag, *bytes),
                TraceEventKind::Recv { tag, bytes, .. } => tally(&mut recvd, *tag, *bytes),
                TraceEventKind::RecvWait { src, wait_ns, .. } => {
                    hist.record(*wait_ns);
                    *by_peer.entry(*src).or_insert(0) += wait_ns;
                }
                TraceEventKind::CollectiveEnter { name } => {
                    *collectives.entry(name).or_insert(0) += 1
                }
                TraceEventKind::CollectiveExit { .. } => {}
                TraceEventKind::Delay { .. } => delayed += 1,
            }
        }
        PeReport {
            rank,
            phases: phases
                .into_iter()
                .map(|(path, (count, ns))| PhaseEntry {
                    path: path.to_string(),
                    count,
                    total_s: ns as f64 / 1e9,
                })
                .collect(),
            comm: CommReport {
                sent: sent.into_values().collect(),
                recvd: recvd.into_values().collect(),
                collectives: collectives
                    .into_iter()
                    .map(|(name, count)| CollectiveEntry {
                        name: name.to_string(),
                        count,
                    })
                    .collect(),
                recv_wait_s: hist.total_ns as f64 / 1e9,
                recv_wait_count: hist.count,
                recv_wait_hist: hist
                    .buckets
                    .into_iter()
                    .map(|(bucket, count)| HistBucketEntry { bucket, count })
                    .collect(),
                recv_wait_by_peer: by_peer
                    .into_iter()
                    .map(|(peer, ns)| PeerWaitEntry {
                        peer,
                        wait_s: ns as f64 / 1e9,
                    })
                    .collect(),
                delayed,
            },
            work: st.work.clone(),
            orphan_exits: st.orphan_exits,
            resources: st.resources,
        }
    }
}

impl Aggregate {
    /// Derives the aggregate block from the per-PE detail.
    pub fn from_per_pe(per_pe: &[PeReport]) -> Self {
        let mut agg = Aggregate::default();
        let mut phase_sums: BTreeMap<String, (u64, f64)> = BTreeMap::new();
        let mut merged_hist = WaitHistogram::default();
        for pe in per_pe {
            for e in &pe.comm.sent {
                agg.messages += e.msgs;
                agg.bytes += e.bytes;
            }
            for c in &pe.comm.collectives {
                agg.collective_calls += c.count;
            }
            agg.recv_wait_s += pe.comm.recv_wait_s;
            if pe.comm.recv_wait_s > agg.recv_wait_max_s {
                agg.recv_wait_max_s = pe.comm.recv_wait_s;
                agg.recv_wait_max_pe = pe.rank;
            }
            agg.rss_peak_max_kb = agg.rss_peak_max_kb.max(pe.resources.rss_peak_kb);
            agg.thread_cpu_total_s += pe.resources.thread_cpu_s;
            for e in &pe.comm.recv_wait_hist {
                *merged_hist.buckets.entry(e.bucket).or_insert(0) += e.count;
                merged_hist.count += e.count;
            }
            for ph in &pe.phases {
                let slot = phase_sums.entry(ph.path.clone()).or_insert((0, 0.0));
                slot.0 += ph.count;
                slot.1 += ph.total_s;
            }
        }
        agg.recv_wait_p50_s = merged_hist.quantile_ns(0.50) as f64 / 1e9;
        agg.recv_wait_p95_s = merged_hist.quantile_ns(0.95) as f64 / 1e9;
        agg.recv_wait_p99_s = merged_hist.quantile_ns(0.99) as f64 / 1e9;
        if let Some(pe0) = per_pe.first() {
            agg.final_cut = pe0.work.iter().rev().find_map(|w| w.cut);
            agg.max_imbalance = pe0
                .work
                .iter()
                .filter_map(|w| w.imbalance)
                .fold(0.0, f64::max);
        }
        agg.phases = phase_sums
            .into_iter()
            .map(|(path, (count, total_s))| PhaseEntry {
                path,
                count,
                total_s,
            })
            .collect();
        agg
    }
}

impl RunReport {
    /// Serializes the report as it is, through the one JSON printer.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        self.to_value().write(&mut out, 0);
        out.push('\n');
        out
    }

    /// The report with every wall-clock or racy per-PE field zeroed —
    /// span totals, receive-wait seconds, wait counts, the wait histogram
    /// and blame (whether a receive blocks is a race against the sender),
    /// resource samples — and the aggregate re-derived from what is left.
    /// What remains is a pure function of the run's deterministic
    /// observations; imbalance, derived from integer weights, stays.
    pub fn zeroed(mut self) -> RunReport {
        for pe in &mut self.per_pe {
            for ph in &mut pe.phases {
                ph.total_s = 0.0;
            }
            let comm = &mut pe.comm;
            comm.recv_wait_s = 0.0;
            comm.recv_wait_count = 0;
            comm.recv_wait_hist.clear();
            comm.recv_wait_by_peer.clear();
            pe.resources = ResourceSample::default();
        }
        self.aggregate = Aggregate::from_per_pe(&self.per_pe);
        self
    }

    /// The sorted set of JSON key paths this schema produces. The schema
    /// guard test pins this against a golden list: changing the shape
    /// without bumping [`SCHEMA_VERSION`] fails that test.
    pub fn schema_fingerprint() -> Vec<String> {
        // One observation of each kind, so every array has an element.
        let obs = crate::recorder::Obs::new(1);
        let rec = obs.recorder(0);
        drop(rec.span("a"));
        rec.on_send(0, 1, 1);
        rec.on_recv(0, 1, 1);
        drop(rec.collective_span("barrier"));
        rec.end_wait(rec.start_wait(0, 1));
        rec.record_work(LevelWork::default());
        obs.report().to_value().key_paths()
    }
}

/// Implements [`ToValue`] for each report block from its one field list:
/// the fields print in the order listed, each under its own name. This
/// table is the schema `schema_fingerprint_is_pinned` pins.
macro_rules! field_lists {
    ($($block:ty { $($field:ident),* $(,)? })*) => {$(
        impl ToValue for $block {
            fn to_value(&self) -> JsonValue {
                JsonValue::Obj(vec![$((stringify!($field).to_string(), self.$field.to_value())),*])
            }
        }
    )*};
}

field_lists! {
    RunReport { schema_version, p, per_pe, aggregate }
    PeReport { rank, phases, comm, work, orphan_exits, resources }
    PhaseEntry { path, count, total_s }
    CommReport {
        sent, recvd, collectives, recv_wait_s, recv_wait_count, recv_wait_hist,
        recv_wait_by_peer, delayed,
    }
    TagEntry { tag, msgs, bytes }
    CollectiveEntry { name, count }
    HistBucketEntry { bucket, count }
    PeerWaitEntry { peer, wait_s }
    LevelWork {
        cycle, level, stage, n_global, m_global, n_local, n_ghost, rounds, moves,
        edges_scanned, cut, imbalance,
    }
    ResourceSample { rss_current_kb, rss_peak_kb, thread_cpu_s }
    Aggregate {
        messages, bytes, collective_calls, recv_wait_s, recv_wait_max_s, recv_wait_max_pe,
        recv_wait_p50_s, recv_wait_p95_s, recv_wait_p99_s, final_cut, max_imbalance,
        rss_peak_max_kb, thread_cpu_total_s, phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Obs;

    fn sample_report() -> RunReport {
        let obs = Obs::new(2);
        let r0 = obs.recorder(0);
        let r1 = obs.recorder(1);
        {
            let _v = r0.span("vcycle");
            let _c = r0.span("coarsen");
            r0.on_send(1, 7, 24);
            r0.on_send(1, 1 << 48, 8);
            drop(r0.collective_span("barrier"));
        }
        r1.on_recv(0, 7, 24);
        r1.on_recv(0, 1 << 48, 8);
        drop(r1.collective_span("barrier"));
        r1.end_wait(r1.start_wait(0, 7));
        r0.record_work(LevelWork {
            stage: "refine",
            n_global: 100,
            m_global: 400,
            rounds: 1,
            edges_scanned: 90,
            cut: Some(42),
            imbalance: Some(0.03),
            ..LevelWork::default()
        });
        r0.sample_resources();
        obs.report()
    }

    #[test]
    fn zeroed_report_keeps_only_deterministic_fields() {
        let json = sample_report().zeroed().to_json();
        assert!(!json.contains("total_s\": 0."), "timings must be zeroed");
        assert!(json.contains("\"schema_version\": 10"));
        assert!(json.contains("\"final_cut\": 42"));
        assert!(
            json.contains("\"imbalance\": 0.03"),
            "imbalance survives zeroing"
        );
        assert!(
            json.contains("\"recv_wait_count\": 0") && json.contains("\"recv_wait_hist\": []"),
            "racy wait observations must be emptied: {json}"
        );
        assert!(json.contains("\"recv_wait_by_peer\": []"));
        assert!(
            json.contains("\"resources\": {\"rss_current_kb\": 0, \"rss_peak_kb\": 0"),
            "resource samples must be zeroed: {json}"
        );
        assert!(
            json.contains("\"rss_peak_max_kb\": 0"),
            "resource aggregates must be zeroed: {json}"
        );
    }

    #[test]
    fn report_is_a_fold_of_the_event_log() {
        let report = sample_report();
        let (pe0, pe1) = (&report.per_pe[0], &report.per_pe[1]);
        let paths: Vec<(&str, u64)> = pe0
            .phases
            .iter()
            .map(|p| (p.path.as_str(), p.count))
            .collect();
        assert_eq!(paths, [("vcycle", 1), ("vcycle/coarsen", 1)]);
        assert_eq!(pe0.comm.sent, pe1.comm.recvd, "per tag, sent == received");
        assert_eq!(
            pe0.comm.sent[0],
            TagEntry {
                tag: 7,
                msgs: 1,
                bytes: 24
            }
        );
        assert_eq!(pe1.comm.collectives[0].name, "barrier");
        assert_eq!(pe1.comm.recv_wait_count, 1);
        assert_eq!(pe1.comm.recv_wait_by_peer[0].peer, 0);
        assert_eq!(report.aggregate.collective_calls, 2);
    }

    #[test]
    fn aggregate_max_wait_names_owning_pe() {
        let mut report = sample_report();
        // Give PE 0 a bigger wait than PE 1 by hand and re-derive.
        report.per_pe[0].comm.recv_wait_s = 2.5;
        report.aggregate = Aggregate::from_per_pe(&report.per_pe);
        assert_eq!(report.aggregate.recv_wait_max_s, 2.5);
        assert_eq!(report.aggregate.recv_wait_max_pe, 0);
        assert!(report.aggregate.recv_wait_s >= 2.5, "sum includes the max");
    }

    /// Schema guard: if this test fails because the key set changed, bump
    /// [`SCHEMA_VERSION`] and update the golden list together.
    #[test]
    fn schema_fingerprint_is_pinned() {
        let expected: Vec<&str> = vec![
            "aggregate",
            "aggregate.bytes",
            "aggregate.collective_calls",
            "aggregate.final_cut",
            "aggregate.max_imbalance",
            "aggregate.messages",
            "aggregate.phases",
            "aggregate.phases[].count",
            "aggregate.phases[].path",
            "aggregate.phases[].total_s",
            "aggregate.recv_wait_max_pe",
            "aggregate.recv_wait_max_s",
            "aggregate.recv_wait_p50_s",
            "aggregate.recv_wait_p95_s",
            "aggregate.recv_wait_p99_s",
            "aggregate.recv_wait_s",
            "aggregate.rss_peak_max_kb",
            "aggregate.thread_cpu_total_s",
            "p",
            "per_pe",
            "per_pe[].comm",
            "per_pe[].comm.collectives",
            "per_pe[].comm.collectives[].count",
            "per_pe[].comm.collectives[].name",
            "per_pe[].comm.delayed",
            "per_pe[].comm.recv_wait_by_peer",
            "per_pe[].comm.recv_wait_by_peer[].peer",
            "per_pe[].comm.recv_wait_by_peer[].wait_s",
            "per_pe[].comm.recv_wait_count",
            "per_pe[].comm.recv_wait_hist",
            "per_pe[].comm.recv_wait_hist[].bucket",
            "per_pe[].comm.recv_wait_hist[].count",
            "per_pe[].comm.recv_wait_s",
            "per_pe[].comm.recvd",
            "per_pe[].comm.recvd[].bytes",
            "per_pe[].comm.recvd[].msgs",
            "per_pe[].comm.recvd[].tag",
            "per_pe[].comm.sent",
            "per_pe[].comm.sent[].bytes",
            "per_pe[].comm.sent[].msgs",
            "per_pe[].comm.sent[].tag",
            "per_pe[].orphan_exits",
            "per_pe[].phases",
            "per_pe[].phases[].count",
            "per_pe[].phases[].path",
            "per_pe[].phases[].total_s",
            "per_pe[].rank",
            "per_pe[].resources",
            "per_pe[].resources.rss_current_kb",
            "per_pe[].resources.rss_peak_kb",
            "per_pe[].resources.thread_cpu_s",
            "per_pe[].work",
            "per_pe[].work[].cut",
            "per_pe[].work[].cycle",
            "per_pe[].work[].edges_scanned",
            "per_pe[].work[].imbalance",
            "per_pe[].work[].level",
            "per_pe[].work[].m_global",
            "per_pe[].work[].moves",
            "per_pe[].work[].n_ghost",
            "per_pe[].work[].n_global",
            "per_pe[].work[].n_local",
            "per_pe[].work[].rounds",
            "per_pe[].work[].stage",
            "schema_version",
        ];
        assert_eq!(SCHEMA_VERSION, 10, "bumped version: update the golden list");
        assert_eq!(
            RunReport::schema_fingerprint(),
            expected,
            "schema shape changed: bump SCHEMA_VERSION and update this list"
        );
    }
}
