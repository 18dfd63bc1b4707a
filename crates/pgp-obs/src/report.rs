//! The schema-versioned structured run report.
//!
//! Serialization is hand-rolled (no serde offline) with **fully
//! deterministic ordering**: phases sorted by path (BTreeMap order),
//! per-tag counters sorted by tag ascending, collectives sorted by name.
//! `to_json(true)` zeroes every wall-clock field so reports from two runs
//! with the same seed and config compare byte-for-byte (the golden
//! determinism tests rely on this).

use std::collections::BTreeMap;

use crate::json::{push_json_str, JsonValue};
use crate::metrics::{LevelMetrics, RefineMetrics, TagCounter, WaitHistogram};
use crate::recorder::PeState;
use crate::resources::ResourceSample;

/// Report schema version. Bump whenever the JSON shape changes (fields
/// added/removed/renamed); the `schema_fingerprint` test guards this.
///
/// v2: receive waits gained a √2-log-bucket latency histogram, a wait
/// count and per-peer blame per PE, and the aggregate gained
/// `recv_wait_max_s` (+ owning PE) and parse-time-derived p50/p95/p99.
///
/// v3: top-level `recovery` block — attempts, transient retries, full
/// recoveries, dead ranks and lost V-cycles from the automatic-recovery
/// layer.
///
/// v4: top-level `backend` string naming the comm transport that carried
/// the run ("threads" or "sockets").
///
/// v5: per-PE `resources` block (current/peak RSS, thread-CPU seconds)
/// and aggregate `rss_peak_max_kb`/`thread_cpu_total_s`. These are
/// wall-clock observations: `to_json(true)` zeroes them, so golden
/// comparisons are unaffected.
///
/// v6: the top-level `alerts` array went with the live telemetry plane,
/// and `resources.allocs` / `resources.alloc_bytes` with the
/// allocation-counting Cargo feature that no build enabled.
///
/// v7: the top-level `recovery` block went with the automatic-recovery layer.
///
/// v8: the top-level `backend` string went with the socket transport; one
/// mailbox carries every run.
pub const SCHEMA_VERSION: u32 = 8;

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
    /// Per-level structural snapshots, recording order.
    pub levels: Vec<LevelMetrics>,
    /// Per-refinement-pass quality snapshots, recording order.
    pub refinements: Vec<RefineMetrics>,
    /// Span exits dropped because their name did not match the innermost
    /// open span. Always 0 for RAII-guarded instrumentation.
    pub orphan_exits: u64,
    /// The PE's last resource sample (RSS, thread-CPU). Wall-clock
    /// observations — zeroed by `to_json(true)`.
    pub resources: ResourceSample,
}

/// One span path's aggregate timing.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseEntry {
    /// Full span path, e.g. `vcycle/coarsen/contract`.
    pub path: String,
    /// Number of closures.
    pub count: u64,
    /// Total seconds (wall clock); zeroed by `to_json(true)`.
    pub total_s: f64,
}

/// One PE's communication counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommReport {
    /// Sent messages/bytes, tag ascending.
    pub sent: Vec<TagEntry>,
    /// Received messages/bytes, tag ascending.
    pub recvd: Vec<TagEntry>,
    /// Fault-injection drops, tag ascending.
    pub dropped: Vec<TagEntry>,
    /// Collective invocation counts, name ascending.
    pub collectives: Vec<CollectiveEntry>,
    /// Seconds blocked in receive waits; zeroed by `to_json(true)`.
    pub recv_wait_s: f64,
    /// Number of receive waits that actually blocked. Whether a wait
    /// blocks is a race against the sender, so this (and the histogram
    /// and blame below) is emptied by `to_json(true)`.
    pub recv_wait_count: u64,
    /// Receive-wait latency distribution: sparse √2-log-bucket counts,
    /// bucket index ascending (see `WaitHistogram`). p50/p95/p99 are
    /// re-derived from these at parse time rather than stored.
    pub recv_wait_hist: Vec<HistBucketEntry>,
    /// Receive-wait seconds blamed on each awaited source PE, peer
    /// ascending. Wildcard receives are unattributable and appear only
    /// in the histogram.
    pub recv_wait_by_peer: Vec<PeerWaitEntry>,
    /// Sends held in limbo queues by fault injection.
    pub delayed: u64,
    /// Sends stalled (slept) by fault injection.
    pub stalled: u64,
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
    /// Payload wire bytes.
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

/// Cross-PE aggregates, derivable from `per_pe` (and re-derived on
/// parse, so they cannot drift from the detail).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Aggregate {
    /// Total messages sent across all PEs.
    pub messages: u64,
    /// Total payload bytes sent across all PEs.
    pub bytes: u64,
    /// Total collective invocations across all PEs.
    pub collective_calls: u64,
    /// Total seconds blocked in receive waits across all PEs; zeroed by
    /// `to_json(true)`. A plain sum — it hides skew, which is why the
    /// max (and its owner) and the quantiles below exist.
    pub recv_wait_s: f64,
    /// The largest single-PE receive-wait total; zeroed by
    /// `to_json(true)`.
    pub recv_wait_max_s: f64,
    /// Rank of the PE owning `recv_wait_max_s` (0 when no PE waited).
    pub recv_wait_max_pe: usize,
    /// Median single-wait latency across all PEs, re-derived from the
    /// merged per-PE histograms (bucket lower-bound resolution); zeroed
    /// by `to_json(true)`.
    pub recv_wait_p50_s: f64,
    /// 95th-percentile single-wait latency (as `recv_wait_p50_s`).
    pub recv_wait_p95_s: f64,
    /// 99th-percentile single-wait latency (as `recv_wait_p50_s`).
    pub recv_wait_p99_s: f64,
    /// Edge cut after the last recorded refinement pass (rank 0's view;
    /// the value is global). `None` when no refinement was recorded.
    pub final_cut: Option<u64>,
    /// Maximum imbalance over all recorded refinement passes (rank 0).
    pub max_imbalance: f64,
    /// Largest per-PE peak RSS (KiB) — the number a semi-external run's
    /// memory-budget proof cares about. All PEs share one address space,
    /// so this is the process peak. Zeroed by `to_json(true)`.
    pub rss_peak_max_kb: u64,
    /// Total thread-CPU seconds across the PE threads; zeroed by
    /// `to_json(true)`.
    pub thread_cpu_total_s: f64,
    /// Span aggregates summed across PEs, path ascending.
    pub phases: Vec<PhaseEntry>,
}

impl PeReport {
    /// Converts a finished PE cell into its report form.
    pub(crate) fn from_state(rank: usize, st: &PeState) -> Self {
        let tag_entries = crate::recorder::tag_entries;
        PeReport {
            rank,
            phases: st
                .phases
                .iter()
                .map(|(path, stat)| PhaseEntry {
                    path: path.clone(),
                    count: stat.count,
                    total_s: stat.total_ns as f64 / 1e9,
                })
                .collect(),
            comm: CommReport {
                sent: tag_entries(&st.sent),
                recvd: tag_entries(&st.recvd),
                dropped: tag_entries(&st.dropped),
                collectives: st
                    .collectives
                    .iter()
                    .map(|(&name, &count)| CollectiveEntry {
                        name: name.to_string(),
                        count,
                    })
                    .collect(),
                recv_wait_s: st.recv_wait_hist.total_ns as f64 / 1e9,
                recv_wait_count: st.recv_wait_hist.count,
                recv_wait_hist: st
                    .recv_wait_hist
                    .buckets
                    .iter()
                    .map(|(&bucket, &count)| HistBucketEntry { bucket, count })
                    .collect(),
                recv_wait_by_peer: st
                    .recv_wait_by_peer
                    .iter()
                    .map(|(&peer, &ns)| PeerWaitEntry {
                        peer,
                        wait_s: ns as f64 / 1e9,
                    })
                    .collect(),
                delayed: st.delayed,
                stalled: st.stalled,
            },
            levels: st.levels.clone(),
            refinements: st.refinements.clone(),
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
            agg.final_cut = pe0.refinements.last().map(|r| r.cut);
            agg.max_imbalance = pe0
                .refinements
                .iter()
                .map(|r| r.imbalance)
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

/// Formats an `f64` deterministically (shortest round-trip repr).
fn push_f64(out: &mut String, x: f64, zero: bool) {
    if zero || x == 0.0 {
        out.push('0');
    } else {
        out.push_str(&format!("{x}"));
    }
}

impl RunReport {
    /// Serializes to JSON. With `zero_timings`, every wall-clock field
    /// (`total_s`, `recv_wait_s`) is written as `0`, making the output a
    /// pure function of the run's deterministic observations.
    pub fn to_json(&self, zero_timings: bool) -> String {
        let z = zero_timings;
        let mut o = String::with_capacity(4096);
        o.push_str("{\n");
        o.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        o.push_str(&format!("  \"p\": {},\n", self.p));
        o.push_str("  \"per_pe\": [");
        for (i, pe) in self.per_pe.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            pe.push_json(&mut o, z);
        }
        o.push_str("\n  ],\n");
        o.push_str("  \"aggregate\": ");
        self.aggregate.push_json(&mut o, z);
        o.push_str("\n}\n");
        o
    }

    /// Parses a report back from JSON. Rejects unknown schema versions.
    /// The aggregate block is re-derived from the per-PE detail (and
    /// checked against the serialized counts).
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let v = JsonValue::parse(text)?;
        let schema_version = v
            .get("schema_version")
            .and_then(JsonValue::as_u64)
            .ok_or("missing schema_version")?;
        let sv32 = u32::try_from(schema_version).map_err(|_| "schema_version out of range")?;
        if sv32 != SCHEMA_VERSION {
            return Err(format!(
                "unsupported report schema version {sv32} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let p = v.get("p").and_then(JsonValue::as_u64).ok_or("missing p")?;
        let per_pe_json = v
            .get("per_pe")
            .and_then(JsonValue::as_arr)
            .ok_or("missing per_pe")?;
        let per_pe: Vec<PeReport> = per_pe_json
            .iter()
            .map(PeReport::from_json)
            .collect::<Result<_, _>>()?;
        let aggregate = Aggregate::from_per_pe(&per_pe);
        let claimed_msgs = v
            .get("aggregate")
            .and_then(|a| a.get("messages"))
            .and_then(JsonValue::as_u64)
            .ok_or("missing aggregate.messages")?;
        if claimed_msgs != aggregate.messages {
            return Err(format!(
                "aggregate.messages {} does not match per-PE detail {}",
                claimed_msgs, aggregate.messages
            ));
        }
        let claimed_recv_wait = v
            .get("aggregate")
            .and_then(|a| a.get("recv_wait_s"))
            .and_then(JsonValue::as_f64)
            .ok_or("missing aggregate.recv_wait_s")?;
        // The skew fields are pure functions of the per-PE detail (the
        // per-PE wait totals are floats either way), so unlike the sum
        // they can be checked exactly against the re-derivation.
        let claimed_max = v
            .get("aggregate")
            .and_then(|a| a.get("recv_wait_max_s"))
            .and_then(JsonValue::as_f64)
            .ok_or("missing aggregate.recv_wait_max_s")?;
        let claimed_max_pe = v
            .get("aggregate")
            .and_then(|a| a.get("recv_wait_max_pe"))
            .and_then(JsonValue::as_u64)
            .ok_or("missing aggregate.recv_wait_max_pe")?;
        if claimed_max != aggregate.recv_wait_max_s
            || claimed_max_pe != aggregate.recv_wait_max_pe as u64
        {
            return Err(format!(
                "aggregate.recv_wait_max {claimed_max}s@pe{claimed_max_pe} does not match \
                 per-PE detail {}s@pe{}",
                aggregate.recv_wait_max_s, aggregate.recv_wait_max_pe
            ));
        }
        let mut aggregate = aggregate;
        // A zero-timings report legitimately disagrees with re-derived
        // (also zero) timings; keep whichever was serialized.
        aggregate.recv_wait_s = claimed_recv_wait;
        Ok(RunReport {
            schema_version: sv32,
            p: usize::try_from(p).map_err(|_| "p out of range")?,
            per_pe,
            aggregate,
        })
    }

    /// Sums `sent` counters per tag across all PEs.
    pub fn total_sent_per_tag(&self) -> BTreeMap<u64, TagCounter> {
        Self::sum_tags(self.per_pe.iter().flat_map(|pe| pe.comm.sent.iter()))
    }

    /// Sums `recvd` counters per tag across all PEs.
    pub fn total_recvd_per_tag(&self) -> BTreeMap<u64, TagCounter> {
        Self::sum_tags(self.per_pe.iter().flat_map(|pe| pe.comm.recvd.iter()))
    }

    /// Sums `dropped` counters per tag across all PEs.
    pub fn total_dropped_per_tag(&self) -> BTreeMap<u64, TagCounter> {
        Self::sum_tags(self.per_pe.iter().flat_map(|pe| pe.comm.dropped.iter()))
    }

    fn sum_tags<'a>(entries: impl Iterator<Item = &'a TagEntry>) -> BTreeMap<u64, TagCounter> {
        let mut out: BTreeMap<u64, TagCounter> = BTreeMap::new();
        for e in entries {
            let c = out.entry(e.tag).or_default();
            c.msgs += e.msgs;
            c.bytes += e.bytes;
        }
        out
    }

    /// The sorted set of JSON key paths this schema produces. The schema
    /// guard test pins this against a golden list: changing the shape
    /// without bumping [`SCHEMA_VERSION`] fails that test.
    pub fn schema_fingerprint() -> Vec<String> {
        let per_pe = vec![PeReport {
            rank: 0,
            phases: vec![PhaseEntry {
                path: "a".to_string(),
                count: 1,
                total_s: 1.0,
            }],
            comm: CommReport {
                sent: vec![TagEntry {
                    tag: 1,
                    msgs: 1,
                    bytes: 1,
                }],
                recvd: vec![TagEntry {
                    tag: 1,
                    msgs: 1,
                    bytes: 1,
                }],
                dropped: vec![TagEntry {
                    tag: 1,
                    msgs: 1,
                    bytes: 1,
                }],
                collectives: vec![CollectiveEntry {
                    name: "barrier".to_string(),
                    count: 1,
                }],
                recv_wait_s: 1.0,
                recv_wait_count: 1,
                recv_wait_hist: vec![HistBucketEntry {
                    bucket: 1,
                    count: 1,
                }],
                recv_wait_by_peer: vec![PeerWaitEntry {
                    peer: 1,
                    wait_s: 1.0,
                }],
                delayed: 0,
                stalled: 0,
            },
            levels: vec![LevelMetrics::default()],
            refinements: vec![RefineMetrics::default()],
            orphan_exits: 0,
            resources: ResourceSample {
                rss_current_kb: 1,
                rss_peak_kb: 1,
                thread_cpu_s: 1.0,
            },
        }];
        let sample = RunReport {
            schema_version: SCHEMA_VERSION,
            p: 1,
            aggregate: Aggregate::from_per_pe(&per_pe),
            per_pe,
        };
        let json = sample.to_json(false);
        let v = JsonValue::parse(&json).expect("schema sample must parse");
        let mut paths = Vec::new();
        collect_paths(&v, "", &mut paths);
        paths.sort();
        paths.dedup();
        paths
    }
}

fn collect_paths(v: &JsonValue, prefix: &str, out: &mut Vec<String>) {
    match v {
        JsonValue::Obj(fields) => {
            for (k, child) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                out.push(path.clone());
                collect_paths(child, &path, out);
            }
        }
        JsonValue::Arr(items) => {
            for item in items {
                collect_paths(item, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

impl PeReport {
    fn push_json(&self, o: &mut String, z: bool) {
        o.push_str("    {\n");
        o.push_str(&format!("      \"rank\": {},\n", self.rank));
        o.push_str("      \"phases\": [");
        for (i, ph) in self.phases.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("        {\"path\": ");
            push_json_str(o, &ph.path);
            o.push_str(&format!(", \"count\": {}, \"total_s\": ", ph.count));
            push_f64(o, ph.total_s, z);
            o.push('}');
        }
        o.push_str(if self.phases.is_empty() {
            "],\n"
        } else {
            "\n      ],\n"
        });
        o.push_str("      \"comm\": {\n");
        for (key, entries) in [
            ("sent", &self.comm.sent),
            ("recvd", &self.comm.recvd),
            ("dropped", &self.comm.dropped),
        ] {
            o.push_str(&format!("        \"{key}\": ["));
            for (i, e) in entries.iter().enumerate() {
                o.push_str(if i == 0 { "\n" } else { ",\n" });
                o.push_str(&format!(
                    "          {{\"tag\": {}, \"msgs\": {}, \"bytes\": {}}}",
                    e.tag, e.msgs, e.bytes
                ));
            }
            o.push_str(if entries.is_empty() {
                "],\n"
            } else {
                "\n        ],\n"
            });
        }
        o.push_str("        \"collectives\": [");
        for (i, c) in self.comm.collectives.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("          {\"name\": ");
            push_json_str(o, &c.name);
            o.push_str(&format!(", \"count\": {}}}", c.count));
        }
        o.push_str(if self.comm.collectives.is_empty() {
            "],\n"
        } else {
            "\n        ],\n"
        });
        o.push_str("        \"recv_wait_s\": ");
        push_f64(o, self.comm.recv_wait_s, z);
        // Wait counts, the latency histogram and per-peer blame record
        // *whether* receives blocked — a race against the sender — so a
        // zero-timings report empties them entirely.
        o.push_str(&format!(
            ",\n        \"recv_wait_count\": {},\n",
            if z { 0 } else { self.comm.recv_wait_count }
        ));
        o.push_str("        \"recv_wait_hist\": [");
        let hist: &[HistBucketEntry] = if z { &[] } else { &self.comm.recv_wait_hist };
        for (i, e) in hist.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str(&format!(
                "          {{\"bucket\": {}, \"count\": {}}}",
                e.bucket, e.count
            ));
        }
        o.push_str(if hist.is_empty() {
            "],\n"
        } else {
            "\n        ],\n"
        });
        o.push_str("        \"recv_wait_by_peer\": [");
        let by_peer: &[PeerWaitEntry] = if z { &[] } else { &self.comm.recv_wait_by_peer };
        for (i, e) in by_peer.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str(&format!("          {{\"peer\": {}, \"wait_s\": ", e.peer));
            push_f64(o, e.wait_s, false);
            o.push('}');
        }
        o.push_str(if by_peer.is_empty() {
            "],\n"
        } else {
            "\n        ],\n"
        });
        o.push_str(&format!(
            "        \"delayed\": {}, \"stalled\": {}\n",
            self.comm.delayed, self.comm.stalled
        ));
        o.push_str("      },\n");
        o.push_str("      \"levels\": [");
        for (i, l) in self.levels.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str(&format!(
                "        {{\"cycle\": {}, \"level\": {}, \"n_global\": {}, \"m_global\": {}, \
                 \"n_local\": {}, \"n_ghost\": {}}}",
                l.cycle, l.level, l.n_global, l.m_global, l.n_local, l.n_ghost
            ));
        }
        o.push_str(if self.levels.is_empty() {
            "],\n"
        } else {
            "\n      ],\n"
        });
        o.push_str("      \"refinements\": [");
        for (i, r) in self.refinements.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str(&format!(
                "        {{\"cycle\": {}, \"level\": {}, \"cut\": {}, \"imbalance\": ",
                r.cycle, r.level, r.cut
            ));
            // Imbalance is deterministic (derived from integer weights),
            // not a timing: never zeroed.
            push_f64(o, r.imbalance, false);
            o.push('}');
        }
        o.push_str(if self.refinements.is_empty() {
            "],\n"
        } else {
            "\n      ],\n"
        });
        o.push_str(&format!("      \"orphan_exits\": {},\n", self.orphan_exits));
        // The resource sample is pure wall-clock observation; a
        // zero-timings report zeroes all three fields.
        let r = if z {
            ResourceSample::default()
        } else {
            self.resources
        };
        o.push_str(&format!(
            "      \"resources\": {{\"rss_current_kb\": {}, \"rss_peak_kb\": {}, \
             \"thread_cpu_s\": ",
            r.rss_current_kb, r.rss_peak_kb
        ));
        push_f64(o, r.thread_cpu_s, z);
        o.push_str("}\n");
        o.push_str("    }");
    }

    fn from_json(v: &JsonValue) -> Result<PeReport, String> {
        let rank = v
            .get("rank")
            .and_then(JsonValue::as_u64)
            .ok_or("pe missing rank")?;
        let phases = v
            .get("phases")
            .and_then(JsonValue::as_arr)
            .ok_or("pe missing phases")?
            .iter()
            .map(|ph| {
                Ok(PhaseEntry {
                    path: ph
                        .get("path")
                        .and_then(JsonValue::as_str)
                        .ok_or("phase missing path")?
                        .to_string(),
                    count: ph
                        .get("count")
                        .and_then(JsonValue::as_u64)
                        .ok_or("phase missing count")?,
                    total_s: ph
                        .get("total_s")
                        .and_then(JsonValue::as_f64)
                        .ok_or("phase missing total_s")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let comm = v.get("comm").ok_or("pe missing comm")?;
        let tag_list = |key: &str| -> Result<Vec<TagEntry>, String> {
            comm.get(key)
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| format!("comm missing {key}"))?
                .iter()
                .map(|e| {
                    Ok(TagEntry {
                        tag: e.get("tag").and_then(JsonValue::as_u64).ok_or("no tag")?,
                        msgs: e.get("msgs").and_then(JsonValue::as_u64).ok_or("no msgs")?,
                        bytes: e
                            .get("bytes")
                            .and_then(JsonValue::as_u64)
                            .ok_or("no bytes")?,
                    })
                })
                .collect()
        };
        let collectives = comm
            .get("collectives")
            .and_then(JsonValue::as_arr)
            .ok_or("comm missing collectives")?
            .iter()
            .map(|c| {
                Ok(CollectiveEntry {
                    name: c
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or("collective missing name")?
                        .to_string(),
                    count: c
                        .get("count")
                        .and_then(JsonValue::as_u64)
                        .ok_or("collective missing count")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let levels = v
            .get("levels")
            .and_then(JsonValue::as_arr)
            .ok_or("pe missing levels")?
            .iter()
            .map(|l| {
                let f = |k: &str| l.get(k).and_then(JsonValue::as_u64);
                Ok(LevelMetrics {
                    cycle: u32::try_from(f("cycle").ok_or("level missing cycle")?)
                        .map_err(|_| "cycle out of range")?,
                    level: u32::try_from(f("level").ok_or("level missing level")?)
                        .map_err(|_| "level out of range")?,
                    n_global: f("n_global").ok_or("level missing n_global")?,
                    m_global: f("m_global").ok_or("level missing m_global")?,
                    n_local: f("n_local").ok_or("level missing n_local")?,
                    n_ghost: f("n_ghost").ok_or("level missing n_ghost")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let refinements = v
            .get("refinements")
            .and_then(JsonValue::as_arr)
            .ok_or("pe missing refinements")?
            .iter()
            .map(|r| {
                Ok(RefineMetrics {
                    cycle: u32::try_from(
                        r.get("cycle")
                            .and_then(JsonValue::as_u64)
                            .ok_or("refine missing cycle")?,
                    )
                    .map_err(|_| "cycle out of range")?,
                    level: u32::try_from(
                        r.get("level")
                            .and_then(JsonValue::as_u64)
                            .ok_or("refine missing level")?,
                    )
                    .map_err(|_| "level out of range")?,
                    cut: r.get("cut").and_then(JsonValue::as_u64).ok_or("no cut")?,
                    imbalance: r
                        .get("imbalance")
                        .and_then(JsonValue::as_f64)
                        .ok_or("no imbalance")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(PeReport {
            rank: usize::try_from(rank).map_err(|_| "rank out of range")?,
            phases,
            comm: CommReport {
                sent: tag_list("sent")?,
                recvd: tag_list("recvd")?,
                dropped: tag_list("dropped")?,
                collectives,
                recv_wait_s: comm
                    .get("recv_wait_s")
                    .and_then(JsonValue::as_f64)
                    .ok_or("comm missing recv_wait_s")?,
                recv_wait_count: comm
                    .get("recv_wait_count")
                    .and_then(JsonValue::as_u64)
                    .ok_or("comm missing recv_wait_count")?,
                recv_wait_hist: comm
                    .get("recv_wait_hist")
                    .and_then(JsonValue::as_arr)
                    .ok_or("comm missing recv_wait_hist")?
                    .iter()
                    .map(|e| {
                        Ok(HistBucketEntry {
                            bucket: u32::try_from(
                                e.get("bucket")
                                    .and_then(JsonValue::as_u64)
                                    .ok_or("hist missing bucket")?,
                            )
                            .map_err(|_| "bucket out of range")?,
                            count: e
                                .get("count")
                                .and_then(JsonValue::as_u64)
                                .ok_or("hist missing count")?,
                        })
                    })
                    .collect::<Result<_, String>>()?,
                recv_wait_by_peer: comm
                    .get("recv_wait_by_peer")
                    .and_then(JsonValue::as_arr)
                    .ok_or("comm missing recv_wait_by_peer")?
                    .iter()
                    .map(|e| {
                        Ok(PeerWaitEntry {
                            peer: usize::try_from(
                                e.get("peer")
                                    .and_then(JsonValue::as_u64)
                                    .ok_or("blame missing peer")?,
                            )
                            .map_err(|_| "peer out of range")?,
                            wait_s: e
                                .get("wait_s")
                                .and_then(JsonValue::as_f64)
                                .ok_or("blame missing wait_s")?,
                        })
                    })
                    .collect::<Result<_, String>>()?,
                delayed: comm
                    .get("delayed")
                    .and_then(JsonValue::as_u64)
                    .ok_or("comm missing delayed")?,
                stalled: comm
                    .get("stalled")
                    .and_then(JsonValue::as_u64)
                    .ok_or("comm missing stalled")?,
            },
            levels,
            refinements,
            orphan_exits: v
                .get("orphan_exits")
                .and_then(JsonValue::as_u64)
                .ok_or("pe missing orphan_exits")?,
            resources: {
                let res = v.get("resources").ok_or("pe missing resources")?;
                let ru = |k: &str| {
                    res.get(k)
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| format!("resources missing {k}"))
                };
                ResourceSample {
                    rss_current_kb: ru("rss_current_kb")?,
                    rss_peak_kb: ru("rss_peak_kb")?,
                    thread_cpu_s: res
                        .get("thread_cpu_s")
                        .and_then(JsonValue::as_f64)
                        .ok_or("resources missing thread_cpu_s")?,
                }
            },
        })
    }
}

impl Aggregate {
    fn push_json(&self, o: &mut String, z: bool) {
        o.push_str("{\n");
        o.push_str(&format!(
            "    \"messages\": {}, \"bytes\": {}, \"collective_calls\": {},\n",
            self.messages, self.bytes, self.collective_calls
        ));
        o.push_str("    \"recv_wait_s\": ");
        push_f64(o, self.recv_wait_s, z);
        o.push_str(",\n    \"recv_wait_max_s\": ");
        push_f64(o, self.recv_wait_max_s, z);
        o.push_str(&format!(
            ", \"recv_wait_max_pe\": {},\n",
            if z { 0 } else { self.recv_wait_max_pe }
        ));
        o.push_str("    \"recv_wait_p50_s\": ");
        push_f64(o, self.recv_wait_p50_s, z);
        o.push_str(", \"recv_wait_p95_s\": ");
        push_f64(o, self.recv_wait_p95_s, z);
        o.push_str(", \"recv_wait_p99_s\": ");
        push_f64(o, self.recv_wait_p99_s, z);
        o.push_str(",\n    \"final_cut\": ");
        match self.final_cut {
            Some(cut) => o.push_str(&format!("{cut}")),
            None => o.push_str("null"),
        }
        o.push_str(",\n    \"max_imbalance\": ");
        push_f64(o, self.max_imbalance, false);
        o.push_str(&format!(
            ",\n    \"rss_peak_max_kb\": {}, \"thread_cpu_total_s\": ",
            if z { 0 } else { self.rss_peak_max_kb }
        ));
        push_f64(o, self.thread_cpu_total_s, z);
        o.push_str(",\n    \"phases\": [");
        for (i, ph) in self.phases.iter().enumerate() {
            o.push_str(if i == 0 { "\n" } else { ",\n" });
            o.push_str("      {\"path\": ");
            push_json_str(o, &ph.path);
            o.push_str(&format!(", \"count\": {}, \"total_s\": ", ph.count));
            push_f64(o, ph.total_s, z);
            o.push('}');
        }
        o.push_str(if self.phases.is_empty() {
            "]\n"
        } else {
            "\n    ]\n"
        });
        o.push_str("  }");
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
        r0.record_level(LevelMetrics {
            cycle: 0,
            level: 0,
            n_global: 100,
            m_global: 400,
            n_local: 50,
            n_ghost: 10,
        });
        r0.record_refine(RefineMetrics {
            cycle: 0,
            level: 0,
            cut: 42,
            imbalance: 0.03,
        });
        r0.sample_resources();
        obs.report()
    }

    #[test]
    fn json_round_trips_byte_for_byte() {
        let report = sample_report();
        for zero in [false, true] {
            let json = report.to_json(zero);
            let parsed = RunReport::from_json(&json).expect("parse");
            assert_eq!(parsed.to_json(zero), json, "zero={zero}");
        }
    }

    #[test]
    fn zero_timings_is_deterministic_shape() {
        let report = sample_report();
        let json = report.to_json(true);
        assert!(!json.contains("total_s\": 0."), "timings must be zeroed");
        assert!(json.contains("\"schema_version\": 8"));
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
    fn conservation_helpers_sum_across_pes() {
        let report = sample_report();
        let sent = report.total_sent_per_tag();
        let recvd = report.total_recvd_per_tag();
        assert_eq!(sent, recvd);
        assert_eq!(sent[&7].bytes, 24);
        assert!(report.total_dropped_per_tag().is_empty());
    }

    #[test]
    fn parse_rejects_other_schema_versions() {
        let report = sample_report();
        for other in ["7", "999"] {
            let json = report.to_json(true).replace(
                "\"schema_version\": 8",
                &format!("\"schema_version\": {other}"),
            );
            let err = RunReport::from_json(&json).expect_err("must reject");
            assert!(err.contains("unsupported report schema version"), "{err}");
        }
    }

    #[test]
    fn parse_rejects_inconsistent_aggregate() {
        let report = sample_report();
        let json = report
            .to_json(true)
            .replace("\"messages\": 2", "\"messages\": 99");
        let err = RunReport::from_json(&json).expect_err("must reject");
        assert!(err.contains("does not match"), "{err}");
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

    #[test]
    fn parse_rejects_wrong_max_attribution() {
        let mut report = sample_report();
        report.per_pe[0].comm.recv_wait_s = 2.5;
        report.per_pe[1].comm.recv_wait_s = 0.5;
        report.aggregate = Aggregate::from_per_pe(&report.per_pe);
        let json = report
            .to_json(false)
            .replace("\"recv_wait_max_pe\": 0", "\"recv_wait_max_pe\": 1");
        let err = RunReport::from_json(&json).expect_err("must reject");
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn parse_rederives_quantiles_from_histograms() {
        let report = sample_report();
        let json = report.to_json(false);
        let parsed = RunReport::from_json(&json).expect("parse");
        // The sample records one real wait on PE 1; the quantiles come
        // back from the serialized buckets, not from stored values.
        assert_eq!(parsed.per_pe[1].comm.recv_wait_count, 1);
        assert!(parsed.aggregate.recv_wait_p99_s >= parsed.aggregate.recv_wait_p50_s);
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
            "per_pe[].comm.dropped",
            "per_pe[].comm.dropped[].bytes",
            "per_pe[].comm.dropped[].msgs",
            "per_pe[].comm.dropped[].tag",
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
            "per_pe[].comm.stalled",
            "per_pe[].levels",
            "per_pe[].levels[].cycle",
            "per_pe[].levels[].level",
            "per_pe[].levels[].m_global",
            "per_pe[].levels[].n_ghost",
            "per_pe[].levels[].n_global",
            "per_pe[].levels[].n_local",
            "per_pe[].orphan_exits",
            "per_pe[].phases",
            "per_pe[].phases[].count",
            "per_pe[].phases[].path",
            "per_pe[].phases[].total_s",
            "per_pe[].rank",
            "per_pe[].refinements",
            "per_pe[].refinements[].cut",
            "per_pe[].refinements[].cycle",
            "per_pe[].refinements[].imbalance",
            "per_pe[].refinements[].level",
            "per_pe[].resources",
            "per_pe[].resources.rss_current_kb",
            "per_pe[].resources.rss_peak_kb",
            "per_pe[].resources.thread_cpu_s",
            "schema_version",
        ];
        assert_eq!(SCHEMA_VERSION, 8, "bumped version: update the golden list");
        assert_eq!(
            RunReport::schema_fingerprint(),
            expected,
            "schema shape changed: bump SCHEMA_VERSION and update this list"
        );
    }
}
