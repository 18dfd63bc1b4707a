//! The per-PE recorder and the run-wide observation registry.
//!
//! ## Clock model
//!
//! All trace timestamps are nanoseconds since one *run epoch*: a
//! monotonic [`Instant`] owned by the [`Obs`] registry, rebased by the
//! universe right before the PE threads spawn ([`Obs::rebase_epoch`]),
//! so every PE of a run shares a single clock and cross-PE deltas
//! (collective skew, send→recv latency) are directly comparable. Each
//! [`Recorder`] caches the epoch origin at creation — reading a
//! timestamp is one `Instant::now()`, no lock.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::metrics::{LevelWork, PhaseStat, TagCounter, WaitHistogram};
use crate::report::{Aggregate, PeReport, RunReport, TagEntry, SCHEMA_VERSION};
use crate::resources::ResourceSample;
use crate::trace::{PeTrace, RunTrace, TraceEventKind, TraceRing};

/// Default per-PE trace ring capacity (events). Generous enough that
/// the tiny-to-small benchmark tiers never drop (dropping is counted,
/// not silent), small enough to bound memory at ~100 MB/PE worst case.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// Run-wide observation registry: one cell per PE.
///
/// Created once per observed run ([`Obs::new`], or [`Obs::with_trace`]
/// to also record event timelines); each PE thread gets a [`Recorder`]
/// handle onto its own cell via [`Obs::recorder`]. Cells are
/// single-writer — only the owning PE thread records — so the mutexes
/// are uncontended; [`Obs::report`] locks them after the PEs have
/// joined.
pub struct Obs {
    cells: Vec<Mutex<PeState>>,
    /// Origin of the run's monotonic epoch (see the module docs).
    epoch_origin: Mutex<Instant>,
    /// Whether per-PE trace rings exist (uniform across PEs, so trace
    /// bookkeeping like sequence numbers cannot desync between peers).
    traced: bool,
}

/// All observations of one PE. Single-writer by the owning thread.
pub(crate) struct PeState {
    /// Open spans, innermost last.
    stack: Vec<OpenSpan>,
    /// Closed-span aggregates keyed by full path (`a/b/c`).
    pub(crate) phases: BTreeMap<String, PhaseStat>,
    /// Span exits whose name did not match the innermost open span;
    /// dropped rather than applied, counted here for the report.
    pub(crate) orphan_exits: u64,
    /// Messages/bytes sent, per tag.
    pub(crate) sent: BTreeMap<u64, TagCounter>,
    /// Messages/bytes received, per tag.
    pub(crate) recvd: BTreeMap<u64, TagCounter>,
    /// Collective invocation counts by name.
    pub(crate) collectives: BTreeMap<&'static str, u64>,
    /// Receive-wait latency distribution (√2 log buckets + exact sum).
    pub(crate) recv_wait_hist: WaitHistogram,
    /// Receive-wait nanoseconds blamed on each awaited source PE.
    pub(crate) recv_wait_by_peer: BTreeMap<usize, u64>,
    /// Sends held in a limbo queue by a delay plan.
    pub(crate) delayed: u64,
    /// Per-level work records, in recording order.
    pub(crate) work: Vec<LevelWork>,
    /// Most recent resource sample ([`Recorder::sample_resources`]);
    /// embedded in the report's per-PE block.
    pub(crate) resources: ResourceSample,
    /// Event timeline, present when the registry was built with
    /// [`Obs::with_trace`].
    trace: Option<TraceRing>,
}

impl PeState {
    fn new(trace_capacity: Option<usize>) -> Self {
        Self {
            stack: Vec::new(),
            phases: BTreeMap::new(),
            orphan_exits: 0,
            sent: BTreeMap::new(),
            recvd: BTreeMap::new(),
            collectives: BTreeMap::new(),
            recv_wait_hist: WaitHistogram::default(),
            recv_wait_by_peer: BTreeMap::new(),
            delayed: 0,
            work: Vec::new(),
            resources: ResourceSample::default(),
            trace: trace_capacity.map(TraceRing::new),
        }
    }
}

struct OpenSpan {
    /// Full path of this span (`parent_path/name`).
    path: String,
    /// Last path segment, for exit matching.
    name: &'static str,
    start: Instant,
}

impl Obs {
    /// A registry for a `p`-PE run (aggregate report only, no event
    /// timelines — the pre-trace behavior and cost).
    pub fn new(p: usize) -> Arc<Self> {
        Self::build(p, None)
    }

    /// A registry that additionally records per-PE event timelines,
    /// bounded at `capacity` events per PE (excess events are counted
    /// as dropped, newest first). Use [`DEFAULT_TRACE_CAPACITY`] unless
    /// you have a reason not to.
    pub fn with_trace(p: usize, capacity: usize) -> Arc<Self> {
        Self::build(p, Some(capacity))
    }

    fn build(p: usize, trace_capacity: Option<usize>) -> Arc<Self> {
        Arc::new(Self {
            cells: (0..p)
                .map(|_| Mutex::new(PeState::new(trace_capacity)))
                .collect(),
            epoch_origin: Mutex::new(Instant::now()), // lint:instant-ok: trace epoch origin
            traced: trace_capacity.is_some(),
        })
    }

    /// Number of PEs this registry observes.
    pub fn p(&self) -> usize {
        self.cells.len()
    }

    /// Whether event timelines are being recorded.
    pub fn is_traced(&self) -> bool {
        self.traced
    }

    /// Re-anchors the run epoch at "now". The universe calls this once
    /// at setup, before the PE threads spawn — recorders created after
    /// the rebase (all of them) share the new origin.
    pub fn rebase_epoch(&self) {
        *self.epoch_origin.lock() = Instant::now(); // lint:instant-ok: trace epoch rebase
    }

    /// The recorder handle for `rank`'s cell.
    pub fn recorder(self: &Arc<Self>, rank: usize) -> Recorder {
        assert!(rank < self.cells.len(), "obs recorder rank out of range");
        Recorder {
            inner: Some(Inner {
                origin: *self.epoch_origin.lock(),
                traced: self.traced,
                obs: Arc::clone(self),
                rank,
            }),
        }
    }

    /// Assembles the run report. Call after the PE threads have joined
    /// (open spans are not counted).
    pub fn report(&self) -> RunReport {
        let per_pe: Vec<PeReport> = self
            .cells
            .iter()
            .enumerate()
            .map(|(rank, cell)| PeReport::from_state(rank, &cell.lock()))
            .collect();
        let aggregate = Aggregate::from_per_pe(&per_pe);
        RunReport {
            schema_version: SCHEMA_VERSION,
            p: self.cells.len(),
            per_pe,
            aggregate,
        }
    }

    /// Assembles the event timelines, or `None` when the registry was
    /// built without tracing. Call after the PE threads have joined.
    pub fn trace(&self) -> Option<RunTrace> {
        if !self.traced {
            return None;
        }
        let per_pe: Vec<PeTrace> = self
            .cells
            .iter()
            .enumerate()
            .map(|(rank, cell)| {
                cell.lock()
                    .trace
                    .as_ref()
                    .expect("traced registry has rings")
                    .snapshot(rank)
            })
            .collect();
        Some(RunTrace {
            p: self.cells.len(),
            per_pe,
        })
    }
}

/// Handle through which one PE thread records observations.
///
/// A disabled recorder ([`Recorder::disabled`]) turns every hook into a
/// single `Option` branch — the hot path stays within noise. Enabledness
/// is uniform across a run (all PEs of a universe share it), so code may
/// gate extra *collective* work on [`Recorder::is_enabled`] without
/// risking an SPMD mismatch.
#[derive(Clone)]
pub struct Recorder {
    inner: Option<Inner>,
}

#[derive(Clone)]
struct Inner {
    /// Epoch origin cached at recorder creation (after the universe's
    /// rebase), so timestamps need no lock.
    origin: Instant,
    /// Cached [`Obs::is_traced`]; gates the extra `Instant::now()` per
    /// comm hook so report-only runs keep their pre-trace cost.
    traced: bool,
    obs: Arc<Obs>,
    rank: usize,
}

impl Inner {
    fn with<R>(&self, f: impl FnOnce(&mut PeState) -> R) -> R {
        f(&mut self.obs.cells[self.rank].lock())
    }

    /// Nanoseconds of `at` on the run epoch.
    fn ns_at(&self, at: Instant) -> u64 {
        let since = at.saturating_duration_since(self.origin);
        u64::try_from(since.as_nanos()).unwrap_or(u64::MAX)
    }

    /// Epoch-nanoseconds of "now" when tracing, else 0 (the value is
    /// only consumed by ring pushes, which are themselves trace-gated).
    fn trace_ts(&self) -> u64 {
        if self.traced {
            self.ns_at(Instant::now()) // lint:instant-ok: trace event timestamp
        } else {
            0
        }
    }
}

impl Recorder {
    /// The no-op recorder (observability off).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether observations are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether event timelines are being recorded (implies
    /// [`Recorder::is_enabled`]; uniform across a run's PEs).
    #[inline]
    pub fn is_traced(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.traced)
    }

    /// Opens a span; close it with the returned guard (or a matching
    /// [`Recorder::exit`]). Span names must not contain `/` — paths are
    /// `/`-joined.
    #[inline]
    pub fn span<'a>(&'a self, name: &'static str) -> SpanGuard<'a> {
        self.enter(name);
        SpanGuard { rec: self, name }
    }

    /// Opens a span without a guard. Prefer [`Recorder::span`]; this form
    /// exists for callers whose enter/exit points cannot share a scope
    /// (and for the nesting proptest, which drives arbitrary sequences).
    #[inline]
    pub fn enter(&self, name: &'static str) {
        if let Some(inner) = &self.inner {
            debug_assert!(!name.contains('/'), "span names must not contain '/'");
            let start = Instant::now(); // lint:instant-ok: span timing
            inner.with(|st| {
                let path = match st.stack.last() {
                    Some(top) => format!("{}/{name}", top.path),
                    None => name.to_string(),
                };
                if let Some(ring) = &mut st.trace {
                    ring.push(
                        inner.ns_at(start),
                        TraceEventKind::SpanOpen { path: path.clone() },
                    );
                }
                st.stack.push(OpenSpan { path, name, start });
            });
        }
    }

    /// Closes the innermost span if its name matches; a mismatch (orphan
    /// exit) is dropped and counted, never unwinds other spans.
    #[inline]
    pub fn exit(&self, name: &'static str) {
        if let Some(inner) = &self.inner {
            let now = Instant::now(); // lint:instant-ok: span timing
            inner.with(|st| match st.stack.last() {
                Some(top) if top.name == name => {
                    let span = st.stack.pop().expect("non-empty: just matched");
                    let elapsed = now.duration_since(span.start);
                    if let Some(ring) = &mut st.trace {
                        ring.push(
                            inner.ns_at(now),
                            TraceEventKind::SpanClose {
                                path: span.path.clone(),
                            },
                        );
                    }
                    let stat = st.phases.entry(span.path).or_default();
                    stat.count += 1;
                    // lint note: u128 -> u64 saturation; a span would need
                    // to stay open ~584 years to overflow.
                    stat.total_ns += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
                }
                _ => st.orphan_exits += 1,
            });
        }
    }

    /// Counts a collective invocation and brackets it on the event
    /// timeline: a `CollectiveEnter` now, the matching `CollectiveExit`
    /// when the guard drops.
    #[inline]
    pub fn collective_span<'a>(&'a self, name: &'static str) -> CollectiveGuard<'a> {
        if let Some(inner) = &self.inner {
            let ts = inner.trace_ts();
            inner.with(|st| {
                *st.collectives.entry(name).or_insert(0) += 1;
                if let Some(ring) = &mut st.trace {
                    ring.push(ts, TraceEventKind::CollectiveEnter { name });
                }
            });
        }
        CollectiveGuard { rec: self, name }
    }

    /// Records one sent message of `bytes` payload bytes to `dst` on
    /// `tag`.
    #[inline]
    pub fn on_send(&self, dst: usize, tag: u64, bytes: u64) {
        if let Some(inner) = &self.inner {
            let ts = inner.trace_ts();
            inner.with(|st| {
                st.sent.entry(tag).or_default().add(bytes);
                if let Some(ring) = &mut st.trace {
                    let seq = ring.next_send_seq(dst, tag);
                    ring.push(
                        ts,
                        TraceEventKind::Send {
                            dst,
                            tag,
                            seq,
                            bytes,
                        },
                    );
                }
            });
        }
    }

    /// Records one received message of `bytes` payload bytes from
    /// `src` on `tag`.
    #[inline]
    pub fn on_recv(&self, src: usize, tag: u64, bytes: u64) {
        if let Some(inner) = &self.inner {
            let ts = inner.trace_ts();
            inner.with(|st| {
                st.recvd.entry(tag).or_default().add(bytes);
                if let Some(ring) = &mut st.trace {
                    let seq = ring.next_recv_seq(src, tag);
                    ring.push(
                        ts,
                        TraceEventKind::Recv {
                            src,
                            tag,
                            seq,
                            bytes,
                        },
                    );
                }
            });
        }
    }

    /// Records one send toward `dst` held in a limbo queue by a delay
    /// plan.
    #[inline]
    pub fn on_delay(&self, dst: usize, tag: u64) {
        if let Some(inner) = &self.inner {
            let ts = inner.trace_ts();
            inner.with(|st| {
                st.delayed += 1;
                if let Some(ring) = &mut st.trace {
                    ring.push(ts, TraceEventKind::Delay { peer: dst, tag });
                }
            });
        }
    }

    /// Starts timing a receive wait for `tag` from `src`. Returns `None`
    /// when disabled; pass the token to [`Recorder::end_wait`] once the
    /// message arrived.
    #[inline]
    pub fn start_wait(&self, src: usize, tag: u64) -> Option<WaitToken> {
        self.inner.as_ref().map(|_| WaitToken {
            start: Instant::now(), // lint:instant-ok: recv wait timing
            src,
            tag,
        })
    }

    /// Ends a receive wait started by [`Recorder::start_wait`]: the
    /// duration lands in the latency histogram, is blamed on the
    /// awaited peer, and (when tracing) becomes a `RecvWait` event
    /// stamped at the wait's end.
    #[inline]
    pub fn end_wait(&self, token: Option<WaitToken>) {
        if let (Some(inner), Some(token)) = (&self.inner, token) {
            let end = Instant::now(); // lint:instant-ok: recv wait timing
            let ns = u64::try_from(end.duration_since(token.start).as_nanos()).unwrap_or(u64::MAX);
            inner.with(|st| {
                st.recv_wait_hist.record(ns);
                *st.recv_wait_by_peer.entry(token.src).or_insert(0) += ns;
                if let Some(ring) = &mut st.trace {
                    ring.push(
                        inner.ns_at(end),
                        TraceEventKind::RecvWait {
                            src: token.src,
                            tag: token.tag,
                            wait_ns: ns,
                        },
                    );
                }
            });
        }
    }

    /// Records what one kernel call did at one level.
    #[inline]
    pub fn record_work(&self, work: LevelWork) {
        if let Some(inner) = &self.inner {
            inner.with(|st| st.work.push(work));
        }
    }

    /// Captures a resource sample on the calling thread and stores it as
    /// this PE's report-embedded sample. The runner calls this once when
    /// the PE's closure returns.
    pub fn sample_resources(&self) {
        if let Some(inner) = &self.inner {
            let mut sample = ResourceSample::capture();
            inner.with(|st| {
                // The kernel's VmHWM can sag a few pages between reads
                // (the per-task rss counters sync lazily); clamp so a
                // relaunched PE's stored peak never goes backwards.
                sample.rss_peak_kb = sample.rss_peak_kb.max(st.resources.rss_peak_kb);
                st.resources = sample;
            });
        }
    }
}

/// Per-tag counter map in report entry form (tag ascending — BTreeMap
/// order).
pub(crate) fn tag_entries(map: &BTreeMap<u64, TagCounter>) -> Vec<TagEntry> {
    map.iter()
        .map(|(&tag, c)| TagEntry {
            tag,
            msgs: c.msgs,
            bytes: c.bytes,
        })
        .collect()
}

/// Times a receive wait; created by [`Recorder::start_wait`].
pub struct WaitToken {
    start: Instant,
    /// The awaited source PE.
    src: usize,
    /// The awaited tag.
    tag: u64,
}

/// RAII guard closing a span opened by [`Recorder::span`].
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    name: &'static str,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.rec.exit(self.name);
    }
}

/// RAII guard emitting the `CollectiveExit` event for a
/// [`Recorder::collective_span`].
#[must_use = "dropping the guard immediately ends the collective on the timeline"]
pub struct CollectiveGuard<'a> {
    rec: &'a Recorder,
    name: &'static str,
}

impl Drop for CollectiveGuard<'_> {
    fn drop(&mut self) {
        if let Some(inner) = &self.rec.inner {
            let ts = inner.trace_ts();
            let name = self.name;
            inner.with(|st| {
                if let Some(ring) = &mut st.trace {
                    ring.push(ts, TraceEventKind::CollectiveExit { name });
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEventKind;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        assert!(!rec.is_traced());
        let g = rec.span("a");
        rec.on_send(0, 1, 10);
        drop(rec.collective_span("barrier"));
        let tok = rec.start_wait(0, 1);
        assert!(tok.is_none());
        rec.end_wait(tok);
        drop(g);
    }

    #[test]
    fn spans_nest_by_path() {
        let obs = Obs::new(1);
        let rec = obs.recorder(0);
        {
            let _cycle = rec.span("vcycle");
            {
                let _c = rec.span("coarsen");
                let _k = rec.span("contract");
            }
            let _u = rec.span("uncoarsen");
        }
        let report = obs.report();
        let paths: Vec<&str> = report.per_pe[0]
            .phases
            .iter()
            .map(|p| p.path.as_str())
            .collect();
        assert_eq!(
            paths,
            [
                "vcycle",
                "vcycle/coarsen",
                "vcycle/coarsen/contract",
                "vcycle/uncoarsen"
            ]
        );
        let seconds = |path: &str| {
            let phases = &report.per_pe[0].phases;
            phases.iter().find(|p| p.path == path).map(|p| p.total_s)
        };
        assert!(seconds("vcycle/coarsen") >= seconds("vcycle/coarsen/contract"));
        assert_eq!(report.per_pe[0].orphan_exits, 0);
    }

    #[test]
    fn orphan_exit_is_dropped_not_applied() {
        let obs = Obs::new(1);
        let rec = obs.recorder(0);
        rec.enter("a");
        rec.exit("b"); // orphan: innermost is "a"
        rec.exit("a");
        rec.exit("a"); // orphan: stack empty
        let report = obs.report();
        assert_eq!(report.per_pe[0].orphan_exits, 2);
        assert_eq!(report.per_pe[0].phases.len(), 1);
        assert_eq!(report.per_pe[0].phases[0].path, "a");
        assert_eq!(report.per_pe[0].phases[0].count, 1);
    }

    #[test]
    fn counters_accumulate_per_tag() {
        let obs = Obs::new(2);
        let r0 = obs.recorder(0);
        let r1 = obs.recorder(1);
        r0.on_send(1, 7, 16);
        r0.on_send(1, 7, 8);
        r1.on_recv(0, 7, 16);
        r1.on_recv(0, 7, 8);
        drop(r0.collective_span("barrier"));
        r0.on_delay(1, 7);
        let report = obs.report();
        let sent = &report.per_pe[0].comm.sent;
        assert_eq!(sent.len(), 1);
        assert_eq!((sent[0].tag, sent[0].msgs, sent[0].bytes), (7, 2, 24));
        let recvd = &report.per_pe[1].comm.recvd;
        assert_eq!((recvd[0].msgs, recvd[0].bytes), (2, 24));
        assert_eq!(report.per_pe[0].comm.delayed, 1);
        assert_eq!(report.aggregate.messages, 2);
        assert_eq!(report.aggregate.bytes, 24);
    }

    #[test]
    fn wait_tokens_accumulate_and_blame_peers() {
        let obs = Obs::new(1);
        let rec = obs.recorder(0);
        let tok = rec.start_wait(3, 7);
        assert!(tok.is_some());
        rec.end_wait(tok);
        rec.end_wait(rec.start_wait(3, 9));
        let report = obs.report();
        let comm = &report.per_pe[0].comm;
        assert!(comm.recv_wait_s >= 0.0);
        assert_eq!(comm.recv_wait_count, 2);
        assert_eq!(comm.recv_wait_by_peer.len(), 1);
        assert_eq!(comm.recv_wait_by_peer[0].peer, 3);
    }

    #[test]
    fn untraced_registry_has_no_trace() {
        let obs = Obs::new(1);
        assert!(!obs.is_traced());
        assert!(obs.trace().is_none());
    }

    #[test]
    fn trace_records_events_in_program_order() {
        let obs = Obs::with_trace(2, 64);
        let r0 = obs.recorder(0);
        let r1 = obs.recorder(1);
        assert!(r0.is_traced());
        {
            let _s = r0.span("vcycle");
            r0.on_send(1, 7, 8);
            r0.on_send(1, 7, 8);
            let _c = r0.collective_span("barrier");
        }
        r1.on_recv(0, 7, 8);
        r1.end_wait(r1.start_wait(0, 7));
        let trace = obs.trace().expect("traced");
        assert_eq!(trace.p, 2);
        let kinds: Vec<&TraceEventKind> = trace.per_pe[0].events.iter().map(|e| &e.kind).collect();
        assert!(matches!(kinds[0], TraceEventKind::SpanOpen { path } if path == "vcycle"));
        assert!(
            matches!(
                kinds[1],
                TraceEventKind::Send {
                    dst: 1,
                    tag: 7,
                    seq: 0,
                    bytes: 8
                }
            ),
            "first send has seq 0"
        );
        assert!(
            matches!(kinds[2], TraceEventKind::Send { seq: 1, .. }),
            "second send has seq 1"
        );
        assert!(matches!(
            kinds[3],
            TraceEventKind::CollectiveEnter { name: "barrier" }
        ));
        assert!(matches!(
            kinds[4],
            TraceEventKind::CollectiveExit { name: "barrier" }
        ));
        assert!(matches!(kinds[5], TraceEventKind::SpanClose { .. }));
        assert!(matches!(
            trace.per_pe[1].events[0].kind,
            TraceEventKind::Recv { src: 0, seq: 0, .. }
        ));
        assert!(matches!(
            trace.per_pe[1].events[1].kind,
            TraceEventKind::RecvWait { src: 0, .. }
        ));
        // Timestamps are monotone per PE (shared epoch, single thread).
        let ts: Vec<u64> = trace.per_pe[0].events.iter().map(|e| e.ts_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }
}
