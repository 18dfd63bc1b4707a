//! The per-PE recorder and the run-wide observation registry.
//!
//! Each PE keeps one record of what it did: its event log, one
//! [`TraceEvent`] per hook call, in program order. The run report
//! ([`Obs::report`]) and the trace ([`Obs::trace`]) are both read off
//! that log after the PEs have joined.
//!
//! ## Clock model
//!
//! All event timestamps are nanoseconds since one *run epoch*: a
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

use crate::metrics::LevelWork;
use crate::report::{Aggregate, PeReport, RunReport, SCHEMA_VERSION};
use crate::resources::ResourceSample;
use crate::trace::{PeTrace, RunTrace, TraceEvent, TraceEventKind};

/// Run-wide observation registry: one cell per PE.
///
/// Created once per observed run ([`Obs::new`]); each PE thread gets a
/// [`Recorder`] handle onto its own cell via [`Obs::recorder`]. Cells are
/// single-writer — only the owning PE thread records — so the mutexes
/// are uncontended; [`Obs::report`] and [`Obs::trace`] lock them after
/// the PEs have joined.
pub struct Obs {
    cells: Vec<Mutex<PeState>>,
    /// Origin of the run's monotonic epoch (see the module docs).
    epoch_origin: Mutex<Instant>,
}

/// All observations of one PE. Single-writer by the owning thread.
#[derive(Default)]
pub(crate) struct PeState {
    /// The event log, in program order.
    pub(crate) events: Vec<TraceEvent>,
    /// Open spans, innermost last.
    stack: Vec<OpenSpan>,
    /// Span exits whose name did not match the innermost open span;
    /// dropped rather than logged, counted here for the report.
    pub(crate) orphan_exits: u64,
    /// Next send sequence number per (dst, tag).
    send_seq: BTreeMap<(usize, u64), u64>,
    /// Next receive sequence number per (src, tag).
    recv_seq: BTreeMap<(usize, u64), u64>,
    /// Per-level work records, in recording order.
    pub(crate) work: Vec<LevelWork>,
    /// Most recent resource sample ([`Recorder::sample_resources`]);
    /// embedded in the report's per-PE block.
    pub(crate) resources: ResourceSample,
}

impl PeState {
    fn log(&mut self, ts_ns: u64, kind: TraceEventKind) {
        self.events.push(TraceEvent { ts_ns, kind });
    }
}

/// Allocates the next sequence number of `key` in `seqs`.
fn next_seq(seqs: &mut BTreeMap<(usize, u64), u64>, key: (usize, u64)) -> u64 {
    let slot = seqs.entry(key).or_insert(0);
    *slot += 1;
    *slot - 1
}

struct OpenSpan {
    /// Full path of this span (`parent_path/name`).
    path: String,
    /// Last path segment, for exit matching.
    name: &'static str,
}

impl Obs {
    /// A registry for a `p`-PE run.
    pub fn new(p: usize) -> Arc<Self> {
        Arc::new(Self {
            cells: (0..p).map(|_| Mutex::new(PeState::default())).collect(),
            epoch_origin: Mutex::new(Instant::now()), // lint:instant-ok: run epoch origin
        })
    }

    /// Number of PEs this registry observes.
    pub fn p(&self) -> usize {
        self.cells.len()
    }

    /// Re-anchors the run epoch at "now". The universe calls this once
    /// at setup, before the PE threads spawn — recorders created after
    /// the rebase (all of them) share the new origin.
    pub fn rebase_epoch(&self) {
        *self.epoch_origin.lock() = Instant::now(); // lint:instant-ok: run epoch rebase
    }

    /// The recorder handle for `rank`'s cell.
    pub fn recorder(self: &Arc<Self>, rank: usize) -> Recorder {
        assert!(rank < self.cells.len(), "obs recorder rank out of range");
        Recorder {
            inner: Some(Inner {
                origin: *self.epoch_origin.lock(),
                obs: Arc::clone(self),
                rank,
            }),
        }
    }

    /// Assembles the run report, a fold of each PE's event log. Call after
    /// the PE threads have joined (open spans are not counted).
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

    /// Copies out the event logs. Call after the PE threads have joined.
    pub fn trace(&self) -> RunTrace {
        let per_pe = self
            .cells
            .iter()
            .enumerate()
            .map(|(rank, cell)| PeTrace {
                rank,
                events: cell.lock().events.clone(),
            })
            .collect();
        RunTrace {
            p: self.cells.len(),
            per_pe,
        }
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
    obs: Arc<Obs>,
    rank: usize,
}

impl Inner {
    fn with<R>(&self, f: impl FnOnce(&mut PeState) -> R) -> R {
        f(&mut self.obs.cells[self.rank].lock())
    }

    /// Nanoseconds since the run epoch: the timestamp of every event.
    fn now_ns(&self) -> u64 {
        let now = Instant::now(); // lint:instant-ok: event timestamp
        u64::try_from(now.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Logs the event `kind` builds from the cell, stamped now.
    fn log(&self, kind: impl FnOnce(&mut PeState) -> TraceEventKind) {
        let ts_ns = self.now_ns();
        self.with(|st| {
            let kind = kind(st);
            st.log(ts_ns, kind);
        });
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
            inner.log(|st| {
                let path = match st.stack.last() {
                    Some(top) => format!("{}/{name}", top.path),
                    None => name.to_string(),
                };
                st.stack.push(OpenSpan {
                    path: path.clone(),
                    name,
                });
                TraceEventKind::SpanOpen { path }
            });
        }
    }

    /// Closes the innermost span if its name matches; a mismatch (orphan
    /// exit) is dropped and counted, never unwinds other spans.
    #[inline]
    pub fn exit(&self, name: &'static str) {
        if let Some(inner) = &self.inner {
            let ts_ns = inner.now_ns();
            inner.with(|st| match st.stack.last() {
                Some(top) if top.name == name => {
                    let path = st.stack.pop().expect("non-empty: just matched").path;
                    st.log(ts_ns, TraceEventKind::SpanClose { path });
                }
                _ => st.orphan_exits += 1,
            });
        }
    }

    /// Logs a collective's entry; its exit is logged when the guard drops.
    #[inline]
    pub fn collective_span<'a>(&'a self, name: &'static str) -> CollectiveGuard<'a> {
        if let Some(inner) = &self.inner {
            inner.log(|_| TraceEventKind::CollectiveEnter { name });
        }
        CollectiveGuard { rec: self, name }
    }

    /// Logs one sent message of `bytes` payload bytes to `dst` on `tag`.
    #[inline]
    pub fn on_send(&self, dst: usize, tag: u64, bytes: u64) {
        if let Some(inner) = &self.inner {
            inner.log(|st| TraceEventKind::Send {
                dst,
                tag,
                seq: next_seq(&mut st.send_seq, (dst, tag)),
                bytes,
            });
        }
    }

    /// Logs one received message of `bytes` payload bytes from `src` on
    /// `tag`.
    #[inline]
    pub fn on_recv(&self, src: usize, tag: u64, bytes: u64) {
        if let Some(inner) = &self.inner {
            inner.log(|st| TraceEventKind::Recv {
                src,
                tag,
                seq: next_seq(&mut st.recv_seq, (src, tag)),
                bytes,
            });
        }
    }

    /// Logs one send toward `dst` held in a limbo queue by a delay plan.
    #[inline]
    pub fn on_delay(&self, dst: usize, tag: u64) {
        if let Some(inner) = &self.inner {
            inner.log(|_| TraceEventKind::Delay { peer: dst, tag });
        }
    }

    /// Starts timing a receive wait for `tag` from `src`. Returns `None`
    /// when disabled; pass the token to [`Recorder::end_wait`] once the
    /// message arrived.
    #[inline]
    pub fn start_wait(&self, src: usize, tag: u64) -> Option<WaitToken> {
        self.inner.as_ref().map(|inner| WaitToken {
            start_ns: inner.now_ns(),
            src,
            tag,
        })
    }

    /// Ends a receive wait started by [`Recorder::start_wait`]: logs a
    /// `RecvWait` event stamped at the wait's end.
    #[inline]
    pub fn end_wait(&self, token: Option<WaitToken>) {
        if let (Some(inner), Some(token)) = (&self.inner, token) {
            let end_ns = inner.now_ns();
            let kind = TraceEventKind::RecvWait {
                src: token.src,
                tag: token.tag,
                wait_ns: end_ns.saturating_sub(token.start_ns),
            };
            inner.with(|st| st.log(end_ns, kind));
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

/// Times a receive wait; created by [`Recorder::start_wait`].
pub struct WaitToken {
    /// When the wait started, on the run epoch.
    start_ns: u64,
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

/// RAII guard logging the `CollectiveExit` event of a
/// [`Recorder::collective_span`].
#[must_use = "dropping the guard immediately ends the collective on the timeline"]
pub struct CollectiveGuard<'a> {
    rec: &'a Recorder,
    name: &'static str,
}

impl Drop for CollectiveGuard<'_> {
    fn drop(&mut self) {
        if let Some(inner) = &self.rec.inner {
            let name = self.name;
            inner.log(|_| TraceEventKind::CollectiveExit { name });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
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
    fn trace_records_events_in_program_order() {
        let obs = Obs::new(2);
        let r0 = obs.recorder(0);
        let r1 = obs.recorder(1);
        {
            let _s = r0.span("vcycle");
            r0.on_send(1, 7, 8);
            r0.on_send(1, 7, 8);
            let _c = r0.collective_span("barrier");
        }
        r1.on_recv(0, 7, 8);
        r1.end_wait(r1.start_wait(0, 7));
        let trace = obs.trace();
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
