//! Observability layer for the ParHIP reproduction (ISSUE 4).
//!
//! The paper's experimental section (Sec. V of arXiv:1404.4797) reports
//! per-phase behavior — coarsening levels, SCLP iterations, communication
//! volume, balance over V-cycles — that the pipeline must be able to
//! surface without perturbing the measurement. This crate provides:
//!
//! - [`Obs`]/[`Recorder`]: a run-wide registry with one observation cell
//!   per PE. Each PE thread records into its own cell (single-writer, so
//!   the `parking_lot` mutexes are uncontended); the report is assembled
//!   after the PEs have joined. A disabled [`Recorder`] is a `None` — every
//!   hook is a single branch, which keeps the hot path within noise when
//!   observability is off.
//! - Span timers ([`Recorder::span`]): RAII-guarded, path-keyed
//!   (`vcycle/coarsen/contract`), with strict nesting discipline —
//!   a mismatched exit is dropped and counted, never corrupts the stack.
//! - Comm counters ([`Recorder::on_send`] etc.): messages/bytes per tag on
//!   both the send and receive side, collective invocation counts,
//!   receive-wait time, and chaos fault counters (delayed/stalled/dropped).
//!   These enable conservation assertions (Σ sent − Σ dropped == Σ
//!   received, per tag) that were previously unwritable.
//! - Structural metrics ([`LevelMetrics`], [`RefineMetrics`]): the
//!   per-level quantities the SEA'14 companion paper (arXiv:1402.3281)
//!   uses to diagnose quality — nodes/edges/ghosts after each contraction,
//!   cut and imbalance after each refinement pass.
//! - [`RunReport`]: a schema-versioned JSON report with fully
//!   deterministic field ordering; [`RunReport::zeroed`] zeroes every
//!   timing and racy field so reports from runs with the same seed and
//!   config compare byte-for-byte.
//! - [`JsonValue`]: the one JSON model. The report and the trace export
//!   are built as values and printed by its one printer (no serde in the
//!   offline vendor set); its parser is the check on what we write.
//! - [`PassStats`]: the unified local-search outcome type that replaces
//!   the previously duplicated `SclpStats`/`FmStats`.
//! - Trace timelines ([`RunTrace`], via [`Obs::with_trace`]): bounded
//!   per-PE event rings recording span open/close, sends/receives with
//!   per-peer sequence numbers, per-peer receive waits, collective
//!   entry/exit, and fault-injection incidents — all on one run-wide
//!   monotonic epoch. Exportable as Chrome-trace/Perfetto JSON
//!   ([`to_perfetto_json`], checked by [`validate_perfetto`]) and
//!   analyzable in-process (`RunTrace::phase_blame`,
//!   `RunTrace::collective_skews`) for straggler attribution.
//! - [`WaitHistogram`]: √2-log-bucket latency histogram behind the
//!   report's receive-wait distribution fields (the aggregate's
//!   p50/p95/p99 are derived from the buckets).
//! - Front-end plumbing ([`ObsOutputs`], [`ObsSession`]): which of
//!   report / trace a CLI was asked for, opened before the run and
//!   written after the PEs have joined.
//! - Resource profiling ([`ResourceSample`]): current/peak RSS and
//!   thread-CPU seconds, per PE in the report.
//!
//! Raw `Instant::now()` in `crates/{core,pgp-dmp,pgp-lp}` is confined to
//! this crate's seam by `cargo xtask lint` rule 7 (`instant-now`): time is
//! taken inside [`Recorder`]/[`WaitToken`], so algorithm and comm code
//! never handle clocks directly. The same rule covers this crate's own
//! sources — the annotated recorder/epoch sites are the only sanctioned
//! timestamp escapes.

mod json;
mod metrics;
mod outputs;
mod perfetto;
mod recorder;
mod report;
mod resources;
mod trace;

pub use json::JsonValue;
pub use metrics::{LevelMetrics, PassStats, PhaseStat, RefineMetrics, TagCounter, WaitHistogram};
pub use outputs::{ObsOutputs, ObsSession};
pub use perfetto::{to_perfetto_json, validate_perfetto};
pub use recorder::{CollectiveGuard, Obs, Recorder, SpanGuard, WaitToken, DEFAULT_TRACE_CAPACITY};
pub use report::{
    Aggregate, CollectiveEntry, CommReport, HistBucketEntry, PeReport, PeerWaitEntry, PhaseEntry,
    RunReport, TagEntry, SCHEMA_VERSION,
};
pub use resources::{read_rss_kb, thread_cpu_seconds, ResourceSample};
pub use trace::{
    CollectiveSkew, FaultKind, PeTrace, PhaseBlame, RunTrace, TraceEvent, TraceEventKind,
};
