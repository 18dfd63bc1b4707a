//! Chrome-trace / Perfetto JSON export of a [`RunTrace`], plus the
//! structural validator CI runs on exported artifacts.
//!
//! The export uses the Chrome trace event format (the JSON flavor
//! Perfetto's UI and `chrome://tracing` both load): one process, one
//! thread track per PE, `B`/`E` duration events for spans and
//! collectives, `X` complete events for receive waits and injected
//! stalls, instant events for drops/delays, and `s`/`f` flow events
//! connecting each send to its matching receive. Flow ids are derived
//! from `(src, dst, tag, seq)` — both endpoints can compute the id
//! locally because mailboxes are FIFO per (src, tag).
//!
//! Timestamps are microseconds (the format's unit) with nanosecond
//! fraction, measured from the run's shared monotonic epoch.

use crate::json::{push_json_str, JsonValue};
use crate::trace::{FaultKind, RunTrace, TraceEventKind};

/// Microsecond timestamp with nanosecond fraction, as the JSON token.
fn push_ts_us(out: &mut String, ts_ns: u64) {
    use std::fmt::Write as _;
    let _ = write!(out, "{}.{:03}", ts_ns / 1000, ts_ns % 1000);
}

/// One event line. `extra` lands verbatim after the common fields.
fn push_event(out: &mut String, ph: char, tid: usize, ts_ns: u64, name: &str, extra: &str) {
    out.push_str("    {\"ph\": \"");
    out.push(ph);
    out.push_str("\", \"pid\": 0, \"tid\": ");
    out.push_str(&tid.to_string());
    out.push_str(", \"ts\": ");
    push_ts_us(out, ts_ns);
    out.push_str(", \"name\": ");
    push_json_str(out, name);
    out.push_str(extra);
    out.push_str("},\n");
}

/// Flow id shared by a send and its matching receive.
fn flow_id(src: usize, dst: usize, tag: u64, seq: u64) -> String {
    format!("{src}-{dst}-{tag}-{seq}")
}

/// Serializes a trace to Chrome-trace/Perfetto JSON.
pub fn to_perfetto_json(trace: &RunTrace) -> String {
    let mut o = String::with_capacity(1 << 16);
    o.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
    for pe in &trace.per_pe {
        let r = pe.rank;
        // Track metadata: name the thread after the PE.
        o.push_str("    {\"ph\": \"M\", \"pid\": 0, \"tid\": ");
        o.push_str(&r.to_string());
        o.push_str(", \"name\": \"thread_name\", \"args\": {\"name\": ");
        push_json_str(&mut o, &format!("PE {r}"));
        o.push_str("}},\n");
        for ev in &pe.events {
            match &ev.kind {
                TraceEventKind::SpanOpen { path } => {
                    push_event(&mut o, 'B', r, ev.ts_ns, path, ", \"cat\": \"phase\"");
                }
                TraceEventKind::SpanClose { path } => {
                    push_event(&mut o, 'E', r, ev.ts_ns, path, ", \"cat\": \"phase\"");
                }
                TraceEventKind::CollectiveEnter { name } => {
                    push_event(&mut o, 'B', r, ev.ts_ns, name, ", \"cat\": \"collective\"");
                }
                TraceEventKind::CollectiveExit { name } => {
                    push_event(&mut o, 'E', r, ev.ts_ns, name, ", \"cat\": \"collective\"");
                }
                TraceEventKind::Send {
                    dst,
                    tag,
                    seq,
                    bytes,
                } => {
                    let extra = format!(
                        ", \"cat\": \"comm\", \"id\": \"{}\", \
                         \"args\": {{\"dst\": {dst}, \"tag\": {tag}, \"bytes\": {bytes}}}",
                        flow_id(r, *dst, *tag, *seq)
                    );
                    push_event(&mut o, 's', r, ev.ts_ns, "msg", &extra);
                }
                TraceEventKind::Recv {
                    src,
                    tag,
                    seq,
                    bytes,
                } => {
                    let extra = format!(
                        ", \"cat\": \"comm\", \"id\": \"{}\", \"bp\": \"e\", \
                         \"args\": {{\"src\": {src}, \"tag\": {tag}, \"bytes\": {bytes}}}",
                        flow_id(*src, r, *tag, *seq)
                    );
                    push_event(&mut o, 'f', r, ev.ts_ns, "msg", &extra);
                }
                TraceEventKind::RecvWait { src, tag, wait_ns } => {
                    // The event is stamped at the wait's end; draw the
                    // slice backwards so it covers the blocked interval.
                    let start = ev.ts_ns.saturating_sub(*wait_ns);
                    let mut extra = String::from(", \"cat\": \"wait\", \"dur\": ");
                    push_ts_us(&mut extra, *wait_ns);
                    extra.push_str(&format!(", \"args\": {{\"src\": {src}, \"tag\": {tag}}}"));
                    push_event(&mut o, 'X', r, start, &format!("wait PE {src}"), &extra);
                }
                TraceEventKind::Fault {
                    kind,
                    peer,
                    tag,
                    dur_ns,
                } => {
                    let name = format!("fault:{}", kind.label());
                    let args = format!(", \"args\": {{\"peer\": {peer}, \"tag\": {tag}}}");
                    if *kind == FaultKind::Stall {
                        let mut extra = String::from(", \"cat\": \"fault\", \"dur\": ");
                        push_ts_us(&mut extra, *dur_ns);
                        extra.push_str(&args);
                        push_event(&mut o, 'X', r, ev.ts_ns, &name, &extra);
                    } else {
                        let extra = format!(", \"cat\": \"fault\", \"s\": \"t\"{args}");
                        push_event(&mut o, 'i', r, ev.ts_ns, &name, &extra);
                    }
                }
            }
        }
    }
    // Strip the trailing ",\n" left by the last event (the metadata
    // event guarantees at least one line per PE; a 0-PE trace has none).
    if o.ends_with(",\n") {
        o.truncate(o.len() - 2);
        o.push('\n');
    }
    o.push_str("  ]\n}\n");
    o
}

/// Structurally validates an exported Perfetto JSON document:
///
/// 1. it parses, with a `traceEvents` array of event objects carrying
///    `ph`/`pid`/`tid` (and `ts` for non-metadata events);
/// 2. `B`/`E` events are balanced per (pid, tid) track with matching
///    names (no cross-track or misnested closes);
/// 3. `X` events carry a `dur`;
/// 4. every flow-finish (`f`) id resolves to some flow-start (`s`) id
///    (sends without receives are legal — drops — but not vice versa).
///
/// Returns a one-line summary on success.
pub fn validate_perfetto(text: &str) -> Result<String, String> {
    let v = JsonValue::parse(text).map_err(|e| format!("trace does not parse: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<String>> = Default::default();
    let mut flow_starts: std::collections::BTreeSet<String> = Default::default();
    let mut flow_finishes: Vec<String> = Vec::new();
    let mut tracks: std::collections::BTreeSet<(u64, u64)> = Default::default();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let pid = ev
            .get("pid")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = ev
            .get("tid")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        tracks.insert((pid, tid));
        if ph != "M" && ev.get("ts").and_then(JsonValue::as_f64).is_none() {
            return Err(format!("event {i}: missing ts"));
        }
        let name = ev.get("name").and_then(JsonValue::as_str).unwrap_or("");
        match ph {
            "B" => stacks.entry((pid, tid)).or_default().push(name.to_string()),
            "E" => {
                let stack = stacks.entry((pid, tid)).or_default();
                match stack.pop() {
                    Some(open) if open == name => {}
                    Some(open) => {
                        return Err(format!(
                            "event {i}: E \"{name}\" does not match open B \"{open}\" \
                             on track {pid}/{tid}"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "event {i}: E \"{name}\" with no open B on track {pid}/{tid}"
                        ))
                    }
                }
            }
            "X" => {
                if ev.get("dur").and_then(JsonValue::as_f64).is_none() {
                    return Err(format!("event {i}: X without dur"));
                }
            }
            "s" | "f" => {
                let id = ev
                    .get("id")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("event {i}: flow event without id"))?;
                if ph == "s" {
                    flow_starts.insert(id.to_string());
                } else {
                    flow_finishes.push(id.to_string());
                }
            }
            "M" | "i" => {}
            other => return Err(format!("event {i}: unknown ph {other:?}")),
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "track {pid}/{tid}: B \"{open}\" never closed ({} open)",
                stack.len()
            ));
        }
    }
    let mut unresolved = 0usize;
    for id in &flow_finishes {
        if !flow_starts.contains(id) {
            unresolved += 1;
        }
    }
    if unresolved > 0 {
        return Err(format!(
            "{unresolved} of {} flow finishes have no matching start",
            flow_finishes.len()
        ));
    }
    Ok(format!(
        "{} events, {} tracks, {} flows ({} resolved)",
        events.len(),
        tracks.len(),
        flow_starts.len(),
        flow_finishes.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{PeTrace, TraceEvent};

    fn sample_trace() -> RunTrace {
        let e = |ts_ns, kind| TraceEvent { ts_ns, kind };
        RunTrace {
            p: 2,
            per_pe: vec![
                PeTrace {
                    rank: 0,
                    events: vec![
                        e(
                            0,
                            TraceEventKind::SpanOpen {
                                path: "vcycle".into(),
                            },
                        ),
                        e(
                            10,
                            TraceEventKind::Send {
                                dst: 1,
                                tag: 7,
                                seq: 0,
                                bytes: 8,
                            },
                        ),
                        e(20, TraceEventKind::CollectiveEnter { name: "barrier" }),
                        e(30, TraceEventKind::CollectiveExit { name: "barrier" }),
                        e(
                            40,
                            TraceEventKind::Fault {
                                kind: FaultKind::Stall,
                                peer: 1,
                                tag: 7,
                                dur_ns: 1000,
                            },
                        ),
                        e(
                            50,
                            TraceEventKind::SpanClose {
                                path: "vcycle".into(),
                            },
                        ),
                    ],
                    dropped: 0,
                },
                PeTrace {
                    rank: 1,
                    events: vec![
                        e(
                            15,
                            TraceEventKind::RecvWait {
                                src: 0,
                                tag: 7,
                                wait_ns: 5,
                            },
                        ),
                        e(
                            16,
                            TraceEventKind::Recv {
                                src: 0,
                                tag: 7,
                                seq: 0,
                                bytes: 8,
                            },
                        ),
                    ],
                    dropped: 0,
                },
            ],
        }
    }

    #[test]
    fn export_passes_validator() {
        let json = to_perfetto_json(&sample_trace());
        let summary = validate_perfetto(&json).expect("must validate");
        assert!(summary.contains("tracks"), "{summary}");
        // The send/recv pair shares one resolved flow id.
        assert!(summary.contains("1 flows (1 resolved)"), "{summary}");
    }

    #[test]
    fn validator_rejects_unbalanced_spans() {
        let mut t = sample_trace();
        t.per_pe[0].events.pop(); // drop the SpanClose
        let err = validate_perfetto(&to_perfetto_json(&t)).expect_err("unbalanced");
        assert!(err.contains("never closed"), "{err}");
    }

    #[test]
    fn validator_rejects_orphan_flow_finish() {
        let mut t = sample_trace();
        t.per_pe[0].events.remove(1); // drop the Send; the Recv's f dangles
        let err = validate_perfetto(&to_perfetto_json(&t)).expect_err("orphan f");
        assert!(err.contains("no matching start"), "{err}");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_perfetto("{}").is_err());
        assert!(validate_perfetto("not json").is_err());
    }

    #[test]
    fn empty_trace_is_valid() {
        let t = RunTrace {
            p: 0,
            per_pe: vec![],
        };
        validate_perfetto(&to_perfetto_json(&t)).expect("empty trace validates");
    }

    #[test]
    fn timestamps_are_microseconds_with_ns_fraction() {
        let mut out = String::new();
        push_ts_us(&mut out, 1_234_567);
        assert_eq!(out, "1234.567");
    }
}
