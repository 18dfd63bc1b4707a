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

use crate::json::{JsonValue, ToValue};
use crate::trace::{FaultKind, RunTrace, TraceEventKind};

/// Microsecond timestamp with nanosecond fraction, as a JSON number.
fn us(ns: u64) -> JsonValue {
    JsonValue::Num(format!("{}.{:03}", ns / 1000, ns % 1000))
}

/// Flow id shared by a send and its matching receive.
fn flow_id(src: usize, dst: usize, tag: u64, seq: u64) -> JsonValue {
    format!("{src}-{dst}-{tag}-{seq}").to_value()
}

/// One trace event: the common fields, then `rest` in order.
fn event<const N: usize>(
    ph: &str,
    tid: usize,
    ts_ns: u64,
    name: &str,
    cat: &str,
    rest: [(&str, JsonValue); N],
) -> JsonValue {
    let common = [
        ("ph", ph.to_value()),
        ("pid", 0usize.to_value()),
        ("tid", tid.to_value()),
        ("ts", us(ts_ns)),
        ("name", name.to_value()),
        ("cat", cat.to_value()),
    ];
    let fields = common.into_iter().chain(rest);
    JsonValue::Obj(fields.map(|(k, v)| (k.to_string(), v)).collect())
}

/// An event's `args` field.
fn args<const N: usize>(fields: [(&str, &dyn ToValue); N]) -> (&'static str, JsonValue) {
    (
        "args",
        JsonValue::obj(fields.map(|(k, v)| (k, v.to_value()))),
    )
}

/// Serializes a trace to Chrome-trace/Perfetto JSON. Each event is built
/// and printed on its own, so the trace is never held as one tree.
pub fn to_perfetto_json(trace: &RunTrace) -> String {
    let mut o = String::with_capacity(1 << 16);
    o.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [");
    // The frame ends in `[` until the first event is printed.
    let mut print = |ev: JsonValue| {
        o.push_str(if o.ends_with('[') {
            "\n    "
        } else {
            ",\n    "
        });
        ev.write(&mut o, 2);
    };
    for pe in &trace.per_pe {
        let r = pe.rank;
        // Track metadata: name the thread after the PE.
        print(JsonValue::obj([
            ("ph", "M".to_value()),
            ("pid", 0usize.to_value()),
            ("tid", r.to_value()),
            ("name", "thread_name".to_value()),
            (
                "args",
                JsonValue::obj([("name", format!("PE {r}").to_value())]),
            ),
        ]));
        for ev in &pe.events {
            let ts = ev.ts_ns;
            print(match ev.kind {
                TraceEventKind::SpanOpen { ref path } => event("B", r, ts, path, "phase", []),
                TraceEventKind::SpanClose { ref path } => event("E", r, ts, path, "phase", []),
                TraceEventKind::CollectiveEnter { name } => {
                    event("B", r, ts, name, "collective", [])
                }
                TraceEventKind::CollectiveExit { name } => {
                    event("E", r, ts, name, "collective", [])
                }
                TraceEventKind::Send {
                    dst,
                    tag,
                    seq,
                    bytes,
                } => {
                    let id = ("id", flow_id(r, dst, tag, seq));
                    let args = args([("dst", &dst), ("tag", &tag), ("bytes", &bytes)]);
                    event("s", r, ts, "msg", "comm", [id, args])
                }
                TraceEventKind::Recv {
                    src,
                    tag,
                    seq,
                    bytes,
                } => {
                    let id = ("id", flow_id(src, r, tag, seq));
                    let args = args([("src", &src), ("tag", &tag), ("bytes", &bytes)]);
                    event(
                        "f",
                        r,
                        ts,
                        "msg",
                        "comm",
                        [id, ("bp", "e".to_value()), args],
                    )
                }
                // The event is stamped at the wait's end; draw the slice
                // backwards so it covers the blocked interval.
                TraceEventKind::RecvWait { src, tag, wait_ns } => {
                    let name = format!("wait PE {src}");
                    let args = args([("src", &src), ("tag", &tag)]);
                    let start = ts.saturating_sub(wait_ns);
                    event("X", r, start, &name, "wait", [("dur", us(wait_ns)), args])
                }
                TraceEventKind::Fault {
                    kind,
                    peer,
                    tag,
                    dur_ns,
                } => {
                    let name = format!("fault:{}", kind.label());
                    let args = args([("peer", &peer), ("tag", &tag)]);
                    if kind == FaultKind::Stall {
                        event("X", r, ts, &name, "fault", [("dur", us(dur_ns)), args])
                    } else {
                        event("i", r, ts, &name, "fault", [("s", "t".to_value()), args])
                    }
                }
            });
        }
    }
    o.push_str(if o.ends_with('[') {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
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
        assert_eq!(us(1_234_567), JsonValue::Num("1234.567".to_string()));
    }
}
