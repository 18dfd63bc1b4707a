//! The event log and the analyses read off it (phase-attributed wait
//! blame, the determinism signature).
//!
//! Every recorder hook logs one *event* — timestamped span open/close,
//! sends and receives with per-peer sequence numbers, per-peer receive
//! waits, collective entry/exit, and sends a delay plan held back. The
//! run report is a fold of these events (`PeReport::from_state`), and
//! the trace is the events themselves. Timestamps are nanoseconds since
//! the run's monotonic epoch (captured at `Universe` setup), so events
//! from different PEs of one run share a single clock and can be laid
//! out on one timeline.
//!
//! Determinism: with a deterministic algorithm and a fixed seed, every
//! event kind except [`TraceEventKind::RecvWait`] occurs at a fixed
//! point in each PE's program order — every receive names its source
//! and tag, so receives too are logged in program order. `RecvWait`
//! events exist only when a receive actually blocked — a race against
//! the sender — so [`RunTrace::event_signature`] excludes them. The
//! signature is what the trace golden tests compare.

use std::collections::BTreeMap;

/// One recorded event kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A span opened (full `/`-joined path).
    SpanOpen {
        /// Full span path, e.g. `vcycle/coarsen`.
        path: String,
    },
    /// A span closed.
    SpanClose {
        /// Full span path.
        path: String,
    },
    /// A point-to-point send. `seq` is the 0-based sequence number of
    /// this message among all sends from this PE to `dst` on `tag`.
    Send {
        /// Destination PE.
        dst: usize,
        /// Message tag.
        tag: u64,
        /// Per-(dst, tag) send sequence number.
        seq: u64,
        /// Payload wire bytes.
        bytes: u64,
    },
    /// A point-to-point receive. `seq` is the 0-based sequence number
    /// among all receives on this PE from `src` on `tag`; mailboxes are
    /// FIFO per (src, tag), so the i-th receive matches the i-th send
    /// and flow arrows connect them, also under a delay plan (limbo
    /// queues keep FIFO per (src, tag)).
    Recv {
        /// Source PE.
        src: usize,
        /// Message tag.
        tag: u64,
        /// Per-(src, tag) receive sequence number.
        seq: u64,
        /// Payload wire bytes.
        bytes: u64,
    },
    /// A receive blocked for `wait_ns` on a message from `src`. The
    /// timestamp is the *end* of the wait.
    RecvWait {
        /// Awaited source PE.
        src: usize,
        /// Awaited tag.
        tag: u64,
        /// Nanoseconds blocked.
        wait_ns: u64,
    },
    /// A collective was entered (before any of its communication).
    CollectiveEnter {
        /// Collective name (`barrier`, `allreduce`, …).
        name: &'static str,
    },
    /// The matching collective exit.
    CollectiveExit {
        /// Collective name.
        name: &'static str,
    },
    /// A delay plan held a send from this PE back in its limbo queue.
    Delay {
        /// The send's destination PE.
        peer: usize,
        /// The send's tag.
        tag: u64,
    },
}

/// One timestamped event on one PE's timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the run's monotonic epoch.
    pub ts_ns: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// One PE's finished timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeTrace {
    /// The PE's rank.
    pub rank: usize,
    /// Events in program order.
    pub events: Vec<TraceEvent>,
}

/// A complete traced run: one timeline per PE on a shared clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunTrace {
    /// Number of PEs.
    pub p: usize,
    /// Per-PE timelines, rank ascending.
    pub per_pe: Vec<PeTrace>,
}

/// Receive-wait time attributed to one span path, with per-peer blame.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseBlame {
    /// Total nanoseconds any PE spent blocked in receives while this
    /// span path was its innermost open span.
    pub total_wait_ns: u64,
    /// Blame per awaited peer.
    pub by_peer: BTreeMap<usize, u64>,
}

impl RunTrace {
    /// Deterministic fingerprint of the run's event structure, used by
    /// the trace golden tests: kinds, span paths, peers, tags, seqnos
    /// and byte counts, in program order — never timestamps.
    /// [`TraceEventKind::RecvWait`] events are excluded (their existence
    /// is a race).
    pub fn event_signature(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for pe in &self.per_pe {
            let _ = writeln!(out, "pe {}", pe.rank);
            for ev in &pe.events {
                match &ev.kind {
                    TraceEventKind::SpanOpen { path } => {
                        let _ = writeln!(out, "  open {path}");
                    }
                    TraceEventKind::SpanClose { path } => {
                        let _ = writeln!(out, "  close {path}");
                    }
                    TraceEventKind::Send {
                        dst,
                        tag,
                        seq,
                        bytes,
                    } => {
                        let _ = writeln!(out, "  send dst={dst} tag={tag} seq={seq} bytes={bytes}");
                    }
                    TraceEventKind::Recv {
                        src,
                        tag,
                        seq,
                        bytes,
                    } => {
                        let _ = writeln!(out, "  recv src={src} tag={tag} seq={seq} bytes={bytes}");
                    }
                    // Waits exist only because of wall-clock races; they
                    // do not belong in a deterministic signature.
                    TraceEventKind::RecvWait { .. } => {}
                    TraceEventKind::CollectiveEnter { name } => {
                        let _ = writeln!(out, "  coll+ {name}");
                    }
                    TraceEventKind::CollectiveExit { name } => {
                        let _ = writeln!(out, "  coll- {name}");
                    }
                    TraceEventKind::Delay { peer, tag } => {
                        let _ = writeln!(out, "  delay peer={peer} tag={tag}");
                    }
                }
            }
        }
        out
    }

    /// Attributes every receive wait to the span path that was
    /// innermost open on the waiting PE, blaming the awaited peer.
    /// Waits outside any span land under `"(root)"`.
    pub fn phase_blame(&self) -> BTreeMap<String, PhaseBlame> {
        let mut blame: BTreeMap<String, PhaseBlame> = BTreeMap::new();
        for pe in &self.per_pe {
            let mut stack: Vec<&str> = Vec::new();
            for ev in &pe.events {
                match &ev.kind {
                    TraceEventKind::SpanOpen { path } => stack.push(path),
                    TraceEventKind::SpanClose { path } if stack.last() == Some(&path.as_str()) => {
                        stack.pop();
                    }
                    TraceEventKind::RecvWait { src, wait_ns, .. } => {
                        let path = stack.last().copied().unwrap_or("(root)");
                        let slot = blame.entry(path.to_string()).or_default();
                        slot.total_wait_ns += wait_ns;
                        *slot.by_peer.entry(*src).or_insert(0) += wait_ns;
                    }
                    _ => {}
                }
            }
        }
        blame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_ns: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { ts_ns, kind }
    }

    #[test]
    fn seqnos_are_per_peer_per_tag() {
        let obs = crate::recorder::Obs::new(3);
        let rec = obs.recorder(0);
        for (dst, tag) in [(1, 7), (1, 7), (2, 7), (1, 8)] {
            rec.on_send(dst, tag, 8);
        }
        rec.on_recv(1, 7, 8);
        let seqs: Vec<u64> = obs.trace().per_pe[0]
            .events
            .iter()
            .map(|e| match e.kind {
                TraceEventKind::Send { seq, .. } | TraceEventKind::Recv { seq, .. } => seq,
                _ => unreachable!("only sends and receives were logged"),
            })
            .collect();
        // Independent per destination, per tag, and per direction.
        assert_eq!(seqs, [0, 1, 0, 0, 0]);
    }

    #[test]
    fn signature_skips_waits_and_timestamps_but_keeps_order() {
        let recv = |src| TraceEventKind::Recv {
            src,
            tag: 7,
            seq: 0,
            bytes: 8,
        };
        let wait = TraceEventKind::RecvWait {
            src: 1,
            tag: 7,
            wait_ns: 100,
        };
        let mk = |events: Vec<TraceEvent>| RunTrace {
            p: 1,
            per_pe: vec![PeTrace { rank: 0, events }],
        };
        let a = mk(vec![ev(5, recv(0)), ev(9, wait), ev(10, recv(1))]);
        let b = mk(vec![ev(1, recv(0)), ev(2, recv(1))]);
        let swapped = mk(vec![ev(1, recv(1)), ev(2, recv(0))]);
        assert_eq!(
            a.event_signature(),
            b.event_signature(),
            "timestamps and waits must not affect the signature"
        );
        assert_ne!(
            a.event_signature(),
            swapped.event_signature(),
            "receives are compared in program order"
        );
    }

    #[test]
    fn blame_attributes_waits_to_innermost_span_and_peer() {
        let trace = RunTrace {
            p: 2,
            per_pe: vec![
                PeTrace {
                    rank: 0,
                    events: vec![
                        ev(
                            0,
                            TraceEventKind::SpanOpen {
                                path: "vcycle".into(),
                            },
                        ),
                        ev(
                            1,
                            TraceEventKind::SpanOpen {
                                path: "vcycle/coarsen".into(),
                            },
                        ),
                        ev(
                            50,
                            TraceEventKind::RecvWait {
                                src: 1,
                                tag: 7,
                                wait_ns: 40,
                            },
                        ),
                        ev(
                            60,
                            TraceEventKind::SpanClose {
                                path: "vcycle/coarsen".into(),
                            },
                        ),
                        ev(
                            80,
                            TraceEventKind::SpanClose {
                                path: "vcycle".into(),
                            },
                        ),
                    ],
                },
                PeTrace {
                    rank: 1,
                    events: vec![ev(
                        30,
                        TraceEventKind::RecvWait {
                            src: 0,
                            tag: 7,
                            wait_ns: 10,
                        },
                    )],
                },
            ],
        };
        let blame = trace.phase_blame();
        assert_eq!(blame["vcycle/coarsen"].total_wait_ns, 40);
        assert_eq!(blame["vcycle/coarsen"].by_peer[&1], 40);
        assert_eq!(blame["(root)"].by_peer[&0], 10);
    }
}
