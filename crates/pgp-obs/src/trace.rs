//! Cross-PE event timelines: the bounded per-PE trace ring and the
//! analyses derived from it (phase-attributed wait blame, collective
//! skew).
//!
//! The ring records *events* — timestamped span open/close, sends and
//! receives with per-peer sequence numbers, per-peer receive waits,
//! collective entry/exit, and sends a delay plan held back — where the
//! run report records only *aggregates*. Timestamps are nanoseconds since
//! the run's monotonic epoch (captured at `Universe` setup), so events
//! from different PEs of one run share a single clock and can be laid out
//! on one timeline.
//!
//! Determinism: with a deterministic algorithm and a fixed seed, every
//! event kind except [`TraceEventKind::RecvWait`] occurs at a fixed
//! point in each PE's program order. `RecvWait` events exist only when
//! a receive actually blocked — a race against the sender — so
//! [`RunTrace::event_signature`] excludes them, and reports receives in
//! sorted rather than arrival order (polling receives drain whatever
//! has arrived *so far*). The signature is what the trace golden tests
//! compare.

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

/// Bounded event buffer for one PE. Single-writer (the owning PE
/// thread, under its observation cell's lock); appends are O(1) and
/// allocation-free once at capacity. When full, *new* events are
/// dropped (drop-newest) and counted — dropping oldest would shift
/// which prefix survives and make truncation nondeterministic.
pub(crate) struct TraceRing {
    events: Vec<TraceEvent>,
    cap: usize,
    dropped: u64,
    /// Next send sequence number per (dst, tag).
    send_seq: BTreeMap<(usize, u64), u64>,
    /// Next receive sequence number per (src, tag).
    recv_seq: BTreeMap<(usize, u64), u64>,
}

impl TraceRing {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            events: Vec::new(),
            cap,
            dropped: 0,
            send_seq: BTreeMap::new(),
            recv_seq: BTreeMap::new(),
        }
    }

    /// Appends an event, or counts it as dropped at capacity.
    pub(crate) fn push(&mut self, ts_ns: u64, kind: TraceEventKind) {
        if self.events.len() < self.cap {
            self.events.push(TraceEvent { ts_ns, kind });
        } else {
            self.dropped += 1;
        }
    }

    /// Allocates the next send sequence number toward (`dst`, `tag`).
    pub(crate) fn next_send_seq(&mut self, dst: usize, tag: u64) -> u64 {
        let slot = self.send_seq.entry((dst, tag)).or_insert(0);
        let seq = *slot;
        *slot += 1;
        seq
    }

    /// Allocates the next receive sequence number from (`src`, `tag`).
    pub(crate) fn next_recv_seq(&mut self, src: usize, tag: u64) -> u64 {
        let slot = self.recv_seq.entry((src, tag)).or_insert(0);
        let seq = *slot;
        *slot += 1;
        seq
    }

    /// Non-destructive copy into the report form.
    pub(crate) fn snapshot(&self, rank: usize) -> PeTrace {
        PeTrace {
            rank,
            events: self.events.clone(),
            dropped: self.dropped,
        }
    }
}

/// One PE's finished timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeTrace {
    /// The PE's rank.
    pub rank: usize,
    /// Events in recording order.
    pub events: Vec<TraceEvent>,
    /// Events discarded because the ring was full.
    pub dropped: u64,
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
    /// and byte counts — never timestamps. [`TraceEventKind::RecvWait`]
    /// events are excluded (their existence is a race), receives are
    /// listed sorted by (src, tag, seq) rather than in arrival order
    /// (polling receives observe arrival timing), and the dropped
    /// count is excluded (wait events share the ring's capacity).
    pub fn event_signature(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for pe in &self.per_pe {
            let _ = writeln!(out, "pe {}", pe.rank);
            let mut recvs: Vec<(usize, u64, u64, u64)> = Vec::new();
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
                    } => recvs.push((*src, *tag, *seq, *bytes)),
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
            recvs.sort_unstable();
            for (src, tag, seq, bytes) in recvs {
                let _ = writeln!(out, "  recv src={src} tag={tag} seq={seq} bytes={bytes}");
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
    fn ring_drops_newest_at_capacity() {
        let mut ring = TraceRing::new(2);
        ring.push(1, TraceEventKind::CollectiveEnter { name: "barrier" });
        ring.push(2, TraceEventKind::CollectiveExit { name: "barrier" });
        ring.push(3, TraceEventKind::CollectiveEnter { name: "barrier" });
        let pe = ring.snapshot(0);
        assert_eq!(pe.events.len(), 2);
        assert_eq!(pe.dropped, 1);
        assert_eq!(pe.events[0].ts_ns, 1, "oldest events survive");
    }

    #[test]
    fn seqnos_are_per_peer_per_tag() {
        let mut ring = TraceRing::new(8);
        assert_eq!(ring.next_send_seq(1, 7), 0);
        assert_eq!(ring.next_send_seq(1, 7), 1);
        assert_eq!(ring.next_send_seq(2, 7), 0, "independent per dst");
        assert_eq!(ring.next_send_seq(1, 8), 0, "independent per tag");
        assert_eq!(ring.next_recv_seq(1, 7), 0, "recv side independent");
    }

    #[test]
    fn signature_skips_waits_and_sorts_recvs() {
        let mk = |events: Vec<TraceEvent>| RunTrace {
            p: 1,
            per_pe: vec![PeTrace {
                rank: 0,
                events,
                dropped: 0,
            }],
        };
        let a = mk(vec![
            ev(
                5,
                TraceEventKind::Recv {
                    src: 1,
                    tag: 7,
                    seq: 0,
                    bytes: 8,
                },
            ),
            ev(
                9,
                TraceEventKind::RecvWait {
                    src: 2,
                    tag: 7,
                    wait_ns: 100,
                },
            ),
            ev(
                10,
                TraceEventKind::Recv {
                    src: 0,
                    tag: 7,
                    seq: 0,
                    bytes: 8,
                },
            ),
        ]);
        let b = mk(vec![
            ev(
                1,
                TraceEventKind::Recv {
                    src: 0,
                    tag: 7,
                    seq: 0,
                    bytes: 8,
                },
            ),
            ev(
                2,
                TraceEventKind::Recv {
                    src: 1,
                    tag: 7,
                    seq: 0,
                    bytes: 8,
                },
            ),
        ]);
        assert_eq!(
            a.event_signature(),
            b.event_signature(),
            "arrival order and waits must not affect the signature"
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
                    dropped: 0,
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
                    dropped: 0,
                },
            ],
        };
        let blame = trace.phase_blame();
        assert_eq!(blame["vcycle/coarsen"].total_wait_ns, 40);
        assert_eq!(blame["vcycle/coarsen"].by_peer[&1], 40);
        assert_eq!(blame["(root)"].by_peer[&0], 10);
    }
}
