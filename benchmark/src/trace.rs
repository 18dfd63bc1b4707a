//! The harness's own spans, recorded around calls into the program's
//! layers. Nothing here is called from inside the program: a span is taken
//! from outside a public function, kept in memory, and written out when the
//! run ends.

use crate::json::Json;
use std::time::Instant;

/// `pe` of spans taken on the harness's own thread, outside any PE.
pub const DRIVER: i32 = -1;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Repetition of the traced run the span belongs to (0 = warm-up).
    pub rep: u32,
    pub pe: i32,
    /// Hierarchy level the call worked on, −1 when it has none.
    pub level: i32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records the spans of one thread. PEs run as threads of the harness
/// process, so each gets a tracer of its own on the shared `epoch` and hands
/// its spans back when the PE closure returns.
pub struct Tracer {
    epoch: Instant,
    rep: u32,
    pe: i32,
    /// Parent of this tracer's root spans: the driver span that spawned the
    /// PE group.
    root_parent: Option<u64>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, rep: u32, pe: i32, root_parent: Option<u64>) -> Self {
        Tracer {
            epoch,
            rep,
            pe,
            root_parent,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Ids are unique across the tracers of one run without coordination:
    /// rep, then thread, then the span's index on that thread.
    fn id_of(&self, index: usize) -> u64 {
        (u64::from(self.rep) << 40) | (((self.pe + 1) as u64) << 24) | index as u64
    }

    /// Id of the innermost open span.
    pub fn current(&self) -> Option<u64> {
        self.open.last().map(|&i| self.spans[i].id)
    }

    /// Times `f` as a child of the innermost open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        level: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let index = self.spans.len();
        let parent = self.current().or(self.root_parent);
        self.spans.push(Span {
            id: self.id_of(index),
            parent,
            name,
            rep: self.rep,
            pe: self.pe,
            level: level.map_or(-1, |l| l as i32),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(index);
        let r = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "span left open");
        self.spans
    }
}

fn children(spans: &[Span], id: u64) -> impl Iterator<Item = &Span> {
    spans.iter().filter(move |s| s.parent == Some(id))
}

/// A span's duration minus the part of its interval that its child spans
/// cover (children may overlap one another when they ran on other threads).
pub fn self_time_ns(spans: &[Span], span: &Span) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children(spans, span.id)
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

/// Time under `span` that no layer call accounts for: a span without
/// children is a layer call and has none; otherwise its self time, plus that
/// of its children on the same thread, plus that of the worst of its children
/// on other threads (the PEs run side by side, so their blind spots overlap
/// rather than add).
fn blind_ns(spans: &[Span], span: &Span) -> u64 {
    let mut below = children(spans, span.id).peekable();
    if below.peek().is_none() {
        return 0;
    }
    let (mut same_thread, mut other_threads) = (0, 0);
    for child in below {
        let blind = blind_ns(spans, child);
        if child.pe == span.pe {
            same_thread += blind;
        } else {
            other_threads = other_threads.max(blind);
        }
    }
    self_time_ns(spans, span) + same_thread + other_threads
}

/// Share of `root`'s duration that layer calls account for; a blind spot on
/// any PE lowers it.
pub fn coverage(spans: &[Span], root: &Span) -> f64 {
    1.0 - blind_ns(spans, root) as f64 / (root.end_ns - root.start_ns) as f64
}

/// Seconds spent in spans called `name` during `rep`, summed per thread, then
/// the maximum over threads: the slowest PE sets the time of a parallel step.
pub fn seconds_max_over_pes(spans: &[Span], rep: u32, name: &str) -> f64 {
    let mut per_pe: Vec<(i32, f64)> = Vec::new();
    for s in spans.iter().filter(|s| s.rep == rep && s.name == name) {
        match per_pe.iter_mut().find(|(pe, _)| *pe == s.pe) {
            Some((_, t)) => *t += s.seconds(),
            None => per_pe.push((s.pe, s.seconds())),
        }
    }
    per_pe.iter().map(|&(_, t)| t).fold(0.0, f64::max)
}

pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::str(s.name)),
                    ("rep", Json::Num(f64::from(s.rep))),
                    ("pe", Json::Num(f64::from(s.pe))),
                    ("level", Json::Num(f64::from(s.level))),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, pe: i32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            rep: 1,
            pe,
            level: -1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn tracer_nests_spans_and_links_parents() {
        let mut t = Tracer::new(Instant::now(), 2, 0, Some(77));
        t.span("outer", None, |t| {
            t.span("inner", Some(3), |_| {});
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(77));
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!((spans[1].level, spans[1].rep, spans[1].pe), (3, 2, 0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_ne!(spans[0].id, spans[1].id);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100, 200),
            span(2, Some(1), 0, 110, 140),
            // Overlaps span 2 by 10 ns: the overlap is covered once.
            span(3, Some(1), 1, 130, 160),
            // Reaches past the parent's end: clipped.
            span(4, Some(1), 0, 190, 250),
            // A grandchild covers nothing of span 1 directly.
            span(5, Some(2), 0, 110, 120),
        ];
        assert_eq!(self_time_ns(&spans, &spans[0]), 100 - (50 + 10));
        assert_eq!(self_time_ns(&spans, &spans[1]), 30 - 10);
        assert_eq!(self_time_ns(&spans, &spans[2]), 30);
    }

    #[test]
    fn coverage_takes_the_least_covered_pe() {
        let spans = vec![
            span(1, None, DRIVER, 0, 1000),
            span(2, Some(1), DRIVER, 0, 100),
            span(3, Some(1), DRIVER, 100, 900),
            span(10, Some(3), 0, 100, 900),
            span(11, Some(10), 0, 100, 500),
            span(12, Some(10), 0, 500, 900),
            span(20, Some(3), 1, 100, 900),
            span(21, Some(20), 1, 100, 400),
            span(22, Some(20), 1, 600, 900),
            span(4, Some(1), DRIVER, 900, 950),
        ];
        // Blind: 50 ns of the root itself and PE 1's 200 ns gap, of 1000.
        assert!((coverage(&spans, &spans[0]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn parallel_time_is_the_slowest_pe() {
        let spans = vec![
            span(1, None, 0, 0, 1_000_000_000),
            span(2, None, 0, 0, 500_000_000),
            span(3, None, 1, 0, 1_200_000_000),
        ];
        assert_eq!(seconds_max_over_pes(&spans, 1, "t"), 1.5);
        assert_eq!(seconds_max_over_pes(&spans, 1, "absent"), 0.0);
    }
}
