//! Graph I/O in the METIS/KaHIP `.graph` text format plus a simple
//! whitespace edge-list reader.
//!
//! METIS format summary: the header line is `n m [fmt [ncon]]` where `fmt`
//! is a 3-digit flag string — `1xx` node sizes (unsupported), `x1x` node
//! weights, `xx1` edge weights. Each of the following `n` lines lists the
//! (1-based) neighbors of node `i`, preceded by its weight if `x1x`, each
//! neighbor followed by the edge weight if `xx1`. Comment lines start
//! with `%`.
//!
//! All three readers walk the file's bytes with one private `Scanner`: no
//! per-line `String`, no UTF-8 pass. [`read_metis`] lists what it
//! normalises and what it rejects.

use crate::{ids, BlockId, CsrGraph, GraphBuilder, Node, Partition, Weight};
use std::fmt::Write as _;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// I/O errors.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file content violates the format.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn perr(line: usize, msg: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        msg: msg.into(),
    }
}

/// A byte that separates tokens within a line: space, tab, CR, VT, FF.
#[inline]
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)
}

/// True iff a token that reached position `i` of `buf` ends there.
#[inline]
fn ends_token(buf: &[u8], i: usize) -> bool {
    buf.get(i).is_none_or(|&b| b == b'\n' || is_blank(b))
}

/// A cursor over the bytes of a text file: line by line, and within a
/// line one unsigned decimal token at a time. A line ends at `\n` or at
/// the end of the input.
struct Scanner<'a> {
    buf: &'a [u8],
    pos: usize,
    /// 1-based number of the line `pos` is on; 0 before the first
    /// [`Scanner::next_line`].
    line: usize,
}

impl<'a> Scanner<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            line: 0,
        }
    }

    /// Skips blanks; the byte then under the cursor, `None` at the end of
    /// the line.
    #[inline]
    fn skip_blanks(&mut self) -> Option<u8> {
        while self.pos < self.buf.len() && is_blank(self.buf[self.pos]) {
            self.pos += 1;
        }
        self.buf.get(self.pos).copied().filter(|&b| b != b'\n')
    }

    /// Moves to the next line whose first non-blank byte is not one of
    /// `comment`. Blank lines are returned, not skipped: in a METIS file
    /// they are rows. `false` at the end of the input.
    fn next_line(&mut self, comment: &[u8]) -> bool {
        loop {
            if self.line > 0 {
                // Leave the current line, whatever is left of it.
                let rest = &self.buf[self.pos..];
                self.pos += rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len()) + 1;
            }
            if self.pos >= self.buf.len() {
                return false;
            }
            self.line += 1;
            if !self.skip_blanks().is_some_and(|b| comment.contains(&b)) {
                return true;
            }
        }
    }

    /// The next token of the current line as an unsigned decimal (one
    /// leading `+` allowed, as `str::parse` allows it): `None` at the end
    /// of the line, `Err(token)` for a token that is not a number or does
    /// not fit `u64`.
    #[inline]
    fn uint(&mut self) -> Option<Result<u64, &'a [u8]>> {
        self.skip_blanks()?;
        let buf = self.buf;
        let start = self.pos;
        let mut i = start;
        let mut x = 0u64;
        while i < buf.len() && buf[i].is_ascii_digit() {
            x = x.wrapping_mul(10).wrapping_add(u64::from(buf[i] - b'0'));
            i += 1;
        }
        // Up to 19 digits cannot wrap; everything else takes the slow path.
        if (1..=19).contains(&(i - start)) && ends_token(buf, i) {
            self.pos = i;
            return Some(Ok(x));
        }
        Some(self.uint_checked())
    }

    /// [`Scanner::uint`] for the tokens its digit loop does not settle: a
    /// sign, 20 digits or more, or a byte that is not a digit.
    #[cold]
    fn uint_checked(&mut self) -> Result<u64, &'a [u8]> {
        let buf = self.buf;
        let start = self.pos;
        while !ends_token(buf, self.pos) {
            self.pos += 1;
        }
        let token = &buf[start..self.pos];
        let digits = token.strip_prefix(b"+").unwrap_or(token);
        if digits.is_empty() || !digits.iter().all(u8::is_ascii_digit) {
            return Err(token);
        }
        digits
            .iter()
            .try_fold(0u64, |x, &b| {
                x.checked_mul(10)?.checked_add(u64::from(b - b'0'))
            })
            .ok_or(token)
    }

    /// A number the format requires at this position of the line.
    #[inline]
    fn field(&mut self, what: &str) -> Result<u64, IoError> {
        match self.uint() {
            Some(Ok(x)) => Ok(x),
            Some(Err(_)) => Err(perr(self.line, format!("bad {what}"))),
            None => Err(perr(self.line, format!("missing {what}"))),
        }
    }
}

/// Moves `s` onto the METIS header: the first line that is neither a
/// comment nor blank.
fn seek_metis_header(s: &mut Scanner<'_>) -> bool {
    while s.next_line(b"%") {
        if s.skip_blanks().is_some() {
            return true;
        }
    }
    false
}

/// The 1-based line that holds adjacency row `row` (cold path: errors found
/// after parsing re-walk the file instead of storing a line per row).
fn line_of_row(buf: &[u8], row: usize) -> usize {
    let mut s = Scanner::new(buf);
    seek_metis_header(&mut s);
    for _ in 0..=row {
        s.next_line(b"%");
    }
    s.line
}

/// Reads a graph in METIS format from any reader.
///
/// The file is read into one buffer and its rows are parsed straight into
/// the CSR arrays, sized from the header.
///
/// **Normalised:** comment lines (`%`) anywhere, blank lines before the
/// header and after the last row, CR/LF line ends, tabs and repeated
/// blanks; within a row, neighbours in any order (sorted), a neighbour
/// listed more than once (merged, weights summed) and self-loops
/// (dropped).
///
/// **Rejected** with [`IoError::Parse`]: at the header line — a missing or
/// non-numeric `n` / `m` / `fmt`, node sizes (`fmt` `1xx`), `n` outside
/// the `Node` range, an `n` or `m` the file is too short to hold, and a
/// row or edge count that differs from the header's; at the offending
/// row's line — a non-numeric token, a neighbour outside `1..=n`, a
/// missing weight, weights whose sum overflows `u64`, and an arc `(u, v,
/// w)` without the mirror arc `(v, u, w)` in row `v`; at its own line — a
/// non-blank line after the last row.
pub fn read_metis(mut reader: impl Read) -> Result<CsrGraph, IoError> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    let mut s = Scanner::new(&buf);

    if !seek_metis_header(&mut s) {
        return Err(perr(1, "missing header line"));
    }
    let header_line = s.line;
    let n = s.field("n")?;
    let m = s.field("m")?;
    let fmt = s
        .uint()
        .unwrap_or(Ok(0))
        .map_err(|_| perr(header_line, "bad fmt"))?;
    let has_edge_weights = fmt % 10 == 1;
    let has_node_weights = fmt / 10 % 10 == 1;
    if fmt / 100 % 10 == 1 {
        return Err(perr(header_line, "node sizes (fmt 1xx) are not supported"));
    }
    // The arrays are sized from the header, so the header must first be
    // bounded by what the file can hold: a row takes at least its line end,
    // an arc at least a digit and a separator.
    let len = ids::count_global(buf.len());
    if n >= u64::from(Node::MAX) || n > len {
        return Err(perr(
            header_line,
            format!("header claims {n} nodes, the file has {len} bytes"),
        ));
    }
    if m > len / 4 {
        return Err(perr(
            header_line,
            format!("header claims {m} edges, the file has {len} bytes"),
        ));
    }
    let (n, m) = (ids::global_index(n), ids::global_index(m));

    let mut xadj = vec![0u64; n + 1];
    let mut adjncy: Vec<Node> = Vec::with_capacity(2 * m);
    // Stays empty while every arc read so far weighs 1 (`push_arc_weight`).
    let mut adjwgt: Vec<Weight> = Vec::new();
    let mut node_weight: Vec<Weight> = Vec::with_capacity(n);
    let mut node_weight_sum: Weight = 0;
    let mut arc_weight_sum: Weight = 0;
    for u in 0..n {
        if !s.next_line(b"%") {
            // Whole-file mismatches point at the header: its claim is what
            // the rest of the file contradicts.
            return Err(perr(
                header_line,
                format!("header claims {n} nodes, file has {u} adjacency lines"),
            ));
        }
        let node_w = if has_node_weights {
            s.field("node weight")?
        } else {
            1
        };
        node_weight_sum = node_weight_sum
            .checked_add(node_w)
            .ok_or_else(|| perr(s.line, "node weights overflow u64"))?;
        node_weight.push(node_w);

        let row = adjncy.len();
        // Strictly ascending and loop-free is what a well-formed file has;
        // the parser sees it for free, and only other rows pay for a sort.
        let own = ids::count_global(u) + 1;
        let mut prev = 0;
        let mut clean = true;
        while let Some(tok) = s.uint() {
            let v = tok.map_err(|t| {
                let t = String::from_utf8_lossy(t);
                perr(s.line, format!("bad neighbor '{t}'"))
            })?;
            if v == 0 || v > ids::count_global(n) {
                return Err(perr(s.line, format!("neighbor {v} out of range 1..={n}")));
            }
            clean &= v > prev && v != own;
            prev = v;
            adjncy.push(ids::global_node(v - 1));
            let w = if has_edge_weights {
                s.field("edge weight")?
            } else {
                1
            };
            arc_weight_sum = arc_weight_sum
                .checked_add(w)
                .ok_or_else(|| perr(s.line, "edge weights overflow u64"))?;
            push_arc_weight(&mut adjwgt, adjncy.len(), 2 * m, w);
        }
        if !clean {
            normalise_row(ids::node_of_index(u), row, &mut adjncy, &mut adjwgt, 2 * m);
        }
        xadj[u + 1] = ids::count_global(adjncy.len());
    }
    while s.next_line(b"%") {
        if s.skip_blanks().is_some() {
            return Err(perr(s.line, "more adjacency lines than nodes"));
        }
    }

    // The rows are stored as the file gives them, so symmetry is checked
    // rather than constructed.
    if let Some((u, v)) = first_unmirrored_arc(&xadj, &adjncy, &adjwgt) {
        return Err(perr(
            line_of_row(&buf, ids::node_index(u)),
            format!(
                "node {} lists {}, but node {} does not list it back with the same weight",
                u + 1,
                v + 1,
                v + 1
            ),
        ));
    }
    if adjncy.len() != 2 * m {
        return Err(perr(
            header_line,
            format!(
                "header claims {m} edges, file contains {}",
                adjncy.len() / 2
            ),
        ));
    }
    Ok(CsrGraph::from_parts(xadj, adjncy, adjwgt, node_weight))
}

/// Records the weight of the arc just pushed, the `arcs`-th of at most
/// `cap`. `adjwgt` stays empty — every arc weighs 1 — until the first arc
/// that weighs something else; only then is it allocated, with the ones
/// before it filled in.
#[inline]
fn push_arc_weight(adjwgt: &mut Vec<Weight>, arcs: usize, cap: usize, w: Weight) {
    if adjwgt.is_empty() && w != 1 {
        adjwgt.reserve_exact(cap);
        adjwgt.resize(arcs - 1, 1);
    }
    if w != 1 || !adjwgt.is_empty() {
        adjwgt.push(w);
    }
}

/// Rewrites the row that starts at `row` and runs to the end of the arrays
/// the way [`GraphBuilder`] would have built it: self-loops of `u` dropped,
/// neighbours sorted, repeated neighbours merged by summing their weights.
fn normalise_row(
    u: Node,
    row: usize,
    adjncy: &mut Vec<Node>,
    adjwgt: &mut Vec<Weight>,
    cap: usize,
) {
    let weight = |i: usize| if adjwgt.is_empty() { 1 } else { adjwgt[i] };
    let mut arcs: Vec<(Node, Weight)> = (row..adjncy.len())
        .map(|i| (adjncy[i], weight(i)))
        .filter(|&(v, _)| v != u)
        .collect();
    arcs.sort_unstable_by_key(|&(v, _)| v);
    // Cannot overflow: the reader bounds the sum of all weights.
    arcs.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    adjncy.truncate(row);
    adjwgt.truncate(row);
    for (v, w) in arcs {
        adjncy.push(v);
        push_arc_weight(adjwgt, adjncy.len(), cap, w);
    }
}

/// An arc `(u, v)` of a CSR with strictly ascending rows whose mirror
/// `(v, u)` is missing from row `v` or carries a different weight; `None`
/// if the adjacency is symmetric.
///
/// One pass with a cursor per row. Rows are visited in ascending `u`; each
/// looks *back*: an arc to a lower node `v` claims the next unclaimed entry
/// of row `v`'s upper part, and those claims arrive in the order row `v`
/// lists them. Looking back rather than ahead keeps the claimed rows in
/// cache on graphs with locality.
fn first_unmirrored_arc(xadj: &[u64], adjncy: &[Node], adjwgt: &[Weight]) -> Option<(Node, Node)> {
    let n = xadj.len() - 1;
    let row = |u: usize| ids::global_index(xadj[u])..ids::global_index(xadj[u + 1]);
    // next[v]: the first entry of row v's upper part no higher row claimed.
    let mut next: Vec<usize> = Vec::with_capacity(n);
    for u in 0..n {
        let own = ids::node_of_index(u);
        let mut upper = row(u).end;
        for i in row(u) {
            let v = adjncy[i];
            if v > own {
                upper = i;
                break;
            }
            let c = next[ids::node_index(v)];
            let unclaimed = row(ids::node_index(v)).contains(&c).then(|| adjncy[c]);
            // No stored weights: all arcs weigh 1 and the targets decide.
            if unclaimed == Some(own) && (adjwgt.is_empty() || adjwgt[c] == adjwgt[i]) {
                next[ids::node_index(v)] = c + 1;
            } else {
                // An entry of row `v` that row `x < u` did not claim is the
                // older defect.
                return Some(match unclaimed {
                    Some(x) if x < own => (v, x),
                    _ => (own, v),
                });
            }
        }
        next.push(upper);
    }
    // Whatever is left unclaimed points at a higher row that does not
    // point back.
    (0..n)
        .find(|&v| next[v] < row(v).end)
        .map(|v| (ids::node_of_index(v), adjncy[next[v]]))
}

/// Writes a graph in METIS format. Weights are emitted only when
/// non-trivial (any node weight ≠ 1 / any edge weight ≠ 1).
pub fn write_metis(graph: &CsrGraph, writer: impl Write) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    let node_weighted = graph.node_weights().iter().any(|&x| x != 1);
    let edge_weighted = graph.has_arc_weights();
    let fmt = match (node_weighted, edge_weighted) {
        (false, false) => "",
        (false, true) => " 1",
        (true, false) => " 10",
        (true, true) => " 11",
    };
    writeln!(w, "{} {}{fmt}", graph.n(), graph.m())?;
    // `write!` into a `String` cannot fail.
    let mut line = String::new();
    for u in graph.nodes() {
        line.clear();
        if node_weighted {
            let _ = write!(line, "{}", graph.node_weight(u));
        }
        for (v, wt) in graph.neighbors_weighted(u) {
            if !line.is_empty() {
                line.push(' ');
            }
            let _ = write!(line, "{}", v + 1);
            if edge_weighted {
                let _ = write!(line, " {wt}");
            }
        }
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Convenience: read a METIS graph from a file path.
pub fn read_metis_file(path: impl AsRef<Path>) -> Result<CsrGraph, IoError> {
    read_metis(std::fs::File::open(path)?)
}

/// Convenience: write a METIS graph to a file path.
pub fn write_metis_file(graph: &CsrGraph, path: impl AsRef<Path>) -> Result<(), IoError> {
    write_metis(graph, std::fs::File::create(path)?)
}

/// Writes a partition in the conventional METIS partition-file format:
/// one block ID per line, in node order.
pub fn write_partition(partition: &Partition, writer: impl Write) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    for &b in partition.assignment() {
        writeln!(w, "{b}")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a METIS partition file for `graph`; `k` is inferred as
/// `max block + 1`.
pub fn read_partition(graph: &CsrGraph, mut reader: impl Read) -> Result<Partition, IoError> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    let mut s = Scanner::new(&buf);
    let mut assignment: Vec<BlockId> = Vec::with_capacity(graph.n());
    while s.next_line(b"%") {
        let Some(tok) = s.uint() else {
            continue; // blank line
        };
        let block = tok.ok().and_then(|b| BlockId::try_from(b).ok());
        match (block, s.skip_blanks()) {
            (Some(b), None) => assignment.push(b),
            _ => return Err(perr(s.line, "bad block id: want one number per line")),
        }
    }
    if assignment.len() != graph.n() {
        // A whole-file mismatch: the last line read is where it became one.
        return Err(perr(
            s.line.max(1),
            format!(
                "{} entries for a graph with {} nodes",
                assignment.len(),
                graph.n()
            ),
        ));
    }
    let k = assignment.iter().copied().max().unwrap_or(0) as usize + 1;
    Ok(Partition::from_assignment(graph, k, assignment))
}

/// Reads a whitespace-separated edge list (`u v` per line, 0-based,
/// comments with `#` or `%`; anything after the two IDs is ignored). `n`
/// is inferred as `max id + 1`.
pub fn read_edge_list(mut reader: impl Read) -> Result<CsrGraph, IoError> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    let mut s = Scanner::new(&buf);
    let mut edges: Vec<(Node, Node)> = Vec::new();
    let mut n = 0usize;
    // The builder needs `max id + 1` inside the `Node` range.
    let mut node_id = |s: &mut Scanner<'_>, what: &str| match s.field(what)? {
        id if id < u64::from(Node::MAX) - 1 => {
            n = n.max(ids::global_index(id) + 1);
            Ok(ids::global_node(id))
        }
        id => Err(perr(s.line, format!("{what} {id} exceeds the node range"))),
    };
    while s.next_line(b"#%") {
        if s.skip_blanks().is_some() {
            let u = node_id(&mut s, "source id")?;
            let v = node_id(&mut s, "target id")?;
            edges.push((u, v));
        }
    }
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v) in edges {
        b.push_edge(u, v, 1);
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    /// The line a reader's parse error names.
    fn parse_line<T: std::fmt::Debug>(r: Result<T, IoError>) -> usize {
        match r {
            Err(IoError::Parse { line, .. }) => line,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn header_that_lies_about_n_is_rejected_before_allocating() {
        assert_eq!(parse_line(read_metis("5000000000 1\n2\n1\n".as_bytes())), 1);
        // Inside the Node range, but more rows than the file has bytes.
        assert_eq!(
            parse_line(read_metis("% c\n4000000 1\n2\n1\n".as_bytes())),
            2
        );
        assert_eq!(parse_line(read_metis("4294967295 0\n".as_bytes())), 1);
    }

    #[test]
    fn header_that_lies_about_m_is_rejected_before_allocating() {
        let text = "3 99999999999999999\n2\n1 3\n2\n";
        assert_eq!(parse_line(read_metis(text.as_bytes())), 1);
        assert_eq!(
            parse_line(read_metis("2 18446744073709551615\n2\n1\n".as_bytes())),
            1
        );
        // The tightest honest file still passes the bound: "2 1", "2", "1".
        assert_eq!(read_metis("2 1\n2\n1".as_bytes()).unwrap().m(), 1);
    }

    #[test]
    fn asymmetric_adjacency_names_the_row() {
        // Node 1 lists 2 and 3; nobody lists node 1.
        assert_eq!(parse_line(read_metis("3 2\n2 3\n\n\n".as_bytes())), 2);
        // Node 3 lists 1, node 1 does not list 3 (rows below a comment).
        assert_eq!(parse_line(read_metis("3 2\n2\n% c\n1\n1\n".as_bytes())), 5);
        // Node 2 lists 3, node 3 lists nobody: found when the file ends.
        assert_eq!(parse_line(read_metis("3 1\n\n3\n\n".as_bytes())), 3);
        // Both directions present, weights differ: the later row is named.
        assert_eq!(parse_line(read_metis("2 1 1\n2 5\n1 6\n".as_bytes())), 3);
        // Node 1 lists 2 twice (merged weight 2), node 2 lists 1 once.
        assert_eq!(parse_line(read_metis("2 1\n2 2\n1\n".as_bytes())), 3);
        // Weights all 1 but one, and its mirror is 1.
        assert_eq!(
            parse_line(read_metis("3 2 1\n2 1 3 1\n1 1\n1 2\n".as_bytes())),
            4
        );
    }

    #[test]
    fn unit_weights_are_stored_only_when_an_arc_needs_one() {
        let plain = read_metis("3 2\n2 3\n1\n1\n".as_bytes()).unwrap();
        assert!(!plain.has_arc_weights());
        // `fmt 1` with every weight spelled out as 1 is the same graph.
        let spelled = read_metis("3 2 1\n2 1 3 1\n1 1\n1 1\n".as_bytes()).unwrap();
        assert!(!spelled.has_arc_weights());
        assert_eq!(spelled, plain);
        assert_eq!(spelled.fingerprint(), plain.fingerprint());
        // No `fmt`, but rows 1 and 2 list each other twice: that edge weighs
        // 2, the ones read before and after it stay 1, the mirror check holds.
        let merged = read_metis("4 3\n3\n3 3 4\n1 2 2\n2\n".as_bytes()).unwrap();
        assert!(merged.has_arc_weights());
        let arcs: Vec<_> = merged
            .nodes()
            .flat_map(|u| merged.neighbors_weighted(u))
            .collect();
        assert_eq!(arcs, vec![(2, 1), (2, 2), (3, 1), (0, 1), (1, 2), (1, 1)]);
        merged.validate().unwrap();
    }

    #[test]
    fn rows_are_normalised_like_the_builder() {
        // Unsorted rows, node 2 twice in row 1 and vice versa, a self-loop
        // at node 3; CR/LF, tabs, trailing blanks, fmt spelled "001".
        let text = "3 2 001\r\n3 4\t2 1 2 2 \r\n1 1 1 2\r\n3 9 1 4\r\n";
        let g = read_metis(text.as_bytes()).unwrap();
        let want = GraphBuilder::new(3)
            .add_weighted_edge(0, 1, 1)
            .add_weighted_edge(0, 1, 2)
            .add_weighted_edge(0, 2, 4)
            .add_weighted_edge(2, 2, 9)
            .build();
        assert_eq!(g, want);
        g.validate().unwrap();
    }

    #[test]
    fn numbers_are_what_str_parse_accepts() {
        assert_eq!(read_metis("2 +1\n+2\n1\n".as_bytes()).unwrap().m(), 1);
        assert_eq!(parse_line(read_metis("2 1\n2x\n1\n".as_bytes())), 2);
        assert_eq!(parse_line(read_metis("2 1\n-2\n1\n".as_bytes())), 2);
        assert_eq!(parse_line(read_metis("2 1\n2\n+\n".as_bytes())), 3);
        // 2^64 does not fit; 2^64 - 1 does, but two of them overflow the sum.
        assert_eq!(
            parse_line(read_metis(
                "2 1 1\n2 18446744073709551616\n1 1\n".as_bytes()
            )),
            2
        );
        assert_eq!(
            parse_line(read_metis(
                "2 1 1\n2 18446744073709551615\n1 18446744073709551615\n".as_bytes()
            )),
            3
        );
        assert_eq!(parse_line(read_metis("2 1 x\n2\n1\n".as_bytes())), 1);
        assert_eq!(parse_line(read_metis("2 1 100\n2\n1\n".as_bytes())), 1);
    }

    #[test]
    fn lines_after_the_last_row() {
        assert_eq!(
            read_metis("2 1\n2\n1\n\n% c\n \t\n".as_bytes())
                .unwrap()
                .m(),
            1
        );
        assert_eq!(parse_line(read_metis("2 1\n2\n1\n\n1\n".as_bytes())), 5);
    }

    #[test]
    fn edge_list_errors_are_typed() {
        assert_eq!(parse_line(read_edge_list("0 1\n2\n".as_bytes())), 2);
        assert_eq!(parse_line(read_edge_list("0 x\n".as_bytes())), 1);
        assert_eq!(
            parse_line(read_edge_list("# c\n\n0 4294967294\n".as_bytes())),
            3
        );
        // Anything after the two IDs is ignored, as before.
        assert_eq!(read_edge_list("0 1 7 junk\n".as_bytes()).unwrap().m(), 1);
    }

    #[test]
    fn metis_roundtrip_unweighted() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut buf = Vec::new();
        write_metis(&g, &mut buf).unwrap();
        let g2 = read_metis(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn metis_roundtrip_weighted() {
        let g = GraphBuilder::new(3)
            .add_weighted_edge(0, 1, 4)
            .add_weighted_edge(1, 2, 9)
            .node_weights(vec![2, 3, 4])
            .build();
        let mut buf = Vec::new();
        write_metis(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("3 2 11"), "header was {text}");
        let g2 = read_metis(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn metis_parses_comments_and_blank_lines() {
        let text = "% a comment\n3 2\n2 3\n1\n% trailing\n1\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        // node 0 adjacent to 1 and 2 (0-based)
        assert_eq!(g.neighbor_slice(0), &[1, 2]);
    }

    #[test]
    fn metis_rejects_bad_neighbor() {
        let text = "2 1\n3\n1\n";
        assert!(matches!(
            read_metis(text.as_bytes()),
            Err(IoError::Parse { .. })
        ));
    }

    #[test]
    fn metis_rejects_wrong_edge_count() {
        let text = "3 5\n2\n1 3\n2\n";
        let err = read_metis(text.as_bytes()).unwrap_err();
        assert!(
            matches!(err, IoError::Parse { line: 1, .. }),
            "must point at the header: {err}"
        );
    }

    #[test]
    fn metis_rejects_missing_lines() {
        // Only 2 of 3 adjacency lines; the header sits below a comment.
        let text = "% a comment\n3 1\n2\n1\n";
        let err = read_metis(text.as_bytes()).unwrap_err();
        assert!(
            matches!(err, IoError::Parse { line: 2, .. }),
            "must point at the header: {err}"
        );
    }

    #[test]
    fn edge_list_roundtrip() {
        let text = "# comment\n0 1\n1 2\n2 0\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn edge_list_empty() {
        let g = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(g.n(), 0);
    }

    #[test]
    fn partition_roundtrip() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = crate::Partition::from_assignment(&g, 3, vec![0, 2, 2, 1]);
        let mut buf = Vec::new();
        write_partition(&p, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf.clone()).unwrap(), "0\n2\n2\n1\n");
        let p2 = read_partition(&g, &buf[..]).unwrap();
        assert_eq!(p.assignment(), p2.assignment());
        assert_eq!(p2.k(), 3);
    }

    #[test]
    fn partition_errors_name_a_line() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        // Too short: the last line read is where the file ran out.
        assert_eq!(parse_line(read_partition(&g, "0\n% c\n1\n".as_bytes())), 3);
        assert_eq!(parse_line(read_partition(&g, "".as_bytes())), 1);
        assert_eq!(parse_line(read_partition(&g, "0\nx\n1\n".as_bytes())), 2);
        assert_eq!(parse_line(read_partition(&g, "0\n1 2\n1\n".as_bytes())), 2);
        assert_eq!(
            parse_line(read_partition(&g, "0\n1\n4294967296\n".as_bytes())),
            3
        );
    }

    #[test]
    fn file_roundtrip() {
        let g = from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let dir = std::env::temp_dir().join("pgp_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.graph");
        write_metis_file(&g, &path).unwrap();
        let g2 = read_metis_file(&path).unwrap();
        assert_eq!(g, g2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// SplitMix64: the rendering decisions of one case, from its seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }

        fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
            options[self.below(options.len())]
        }
    }

    /// A small multigraph: `(n, edges with self-loops and repeats, node
    /// weights)`.
    #[allow(clippy::type_complexity)]
    fn multigraph() -> impl Strategy<Value = (usize, Vec<(Node, Node, Weight)>, Vec<Weight>)> {
        (1usize..10).prop_flat_map(|n| {
            let node = 0..n as Node;
            (
                Just(n),
                proptest::collection::vec((node.clone(), node, 1u64..6), 0..24),
                proptest::collection::vec(0u64..9, n),
            )
        })
    }

    /// Renders the multigraph as a METIS file the way a careless writer
    /// might: every edge in both endpoint rows (a self-loop in its one
    /// row), rows shuffled, comments, blank lines around the body, CR/LF,
    /// tabs, trailing blanks, any spelling of `fmt`.
    fn render(
        n: usize,
        edges: &[(Node, Node, Weight)],
        node_weights: Option<&[Weight]>,
        edge_weights: bool,
        m: usize,
        rng: &mut Rng,
    ) -> String {
        let mut rows: Vec<Vec<(Node, Weight)>> = vec![Vec::new(); n];
        for &(u, v, w) in edges {
            rows[u as usize].push((v, w));
            if u != v {
                rows[v as usize].push((u, w));
            }
        }
        let eol = rng.pick(&["\n", "\r\n"]);
        let fmt = match (node_weights.is_some(), edge_weights) {
            (false, false) => rng.pick(&["", " 0", " 00", " 000"]),
            (false, true) => rng.pick(&[" 1", " 01", " 001"]),
            (true, false) => rng.pick(&[" 10", " 010"]),
            (true, true) => rng.pick(&[" 11", " 011"]),
        };
        let mut text = String::new();
        for _ in 0..rng.below(3) {
            text += rng.pick(&["% comment\n", "\n", "  \t\r\n", "  % indented comment\n"]);
        }
        text += &format!(
            "{n}{}{m}{fmt}{}{eol}",
            rng.pick(&[" ", "\t", "  "]),
            rng.pick(&["", " "])
        );
        for (u, row) in rows.iter_mut().enumerate() {
            if rng.below(4) == 0 {
                text += "% 1 2 3 not a row\n";
            }
            for i in (1..row.len()).rev() {
                row.swap(i, rng.below(i + 1));
            }
            text += rng.pick(&["", "", " ", "\t"]);
            if let Some(nw) = node_weights {
                text += &format!("{}{}", nw[u], rng.pick(&[" ", "\t"]));
            }
            for &(v, w) in row.iter() {
                text += &format!("{}{}", v + 1, rng.pick(&[" ", "  ", "\t"]));
                if edge_weights {
                    text += &format!("{w}{}", rng.pick(&[" ", "\t "]));
                }
            }
            text += eol;
        }
        for _ in 0..rng.below(3) {
            text += rng.pick(&["\n", "% trailing comment", " \t\n"]);
        }
        text
    }

    /// What `CsrGraph::validate` checks, minus its ban on zero weights (the
    /// reader accepts them): ascending loop-free rows, every arc mirrored.
    fn assert_well_formed(g: &CsrGraph) {
        for u in g.nodes() {
            let row = g.neighbor_slice(u);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {u} not ascending");
            for (v, w) in g.neighbors_weighted(u) {
                assert!(v != u && (v as usize) < g.n(), "arc ({u},{v})");
                let back = g.neighbor_slice(v).binary_search(&u).expect("mirror arc");
                assert_eq!(g.neighbors_weighted(v).nth(back), Some((u, w)));
            }
        }
    }

    const BYTES: &[u8] = b"0123456789 \t\n\r%#+-x\x0b\xff";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The reader's graph equals the builder's graph of the same edge
        /// multiset, however the file spells it.
        #[test]
        fn reader_matches_builder_on_rendered_files(
            (n, edges, node_weights) in multigraph(),
            with_node_weights in 0u8..2,
            with_edge_weights in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            let edge_weights = with_edge_weights == 1;
            let mut oracle = GraphBuilder::new(n);
            for &(u, v, w) in &edges {
                oracle.push_edge(u, v, if edge_weights { w } else { 1 });
            }
            let node_weights = (with_node_weights == 1).then_some(&node_weights[..]);
            let oracle = match node_weights {
                Some(nw) => oracle.node_weights(nw.to_vec()).build(),
                None => oracle.build(),
            };
            let text = render(n, &edges, node_weights, edge_weights, oracle.m(), &mut Rng(seed));
            match read_metis(text.as_bytes()) {
                Ok(g) => prop_assert_eq!(g, oracle, "file:\n{}", text),
                Err(e) => panic!("{e}\nfile:\n{text}"),
            }
        }

        /// Arbitrary bytes yield a well-formed graph or a typed error from
        /// every reader — never a panic, never an allocation the input
        /// cannot justify.
        #[test]
        fn readers_never_panic_on_arbitrary_bytes(
            picks in proptest::collection::vec(0usize..BYTES.len(), 0..120),
        ) {
            let bytes: Vec<u8> = picks.into_iter().map(|i| BYTES[i]).collect();
            if let Ok(g) = read_metis(&bytes[..]) {
                assert_well_formed(&g);
            }
            let _ = read_partition(&CsrGraph::empty(), &bytes[..]);
            // `n` of an edge list is its largest ID, which no file length
            // bounds: keep the IDs of this one short.
            let short: Vec<u8> = bytes.chunks(3).flat_map(|c| [c, &b" "[..]].concat()).collect();
            if let Ok(g) = read_edge_list(&short[..]) {
                assert_well_formed(&g);
            }
        }

        /// A valid file with a few bytes replaced, inserted or deleted:
        /// still a well-formed graph or a typed error.
        #[test]
        fn reader_never_panics_on_mutated_files(
            (n, edges, node_weights) in multigraph(),
            seed in 0u64..u64::MAX,
            mutations in proptest::collection::vec((0usize..4096, 0usize..BYTES.len(), 0u8..3), 1..5),
        ) {
            let mut oracle = GraphBuilder::new(n);
            for &(u, v, w) in &edges {
                oracle.push_edge(u, v, w);
            }
            let m = oracle.build().m();
            let mut bytes = render(n, &edges, Some(&node_weights), true, m, &mut Rng(seed)).into_bytes();
            for (at, byte, kind) in mutations {
                let at = at % bytes.len();
                match kind {
                    0 => bytes[at] = BYTES[byte],
                    1 => bytes.insert(at, BYTES[byte]),
                    _ => drop(bytes.remove(at)),
                }
                if bytes.is_empty() {
                    break;
                }
            }
            if let Ok(g) = read_metis(&bytes[..]) {
                assert_well_formed(&g);
            }
        }
    }
}
