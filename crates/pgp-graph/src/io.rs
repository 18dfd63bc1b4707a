//! Graph I/O in the METIS/KaHIP `.graph` text format, and METIS partition
//! files.
//!
//! METIS format summary: the header line is `n m [fmt [ncon]]` where `fmt`
//! is a 3-digit flag string — `1xx` node sizes (unsupported), `x1x` node
//! weights, `xx1` edge weights. Each of the following `n` lines lists the
//! (1-based) neighbors of node `i`, preceded by its weight if `x1x`, each
//! neighbor followed by the edge weight if `xx1`. Comment lines start
//! with `%`.
//!
//! Both readers stream their input through one private `Scanner`: a
//! buffer of a few MiB refilled as its lines are consumed, no per-line
//! `String`, no UTF-8 pass, and never the whole file in memory. The METIS
//! rows go straight into CSR arrays: one [`RowSegment`] per contiguous
//! range of nodes the caller asks for ([`read_metis_file_segments`]), or a
//! single one that becomes a [`CsrGraph`] ([`read_metis_file`]).
//! [`read_metis`] lists what the reader normalises and what it rejects.

use crate::{ids, BlockId, CsrGraph, Node, Partition, Weight};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::{BufWriter, Read, Write};
use std::ops::Range;
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

/// Bytes a [`Scanner`] reads at a time. A longer line grows the buffer to
/// hold it, unless it is a comment, which streams past.
const BUF_BYTES: usize = 4 << 20;

/// The byte that starts a comment line in a METIS graph or partition file.
const COMMENT: u8 = b'%';

/// A cursor over a text stream: line by line, and within a line one
/// unsigned decimal token at a time. A line ends at `\n` or at the end of
/// the input; lines whose first non-blank byte is [`COMMENT`] are
/// skipped. The cursor walks whole lines only: what follows the last line
/// end in the buffer is carried to the front at the next refill.
struct Scanner<R> {
    reader: R,
    buf: Vec<u8>,
    /// `buf[..len]` holds bytes read; `buf[..end]` ends at a line end, or
    /// at the end of the input, and is all the cursor may walk.
    len: usize,
    end: usize,
    pos: usize,
    /// 1-based number of the line `pos` is on; 0 before the first
    /// [`Scanner::next_line`].
    line: usize,
    /// `pos` is on line `line`, which has not been left yet.
    in_line: bool,
    eof: bool,
    /// Bytes taken from `reader` so far.
    read: u64,
}

impl<R: Read> Scanner<R> {
    fn new(reader: R, buf_bytes: usize) -> Self {
        Self {
            reader,
            buf: vec![0; buf_bytes.max(1)],
            len: 0,
            end: 0,
            pos: 0,
            line: 0,
            in_line: false,
            eof: false,
            read: 0,
        }
    }

    /// Skips blanks; the byte then under the cursor, `None` at the end of
    /// the line.
    #[inline]
    fn skip_blanks(&mut self) -> Option<u8> {
        let buf = &self.buf[..self.end];
        while self.pos < buf.len() && is_blank(buf[self.pos]) {
            self.pos += 1;
        }
        buf.get(self.pos).copied().filter(|&b| b != b'\n')
    }

    /// Moves to the next line that is not a comment, refilling the buffer
    /// when its lines run out. Blank lines are returned, not skipped: in a
    /// METIS file they are rows. `false` at the end of the input.
    fn next_line(&mut self) -> Result<bool, IoError> {
        loop {
            if self.in_line {
                // Leave the current line, whatever is left of it.
                let rest = &self.buf[self.pos..self.end];
                self.pos += rest
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(rest.len(), |i| i + 1);
                self.in_line = false;
            }
            if self.pos >= self.end && !self.refill()? {
                return Ok(false);
            }
            self.line += 1;
            self.in_line = true;
            if self.skip_blanks() != Some(COMMENT) {
                return Ok(true);
            }
        }
    }

    /// Carries the unfinished line to the front of the buffer and reads
    /// until the buffer holds a whole line or the input ends; `false` when
    /// nothing is left.
    #[cold]
    fn refill(&mut self) -> Result<bool, IoError> {
        self.buf.copy_within(self.end..self.len, 0);
        self.len -= self.end;
        (self.pos, self.end) = (0, 0);
        // The carried bytes are the start of one line: no line end in them.
        let mut scanned = self.len;
        loop {
            if let Some(i) = self.buf[scanned..self.len]
                .iter()
                .rposition(|&b| b == b'\n')
            {
                self.end = scanned + i + 1;
                return Ok(true);
            }
            scanned = self.len;
            if self.eof {
                self.end = self.len;
                return Ok(self.len > 0);
            }
            if self.len == self.buf.len() {
                // One line fills the buffer: a comment is dropped as it
                // streams past, anything else gets room to finish.
                let first = self.buf.iter().find(|&&b| !is_blank(b));
                if first == Some(&COMMENT) {
                    self.skip_line()?;
                    scanned = 0;
                    continue;
                }
                self.buf.resize(2 * self.len, 0);
            }
            let got = self.fill(self.len)?;
            self.len += got;
        }
    }

    /// Drops the line that fills the buffer, reading past its end; what
    /// follows the line end stays.
    #[cold]
    fn skip_line(&mut self) -> Result<(), IoError> {
        self.line += 1;
        loop {
            let got = self.fill(0)?;
            if let Some(i) = self.buf[..got].iter().position(|&b| b == b'\n') {
                self.buf.copy_within(i + 1..got, 0);
                self.len = got - i - 1;
                return Ok(());
            }
            if got == 0 {
                self.len = 0;
                return Ok(());
            }
        }
    }

    /// One read into `buf[at..]`: the bytes it got, 0 at the end of the
    /// input.
    fn fill(&mut self, at: usize) -> Result<usize, IoError> {
        loop {
            match self.reader.read(&mut self.buf[at..]) {
                Ok(got) => {
                    self.eof |= got == 0;
                    self.read += ids::count_global(got);
                    return Ok(got);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// The length of the whole input, reading what is left of it (cold
    /// path: an error message that names the file's size).
    #[cold]
    fn input_len(&mut self) -> Result<u64, IoError> {
        Ok(self.read + std::io::copy(&mut self.reader, &mut std::io::sink())?)
    }

    /// The next token of the current line as an unsigned decimal (one
    /// leading `+` allowed, as `str::parse` allows it): `None` at the end
    /// of the line, `Err(start)` for a token that is not a number or does
    /// not fit `u64` (see [`Scanner::token`]).
    #[inline]
    fn uint(&mut self) -> Option<Result<u64, usize>> {
        self.skip_blanks()?;
        let buf = &self.buf[..self.end];
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
    fn uint_checked(&mut self) -> Result<u64, usize> {
        let buf = &self.buf[..self.end];
        let start = self.pos;
        while !ends_token(buf, self.pos) {
            self.pos += 1;
        }
        let token = &buf[start..self.pos];
        let digits = token.strip_prefix(b"+").unwrap_or(token);
        if digits.is_empty() || !digits.iter().all(u8::is_ascii_digit) {
            return Err(start);
        }
        digits
            .iter()
            .try_fold(0u64, |x, &b| {
                x.checked_mul(10)?.checked_add(u64::from(b - b'0'))
            })
            .ok_or(start)
    }

    /// The token that starts at `start` and ends at the cursor.
    fn token(&self, start: usize) -> Cow<'_, str> {
        String::from_utf8_lossy(&self.buf[start..self.pos])
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
fn seek_metis_header<R: Read>(s: &mut Scanner<R>) -> Result<bool, IoError> {
    while s.next_line()? {
        if s.skip_blanks().is_some() {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Rows `first .. first + rows()` of a graph in CSR form, neighbours as
/// global node IDs: what the METIS reader fills for one contiguous range
/// of nodes, and what `DistGraph::from_segment` takes over as one PE's
/// rows.
///
/// Rows are loop-free, the reader's strictly ascending;
/// `DistGraph::from_segment` sorts each row. `xadj` starts at 0 and has
/// one entry per row plus one. A row whose arcs all weigh 1 stores no
/// weights: `adjwgt` holds the weights of the rows in `weighted_rows`
/// alone, one row after the other.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowSegment {
    /// Global ID of the first row.
    pub first: u64,
    /// Row offsets into `adjncy`.
    pub xadj: Vec<u64>,
    /// Neighbours, global IDs.
    pub adjncy: Vec<Node>,
    /// The rows (0-based within the segment) that hold an arc of weight
    /// other than 1, ascending.
    pub weighted_rows: Vec<usize>,
    /// The arc weights of `weighted_rows`, row after row; every other arc
    /// weighs 1.
    pub adjwgt: Vec<Weight>,
    /// One weight per row.
    pub node_weight: Vec<Weight>,
}

impl RowSegment {
    /// An empty segment starting at row `first`, with room for `rows` rows
    /// and `arcs` arcs.
    fn with_capacity(first: u64, rows: usize, arcs: usize) -> Self {
        let mut xadj = Vec::with_capacity(rows + 1);
        xadj.push(0);
        Self {
            first,
            xadj,
            adjncy: Vec::with_capacity(arcs),
            weighted_rows: Vec::new(),
            adjwgt: Vec::new(),
            node_weight: Vec::with_capacity(rows),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.node_weight.len()
    }

    /// The arc positions of row `r` (0-based within the segment).
    #[inline]
    fn row(&self, r: usize) -> Range<usize> {
        ids::global_index(self.xadj[r])..ids::global_index(self.xadj[r + 1])
    }

    /// The rows that store weights, ascending, each with its weights.
    pub fn weighted(&self) -> impl Iterator<Item = (usize, &[Weight])> + '_ {
        self.weighted_rows
            .iter()
            .scan(0, move |at: &mut usize, &r| {
                let weights = &self.adjwgt[*at..*at + self.row(r).len()];
                *at += weights.len();
                Some((r, weights))
            })
    }

    /// Records the weight of the arc just pushed to row `r`, the last row,
    /// whose arcs start at `row_start`; `stored` says whether the row
    /// stores weights so far, and the result whether it does now. A row
    /// starts to store weights at its first arc that weighs other than 1,
    /// with the ones before it filled in. Under [`Listed::Every`] that
    /// first arc lists every row before it too, and each later row is
    /// listed from its first arc.
    #[inline]
    fn push_weight(
        &mut self,
        listed: Listed,
        stored: bool,
        r: usize,
        row_start: usize,
        w: Weight,
    ) -> bool {
        if !stored {
            let every = listed == Listed::Every;
            if every && !self.weighted_rows.is_empty() {
                // Listed from its first arc: no ones to fill in.
                self.weighted_rows.push(r);
            } else if w == 1 {
                return false;
            } else {
                // The ones of the arcs before this one that now need a
                // stored weight: this row's, or under `Every` all so far.
                let mut filled = self.adjwgt.len() + self.adjncy.len() - 1 - row_start;
                if every {
                    self.weighted_rows
                        .reserve_exact(self.node_weight.capacity());
                    self.weighted_rows.extend(0..r);
                    filled = self.adjncy.len() - 1;
                }
                self.weighted_rows.push(r);
                // Once the rows before it store weights for more than half
                // their arcs, most rows will: room for one weight per arc
                // at once, as the dense form has, instead of growing by
                // doubling.
                if every || 2 * self.adjwgt.len() > row_start {
                    self.adjwgt
                        .reserve_exact(self.adjncy.capacity().saturating_sub(self.adjwgt.len()));
                }
                self.adjwgt.resize(filled, 1);
            }
        }
        self.adjwgt.push(w);
        true
    }

    /// Bytes of heap the segment holds: capacity × element size of every
    /// array.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.xadj.capacity() * size_of::<u64>()
            + self.adjncy.capacity() * size_of::<Node>()
            + self.weighted_rows.capacity() * size_of::<usize>()
            + (self.adjwgt.capacity() + self.node_weight.capacity()) * size_of::<Weight>()
    }

    /// Gives back the capacity the reader reserved beyond what it used.
    fn shrink_to_fit(&mut self) {
        self.xadj.shrink_to_fit();
        self.adjncy.shrink_to_fit();
        self.weighted_rows.shrink_to_fit();
        self.adjwgt.shrink_to_fit();
        self.node_weight.shrink_to_fit();
    }
}

/// A graph read as [`RowSegment`]s that tile its nodes in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentedGraph {
    /// Number of nodes.
    pub n: u64,
    /// Number of undirected edges.
    pub m: u64,
    /// The segments, ascending in `first`; empty ones included.
    pub segments: Vec<RowSegment>,
}

impl SegmentedGraph {
    /// Number of stored (directed) arcs, `2m`.
    pub fn num_arcs(&self) -> usize {
        self.segments.iter().map(|s| s.adjncy.len()).sum()
    }

    /// The largest degree.
    pub fn max_degree(&self) -> usize {
        self.segments
            .iter()
            .flat_map(|s| s.xadj.windows(2).map(|w| w[1] - w[0]))
            .max()
            .map_or(0, ids::global_index)
    }

    /// Summed [`RowSegment::heap_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.segments.iter().map(RowSegment::heap_bytes).sum()
    }
}

/// What the METIS header claims.
struct Header {
    line: usize,
    n: u64,
    m: u64,
}

impl Header {
    /// Why an input of `len` bytes cannot hold what the header claims: a
    /// row takes at least its line end, an arc at least a digit and a
    /// separator, and `n` must be inside the `Node` range.
    fn exceeds(&self, len: u64) -> Option<IoError> {
        let Self { line, n, m } = *self;
        if n >= u64::from(Node::MAX) || n > len {
            Some(perr(
                line,
                format!("header claims {n} nodes, the file has {len} bytes"),
            ))
        } else if m > len / 4 {
            Some(perr(
                line,
                format!("header claims {m} edges, the file has {len} bytes"),
            ))
        } else {
            None
        }
    }
}

/// The 1-based line of adjacency row `row`, from the rows where comment
/// lines moved the count: `shifts` holds `(row, line)` for row 0 and every
/// row not on the line after its predecessor's.
fn line_of_row(shifts: &[(usize, usize)], row: usize) -> usize {
    let (r, line) = shifts[shifts.partition_point(|&(r, _)| r <= row) - 1];
    line + (row - r)
}

/// Which rows a parse lists in [`RowSegment::weighted_rows`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Listed {
    /// The rows that hold an arc of weight other than 1.
    Weighted,
    /// Every row with an arc, once any row holds such an arc: one weight
    /// per arc, the form [`into_csr`] takes over as it is.
    Every,
}

/// [`parse_into`] listing the rows that hold a non-unit arc: the segments
/// as [`RowSegment`] describes them.
fn parse_metis<R: Read>(
    reader: R,
    file_len: Option<u64>,
    buf_bytes: usize,
    starts: impl FnOnce(u64) -> Vec<u64>,
) -> Result<SegmentedGraph, IoError> {
    parse_into(reader, file_len, buf_bytes, starts, Listed::Weighted)
}

/// The one METIS parse: streams `reader` through a buffer of `buf_bytes`
/// (grown only for a row longer than that) into one [`RowSegment`] per
/// entry of `starts(n)`, the ascending first rows of the segments, listing
/// the rows `listed` names. The arrays are sized from the header when
/// `file_len` bounds it; a reader of unknown length grows them and checks
/// the header against the bytes it turned out to hold.
fn parse_into<R: Read>(
    reader: R,
    file_len: Option<u64>,
    buf_bytes: usize,
    starts: impl FnOnce(u64) -> Vec<u64>,
    listed: Listed,
) -> Result<SegmentedGraph, IoError> {
    let mut s = Scanner::new(reader, buf_bytes);
    if !seek_metis_header(&mut s)? {
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
    let header = Header {
        line: header_line,
        n,
        m,
    };
    // Node IDs must fit before a row is read, so an `n` outside the range
    // costs a reader of unknown length the rest of its input.
    let len = match file_len {
        None if n >= u64::from(Node::MAX) => Some(s.input_len()?),
        len => len,
    };
    if let Some(e) = len.and_then(|len| header.exceeds(len)) {
        return Err(e);
    }
    let bounded = len.is_some();

    let starts = starts(n);
    assert!(
        starts.first() == Some(&0) && starts.is_sorted() && starts.last() <= Some(&n),
        "segment starts must ascend from 0 and stay within 0..={n}"
    );
    let n = ids::global_index(n);
    // Room for rows `first..last`: exact rows, and the share of the arcs
    // still to come that rows as many would get if arcs spread like rows.
    let open = |first: usize, last: usize, arcs_read: usize| {
        if !bounded {
            return RowSegment::with_capacity(ids::count_global(first), 0, 0);
        }
        let arcs_left = u128::from(2 * m).saturating_sub(arcs_read as u128);
        let share = arcs_left * (last - first) as u128 / (n - first).max(1) as u128;
        RowSegment::with_capacity(ids::count_global(first), last - first, share as usize)
    };
    let start = |i: usize| starts.get(i).map_or(n, |&x| ids::global_index(x));

    let mut segments: Vec<RowSegment> = Vec::with_capacity(starts.len());
    let mut seg = 0;
    let mut next_start = start(1);
    let mut cur = open(0, next_start, 0);
    let mut arcs_closed = 0;
    let mut close = |cur: &mut RowSegment, arcs_closed: &mut usize| {
        cur.shrink_to_fit();
        *arcs_closed += cur.adjncy.len();
        segments.push(std::mem::take(cur));
    };
    let mut shifts: Vec<(usize, usize)> = Vec::new();
    let mut expected_line = 0;
    let mut node_weight_sum: Weight = 0;
    let mut arc_weight_sum: Weight = 0;
    for u in 0..n {
        while u == next_start {
            close(&mut cur, &mut arcs_closed);
            seg += 1;
            next_start = start(seg + 1);
            cur = open(u, next_start, arcs_closed);
        }
        if !s.next_line()? {
            if let Some(e) = header.exceeds(s.read).filter(|_| !bounded) {
                return Err(e);
            }
            // Whole-file mismatches point at the header: its claim is what
            // the rest of the file contradicts.
            return Err(perr(
                header_line,
                format!("header claims {n} nodes, file has {u} adjacency lines"),
            ));
        }
        if s.line != expected_line {
            shifts.push((u, s.line));
        }
        expected_line = s.line + 1;
        let node_w = if has_node_weights {
            s.field("node weight")?
        } else {
            1
        };
        node_weight_sum = node_weight_sum
            .checked_add(node_w)
            .ok_or_else(|| perr(s.line, "node weights overflow u64"))?;
        cur.node_weight.push(node_w);

        let (r, row) = (cur.rows() - 1, cur.adjncy.len());
        // Strictly ascending and loop-free is what a well-formed file has;
        // the parser sees it for free, and only other rows pay for a sort.
        let own = ids::count_global(u) + 1;
        let mut prev = 0;
        let mut clean = true;
        let mut stored = false;
        // Without a weight column only a merged repeat weighs other than
        // 1; once one has, `Every` lists each later row all the same.
        let listing = !has_edge_weights && listed == Listed::Every && !cur.weighted_rows.is_empty();
        while let Some(tok) = s.uint() {
            let v = tok.map_err(|t| perr(s.line, format!("bad neighbor '{}'", s.token(t))))?;
            if v == 0 || v > ids::count_global(n) {
                return Err(perr(s.line, format!("neighbor {v} out of range 1..={n}")));
            }
            clean &= v > prev && v != own;
            prev = v;
            cur.adjncy.push(ids::global_node(v - 1));
            // Without a weight column every arc weighs 1, and the arc count
            // cannot overflow.
            if has_edge_weights {
                let w = s.field("edge weight")?;
                arc_weight_sum = arc_weight_sum
                    .checked_add(w)
                    .ok_or_else(|| perr(s.line, "edge weights overflow u64"))?;
                stored = cur.push_weight(listed, stored, r, row, w);
            } else if listing {
                stored = cur.push_weight(listed, stored, r, row, 1);
            }
        }
        if !clean {
            normalise_row(&mut cur, listed, ids::node_of_index(u), r, row);
        }
        cur.xadj.push(ids::count_global(cur.adjncy.len()));
    }
    // The segment holding the last row, then any empty ones after it.
    loop {
        close(&mut cur, &mut arcs_closed);
        seg += 1;
        if seg == starts.len() {
            break;
        }
        cur = open(n, n, arcs_closed);
    }
    while s.next_line()? {
        if s.skip_blanks().is_some() {
            return Err(perr(s.line, "more adjacency lines than nodes"));
        }
    }
    if let Some(e) = header.exceeds(s.read).filter(|_| !bounded) {
        return Err(e);
    }

    // The rows are stored as the file gives them, so symmetry is checked
    // rather than constructed.
    if let Some((u, v)) = first_unmirrored_arc(&segments) {
        return Err(perr(
            line_of_row(&shifts, ids::node_index(u)),
            format!(
                "node {} lists {}, but node {} does not list it back with the same weight",
                u + 1,
                v + 1,
                v + 1
            ),
        ));
    }
    if ids::count_global(arcs_closed) != 2 * m {
        return Err(perr(
            header_line,
            format!("header claims {m} edges, file contains {}", arcs_closed / 2),
        ));
    }
    Ok(SegmentedGraph {
        n: ids::count_global(n),
        m,
        segments,
    })
}

/// The graph of a single-segment parse that listed [`Listed::Every`] row:
/// its weights are `CsrGraph`'s, none or one per arc.
fn into_csr(mut g: SegmentedGraph) -> CsrGraph {
    let s = g
        .segments
        .pop()
        .expect("a single-segment parse has one segment");
    CsrGraph::from_parts(s.xadj, s.adjncy, s.adjwgt, s.node_weight)
}

/// Reads a graph in METIS format from any reader.
///
/// The input streams through a bounded buffer and its rows are parsed
/// straight into the CSR arrays. A reader does not tell its length, so the
/// arrays grow as rows arrive; [`read_metis_file`] sizes them from the
/// header instead, once the file's length bounds it.
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
pub fn read_metis(reader: impl Read) -> Result<CsrGraph, IoError> {
    parse_into(reader, None, BUF_BYTES, |_| vec![0], Listed::Every).map(into_csr)
}

/// [`read_metis`] into one [`RowSegment`] per entry of `starts(n)`: the
/// first rows of the segments, ascending from 0, computed from the node
/// count the header gives (a block distribution's first IDs, say). No
/// array holds more than its segment's rows.
pub fn read_metis_segments(
    reader: impl Read,
    starts: impl FnOnce(u64) -> Vec<u64>,
) -> Result<SegmentedGraph, IoError> {
    parse_metis(reader, None, BUF_BYTES, starts)
}

/// Rewrites row `r` of `seg`, its last, which starts at arc `row`, the way
/// [`crate::GraphBuilder`] would have built it: self-loops of `u` dropped,
/// neighbours sorted, repeated neighbours merged by summing their weights.
fn normalise_row(seg: &mut RowSegment, listed: Listed, u: Node, r: usize, row: usize) {
    let stored = seg.weighted_rows.last() == Some(&r);
    let weights = seg.adjwgt.len() - if stored { seg.adjncy.len() - row } else { 0 };
    let weight = |i: usize| {
        if stored {
            seg.adjwgt[weights + i - row]
        } else {
            1
        }
    };
    let mut arcs: Vec<(Node, Weight)> = (row..seg.adjncy.len())
        .map(|i| (seg.adjncy[i], weight(i)))
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
    seg.adjncy.truncate(row);
    seg.adjwgt.truncate(weights);
    if stored {
        seg.weighted_rows.pop();
    }
    let mut keeps = false;
    for (v, w) in arcs {
        seg.adjncy.push(v);
        keeps = seg.push_weight(listed, keeps, r, row, w);
    }
}

/// One segment as [`first_unmirrored_arc`] reads it: its rows and where
/// their weights sit. When the segment stores one weight per arc, arc
/// `c`'s is `adjwgt[c]`. Otherwise a row's weights are found in O(1) from
/// one bit per row, the count of stored rows before each 64 rows, and per
/// stored row how far its weights sit before its arcs: two bits per row
/// and a word per stored row, nothing when no row stores weights.
struct CheckedRows<'a> {
    seg: &'a RowSegment,
    /// The segment's stored weights.
    adjwgt: &'a [Weight],
    /// Whether every arc's weight is stored.
    per_arc: bool,
    /// Per 64 rows, one bit each, and the stored rows before them.
    words: Vec<(u64, usize)>,
    /// Per stored row, its first arc's position minus its first weight's.
    back: Vec<usize>,
}

impl<'a> CheckedRows<'a> {
    fn new(seg: &'a RowSegment) -> Self {
        let per_arc = seg.adjwgt.len() == seg.adjncy.len();
        let (mut words, mut back) = (Vec::new(), Vec::new());
        if !per_arc && !seg.weighted_rows.is_empty() {
            words = vec![(0u64, 0); seg.rows().div_ceil(64)];
            back.reserve_exact(seg.weighted_rows.len());
            let mut at = 0;
            for &r in &seg.weighted_rows {
                words[r / 64].0 |= 1 << (r % 64);
                back.push(seg.row(r).start - at);
                at += seg.row(r).len();
            }
            let mut before = 0;
            for (bits, count) in &mut words {
                *count = before;
                before += bits.count_ones() as usize;
            }
        }
        Self {
            seg,
            adjwgt: &seg.adjwgt,
            per_arc,
            words,
            back,
        }
    }

    /// The weight of arc `c`, in row `r`.
    #[inline]
    fn weight(&self, r: usize, c: usize) -> Weight {
        if self.per_arc {
            return self.adjwgt[c];
        }
        let Some(&(bits, before)) = self.words.get(r / 64) else {
            return 1;
        };
        let bit = 1u64 << (r % 64);
        if bits & bit == 0 {
            return 1;
        }
        let below = (bits & (bit - 1)).count_ones() as usize;
        self.adjwgt[c - self.back[before + below]]
    }
}

/// An arc `(u, v)` of segments with strictly ascending rows whose mirror
/// `(v, u)` is missing from row `v` or carries a different weight; `None`
/// if the adjacency is symmetric.
///
/// One pass with a cursor per row. Rows are visited in ascending `u`; each
/// looks *back*: an arc to a lower node `v` claims the next unclaimed entry
/// of row `v`'s upper part, and those claims arrive in the order row `v`
/// lists them. Looking back rather than ahead keeps the claimed rows in
/// cache on graphs with locality. The segments tile the nodes in order, so
/// row `v` is in the current segment or, for the arcs that leave it, in the
/// last one that starts at or before `v`.
fn first_unmirrored_arc(segments: &[RowSegment]) -> Option<(Node, Node)> {
    let n = segments.iter().map(RowSegment::rows).sum();
    let checked: Vec<CheckedRows> = segments.iter().map(CheckedRows::new).collect();
    let holder = |v: u64| &checked[segments.partition_point(|s| s.first <= v) - 1];
    // Without stored weights every arc weighs 1: no lookups.
    let weighted = segments.iter().any(|s| !s.adjwgt.is_empty());
    // next[v]: the first entry of row v's upper part no higher row claimed,
    // a position in the adjacency of v's segment.
    let mut next: Vec<usize> = Vec::with_capacity(n);
    for here in &checked {
        let seg = here.seg;
        for r in 0..seg.rows() {
            let own = ids::global_node(seg.first + ids::count_global(r));
            let mut upper = seg.row(r).end;
            for i in seg.row(r) {
                let v = seg.adjncy[i];
                if v > own {
                    upper = i;
                    break;
                }
                let g = ids::node_global(v);
                let there = if g >= seg.first { here } else { holder(g) };
                let (vs, vr) = (there.seg, ids::global_index(g - there.seg.first));
                let c = next[ids::node_index(v)];
                let unclaimed = vs.row(vr).contains(&c).then(|| vs.adjncy[c]);
                if unclaimed == Some(own) && (!weighted || there.weight(vr, c) == here.weight(r, i))
                {
                    next[ids::node_index(v)] = c + 1;
                } else {
                    // An entry of row `v` that row `x < u` did not claim is
                    // the older defect.
                    return Some(match unclaimed {
                        Some(x) if x < own => (v, x),
                        _ => (own, v),
                    });
                }
            }
            next.push(upper);
        }
    }
    // Whatever is left unclaimed points at a higher row that does not
    // point back.
    let mut claims = next.into_iter();
    segments.iter().find_map(|seg| {
        (0..seg.rows())
            .zip(claims.by_ref())
            .find(|&(r, c)| c < seg.row(r).end)
            .map(|(r, c)| {
                let u = ids::global_node(seg.first + ids::count_global(r));
                (u, seg.adjncy[c])
            })
    })
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

/// Reads a METIS graph from a file path: [`read_metis`], with the arrays
/// sized once from the header after the file's length has bounded it.
pub fn read_metis_file(path: impl AsRef<Path>) -> Result<CsrGraph, IoError> {
    parse_file(path.as_ref(), |_| vec![0], Listed::Every).map(into_csr)
}

/// [`read_metis_segments`] from a file path, the arrays sized from the
/// header like [`read_metis_file`]'s: each segment gets its rows exactly
/// and its share of the arcs, grown if its rows hold more.
pub fn read_metis_file_segments(
    path: impl AsRef<Path>,
    starts: impl FnOnce(u64) -> Vec<u64>,
) -> Result<SegmentedGraph, IoError> {
    parse_file(path.as_ref(), starts, Listed::Weighted)
}

/// [`parse_into`] of a file, its arrays sized from the file's length.
fn parse_file(
    path: &Path,
    starts: impl FnOnce(u64) -> Vec<u64>,
    listed: Listed,
) -> Result<SegmentedGraph, IoError> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    parse_into(file, Some(len), BUF_BYTES, starts, listed)
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
pub fn read_partition(graph: &CsrGraph, reader: impl Read) -> Result<Partition, IoError> {
    let mut s = Scanner::new(reader, BUF_BYTES);
    let mut assignment: Vec<BlockId> = Vec::with_capacity(graph.n());
    while s.next_line()? {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::GraphBuilder;

    /// The line a reader's parse error names.
    fn parse_line<T: std::fmt::Debug>(r: Result<T, IoError>) -> usize {
        match r {
            Err(IoError::Parse { line, .. }) => line,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    /// A reader that hands out at most two bytes per call: every line
    /// straddles refills.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let k = self.0.len().min(out.len()).min(2);
            out[..k].copy_from_slice(&self.0[..k]);
            self.0 = &self.0[k..];
            Ok(k)
        }
    }

    /// The first rows of `p` block-distributed segments of `n` nodes.
    pub(super) fn block_starts(n: u64, p: u64) -> Vec<u64> {
        let chunk = n.div_ceil(p).max(1);
        (0..p).map(|r| (r * chunk).min(n)).collect()
    }

    /// [`read_metis`]'s verdict on `text`, which must be a parse error; the
    /// line it names. The same error, message and line, must come from a
    /// one-byte buffer fed two bytes at a time and from a length-bounded
    /// parse into three segments.
    fn metis_line(text: &str) -> usize {
        let want = read_metis(text.as_bytes()).map(|_| ());
        let trickled = parse_metis(Trickle(text.as_bytes()), None, 1, |_| vec![0]).map(|_| ());
        let len = Some(text.len() as u64);
        let split = parse_metis(text.as_bytes(), len, 3, |n| block_starts(n, 3)).map(|_| ());
        for got in [&trickled, &split] {
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "file:\n{text}");
        }
        parse_line(want)
    }

    /// Segment `seg`'s rows as `(row, node weight, [(target, weight)])`.
    #[allow(clippy::type_complexity)]
    pub(super) fn rows_of(seg: &RowSegment) -> Vec<(u64, Weight, Vec<(Node, Weight)>)> {
        let mut weighted = seg.weighted().peekable();
        (0..seg.rows())
            .map(|r| {
                let targets = &seg.adjncy[seg.row(r)];
                let arcs = match weighted.next_if(|&(w, _)| w == r) {
                    Some((_, weights)) => {
                        assert!(weights.iter().any(|&w| w != 1), "row {r} stores only ones");
                        targets
                            .iter()
                            .copied()
                            .zip(weights.iter().copied())
                            .collect()
                    }
                    None => targets.iter().map(|&v| (v, 1)).collect(),
                };
                (seg.first + r as u64, seg.node_weight[r], arcs)
            })
            .collect()
    }

    /// Comments between rows, unsorted / repeated / self-loop neighbours,
    /// `fmt 011` weights, CR/LF line ends, a node without neighbours.
    const HAND_WRITTEN: &str = "% made by hand\r\n\r\n6 4 011\r\n\
        % row 1 follows\r\n\
        2 2 1 4 1 2 2 1 5\r\n\
        1 4 2 1 3\r\n\
        % nothing but a comment\r\n\
        7 5 9\r\n\
        1 2 2 1 1\r\n\
        3 5 4 3 9\r\n\
        4\r\n\
        % trailing\r\n";

    /// Blank rows, a comment among them, blank lines after the last row.
    const BLANK_ROWS: &str = "6 1\n\n3\n% c\n2\n\n\n\n \n\n";

    #[test]
    fn segments_tile_the_graph_for_any_buffer() {
        let (web, _) = {
            let mut b = GraphBuilder::new(40);
            for u in 0..40u32 {
                b.push_edge(u, (u * 7 + 3) % 40, u64::from(u % 3 + 1));
                b.push_edge(u, (u + 1) % 40, 1);
            }
            (b.build(), ())
        };
        let mut written = Vec::new();
        write_metis(&web, &mut written).unwrap();
        for text in [HAND_WRITTEN.as_bytes(), BLANK_ROWS.as_bytes(), &written[..]] {
            let whole = read_metis(text).unwrap();
            let want = rows_of(
                &parse_metis(text, None, BUF_BYTES, |_| vec![0])
                    .unwrap()
                    .segments[0],
            );
            assert_eq!(want.len(), whole.n());
            for p in [1u64, 2, 3, 4, 8, 64] {
                for buf in [1, 7, BUF_BYTES] {
                    let len = Some(text.len() as u64);
                    for (bounded, g) in [
                        (
                            false,
                            parse_metis(Trickle(text), None, buf, |n| block_starts(n, p)),
                        ),
                        (true, parse_metis(text, len, buf, |n| block_starts(n, p))),
                    ] {
                        let g = g.unwrap();
                        assert_eq!((g.n, g.m), (whole.n() as u64, whole.m() as u64));
                        assert_eq!(g.segments.len() as u64, p);
                        let firsts: Vec<u64> = g.segments.iter().map(|s| s.first).collect();
                        assert_eq!(firsts, block_starts(g.n, p));
                        let rows: Vec<_> = g.segments.iter().flat_map(rows_of).collect();
                        assert_eq!(rows, want, "p={p} buf={buf} bounded={bounded}");
                        for seg in &g.segments {
                            assert_eq!(seg.xadj.len(), seg.rows() + 1);
                            assert_eq!(seg.xadj.capacity(), seg.xadj.len());
                            assert_eq!(seg.adjncy.capacity(), seg.adjncy.len());
                            assert_eq!(seg.node_weight.capacity(), seg.rows());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_comment_longer_than_the_buffer_streams_past() {
        let text = format!(
            "% {}\n3 2\n% {}\n2 3\n1\n1\n",
            "x".repeat(5000),
            "y".repeat(999)
        );
        let mut s = Scanner::new(text.as_bytes(), 16);
        assert!(seek_metis_header(&mut s).unwrap());
        assert_eq!(s.line, 2);
        let mut rows = 0;
        while s.next_line().unwrap() {
            rows += 1;
        }
        assert_eq!((rows, s.line), (3, 6));
        assert_eq!(s.buf.len(), 16, "no line but comments outgrew the buffer");
        assert_eq!(s.read, text.len() as u64);
        // A row longer than the buffer grows it instead.
        let g = parse_metis(text.as_bytes(), None, 2, |_| vec![0]).unwrap();
        assert_eq!(rows_of(&g.segments[0])[0].2, vec![(1, 1), (2, 1)]);
        assert_eq!(
            metis_line(&format!("% {}\n2 1\n2\n3\n", "z".repeat(300))),
            4
        );
    }

    #[test]
    fn header_that_lies_about_n_is_rejected_before_allocating() {
        assert_eq!(metis_line("5000000000 1\n2\n1\n"), 1);
        // Inside the Node range, but more rows than the file has bytes.
        assert_eq!(metis_line("% c\n4000000 1\n2\n1\n"), 2);
        assert_eq!(metis_line("4294967295 0\n"), 1);
    }

    #[test]
    fn header_that_lies_about_m_is_rejected_before_allocating() {
        assert_eq!(metis_line("3 99999999999999999\n2\n1 3\n2\n"), 1);
        assert_eq!(metis_line("2 18446744073709551615\n2\n1\n"), 1);
        // The tightest honest file still passes the bound: "2 1", "2", "1".
        assert_eq!(read_metis("2 1\n2\n1".as_bytes()).unwrap().m(), 1);
    }

    #[test]
    fn asymmetric_adjacency_names_the_row() {
        // Node 1 lists 2 and 3; nobody lists node 1.
        assert_eq!(metis_line("3 2\n2 3\n\n\n"), 2);
        // Node 3 lists 1, node 1 does not list 3 (rows below a comment).
        assert_eq!(metis_line("3 2\n2\n% c\n1\n1\n"), 5);
        // Node 2 lists 3, node 3 lists nobody: found when the file ends.
        assert_eq!(metis_line("3 1\n\n3\n\n"), 3);
        // Both directions present, weights differ: the later row is named.
        assert_eq!(metis_line("2 1 1\n2 5\n1 6\n"), 3);
        // Node 1 lists 2 twice (merged weight 2), node 2 lists 1 once.
        assert_eq!(metis_line("2 1\n2 2\n1\n"), 3);
        // Weights all 1 but one, and its mirror is 1.
        assert_eq!(metis_line("3 2 1\n2 1 3 1\n1 1\n1 2\n"), 4);
        // The same, the other way round: a row that does not store weights
        // claims the 2 of a row that does.
        assert_eq!(metis_line("3 2 1\n2 1 3 2\n1 1\n1 1\n"), 4);
        // A weighted row whose mirror is a weighted row with another weight.
        assert_eq!(metis_line("3 2 1\n2 3 3 1\n1 3 3 2\n1 1 2 5\n"), 4);
        // Merged into weight 2 in one row, two 1s listed apart in the other.
        assert_eq!(metis_line("3 2\n2 2\n1 3\n2\n"), 3);
        // Heavy rows with their mirrors in place pass.
        read_metis("3 2 1\n2 3 3 2\n1 3\n1 2\n".as_bytes()).unwrap();
    }

    #[test]
    fn unit_weights_are_stored_only_when_an_arc_needs_one() {
        let plain = read_metis("3 2\n2 3\n1\n1\n".as_bytes()).unwrap();
        assert!(!plain.has_arc_weights());
        // `fmt 1` with every weight spelled out as 1 is the same graph.
        let spelled = read_metis("3 2 1\n2 1 3 1\n1 1\n1 1\n".as_bytes()).unwrap();
        assert!(!spelled.has_arc_weights());
        assert_eq!(spelled, plain);
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

    /// One weight-2 edge among unit ones: exactly its two rows store
    /// weights, in whichever segments hold them, and the rows around them
    /// read 1.
    #[test]
    fn one_heavy_edge_stores_the_weights_of_its_two_rows() {
        // A path 1 - 2 - ... - 8, plus the edge {3, 6} of weight 2.
        let mut text = String::from("8 8 1\n2 1\n1 1 3 1\n2 1 4 1 6 2\n");
        text += "3 1 5 1\n4 1 6 1\n3 2 5 1 7 1\n6 1 8 1\n7 1\n";
        for p in [1, 2, 3, 8] {
            let g = parse_metis(text.as_bytes(), None, BUF_BYTES, |n| block_starts(n, p)).unwrap();
            let mut stored: Vec<(u64, Vec<Weight>)> = Vec::new();
            for seg in &g.segments {
                assert_eq!(seg.adjwgt.len(), seg.weighted().map(|(_, w)| w.len()).sum());
                stored.extend(
                    seg.weighted()
                        .map(|(r, w)| (seg.first + r as u64, w.to_vec())),
                );
            }
            assert_eq!(stored, [(2, vec![1, 1, 2]), (5, vec![2, 1, 1])], "p={p}");
        }
        let g = read_metis(text.as_bytes()).unwrap();
        assert!(g.has_arc_weights());
        assert_eq!(g.total_edge_weight(), 9);
        let mut again = Vec::new();
        write_metis(&g, &mut again).unwrap();
        assert_eq!(read_metis(&again[..]).unwrap(), g);
    }

    /// Graphs whose weights sit in a few rows, in all rows, or in none come
    /// back equal from `write_metis` → `read_metis`.
    #[test]
    fn metis_roundtrip_keeps_sparse_weights() {
        let grid = |w: &dyn Fn(Node, Node) -> Weight| {
            let id = |x: Node, y: Node| y * 12 + x;
            let mut b = GraphBuilder::new(144);
            for y in 0..12 {
                for x in 0..12 {
                    if x + 1 < 12 {
                        b.push_edge(id(x, y), id(x + 1, y), w(id(x, y), id(x + 1, y)));
                    }
                    if y + 1 < 12 {
                        b.push_edge(id(x, y), id(x, y + 1), w(id(x, y), id(x, y + 1)));
                    }
                }
            }
            b.build()
        };
        let few = |u: Node, v: Node| if (u + v).is_multiple_of(37) { 2 } else { 1 };
        let all = |u: Node, v: Node| 2 + Weight::from(u % 3 + v % 2);
        for (what, g) in [
            ("few", grid(&few)),
            ("all", grid(&all)),
            ("none", grid(&|_, _| 1)),
        ] {
            let mut text = Vec::new();
            write_metis(&g, &mut text).unwrap();
            assert_eq!(read_metis(&text[..]).unwrap(), g, "{what}");
            let split = read_metis_segments(&text[..], |n| block_starts(n, 5)).unwrap();
            let rows: Vec<_> = split.segments.iter().flat_map(rows_of).collect();
            let want: Vec<_> = g
                .nodes()
                .map(|u| (u64::from(u), 1, g.neighbors_weighted(u).collect()))
                .collect();
            assert_eq!(rows, want, "{what}");
        }
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
        assert_eq!(metis_line("2 1\n2x\n1\n"), 2);
        assert_eq!(metis_line("2 1\n-2\n1\n"), 2);
        assert_eq!(metis_line("2 1\n2\n+\n"), 3);
        // 2^64 does not fit; 2^64 - 1 does, but two of them overflow the sum.
        assert_eq!(metis_line("2 1 1\n2 18446744073709551616\n1 1\n"), 2);
        assert_eq!(
            metis_line("2 1 1\n2 18446744073709551615\n1 18446744073709551615\n"),
            3
        );
        assert_eq!(metis_line("2 1 x\n2\n1\n"), 1);
        assert_eq!(metis_line("2 1 100\n2\n1\n"), 1);
    }

    #[test]
    fn lines_after_the_last_row() {
        assert_eq!(
            read_metis("2 1\n2\n1\n\n% c\n \t\n".as_bytes())
                .unwrap()
                .m(),
            1
        );
        assert_eq!(metis_line("2 1\n2\n1\n\n1\n"), 5);
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
        assert_eq!(metis_line("2 1\n3\n1\n"), 2);
    }

    #[test]
    fn metis_rejects_wrong_edge_count() {
        // Must point at the header.
        assert_eq!(metis_line("3 5\n2\n1 3\n2\n"), 1);
    }

    #[test]
    fn metis_rejects_missing_lines() {
        // Only 2 of 3 adjacency lines; the header sits below a comment.
        assert_eq!(metis_line("% a comment\n3 1\n2\n1\n"), 2);
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
    use super::tests::{block_starts, rows_of};
    use super::*;
    use crate::GraphBuilder;
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
                Ok(g) => prop_assert_eq!(g, oracle.clone(), "file:\n{}", text),
                Err(e) => panic!("{e}\nfile:\n{text}"),
            }
            // Any buffer, any number of segments: the same rows.
            let (buf, p) = (1 + seed as usize % 9, 1 + seed / 9 % 5);
            let len = Some(text.len() as u64);
            let split = parse_metis(text.as_bytes(), len, buf, |n| block_starts(n, p)).unwrap();
            let rows: Vec<_> = split.segments.iter().flat_map(rows_of).collect();
            let want: Vec<_> = oracle
                .nodes()
                .map(|u| (u64::from(u), oracle.node_weight(u), oracle.neighbors_weighted(u).collect()))
                .collect();
            prop_assert_eq!(rows, want, "buf={} p={} file:\n{}", buf, p, text);
        }

        /// Arbitrary bytes yield a well-formed graph or a typed error from
        /// every reader — never a panic, never an allocation the input
        /// cannot justify.
        #[test]
        fn readers_never_panic_on_arbitrary_bytes(
            picks in proptest::collection::vec(0usize..BYTES.len(), 0..120),
        ) {
            let bytes: Vec<u8> = picks.into_iter().map(|i| BYTES[i]).collect();
            let whole = read_metis(&bytes[..]);
            if let Ok(g) = &whole {
                assert_well_formed(g);
            }
            // Segments, weights stored per row: the same verdict, the same rows.
            let split = read_metis_segments(&bytes[..], |n| block_starts(n, 3));
            match (&whole, split) {
                (Ok(g), Ok(split)) => {
                    let rows: Vec<_> = split.segments.iter().flat_map(rows_of).collect();
                    let want: Vec<_> = g
                        .nodes()
                        .map(|u| (u64::from(u), g.node_weight(u), g.neighbors_weighted(u).collect()))
                        .collect();
                    prop_assert_eq!(rows, want);
                }
                (whole, split) => prop_assert_eq!(format!("{:?}", whole.as_ref().err()), format!("{:?}", split.err())),
            }
            let _ = read_partition(&CsrGraph::empty(), &bytes[..]);
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
