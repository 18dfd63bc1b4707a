//! Graph I/O in the METIS/KaHIP `.graph` text format plus a simple
//! whitespace edge-list reader.
//!
//! METIS format summary: the header line is `n m [fmt [ncon]]` where `fmt`
//! is a 3-digit flag string — `1xx` node sizes (unsupported), `x1x` node
//! weights, `xx1` edge weights. Each of the following `n` lines lists the
//! (1-based) neighbors of node `i`, preceded by its weight if `x1x`, each
//! neighbor followed by the edge weight if `xx1`. Comment lines start
//! with `%`.

use crate::{CsrGraph, GraphBuilder, Node, Weight};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
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

/// Reads a graph in METIS format from any reader.
pub fn read_metis(reader: impl Read) -> Result<CsrGraph, IoError> {
    let mut lines = BufReader::new(reader).lines().enumerate();

    // Header.
    let (hline_no, header) = loop {
        match lines.next() {
            Some((no, line)) => {
                let line = line?;
                let t = line.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break (no + 1, t.to_string());
            }
            None => return Err(perr(1, "missing header line")),
        }
    };
    let mut hp = header.split_whitespace();
    let n: usize = hp
        .next()
        .ok_or_else(|| perr(hline_no, "missing n"))?
        .parse()
        .map_err(|_| perr(hline_no, "bad n"))?;
    let m: usize = hp
        .next()
        .ok_or_else(|| perr(hline_no, "missing m"))?
        .parse()
        .map_err(|_| perr(hline_no, "bad m"))?;
    let fmt = hp.next().unwrap_or("0");
    let has_node_weights = fmt.len() >= 2 && fmt.as_bytes()[fmt.len() - 2] == b'1';
    let has_edge_weights = !fmt.is_empty() && fmt.as_bytes()[fmt.len() - 1] == b'1';
    if fmt.len() >= 3 && fmt.as_bytes()[fmt.len() - 3] == b'1' {
        return Err(perr(hline_no, "node sizes (fmt 1xx) are not supported"));
    }

    let mut builder = GraphBuilder::with_capacity(n, m);
    let mut node_weights = if has_node_weights {
        Some(Vec::with_capacity(n))
    } else {
        None
    };

    let mut node = 0usize;
    for (no, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.starts_with('%') {
            continue;
        }
        if node >= n {
            if t.is_empty() {
                continue;
            }
            return Err(perr(no + 1, "more adjacency lines than nodes"));
        }
        let mut tok = t.split_whitespace();
        if let Some(nw) = node_weights.as_mut() {
            let w: Weight = tok
                .next()
                .ok_or_else(|| perr(no + 1, "missing node weight"))?
                .parse()
                .map_err(|_| perr(no + 1, "bad node weight"))?;
            nw.push(w);
        }
        while let Some(nbr) = tok.next() {
            let v: usize = nbr
                .parse()
                .map_err(|_| perr(no + 1, format!("bad neighbor '{nbr}'")))?;
            if v == 0 || v > n {
                return Err(perr(no + 1, format!("neighbor {v} out of range 1..={n}")));
            }
            let w: Weight = if has_edge_weights {
                tok.next()
                    .ok_or_else(|| perr(no + 1, "missing edge weight"))?
                    .parse()
                    .map_err(|_| perr(no + 1, "bad edge weight"))?
            } else {
                1
            };
            // Each undirected edge appears in both endpoint lines; keep one.
            let u = node as Node;
            let v = (v - 1) as Node;
            if u < v {
                builder.push_edge(u, v, w);
            }
        }
        node += 1;
    }
    // Whole-file mismatches point at the header: its claim is what the
    // rest of the file contradicts.
    if node != n {
        return Err(perr(
            hline_no,
            format!("header claims {n} nodes, file has {node} adjacency lines"),
        ));
    }
    let g = match node_weights {
        Some(nw) => builder.node_weights(nw).build(),
        None => builder.build(),
    };
    if g.m() != m {
        return Err(perr(
            hline_no,
            format!("header claims {m} edges, file contains {}", g.m()),
        ));
    }
    Ok(g)
}

/// Writes a graph in METIS format. Weights are emitted only when
/// non-trivial (any node weight ≠ 1 / any edge weight ≠ 1).
pub fn write_metis(graph: &CsrGraph, writer: impl Write) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    let node_weighted = graph.node_weights().iter().any(|&x| x != 1);
    let edge_weighted = graph.adjwgt().iter().any(|&x| x != 1);
    let fmt = match (node_weighted, edge_weighted) {
        (false, false) => "0",
        (false, true) => "1",
        (true, false) => "10",
        (true, true) => "11",
    };
    if fmt == "0" {
        writeln!(w, "{} {}", graph.n(), graph.m())?;
    } else {
        writeln!(w, "{} {} {}", graph.n(), graph.m(), fmt)?;
    }
    let mut line = String::new();
    for u in graph.nodes() {
        line.clear();
        if node_weighted {
            line.push_str(&graph.node_weight(u).to_string());
        }
        for (v, wt) in graph.neighbors_weighted(u) {
            if !line.is_empty() {
                line.push(' ');
            }
            line.push_str(&(v + 1).to_string());
            if edge_weighted {
                line.push(' ');
                line.push_str(&wt.to_string());
            }
        }
        writeln!(w, "{line}")?;
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
pub fn write_partition(partition: &crate::Partition, writer: impl Write) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    for &b in partition.assignment() {
        writeln!(w, "{b}")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a METIS partition file for `graph`; `k` is inferred as
/// `max block + 1`.
pub fn read_partition(
    graph: &crate::CsrGraph,
    reader: impl Read,
) -> Result<crate::Partition, IoError> {
    let mut assignment: Vec<crate::BlockId> = Vec::with_capacity(graph.n());
    for (no, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let b: crate::BlockId = t
            .parse()
            .map_err(|_| perr(no + 1, format!("bad block id '{t}'")))?;
        assignment.push(b);
    }
    if assignment.len() != graph.n() {
        return Err(perr(
            0,
            format!(
                "{} entries for a graph with {} nodes",
                assignment.len(),
                graph.n()
            ),
        ));
    }
    let k = assignment.iter().copied().max().unwrap_or(0) as usize + 1;
    Ok(crate::Partition::from_assignment(graph, k, assignment))
}

/// Reads a whitespace-separated edge list (`u v` per line, 0-based,
/// comments with `#` or `%`). `n` is inferred as `max id + 1`.
pub fn read_edge_list(reader: impl Read) -> Result<CsrGraph, IoError> {
    let mut edges: Vec<(Node, Node)> = Vec::new();
    let mut max_id: Node = 0;
    for (no, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut tok = t.split_whitespace();
        let u: Node = tok
            .next()
            .expect("split_whitespace of a non-empty trimmed line yields a token")
            .parse()
            .map_err(|_| perr(no + 1, "bad source id"))?;
        let v: Node = tok
            .next()
            .ok_or_else(|| perr(no + 1, "missing target id"))?
            .parse()
            .map_err(|_| perr(no + 1, "bad target id"))?;
        max_id = max_id.max(u).max(v);
        edges.push((u, v));
    }
    let n = if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    };
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
    fn partition_length_mismatch_rejected() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        assert!(read_partition(&g, "0\n1\n".as_bytes()).is_err());
        assert!(read_partition(&g, "0\nx\n1\n".as_bytes()).is_err());
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
