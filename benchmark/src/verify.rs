//! The output check: a partition is read back from the file the program
//! wrote and judged against the instance the harness generated, with the
//! cut and the block weights computed here, not taken from the program.

use std::fmt;
use std::path::Path;

/// Balance slack of every workload (the paper's ε = 3 %).
pub const EPS: f64 = 0.03;

/// A generated graph as plain CSR arrays, independent of the program's own
/// graph type. Arc `a` of node `v` (`xadj[v] <= a < xadj[v+1]`) leads to
/// `adjncy[a]` with weight `adjwgt[a]`; every undirected edge is two arcs.
pub struct Instance {
    pub xadj: Vec<u64>,
    pub adjncy: Vec<u32>,
    pub adjwgt: Vec<u64>,
    pub vwgt: Vec<u64>,
}

impl Instance {
    pub fn n(&self) -> usize {
        self.vwgt.len()
    }

    /// Undirected edges.
    pub fn m(&self) -> usize {
        self.adjncy.len() / 2
    }
}

/// Why an output was rejected.
#[derive(Debug, PartialEq)]
pub enum Failure {
    Unreadable(String),
    WrongLineCount { expected: usize, found: usize },
    BadBlockId { line: usize, token: String },
    Imbalanced { max_weight: u64, allowed: u64 },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Unreadable(e) => write!(f, "partition file unreadable: {e}"),
            Failure::WrongLineCount { expected, found } => {
                write!(f, "{found} block ids for {expected} nodes")
            }
            Failure::BadBlockId { line, token } => {
                write!(f, "line {line}: '{token}' is not a block id below k")
            }
            Failure::Imbalanced {
                max_weight,
                allowed,
            } => write!(f, "heaviest block weighs {max_weight}, allowed {allowed}"),
        }
    }
}

/// What a valid partition achieves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quality {
    pub edge_cut: u64,
    pub max_block_weight: u64,
}

/// Largest block weight ε allows: `(1 + ε)·⌈c(V)/k⌉`, rounded down.
pub fn allowed_block_weight(total: u64, k: usize) -> u64 {
    ((1.0 + EPS) * total.div_ceil(k as u64) as f64).floor() as u64
}

/// Judges `assignment` (one block id per node) on `instance`.
pub fn check_assignment(
    instance: &Instance,
    k: usize,
    assignment: &[u32],
) -> Result<Quality, Failure> {
    if assignment.len() != instance.n() {
        return Err(Failure::WrongLineCount {
            expected: instance.n(),
            found: assignment.len(),
        });
    }
    let mut weights = vec![0u64; k];
    for (v, &b) in assignment.iter().enumerate() {
        let Some(w) = weights.get_mut(b as usize) else {
            return Err(Failure::BadBlockId {
                line: v + 1,
                token: b.to_string(),
            });
        };
        *w += instance.vwgt[v];
    }
    let max_block_weight = weights.iter().copied().max().unwrap_or(0);
    let allowed = allowed_block_weight(instance.vwgt.iter().sum(), k);
    if max_block_weight > allowed {
        return Err(Failure::Imbalanced {
            max_weight: max_block_weight,
            allowed,
        });
    }
    let mut cut2 = 0u64;
    for v in 0..instance.n() {
        let (lo, hi) = (instance.xadj[v] as usize, instance.xadj[v + 1] as usize);
        for a in lo..hi {
            if assignment[instance.adjncy[a] as usize] != assignment[v] {
                cut2 += instance.adjwgt[a];
            }
        }
    }
    Ok(Quality {
        edge_cut: cut2 / 2,
        max_block_weight,
    })
}

/// Reads a partition file (one block id per line) and judges it.
pub fn check_file(instance: &Instance, k: usize, path: &Path) -> Result<Quality, Failure> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Failure::Unreadable(format!("{}: {e}", path.display())))?;
    let mut assignment = Vec::with_capacity(instance.n());
    for (i, line) in text.lines().enumerate() {
        let token = line.trim();
        match token.parse::<u32>() {
            Ok(b) if (b as usize) < k => assignment.push(b),
            _ => {
                return Err(Failure::BadBlockId {
                    line: i + 1,
                    token: token.to_string(),
                })
            }
        }
    }
    check_assignment(instance, k, &assignment)
}

/// A 16-node unit-weight ring with k = 4: the allowed block weight is 4.
fn ring() -> Instance {
    let n = 16u32;
    let mut adjncy = Vec::new();
    for v in 0..n {
        adjncy.push((v + n - 1) % n);
        adjncy.push((v + 1) % n);
    }
    Instance {
        xadj: (0..=u64::from(n)).map(|v| 2 * v).collect(),
        adjwgt: vec![1; adjncy.len()],
        adjncy,
        vwgt: vec![1; n as usize],
    }
}

/// Proves, on files in `dir`, that the check used for every rep accepts a
/// good partition and rejects the three bad ones the benchmark must count
/// as failed reps. An `Err` means the harness cannot be trusted to tell.
pub fn self_test(dir: &Path) -> Result<(), String> {
    let instance = ring();
    let good: Vec<u32> = (0..16).map(|v| v / 4).collect();
    let lines = |blocks: &[u32]| blocks.iter().map(|b| format!("{b}\n")).collect::<String>();
    let mut over_id = good.clone();
    over_id[5] = 4;
    let mut over_weight = good.clone();
    over_weight[4] = 0;
    type Expect = fn(&Result<Quality, Failure>) -> bool;
    let cases: [(&str, String, Expect); 4] = [
        (
            "good",
            lines(&good),
            |r| matches!(r, Ok(q) if q.edge_cut == 4 && q.max_block_weight == 4),
        ),
        ("truncated", lines(&good[..15]), |r| {
            matches!(r, Err(Failure::WrongLineCount { .. }))
        }),
        ("block id >= k", lines(&over_id), |r| {
            matches!(r, Err(Failure::BadBlockId { line: 6, .. }))
        }),
        ("over-weight block", lines(&over_weight), |r| {
            matches!(
                r,
                Err(Failure::Imbalanced {
                    max_weight: 5,
                    allowed: 4
                })
            )
        }),
    ];
    let path = dir.join("selftest.part");
    for (what, text, expected) in cases {
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        let verdict = check_file(&instance, 4, &path);
        if !expected(&verdict) {
            return Err(format!(
                "output check self-test: the {what} partition was judged {verdict:?}"
            ));
        }
    }
    let _ = std::fs::remove_file(&path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_weight_matches_the_paper_definition() {
        assert_eq!(allowed_block_weight(100, 4), 25);
        assert_eq!(allowed_block_weight(101, 4), 26);
        assert_eq!(allowed_block_weight(262_144, 8), 33_751);
    }

    #[test]
    fn self_test_passes_on_a_scratch_directory() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("data")
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        self_test(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn weighted_cut_counts_each_edge_once() {
        let mut g = ring();
        g.adjwgt = vec![3; g.adjncy.len()];
        let blocks: Vec<u32> = (0..16).map(|v| v / 4).collect();
        assert_eq!(check_assignment(&g, 4, &blocks).unwrap().edge_cut, 12);
    }
}
