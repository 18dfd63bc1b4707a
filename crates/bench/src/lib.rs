//! Shared infrastructure for the experiment harness: repetition driver,
//! result tables, CSV emission, and the "parallel time" measurement
//! convention (see `EXPERIMENTS.md`).
//!
//! Every table and figure of the paper has a binary in `src/bin` that
//! regenerates it:
//!
//! | target | reproduces |
//! |---|---|
//! | `table2` | Table II (k = 2 quality/time comparison) |
//! | `table3` | Table III (k = 32) |
//! | `fig5_weak` | Figure 5 (weak scaling, time per edge) |
//! | `fig6_strong` | Figure 6 (strong scaling, three panels) |
//! | `coarsening_effectiveness` | §V-B narrative (shrink factors) |
//! | `ablation` | §III/§V-A design-choice claims |

pub mod harness;

use pgp_graph::{CsrGraph, Partition, Weight};
use std::fmt::Write as _;
use std::time::Instant;

/// Outcome of repeated runs of one partitioner on one instance.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Arithmetic mean cut over repetitions.
    pub avg_cut: f64,
    /// Best cut found.
    pub best_cut: Weight,
    /// Arithmetic mean "parallel time" (max per-PE CPU seconds, or wall
    /// time for sequential codes) per repetition.
    pub avg_time_s: f64,
    /// Worst imbalance observed.
    pub max_imbalance: f64,
    /// Number of repetitions.
    pub reps: usize,
}

/// Runs `f` (which returns a partition and a time in seconds) `reps` times
/// with seeds `base_seed + i` and summarizes.
pub fn summarize_runs(
    graph: &CsrGraph,
    reps: usize,
    mut f: impl FnMut(u64) -> (Partition, f64),
    base_seed: u64,
) -> RunSummary {
    assert!(reps >= 1);
    let mut cuts = Vec::with_capacity(reps);
    let mut times = Vec::with_capacity(reps);
    let mut max_imb = 0.0f64;
    for i in 0..reps {
        let (p, t) = f(base_seed + i as u64);
        cuts.push(p.edge_cut(graph));
        times.push(t);
        max_imb = max_imb.max(p.imbalance(graph));
    }
    RunSummary {
        avg_cut: cuts.iter().map(|&c| c as f64).sum::<f64>() / reps as f64,
        best_cut: *cuts.iter().min().expect("reps >= 1"),
        avg_time_s: times.iter().sum::<f64>() / reps as f64,
        max_imbalance: max_imb,
        reps,
    }
}

/// Measures a closure's wall-clock runtime.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Geometric mean (the paper's cross-instance aggregate).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        assert!(v > 0.0, "geomean needs positive values");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return f64::NAN;
    }
    (log_sum / n as f64).exp()
}

/// A simple aligned text table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:>w$}", c, w = width[i]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = width.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') {
                format!("\"{s}\"")
            } else {
                s.to_string()
            }
        };
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV form under `results/<name>.csv` (creating the
    /// directory), printing the path.
    pub fn save_csv(&self, name: &str) {
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir).expect("create results dir");
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv()).expect("write csv");
        println!("[saved {}]", path.display());
    }
}

/// Formats a float compactly (two decimals, or scientific when tiny).
pub fn fnum(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() < 0.01 {
        format!("{v:.2e}")
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Per-level structural table from an observability [`pgp_obs::RunReport`]:
/// one row per contraction level with the group-agreed global sizes plus
/// the worst per-PE local/ghost counts (rank 0's global view; locals/ghosts
/// maxed across PEs). See EXPERIMENTS.md for the recipe.
pub fn report_level_table(report: &pgp_obs::RunReport) -> Table {
    let mut t = Table::new(&[
        "cycle",
        "level",
        "n_global",
        "m_global",
        "max_local",
        "max_ghost",
    ]);
    let Some(pe0) = report.per_pe.first() else {
        return t;
    };
    for lv in &pe0.levels {
        let mut max_local = 0u64;
        let mut max_ghost = 0u64;
        for pe in &report.per_pe {
            for other in &pe.levels {
                if other.cycle == lv.cycle && other.level == lv.level {
                    max_local = max_local.max(other.n_local);
                    max_ghost = max_ghost.max(other.n_ghost);
                }
            }
        }
        t.row(vec![
            lv.cycle.to_string(),
            lv.level.to_string(),
            lv.n_global.to_string(),
            lv.m_global.to_string(),
            max_local.to_string(),
            max_ghost.to_string(),
        ]);
    }
    t
}

/// Per-refinement-pass quality table from a [`pgp_obs::RunReport`]: cut and
/// imbalance after each recorded pass (rank 0's view; values are global).
pub fn report_refine_table(report: &pgp_obs::RunReport) -> Table {
    let mut t = Table::new(&["cycle", "level", "cut", "imbalance"]);
    let Some(pe0) = report.per_pe.first() else {
        return t;
    };
    for r in &pe0.refinements {
        t.row(vec![
            r.cycle.to_string(),
            r.level.to_string(),
            r.cut.to_string(),
            fnum(r.imbalance),
        ]);
    }
    t
}

/// Cross-PE phase-time table from a [`pgp_obs::RunReport`]: per span path,
/// closure count and total seconds summed over PEs.
pub fn report_phase_table(report: &pgp_obs::RunReport) -> Table {
    let mut t = Table::new(&["phase", "count", "total_s"]);
    for ph in &report.aggregate.phases {
        t.row(vec![
            ph.path.clone(),
            ph.count.to_string(),
            format!("{:.4}", ph.total_s),
        ]);
    }
    t
}

/// Straggler-attribution table from a [`pgp_obs::RunReport`] and the
/// matching [`pgp_obs::RunTrace`]: per span path, the slowest PE's time
/// against the median PE's time (skew = max/median), plus the top three
/// peers blamed for receive waits inside that phase (from the trace's
/// per-peer wait attribution). A phase whose skew is near 1 is balanced;
/// a large skew with one dominant blamed peer names the straggler.
pub fn report_straggler_table(report: &pgp_obs::RunReport, trace: &pgp_obs::RunTrace) -> Table {
    let mut t = Table::new(&[
        "phase",
        "max_pe_s",
        "max_pe",
        "median_pe_s",
        "skew",
        "top_blamed_peers",
    ]);
    let blame = trace.phase_blame();
    for ph in &report.aggregate.phases {
        // Per-PE totals for this path (a PE missing the path contributes 0).
        let mut times: Vec<(f64, usize)> = report
            .per_pe
            .iter()
            .map(|pe| {
                let s = pe
                    .phases
                    .iter()
                    .find(|e| e.path == ph.path)
                    .map_or(0.0, |e| e.total_s);
                (s, pe.rank)
            })
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let &(max_s, max_pe) = times.last().expect("at least one PE");
        let median_s = times[times.len() / 2].0;
        let skew = if median_s > 0.0 {
            max_s / median_s
        } else {
            0.0
        };
        // Top-3 blamed peers by attributed wait inside this phase.
        let peers = blame.get(&ph.path).map_or_else(String::new, |b| {
            let mut ranked: Vec<(usize, u64)> = b.by_peer.iter().map(|(&p, &ns)| (p, ns)).collect();
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            ranked
                .iter()
                .take(3)
                .map(|(p, ns)| format!("pe{}:{:.3}s", p, *ns as f64 / 1e9))
                .collect::<Vec<_>>()
                .join(" ")
        });
        t.row(vec![
            ph.path.clone(),
            format!("{max_s:.4}"),
            max_pe.to_string(),
            format!("{median_s:.4}"),
            format!("{skew:.2}"),
            peers,
        ]);
    }
    t
}

/// Parses harness CLI args of the form `key=value`; returns the value.
pub fn arg(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .find_map(|a| a.strip_prefix(&format!("{key}=")).map(|v| v.to_string()))
}

/// Parses a usize arg with default. A value that is present but does not
/// parse ends the process with exit code 2 and a message naming the key.
pub fn arg_usize(args: &[String], key: &str, default: usize) -> usize {
    arg(args, key).map_or(default, |v| v.parse().unwrap_or_else(|_| bad_arg(key, &v)))
}

/// A present-but-unusable `key=value`: names the key on stderr and ends
/// the process with exit code 2.
pub fn bad_arg(key: &str, value: &str) -> ! {
    eprintln!("error: invalid {key}={value}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([4.0, 9.0]) - 6.0).abs() < 1e-12);
        assert!((geomean([5.0]) - 5.0).abs() < 1e-12);
        assert!(geomean(std::iter::empty::<f64>()).is_nan());
    }

    #[test]
    fn table_renders_aligned_and_csv() {
        let mut t = Table::new(&["graph", "cut"]);
        t.row(vec!["grid".into(), "42".into()]);
        t.row(vec!["a-very-long-name".into(), "7".into()]);
        let text = t.render();
        assert!(text.contains("a-very-long-name"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("graph,cut"));
    }

    #[test]
    fn summarize_collects_best_and_avg() {
        let g = pgp_gen::mesh::grid2d(4, 4);
        let s = summarize_runs(
            &g,
            3,
            |seed| {
                let assign: Vec<u32> = (0..16).map(|i| ((i + seed as usize) % 2) as u32).collect();
                (pgp_graph::Partition::from_assignment(&g, 2, assign), 0.5)
            },
            0,
        );
        assert_eq!(s.reps, 3);
        assert!(s.best_cut as f64 <= s.avg_cut);
        assert!((s.avg_time_s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = vec!["reps=5".into(), "tier=small".into()];
        assert_eq!(arg_usize(&args, "reps", 1), 5);
        assert_eq!(arg(&args, "tier").as_deref(), Some("small"));
        assert_eq!(arg_usize(&args, "missing", 7), 7);
    }
}
