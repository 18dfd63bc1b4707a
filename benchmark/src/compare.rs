//! `compare <a.json> <b.json>`: is run B worse than run A? Per workload and
//! end-to-end metric it prints both medians with their quartiles, the ratio
//! with its base, the bound and a verdict; counters that repeat exactly
//! must be equal.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report::SCHEMA;
use crate::stats::Summary;
use crate::workloads;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regression,
    /// One side's own inter-quartile spread exceeds the bound: the runs
    /// cannot tell a change of that size, so they cannot call it unchanged.
    Unresolved,
}

impl Verdict {
    fn as_str(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric's order statistics as a result file holds them.
fn summary_from_json(metric: &Json) -> Option<Summary> {
    let num = |k: &str| metric.get(k).and_then(Json::as_f64);
    Some(Summary {
        n: num("n")? as usize,
        median: num("median")?,
        q1: num("q1")?,
        q3: num("q3")?,
        min: num("min")?,
        max: num("max")?,
    })
}

/// All end-to-end metrics are better lower: B regresses when its median
/// exceeds A's by more than the bound — a share of A's median, and at least
/// the metric's absolute floor. A side whose own inter-quartile distance is
/// wider than that cannot resolve such a change.
pub fn judge(a: &Summary, b: &Summary, bound: f64, floor: f64) -> Verdict {
    let too_wide = |s: &Summary| s.q3 - s.q1 > (bound * s.median).max(floor);
    if too_wide(a) || too_wide(b) {
        Verdict::Unresolved
    } else if b.median - a.median > (bound * a.median).max(floor) {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

struct RunFile {
    path: String,
    seed: f64,
    workloads: Vec<Json>,
}

fn load(path: &str) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_f64) != Some(SCHEMA) {
        return Err(format!("{path}: not a result file of schema {SCHEMA}"));
    }
    if doc.get("smoke").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "{path}: a smoke run measures too little to compare"
        ));
    }
    Ok(RunFile {
        path: path.to_string(),
        seed: doc
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: no seed"))?,
        workloads: doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}: no workloads"))?
            .to_vec(),
    })
}

fn workload<'a>(file: &'a RunFile, name: &str) -> Option<&'a Json> {
    file.workloads
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn side(workload: &Json, group: &str, metric: &str) -> Option<Summary> {
    workload
        .get(group)
        .and_then(|g| g.get(metric))
        .and_then(summary_from_json)
}

fn samples(workload: &Json, group: &str, metric: &str) -> Vec<f64> {
    workload
        .get(group)
        .and_then(|g| g.get(metric))
        .and_then(|m| m.get("samples"))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Prints the comparison; `Ok(true)` when nothing regressed, nothing exact
/// differed and no rep failed on either side.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("A = {} (seed {})", a.path, a.seed);
    println!("B = {} (seed {})", b.path, b.seed);
    let same_seed = a.seed == b.seed;
    let mut clean = true;
    let mut compared = 0;
    for w in workloads::WORKLOADS.iter() {
        let (Some(wa), Some(wb)) = (workload(&a, w.name), workload(&b, w.name)) else {
            continue;
        };
        println!("== {}", w.name);
        for (label, side) in [("A", wa), ("B", wb)] {
            let failed = side
                .get("failed")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            let attempted = side.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            let noisy = side.get("noisy").and_then(Json::as_bool) == Some(true);
            if failed != 0.0 {
                clean = false;
            }
            if failed != 0.0 || noisy {
                println!(
                    "   {label}: {failed} of {attempted} outputs rejected{}",
                    if noisy { ", host marked noisy" } else { "" }
                );
            }
        }
        println!(
            "   {:<14} {:>6} {:>32} {:>32} {:>9} {:>6}  verdict",
            "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B/A", "bound"
        );
        for spec in &END_TO_END {
            let (Some(sa), Some(sb)) = (
                side(wa, "end_to_end", spec.name),
                side(wb, "end_to_end", spec.name),
            ) else {
                continue;
            };
            compared += 1;
            let verdict = judge(&sa, &sb, spec.bound, spec.floor);
            clean &= verdict != Verdict::Regression;
            let cell = |s: &Summary| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
            println!(
                "   {:<14} {:>6} {:>32} {:>32} {:>9.4} {:>5.0}%  {}",
                spec.name,
                spec.unit,
                cell(&sa),
                cell(&sb),
                sb.median / sa.median,
                spec.bound * 100.0,
                verdict.as_str(),
            );
        }
        // What repeats exactly for a fixed (seed, p): rep i's cut under the
        // fast preset (both runs gave rep i the same partitioner seed), and
        // the counters of the traced run.
        let exact_verdict = |equal: bool, clean: &mut bool| {
            if !same_seed {
                "n/a (seeds differ)"
            } else if equal {
                "equal"
            } else {
                *clean = false;
                "DIFFERENT"
            }
        };
        if w.cut_is_exact() {
            let (ca, cb) = (
                samples(wa, "end_to_end", "edge_cut"),
                samples(wb, "end_to_end", "edge_cut"),
            );
            let shared = ca.len().min(cb.len());
            if shared > 0 {
                println!(
                    "   exact {:<22} first {shared} reps  {}",
                    "edge_cut",
                    exact_verdict(ca[..shared] == cb[..shared], &mut clean)
                );
            }
        }
        for spec in PER_LAYER.iter().filter(|s| s.exact) {
            let (Some(sa), Some(sb)) = (
                side(wa, "per_layer", spec.name),
                side(wb, "per_layer", spec.name),
            ) else {
                continue;
            };
            let equal = sa.min == sa.max && sb.min == sb.max && sa.median == sb.median;
            println!(
                "   exact {:<22} A = {} B = {}  {}",
                spec.name,
                sa.median,
                sb.median,
                exact_verdict(equal, &mut clean)
            );
        }
    }
    if compared == 0 {
        return Err("the two files share no workload with end-to-end metrics".to_string());
    }
    println!(
        "{}",
        if clean {
            "no regression, no exact counter differs, no output rejected"
        } else {
            "NOT CLEAN: see the verdicts above"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            n: 3,
            median,
            q1,
            q3,
            min: q1,
            max: q3,
        }
    }

    #[test]
    fn verdicts_follow_bound_floor_and_spread() {
        let base = side(2.0, 1.98, 2.02);
        assert_eq!(judge(&base, &side(2.19, 2.18, 2.2), 0.10, 0.0), Verdict::Ok);
        assert_eq!(
            judge(&base, &side(2.21, 2.2, 2.22), 0.10, 0.0),
            Verdict::Regression
        );
        // A better B is never a regression.
        assert_eq!(judge(&base, &side(1.0, 0.99, 1.01), 0.10, 0.0), Verdict::Ok);
        // A spread wider than the bound on either side cannot resolve it.
        assert_eq!(
            judge(&base, &side(3.0, 2.5, 3.5), 0.10, 0.0),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&side(2.0, 1.8, 2.2), &side(2.0, 1.99, 2.01), 0.10, 0.0),
            Verdict::Unresolved
        );
        // 40 % worse, but only 4 ms: under the absolute floor.
        let tiny = side(0.010, 0.010, 0.010);
        assert_eq!(
            judge(&tiny, &side(0.014, 0.014, 0.014), 0.25, 0.05),
            Verdict::Ok
        );
        // Nor does a wide spread of a few milliseconds leave it unresolved.
        assert_eq!(
            judge(&tiny, &side(0.012, 0.008, 0.016), 0.25, 0.05),
            Verdict::Ok
        );
    }
}
