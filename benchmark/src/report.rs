//! What a run prints and writes: a table of every metric, a result file
//! `compare` reads back, and the one-line summary the last line of standard
//! output carries.

use crate::host;
use crate::json::Json;
use crate::metrics::{Measured, END_TO_END};
use crate::run::{Options, WorkloadResult};
use crate::stats::median_of;

/// Version of the result file's layout.
pub const SCHEMA: f64 = 1.0;

fn bound_of(name: &str) -> Option<f64> {
    END_TO_END.iter().find(|s| s.name == name).map(|s| s.bound)
}

fn metrics_json(metrics: &[Measured], bounded: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let bound = if bounded { bound_of(m.name) } else { None };
                (m.name.to_string(), m.to_json(bound))
            })
            .collect(),
    )
}

fn workload_json(r: &WorkloadResult) -> Json {
    let w = r.workload;
    Json::obj([
        ("name", Json::str(w.name)),
        ("why", Json::str(w.why)),
        (
            "instance",
            Json::obj([
                ("generator", Json::str(&r.generator)),
                ("n", Json::Num(r.n as f64)),
                ("m", Json::Num(r.m as f64)),
                ("file_bytes", Json::Num(r.file_bytes as f64)),
            ]),
        ),
        (
            "run",
            Json::obj([
                ("k", Json::Num(w.k as f64)),
                ("p", Json::Num(w.p as f64)),
                ("preset", Json::str(w.preset.as_str())),
                ("class", Json::str(w.class.as_str())),
            ]),
        ),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        (
            "failures",
            Json::Arr(r.failures.iter().map(|f| Json::str(f)).collect()),
        ),
        ("noisy", Json::Bool(r.noise.noisy)),
        ("host_calib_spread", Json::Num(r.noise.calib_spread)),
        ("host_steal_share", Json::Num(r.noise.steal_share)),
        ("end_to_end", metrics_json(&r.end_to_end, true)),
        ("per_layer", metrics_json(&r.per_layer, false)),
    ])
}

fn median_named(r: &WorkloadResult, name: &str) -> Option<f64> {
    r.end_to_end
        .iter()
        .find(|m| m.name == name && !m.samples.is_empty())
        .map(|m| median_of(&m.samples))
}

/// `web_p1.wall_s / web_p2.wall_s`, when a run measured both.
fn speedup_p2(results: &[WorkloadResult]) -> Option<f64> {
    let wall = |name: &str| {
        results
            .iter()
            .find(|r| r.workload.name == name)
            .and_then(|r| median_named(r, "wall_s"))
    };
    Some(wall("web_p1")? / wall("web_p2")?)
}

pub fn results_json(results: &[WorkloadResult], opts: &Options) -> Json {
    let mut derived = Vec::new();
    if let Some(s) = speedup_p2(results) {
        derived.push(("scaling.speedup_p2".to_string(), Json::Num(s)));
    }
    Json::obj([
        ("schema", Json::Num(SCHEMA)),
        ("smoke", Json::Bool(opts.smoke)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("nproc", Json::Num(host::nproc() as f64)),
        (
            "workloads",
            Json::Arr(results.iter().map(workload_json).collect()),
        ),
        ("derived", Json::Obj(derived)),
    ])
}

/// Every metric by name, with unit, median, quartiles and sample count.
pub fn print_table(results: &[WorkloadResult]) {
    for r in results {
        println!(
            "== {}: {} (n = {}, m = {}), k={} p={} {} {}; {} of {} outputs rejected{}",
            r.workload.name,
            r.generator,
            r.n,
            r.m,
            r.workload.k,
            r.workload.p,
            r.workload.preset.as_str(),
            r.workload.class.as_str(),
            r.failed,
            r.attempted,
            if r.noise.noisy { "; NOISY host" } else { "" },
        );
        for f in &r.failures {
            println!("   failed: {f}");
        }
        println!(
            "   {:<28} {:>10} {:>14} {:>14} {:>14} {:>4}",
            "metric", "unit", "median", "q1", "q3", "n"
        );
        for (m, bounded) in r
            .end_to_end
            .iter()
            .map(|m| (m, true))
            .chain(r.per_layer.iter().map(|m| (m, false)))
        {
            let Some(s) = m.summary() else { continue };
            let unresolved = bounded && bound_of(m.name).is_some_and(|b| s.spread() > b);
            println!(
                "   {:<28} {:>10} {:>14.6} {:>14.6} {:>14.6} {:>4}{}",
                m.name,
                m.unit,
                s.median,
                s.q1,
                s.q3,
                s.n,
                if unresolved {
                    "  unresolved: spread exceeds bound"
                } else {
                    ""
                },
            );
        }
    }
    if let Some(s) = speedup_p2(results) {
        println!("== scaling.speedup_p2 = web_p1.wall_s / web_p2.wall_s = {s:.4}");
    }
}

/// The last line of standard output: `correct`, `attempted`, `failed` and
/// the median of every metric measured. With one workload the metrics go by
/// their own names; with several, by `<workload>.<metric>`.
pub fn summary_line(results: &[WorkloadResult]) -> String {
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let mut metrics = Vec::new();
    for r in results {
        for m in r.end_to_end.iter().chain(&r.per_layer) {
            if m.samples.is_empty() {
                continue;
            }
            let name = if results.len() == 1 {
                m.name.to_string()
            } else {
                format!("{}.{}", r.workload.name, m.name)
            };
            metrics.push((
                name,
                Json::obj([
                    ("value", Json::Num(median_of(&m.samples))),
                    ("unit", Json::str(m.unit)),
                ]),
            ));
        }
    }
    Json::obj([
        ("correct", Json::Bool(failed == 0 && attempted > 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_compact()
}
