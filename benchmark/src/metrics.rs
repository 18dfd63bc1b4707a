//! The metrics by name and unit and, for the end-to-end ones, the bound by
//! which a median may worsen before it counts as a regression.
//! `BENCHMARK.json` repeats these tables and adds each metric's better
//! direction; a unit test keeps the two equal.

use crate::json::Json;
use crate::stats::Summary;

pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the base median; every end-to-end metric is better lower.
    /// Each is three times the widest inter-quartile spread that ten runs on
    /// ten seeds showed for any workload on the reference container (a
    /// shared host whose speed drifts by tens of percent over minutes), or
    /// the 25 % the benchmark contract allows at most.
    pub bound: f64,
    /// A worsening smaller than this many units is never a regression,
    /// whatever share of a tiny base it is.
    pub floor: f64,
}

pub const END_TO_END: [EndToEndSpec; 5] = [
    EndToEndSpec {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEndSpec {
        name: "cpu_s",
        unit: "s",
        bound: 0.25,
        floor: 0.0,
    },
    EndToEndSpec {
        name: "peak_rss_mib",
        unit: "MiB",
        bound: 0.20,
        floor: 0.0,
    },
    EndToEndSpec {
        name: "edge_cut",
        unit: "edges",
        bound: 0.15,
        floor: 0.0,
    },
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        floor: 0.05,
    },
];

pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// Repeats exactly for a fixed `(seed, p)`: `compare` demands equality.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        exact: true,
    }
}

/// Layer = crate. The README says what each one measures and which
/// end-to-end metric it should move on which workload.
pub const PER_LAYER: [LayerSpec; 43] = [
    layer("graph.read_s", "s"),
    layer("graph.read_mb_per_s", "MB/s"),
    layer("graph.evaluate_s", "s"),
    layer("graph.write_s", "s"),
    layer("dmp.distribute_s", "s"),
    layer("dmp.gather_coarsest_s", "s"),
    layer("dmp.gather_s", "s"),
    exact("dmp.messages", "count"),
    layer("dmp.bytes", "bytes"),
    exact("dmp.collective_calls", "count"),
    layer("dmp.bytes_per_edge", "bytes/edge"),
    layer("dmp.recv_wait_s", "s"),
    layer("dmp.exchange_updates_per_s", "1/s"),
    layer("lp.cluster_s", "s"),
    layer("lp.cluster_edges", "edges"),
    layer("lp.cluster_ns_per_edge", "ns/edge"),
    layer("lp.cluster_moves", "count"),
    layer("lp.cluster_pe_skew", "ratio"),
    layer("lp.cluster_t2_speedup", "ratio"),
    layer("lp.refine_s", "s"),
    layer("lp.refine_edges", "edges"),
    layer("lp.refine_ns_per_edge", "ns/edge"),
    layer("lp.refine_moves", "count"),
    layer("core.parhip_s", "s"),
    layer("core.ns_per_edge", "ns/edge"),
    layer("core.replay_s", "s"),
    layer("core.coarsen_s", "s"),
    layer("core.contract_s", "s"),
    layer("core.contract_ns_per_edge", "ns/edge"),
    layer("core.project_s", "s"),
    exact("core.levels", "count"),
    layer("core.shrink_l0", "ratio"),
    layer("core.coarsest_n", "nodes"),
    layer("core.coverage", "ratio"),
    layer("evo.kaffpae_s", "s"),
    layer("evo.share", "ratio"),
    layer("seq.kaffpa_s", "s"),
    layer("seq.coarsen_s", "s"),
    layer("seq.initial_s", "s"),
    layer("seq.fm_s", "s"),
    layer("obs.overhead_ratio", "ratio"),
    layer("host.calib_spread", "ratio"),
    layer("host.steal_share", "ratio"),
];

/// One metric's samples over the reps of a run.
#[derive(Clone, Debug)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

impl Measured {
    pub fn summary(&self) -> Option<Summary> {
        Summary::of(&self.samples)
    }

    pub fn to_json(&self, bound: Option<f64>) -> Json {
        let mut fields = vec![("unit".to_string(), Json::str(self.unit))];
        if let Some(s) = self.summary() {
            for (k, v) in [
                ("n", s.n as f64),
                ("median", s.median),
                ("q1", s.q1),
                ("q3", s.q3),
                ("min", s.min),
                ("max", s.max),
                ("spread", s.spread()),
            ] {
                fields.push((k.to_string(), Json::Num(v)));
            }
            if let Some(bound) = bound {
                fields.push(("bound".to_string(), Json::Num(bound)));
                fields.push(("resolved".to_string(), Json::Bool(s.spread() <= bound)));
            }
        }
        fields.push((
            "samples".to_string(),
            Json::Arr(self.samples.iter().map(|&x| Json::Num(x)).collect()),
        ));
        Json::Obj(fields)
    }
}

/// Collects samples per metric in first-seen order.
#[derive(Default)]
pub struct Samples(Vec<Measured>);

impl Samples {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.samples.push(value),
            None => self.0.push(Measured {
                name,
                unit,
                samples: vec![value],
            }),
        }
    }

    /// Pushes an end-to-end sample under the unit its spec gives it.
    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        let spec = END_TO_END
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("'{name}' is not an end-to-end metric"));
        self.push(spec.name, spec.unit, value);
    }

    /// Pushes a per-layer sample under the unit its spec gives it.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        let spec = PER_LAYER
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("'{name}' is not a per-layer metric"));
        self.push(spec.name, spec.unit, value);
    }

    pub fn into_vec(self) -> Vec<Measured> {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use std::path::Path;

    fn manifest() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap()
    }

    #[test]
    fn benchmark_json_names_the_workloads_of_the_harness() {
        let manifest = manifest();
        let listed = manifest.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(field(entry, "name"), w.name);
            assert_eq!(field(entry, "why"), w.why);
        }
    }

    #[test]
    fn benchmark_json_names_the_metrics_of_the_harness() {
        let manifest = manifest();
        let e2e = manifest.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, spec) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), spec.name);
            assert_eq!(field(entry, "unit"), spec.unit);
            assert_eq!(field(entry, "better"), "lower");
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(spec.bound));
        }
        let layers = manifest.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, spec) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), spec.name);
            assert_eq!(field(entry, "unit"), spec.unit);
            assert!(["higher", "lower"].contains(&field(entry, "better")));
        }
    }

    #[test]
    fn samples_keep_first_seen_order_and_units() {
        let mut s = Samples::default();
        s.layer("lp.cluster_s", 1.0);
        s.layer("core.levels", 3.0);
        s.layer("lp.cluster_s", 2.0);
        let v = s.into_vec();
        assert_eq!(v.len(), 2);
        assert_eq!(
            (v[0].name, v[0].unit, v[0].samples.len()),
            ("lp.cluster_s", "s", 2)
        );
        assert_eq!(v[1].unit, "count");
    }
}
