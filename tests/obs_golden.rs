//! Golden-report determinism: the same seed and configuration must yield
//! the *identical* `RunReport` — byte-for-byte once wall-clock fields are
//! zeroed (`zeroed().to_json()`) — across repeated runs. Any
//! nondeterminism in message counts, span structure, or the per-level
//! `work` records (shapes, SCLP rounds / moves / arcs scanned, refine
//! quality) shows up here as a one-byte diff. The `work` block's order
//! and its `level` meaning are pinned here too.

use pgp::parhip::{parhip_distributed, GraphClass, ParhipConfig, Partitioned, Partitioner};
use pgp::pgp_dmp::{run_config, DistGraph, Obs, RunConfig};
use pgp::pgp_graph::CsrGraph;
use pgp::pgp_obs::{JsonValue, LevelWork, RunReport, SCHEMA_VERSION};
use std::sync::Arc;

fn cfg(k: usize, seed: u64) -> ParhipConfig {
    let mut c = ParhipConfig::fast(k, GraphClass::Social, seed);
    c.coarsest_nodes_per_block = 50;
    c.deterministic = true;
    c
}

fn recording(obs: &Arc<Obs>) -> RunConfig {
    RunConfig {
        obs: Some(Arc::clone(obs)),
        ..Default::default()
    }
}

/// One run under a fresh recorder: its result and its report.
fn observed(g: &CsrGraph, p: usize, c: &ParhipConfig) -> (Partitioned, RunReport) {
    let obs = Obs::new(p);
    let out = Partitioner::new(c)
        .run(recording(&obs))
        .partition(g, p)
        .expect("valid input");
    (out, obs.report())
}

#[test]
fn same_seed_same_report() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(700, Default::default(), 5);
    let c = cfg(4, 23);
    let (p1, r1) = observed(&g, 4, &c);
    let (p2, r2) = observed(&g, 4, &c);
    assert_eq!(
        p1.partition.assignment(),
        p2.partition.assignment(),
        "partition nondeterminism"
    );
    let j1 = r1.zeroed().to_json();
    let j2 = r2.zeroed().to_json();
    assert_eq!(j1, j2, "RunReport differs between identical runs");
    assert!(j1.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
}

#[test]
fn report_json_roundtrips_on_a_real_run() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(500, Default::default(), 7);
    let (_, report) = observed(&g, 2, &cfg(2, 29));
    // What the report writes parses, and has only keys the schema names.
    let parsed = JsonValue::parse(&report.to_json()).expect("parse own output");
    let paths = parsed.key_paths();
    let schema = RunReport::schema_fingerprint();
    assert!(paths.len() > 40, "a real run fills most of the schema");
    for path in paths {
        assert!(schema.contains(&path), "{path} is not in the schema");
    }
}

/// The report's quality snapshots use the partition's own imbalance: with
/// a node count `k` does not divide, the last refine record carries the
/// imbalance the run returns.
#[test]
fn report_imbalance_is_the_run_imbalance() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(601, Default::default(), 11);
    assert_ne!(g.total_node_weight() % 4, 0);
    let (out, report) = observed(&g, 2, &cfg(4, 37));
    let last = report.per_pe[0].work.last().expect("work records");
    assert_eq!(last.stage, "refine");
    assert_eq!(last.imbalance, Some(out.stats.imbalance));
    assert_eq!(last.imbalance, Some(out.partition.imbalance(&g)));
    assert_eq!(report.aggregate.final_cut, Some(out.stats.cut));
}

/// Per PE and per V-cycle of a depth-`d` hierarchy, the `work` block holds
/// `cluster` records at levels 0..d−2 (finest first), one
/// `initial_partition` record at the coarsest level d−1, then `refine`
/// records from d−2 back to 0; only refine records carry a cut and an
/// imbalance. A cluster call reads each of its PE's arcs once a round.
#[test]
fn work_records_follow_the_v_cycle() {
    let (g, _) = pgp::pgp_gen::sbm::sbm(1500, Default::default(), 13);
    let c = cfg(4, 41);
    for p in [1, 2] {
        let obs = Obs::new(p);
        let per_pe = run_config(p, recording(&obs), |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let (_, stats) = parhip_distributed(comm, &dg, &c);
            (dg.local_arc_count(), stats.coarsest_n)
        });
        for (pe, outcome) in obs.report().per_pe.iter().zip(per_pe) {
            let (arcs, coarsest_n) = outcome.expect("the run succeeds");
            let mut rest = &pe.work[..];
            for cycle in 0..c.vcycles {
                let ip = rest.iter().position(|w| w.stage == "initial_partition");
                let d = ip.expect("one initial partitioning per cycle") + 1;
                assert!(d >= 2, "p = {p}, cycle {cycle}: nothing coarsened");
                let (records, tail) = rest.split_at(2 * d - 1);
                rest = tail;
                let shape = |w: &LevelWork| (w.cycle, w.stage, w.level, w.cut.is_some());
                let expected: Vec<_> = (0..d - 1)
                    .map(|l| (cycle, "cluster", l, false))
                    .chain([(cycle, "initial_partition", d - 1, false)])
                    .chain((0..d - 1).rev().map(|l| (cycle, "refine", l, true)))
                    .collect();
                assert_eq!(records.iter().map(shape).collect::<Vec<_>>(), expected);
                assert!(records
                    .iter()
                    .all(|w| w.cut.is_some() == w.imbalance.is_some()));
                if cycle == 0 {
                    let finest = records[0];
                    assert!(finest.rounds > 0);
                    assert_eq!(finest.edges_scanned, finest.rounds as u64 * arcs);
                    assert_eq!(records[d - 1].n_global, coarsest_n);
                }
            }
            assert!(rest.is_empty(), "records past the last cycle");
        }
    }
}
