//! End-to-end determinism of `RunConfig::threads_per_pe` (DESIGN.md
//! §13): the full pipeline must produce the identical partition for every
//! worker count ≥ 2 at a fixed `(seed, p)`, each mode must be stable
//! across reruns, and both modes must yield valid partitions. The
//! single-threaded and chunked modes are distinct deterministic paths —
//! the config fingerprint separates them (see
//! `ParhipConfig::fingerprint`), so no cross-mode equality is promised.

use parhip::{GraphClass, ParhipConfig, Partitioner};
use pgp_dmp::RunConfig;
use pgp_graph::{CsrGraph, Partition};

fn partition_on_threads(g: &CsrGraph, cfg: &ParhipConfig, threads: usize) -> Partition {
    let run = RunConfig {
        threads_per_pe: threads,
        ..Default::default()
    };
    Partitioner::new(cfg)
        .run(run)
        .partition(g, 2)
        .expect("valid input")
        .partition
}

fn partition_with_threads(threads: usize, seed: u64) -> Partition {
    let g = pgp_gen::ba::barabasi_albert(6_000, 3, seed);
    let mut cfg = ParhipConfig::fast(4, GraphClass::Social, seed);
    cfg.deterministic = true;
    partition_on_threads(&g, &cfg, threads)
}

#[test]
fn pipeline_is_identical_across_worker_counts() {
    let base = partition_with_threads(2, 5);
    assert_eq!(base, partition_with_threads(4, 5), "T=2 vs T=4");
    assert_eq!(base, partition_with_threads(2, 5), "T=2 rerun");
}

#[test]
fn both_modes_produce_valid_partitions() {
    for threads in [1, 2] {
        let g = pgp_gen::ba::barabasi_albert(6_000, 3, 9);
        let mut cfg = ParhipConfig::fast(4, GraphClass::Social, 9);
        cfg.deterministic = true;
        partition_on_threads(&g, &cfg, threads)
            .validate(&g, cfg.eps)
            .unwrap_or_else(|e| panic!("threads_per_pe={threads}: {e}"));
    }
}

#[test]
fn single_thread_mode_matches_its_own_rerun() {
    assert_eq!(partition_with_threads(1, 7), partition_with_threads(1, 7));
}
