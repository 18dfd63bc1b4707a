//! Criterion micro-benchmarks for the performance-critical kernels:
//!
//! * `cluster_map` — the paper's linear-probing aggregation table vs
//!   `std::collections::HashMap` (§IV-A claims a large speedup; this bench
//!   verifies it on this implementation).
//! * `sclp_round` — one sequential label-propagation round per edge.
//! * `contraction` — sequential and parallel cluster contraction.
//! * `collectives` — allreduce / alltoallv latency of the dmp substrate.
//! * `generators` — graph generation throughput.
//! * `end_to_end` — ParHIP fast vs the ParMetis-like baseline on a small
//!   web stand-in.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pgp_dmp::DistGraph;
use pgp_graph::Node;
use pgp_lp::ClusterMap;
use std::collections::HashMap;
use std::hint::black_box;

fn bench_cluster_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_map");
    group.sample_size(30);
    let keys: Vec<Node> = (0..256u32).map(|i| (i * 2654435761) % 1024).collect();
    group.bench_function("linear_probing", |b| {
        let mut m = ClusterMap::with_max_degree(256);
        b.iter(|| {
            m.clear();
            for &k in &keys {
                m.add(black_box(k), 1);
            }
            black_box(m.len())
        });
    });
    group.bench_function("std_hashmap", |b| {
        b.iter(|| {
            let mut m: HashMap<Node, u64> = HashMap::with_capacity(256);
            for &k in &keys {
                *m.entry(black_box(k)).or_insert(0) += 1;
            }
            black_box(m.len())
        });
    });
    group.finish();
}

fn bench_sclp_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("sclp_round");
    group.sample_size(15);
    for (name, g) in [
        ("sbm_4k", pgp_gen::sbm::sbm(4096, Default::default(), 1).0),
        ("grid_64x64", pgp_gen::mesh::grid2d(64, 64)),
    ] {
        group.throughput(Throughput::Elements(g.m() as u64));
        group.bench_function(BenchmarkId::new("one_round", name), |b| {
            b.iter(|| {
                let mut labels: Vec<Node> = g.nodes().collect();
                pgp_lp::seq::sclp(
                    &g,
                    &pgp_lp::seq::SclpConfig {
                        u_bound: 64,
                        iterations: 1,
                        mode: pgp_lp::seq::Mode::Cluster,
                        order: pgp_lp::seq::Order::Degree,
                        seed: 1,
                    },
                    &mut labels,
                    None,
                );
                black_box(labels)
            });
        });
    }
    group.finish();
}

fn bench_contraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("contraction");
    group.sample_size(15);
    let (g, _) = pgp_gen::sbm::sbm(4096, Default::default(), 2);
    let clustering = pgp_lp::sclp_cluster(&g, 128, 3, 1);
    group.throughput(Throughput::Elements(g.m() as u64));
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(pgp_graph::contract_clustering(&g, &clustering)));
    });
    group.bench_function("parallel_p4", |b| {
        b.iter(|| {
            pgp_dmp::run(4, |comm| {
                let dg = DistGraph::from_global(comm, &g);
                let labels: Vec<Node> = (0..(dg.n_local() + dg.n_ghost()) as Node)
                    .map(|l| clustering[dg.local_to_global(l) as usize])
                    .collect();
                black_box(
                    parhip::parallel_contract(comm, &dg, &labels)
                        .coarse
                        .n_local(),
                )
            })
        });
    });
    group.finish();
}

fn bench_collectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("collectives");
    group.sample_size(15);
    for p in [2usize, 4, 8] {
        group.bench_function(BenchmarkId::new("allreduce_sum", p), |b| {
            b.iter(|| {
                pgp_dmp::run(p, |comm| {
                    pgp_dmp::collectives::allreduce_sum(comm, comm.rank() as u64)
                })
            });
        });
        group.bench_function(BenchmarkId::new("alltoallv_1k", p), |b| {
            b.iter(|| {
                pgp_dmp::run(p, |comm| {
                    let sends: Vec<Vec<u64>> = (0..p).map(|_| vec![7u64; 1024 / p]).collect();
                    pgp_dmp::collectives::alltoallv(comm, sends).len()
                })
            });
        });
    }
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(10);
    group.bench_function("rgg_2^13", |b| {
        b.iter(|| black_box(pgp_gen::rgg::rgg_x(13, 1)));
    });
    group.bench_function("delaunay_2^12", |b| {
        b.iter(|| black_box(pgp_gen::delaunay::delaunay_x(12, 1)));
    });
    group.bench_function("rmat_2^13_avg8", |b| {
        b.iter(|| black_box(pgp_gen::rmat::rmat_web(13, 8, 1)));
    });
    group.bench_function("ba_8k_m3", |b| {
        b.iter(|| black_box(pgp_gen::ba::barabasi_albert(8192, 3, 1)));
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    let g = pgp_gen::ensure_connected(pgp_gen::rmat::rmat_web(12, 8, 3));
    group.throughput(Throughput::Elements(g.m() as u64));
    group.bench_function("parhip_fast_k2_p4", |b| {
        b.iter(|| {
            let mut cfg = parhip::ParhipConfig::fast(2, parhip::GraphClass::Social, 1);
            cfg.deterministic = true;
            let out = parhip::Partitioner::new(&cfg).partition(&g, 4);
            black_box(out.expect("valid input").stats.cut)
        });
    });
    group.bench_function("parmetis_like_k2_p4", |b| {
        b.iter(|| {
            let cfg = pgp_baselines::ParmetisLikeConfig::new(2, 1);
            black_box(
                pgp_baselines::parmetis_like(&g, 4, &cfg, pgp_dmp::RunConfig::default())
                    .map(|(p, _)| p.edge_cut(&g))
                    .unwrap_or(0),
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cluster_map,
    bench_sclp_round,
    bench_contraction,
    bench_collectives,
    bench_generators,
    bench_end_to_end
);
criterion_main!(benches);
