//! KaFFPaE — the coarse-grained distributed evolutionary algorithm
//! (Section II-C, used at the coarsest level of the parallel system).
//!
//! Every PE holds a copy of the (coarsest) graph and its own population.
//! The p PEs share one operation budget, as the paper's `t_p = t_1 / p`
//! shares time: each runs `⌈n / p⌉` combine/mutation operations.
//!
//! A run with operations builds its initial population once for the whole
//! group: one stream, seeded like PE 0's, draws every individual's cluster
//! factor and seed, PE `i mod p` builds individual `i`, and one `allgatherv`
//! hands every PE all of them, inserted in index order after the carried
//! individual. So every PE starts its operations from the same population,
//! and p = 1 builds exactly what one PE always built. PE 0's operations go
//! on drawing from that stream; PE r > 0 draws from its own. A run without
//! operations (the fast preset's initial population only) has every PE
//! build its own population from its own stream.
//!
//! Before every `rumor_interval`-th operation, the first excluded (before
//! it every PE's best is the same), the PEs exchange in a ring: PE r sends
//! its best individual to `(r + s) mod p` and receives one from
//! `(r − s) mod p`, which the operations that follow can pick as a parent.
//! The shift `s ∈ [1, p)` is drawn from an RNG seeded by the
//! configuration's seed alone, so every PE draws the same `s` and the run
//! is a pure function of its inputs and p. At the end the globally best
//! partition is selected with one `allreduce` and broadcast.
//!
//! A recorded run opens a `population` span around building the initial
//! population and an `operation` span around each operation (its ring
//! exchange included), under whatever span the caller has open — the
//! partitioner's `initial_partition` — so a report splits the coarsest
//! level into the two.

use crate::population::Population;
use pgp_dmp::collectives::{allgatherv, allreduce_min_with_rank, broadcast};
use pgp_dmp::{tags, Comm};
use pgp_graph::{BlockId, CsrGraph, Partition, Weight};
use pgp_seq::{kaffpa, kaffpa_with_inputs, KaffpaConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Effort budget for the evolutionary loop (after the initial population).
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// A fixed number of combine/mutation operations for the whole PE
    /// group: each of p PEs runs `⌈n / p⌉` of them (the paper's
    /// `t_p = t_1 / p`, counted in operations instead of seconds).
    Operations(usize),
}

/// KaFFPaE configuration.
#[derive(Clone, Debug)]
pub struct EvoConfig {
    /// Number of blocks.
    pub k: usize,
    /// Balance slack.
    pub eps: f64,
    /// Individuals each PE holds. With an operation budget the group
    /// builds the initial ones once, split over its PEs, so every PE starts
    /// from the same population; without one each PE builds its own.
    pub population_size: usize,
    /// The group's evolutionary budget after the initial population is
    /// built.
    pub budget: Budget,
    /// Probability of a mutation (fresh multilevel run with a random
    /// cluster factor) instead of a combine.
    pub mutation_rate: f64,
    /// 0 turns the ring exchange off; any other value means one ring
    /// partner per exchange (the value is not a count).
    pub rumor_fanout: usize,
    /// Operations between ring exchanges; the first exchange comes before
    /// operation `rumor_interval` (before operation 0 every PE holds the
    /// same population, so there is nothing to exchange). A PE whose share
    /// `⌈n / p⌉` is at most `rumor_interval` never exchanges.
    pub rumor_interval: usize,
    /// RNG seed.
    pub seed: u64,
    /// What the selection minimizes (§VI extension; the multilevel engine
    /// still optimizes the cut internally).
    pub objective: crate::Objective,
}

impl EvoConfig {
    /// The fast-configuration setting: only the initial population, no
    /// evolutionary loop (the paper's *fast* gives KaFFPaE "only enough
    /// time to compute the initial population").
    pub fn initial_only(k: usize, seed: u64) -> Self {
        Self {
            k,
            eps: 0.03,
            population_size: 3,
            budget: Budget::Operations(0),
            mutation_rate: 0.1,
            rumor_fanout: 1,
            rumor_interval: 4,
            seed,
            objective: crate::Objective::EdgeCut,
        }
    }

    /// An eco-style setting with an explicit operation budget.
    pub fn with_operations(k: usize, ops: usize, seed: u64) -> Self {
        Self {
            budget: Budget::Operations(ops),
            population_size: 5,
            ..Self::initial_only(k, seed)
        }
    }
}

fn base_kaffpa_config(cfg: &EvoConfig, seed: u64, cluster_factor: f64) -> KaffpaConfig {
    let mut kc = KaffpaConfig::new(cfg.k, seed);
    kc.eps = cfg.eps;
    kc.cluster_factor = cluster_factor;
    kc
}

/// The configuration of the initial population's run `i`, drawn from
/// `rng`: a diversified cluster factor (the paper randomizes f in later
/// cycles) and a seed of its own.
fn initial_config(cfg: &EvoConfig, rng: &mut SmallRng, i: usize) -> KaffpaConfig {
    let f = rng.gen_range(10.0..25.0);
    base_kaffpa_config(cfg, rng.gen::<u64>() ^ (i as u64), f)
}

/// PE `rank`'s share of `runs` initial multilevel runs split over `p` PEs:
/// the assignments of runs `rank, rank + p, …`. `stream` draws every run's
/// configuration, built here or not, so each run is configured as if one PE
/// built them all.
fn build_share(
    graph: &CsrGraph,
    cfg: &EvoConfig,
    stream: &mut SmallRng,
    runs: usize,
    (rank, p): (usize, usize),
) -> Vec<Vec<BlockId>> {
    let mut mine = Vec::new();
    for i in 0..runs {
        let kc = initial_config(cfg, stream, i);
        if i % p == rank {
            mine.push(kaffpa(graph, &kc).into_assignment());
        }
    }
    mine
}

/// Inserts `part` into `pop` under the configuration's objective.
fn insert_scored(pop: &mut Population, graph: &CsrGraph, cfg: &EvoConfig, part: Partition) {
    let score = cfg.objective.score(graph, &part);
    pop.insert_raw(part.into_assignment(), score);
}

/// The population this PE's operations start from — the carried
/// individual, then the initial runs — and the stream they draw from.
/// With operations the group builds one population (module doc); without,
/// every PE builds its own from its own stream.
fn initial_population(
    comm: &Comm,
    graph: &CsrGraph,
    cfg: &EvoConfig,
    seed_individual: Option<&Partition>,
) -> (Population, SmallRng) {
    let (rank, p) = (comm.rank(), comm.size());
    let stream_of = |r: usize| SmallRng::seed_from_u64(pgp_dmp::mix_seed(cfg.seed, r as u64));
    let mut pop = Population::new(cfg.population_size.max(1));
    if let Some(seed_p) = seed_individual {
        insert_scored(&mut pop, graph, cfg, seed_p.clone());
    }
    let runs = cfg.population_size.saturating_sub(pop.len()).max(1);
    let (built, rng) = if let Budget::Operations(0) = cfg.budget {
        let mut own = stream_of(rank);
        (build_share(graph, cfg, &mut own, runs, (0, 1)), own)
    } else {
        let mut shared = stream_of(0);
        let mine = build_share(graph, cfg, &mut shared, runs, (rank, p));
        // Rank order: PE r's runs r, r + p, … come r-th.
        let mut built: Vec<(usize, Vec<BlockId>)> = (0..p)
            .flat_map(|r| (r..runs).step_by(p))
            .zip(allgatherv(comm, mine))
            .collect();
        built.sort_unstable_by_key(|&(i, _)| i);
        let rng = if rank == 0 { shared } else { stream_of(rank) };
        (built.into_iter().map(|(_, a)| a).collect(), rng)
    };
    for assignment in built {
        assert_eq!(
            assignment.len(),
            graph.n(),
            "built individual does not match the replicated graph"
        );
        let part = Partition::from_assignment(graph, cfg.k, assignment);
        insert_scored(&mut pop, graph, cfg, part);
    }
    (pop, rng)
}

/// Runs KaFFPaE on a replicated `graph`. `seed_individual`, when given
/// (iterated V-cycles), joins every PE's initial population, so the result
/// is never worse than it. Returns the globally best partition (identical
/// on every PE).
pub fn kaffpae(
    comm: &Comm,
    graph: &CsrGraph,
    cfg: &EvoConfig,
    seed_individual: Option<&Partition>,
) -> Partition {
    let (rank, p) = (comm.rank(), comm.size());
    // SPMD: every PE allocates the block at the same point, so the tags
    // agree group-wide and no earlier run's message can match them.
    let ring_tag = comm.fresh_tag_block() + tags::RUMOR;
    // Seeded by the configuration alone: every PE draws the same shifts.
    let mut ring_rng = SmallRng::seed_from_u64(cfg.seed);
    let rec = comm.recorder();
    let (mut pop, mut rng) = {
        let _population = rec.span("population");
        initial_population(comm, graph, cfg, seed_individual)
    };

    // Evolutionary loop: this PE's share of the group's operations.
    let Budget::Operations(total) = cfg.budget;
    let exchange = cfg.rumor_fanout > 0 && p > 1;
    for op in 0..total.div_ceil(p) {
        let _operation = rec.span("operation");
        // Ring exchange before every `rumor_interval`-th operation but the
        // first (the PEs start from one population, so their bests agree),
        // so an operation can pick the received individual as a parent.
        // Every PE runs the same operation count, so every PE takes part in
        // the same rounds; per-(source, tag) FIFO pairs each receive with
        // its round's send.
        if exchange && op > 0 && op.is_multiple_of(cfg.rumor_interval.max(1)) {
            let s = ring_rng.gen_range(1..p);
            let best = pop.best().expect("the initial population is non-empty");
            comm.send(
                (rank + s) % p,
                ring_tag,
                (best.score, best.assignment.clone()),
            );
            let (score, assignment): (Weight, Vec<BlockId>) =
                comm.recv((rank + p - s) % p, ring_tag);
            assert_eq!(
                assignment.len(),
                graph.n(),
                "ring individual does not match the replicated graph"
            );
            pop.insert_raw(assignment, score);
        }

        let offspring = if rng.gen::<f64>() < cfg.mutation_rate || pop.len() < 2 {
            // Mutation: fresh diversified run.
            let f = rng.gen_range(10.0..25.0);
            let kc = base_kaffpa_config(cfg, rng.gen(), f);
            kaffpa(graph, &kc)
        } else {
            // Combine: two parents, offspring at least as good as the
            // better one.
            let (a, b) = pop.pick_parents(&mut rng).expect("len >= 2");
            let pa = Partition::from_assignment(graph, cfg.k, pop.members()[a].assignment.clone());
            let pb = Partition::from_assignment(graph, cfg.k, pop.members()[b].assignment.clone());
            let f = rng.gen_range(10.0..25.0);
            let kc = base_kaffpa_config(cfg, rng.gen(), f);
            kaffpa_with_inputs(graph, &kc, &[&pa, &pb])
        };
        insert_scored(&mut pop, graph, cfg, offspring);
    }

    // Global winner: (cut, rank) min-reduction, then broadcast the winning
    // assignment.
    let local_best_score = pop.best().map(|b| b.score).unwrap_or(u64::MAX);
    let (_, winner) = allreduce_min_with_rank(comm, local_best_score);
    let payload: Option<Vec<BlockId>> = if comm.rank() == winner {
        Some(pop.best().expect("winner has a best").assignment.clone())
    } else {
        None
    };
    let assignment = broadcast(comm, winner, payload);
    Partition::from_assignment(graph, cfg.k, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgp_dmp::{run, run_config, Obs, RunConfig};
    use std::sync::Arc;
    use std::time::Duration;

    /// `with_operations(k, 6, seed)` with an exchange before every
    /// operation, so the ring fires several times at p ∈ {2, 3}.
    fn ring_cfg(k: usize, seed: u64) -> EvoConfig {
        EvoConfig {
            rumor_interval: 1,
            ..EvoConfig::with_operations(k, 6, seed)
        }
    }

    /// Runs `kaffpae` on p PEs under a watchdog deadline, so a ring whose
    /// sends and receives do not pair fails the test instead of hanging it.
    fn ring_run(
        p: usize,
        g: &CsrGraph,
        cfg: &EvoConfig,
        obs: Option<Arc<Obs>>,
    ) -> Vec<Vec<BlockId>> {
        let rc = RunConfig {
            deadline: Some(Duration::from_secs(60)),
            obs,
            ..Default::default()
        };
        run_config(p, rc, |comm| kaffpae(comm, g, cfg, None).into_assignment())
            .into_iter()
            .map(|r| r.expect("no PE may fail"))
            .collect()
    }

    #[test]
    fn ring_exchange_is_reproducible() {
        let (g, _) = pgp_gen::sbm::sbm(400, pgp_gen::sbm::SbmParams::default(), 17);
        // The ring firing at every operation, and the partitioner's eco
        // (4 operations, interval 2: the ring never fires at p > 1).
        let eco = EvoConfig {
            rumor_interval: 2,
            ..EvoConfig::with_operations(4, 4, 5)
        };
        for cfg in [ring_cfg(4, 5), eco] {
            for p in [2, 3] {
                let first = ring_run(p, &g, &cfg, None);
                assert_eq!(
                    first,
                    ring_run(p, &g, &cfg, None),
                    "p = {p}, interval {}: two runs differ",
                    cfg.rumor_interval
                );
            }
        }
    }

    /// A population as comparable values, best first.
    fn members(pop: &Population) -> Vec<(Weight, Vec<BlockId>)> {
        pop.members()
            .iter()
            .map(|m| (m.score, m.assignment.clone()))
            .collect()
    }

    /// Every PE's population before its first operation, at p PEs.
    fn populations(
        p: usize,
        g: &CsrGraph,
        cfg: &EvoConfig,
        carried: Option<&Partition>,
    ) -> Vec<Vec<(Weight, Vec<BlockId>)>> {
        run(p, |comm| {
            members(&initial_population(comm, g, cfg, carried).0)
        })
    }

    #[test]
    fn an_evolving_group_starts_from_one_population() {
        let (g, _) = pgp_gen::sbm::sbm(300, pgp_gen::sbm::SbmParams::default(), 23);
        let cfg = EvoConfig::with_operations(4, 4, 9);
        let carried = pgp_seq::kaffpa(&g, &KaffpaConfig::new(4, 1));
        for seed_individual in [None, Some(&carried)] {
            let one = populations(1, &g, &cfg, seed_individual).remove(0);
            assert_eq!(one.len(), cfg.population_size);
            for p in [2, 3, 4] {
                for (rank, pop) in populations(p, &g, &cfg, seed_individual).iter().enumerate() {
                    assert_eq!(
                        pop,
                        &one,
                        "p = {p}, PE {rank}, carried {}",
                        seed_individual.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn each_pe_builds_at_most_its_share_of_the_initial_runs() {
        let g = pgp_gen::mesh::grid2d(8, 8);
        let cfg = EvoConfig::with_operations(2, 4, 13);
        let stream = || SmallRng::seed_from_u64(pgp_dmp::mix_seed(cfg.seed, 0));
        for runs in [1, 4, 5] {
            let whole = build_share(&g, &cfg, &mut stream(), runs, (0, 1));
            assert_eq!(whole.len(), runs);
            for p in [2, 3, 4] {
                let shares: Vec<_> = (0..p)
                    .map(|rank| build_share(&g, &cfg, &mut stream(), runs, (rank, p)))
                    .collect();
                for (rank, share) in shares.iter().enumerate() {
                    assert!(
                        share.len() <= runs.div_ceil(p),
                        "runs {runs}, p = {p}, PE {rank} built {}",
                        share.len()
                    );
                }
                // Run i is PE (i mod p)'s (i / p)-th, built as one PE builds it.
                for (i, assignment) in whole.iter().enumerate() {
                    assert_eq!(
                        &shares[i % p][i / p],
                        assignment,
                        "runs {runs}, p = {p}, run {i}"
                    );
                }
            }
        }
    }

    /// What every PE built before the group shared its population: runs
    /// drawn from its own stream, `mix_seed(seed, rank)`, inserted in order.
    fn per_pe_build(g: &CsrGraph, cfg: &EvoConfig, rank: usize) -> (Population, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(pgp_dmp::mix_seed(cfg.seed, rank as u64));
        let mut pop = Population::new(cfg.population_size);
        for i in 0..cfg.population_size {
            let part = kaffpa(g, &initial_config(cfg, &mut rng, i));
            insert_scored(&mut pop, g, cfg, part);
        }
        (pop, rng)
    }

    #[test]
    fn one_pe_and_fast_runs_build_as_every_pe_did() {
        let (g, _) = pgp_gen::sbm::sbm(300, pgp_gen::sbm::SbmParams::default(), 29);
        // Eco at p = 1, and the fast preset's initial-only run at p ∈ {1, 2}.
        let eco = EvoConfig::with_operations(4, 4, 31);
        let fast = EvoConfig::initial_only(4, 31);
        for (cfg, p) in [(&eco, 1), (&fast, 1), (&fast, 2)] {
            let built = run(p, |comm| {
                let (pop, mut rng) = initial_population(comm, &g, cfg, None);
                (members(&pop), rng.gen::<u64>())
            });
            for (rank, (pop, next)) in built.into_iter().enumerate() {
                let (old, mut old_rng) = per_pe_build(&g, cfg, rank);
                assert_eq!(pop, members(&old), "p = {p}, PE {rank}");
                assert_eq!(
                    next,
                    old_rng.gen::<u64>(),
                    "p = {p}, PE {rank}: the operations draw from the build's stream"
                );
            }
        }
    }

    #[test]
    fn each_pe_sends_one_ring_message_per_interval_of_its_share() {
        let (g, _) = pgp_gen::sbm::sbm(300, pgp_gen::sbm::SbmParams::default(), 19);
        let is_ring = |tag: u64| {
            tag >= tags::COLLECTIVE_TAG_BASE
                && (tag - tags::COLLECTIVE_TAG_BASE) % tags::BLOCK_SPAN == tags::RUMOR
        };
        // No exchange before operation 0. Interval 2 is the partitioner's:
        // at p = 2 the share of 3 operations gets one exchange, before its
        // last; at p ∈ {3, 4} a share of 2 gets none.
        for (p, rumor_interval) in [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2)] {
            let cfg = EvoConfig {
                rumor_interval,
                ..ring_cfg(4, 7)
            };
            let Budget::Operations(ops) = cfg.budget;
            let obs = Obs::new(p);
            ring_run(p, &g, &cfg, Some(Arc::clone(&obs)));
            let expected = ((ops.div_ceil(p) - 1) / rumor_interval) as u64;
            for pe in &obs.report().per_pe {
                let sent: u64 = pe
                    .comm
                    .sent
                    .iter()
                    .filter(|e| is_ring(e.tag))
                    .map(|e| e.msgs)
                    .sum();
                let recvd: u64 = pe
                    .comm
                    .recvd
                    .iter()
                    .filter(|e| is_ring(e.tag))
                    .map(|e| e.msgs)
                    .sum();
                assert_eq!(sent, expected, "p = {p}, PE {} sent", pe.rank);
                assert_eq!(recvd, expected, "p = {p}, PE {} received", pe.rank);
            }
        }
    }

    /// A recorded run splits into one `population` span and one
    /// `operation` span per operation of the PE's share, nested under the
    /// caller's open span.
    #[test]
    fn population_and_operations_are_spans_under_the_caller() {
        let (g, _) = pgp_gen::sbm::sbm(300, pgp_gen::sbm::SbmParams::default(), 37);
        let cfg = EvoConfig::with_operations(4, 5, 41);
        for p in [1, 2, 3] {
            let obs = Obs::new(p);
            let rc = RunConfig {
                obs: Some(Arc::clone(&obs)),
                ..Default::default()
            };
            run_config(p, rc, |comm| {
                let _outer = comm.recorder().span("initial_partition");
                kaffpae(comm, &g, &cfg, None)
            })
            .into_iter()
            .for_each(|r| drop(r.expect("no PE may fail")));
            for pe in &obs.report().per_pe {
                let count = |path: &str| {
                    pe.phases
                        .iter()
                        .find(|e| e.path == path)
                        .map_or(0, |e| e.count)
                };
                assert_eq!(count("initial_partition/population"), 1, "p = {p}");
                assert_eq!(
                    count("initial_partition/operation"),
                    5usize.div_ceil(p) as u64,
                    "p = {p}"
                );
                assert_eq!(pe.orphan_exits, 0);
            }
        }
    }

    #[test]
    fn all_pes_agree_on_the_result() {
        let (g, _) = pgp_gen::sbm::sbm(300, pgp_gen::sbm::SbmParams::default(), 3);
        let cfg = EvoConfig::with_operations(4, 2, 7);
        let results = run(3, |comm| kaffpae(comm, &g, &cfg, None).into_assignment());
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn result_is_valid_and_balanced() {
        let (g, _) = pgp_gen::sbm::sbm(400, pgp_gen::sbm::SbmParams::default(), 5);
        let cfg = EvoConfig::with_operations(4, 3, 11);
        let results = run(2, |comm| kaffpae(comm, &g, &cfg, None));
        for p in &results {
            p.validate(&g, 0.03).unwrap();
        }
    }

    #[test]
    fn seed_individual_bounds_the_result() {
        let g = pgp_gen::mesh::grid2d(14, 14);
        let seed_p = pgp_seq::kaffpa(&g, &KaffpaConfig::new(2, 9));
        let seed_cut = seed_p.edge_cut(&g);
        let cfg = EvoConfig::with_operations(2, 2, 3);
        let results = run(2, |comm| {
            kaffpae(comm, &g, &cfg, Some(&seed_p)).edge_cut(&g)
        });
        for &cut in &results {
            assert!(
                cut <= seed_cut,
                "evo result {cut} worse than seed {seed_cut}"
            );
        }
    }

    #[test]
    fn evolution_improves_over_initial_only() {
        let (g, _) = pgp_gen::sbm::sbm(500, pgp_gen::sbm::SbmParams::default(), 13);
        let initial = EvoConfig {
            rumor_fanout: 0,
            ..EvoConfig::initial_only(8, 21)
        };
        let evolved = EvoConfig {
            rumor_fanout: 0,
            ..EvoConfig::with_operations(8, 6, 21)
        };
        let a = run(2, |comm| kaffpae(comm, &g, &initial, None).edge_cut(&g))[0];
        let b = run(2, |comm| kaffpae(comm, &g, &evolved, None).edge_cut(&g))[0];
        assert!(
            b <= a,
            "evolved {b} should not be worse than initial-only {a}"
        );
    }

    #[test]
    fn single_pe_works() {
        let g = pgp_gen::mesh::grid2d(10, 10);
        let cfg = EvoConfig::with_operations(2, 2, 5);
        let results = run(1, |comm| kaffpae(comm, &g, &cfg, None));
        results[0].validate(&g, 0.03).unwrap();
    }
}
