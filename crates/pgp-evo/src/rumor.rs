//! Randomized rumor spreading: the scalable exchange protocol of KaFFPaE.
//!
//! "From time to time, the best local partition is sent to a random
//! selection of other processors." Sends are fire-and-forget; receivers
//! drain their mailbox opportunistically between operations.

use crate::population::{Individual, Population};
use pgp_dmp::tags;
use pgp_dmp::{Comm, Tag};
use pgp_graph::{BlockId, CsrGraph, Weight};
use rand::Rng;

/// Rumor-spreading endpoint. Each instance allocates its own tag block, so
/// stragglers from a previous evolutionary run (e.g. an earlier V-cycle,
/// whose coarsest graph differs) can never be drained into this one.
pub struct Rumor {
    tag: Tag,
}

impl Rumor {
    /// Creates the endpoint (SPMD: all PEs construct it at the same point,
    /// so the tag blocks agree group-wide).
    pub fn new(comm: &Comm) -> Self {
        Self {
            tag: comm.fresh_tag_block() + tags::RUMOR,
        }
    }

    /// Sends `best` to `fanout` distinct random other PEs.
    pub fn spread(&self, comm: &Comm, rng: &mut impl Rng, fanout: usize, best: &Individual) {
        let p = comm.size();
        if p <= 1 {
            return;
        }
        let fanout = fanout.min(p - 1);
        let mut chosen: Vec<usize> = Vec::with_capacity(fanout);
        while chosen.len() < fanout {
            let dst = rng.gen_range(0..p);
            if dst != comm.rank() && !chosen.contains(&dst) {
                chosen.push(dst);
            }
        }
        for dst in chosen {
            let payload: (Weight, Vec<BlockId>) = (best.score, best.assignment.clone());
            comm.send(dst, self.tag, payload);
        }
    }

    /// Drains all pending rumor messages into the population.
    /// Returns how many were accepted.
    pub fn drain_into(&self, comm: &Comm, graph: &CsrGraph, pop: &mut Population) -> usize {
        let mut accepted = 0;
        for (_src, (score, assignment)) in comm.drain::<(Weight, Vec<BlockId>)>(self.tag) {
            assert_eq!(
                assignment.len(),
                graph.n(),
                "rumor individual does not match the replicated graph"
            );
            if pop.insert_raw(assignment, score) {
                accepted += 1;
            }
        }
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgp_dmp::collectives::barrier;
    use pgp_dmp::run;
    use pgp_graph::builder::from_edges;
    use rand::SeedableRng;

    #[test]
    fn rumors_reach_other_populations() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let accepted = run(3, |comm| {
            let rumor = Rumor::new(comm);
            let mut pop = Population::new(4);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(comm.rank() as u64);
            if comm.rank() == 0 {
                // PE 0 spreads a good individual to both others.
                let ind = Individual {
                    assignment: vec![0, 0, 1, 1],
                    score: 1,
                };
                rumor.spread(comm, &mut rng, 2, &ind);
            }
            barrier(comm);
            let got = rumor.drain_into(comm, &g, &mut pop);
            barrier(comm);
            got
        });
        assert_eq!(accepted[0], 0);
        assert_eq!(accepted[1], 1);
        assert_eq!(accepted[2], 1);
    }

    #[test]
    fn single_pe_spread_is_noop() {
        let g = from_edges(2, &[(0, 1)]);
        run(1, |comm| {
            let rumor = Rumor::new(comm);
            let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
            rumor.spread(
                comm,
                &mut rng,
                3,
                &Individual {
                    assignment: vec![0, 1],
                    score: 1,
                },
            );
            let mut pop = Population::new(2);
            assert_eq!(rumor.drain_into(comm, &g, &mut pop), 0);
        });
    }
}
