//! Per-PE population management for the coarse-grained evolutionary
//! algorithm: a bounded set of partitions ("individuals") ordered by their
//! objective score (edge cut by default), with replace-the-worst insertion.

use pgp_graph::{BlockId, CsrGraph, Partition, Weight};

/// One individual: a partition and its cached objective score (the edge
/// cut under the default objective).
#[derive(Clone, Debug)]
pub struct Individual {
    /// The partition's assignment vector.
    pub assignment: Vec<BlockId>,
    /// Cached objective score (lower is better).
    pub score: Weight,
}

/// A bounded population, best (smallest score) first.
#[derive(Clone, Debug)]
pub struct Population {
    capacity: usize,
    members: Vec<Individual>,
}

impl Population {
    /// An empty population with room for `capacity` individuals.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        Self {
            capacity,
            members: Vec::with_capacity(capacity),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True iff no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The best individual, if any.
    pub fn best(&self) -> Option<&Individual> {
        self.members.first()
    }

    /// All members, best first.
    pub fn members(&self) -> &[Individual] {
        &self.members
    }

    /// Inserts a partition scored by its edge cut: accepted when the
    /// population has room or the score beats the current worst (which is
    /// evicted). Exact duplicates of an existing assignment are rejected.
    /// Returns true when inserted.
    pub fn insert(&mut self, graph: &CsrGraph, partition: &Partition) -> bool {
        let score = partition.edge_cut(graph);
        self.insert_raw(partition.assignment().to_vec(), score)
    }

    /// Inserts a raw assignment with a precomputed objective score.
    pub fn insert_raw(&mut self, assignment: Vec<BlockId>, score: Weight) -> bool {
        if self
            .members
            .iter()
            .any(|m| m.score == score && m.assignment == assignment)
        {
            return false;
        }
        if self.members.len() == self.capacity {
            if score >= self.members.last().expect("non-empty").score {
                return false;
            }
            self.members.pop();
        }
        let pos = self.members.partition_point(|m| m.score <= score);
        self.members.insert(pos, Individual { assignment, score });
        true
    }

    /// Picks two distinct member indices (best-biased: uniformly random,
    /// but index 0 — the best — is always a candidate).
    pub fn pick_parents(&self, rng: &mut impl rand::Rng) -> Option<(usize, usize)> {
        if self.members.len() < 2 {
            return None;
        }
        let a = rng.gen_range(0..self.members.len());
        let mut b = rng.gen_range(0..self.members.len() - 1);
        if b >= a {
            b += 1;
        }
        Some((a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgp_graph::builder::from_edges;

    fn path() -> CsrGraph {
        from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn keeps_best_first_and_evicts_worst() {
        let g = path();
        let mut pop = Population::new(2);
        let p_bad = Partition::from_assignment(&g, 2, vec![0, 1, 0, 1]); // cut 3
        let p_mid = Partition::from_assignment(&g, 2, vec![0, 0, 1, 0]); // cut 2
        let p_good = Partition::from_assignment(&g, 2, vec![0, 0, 1, 1]); // cut 1
        assert!(pop.insert(&g, &p_bad));
        assert!(pop.insert(&g, &p_mid));
        assert_eq!(pop.members().last().map(|m| m.score), Some(3));
        assert!(pop.insert(&g, &p_good)); // evicts cut-3
        assert_eq!(pop.len(), 2);
        assert_eq!(pop.best().unwrap().score, 1);
        assert_eq!(pop.members().last().map(|m| m.score), Some(2));
        // Worse than current worst: rejected.
        assert!(!pop.insert(&g, &p_bad));
    }

    #[test]
    fn duplicates_rejected() {
        let g = path();
        let mut pop = Population::new(3);
        let p = Partition::from_assignment(&g, 2, vec![0, 0, 1, 1]);
        assert!(pop.insert(&g, &p));
        assert!(!pop.insert(&g, &p));
        assert_eq!(pop.len(), 1);
    }

    #[test]
    fn pick_parents_distinct() {
        use rand::SeedableRng;
        let g = path();
        let mut pop = Population::new(4);
        for (i, assign) in [vec![0, 0, 1, 1], vec![0, 1, 0, 1], vec![0, 1, 1, 0]]
            .into_iter()
            .enumerate()
        {
            let p = Partition::from_assignment(&g, 2, assign);
            pop.insert(&g, &p);
            let _ = i;
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            let (a, b) = pop.pick_parents(&mut rng).unwrap();
            assert_ne!(a, b);
            assert!(a < 3 && b < 3);
        }
    }

    #[test]
    fn pick_parents_needs_two() {
        use rand::SeedableRng;
        let pop = Population::new(4);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        assert!(pop.pick_parents(&mut rng).is_none());
    }
}
