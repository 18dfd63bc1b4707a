//! Configuration of the overall parallel system, with the paper's
//! *fast* / *eco* / *minimal* presets (Section V-A).

use pgp_graph::Weight;

/// Instance class — decides the first V-cycle's size-constraint factor
/// `f` (14 on social networks and web graphs, 20000 on meshes; §V-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphClass {
    /// Social networks / web graphs.
    Social,
    /// Mesh-type networks.
    Mesh,
}

/// Named configuration presets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// 3 LP iterations coarsening, 6 refinement; EA builds only the initial
    /// population; 2 V-cycles.
    Fast,
    /// Same iterations; EA gets an explicit budget (`t_p = t_1/p` in the
    /// paper, an operation budget here); 5 V-cycles.
    Eco,
    /// Fast with a single V-cycle — the variant used for the 16-second
    /// uk-2007 run.
    Minimal,
}

/// When the partitioner snapshots a [`crate::VCycleCheckpoint`]
/// (DESIGN.md §14). The default takes one at every V-cycle boundary —
/// the PR 3 behaviour; larger cadences trade checkpoint cost against
/// the work a recovery loses. Cadence affects *only* when snapshots are
/// taken, never the partition, so it is deliberately excluded from
/// [`ParhipConfig::fingerprint`]: a checkpoint written under one policy
/// may resume under another.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Snapshot after every `every_cycles`-th V-cycle (1 = every cycle).
    /// The final cycle is always snapshotted regardless, so a finished
    /// store holds the complete result. `0` is normalized to 1.
    pub every_cycles: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        Self { every_cycles: 1 }
    }
}

impl CheckpointPolicy {
    /// A policy snapshotting every `every_cycles`-th cycle boundary.
    pub fn every(every_cycles: usize) -> Self {
        Self { every_cycles }
    }

    /// Whether the boundary after 0-based `cycle` (of a run whose last
    /// cycle is `last_cycle`) takes a snapshot.
    pub fn take_at(&self, cycle: usize, last_cycle: usize) -> bool {
        cycle == last_cycle || (cycle + 1).is_multiple_of(self.every_cycles.max(1))
    }
}

/// What to compute: the algorithmic configuration a [`crate::Partitioner`]
/// borrows. How the run is carried — comm backend, watchdog, recorder — is
/// `pgp_dmp::RunConfig`'s business, not this struct's.
#[derive(Clone, Debug)]
pub struct ParhipConfig {
    /// Number of blocks `k`.
    pub k: usize,
    /// Imbalance `ε` (paper default 3 %).
    pub eps: f64,
    /// Instance class (sets the first-cycle `f`).
    pub class: GraphClass,
    /// LP iterations per coarsening level (`ℓ`, paper: 3).
    pub coarsen_iterations: usize,
    /// LP iterations per refinement level (`r`, paper: 6).
    pub refine_iterations: usize,
    /// Number of V-cycles (fast 2, eco 5, minimal 1).
    pub vcycles: usize,
    /// Coarsening stops at `coarsest_nodes_per_block · k` global nodes.
    /// The paper uses 10 000; the laptop-scale default is 100 (same role,
    /// scaled with the inputs — see DESIGN.md).
    pub coarsest_nodes_per_block: usize,
    /// Evolutionary operations per PE after the initial population
    /// (0 = fast behaviour: initial population only).
    pub evo_operations: usize,
    /// Per-PE population size for KaFFPaE.
    pub population_size: usize,
    /// RNG seed; fixed seed + fixed `p` ⇒ deterministic result (rumor
    /// spreading is disabled when determinism matters — see
    /// `deterministic`).
    pub seed: u64,
    /// Disables wall-clock/rumor nondeterminism (rumor fanout 0).
    pub deterministic: bool,
    /// First-cycle size-constraint factor on social/web inputs (paper: 14).
    pub social_first_factor: f64,
    /// First-cycle cluster bound on mesh inputs, as an absolute weight.
    /// The paper's `f = 20 000` on inputs with up to 2^31 nodes yields
    /// clusters of a few hundred nodes; at laptop scale the same `Lmax/f`
    /// falls below one node and freezes coarsening, so we keep the paper's
    /// *cluster size* rather than its constant (see DESIGN.md §2).
    pub mesh_first_cluster_weight: Weight,
    /// Checkpoint cadence for runs with a [`crate::CheckpointStore`]
    /// (DESIGN.md §14). Not part of the fingerprint: it never affects
    /// the partition.
    pub checkpoint: CheckpointPolicy,
}

impl ParhipConfig {
    /// Builds a preset configuration.
    pub fn preset(preset: Preset, k: usize, class: GraphClass, seed: u64) -> Self {
        let base = Self {
            k,
            eps: 0.03,
            class,
            coarsen_iterations: 3,
            refine_iterations: 6,
            vcycles: 2,
            coarsest_nodes_per_block: 100,
            evo_operations: 0,
            population_size: 3,
            seed,
            deterministic: false,
            social_first_factor: 14.0,
            mesh_first_cluster_weight: 32,
            checkpoint: CheckpointPolicy::default(),
        };
        match preset {
            Preset::Fast => base,
            Preset::Eco => Self {
                vcycles: 5,
                evo_operations: 4,
                population_size: 5,
                ..base
            },
            Preset::Minimal => Self { vcycles: 1, ..base },
        }
    }

    /// The paper's fast preset.
    pub fn fast(k: usize, class: GraphClass, seed: u64) -> Self {
        Self::preset(Preset::Fast, k, class, seed)
    }

    /// The paper's eco preset.
    pub fn eco(k: usize, class: GraphClass, seed: u64) -> Self {
        Self::preset(Preset::Eco, k, class, seed)
    }

    /// The paper's minimal preset.
    pub fn minimal(k: usize, class: GraphClass, seed: u64) -> Self {
        Self::preset(Preset::Minimal, k, class, seed)
    }

    /// The size-constraint factor `f` for V-cycle `cycle` (0-based): the
    /// class constant in the first cycle, `rnd ∈ [10, 25]` afterwards —
    /// derived from the seed + cycle so all PEs agree without
    /// communication.
    pub fn cluster_factor(&self, cycle: usize) -> f64 {
        if cycle == 0 {
            self.social_first_factor
        } else {
            let h = pgp_dmp::mix_seed(self.seed, 0xC0FFEE ^ cycle as u64);
            10.0 + (h % 1_000_000) as f64 / 1_000_000.0 * 15.0
        }
    }

    /// The soft cluster bound `U = max(max node weight, W)` for a given
    /// cycle, where `W = Lmax/f` — except in the first cycle on mesh
    /// inputs, where `W` is the absolute `mesh_first_cluster_weight` (the
    /// scaled stand-in for the paper's `f = 20 000`; see the field docs).
    pub fn u_bound(&self, total_weight: Weight, max_node_weight: Weight, cycle: usize) -> Weight {
        let w = if cycle == 0 && self.class == GraphClass::Mesh {
            self.mesh_first_cluster_weight
        } else {
            let l = pgp_graph::lmax(total_weight, self.k, self.eps);
            (l as f64 / self.cluster_factor(cycle)) as Weight
        };
        w.max(max_node_weight).max(1)
    }

    /// Global node count at which coarsening stops.
    pub fn stop_size(&self) -> u64 {
        (self.coarsest_nodes_per_block * self.k) as u64
    }

    /// 64-bit fingerprint of every result-affecting value: all fields but
    /// `checkpoint`. Checkpoint/restart refuses to resume a snapshot under
    /// a different fingerprint (a changed seed or iteration count would
    /// silently break the bit-identical replay guarantee — see DESIGN.md
    /// §9).
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut mix = |x: u64| h = pgp_dmp::mix_seed(h, x);
        mix(self.k as u64);
        mix(self.eps.to_bits());
        mix(match self.class {
            GraphClass::Social => 1,
            GraphClass::Mesh => 2,
        });
        mix(self.coarsen_iterations as u64);
        mix(self.refine_iterations as u64);
        mix(self.vcycles as u64);
        mix(self.coarsest_nodes_per_block as u64);
        mix(self.evo_operations as u64);
        mix(self.population_size as u64);
        mix(self.seed);
        mix(u64::from(self.deterministic));
        mix(self.social_first_factor.to_bits());
        mix(self.mesh_first_cluster_weight);
        // `checkpoint` is deliberately NOT mixed: cadence decides when
        // snapshots happen, never what the partition is, and recovery
        // must be free to resume a checkpoint under a different cadence.
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_parameters() {
        let f = ParhipConfig::fast(2, GraphClass::Social, 1);
        assert_eq!(f.coarsen_iterations, 3);
        assert_eq!(f.refine_iterations, 6);
        assert_eq!(f.vcycles, 2);
        assert_eq!(f.evo_operations, 0);
        let e = ParhipConfig::eco(2, GraphClass::Social, 1);
        assert_eq!(e.vcycles, 5);
        assert!(e.evo_operations > 0);
        let m = ParhipConfig::minimal(2, GraphClass::Social, 1);
        assert_eq!(m.vcycles, 1);
    }

    #[test]
    fn first_cycle_bound_depends_on_class() {
        let s = ParhipConfig::fast(2, GraphClass::Social, 1);
        let m = ParhipConfig::fast(2, GraphClass::Mesh, 1);
        assert_eq!(s.cluster_factor(0), 14.0);
        // On a 100k-node unit-weight input: social clusters are large
        // (Lmax/14), mesh clusters are the small fixed size.
        assert!(s.u_bound(100_000, 1, 0) > 20 * m.u_bound(100_000, 1, 0));
        assert_eq!(m.u_bound(100_000, 1, 0), 32);
    }

    #[test]
    fn later_cycles_randomize_f_in_range() {
        let c = ParhipConfig::fast(2, GraphClass::Social, 77);
        for cycle in 1..6 {
            let f = c.cluster_factor(cycle);
            assert!((10.0..25.0).contains(&f), "f = {f}");
        }
        // Deterministic per (seed, cycle).
        assert_eq!(c.cluster_factor(3), c.cluster_factor(3));
    }

    #[test]
    fn checkpoint_cadence_is_excluded_from_fingerprint() {
        let base = ParhipConfig::fast(4, GraphClass::Social, 9);
        let every3 = ParhipConfig {
            checkpoint: CheckpointPolicy::every(3),
            ..base.clone()
        };
        // A snapshot written at cadence 1 must resume at cadence 3.
        assert_eq!(base.fingerprint(), every3.fingerprint());
    }

    #[test]
    fn checkpoint_policy_takes_cadence_and_last_cycle() {
        let every2 = CheckpointPolicy::every(2);
        // 5 cycles (last = 4): boundaries after cycles 1, 3, and — always
        // — the final cycle.
        let taken: Vec<usize> = (0..5).filter(|&c| every2.take_at(c, 4)).collect();
        assert_eq!(taken, vec![1, 3, 4]);
        // Default = every cycle (the PR 3 behaviour), 0 normalizes to 1.
        assert!((0..5).all(|c| CheckpointPolicy::default().take_at(c, 4)));
        assert!((0..5).all(|c| CheckpointPolicy::every(0).take_at(c, 4)));
    }

    #[test]
    fn u_bound_respects_max_node_weight() {
        let mut c = ParhipConfig::fast(4, GraphClass::Mesh, 1);
        c.mesh_first_cluster_weight = 1; // emulate the paper's literal
                                         // f = 20000 at tiny scale
                                         // The max node weight dominates a collapsed W.
        assert_eq!(c.u_bound(10_000, 17, 0), 17);
        // Social f = 14 with big total: the ratio dominates.
        let s = ParhipConfig::fast(4, GraphClass::Social, 1);
        assert!(s.u_bound(1_000_000, 1, 0) > 17_000);
    }
}
