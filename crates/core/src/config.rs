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

/// What to compute: the algorithmic configuration a [`crate::Partitioner`]
/// borrows. How the run is carried — watchdog, fault hook, recorder — is
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
    /// Evolutionary operations after the initial population, for the
    /// whole PE group: each of p PEs runs `⌈evo_operations / p⌉` of them
    /// (0 = fast behaviour: initial population only).
    pub evo_operations: usize,
    /// KaFFPaE's population size, per PE. With `evo_operations > 0` the
    /// group builds the initial population once, split over its PEs, and
    /// every PE starts from it; with 0 each PE builds its own.
    pub population_size: usize,
    /// RNG seed; fixed seed + fixed `p` ⇒ deterministic result, KaFFPaE's
    /// ring exchange included.
    pub seed: u64,
    /// Turns KaFFPaE's ring exchange of best individuals off. Not needed
    /// for reproducibility: runs with the exchange on are deterministic
    /// too.
    pub deterministic: bool,
    /// First-cycle size-constraint factor on social/web inputs (paper: 14).
    pub social_first_factor: f64,
    /// First-cycle cluster bound on mesh inputs, as an absolute weight.
    /// The paper's `f = 20 000` on inputs with up to 2^31 nodes yields
    /// clusters of a few hundred nodes; at laptop scale the same `Lmax/f`
    /// falls below one node and freezes coarsening, so we keep the paper's
    /// *cluster size* rather than its constant (see DESIGN.md §2).
    pub mesh_first_cluster_weight: Weight,
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
