//! The workloads: which instance, which run, and why each is here.

/// Which generator call makes the instance, at `2^log_n` nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Generator {
    /// `webgraph::web_graph` with the `uk-2007` recipe of the repository's
    /// `benchmark_set` (intra degree 27.2, inter degree 4.8).
    Web { log_n: u32 },
    /// `delaunay::delaunay_x`.
    Delaunay { log_n: u32 },
    /// `sbm::sbm` with the `amazon` recipe (intra degree 8, inter degree 3).
    Sbm { log_n: u32 },
}

impl Generator {
    pub fn describe(&self) -> String {
        match *self {
            Generator::Web { log_n } => {
                format!("webgraph::web_graph(1<<{log_n}, intra 27.2, inter 4.8)")
            }
            Generator::Delaunay { log_n } => format!("delaunay::delaunay_x({log_n})"),
            Generator::Sbm { log_n } => format!("sbm::sbm(1<<{log_n}, intra 8, inter 3)"),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Preset {
    Fast,
    Eco,
}

impl Preset {
    pub fn as_str(&self) -> &'static str {
        match self {
            Preset::Fast => "fast",
            Preset::Eco => "eco",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Class {
    Social,
    Mesh,
}

impl Class {
    pub fn as_str(&self) -> &'static str {
        match self {
            Class::Social => "social",
            Class::Mesh => "mesh",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the long form.
    pub why: &'static str,
    pub generator: Generator,
    /// The same shape at n = 2^11–2^12 for `--smoke`.
    pub smoke_generator: Generator,
    pub k: usize,
    pub p: usize,
    pub preset: Preset,
    pub class: Class,
    /// Measured reps after the warm-up, if the run's seconds allow as many.
    pub max_reps: usize,
    /// One rep on the reference container; a rep is killed at 20× this.
    pub expected_rep_s: f64,
}

impl Workload {
    /// `true` when a fixed `(seed, p)` gives the same partition every time:
    /// the fast preset runs no evolutionary operations, so no rumor can
    /// arrive early or late.
    pub fn cut_is_exact(&self) -> bool {
        self.preset == Preset::Fast
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "web_p2",
        why: "The paper's headline case, a uk-2007 stand-in on 2 PEs: SCLP cluster and refine rounds dominate, contraction next, ghost exchange is live.",
        generator: Generator::Web { log_n: 18 },
        smoke_generator: Generator::Web { log_n: 12 },
        k: 8,
        p: 2,
        preset: Preset::Fast,
        class: Class::Social,
        max_reps: 14,
        expected_rep_s: 1.85,
    },
    Workload {
        name: "web_p1",
        why: "The same file on one PE, the plain baseline: no messages, no ghosts, so a comm change predicts no change here and an SCLP kernel change moves both.",
        generator: Generator::Web { log_n: 18 },
        smoke_generator: Generator::Web { log_n: 12 },
        k: 8,
        p: 1,
        preset: Preset::Fast,
        class: Class::Social,
        max_reps: 9,
        expected_rep_s: 3.05,
    },
    Workload {
        name: "mesh_p2",
        why: "A Delaunay mesh: three times the levels, degree 6, absolute cluster bound, ghosts as many as owned nodes on coarse levels; per-level costs, contraction and projection dominate.",
        generator: Generator::Delaunay { log_n: 19 },
        smoke_generator: Generator::Delaunay { log_n: 12 },
        k: 8,
        p: 2,
        preset: Preset::Fast,
        class: Class::Mesh,
        max_reps: 10,
        expected_rep_s: 2.7,
    },
    Workload {
        name: "evo_k32",
        why: "A small SBM graph, k=32, eco preset: coarsest-graph KaFFPaE is nearly all of the time, SCLP and I/O nearly none, both cores busy without memory pressure.",
        generator: Generator::Sbm { log_n: 14 },
        smoke_generator: Generator::Sbm { log_n: 11 },
        k: 32,
        p: 2,
        preset: Preset::Eco,
        class: Class::Social,
        max_reps: 9,
        expected_rep_s: 3.1,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_whys_fit_one_line() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(find(w.name).is_some());
        }
        assert!(find("absent").is_none());
    }
}
