//! Scaled stand-ins for the paper's benchmark set (Table I).
//!
//! The original instances are real web crawls, social networks and FEM
//! meshes up to 3.3 G edges. We reproduce the *class* of every instance
//! with a synthetic generator of matching character (degree distribution,
//! community structure, locality) at laptop scale — see DESIGN.md §2 for
//! the substitution argument. Relative sizes between instances are kept.

use crate::{delaunay, ensure_connected, mesh, rgg, sbm};
use pgp_graph::CsrGraph;

/// Rough instance classification from Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphClass {
    /// Social networks and web graphs ("S").
    Social,
    /// Mesh-type networks ("M").
    Mesh,
}

/// A named benchmark instance.
pub struct Instance {
    /// The paper's instance name this stands in for.
    pub name: &'static str,
    /// S or M (drives the size-constraint factor `f`).
    pub class: GraphClass,
    /// The graph.
    pub graph: CsrGraph,
}

/// Size tier: shifts every instance's log₂ size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// ~0.5–2 K nodes per instance: integration tests.
    Tiny,
    /// ~4–16 K nodes: default benchmark harness tier.
    Small,
    /// ~16–64 K nodes: slower, closer shapes.
    Medium,
}

impl Tier {
    fn shift(self) -> i32 {
        match self {
            Tier::Tiny => -3,
            Tier::Small => 0,
            Tier::Medium => 2,
        }
    }
}

fn sc(base: u32, tier: Tier) -> u32 {
    (base as i32 + tier.shift()).max(6) as u32
}

/// Builds one named stand-in instance. Panics on unknown names; see
/// [`MAIN_SET`] and [`LARGE_WEB_SET`] for the available names.
pub fn instance(name: &str, tier: Tier, seed: u64) -> Instance {
    use GraphClass::*;
    let (class, graph) = match name {
        // ---- Large Graphs (Table I, upper block) -----------------------
        // amazon: co-purchase network, mild communities, low degree.
        "amazon" => (Social, {
            let (g, _) = sbm::sbm(
                1usize << sc(12, tier),
                sbm::SbmParams {
                    intra_degree: 8.0,
                    inter_degree: 3.0,
                    ..Default::default()
                },
                seed,
            );
            g
        }),
        // eu-2005: web crawl, dense, very skewed.
        "eu-2005" => (Social, web(sc(13, tier), 24, seed)),
        // youtube: social network, low average degree, giant hubs, but
        // still community-structured (user groups/channels).
        "youtube" => (Social, {
            let (g, _) = crate::webgraph::web_graph(
                1usize << sc(13, tier),
                crate::webgraph::WebGraphParams {
                    intra_degree: 4.0,
                    inter_degree: 1.6,
                    min_community: 24,
                    ..Default::default()
                },
                seed,
            );
            g
        }),
        // in-2004: web crawl, moderately dense.
        "in-2004" => (Social, web(sc(13, tier), 16, seed)),
        // packing: 3D mesh.
        "packing" => (Mesh, mesh3d(sc(13, tier))),
        // enwiki: dense link graph.
        "enwiki" => (Social, web(sc(13, tier), 32, seed)),
        // channel: 3D mesh, denser.
        "channel" => (Mesh, mesh3d(sc(13, tier) + 1)),
        // hugebubble-10: 2D mesh, very sparse (avg degree 3).
        "hugebubbles" => (Mesh, mesh2d(sc(14, tier))),
        // nlpkkt240: 3D-structured optimization matrix, dense mesh.
        "nlpkkt240" => (Mesh, mesh3d(sc(14, tier))),
        // uk-2002: large web crawl.
        "uk-2002" => (Social, web(sc(14, tier), 24, seed)),
        // del26 / rgg26: the synthetic families, directly reproduced.
        "del26" => (Mesh, delaunay::delaunay_x(sc(14, tier), seed)),
        "rgg26" => (Mesh, ensure_connected(rgg::rgg_x(sc(14, tier), seed))),
        // ---- Larger Web Graphs (Table I, lower block) -------------------
        "arabic-2005" => (Social, web(sc(15, tier), 32, seed)),
        "sk-2005" => (Social, web(sc(16, tier), 40, seed)),
        "uk-2007" => (Social, web(sc(17, tier), 32, seed)),
        other => panic!("unknown benchmark instance '{other}'"),
    };
    Instance {
        name: match name {
            "amazon" => "amazon",
            "eu-2005" => "eu-2005",
            "youtube" => "youtube",
            "in-2004" => "in-2004",
            "packing" => "packing",
            "enwiki" => "enwiki",
            "channel" => "channel",
            "hugebubbles" => "hugebubbles",
            "nlpkkt240" => "nlpkkt240",
            "uk-2002" => "uk-2002",
            "del26" => "del26",
            "rgg26" => "rgg26",
            "arabic-2005" => "arabic-2005",
            "sk-2005" => "sk-2005",
            _ => "uk-2007",
        },
        class,
        graph,
    }
}

fn web(scale: u32, avg_deg: usize, seed: u64) -> CsrGraph {
    // Web crawls combine hub pages with very strong site-level community
    // structure; see `crate::webgraph` for why pure R-MAT is not a
    // faithful stand-in here.
    let (g, _) = crate::webgraph::web_graph(
        1usize << scale,
        crate::webgraph::WebGraphParams {
            intra_degree: avg_deg as f64 * 0.85,
            inter_degree: avg_deg as f64 * 0.15,
            ..Default::default()
        },
        seed,
    );
    g
}

fn mesh3d(log_n: u32) -> CsrGraph {
    // Factor 2^log_n into three near-equal dimensions.
    let nx = 1usize << (log_n / 3 + (log_n % 3).min(1));
    let ny = 1usize << (log_n / 3 + if log_n % 3 == 2 { 1 } else { 0 });
    let nz = 1usize << (log_n / 3);
    mesh::grid3d(nx, ny, nz)
}

fn mesh2d(log_n: u32) -> CsrGraph {
    let nx = 1usize << (log_n / 2 + log_n % 2);
    let ny = 1usize << (log_n / 2);
    mesh::grid2d(nx, ny)
}

/// The instance names of Table I's upper block (the per-instance quality
/// comparison of Tables II/III).
pub const MAIN_SET: [&str; 12] = [
    "amazon",
    "eu-2005",
    "youtube",
    "in-2004",
    "packing",
    "enwiki",
    "channel",
    "hugebubbles",
    "nlpkkt240",
    "uk-2002",
    "del26",
    "rgg26",
];

/// Table I's lower block — the graphs ParMetis fails on.
pub const LARGE_WEB_SET: [&str; 3] = ["arabic-2005", "sk-2005", "uk-2007"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_instances_build_at_tiny_tier() {
        for name in MAIN_SET {
            let inst = instance(name, Tier::Tiny, 1);
            assert!(inst.graph.n() >= 64, "{name} too small: {}", inst.graph.n());
            assert!(inst.graph.m() > 0, "{name} has no edges");
            inst.graph.validate().unwrap();
        }
    }

    #[test]
    fn classes_match_table1() {
        assert_eq!(instance("youtube", Tier::Tiny, 1).class, GraphClass::Social);
        assert_eq!(instance("channel", Tier::Tiny, 1).class, GraphClass::Mesh);
        assert_eq!(instance("rgg26", Tier::Tiny, 1).class, GraphClass::Mesh);
        assert_eq!(instance("uk-2002", Tier::Tiny, 1).class, GraphClass::Social);
    }

    #[test]
    fn social_instances_are_skewed_mesh_instances_are_not() {
        // Hub sizes grow with the instance (BA hubs scale like sqrt of the
        // community size), so measure at the benchmark default tier.
        let web = instance("eu-2005", Tier::Small, 3);
        let m = instance("channel", Tier::Tiny, 3);
        let web_skew = web.graph.max_degree() as f64 / web.graph.avg_degree();
        let mesh_skew = m.graph.max_degree() as f64 / m.graph.avg_degree();
        assert!(web_skew > 5.0, "web skew {web_skew}");
        assert!(mesh_skew < 2.0, "mesh skew {mesh_skew}");
    }

    #[test]
    fn larger_webs_are_larger() {
        let small = instance("arabic-2005", Tier::Tiny, 1);
        let big = instance("uk-2007", Tier::Tiny, 1);
        assert!(big.graph.n() > small.graph.n());
    }

    #[test]
    #[should_panic(expected = "unknown benchmark instance")]
    fn unknown_name_panics() {
        instance("orkut", Tier::Tiny, 1);
    }

    #[test]
    fn tiers_scale_sizes() {
        let t = instance("youtube", Tier::Tiny, 1).graph.n();
        let s = instance("youtube", Tier::Small, 1).graph.n();
        assert!(s >= 8 * t / 2, "small {s} vs tiny {t}");
    }
}
