//! The paper's headline: partitioning a web graph "in seconds" with the
//! *minimal* configuration while matching-based competitors cannot handle
//! the instance at all.
//!
//! Scaled to a laptop: a heavy-tailed R-MAT web stand-in; ParHIP minimal
//! vs fast vs the ParMetis-like baseline under the memory model that
//! reproduces its failure.
//!
//! ```text
//! cargo run --release --example web_graph_speedrun
//! ```

use pgp::parhip::{GraphClass, ParhipConfig, Partitioned, Partitioner, Preset};
use pgp::pgp_baselines::{parmetis_like, BaselineError, ParmetisLikeConfig};
use pgp::pgp_gen::webgraph::{web_graph, WebGraphParams};
use std::time::Instant;

fn main() {
    // A web-crawl stand-in: hub pages + site-level community structure
    // (see pgp_gen::webgraph for why both properties matter).
    let (graph, _) = web_graph(
        1 << 16,
        WebGraphParams {
            intra_degree: 20.0,
            inter_degree: 4.0,
            ..Default::default()
        },
        99,
    );
    println!(
        "web graph stand-in: n = {}, m = {}, max degree = {}",
        graph.n(),
        graph.m(),
        graph.max_degree()
    );
    let k = 2;
    let p = 4;

    for preset in [Preset::Minimal, Preset::Fast] {
        let cfg = ParhipConfig::preset(preset, k, GraphClass::Social, 3);
        let t = Instant::now();
        let Partitioned {
            partition: part,
            stats,
            ..
        } = Partitioner::new(&cfg)
            .partition(&graph, p)
            .expect("valid input");
        println!(
            "{preset:?}: cut = {}, balanced = {}, {:.2}s wall ({} levels, coarsest {})",
            part.edge_cut(&graph),
            part.is_balanced(&graph, 0.03),
            t.elapsed().as_secs_f64(),
            stats.levels,
            stats.coarsest_n,
        );
    }

    // The baseline: matching cannot shrink the hub-dominated graph, the
    // coarsest graph must be replicated per PE, and the memory model
    // reports the paper's '*' outcome.
    let budget = 4_500_000; // bytes/PE, the "cluster node" of the scaled model
    let cfg = ParmetisLikeConfig::new(k, 3).with_memory_budget(budget);
    match parmetis_like(&graph, p, &cfg) {
        Ok((part, stats)) => println!(
            "ParMetis-like: cut = {} (coarsest {} after {} levels)",
            part.edge_cut(&graph),
            stats.coarsest_n,
            stats.levels
        ),
        Err(BaselineError::OutOfMemory {
            required,
            budget,
            coarsest_n,
        }) => println!(
            "ParMetis-like: FAILED — coarsening stalled at {coarsest_n} nodes; \
             replication needs {required} bytes/PE > budget {budget} (the paper's '*')"
        ),
    }
}
