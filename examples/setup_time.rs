//! Times the input path the way the benchmark's `setup_s` does: read a
//! METIS file with `read_metis_file`, then build every PE's `DistGraph`
//! with `DistGraph::from_global` (the slowest PE counts). Prints one line
//! of seconds per sample, so two builds can be interleaved sample by
//! sample.
//!
//! ```text
//! cargo run --release --example setup_time -- <graph.metis> [p=2] [samples=1]
//! ```

use pgp::pgp_dmp::{run, DistGraph};
use pgp::pgp_graph::io::read_metis_file;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first() else {
        eprintln!("usage: setup_time <graph.metis> [p] [samples]");
        std::process::exit(2);
    };
    let number = |i: usize, default: usize| {
        args.get(i).map_or(default, |a| {
            a.parse().unwrap_or_else(|_| {
                eprintln!("not a number: {a}");
                std::process::exit(2)
            })
        })
    };
    let (p, samples) = (number(1, 2), number(2, 1));
    for _ in 0..samples {
        let t = Instant::now();
        let graph = read_metis_file(path).unwrap_or_else(|e| {
            eprintln!("error reading {path}: {e}");
            std::process::exit(1)
        });
        let read_s = t.elapsed().as_secs_f64();
        let distribute_s = run(p, |comm| {
            let t = Instant::now();
            let dg = DistGraph::from_global(comm, &graph);
            let s = t.elapsed().as_secs_f64();
            drop(dg);
            s
        });
        println!(
            "{:.4}",
            read_s + distribute_s.into_iter().fold(0.0, f64::max)
        );
    }
}
