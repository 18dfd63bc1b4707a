//! **ParHIP reproduction** — the overall parallel system of *Parallel
//! Graph Partitioning for Complex Networks* (Meyerhenke, Sanders, Schulz;
//! IPDPS 2015).
//!
//! The system partitions a graph into `k` blocks of near-equal weight
//! minimizing the edge cut, on `p` message-passing PEs:
//!
//! 1. **Parallel coarsening** ([`coarsen`]): size-constrained label
//!    propagation clusters the distributed graph; [`contract`] implements
//!    the parallel contraction of Section IV-C (distinct-ID counting,
//!    prefix-sum renumbering, quotient-edge redistribution). Repeated
//!    until `~10 000·k`-scaled nodes remain.
//! 2. **Initial partitioning**: the coarsest graph is replicated and
//!    handed to the distributed evolutionary algorithm KaFFPaE
//!    (`pgp-evo`).
//! 3. **Parallel uncoarsening** ([`partitioner`]): block lookups from
//!    coarse owners project the solution up; `r` rounds of parallel SCLP
//!    refinement (`pgp-lp`) improve it per level.
//! 4. **Iterated V-cycles** re-enter the pipeline with the current
//!    partition as a clustering constraint (cut edges survive coarsening)
//!    and as a seed individual for the evolutionary algorithm.
//!
//! Entry point: a [`Partitioner`] — [`Partitioner::partition`] on a global
//! graph or its per-PE row segments; [`parhip_distributed`] is the bare
//! per-PE call without options (SPMD style, inside a `pgp_dmp::run`
//! closure).
//!
//! ```
//! use parhip::{GraphClass, ParhipConfig, Partitioner};
//! let (g, _) = pgp_gen::sbm::sbm(600, Default::default(), 7);
//! let mut cfg = ParhipConfig::fast(4, GraphClass::Social, 42);
//! cfg.coarsest_nodes_per_block = 50;
//! let out = Partitioner::new(&cfg).partition(&g, 2).expect("valid input");
//! assert!(out.partition.validate(&g, 0.03).is_ok());
//! assert!(out.stats.levels >= 1);
//! ```

pub mod coarsen;
pub mod config;
pub mod contract;
pub mod partitioner;
pub mod renumber;
#[cfg(feature = "validate")]
pub mod validate;

pub use coarsen::{ParHierarchy, ParLevel};
pub use config::{GraphClass, ParhipConfig, Preset};
pub use contract::{parallel_contract, parallel_project_blocks, ParContraction};
pub use partitioner::{parhip_distributed, ParhipStats, PartitionError, Partitioned, Partitioner};
pub use renumber::Renumbering;
