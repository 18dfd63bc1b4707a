//! KaFFPa-lite: a sequential multilevel graph partitioner reproducing the
//! structure of KaHIP's KaFFPa as the paper uses it — the engine inside the
//! evolutionary algorithm's combine operator and the coarsest-level
//! partitioner of the overall parallel system.
//!
//! * [`coarsen`](mod@coarsen) — cluster-contraction (paper) and heavy-edge-matching
//!   (baseline) hierarchies, with the constraint mechanism that keeps cut
//!   edges of input partitions alive.
//! * [`initial`] — direct k-way greedy growing (k ≥ 3) and recursive
//!   bisection (k = 2, and the ParMetis stand-in).
//! * [`fm`] — k-way FM local search with hill climbing and rollback
//!   (never worsens the cut).
//! * [`kaffpa`](mod@kaffpa) — the multilevel driver, including combine inputs.

pub mod coarsen;
pub mod fm;
mod heap;
pub mod initial;
pub mod kaffpa;

pub use coarsen::{coarsen, CoarsenConfig, Hierarchy, Scheme};
pub use fm::{kway_fm, refine_partition, FmConfig, FmStats};
pub use initial::{initial_partition, InitialConfig};
pub use kaffpa::{kaffpa, kaffpa_with_inputs, KaffpaConfig};
