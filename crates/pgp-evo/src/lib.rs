//! KaFFPaE — the coarse-grained distributed evolutionary graph
//! partitioner the paper applies to the coarsest level of the hierarchy
//! (Sections II-C and IV-E).
//!
//! * [`population`] — per-PE populations with replace-the-worst insertion.
//! * [`kaffpae`](mod@kaffpae) — the evolutionary driver: the initial population
//!   (built once for an evolving group, split over its PEs), combine
//!   operations (non-worsening by construction), mutation, the group's
//!   operation budget and the seeded ring exchange of best individuals.

pub mod kaffpae;
pub mod objective;
pub mod population;

pub use kaffpae::{kaffpae, Budget, EvoConfig};
pub use objective::Objective;
pub use population::{Individual, Population};
