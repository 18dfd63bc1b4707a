//! KaFFPaE — the coarse-grained distributed evolutionary graph
//! partitioner the paper applies to the coarsest level of the hierarchy
//! (Sections II-C and IV-E).
//!
//! * [`population`] — per-PE populations with replace-the-worst insertion.
//! * [`kaffpae`](mod@kaffpae) — the evolutionary driver: initial population, combine
//!   operations (non-worsening by construction), mutation, budgets.
//! * [`rumor`] — randomized rumor spreading of the best individual.

pub mod kaffpae;
pub mod objective;
pub mod population;
pub mod rumor;

pub use kaffpae::{kaffpae, Budget, EvoConfig};
pub use objective::Objective;
pub use population::{Individual, Population};
pub use rumor::Rumor;
