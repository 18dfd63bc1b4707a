//! Baseline partitioners the paper compares against.
//!
//! * [`parmetis_like`](mod@parmetis_like) — matching-based parallel multilevel partitioning
//!   on the same `pgp-dmp` substrate as ParHIP, including ParMetis's
//!   coarsening-stall and out-of-memory failure modes on complex networks.
//! * [`matching`] — the parallel heavy-edge matching it coarsens with.
//! * [`rb`] — a PT-Scotch-like parallel recursive-bisection baseline.
//! * [`hash`] — hash partitioning (the cloud-toolkit default).

pub mod hash;
pub mod matching;
pub mod parmetis_like;
pub mod rb;

pub use hash::hash_partition;
pub use matching::parallel_hem;
pub use parmetis_like::{
    parmetis_like, parmetis_like_distributed, BaselineError, ParmetisLikeConfig, ParmetisLikeStats,
};
pub use rb::{recursive_bisection, RbConfig};
