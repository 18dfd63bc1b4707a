//! Size-constrained label propagation (SCLP) — the paper's workhorse for
//! both coarsening (cluster mode) and refinement.
//!
//! * [`cluster_map`] — the linear-probing aggregation table of §IV-A.
//! * [`seq`] — the sequential algorithm of §III-A (used inside KaFFPa-lite
//!   and as the reference implementation).
//! * [`par`] — the distributed-memory parallelization of §IV-A/IV-B on the
//!   `pgp-dmp` substrate: phase-overlapped ghost exchange, localized
//!   cluster weights during coarsening, allreduce-exact block weights
//!   during refinement.

pub mod cluster_map;
pub mod par;
pub mod seq;

pub use cluster_map::ClusterMap;
pub use par::{
    parallel_sclp_cluster, parallel_sclp_cluster_with_scratch, parallel_sclp_refine,
    parallel_sclp_refine_with_scratch, singleton_labels, SclpScratch,
};
pub use seq::{sclp, sclp_cluster, sclp_refine, Mode, Order, SclpConfig, SclpStats};
