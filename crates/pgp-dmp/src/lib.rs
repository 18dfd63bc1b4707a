//! Distributed message passing substrate ("dmp").
//!
//! The paper's implementation is C++ + MPI on an InfiniBand cluster. This
//! crate substitutes that substrate: it runs `p` *processing elements* (PEs)
//! as OS threads, each holding only its own data, communicating exclusively
//! through typed point-to-point messages and MPI-style collectives. No
//! algorithm built on this crate shares mutable graph state between PEs —
//! the communication structure is the MPI program's (see DESIGN.md §2).
//!
//! Contents:
//! * [`comm`] — the PE group ([`Universe`]), tags, selective receive
//!   ([`Comm`]) over one mailbox per PE.
//! * [`runner`] — SPMD execution ([`run`], [`run_config`]).
//! * [`collectives`] — barrier, broadcast, reduce, allreduce, exscan,
//!   gatherv, allgatherv, alltoallv.
//! * [`dgraph`] — the distributed graph of Section IV-A: contiguous node
//!   ranges, ghost nodes, global↔local ID maps, per-adjacent-PE buffers.
//! * [`exchange`] — the phase-overlapped ghost-label exchange of §IV-A.
//! * [`tags`] — the tag-protocol constants (every named tag offset and its
//!   payload type; the names the runtime type-mismatch panic reports).
//! * [`wire`] — the size rule every message payload implements; a
//!   message crosses the mailbox as its typed value and counts its
//!   [`Wire`] bytes.

pub mod collectives;
pub mod comm;
pub mod dgraph;
pub mod exchange;
mod mailbox;
pub mod runner;
pub mod tags;
pub mod wire;

pub use comm::{Comm, CommError, DelayPlan, Tag, Universe};
pub use dgraph::{DistGraph, GhostRows};
pub use exchange::LabelExchange;
pub use wire::Wire;
// Re-exported so `RunConfig { obs, .. }` can be built without a direct
// pgp-obs dependency.
pub use pgp_obs::{Obs, Recorder, RunTrace};
pub use runner::{mix_seed, run, run_config, RunConfig};
