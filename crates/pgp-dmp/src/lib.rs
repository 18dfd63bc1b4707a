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
//! * [`comm`] — mailboxes, tags, selective receive ([`Comm`]).
//! * [`runner`] — SPMD execution ([`run`], [`run_config`],
//!   [`run_config_supervised`]).
//! * [`collectives`] — barrier, broadcast, reduce, allreduce, exscan,
//!   gather, allgather(v), alltoallv.
//! * [`dgraph`] — the distributed graph of Section IV-A: contiguous node
//!   ranges, ghost nodes, global↔local ID maps, per-adjacent-PE buffers.
//! * [`exchange`] — the phase-overlapped ghost-label exchange of §IV-A.
//! * [`tags`] — the tag-protocol constants (every named tag offset and its
//!   payload type; the ground truth for `cargo xtask analyze`).
//! * [`transport`] — the pluggable comm backends (DESIGN.md §15): thread
//!   mailboxes, Unix-domain socket frames, and the multi-process mode.
//! * [`wire`] — the byte codec every message payload implements so it can
//!   cross a socket ([`Wire`]).

pub mod collectives;
pub mod comm;
pub mod dgraph;
pub mod exchange;
pub mod runner;
pub mod tags;
pub mod transport;
pub mod wire;

pub use comm::{Comm, CommError, FaultHook, SendFault, Tag, Universe};
pub use dgraph::{DistGraph, GhostRows};
pub use exchange::LabelExchange;
pub use transport::process::{
    maybe_run_worker, run_multiprocess, run_multiprocess_supervised, ProcessConfig, WorkerCtx,
    WorkerFn,
};
pub use transport::BackendKind;
pub use wire::{Wire, WireError, WireReader};
// Re-exported so `RunConfig { obs, .. }` can be built without a direct
// pgp-obs dependency.
pub use pgp_obs::{Obs, Recorder, RecoveryReport, RunTrace};
pub use runner::{
    mix_seed, run, run_config, run_config_supervised, thread_cpu_seconds, AttemptInfo,
    FailureVerdict, RecoveryLimits, RunConfig, SupervisorConfig,
};
