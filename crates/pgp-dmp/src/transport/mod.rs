//! Pluggable comm transports (DESIGN.md §15).
//!
//! The [`Comm`](crate::Comm) API — typed selective send/receive plus the
//! collectives built on it — is backend-neutral. Everything that actually
//! *moves* a message lives behind the crate-internal [`Transport`] trait,
//! with two implementations:
//!
//! * [`thread`] — the classic substrate: PEs are OS threads of one
//!   process, payloads move as pointers through per-`(src, tag)` bucketed
//!   mailboxes. Zero serialization, zero syscalls; the fast path.
//! * [`socket`] — PEs talk over Unix-domain stream sockets carrying
//!   length-prefixed frames ([`frame`]) with per-`(src, dst, tag)`
//!   sequence numbers. Used in two modes: *in-process* (PE threads wired
//!   through real socketpairs — every byte crosses the kernel, which is
//!   what the conformance and golden suites exercise) and *multi-process*
//!   ([`process`] — one OS process per PE, where a SIGKILL is a real
//!   death the supervisor must survive).
//!
//! The backend is selected by [`BackendKind`] on
//! [`RunConfig`](crate::RunConfig); algorithms never observe which one
//! they run on — the cross-backend golden tests assert byte-identical
//! partitions for identical seeds.

pub mod frame;
pub mod process;
pub(crate) mod socket;
pub(crate) mod thread;

use crate::comm::{Comm, CommError, FaultHook, Tag, Universe};
use crate::wire::{Wire, WireReader};
use pgp_graph::{ids, Node};
use pgp_obs::Obs;
use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

/// Which comm transport a run uses. The default is the thread mailbox —
/// the zero-regression fast path; `Sockets` routes every message through
/// a real Unix-domain socketpair (PEs remain threads, so the same SPMD
/// closures run unchanged while every payload is framed, encoded, and
/// sequence-checked exactly as in the multi-process mode).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// In-process typed-payload mailboxes (pointer-move delivery).
    #[default]
    Threads,
    /// Unix-domain socket frames between PE endpoints.
    Sockets,
}

impl BackendKind {
    /// Stable lowercase name, as used by `--backend` flags and RunReports.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Threads => "threads",
            BackendKind::Sockets => "sockets",
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" => Ok(BackendKind::Threads),
            "sockets" => Ok(BackendKind::Sockets),
            other => Err(format!(
                "unknown backend `{other}` (expected `threads` or `sockets`)"
            )),
        }
    }
}

/// A message payload in flight. The two variants before `Other` are the
/// dominant payload types on the thread-backend hot path (ghost-label
/// updates and reduction vectors); they move as plain enum variants with
/// no heap indirection beyond the `Vec` itself. Everything else is boxed
/// as `dyn Any`. `Bytes` is the socket backend's only variant: the
/// [`Wire`]-encoded value prefixed with its type name, so a protocol
/// mismatch panics with the same diagnostics as the typed fast path.
pub(crate) enum Payload {
    /// Ghost-label / assignment updates: the `LabelExchange` wire format.
    Pairs(Vec<(Node, Node)>),
    /// Reduction and gather vectors used by the collectives.
    U64s(Vec<u64>),
    /// Fallback for all other message types (thread backend only).
    Other(Box<dyn Any + Send>),
    /// `[u16 name-len][type name][Wire encoding]` (socket backend only).
    Bytes(Vec<u8>),
}

impl Payload {
    /// Payload size in wire bytes. Computed from the same value on the
    /// send and the receive side of a message, so the per-tag totals the
    /// recorder accumulates satisfy Σ sent − Σ dropped == Σ received
    /// *exactly* (the conservation tests assert this). Thread-backend
    /// payloads report their in-memory size; socket payloads report the
    /// actual framed byte count — the two backends agree on message and
    /// element counts but legitimately differ in bytes (DESIGN.md §15).
    pub(crate) fn wire_bytes(&self) -> u64 {
        match self {
            Payload::Pairs(v) => ids::count_global(v.len() * std::mem::size_of::<(Node, Node)>()),
            Payload::U64s(v) => ids::count_global(v.len() * std::mem::size_of::<u64>()),
            Payload::Other(b) => ids::count_global(std::mem::size_of_val(&**b)),
            Payload::Bytes(b) => ids::count_global(b.len()),
        }
    }
}

/// Wraps `msg` into a [`Payload`] for pointer-move delivery, routing the
/// dominant types into their unboxed variants. The `Option` dance moves
/// the value out through a `&mut dyn Any` without `unsafe` and without
/// boxing on the fast path.
pub(crate) fn pack<T: Wire>(msg: T) -> Payload {
    let mut slot = Some(msg);
    let any: &mut dyn Any = &mut slot;
    if let Some(v) = any.downcast_mut::<Option<Vec<(Node, Node)>>>() {
        return Payload::Pairs(v.take().expect("freshly wrapped"));
    }
    if let Some(v) = any.downcast_mut::<Option<Vec<u64>>>() {
        return Payload::U64s(v.take().expect("freshly wrapped"));
    }
    Payload::Other(Box::new(slot.take().expect("freshly wrapped")))
}

/// Encodes `msg` into the socket wire form: the payload type's name (so
/// the receiving side can detect protocol mismatches precisely — both
/// sides run the same binary, making `type_name` a stable identifier)
/// followed by the [`Wire`] encoding of the value.
pub(crate) fn pack_encoded<T: Wire>(msg: &T) -> Payload {
    let name = std::any::type_name::<T>();
    let name_len = u16::try_from(name.len()).expect("type name length fits u16");
    let mut buf = Vec::with_capacity(2 + name.len() + 16);
    buf.extend_from_slice(&name_len.to_le_bytes());
    buf.extend_from_slice(name.as_bytes());
    msg.encode(&mut buf);
    Payload::Bytes(buf)
}

/// Unwraps a [`Payload`] back into `T`, symmetric to [`pack`] /
/// [`pack_encoded`].
///
/// # Panics
/// Panics if the payload's type does not match `T` — that is a protocol
/// bug, not a runtime condition. The message names the expected type and
/// the actual payload type (for the typed fast-path variants and encoded
/// socket frames the actual type is known; for boxed payloads only its
/// `TypeId` is recoverable through `dyn Any`).
pub(crate) fn unpack<T: Wire>(payload: Payload, src: usize, tag: Tag) -> T {
    fn mismatch<T>(src: usize, tag: Tag, actual: &str) -> ! {
        // `tags::describe` names the offset constant (OP_BCAST,
        // GHOST_LABELS, ...) so the runtime panic and the static
        // `cargo xtask analyze` finding point at the same protocol entry.
        panic!(
            "type mismatch on {} from {src}: expected {}, got {actual}",
            crate::tags::describe(tag),
            std::any::type_name::<T>()
        )
    }
    match payload {
        Payload::Pairs(v) => {
            let mut slot = Some(v);
            let any: &mut dyn Any = &mut slot;
            match any.downcast_mut::<Option<T>>() {
                Some(out) => out.take().expect("freshly wrapped"),
                None => mismatch::<T>(src, tag, "Vec<(Node, Node)> (typed fast path)"),
            }
        }
        Payload::U64s(v) => {
            let mut slot = Some(v);
            let any: &mut dyn Any = &mut slot;
            match any.downcast_mut::<Option<T>>() {
                Some(out) => out.take().expect("freshly wrapped"),
                None => mismatch::<T>(src, tag, "Vec<u64> (typed fast path)"),
            }
        }
        Payload::Other(b) => match b.downcast::<T>() {
            Ok(v) => *v,
            Err(b) => mismatch::<T>(
                src,
                tag,
                &format!("a boxed payload with {:?}", (*b).type_id()),
            ),
        },
        Payload::Bytes(buf) => {
            let mut r = WireReader::new(&buf);
            let fail = |what: &str| -> ! {
                mismatch::<T>(src, tag, &format!("an undecodable socket frame ({what})"))
            };
            let Ok(name_len) = r.take(2).map(|b| u16::from_le_bytes([b[0], b[1]])) else {
                fail("truncated type-name header")
            };
            let Ok(name) = r.take(usize::from(name_len)).map(String::from_utf8_lossy) else {
                fail("truncated type name")
            };
            if name != std::any::type_name::<T>() {
                mismatch::<T>(src, tag, &format!("{name} (socket frame)"));
            }
            match T::decode(&mut r) {
                Ok(v) if r.remaining() == 0 => v,
                Ok(_) => fail("trailing bytes"),
                Err(e) => fail(&e.to_string()),
            }
        }
    }
}

/// Outcome of one blocking transport receive.
pub(crate) enum RecvOutcome {
    /// The awaited message arrived.
    Msg(Payload),
    /// The group is poisoned; no message can be expected.
    Poisoned(CommError),
    /// The deadline elapsed with no message and no poison.
    TimedOut,
}

/// One PE's message endpoint, bound to its rank. The [`Comm`] layer owns
/// everything transport-agnostic — typed pack/unpack, fault-injection
/// limbo queues, observability recording, poison *reaction* — and calls
/// down here for delivery, pickup, parking, and poison *state*.
pub(crate) trait Transport: Send + Sync {
    /// Number of PEs in the group.
    fn size(&self) -> usize;

    /// True when payloads must travel as encoded bytes
    /// ([`Payload::Bytes`]) because they cross an OS socket.
    fn encoded(&self) -> bool;

    /// Enqueues `payload` for PE `dst` (from this endpoint's own rank).
    /// Never blocks on the receiver.
    fn deliver(&self, dst: usize, tag: Tag, payload: Payload);

    /// Removes the oldest pending message from `src` with `tag`, if any.
    fn try_take(&self, src: usize, tag: Tag) -> Option<Payload>;

    /// Removes every pending message with `tag`, grouped by source rank
    /// in rank order, FIFO within a source.
    fn drain_tag(&self, tag: Tag) -> Vec<(usize, Payload)>;

    /// Parks until a message from `src` with `tag` arrives, the group is
    /// poisoned, or `deadline` elapses. An available message wins over
    /// poison, so already-delivered traffic stays receivable during an
    /// unwind.
    fn recv_blocking(&self, src: usize, tag: Tag, deadline: Option<Duration>) -> RecvOutcome;

    /// Marks the whole group failed with `err` (first poison wins) and
    /// wakes every parked PE — on socket backends this also broadcasts a
    /// poison control frame to all peers.
    fn poison(&self, err: CommError);

    /// The recorded poison error, if the group is poisoned.
    fn poison_error(&self) -> Option<CommError>;

    /// True iff the group is poisoned (cheaper than
    /// [`Transport::poison_error`] on the healthy path).
    fn is_poisoned(&self) -> bool;
}

/// A running PE group of either backend: the runner's seam. Owns the
/// backend state for one attempt (the thread universe, or the socket
/// endpoints plus their reader threads) and hands out per-rank [`Comm`]s.
pub(crate) enum Group {
    /// Thread-mailbox backend.
    Threads(Arc<Universe>),
    /// In-process socket backend.
    Sockets(socket::SocketGroup),
}

impl Group {
    /// Builds the backend state for one run attempt.
    pub(crate) fn build(
        size: usize,
        backend: BackendKind,
        deadline: Option<Duration>,
        hook: Option<Arc<dyn FaultHook>>,
        obs: Option<Arc<Obs>>,
    ) -> Self {
        if let Some(o) = &obs {
            o.set_backend(backend.name());
        }
        match backend {
            BackendKind::Threads => {
                Group::Threads(Universe::with_config(size, deadline, hook, obs))
            }
            BackendKind::Sockets => {
                Group::Sockets(socket::SocketGroup::new(size, deadline, hook, obs))
            }
        }
    }

    /// Number of PEs in the group.
    pub(crate) fn size(&self) -> usize {
        match self {
            Group::Threads(u) => u.size(),
            Group::Sockets(g) => g.size(),
        }
    }

    /// A communicator handle for PE `rank`.
    pub(crate) fn comm(&self, rank: usize) -> Comm {
        match self {
            Group::Threads(u) => u.comm(rank),
            Group::Sockets(g) => g.comm(rank),
        }
    }

    /// Poisons the group on behalf of `rank` (used by the runner when a
    /// PE closure exits by genuine panic).
    pub(crate) fn poison(&self, rank: usize, err: CommError) {
        match self {
            Group::Threads(u) => u.poison(err),
            Group::Sockets(g) => g.poison(rank, err),
        }
    }

    /// Every distinct error observed by the group, in arrival order —
    /// the input to the supervisor's failure consensus.
    pub(crate) fn fault_ledger(&self) -> Vec<CommError> {
        match self {
            Group::Threads(u) => u.fault_ledger(),
            Group::Sockets(g) => g.fault_ledger(),
        }
    }
}
