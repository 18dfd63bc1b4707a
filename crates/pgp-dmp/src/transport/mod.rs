//! Pluggable comm transports (DESIGN.md §15).
//!
//! The [`Comm`](crate::Comm) API — typed selective send/receive plus the
//! collectives built on it — is backend-neutral. Every message crosses
//! either backend in one form, its [`Payload`]: the [`Wire`] bytes of the
//! value behind its type name, so both backends carry and count the same
//! bytes. Everything that actually *moves* a payload lives behind the
//! crate-internal [`Transport`] trait, with two implementations:
//!
//! * [`thread`] — the classic substrate: PEs are OS threads of one
//!   process, payloads are handed through per-`(src, tag)` bucketed
//!   mailboxes. No syscalls.
//! * [`socket`] — PEs (still threads) talk over Unix-domain socketpairs
//!   carrying length-prefixed frames ([`frame`]) with per-`(src, dst,
//!   tag)` sequence numbers, so every byte crosses the kernel.
//!
//! The backend is selected by [`BackendKind`] on
//! [`RunConfig`](crate::RunConfig); algorithms never observe which one
//! they run on — the cross-backend golden tests assert byte-identical
//! partitions for identical seeds.

pub mod frame;
pub(crate) mod socket;
pub(crate) mod thread;

use crate::comm::{Comm, CommError, FaultHook, Tag, Universe};
use crate::wire::{Wire, WireReader};
use parking_lot::Mutex;
use pgp_graph::ids;
use pgp_obs::Obs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which comm transport a run uses. The default is the thread mailbox;
/// `Sockets` routes every payload through a real Unix-domain socketpair
/// (PEs remain threads, so the same SPMD closures run unchanged while
/// every payload is also framed and sequence-checked).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// In-process mailboxes shared by the PE threads.
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

/// A message payload in flight on either backend:
/// `[u16 name-len][type name][Wire encoding]`. The type-name prefix lets
/// the receiver detect a protocol mismatch precisely — every PE runs the
/// same binary, so `type_name` is a stable identifier.
pub(crate) struct Payload(pub(crate) Vec<u8>);

impl Payload {
    /// Payload size in wire bytes. Computed from the same value on the
    /// send and the receive side of a message, so the per-tag totals the
    /// recorder accumulates satisfy Σ sent − Σ dropped == Σ received
    /// *exactly* (the conservation tests assert this), and both backends
    /// count the same bytes for the same run.
    pub(crate) fn wire_bytes(&self) -> u64 {
        ids::count_global(self.0.len())
    }
}

/// Encodes `msg` into its [`Payload`]: the type name, then the [`Wire`]
/// encoding of the value.
pub(crate) fn pack<T: Wire>(msg: &T) -> Payload {
    let name = std::any::type_name::<T>();
    let name_len = u16::try_from(name.len()).expect("type name length fits u16");
    let mut buf = Vec::with_capacity(2 + name.len() + 16);
    buf.extend_from_slice(&name_len.to_le_bytes());
    buf.extend_from_slice(name.as_bytes());
    msg.encode(&mut buf);
    Payload(buf)
}

/// Decodes a [`Payload`] back into `T`, symmetric to [`pack`].
///
/// # Panics
/// Panics if the payload's type does not match `T` — that is a protocol
/// bug, not a runtime condition. The message names the expected type and
/// the type the sender packed.
pub(crate) fn unpack<T: Wire>(payload: Payload, src: usize, tag: Tag) -> T {
    fn mismatch<T>(src: usize, tag: Tag, actual: &str) -> ! {
        // `tags::describe` names the offset constant (OP_BCAST,
        // GHOST_LABELS, ...) so the panic points at the protocol entry.
        panic!(
            "type mismatch on {} from {src}: expected {}, got {actual}",
            crate::tags::describe(tag),
            std::any::type_name::<T>()
        )
    }
    let mut r = WireReader::new(&payload.0);
    let fail =
        |what: &str| -> ! { mismatch::<T>(src, tag, &format!("an undecodable payload ({what})")) };
    let Ok(name_len) = r.take(2).map(|b| u16::from_le_bytes([b[0], b[1]])) else {
        fail("truncated type-name header")
    };
    let Ok(name) = r.take(usize::from(name_len)).map(String::from_utf8_lossy) else {
        fail("truncated type name")
    };
    if name != std::any::type_name::<T>() {
        mismatch::<T>(src, tag, &name);
    }
    match T::decode(&mut r) {
        Ok(v) if r.remaining() == 0 => v,
        Ok(_) => fail("trailing bytes"),
        Err(e) => fail(&e.to_string()),
    }
}

/// A group's poison state, shared by both backends: a fast flag and the
/// first fatal failure (first wins; it drives the unwind). Waking parked
/// PEs is the owner's job: all mailboxes for the thread universe, its own
/// mailbox for a socket endpoint.
#[derive(Default)]
pub(crate) struct PoisonState {
    /// Fast flag, checked on every blocking-path entry; the
    /// authoritative record is `first`.
    poisoned: AtomicBool,
    first: Mutex<Option<CommError>>,
}

impl PoisonState {
    /// Records `err` in the poison slot if it is the first.
    pub(crate) fn record(&self, err: CommError) {
        let mut first = self.first.lock();
        if first.is_none() {
            *first = Some(err);
            // Release pairs with the Acquire load in `error`: whoever
            // sees the flag also sees the recorded error.
            self.poisoned.store(true, Ordering::Release);
        }
    }

    /// The first recorded error, if any. The flag keeps the mutex off the
    /// (overwhelmingly common) healthy path.
    pub(crate) fn error(&self) -> Option<CommError> {
        if !self.is_poisoned() {
            return None;
        }
        self.first.lock().clone()
    }

    /// True iff an error has been recorded.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
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
/// backend state for one run (the thread universe, or the socket
/// endpoints plus their reader threads) and hands out per-rank [`Comm`]s.
pub(crate) enum Group {
    /// Thread-mailbox backend.
    Threads(Arc<Universe>),
    /// In-process socket backend.
    Sockets(socket::SocketGroup),
}

impl Group {
    /// Builds the backend state for one run.
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
}
