//! The per-PE mailbox: where every message waits for its receiver.
//!
//! Every message crosses the mailbox in one form, its [`Payload`]: the
//! typed value itself behind its type name, as MPI hands over a typed
//! buffer with no per-message header. The bytes a run counts are the
//! value's [`Wire::wire_bytes`], the bytes an MPI program would send
//! (DESIGN.md §11, "One payload form").
//!
//! Each PE owns a [`Mailbox`] bucketed by `(source, tag)`: a per-sender
//! slot array indexed by a hash of the tag, with a small overflow list for
//! slot collisions. Selective receive is an O(1) bucket lookup instead of
//! an O(queue) scan, so deep tag backlogs (phase-overlapped exchanges,
//! pipelined collectives) stay cheap.
//!
//! # Single-consumer invariant
//!
//! Mailbox `r` is only ever *received from* by PE `r`'s own thread (every
//! `recv` call operates on the owning rank's mailbox). At most
//! one thread can therefore be parked on a mailbox's condvar at any time,
//! which makes `notify_one` on the send path sufficient — there is no
//! second waiter a wakeup could be lost to. The loom model in
//! `tests/concurrency.rs` checks this handshake.

use crate::comm::{CommError, Tag, Universe};
use crate::wire::Wire;
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A message payload in flight: the sent value, its type name and its size.
/// The type name lets the receiver name a protocol mismatch precisely —
/// every PE runs the same code, so `type_name` is a stable identifier.
pub(crate) struct Payload {
    value: Box<dyn Any + Send>,
    type_name: &'static str,
    /// The value's [`Wire::wire_bytes`], computed once at [`pack`]. Send
    /// and receive both count this one field, so the per-tag totals the
    /// recorder accumulates satisfy Σ sent == Σ received *exactly* (the
    /// conservation tests assert this).
    pub(crate) bytes: u64,
}

/// Moves `msg` into its [`Payload`].
pub(crate) fn pack<T: Wire>(msg: T) -> Payload {
    Payload {
        bytes: msg.wire_bytes(),
        type_name: std::any::type_name::<T>(),
        value: Box::new(msg),
    }
}

/// Takes the value back out of a [`Payload`], symmetric to [`pack`].
///
/// # Panics
/// Panics if the payload's type does not match `T` — that is a protocol
/// bug, not a runtime condition. The message names the expected type and
/// the type the sender packed.
pub(crate) fn unpack<T: Wire>(payload: Payload, src: usize, tag: Tag) -> T {
    match payload.value.downcast::<T>() {
        Ok(v) => *v,
        // `tags::describe` names the offset constant (OP_BCAST,
        // GHOST_LABELS, ...) so the panic points at the protocol entry.
        Err(_) => panic!(
            "type mismatch on {} from {src}: expected {}, got {}",
            crate::tags::describe(tag),
            std::any::type_name::<T>(),
            payload.type_name
        ),
    }
}

/// Outcome of one blocking receive.
pub(crate) enum RecvOutcome {
    /// The awaited message arrived.
    Msg(Payload),
    /// The group is poisoned; no message can be expected.
    Poisoned(CommError),
    /// The deadline elapsed with no message and no poison.
    TimedOut,
}

/// Direct-mapped tag slots per sender; collisions spill to the overflow
/// list. Eight covers the tags simultaneously in flight from one sender in
/// steady state (one exchange phase + one collective round).
const SLOTS_PER_SRC: usize = 8;

/// Maps a tag to its direct slot. Tag blocks differ in bits ≥ 16, rounds
/// within a block in the low bits; folding 16-bit halves before the
/// multiply spreads both.
fn slot_of(tag: Tag) -> usize {
    (((tag ^ (tag >> 16)).wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 61) as usize // lint:cast-ok: 3-bit slot index, always < SLOTS_PER_SRC
}

/// Debug-build ceiling on simultaneously live tags from one sender (see
/// [`SrcState::push`]). Generously above the steady-state bound of a few
/// in-flight exchange phases plus collective rounds.
pub(crate) const OVERFLOW_SOFT_CAP: usize = 128;

/// FIFO of messages for one `(src, tag)` pair. `tag` is only meaningful
/// while `fifo` is non-empty: an emptied queue is claimable by any tag and
/// keeps its ring-buffer allocation, so steady-state traffic reuses it.
#[derive(Default)]
struct TagQueue {
    tag: Tag,
    fifo: VecDeque<Payload>,
}

/// All pending messages from one sender, bucketed by tag.
///
/// Invariant: at most one *non-empty* [`TagQueue`] exists per tag (matching
/// queues are always preferred over claiming empty ones), so FIFO order per
/// `(src, tag)` is the order within that single queue.
#[derive(Default)]
struct SrcState {
    slots: [TagQueue; SLOTS_PER_SRC],
    overflow: Vec<TagQueue>,
}

impl SrcState {
    /// Appends `payload` to the queue for `tag`, claiming or creating a
    /// queue if none is active.
    fn push(&mut self, tag: Tag, payload: Payload) {
        let s = slot_of(tag);
        if !self.slots[s].fifo.is_empty() && self.slots[s].tag == tag {
            self.slots[s].fifo.push_back(payload);
            return;
        }
        if let Some(q) = self
            .overflow
            .iter_mut()
            .find(|q| !q.fifo.is_empty() && q.tag == tag)
        {
            q.fifo.push_back(payload);
            return;
        }
        if self.slots[s].fifo.is_empty() {
            self.slots[s].tag = tag;
            self.slots[s].fifo.push_back(payload);
            return;
        }
        if let Some(q) = self.overflow.iter_mut().find(|q| q.fifo.is_empty()) {
            q.tag = tag;
            q.fifo.push_back(payload);
            return;
        }
        // The overflow list only grows while more tags are simultaneously
        // live from one sender than SLOTS_PER_SRC; in steady state emptied
        // queues are reclaimed. Unbounded growth means a protocol leak
        // (tags sent but never received) — catch it loudly in debug builds
        // instead of silently accumulating queues.
        debug_assert!(
            self.overflow.len() < OVERFLOW_SOFT_CAP,
            "mailbox overflow list grew past {OVERFLOW_SOFT_CAP} live tags from one \
             sender; a tag is probably sent but never received (leaked tag block)"
        );
        self.overflow.push(TagQueue {
            tag,
            fifo: VecDeque::from([payload]),
        });
    }

    /// The active (non-empty) queue for `tag`, if any.
    fn queue_mut(&mut self, tag: Tag) -> Option<&mut VecDeque<Payload>> {
        let s = slot_of(tag);
        if !self.slots[s].fifo.is_empty() && self.slots[s].tag == tag {
            return Some(&mut self.slots[s].fifo);
        }
        self.overflow
            .iter_mut()
            .find(|q| !q.fifo.is_empty() && q.tag == tag)
            .map(|q| &mut q.fifo)
    }

    /// Removes and returns the oldest message for `tag`.
    fn take(&mut self, tag: Tag) -> Option<Payload> {
        self.queue_mut(tag).and_then(VecDeque::pop_front)
    }
}

/// One PE's incoming-message state: per-sender tag buckets under a single
/// mutex, plus the condvar its owner thread parks on (see the
/// single-consumer invariant in the module docs).
pub(crate) struct Mailbox {
    inner: Mutex<MailboxInner>,
    signal: Condvar,
}

struct MailboxInner {
    by_src: Vec<SrcState>,
}

impl Mailbox {
    /// An empty mailbox accepting messages from `size` senders.
    pub(crate) fn new(size: usize) -> Self {
        Mailbox {
            inner: Mutex::new(MailboxInner {
                by_src: (0..size).map(|_| SrcState::default()).collect(),
            }),
            signal: Condvar::new(),
        }
    }

    /// Enqueues a message from `src` and wakes the owner thread.
    pub(crate) fn push(&self, src: usize, tag: Tag, payload: Payload) {
        {
            let mut inner = self.inner.lock();
            inner.by_src[src].push(tag, payload);
        }
        // Single-consumer invariant (module docs): only the owning rank's
        // thread waits on this condvar, so one targeted wakeup suffices.
        self.signal.notify_one();
    }

    /// Wakes every thread parked on this mailbox (poison propagation).
    pub(crate) fn notify_all(&self) {
        self.signal.notify_all();
    }

    /// Removes the oldest pending message from `src` with `tag`, if any.
    pub(crate) fn try_take(&self, src: usize, tag: Tag) -> Option<Payload> {
        self.inner.lock().by_src[src].take(tag)
    }

    /// Parks until a message from `src` with `tag` arrives, `universe` is
    /// poisoned, or `deadline` elapses, re-checking the poison state on
    /// every wakeup. An available message wins over poison (traffic that
    /// already arrived stays receivable during an unwind); expiry is
    /// reported as [`RecvOutcome::TimedOut`] for the caller to escalate.
    pub(crate) fn recv_blocking(
        &self,
        src: usize,
        tag: Tag,
        deadline: Option<Duration>,
        universe: &Universe,
    ) -> RecvOutcome {
        let start = deadline.map(|_| Instant::now()); // lint:instant-ok: watchdog deadline
        let mut inner = self.inner.lock();
        loop {
            if let Some(payload) = inner.by_src[src].take(tag) {
                return RecvOutcome::Msg(payload);
            }
            if let Some(err) = universe.poison_error() {
                return RecvOutcome::Poisoned(err);
            }
            match (deadline, start) {
                (Some(limit), Some(t0)) => {
                    let elapsed = t0.elapsed();
                    if elapsed >= limit {
                        return RecvOutcome::TimedOut;
                    }
                    self.signal.wait_for(&mut inner, limit - elapsed);
                }
                _ => self.signal.wait(&mut inner),
            }
        }
    }
}
