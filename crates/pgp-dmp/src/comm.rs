//! Point-to-point message passing between simulated processing elements.
//!
//! A [`Comm`] handle identifies one PE and can send a typed message to any
//! other PE and *selectively* receive by `(source, tag)` — the same
//! programming model as MPI's `MPI_Send`/`MPI_Recv` with tags, which is
//! what the paper's implementation uses.
//!
//! A [`Universe`] holds one mailbox per PE (per-`(src, tag)` buckets, see
//! `mailbox.rs`) and the group-wide poison state; each [`Comm`] is one
//! PE's handle onto it. A send moves the typed message into the
//! receiver's mailbox; a receive takes it out and checks its type. Each
//! message counts its [`Wire`] size, the bytes an MPI process would send,
//! so the *communication pattern and volume* the recorder counts are the
//! MPI program's (DESIGN.md §12).
//!
//! # Fault model (DESIGN.md §9)
//!
//! A [`Universe`] can be built with a [`FaultHook`] (fault injection) and a
//! watchdog deadline (fault *tolerance*). The hook is a pure decision
//! oracle — it only ever sees `(src, dst, tag, seq)` integers and returns a
//! [`SendFault`]; the mailbox internals, including delayed payloads parked
//! in per-`(dst, tag)` limbo queues, never leave the comm layer. Failures
//! are reported as [`CommError`] through the *poison* protocol: the first PE
//! to observe a fatal condition (deadline expiry, a dead peer, a panic)
//! poisons the group, and every other PE unwinds with a structured error at
//! its next blocking operation instead of parking forever.

use crate::mailbox::{pack, unpack, Mailbox, Payload, RecvOutcome};
use crate::wire::Wire;
use parking_lot::Mutex;
use pgp_obs::{Obs, Recorder};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A message tag. The high bits carry a per-collective sequence number so
/// that back-to-back collective calls on different PEs can never interleave.
pub type Tag = u64;

/// A structured communication failure. Blocking operations surface these
/// instead of parking forever once the group is poisoned or a deadline
/// (the deadlock watchdog) expires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// A blocking receive exceeded its deadline. `rank` is the PE that
    /// timed out (the watchdog origin for poison propagation), `src`/`tag`
    /// identify the message it was parked on.
    Timeout {
        /// The PE whose wait expired.
        rank: usize,
        /// The sender it was waiting for.
        src: usize,
        /// The tag it was waiting for.
        tag: Tag,
    },
    /// A peer PE died (was killed by fault injection or panicked) while
    /// `rank` still depended on it.
    PeerDead {
        /// The PE reporting the failure.
        rank: usize,
        /// The PE that died.
        dead: usize,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { rank, src, tag } => write!(
                f,
                "PE {rank}: receive from PE {src} (tag {tag}) exceeded its deadline"
            ),
            CommError::PeerDead { rank, dead } => {
                write!(f, "PE {rank}: peer PE {dead} died")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Crate-internal unwind sentinel: infallible comm APIs abort a poisoned
/// PE by panicking with this payload. The runner recognizes it and converts
/// the PE's result into `Err(CommError)` instead of resuming the panic, so
/// structured failures never masquerade as crashes.
pub(crate) struct CommAbort(pub(crate) CommError);

/// The fault-injection decision for one send, returned by
/// [`FaultHook::on_send`]. Payloads themselves never reach the hook — a
/// delayed message is parked in a sender-side limbo queue *inside* the comm
/// layer and released after `holds` later send events (or when the sender
/// next blocks, which bounds the delay and keeps every plan live).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendFault {
    /// Deliver normally.
    Deliver,
    /// Silently discard the message (a lost send; the receiver will hit the
    /// watchdog deadline unless the protocol tolerates the loss).
    Drop,
    /// Hold the message back across the next `holds` send events from this
    /// PE, reordering it behind later traffic to *other* tags. FIFO order
    /// per `(src, tag)` is preserved: follow-up messages for a tag whose
    /// queue is already in limbo join that queue unconditionally.
    Delay {
        /// Number of subsequent send events to hold the message for.
        holds: u32,
    },
    /// Sleep the sending thread for `micros` before delivering — a slow-PE
    /// stall (wall-clock only; delivery order is unchanged).
    Stall {
        /// Stall duration in microseconds.
        micros: u64,
    },
}

/// A deterministic fault-injection oracle (implemented by `pgp-chaos`).
///
/// Implementations must be pure functions of their arguments (plus their own
/// frozen configuration): the comm layer consults the hook on every send and
/// at every phase boundary, and replaying the same plan against the same
/// program must yield the same decisions. The xtask lint confines this
/// trait (and [`SendFault`]) to the comm layer and the `pgp-chaos` crate so
/// algorithm code can never grow a dependency on fault injection.
///
/// The limbo queues live in [`Comm`], in front of the mailboxes, so a
/// delayed payload never reaches its receiver early.
pub trait FaultHook: Send + Sync {
    /// Decision for send event `seq` (a per-sender counter) from `src` to
    /// `dst` with `tag`.
    fn on_send(&self, src: usize, dst: usize, tag: Tag, seq: u64) -> SendFault;

    /// If `Some(p)`, PE `rank` is killed (unwound, poisoning the group
    /// with [`CommError::PeerDead`]) when it starts phase `p` — phases are
    /// counted per PE as [`Comm::fresh_tag_block`] calls.
    fn kill_at_phase(&self, rank: usize) -> Option<u64> {
        let _ = rank;
        None
    }
}

/// The shared state of a PE group: the per-PE mailboxes and the
/// group-wide poison state.
pub struct Universe {
    mailboxes: Vec<Mailbox>,
    /// Fast poison flag, checked on every blocking-path entry; the
    /// authoritative record is `first_poison`.
    poisoned: AtomicBool,
    /// The first fatal failure observed anywhere in the group (first
    /// wins; it drives the unwind).
    first_poison: Mutex<Option<CommError>>,
    /// Watchdog deadline for blocking receives. `None` = park forever (the
    /// classic substrate; poison notifications still wake parked PEs).
    deadline: Option<Duration>,
    /// Fault-injection oracle; `None` = the zero-overhead fault-free path.
    hook: Option<Arc<dyn FaultHook>>,
    /// Observability registry; `None` = recording disabled (every recorder
    /// hook is a single branch).
    obs: Option<Arc<Obs>>,
}

impl Universe {
    /// Creates the shared state for `size` PEs: an optional watchdog
    /// `deadline` for blocking receives, an optional fault-injection `hook`
    /// (see [`FaultHook`]) and an optional observability registry `obs`
    /// (see `pgp-obs`). When `obs` is set, every [`Comm`] handed out by
    /// [`Universe::comm`] records sends/receives/waits into its rank's cell.
    pub fn with_config(
        size: usize,
        deadline: Option<Duration>,
        hook: Option<Arc<dyn FaultHook>>,
        obs: Option<Arc<Obs>>,
    ) -> Arc<Self> {
        assert!(size > 0, "need at least one PE");
        if let Some(o) = &obs {
            assert_eq!(o.p(), size, "obs registry sized for a different PE count");
            // All PE trace timestamps are measured from this run's setup
            // instant, so cross-PE timelines share one epoch.
            o.rebase_epoch();
        }
        Arc::new(Self {
            mailboxes: (0..size).map(|_| Mailbox::new(size)).collect(),
            poisoned: AtomicBool::new(false),
            first_poison: Mutex::new(None),
            deadline,
            hook,
            obs,
        })
    }

    /// A communicator handle for PE `rank`.
    pub fn comm(self: &Arc<Self>, rank: usize) -> Comm {
        assert!(rank < self.mailboxes.len());
        let recorder = self
            .obs
            .as_ref()
            .map_or_else(Recorder::disabled, |o| o.recorder(rank));
        Comm {
            universe: Arc::clone(self),
            rank,
            seq: AtomicU64::new(0),
            send_seq: AtomicU64::new(0),
            limbo: Mutex::new(Vec::new()),
            recorder,
        }
    }

    /// Number of PEs in the group.
    pub fn size(&self) -> usize {
        self.mailboxes.len()
    }

    /// Marks the whole universe failed with `err` (the first poison wins)
    /// and wakes every parked PE so the failure propagates promptly.
    ///
    /// Safe to call from any thread, any number of times; later calls keep
    /// the original error in the `poison` slot. Message payload visibility
    /// is unaffected — this only gates the blocking paths.
    pub fn poison(&self, err: CommError) {
        {
            let mut first = self.first_poison.lock();
            if first.is_none() {
                *first = Some(err);
                // Release pairs with the Acquire load in `is_poisoned`:
                // whoever sees the flag also sees the recorded error.
                self.poisoned.store(true, Ordering::Release);
            }
        }
        for mb in &self.mailboxes {
            mb.notify_all();
        }
    }

    /// The recorded poison error, if the universe is poisoned. The flag
    /// keeps the mutex off the (overwhelmingly common) healthy path.
    pub fn poison_error(&self) -> Option<CommError> {
        if !self.is_poisoned() {
            return None;
        }
        self.first_poison.lock().clone()
    }

    /// True iff [`Universe::poison`] has been called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

/// One sender-side limbo queue: messages for `(dst, tag)` held back by
/// fault injection, released after `holds` further send events or at the
/// sender's next blocking operation (whichever comes first).
struct LimboQueue {
    dst: usize,
    tag: Tag,
    holds: u32,
    msgs: VecDeque<Payload>,
}

/// A per-PE communicator: its rank and the [`Universe`] whose mailboxes
/// it sends into and receives from.
pub struct Comm {
    universe: Arc<Universe>,
    rank: usize,
    /// Sequence number for collective operations (same on all PEs because
    /// collectives are called SPMD-style in the same order everywhere).
    seq: AtomicU64,
    /// Send-event counter feeding [`FaultHook::on_send`] (single-owner).
    send_seq: AtomicU64,
    /// Delayed-send queues (empty unless a [`FaultHook`] is installed).
    /// Uncontended: only this PE's thread touches it; the lock exists so
    /// `Comm` stays `Sync` for the scoped-thread runner.
    limbo: Mutex<Vec<LimboQueue>>,
    /// This PE's observation handle (disabled unless the group carries
    /// an `Obs` registry).
    recorder: Recorder,
}

impl Drop for Comm {
    /// A PE that exits cleanly must not strand delayed sends — its peers
    /// may still be parked on them. Dead PEs (panicking, or in a poisoned
    /// group) keep their limbo: their messages are lost, like a crashed
    /// MPI rank's send buffers.
    fn drop(&mut self) {
        if self.universe.hook.is_none() || std::thread::panicking() || self.universe.is_poisoned() {
            return;
        }
        self.flush_limbo();
    }
}

/// Tags below this bound are free for user messages. Tag *blocks* handed
/// out by [`Comm::fresh_tag_block`] start here; each block spans 2^16 tags.
/// (Defined in [`crate::tags`], the tag-protocol source of truth;
/// re-exported here for the comm-layer callers that predate it.)
pub use crate::tags::COLLECTIVE_TAG_BASE;

impl Comm {
    /// This PE's rank in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of PEs.
    #[inline]
    pub fn size(&self) -> usize {
        self.universe.size()
    }

    /// This PE's observation recorder. Disabled (every hook one branch)
    /// unless the group was built with an [`Obs`] registry.
    #[inline]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Sends `msg` to PE `dst` with `tag`. Never blocks.
    pub fn send<T: Wire>(&self, dst: usize, tag: Tag, msg: T) {
        self.check_poison();
        let payload = pack(msg);
        if self.recorder.is_enabled() {
            self.recorder.on_send(dst, tag, payload.bytes);
        }
        if let Some(hook) = &self.universe.hook {
            self.chaos_send(&**hook, dst, tag, payload);
        } else {
            self.deliver(dst, tag, payload);
        }
    }

    /// Enqueues `payload` in PE `dst`'s mailbox. Never blocks on the
    /// receiver.
    #[inline]
    fn deliver(&self, dst: usize, tag: Tag, payload: Payload) {
        self.universe.mailboxes[dst].push(self.rank, tag, payload);
    }

    /// This PE's own mailbox: every receive and drain takes from it.
    #[inline]
    fn inbox(&self) -> &Mailbox {
        &self.universe.mailboxes[self.rank]
    }

    /// The fault-injected send path: consults the hook, parks delayed
    /// messages in limbo, and ages existing limbo queues by one send event.
    fn chaos_send(&self, hook: &dyn FaultHook, dst: usize, tag: Tag, payload: Payload) {
        // `send_seq` is per-Comm and each Comm is owned by one PE thread.
        let seq = self.send_seq.fetch_add(1, Ordering::Relaxed); // lint:relaxed-ok: single-owner counter
        let mut limbo = self.limbo.lock();
        // Age every existing limbo queue by this send event and release the
        // expired ones *before* handling the current message: a released
        // queue's messages precede the current one, so per-(src, tag) FIFO
        // holds even when the hook delays the same tag again immediately.
        let mut i = 0;
        while i < limbo.len() {
            limbo[i].holds -= 1;
            if limbo[i].holds == 0 {
                let q = limbo.swap_remove(i);
                for p in q.msgs {
                    self.deliver(q.dst, q.tag, p);
                }
            } else {
                i += 1;
            }
        }
        // FIFO per (src, tag): if this tag's queue is still in limbo, the
        // message must join it regardless of the hook's fresh decision —
        // otherwise it would overtake its predecessors.
        if let Some(q) = limbo.iter_mut().find(|q| q.dst == dst && q.tag == tag) {
            q.msgs.push_back(payload);
        } else {
            match hook.on_send(self.rank, dst, tag, seq) {
                SendFault::Deliver => self.deliver(dst, tag, payload),
                SendFault::Drop => {
                    // Drops are accounted per tag by the recorder (the
                    // conservation tests subtract them); the payload is
                    // simply discarded here.
                    if self.recorder.is_enabled() {
                        self.recorder.on_fault_drop(dst, tag, payload.bytes);
                    }
                }
                SendFault::Delay { holds } => {
                    self.recorder.on_fault_delay(dst, tag);
                    limbo.push(LimboQueue {
                        dst,
                        tag,
                        holds: holds.max(1),
                        msgs: VecDeque::from([payload]),
                    });
                }
                SendFault::Stall { micros } => {
                    self.recorder
                        .on_fault_stall(dst, tag, micros.saturating_mul(1_000));
                    std::thread::sleep(Duration::from_micros(micros));
                    self.deliver(dst, tag, payload);
                }
            }
        }
    }

    /// Releases every delayed send immediately (FIFO within each queue).
    /// Called before this PE blocks — a parked PE cannot produce further
    /// send events, so without this valve a delayed last message before a
    /// collective would deadlock the group instead of merely reordering.
    fn flush_limbo(&self) {
        let mut limbo = self.limbo.lock();
        for q in limbo.drain(..) {
            for p in q.msgs {
                self.deliver(q.dst, q.tag, p);
            }
        }
    }

    /// Flushes delayed sends if fault injection is active. No-op (one
    /// branch) on the fault-free path; called at every receive entry.
    #[inline]
    fn pre_block(&self) {
        if self.universe.hook.is_some() {
            self.flush_limbo();
        }
    }

    /// Unwinds with the poison error if the group is poisoned. The
    /// sentinel payload is recognized by the runner, which converts it into
    /// a structured `Err` (or re-raises the originating panic).
    #[inline]
    fn check_poison(&self) {
        if let Some(err) = self.universe.poison_error() {
            let err = self.localize(err);
            std::panic::panic_any(CommAbort(err));
        }
    }

    /// Rewrites a propagated poison error from this PE's perspective: a
    /// dead peer is reported as *this* rank's `PeerDead`; a timeout keeps
    /// its original coordinates (they name the watchdog origin).
    fn localize(&self, err: CommError) -> CommError {
        match err {
            CommError::PeerDead { dead, .. } => CommError::PeerDead {
                rank: self.rank,
                dead,
            },
            timeout @ CommError::Timeout { .. } => timeout,
        }
    }

    /// Records one received payload and unpacks it.
    fn finish_recv<T: Wire>(&self, src: usize, tag: Tag, payload: Payload) -> T {
        if self.recorder.is_enabled() {
            self.recorder.on_recv(src, tag, payload.bytes);
        }
        unpack(payload, src, tag)
    }

    /// Blocking selective receive: waits for a message from `src` with
    /// `tag` and returns its payload.
    ///
    /// Flushes this PE's limbo first (it is about to park and can produce
    /// no further send events), then parks on its mailbox — bounded by
    /// the group's watchdog deadline when one is set. If the deadline
    /// expires the group is poisoned (it is wedged — a lone timeout cannot
    /// be recovered locally), and on expiry or on poison while parked this
    /// unwinds with the comm-abort sentinel (the runner surfaces it as
    /// `Err(CommError)`). An available message wins over poison (the
    /// mailbox guarantees it), so already-delivered traffic stays
    /// receivable during an unwind.
    ///
    /// # Panics
    /// Panics if the received payload has a different type than `T` —
    /// that is a protocol bug, not a runtime condition.
    pub fn recv<T: Wire>(&self, src: usize, tag: Tag) -> T {
        self.pre_block();
        // Fast path: already queued — no wait accounting.
        if let Some(payload) = self.inbox().try_take(src, tag) {
            return self.finish_recv(src, tag, payload);
        }
        let wait_tok = self.recorder.start_wait(src, tag);
        let u = &self.universe;
        let err = match self.inbox().recv_blocking(src, tag, u.deadline, u) {
            RecvOutcome::Msg(payload) => {
                self.recorder.end_wait(wait_tok);
                return self.finish_recv(src, tag, payload);
            }
            RecvOutcome::Poisoned(err) => self.localize(err),
            RecvOutcome::TimedOut => {
                let err = CommError::Timeout {
                    rank: self.rank,
                    src,
                    tag,
                };
                // Poison first, then unwind: peers parked on us must
                // unwind too, or the join loop would hang on them even
                // though we failed cleanly.
                self.universe.poison(err.clone());
                err
            }
        };
        std::panic::panic_any(CommAbort(err))
    }

    /// Drains all currently queued messages with `tag` (any source) without
    /// blocking — used by the rumor-spreading protocol, which is fire-and-
    /// forget. Results are grouped by source rank, FIFO within a source.
    pub fn drain<T: Wire>(&self, tag: Tag) -> Vec<(usize, T)> {
        self.check_poison();
        self.pre_block();
        let raw = self.inbox().drain_tag(tag);
        if self.recorder.is_enabled() {
            for (src, payload) in &raw {
                self.recorder.on_recv(*src, tag, payload.bytes);
            }
        }
        raw.into_iter()
            .map(|(src, payload)| (src, unpack(payload, src, tag)))
            .collect()
    }

    /// Allocates a fresh block of 2^16 tags for one collective operation or
    /// exchange phase. All PEs perform collectives/exchanges in the same
    /// SPMD order, so the block numbers agree group-wide; sub-tags within a
    /// block (rounds) are the caller's to assign and can never collide with
    /// another call's tags.
    pub fn fresh_tag_block(&self) -> Tag {
        // `seq` is per-Comm and each Comm is owned by one PE thread, so
        // there is no cross-thread ordering to establish.
        let s = self.seq.fetch_add(1, Ordering::Relaxed); // lint:relaxed-ok: single-owner counter
        if let Some(hook) = &self.universe.hook {
            if hook.kill_at_phase(self.rank) == Some(s) {
                let err = CommError::PeerDead {
                    rank: self.rank,
                    dead: self.rank,
                };
                self.universe.poison(err.clone());
                std::panic::panic_any(CommAbort(err));
            }
        }
        COLLECTIVE_TAG_BASE + s * (1 << 16)
    }

    /// Number of phases (tag blocks) this PE has started so far. Chaos
    /// tests measure a fault-free run with this to pick a kill phase.
    pub fn phases_started(&self) -> u64 {
        // Single-owner counter (see `fresh_tag_block`).
        self.seq.load(Ordering::Relaxed) // lint:relaxed-ok: single-owner counter
    }
}

#[cfg(test)]
mod tests {

    use crate::run;

    #[test]
    fn ping_pong() {
        let results = run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, 42u64);
                comm.recv::<u64>(1, 8)
            } else {
                let x: u64 = comm.recv(0, 7);
                comm.send(0, 8, x * 2);
                x
            }
        });
        assert_eq!(results, vec![84, 42]);
    }

    #[test]
    fn selective_receive_by_tag() {
        let results = run(2, |comm| {
            if comm.rank() == 0 {
                // Send out of order; receiver asks for tag 2 first.
                comm.send(1, 1, "one".to_string());
                comm.send(1, 2, "two".to_string());
                String::new()
            } else {
                let two: String = comm.recv(0, 2);
                let one: String = comm.recv(0, 1);
                format!("{two},{one}")
            }
        });
        assert_eq!(results[1], "two,one");
    }

    #[test]
    fn selective_receive_by_source() {
        let results = run(3, |comm| {
            if comm.rank() == 2 {
                let a: u32 = comm.recv(1, 5);
                let b: u32 = comm.recv(0, 5);
                a * 100 + b
            } else {
                comm.send(2, 5, comm.rank() as u32);
                0
            }
        });
        assert_eq!(results[2], 100);
    }

    #[test]
    fn many_tags_one_sender_fifo_per_tag() {
        // Force slot collisions (more live tags than direct slots) and check
        // FIFO order within each tag while receiving tags out of order.
        const TAGS: u64 = 40;
        const PER_TAG: u64 = 5;
        let results = run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..PER_TAG {
                    for t in 0..TAGS {
                        comm.send(1, 100 + t, t * 1000 + i);
                    }
                }
                0
            } else {
                let mut ok = 0u64;
                for t in (0..TAGS).rev() {
                    for i in 0..PER_TAG {
                        let v: u64 = comm.recv(0, 100 + t);
                        assert_eq!(v, t * 1000 + i, "FIFO broken for tag {t}");
                        ok += 1;
                    }
                }
                ok
            }
        });
        assert_eq!(results[1], TAGS * PER_TAG);
    }

    #[test]
    #[should_panic(expected = "expected alloc::string::String, got alloc::vec::Vec<u64>")]
    fn type_mismatch_names_expected_and_actual() {
        run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, vec![1u64, 2, 3]);
            } else {
                let _: String = comm.recv(0, 5);
            }
        });
    }

    #[test]
    #[should_panic(expected = "expected alloc::string::String, got alloc::vec::Vec<u64>")]
    fn drain_type_mismatch_names_expected_and_actual() {
        run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, vec![1u64]);
            }
            // The send is queued before rank 0 enters the barrier, so the
            // drain below sees it.
            crate::collectives::barrier(comm);
            if comm.rank() == 1 {
                let _ = comm.drain::<String>(5);
            }
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "leaked tag block")]
    fn overflow_growth_past_soft_cap_is_caught() {
        use crate::mailbox::OVERFLOW_SOFT_CAP;
        run(2, |comm| {
            if comm.rank() == 0 {
                // More simultaneously live tags than slots + soft cap, none
                // of them ever received: the debug assertion must fire.
                for t in 0..(OVERFLOW_SOFT_CAP as u64 + 16) {
                    comm.send(1, 1000 + t, t);
                }
            }
        });
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use crate::runner::{run_config, RunConfig};
    use std::time::Instant;

    /// Delays every `n`-th send event by `holds` send events.
    struct DelayEveryNth {
        n: u64,
        holds: u32,
    }

    impl FaultHook for DelayEveryNth {
        fn on_send(&self, _src: usize, _dst: usize, _tag: Tag, seq: u64) -> SendFault {
            if seq.is_multiple_of(self.n) {
                SendFault::Delay { holds: self.holds }
            } else {
                SendFault::Deliver
            }
        }
    }

    /// Drops one specific (src, dst, tag) message.
    struct DropOne {
        src: usize,
        dst: usize,
        tag: Tag,
    }

    impl FaultHook for DropOne {
        fn on_send(&self, src: usize, dst: usize, tag: Tag, _seq: u64) -> SendFault {
            if (src, dst, tag) == (self.src, self.dst, self.tag) {
                SendFault::Drop
            } else {
                SendFault::Deliver
            }
        }
    }

    /// Kills `rank` when it starts phase `phase` (fresh_tag_block call).
    struct KillAt {
        rank: usize,
        phase: u64,
    }

    impl FaultHook for KillAt {
        fn on_send(&self, _src: usize, _dst: usize, _tag: Tag, _seq: u64) -> SendFault {
            SendFault::Deliver
        }

        fn kill_at_phase(&self, rank: usize) -> Option<u64> {
            (rank == self.rank).then_some(self.phase)
        }
    }

    #[test]
    fn delayed_sends_preserve_per_tag_fifo() {
        // Delay injection reorders across tags but must never reorder
        // within a (src, tag) stream — receivers see identical payloads.
        let cfg = RunConfig {
            obs: None,
            deadline: Some(Duration::from_secs(5)),
            fault_hook: Some(Arc::new(DelayEveryNth { n: 3, holds: 2 })),
            ..RunConfig::default()
        };
        let results = run_config(2, cfg, |comm| {
            if comm.rank() == 0 {
                for t in 0..4u64 {
                    for i in 0..10u64 {
                        comm.send(1, 10 + t, t * 100 + i);
                    }
                }
                Vec::new()
            } else {
                let mut got = Vec::new();
                for t in 0..4u64 {
                    for _ in 0..10u64 {
                        got.push(comm.recv::<u64>(0, 10 + t));
                    }
                }
                got
            }
        });
        let got = results[1].as_ref().expect("receiver succeeds");
        let want: Vec<u64> = (0..4u64)
            .flat_map(|t| (0..10u64).map(move |i| t * 100 + i))
            .collect();
        assert_eq!(got, &want, "delay injection must not break per-tag FIFO");
    }

    #[test]
    fn dropped_message_times_out_structurally() {
        let cfg = RunConfig {
            obs: None,
            deadline: Some(Duration::from_millis(60)),
            fault_hook: Some(Arc::new(DropOne {
                src: 0,
                dst: 1,
                tag: 7,
            })),
            ..RunConfig::default()
        };
        let results = run_config(2, cfg, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, 42u64);
                0
            } else {
                comm.recv::<u64>(0, 7) as usize
            }
        });
        assert!(
            matches!(
                results[1],
                Err(CommError::Timeout {
                    rank: 1,
                    src: 0,
                    tag: 7
                })
            ),
            "expected a structured timeout, got {:?}",
            results[1]
        );
    }

    #[test]
    fn killed_pe_poisons_the_group() {
        // Rank 1 dies at its first phase; rank 0 parks in a receive that
        // can never complete and must unwind with PeerDead promptly.
        let cfg = RunConfig {
            obs: None,
            deadline: Some(Duration::from_secs(5)),
            fault_hook: Some(Arc::new(KillAt { rank: 1, phase: 0 })),
            ..RunConfig::default()
        };
        let t0 = Instant::now(); // lint:instant-ok: test wall-clock bound
        let results = run_config(2, cfg, |comm| {
            if comm.rank() == 0 {
                comm.recv::<u64>(1, 3)
            } else {
                let _ = comm.fresh_tag_block(); // killed here
                comm.send(0, 3, 9u64);
                9
            }
        });
        assert!(
            matches!(results[0], Err(CommError::PeerDead { rank: 0, dead: 1 })),
            "rank 0 should observe rank 1's death, got {:?}",
            results[0]
        );
        assert!(
            matches!(results[1], Err(CommError::PeerDead { rank: 1, dead: 1 })),
            "rank 1 should report its own death, got {:?}",
            results[1]
        );
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "poison propagation must beat the watchdog deadline"
        );
    }

    #[test]
    fn drop_counter_tracks_injected_drops() {
        let obs = Obs::new(2);
        let cfg = RunConfig {
            obs: Some(Arc::clone(&obs)),
            deadline: None,
            fault_hook: Some(Arc::new(DropOne {
                src: 0,
                dst: 1,
                tag: 99,
            })),
            ..RunConfig::default()
        };
        let results = run_config(2, cfg, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 99, 1u64); // dropped
                comm.send(1, 100, 2u64); // delivered
            } else {
                assert_eq!(comm.recv::<u64>(0, 100), 2);
                assert!(comm.drain::<u64>(99).is_empty());
            }
        });
        for r in results {
            r.expect("run succeeds");
        }
        let report = obs.report();
        let dropped = report.total_dropped_per_tag();
        assert_eq!(dropped.get(&99).map(|c| c.msgs), Some(1));
        assert!(!dropped.contains_key(&100), "delivered tag must not count");
    }
}
