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
//! MPI program's (DESIGN.md §11).
//!
//! # Fault model (DESIGN.md §9)
//!
//! A [`Universe`] can be built with a watchdog deadline and a
//! [`DelayPlan`]. Failures are reported as [`CommError`] through the
//! *poison* protocol: the first PE to observe a fatal condition (deadline
//! expiry, a panic) poisons the group, and every other PE unwinds with a
//! structured error at its next blocking operation instead of parking
//! forever. The delay plan is a test hook: it holds seeded sends back in
//! per-`(dst, tag)` limbo queues, reordering them across tags, and a
//! correct protocol returns bit-identical results under it.

use crate::mailbox::{pack, unpack, Mailbox, Payload, RecvOutcome};
use crate::runner::mix_seed;
use crate::wire::Wire;
use parking_lot::Mutex;
use pgp_graph::ids;
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
    /// A peer PE panicked while `rank` still depended on it.
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

/// Per-mille probabilities are out of this many send events.
const PER_MILLE: u64 = 1000;

// Distinct salts keep the delay roll and the hold-count roll independent.
const SALT_DELAY: u64 = 0xDE1;
const SALT_HOLDS: u64 = 0x401D;

/// A seeded cross-tag delay plan, the one injected fault (DESIGN.md §9).
///
/// Each send event is delayed with probability `per_mille / 1000`: it is
/// parked in a sender-side limbo queue and released after a seeded
/// `1..=max_holds` later send events from the same PE, or when that PE
/// next blocks. FIFO per `(src, tag)` is kept, so only traffic on
/// *different* tags is reordered, and every decision is a pure function of
/// `(seed, src, dst, tag, send sequence number)`: the same plan replays
/// the same delays.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DelayPlan {
    /// Seed of every roll.
    pub seed: u64,
    /// Per mille (0..=1000) of send events that are delayed.
    pub per_mille: u64,
    /// Most send events a delayed message is held across.
    pub max_holds: u32,
}

impl DelayPlan {
    /// The number of later send events that send `seq` from `src` to `dst`
    /// on `tag` is held for, or `None` to deliver it now.
    fn holds(&self, src: usize, dst: usize, tag: Tag, seq: u64) -> Option<u32> {
        if self.roll(SALT_DELAY, src, dst, tag, seq) >= self.per_mille {
            return None;
        }
        let span = u64::from(self.max_holds.max(1));
        let holds = 1 + self.roll(SALT_HOLDS, src, dst, tag, seq) % span;
        Some(u32::try_from(holds).expect("holds bounded by max_holds (u32)"))
    }

    /// The seeded roll in `0..1000` for one send event and `salt`.
    fn roll(&self, salt: u64, src: usize, dst: usize, tag: Tag, seq: u64) -> u64 {
        let mut h = mix_seed(self.seed, salt);
        h = mix_seed(h, ids::count_global(src));
        h = mix_seed(h, ids::count_global(dst).wrapping_add(tag));
        mix_seed(h, seq) % PER_MILLE
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
    /// Seeded send delays; `None` = every send is delivered at once.
    delay: Option<DelayPlan>,
    /// Observability registry; `None` = recording disabled (every recorder
    /// hook is a single branch).
    obs: Option<Arc<Obs>>,
}

impl Universe {
    /// Creates the shared state for `size` PEs: an optional watchdog
    /// `deadline` for blocking receives, an optional [`DelayPlan`] and an
    /// optional observability registry `obs`
    /// (see `pgp-obs`). When `obs` is set, every [`Comm`] handed out by
    /// [`Universe::comm`] records sends/receives/waits into its rank's cell.
    pub fn with_config(
        size: usize,
        deadline: Option<Duration>,
        delay: Option<DelayPlan>,
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
            delay,
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
/// the [`DelayPlan`], released after `holds` further send events or at the
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
    /// Send-event counter feeding the [`DelayPlan`] rolls (single-owner).
    send_seq: AtomicU64,
    /// Delayed-send queues (empty unless a [`DelayPlan`] is installed).
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
        if self.universe.delay.is_none() || std::thread::panicking() || self.universe.is_poisoned()
        {
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
        if let Some(plan) = &self.universe.delay {
            self.delay_send(plan, dst, tag, payload);
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

    /// This PE's own mailbox: every receive takes from it.
    #[inline]
    fn inbox(&self) -> &Mailbox {
        &self.universe.mailboxes[self.rank]
    }

    /// The delayed send path: ages existing limbo queues by one send
    /// event, then rolls the plan and parks the message or delivers it.
    fn delay_send(&self, plan: &DelayPlan, dst: usize, tag: Tag, payload: Payload) {
        // `send_seq` is per-Comm and each Comm is owned by one PE thread.
        let seq = self.send_seq.fetch_add(1, Ordering::Relaxed); // lint:relaxed-ok: single-owner counter
        let mut limbo = self.limbo.lock();
        // Age every existing limbo queue by this send event and release the
        // expired ones *before* handling the current message: a released
        // queue's messages precede the current one, so per-(src, tag) FIFO
        // holds even when the plan delays the same tag again immediately.
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
        // message must join it regardless of the plan's fresh roll —
        // otherwise it would overtake its predecessors.
        if let Some(q) = limbo.iter_mut().find(|q| q.dst == dst && q.tag == tag) {
            q.msgs.push_back(payload);
        } else if let Some(holds) = plan.holds(self.rank, dst, tag, seq) {
            self.recorder.on_delay(dst, tag);
            limbo.push(LimboQueue {
                dst,
                tag,
                holds,
                msgs: VecDeque::from([payload]),
            });
        } else {
            self.deliver(dst, tag, payload);
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

    /// Flushes delayed sends if a [`DelayPlan`] is installed. No-op (one
    /// branch) otherwise; called at every receive entry.
    #[inline]
    fn pre_block(&self) {
        if self.universe.delay.is_some() {
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

    /// Allocates a fresh block of 2^16 tags for one collective operation or
    /// exchange phase. All PEs perform collectives/exchanges in the same
    /// SPMD order, so the block numbers agree group-wide; sub-tags within a
    /// block (rounds) are the caller's to assign and can never collide with
    /// another call's tags.
    pub fn fresh_tag_block(&self) -> Tag {
        // `seq` is per-Comm and each Comm is owned by one PE thread, so
        // there is no cross-thread ordering to establish.
        let s = self.seq.fetch_add(1, Ordering::Relaxed); // lint:relaxed-ok: single-owner counter
        COLLECTIVE_TAG_BASE + s * (1 << 16)
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
mod delay_tests {
    use super::*;
    use crate::runner::{run_config, RunConfig};

    #[test]
    fn delayed_sends_preserve_per_tag_fifo() {
        // Delay injection reorders across tags but must never reorder
        // within a (src, tag) stream — receivers see identical payloads.
        let obs = Obs::new(2);
        let cfg = RunConfig {
            obs: Some(Arc::clone(&obs)),
            deadline: Some(Duration::from_secs(5)),
            delay: Some(DelayPlan {
                seed: 3,
                per_mille: 300,
                max_holds: 2,
            }),
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
        let delayed = obs.report().per_pe[0].comm.delayed;
        assert!(delayed > 0, "the plan never delayed a send");
    }
}
