//! The Unix-domain socket transport (DESIGN.md §15).
//!
//! Every pair of PEs shares one duplex stream socket. A PE's endpoint
//! writes [`frame`](super::frame)d messages on its per-peer links
//! (mutex-serialized, with per-`(dst, tag)` sequence numbers) and owns one
//! *reader thread per peer* that decodes incoming frames into the same
//! [`Mailbox`] structure the thread backend uses — so selective receive,
//! FIFO-per-`(src, tag)`, and the parking protocol are shared code, and
//! only the delivery path differs.
//!
//! Failure mapping (the whole point of the exercise):
//!
//! * a structured local fault (watchdog timeout, injected kill) is
//!   broadcast to all peers as a `POISON` control frame carrying the
//!   [`CommError`];
//! * an orderly shutdown announces itself with a `BYE` control frame, so
//!   the EOF that follows is clean;
//! * EOF or a read error *without* `BYE` — the peer process was
//!   SIGKILLed, crashed, or its connection reset — becomes
//!   [`CommError::PeerDead`] naming the silent peer, which is exactly the
//!   evidence the PR 8 recovery supervisor consumes.
//!
//! The same endpoint serves two modes: *in-process* ([`SocketGroup`] —
//! PE threads wired through `UnixStream::pair`, used by `run_config` with
//! [`BackendKind::Sockets`](super::BackendKind)) and *multi-process*
//! (one endpoint per OS process, wired by [`process`](super::process)).

use super::frame::{control, read_frame, write_frame, CONTROL_TAG};
use super::thread::Mailbox;
use super::{Payload, RecvOutcome, Transport};
use crate::comm::{Comm, CommError, FaultHook, Tag};
use crate::wire::Wire;
use parking_lot::Mutex;
use pgp_obs::{Obs, Recorder};
use rustc_hash::FxHashMap;
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One outgoing link: the stream to a peer plus the per-tag sequence
/// counters stamped into every frame (verified gapless by the peer's
/// reader).
struct SendLink {
    stream: UnixStream,
    seq_by_tag: FxHashMap<Tag, u64>,
}

/// One PE's socket endpoint: the per-peer send links, the local inbox fed
/// by this endpoint's reader threads, and the (endpoint-local copy of the)
/// group poison state. Unlike the thread backend there is no shared
/// `Universe` — poison propagates through `POISON` frames like any other
/// message, which is what makes the failure protocol honest enough to
/// survive real process boundaries.
pub(crate) struct SocketEndpoint {
    rank: usize,
    size: usize,
    mailbox: Mailbox,
    /// `links[peer]`; `None` at `peer == rank` (self-sends short-circuit
    /// into the local mailbox, matching the thread backend).
    links: Vec<Option<Mutex<SendLink>>>,
    /// Fast poison flag; the authoritative record is `poison`.
    poisoned: AtomicBool,
    /// First fatal failure observed (locally or via a `POISON` frame).
    poison: Mutex<Option<CommError>>,
    /// Every distinct fault observed, in arrival order (consensus input).
    faults: Mutex<Vec<CommError>>,
    /// Set before an orderly teardown: readers treat subsequent EOFs as
    /// clean even without a `BYE` (in-process mode closes by dropping).
    closing: AtomicBool,
}

impl SocketEndpoint {
    /// An endpoint for PE `rank` of `size`, with `links[peer]` carrying
    /// the connected stream for each peer (`None` at own rank).
    pub(crate) fn new(rank: usize, size: usize, links: Vec<Option<UnixStream>>) -> Arc<Self> {
        assert_eq!(links.len(), size, "one link slot per peer");
        Arc::new(SocketEndpoint {
            rank,
            size,
            mailbox: Mailbox::new(size),
            links: links
                .into_iter()
                .map(|s| {
                    s.map(|stream| {
                        Mutex::new(SendLink {
                            stream,
                            seq_by_tag: FxHashMap::default(),
                        })
                    })
                })
                .collect(),
            poisoned: AtomicBool::new(false),
            poison: Mutex::new(None),
            faults: Mutex::new(Vec::new()),
            closing: AtomicBool::new(false),
        })
    }

    /// Records `err` locally (ledger + first-wins poison slot) and wakes
    /// the owner thread if it is parked. Does *not* notify peers — used
    /// for faults that arrived FROM a peer, or that peers will observe on
    /// their own (an EOF is seen by every process independently).
    pub(crate) fn poison_local(&self, err: CommError) {
        {
            let mut ledger = self.faults.lock();
            if !ledger.contains(&err) {
                ledger.push(err.clone());
            }
        }
        {
            let mut slot = self.poison.lock();
            if slot.is_none() {
                *slot = Some(err);
                // Release pairs with the Acquire load in `poison_error`:
                // whoever sees the flag also sees the recorded error.
                self.poisoned.store(true, Ordering::Release);
            }
        }
        self.mailbox.notify_all();
    }

    /// Broadcasts a control frame to every peer, ignoring write failures
    /// (a peer that is already gone cannot be informed of anything).
    fn broadcast_control(&self, payload: &[u8]) {
        for link in self.links.iter().flatten() {
            let mut link = link.lock();
            let _ = write_frame(&mut link.stream, CONTROL_TAG, 0, payload);
        }
    }

    /// Announces an orderly shutdown (`BYE` on every link) and marks the
    /// endpoint closing, so peers — and this endpoint's own readers —
    /// treat the following EOFs as clean.
    pub(crate) fn shutdown_clean(&self) {
        self.closing.store(true, Ordering::Release);
        self.broadcast_control(&[control::BYE]);
        self.shutdown_links();
    }

    /// Half-closes every link (both directions), unblocking reader
    /// threads on this side and delivering EOF to peers.
    pub(crate) fn shutdown_links(&self) {
        self.closing.store(true, Ordering::Release);
        for link in self.links.iter().flatten() {
            let _ = link.lock().stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// This endpoint's fault ledger (arrival order, distinct errors).
    pub(crate) fn fault_ledger(&self) -> Vec<CommError> {
        self.faults.lock().clone()
    }

    /// Frames `bytes` and writes them on the link to `dst`. A write
    /// failure (EPIPE / ECONNRESET: the peer's socket is gone) is mapped
    /// to [`CommError::PeerDead`] and poisons this endpoint; the send
    /// itself stays infallible, like every transport delivery.
    fn send_frame(&self, dst: usize, tag: Tag, bytes: &[u8]) {
        if dst == self.rank {
            self.mailbox
                .push(self.rank, tag, Payload::Bytes(bytes.to_vec()));
            return;
        }
        let link = self.links[dst]
            .as_ref()
            .expect("link exists for every peer");
        let mut link = link.lock();
        let seq = {
            let counter = link.seq_by_tag.entry(tag).or_insert(0);
            let s = *counter;
            *counter += 1;
            s
        };
        if write_frame(&mut link.stream, tag, seq, bytes).is_err() {
            drop(link);
            self.poison_local(CommError::PeerDead {
                rank: self.rank,
                dead: dst,
            });
        }
    }

    /// The poison check readers and the blocking path share.
    fn poison_error_raw(&self) -> Option<CommError> {
        if !self.poisoned.load(Ordering::Acquire) {
            return None;
        }
        self.poison.lock().clone()
    }
}

impl Transport for SocketEndpoint {
    fn size(&self) -> usize {
        self.size
    }

    fn encoded(&self) -> bool {
        true
    }

    fn deliver(&self, dst: usize, tag: Tag, payload: Payload) {
        match payload {
            Payload::Bytes(bytes) => self.send_frame(dst, tag, &bytes),
            // `Comm` packs with `pack_encoded` whenever `encoded()` is
            // true, so a non-Bytes payload here is a comm-layer bug.
            _ => unreachable!("socket transport delivers encoded payloads only"),
        }
    }

    fn try_take(&self, src: usize, tag: Tag) -> Option<Payload> {
        self.mailbox.try_take(src, tag)
    }

    fn drain_tag(&self, tag: Tag) -> Vec<(usize, Payload)> {
        self.mailbox.drain_tag(tag)
    }

    fn recv_blocking(&self, src: usize, tag: Tag, deadline: Option<Duration>) -> RecvOutcome {
        self.mailbox
            .recv_blocking(src, tag, deadline, &|| self.poison_error_raw())
    }

    fn poison(&self, err: CommError) {
        self.poison_local(err.clone());
        let mut payload = vec![control::POISON];
        err.encode(&mut payload);
        self.broadcast_control(&payload);
    }

    fn poison_error(&self) -> Option<CommError> {
        self.poison_error_raw()
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

/// Spawns the reader thread for frames arriving from `src` on `stream`
/// (a clone of the link's stream; the writer half stays with the
/// endpoint). Decodes frames into the endpoint's mailbox, verifies
/// per-`(src, tag)` seqnos gapless, handles control frames, and maps an
/// unannounced EOF/reset to [`CommError::PeerDead`].
pub(crate) fn spawn_reader(
    endpoint: Arc<SocketEndpoint>,
    src: usize,
    stream: UnixStream,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut r = BufReader::new(stream);
        let mut expected: FxHashMap<Tag, u64> = FxHashMap::default();
        let mut saw_bye = false;
        loop {
            match read_frame(&mut r) {
                Ok(Some(frame)) if frame.tag == CONTROL_TAG => match frame.payload.first() {
                    Some(&control::POISON) => {
                        // Propagated fault: record as-is (the receiving
                        // Comm localizes at observation time, exactly like
                        // the thread backend's shared poison slot).
                        if let Ok(err) = CommError::decode_all(&frame.payload[1..]) {
                            endpoint.poison_local(err);
                        }
                    }
                    Some(&control::BYE) => saw_bye = true,
                    _ => {}
                },
                Ok(Some(frame)) => {
                    let want = expected.entry(frame.tag).or_insert(0);
                    if frame.seq != *want {
                        // A gap in the per-(src, tag) stream means the
                        // transport itself lost or reordered a frame —
                        // treat the link as corrupt and the peer as gone.
                        debug_assert!(
                            false,
                            "seqno gap from {src} tag {}: want {}, got {}",
                            frame.tag, want, frame.seq
                        );
                        endpoint.poison_local(CommError::PeerDead {
                            rank: endpoint.rank,
                            dead: src,
                        });
                        return;
                    }
                    *want += 1;
                    endpoint
                        .mailbox
                        .push(src, frame.tag, Payload::Bytes(frame.payload));
                }
                Ok(None) | Err(_) => {
                    // EOF or reset. Clean iff announced (BYE) or we are
                    // tearing the group down ourselves; anything else is
                    // an unannounced peer death.
                    if !saw_bye && !endpoint.closing.load(Ordering::Acquire) {
                        endpoint.poison_local(CommError::PeerDead {
                            rank: endpoint.rank,
                            dead: src,
                        });
                    }
                    return;
                }
            }
        }
    })
}

/// The in-process socket group: every PE is still a thread (so the SPMD
/// closures run unchanged and the runner's join/panic protocol applies),
/// but all of them talk through real kernel socketpairs — each message is
/// encoded, framed, sequence-checked and decoded exactly as in the
/// multi-process mode. This is the backend `RunConfig { backend:
/// BackendKind::Sockets, .. }` selects, and the one the conformance and
/// cross-backend golden suites drive.
pub(crate) struct SocketGroup {
    endpoints: Vec<Arc<SocketEndpoint>>,
    readers: Vec<JoinHandle<()>>,
    deadline: Option<Duration>,
    hook: Option<Arc<dyn FaultHook>>,
    obs: Option<Arc<Obs>>,
}

impl SocketGroup {
    /// Wires a full mesh of socketpairs between `size` PE endpoints and
    /// spawns their reader threads.
    ///
    /// # Panics
    /// Panics if the kernel refuses a socketpair (fd exhaustion) — an
    /// environment error, not a run outcome.
    pub(crate) fn new(
        size: usize,
        deadline: Option<Duration>,
        hook: Option<Arc<dyn FaultHook>>,
        obs: Option<Arc<Obs>>,
    ) -> Self {
        assert!(size > 0, "need at least one PE");
        if let Some(o) = &obs {
            assert_eq!(o.p(), size, "obs registry sized for a different PE count");
            o.rebase_epoch();
        }
        let mut link_streams: Vec<Vec<Option<UnixStream>>> = (0..size)
            .map(|_| (0..size).map(|_| None).collect())
            .collect();
        let mut reader_streams: Vec<Vec<Option<UnixStream>>> = (0..size)
            .map(|_| (0..size).map(|_| None).collect())
            .collect();
        for i in 0..size {
            for j in (i + 1)..size {
                let (a, b) = UnixStream::pair().expect("socket backend: socketpair");
                reader_streams[i][j] = Some(a.try_clone().expect("socket backend: clone"));
                reader_streams[j][i] = Some(b.try_clone().expect("socket backend: clone"));
                link_streams[i][j] = Some(a);
                link_streams[j][i] = Some(b);
            }
        }
        let endpoints: Vec<Arc<SocketEndpoint>> = link_streams
            .into_iter()
            .enumerate()
            .map(|(rank, links)| SocketEndpoint::new(rank, size, links))
            .collect();
        let mut readers = Vec::new();
        for (rank, streams) in reader_streams.into_iter().enumerate() {
            for (src, stream) in streams.into_iter().enumerate() {
                if let Some(stream) = stream {
                    readers.push(spawn_reader(Arc::clone(&endpoints[rank]), src, stream));
                }
            }
        }
        SocketGroup {
            endpoints,
            readers,
            deadline,
            hook,
            obs,
        }
    }

    /// Number of PEs in the group.
    pub(crate) fn size(&self) -> usize {
        self.endpoints.len()
    }

    /// A communicator handle for PE `rank`.
    pub(crate) fn comm(&self, rank: usize) -> Comm {
        assert!(rank < self.endpoints.len());
        let recorder = self
            .obs
            .as_ref()
            .map_or_else(Recorder::disabled, |o| o.recorder(rank));
        Comm::from_parts(
            Arc::clone(&self.endpoints[rank]) as Arc<dyn Transport>,
            rank,
            self.deadline,
            self.hook.clone(),
            recorder,
        )
    }

    /// Poisons the group on behalf of `rank` (broadcasts to all peers).
    pub(crate) fn poison(&self, rank: usize, err: CommError) {
        self.endpoints[rank].poison(err);
    }

    /// The union of every endpoint's fault ledger, rank order, distinct.
    pub(crate) fn fault_ledger(&self) -> Vec<CommError> {
        let mut out: Vec<CommError> = Vec::new();
        for ep in &self.endpoints {
            for err in ep.fault_ledger() {
                if !out.contains(&err) {
                    out.push(err);
                }
            }
        }
        out
    }
}

impl Drop for SocketGroup {
    /// Orderly teardown after the PE threads have joined: mark every
    /// endpoint closing (so readers treat the coming EOFs as clean), shut
    /// the streams down to unblock the readers, and join them.
    fn drop(&mut self) {
        for ep in &self.endpoints {
            ep.closing.store(true, Ordering::Release);
        }
        for ep in &self.endpoints {
            ep.shutdown_links();
        }
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}
