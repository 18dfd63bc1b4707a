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
//! Failure mapping:
//!
//! * a structured local fault (watchdog timeout, injected kill) is
//!   broadcast to all peers as a `POISON` control frame carrying the
//!   [`CommError`];
//! * EOF or a read error while the group is not tearing down — the link
//!   was reset under a live peer — becomes [`CommError::PeerDead`] naming
//!   the silent peer.
//!
//! The endpoints are wired by [`SocketGroup`]: PE threads connected
//! through `UnixStream::pair`, used by `run_config` with
//! [`BackendKind::Sockets`](super::BackendKind).

use super::frame::{control, read_frame, write_frame, CONTROL_TAG};
use super::thread::Mailbox;
use super::{Payload, PoisonState, RecvOutcome, Transport};
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
/// message.
pub(crate) struct SocketEndpoint {
    rank: usize,
    size: usize,
    mailbox: Mailbox,
    /// `links[peer]`; `None` at `peer == rank` (self-sends short-circuit
    /// into the local mailbox, matching the thread backend).
    links: Vec<Option<Mutex<SendLink>>>,
    /// Faults observed locally or via a `POISON` frame.
    poison: PoisonState,
    /// Set before an orderly teardown: readers treat subsequent EOFs as
    /// clean.
    closing: AtomicBool,
}

impl SocketEndpoint {
    /// An endpoint for PE `rank` of `size`, with `links[peer]` carrying
    /// the connected stream for each peer (`None` at own rank).
    fn new(rank: usize, size: usize, links: Vec<Option<UnixStream>>) -> Arc<Self> {
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
            poison: PoisonState::default(),
            closing: AtomicBool::new(false),
        })
    }

    /// Records `err` locally and wakes the owner thread if it is parked.
    /// Does *not* notify peers — used for faults that arrived FROM a
    /// peer, or that peers will observe on their own (an EOF is seen by
    /// every endpoint independently).
    fn poison_local(&self, err: CommError) {
        self.poison.record(err);
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

    /// Shuts every link down (both directions), unblocking reader
    /// threads on this side and delivering EOF to peers.
    fn shutdown_links(&self) {
        self.closing.store(true, Ordering::Release);
        for link in self.links.iter().flatten() {
            let _ = link.lock().stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Transport for SocketEndpoint {
    fn size(&self) -> usize {
        self.size
    }

    /// Frames `payload` and writes it on the link to `dst`; a self-send
    /// moves it straight into the local mailbox. A write failure (EPIPE /
    /// ECONNRESET: the peer's socket is gone) is mapped to
    /// [`CommError::PeerDead`] and poisons this endpoint; the send itself
    /// stays infallible, like every transport delivery.
    fn deliver(&self, dst: usize, tag: Tag, payload: Payload) {
        if dst == self.rank {
            self.mailbox.push(self.rank, tag, payload);
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
        if write_frame(&mut link.stream, tag, seq, &payload.0).is_err() {
            drop(link);
            self.poison_local(CommError::PeerDead {
                rank: self.rank,
                dead: dst,
            });
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
            .recv_blocking(src, tag, deadline, &|| self.poison.error())
    }

    fn poison(&self, err: CommError) {
        self.poison_local(err.clone());
        let mut payload = vec![control::POISON];
        err.encode(&mut payload);
        self.broadcast_control(&payload);
    }

    fn poison_error(&self) -> Option<CommError> {
        self.poison.error()
    }

    fn is_poisoned(&self) -> bool {
        self.poison.is_poisoned()
    }
}

/// Spawns the reader thread for frames arriving from `src` on `stream`
/// (a clone of the link's stream; the writer half stays with the
/// endpoint). Decodes frames into the endpoint's mailbox, verifies
/// per-`(src, tag)` seqnos gapless, handles control frames, and maps an
/// EOF/reset outside teardown to [`CommError::PeerDead`].
fn spawn_reader(endpoint: Arc<SocketEndpoint>, src: usize, stream: UnixStream) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut r = BufReader::new(stream);
        let mut expected: FxHashMap<Tag, u64> = FxHashMap::default();
        loop {
            match read_frame(&mut r) {
                Ok(Some(frame)) if frame.tag == CONTROL_TAG => {
                    if frame.payload.first() == Some(&control::POISON) {
                        // Propagated fault: record as-is (the receiving
                        // Comm localizes at observation time, exactly like
                        // the thread backend's shared poison slot).
                        if let Ok(err) = CommError::decode_all(&frame.payload[1..]) {
                            endpoint.poison_local(err);
                        }
                    }
                }
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
                        .push(src, frame.tag, Payload(frame.payload));
                }
                Ok(None) | Err(_) => {
                    // EOF or reset. Clean iff we are tearing the group
                    // down ourselves; anything else is a peer death.
                    if !endpoint.closing.load(Ordering::Acquire) {
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
/// but all of them talk through real kernel socketpairs — each payload is
/// framed, written, read back and sequence-checked. This is the backend
/// `RunConfig { backend: BackendKind::Sockets, .. }` selects, and the one
/// the conformance and cross-backend golden suites drive.
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
