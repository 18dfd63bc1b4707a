//! Concurrency tests for the mailbox handshake in `mailbox.rs`.
//!
//! Two layers:
//!
//! 1. **Stress tests** (always on): many PEs hammer the mutex+condvar
//!    mailboxes with interleaved tags and sources and assert nothing is
//!    lost, duplicated, or mis-routed. These are the target of
//!    `scripts/sanitize.sh` (ThreadSanitizer / Miri): the schedules they
//!    generate cover the send→notify→wake→selective-remove handshake that
//!    a data race would corrupt.
//!
//! 2. **Loom model** (`--cfg loom`): an exhaustive model check of the same
//!    protocol — producer pushes under a mutex then notifies, consumer
//!    waits on the condvar and selectively removes. The model replicates
//!    the `Mailbox` structure with loom types rather than instrumenting
//!    `mailbox.rs` itself, which is standard loom practice (loom's sync types
//!    must replace the real ones at compile time). The `loom` crate is not
//!    vendored in the offline build image, so this module only compiles
//!    once `loom` is added as a dev-dependency and tests run with
//!    `RUSTFLAGS="--cfg loom" cargo test -p pgp-dmp --test concurrency`.

use pgp_dmp::run;

/// Every PE sends a batch to every other PE under one tag per round;
/// receivers take them in a scrambled order. Nothing may be lost or
/// duplicated, and selective receive must never hand over a message from
/// the wrong (source, tag).
#[test]
fn all_to_all_stress_no_loss_no_mixups() {
    const ROUNDS: u64 = 20;
    let p = 8;
    let results = run(p, |comm| {
        let me = comm.rank() as u64;
        let mut received: u64 = 0;
        for round in 0..ROUNDS {
            let tag = 1000 + round;
            for dst in 0..comm.size() {
                if dst != comm.rank() {
                    // Payload encodes (sender, round) so mis-routing is
                    // detectable, not just miscounting.
                    comm.send(dst, tag, me * 10_000 + round);
                }
            }
            // Receive from peers in reverse order to force queue scans.
            for src in (0..comm.size()).rev() {
                if src != comm.rank() {
                    let v: u64 = comm.recv(src, tag);
                    assert_eq!(v, src as u64 * 10_000 + round, "mis-routed message");
                    received += 1;
                }
            }
        }
        received
    });
    for r in results {
        assert_eq!(r, ROUNDS * (p as u64 - 1));
    }
}

/// Interleaved tags under contention: a receiver asking for tag B first
/// must block until B arrives even while A-messages pile up, and still
/// deliver the A backlog afterwards, in order per (source, tag).
#[test]
fn selective_receive_under_contention() {
    let results = run(2, |comm| {
        if comm.rank() == 0 {
            for i in 0..500u64 {
                comm.send(1, 7, i); // backlog on tag 7
            }
            comm.send(1, 9, 4242u64); // the one tag-9 message, last
            0
        } else {
            let nine: u64 = comm.recv(0, 9);
            assert_eq!(nine, 4242);
            // The backlog must still be intact and FIFO per (src, tag).
            (0..500u64)
                .map(|i| u64::from(comm.recv::<u64>(0, 7) == i))
                .sum()
        }
    });
    assert_eq!(results[1], 500);
}

/// Many senders × many tags — more distinct live tags than the mailbox has
/// direct slot buckets (8), so the overflow path is exercised under
/// contention. Every (source, tag) stream must stay FIFO, and the
/// adversarial receive order (reversed tags, reversed sources) must never
/// lose a wakeup: each `recv` below blocks until its exact stream head
/// arrives.
#[test]
fn many_senders_many_tags_fifo_per_src_tag() {
    const TAGS: u64 = 24;
    const PER_TAG: u64 = 8;
    let p = 5;
    let results = run(p, |comm| {
        if comm.rank() != 0 {
            // Interleave tags so bucket queues fill round-robin rather than
            // one tag at a time.
            for seq in 0..PER_TAG {
                for tag in 0..TAGS {
                    let payload = comm.rank() as u64 * 1_000_000 + tag * 1_000 + seq;
                    comm.send(0, 500 + tag, payload);
                }
            }
            u64::MAX
        } else {
            let mut ok = 0u64;
            for tag in (0..TAGS).rev() {
                for src in (1..comm.size()).rev() {
                    for seq in 0..PER_TAG {
                        let v: u64 = comm.recv(src, 500 + tag);
                        let expect = src as u64 * 1_000_000 + tag * 1_000 + seq;
                        assert_eq!(v, expect, "stream (src={src}, tag={tag}) broke FIFO");
                        ok += 1;
                    }
                }
            }
            ok
        }
    });
    assert_eq!(results[0], TAGS * PER_TAG * 4);
}

/// Collectives under repetition: tag blocks from `fresh_tag_block` must
/// keep back-to-back barriers/allreduces from interfering.
#[test]
fn repeated_collectives_do_not_interfere() {
    use pgp_dmp::collectives::{allreduce_sum, barrier};
    let results = run(4, |comm| {
        let mut acc = 0u64;
        for i in 0..100u64 {
            acc += allreduce_sum(comm, i + comm.rank() as u64);
            if i % 7 == 0 {
                barrier(comm);
            }
        }
        acc
    });
    assert!(
        results.windows(2).all(|w| w[0] == w[1]),
        "PEs disagree: {results:?}"
    );
}

/// Exhaustive loom model of the *bucketed* mailbox handshake (see module
/// docs for how to enable). The model mirrors `mailbox.rs`: messages land in
/// per-tag FIFO queues (fixed slots plus an overflow list, claimed in the
/// same order as the real `SrcState::push`), the producer notifies with
/// `notify_one`, and a *single* consumer waits then selectively removes —
/// the single-consumer invariant is exactly what makes `notify_one` safe,
/// and the model checks that no interleaving loses a wakeup or breaks
/// per-tag FIFO under it. Slot count is 2 (not 8) to keep the state space
/// small; the two model tags deliberately collide on one slot so the
/// overflow claim path is inside the checked schedules.
#[cfg(loom)]
mod loom_model {
    use loom::sync::{Arc, Condvar, Mutex};
    use loom::thread;
    use std::collections::VecDeque;

    const SLOTS: usize = 2;

    #[derive(Default)]
    struct TagQueue {
        tag: u64,
        fifo: VecDeque<u64>,
    }

    #[derive(Default)]
    struct SrcState {
        slots: [TagQueue; SLOTS],
        overflow: Vec<TagQueue>,
    }

    fn slot_of(tag: u64) -> usize {
        tag as usize % SLOTS
    }

    impl SrcState {
        // Same claim order as `mailbox.rs`: live slot match, live overflow
        // match, empty-slot claim, empty-overflow claim, append.
        fn push(&mut self, tag: u64, val: u64) {
            let s = slot_of(tag);
            if !self.slots[s].fifo.is_empty() && self.slots[s].tag == tag {
                self.slots[s].fifo.push_back(val);
                return;
            }
            if let Some(q) = self
                .overflow
                .iter_mut()
                .find(|q| !q.fifo.is_empty() && q.tag == tag)
            {
                q.fifo.push_back(val);
                return;
            }
            let claimed = if self.slots[s].fifo.is_empty() {
                &mut self.slots[s]
            } else if let Some(i) = self.overflow.iter().position(|q| q.fifo.is_empty()) {
                &mut self.overflow[i]
            } else {
                self.overflow.push(TagQueue::default());
                self.overflow.last_mut().unwrap()
            };
            claimed.tag = tag;
            claimed.fifo.push_back(val);
        }

        fn take(&mut self, tag: u64) -> Option<u64> {
            let s = slot_of(tag);
            if !self.slots[s].fifo.is_empty() && self.slots[s].tag == tag {
                return self.slots[s].fifo.pop_front();
            }
            self.overflow
                .iter_mut()
                .find(|q| !q.fifo.is_empty() && q.tag == tag)
                .and_then(|q| q.fifo.pop_front())
        }
    }

    struct Mailbox {
        inner: Mutex<SrcState>,
        signal: Condvar,
    }

    #[test]
    fn bucketed_handshake_has_no_lost_wakeups() {
        loom::model(|| {
            let mb = Arc::new(Mailbox {
                inner: Mutex::new(SrcState::default()),
                signal: Condvar::new(),
            });
            let producer = {
                let mb = Arc::clone(&mb);
                thread::spawn(move || {
                    // Tags 7 and 9 both hash to slot 1 (mod 2): the second
                    // push must claim a fresh queue, the third must find
                    // the live tag-7 queue again.
                    for (tag, val) in [(7u64, 10u64), (9, 20), (7, 11)] {
                        let mut inner = mb.inner.lock().unwrap();
                        inner.push(tag, val);
                        drop(inner);
                        mb.signal.notify_one();
                    }
                })
            };
            // Single consumer (the invariant behind notify_one): selective
            // receive of tag 9 first, then the tag-7 stream in FIFO order.
            for (want, expect) in [(9u64, 20u64), (7, 10), (7, 11)] {
                let mut inner = mb.inner.lock().unwrap();
                loop {
                    if let Some(v) = inner.take(want) {
                        assert_eq!(v, expect, "per-tag FIFO broken");
                        break;
                    }
                    inner = mb.signal.wait(inner).unwrap();
                }
            }
            producer.join().unwrap();
        });
    }
}
