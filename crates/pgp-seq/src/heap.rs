//! The one indexed max-heap of `pgp-seq`: greedy growing and the FM pass loop
//! both keep each node at most once, at one entry, and find it again by node.

use pgp_graph::{Node, Weight};
use std::cmp::Reverse;

/// A heap entry: ordered as a whole, and naming the node it belongs to.
pub(crate) trait Entry: Copy + Ord {
    fn node(&self) -> Node;
}

/// Growing: connection strength, random tie-break, node.
pub(crate) type GrowEntry = (Weight, Reverse<u64>, Node);

/// FM: gain, random tie-break, node, target block.
pub(crate) type MoveEntry = (i64, Reverse<u64>, Node, Node);

impl Entry for GrowEntry {
    fn node(&self) -> Node {
        self.2
    }
}

impl Entry for MoveEntry {
    fn node(&self) -> Node {
        self.2
    }
}

/// A binary max-heap of entries holding each node at most once.
pub(crate) struct NodeHeap<E> {
    entries: Vec<E>,
    /// Each node's index in `entries`, or `ABSENT`.
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl<E: Entry> NodeHeap<E> {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            entries: Vec::new(),
            pos: vec![ABSENT; n],
        }
    }

    /// Inserts `e`'s node at `e`, or raises it to `e` if `e` is larger.
    pub(crate) fn offer(&mut self, e: E) {
        match self.pos[e.node() as usize] {
            ABSENT => self.push(e),
            i if e > self.entries[i as usize] => {
                self.entries[i as usize] = e;
                self.sift_up(i as usize);
            }
            _ => {}
        }
    }

    /// Inserts `e`'s node at `e`, or moves it to `e` whether `e` is larger
    /// or smaller.
    pub(crate) fn set(&mut self, e: E) {
        match self.pos[e.node() as usize] {
            ABSENT => self.push(e),
            i => self.replace(i as usize, e),
        }
    }

    /// Takes `v` out of the heap, if it is in.
    pub(crate) fn remove(&mut self, v: Node) {
        let i = self.pos[v as usize];
        if i == ABSENT {
            return;
        }
        self.pos[v as usize] = ABSENT;
        let last = self.entries.pop().expect("a present node");
        if (i as usize) < self.entries.len() {
            self.replace(i as usize, last);
        }
    }

    pub(crate) fn pop(&mut self) -> Option<E> {
        let top = *self.entries.first()?;
        let last = self.entries.pop().expect("non-empty");
        self.pos[top.node() as usize] = ABSENT;
        if !self.entries.is_empty() {
            self.entries[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }

    fn push(&mut self, e: E) {
        self.entries.push(e);
        self.sift_up(self.entries.len() - 1);
    }

    /// Puts `e` at index `i` and restores the heap order around it.
    fn replace(&mut self, i: usize, e: E) {
        let old = self.entries[i];
        self.entries[i] = e;
        if e > old {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.entries[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.entries[parent] >= e {
                break;
            }
            self.place(i, self.entries[parent]);
            i = parent;
        }
        self.place(i, e);
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.entries[i];
        let len = self.entries.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.entries[right] > self.entries[left] {
                right
            } else {
                left
            };
            if self.entries[child] <= e {
                break;
            }
            self.place(i, self.entries[child]);
            i = child;
        }
        self.place(i, e);
    }

    fn place(&mut self, i: usize, e: E) {
        self.entries[i] = e;
        self.pos[e.node() as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Random `set` / `remove` / `offer` / `pop` against an ordered set of
    /// the live entries: every pop is the set's maximum.
    #[test]
    fn matches_an_ordered_set() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let n = 50;
        let mut heap = NodeHeap::new(n);
        let mut live: Vec<Option<MoveEntry>> = vec![None; n];
        for _ in 0..20_000 {
            let v = (next() % n as u64) as Node;
            let e = ((next() % 7) as i64 - 3, Reverse(next() % 4), v, 0);
            match next() % 5 {
                0 | 1 => {
                    heap.set(e);
                    live[v as usize] = Some(e);
                }
                2 => {
                    heap.offer(e);
                    let slot = &mut live[v as usize];
                    *slot = (*slot).max(Some(e));
                }
                3 => {
                    heap.remove(v);
                    live[v as usize] = None;
                }
                _ => {
                    let want = live.iter().flatten().copied().collect::<BTreeSet<_>>();
                    let got = heap.pop();
                    assert_eq!(got, want.last().copied());
                    if let Some(e) = got {
                        live[e.2 as usize] = None;
                    }
                }
            }
        }
    }
}
