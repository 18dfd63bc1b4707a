//! Phase-overlapped ghost-label exchange (Section IV-A).
//!
//! During label propagation, PEs do not communicate every time a node
//! changes its block. Instead, each PE keeps one send buffer per adjacent
//! PE; when an *interface* node changes its label, the `(global ID, label)`
//! update is appended to the buffers of all its adjacent PEs. In phase `κ`
//! the buffers are sent asynchronously and the updates of phase `κ−1` are
//! received and applied — computation of the next phase overlaps the
//! delivery of the current one. Once the algorithm converges, buffers are
//! empty and the communication volume is negligible, as the paper notes.
//!
//! # Fault model (DESIGN.md §9)
//!
//! The exchange is chaos-safe by construction: every phase uses a fresh
//! tag from [`Comm::fresh_tag_block`] and every receive names its source
//! PE, so injected cross-tag reordering (a delayed phase-`κ−1` message
//! arriving after phase-`κ` traffic) cannot be mis-applied — delivery
//! stays FIFO per `(src, tag)` and `LabelExchange::receive_and_apply`
//! only drains the tag it is asked for. Dropped or killed peers surface
//! through the watchdog as structured [`crate::CommError`]s at the next
//! blocking receive rather than a hang.

use crate::comm::{Comm, Tag};
use crate::dgraph::DistGraph;
use crate::tags;
use pgp_graph::ids;
use pgp_graph::Node;

/// The per-PE exchange state for one label-propagation run.
pub struct LabelExchange {
    /// Send buffer per adjacent PE (indexed like
    /// `DistGraph::adjacent_pes()`).
    buffers: Vec<Vec<(Node, Node)>>,
    /// Dense rank → buffer index, `u32::MAX` when not adjacent.
    buffer_of_rank: Vec<u32>,
    /// Tag used for the previous phase's sends (to receive them later).
    prev_tag: Option<Tag>,
    /// Number of updates recorded over the lifetime of the exchange
    /// (diagnostic; the weak-scaling bench reports it).
    updates_recorded: u64,
}

impl LabelExchange {
    /// Creates the exchange state for `graph`'s adjacency structure.
    pub fn new(comm: &Comm, graph: &DistGraph) -> Self {
        let mut buffer_of_rank = vec![u32::MAX; comm.size()];
        for (i, &pe) in graph.adjacent_pes().iter().enumerate() {
            buffer_of_rank[ids::pe_index(pe)] = ids::offset_of_index(i);
        }
        Self {
            buffers: vec![Vec::new(); graph.adjacent_pes().len()],
            buffer_of_rank,
            prev_tag: None,
            updates_recorded: 0,
        }
    }

    /// Records that owned interface node `local` now has `label`. No-op for
    /// non-interface nodes, so callers may invoke it unconditionally.
    #[inline]
    pub fn record(&mut self, graph: &DistGraph, local: Node, label: Node) {
        let pes = graph.interface_pes(local);
        if pes.is_empty() {
            return;
        }
        let global = graph.local_to_global(local);
        for &pe in pes {
            let b = self.buffer_of_rank[ids::pe_index(pe)];
            self.buffers[ids::offset_index(b)].push((global, label));
        }
        self.updates_recorded += 1;
    }

    /// Phase boundary with overlap: sends this phase's buffers, then
    /// receives and applies the *previous* phase's updates to
    /// `labels` (indexed by local ID; ghost labels live at
    /// `n_local..n_local+n_ghost`).
    ///
    /// The first call sends without receiving; [`LabelExchange::finish`]
    /// drains the final outstanding phase.
    pub fn flush_overlap(&mut self, comm: &Comm, graph: &DistGraph, labels: &mut [Node]) {
        self.flush_overlap_with(comm, graph, labels, |_, _, _| {});
    }

    /// As [`LabelExchange::flush_overlap`], invoking `on_update(local, old,
    /// new)` for every applied ghost update — the parallel clustering uses
    /// this to maintain its localized cluster-weight view (§IV-B).
    pub fn flush_overlap_with(
        &mut self,
        comm: &Comm,
        graph: &DistGraph,
        labels: &mut [Node],
        on_update: impl FnMut(Node, Node, Node),
    ) {
        let tag = comm.fresh_tag_block() + tags::GHOST_LABELS;
        self.send_buffers(comm, graph, tag);
        if let Some(prev) = self.prev_tag {
            self.receive_and_apply(comm, graph, labels, prev, on_update);
        }
        self.prev_tag = Some(tag);
    }

    /// Synchronous phase boundary: sends and immediately receives the *same*
    /// phase. Ghost labels are exact afterwards; used during refinement
    /// right before the global weight allreduce, and by tests.
    pub fn flush_sync(&mut self, comm: &Comm, graph: &DistGraph, labels: &mut [Node]) {
        self.flush_sync_with(comm, graph, labels, |_, _, _| {});
    }

    /// As [`LabelExchange::flush_sync`], with an update callback.
    pub fn flush_sync_with(
        &mut self,
        comm: &Comm,
        graph: &DistGraph,
        labels: &mut [Node],
        on_update: impl FnMut(Node, Node, Node),
    ) {
        let tag = comm.fresh_tag_block() + tags::GHOST_LABELS;
        self.send_buffers(comm, graph, tag);
        self.receive_and_apply(comm, graph, labels, tag, on_update);
    }

    /// Drains the last outstanding overlap phase (if any).
    pub fn finish(&mut self, comm: &Comm, graph: &DistGraph, labels: &mut [Node]) {
        self.finish_with(comm, graph, labels, |_, _, _| {});
    }

    /// As [`LabelExchange::finish`], with an update callback.
    pub fn finish_with(
        &mut self,
        comm: &Comm,
        graph: &DistGraph,
        labels: &mut [Node],
        on_update: impl FnMut(Node, Node, Node),
    ) {
        if let Some(prev) = self.prev_tag.take() {
            self.receive_and_apply(comm, graph, labels, prev, on_update);
        }
    }

    /// Hands every send buffer to its adjacent PE for `tag`.
    fn send_buffers(&mut self, comm: &Comm, graph: &DistGraph, tag: Tag) {
        for (i, &pe) in graph.adjacent_pes().iter().enumerate() {
            let buf = std::mem::take(&mut self.buffers[i]);
            // Explicit payload type: the `tags::GHOST_LABELS` protocol
            // contract `unpack` checks on the recv side.
            comm.send::<Vec<(Node, Node)>>(ids::pe_index(pe), tag, buf);
        }
    }

    fn receive_and_apply(
        &mut self,
        comm: &Comm,
        graph: &DistGraph,
        labels: &mut [Node],
        tag: Tag,
        mut on_update: impl FnMut(Node, Node, Node),
    ) {
        for &pe in graph.adjacent_pes() {
            let updates: Vec<(Node, Node)> = comm.recv(ids::pe_index(pe), tag);
            for &(global, label) in &updates {
                let l = graph.global_to_local(global);
                debug_assert!(graph.is_ghost(l), "update for non-ghost node {global}");
                let old = labels[ids::node_index(l)];
                labels[ids::node_index(l)] = label;
                if old != label {
                    on_update(l, old, label);
                }
            }
        }
    }

    /// Total updates recorded since construction.
    pub fn updates_recorded(&self) -> u64 {
        self.updates_recorded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;
    use pgp_graph::builder::from_edges;
    use pgp_graph::CsrGraph;

    fn ring(n: usize) -> CsrGraph {
        let edges: Vec<(Node, Node)> = (0..n).map(|i| (i as Node, ((i + 1) % n) as Node)).collect();
        from_edges(n, &edges)
    }

    /// Initial labels: every node labelled with its own global ID; ghosts
    /// likewise.
    fn init_labels(dg: &DistGraph) -> Vec<Node> {
        (0..(dg.n_local() + dg.n_ghost()) as Node)
            .map(|l| dg.local_to_global(l))
            .collect()
    }

    #[test]
    fn sync_flush_delivers_immediately() {
        let g = ring(12);
        run(3, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut labels = init_labels(&dg);
            let mut ex = LabelExchange::new(comm, &dg);
            // Every PE relabels all its owned nodes to its rank.
            for l in 0..dg.n_local() as Node {
                labels[l as usize] = comm.rank() as Node;
                ex.record(&dg, l, comm.rank() as Node);
            }
            ex.flush_sync(comm, &dg, &mut labels);
            // All ghost labels must now equal their owner's rank.
            for l in dg.n_local() as Node..(dg.n_local() + dg.n_ghost()) as Node {
                assert_eq!(labels[l as usize], dg.ghost_owner_of(l) as Node);
            }
        });
    }

    #[test]
    fn overlap_flush_is_one_phase_stale() {
        let g = ring(12);
        run(3, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut labels = init_labels(&dg);
            let before: Vec<Node> = labels.clone();
            let mut ex = LabelExchange::new(comm, &dg);
            for l in 0..dg.n_local() as Node {
                ex.record(&dg, l, 100 + comm.rank() as Node);
            }
            // Phase 1: sends, receives nothing (no previous phase).
            ex.flush_overlap(comm, &dg, &mut labels);
            for l in dg.n_local()..dg.n_local() + dg.n_ghost() {
                assert_eq!(labels[l], before[l], "ghosts must still be stale");
            }
            // Phase 2 with empty buffers: receives phase 1.
            ex.flush_overlap(comm, &dg, &mut labels);
            for l in dg.n_local() as Node..(dg.n_local() + dg.n_ghost()) as Node {
                assert_eq!(labels[l as usize], 100 + dg.ghost_owner_of(l) as Node);
            }
            ex.finish(comm, &dg, &mut labels);
        });
    }

    #[test]
    fn finish_drains_outstanding_phase() {
        let g = ring(8);
        run(2, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut labels = init_labels(&dg);
            let mut ex = LabelExchange::new(comm, &dg);
            for l in 0..dg.n_local() as Node {
                ex.record(&dg, l, 7);
            }
            ex.flush_overlap(comm, &dg, &mut labels);
            ex.finish(comm, &dg, &mut labels);
            for l in dg.n_local() as Node..(dg.n_local() + dg.n_ghost()) as Node {
                assert_eq!(labels[l as usize], 7);
            }
        });
    }

    #[test]
    fn non_interface_records_are_free() {
        // Path graph: with 2 PEs, only the middle nodes are interface.
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        run(2, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut ex = LabelExchange::new(comm, &dg);
            for l in 0..dg.n_local() as Node {
                ex.record(&dg, l, 1);
            }
            // Only one interface node per PE on a path cut once.
            assert_eq!(ex.updates_recorded(), 1);
        });
    }

    #[test]
    fn converged_rounds_send_empty_buffers() {
        let g = ring(8);
        let obs = crate::Obs::new(2);
        let cfg = crate::RunConfig {
            obs: Some(std::sync::Arc::clone(&obs)),
            ..crate::RunConfig::default()
        };
        let results = crate::run_config(2, cfg, |comm| {
            let dg = DistGraph::from_global(comm, &g);
            let mut labels = init_labels(&dg);
            let mut ex = LabelExchange::new(comm, &dg);
            // Ten phases with no changes: messages flow but carry nothing.
            for _ in 0..10 {
                ex.flush_overlap(comm, &dg, &mut labels);
            }
            ex.finish(comm, &dg, &mut labels);
        });
        assert!(results.iter().all(Result::is_ok));
        let (mut msgs, mut bytes) = (0, 0);
        for (tag, sent) in obs.report().total_sent_per_tag() {
            if (tag - tags::COLLECTIVE_TAG_BASE) % tags::BLOCK_SPAN == tags::GHOST_LABELS {
                msgs += sent.msgs;
                bytes += sent.bytes;
            }
        }
        assert_eq!(msgs, 20, "one message per adjacent PE per phase");
        let empty = crate::mailbox::pack(&Vec::<(Node, Node)>::new()).wire_bytes();
        assert_eq!(
            bytes,
            msgs * empty,
            "converged phases carry only the encoded empty vector"
        );
    }
}
