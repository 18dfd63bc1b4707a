//! MPI-style collective operations built on point-to-point messages.
//!
//! Broadcast and reduce use binomial trees (`O(log p)` rounds), the barrier
//! uses the dissemination algorithm, gather/allgather/alltoallv are direct.
//! Every collective allocates a fresh group-wide tag so that back-to-back
//! collectives never interleave (see [`crate::comm::Comm`]).

#![allow(clippy::needless_range_loop)] // rank-indexed receive loops are clearest as written

use crate::comm::{Comm, Tag};
use crate::wire::Wire;
// Operation codes mixed into the per-call tag block (diagnostic only; the
// block number alone already guarantees uniqueness across calls). Defined
// centrally in `tags` with the payload type each op carries.
use crate::tags::{OP_ALLGATHER, OP_ALLTOALL, OP_BARRIER, OP_BCAST, OP_GATHER, OP_REDUCE, OP_SCAN};

/// Dissemination barrier: `⌈log₂ p⌉` rounds, no central coordinator.
pub fn barrier(comm: &Comm) {
    let _coll = comm.recorder().collective_span("barrier");
    let p = comm.size();
    if p == 1 {
        return;
    }
    let tag = comm.fresh_tag_block() + OP_BARRIER;
    let mut dist = 1;
    let mut round: u64 = 0;
    while dist < p {
        let to = (comm.rank() + dist) % p;
        let from = (comm.rank() + p - dist) % p;
        comm.send(to, tag + round, ());
        comm.recv::<()>(from, tag + round);
        dist *= 2;
        round += 1;
    }
}

fn bcast_internal<T: Clone + Wire>(comm: &Comm, root: usize, value: Option<T>, tag: Tag) -> T {
    let p = comm.size();
    // Rotate ranks so the root is virtual rank 0, then run a binomial tree.
    let vrank = (comm.rank() + p - root) % p;
    let mut value = if comm.rank() == root {
        Some(value.expect("root must supply a value"))
    } else {
        None
    };
    // Receive from parent (highest set bit), then forward to children.
    if vrank != 0 {
        let parent_v = vrank & (vrank - 1); // clear lowest set bit
        let parent = (parent_v + root) % p;
        value = Some(comm.recv::<T>(parent, tag));
    }
    let v = value.expect("value present after receive");
    // Children of vrank: vrank | (1 << i) for i above vrank's lowest set bit.
    let lowbit = if vrank == 0 {
        usize::BITS
    } else {
        vrank.trailing_zeros()
    };
    let mut i = 0u32;
    while i < lowbit && (1usize << i) < p {
        let child_v = vrank | (1 << i);
        if child_v < p && child_v != vrank {
            let child = (child_v + root) % p;
            comm.send(child, tag, v.clone());
        }
        i += 1;
    }
    v
}

/// Broadcast from `root`. The root passes `Some(value)`, others `None`.
pub fn broadcast<T: Clone + Wire>(comm: &Comm, root: usize, value: Option<T>) -> T {
    let _coll = comm.recorder().collective_span("broadcast");
    let tag = comm.fresh_tag_block() + OP_BCAST;
    bcast_internal(comm, root, value, tag)
}

/// Binomial-tree reduction to `root` with an associative, commutative `op`.
/// Returns `Some(total)` on the root, `None` elsewhere.
pub fn reduce<T, F>(comm: &Comm, root: usize, value: T, op: F) -> Option<T>
where
    T: Wire,
    F: Fn(T, T) -> T,
{
    let _coll = comm.recorder().collective_span("reduce");
    let tag = comm.fresh_tag_block() + OP_REDUCE;
    reduce_internal(comm, root, value, op, tag)
}

fn reduce_internal<T, F>(comm: &Comm, root: usize, value: T, op: F, tag: Tag) -> Option<T>
where
    T: Wire,
    F: Fn(T, T) -> T,
{
    let p = comm.size();
    let vrank = (comm.rank() + p - root) % p;
    let mut acc = value;
    // Mirror of the broadcast tree: receive from children, send to parent.
    let lowbit = if vrank == 0 {
        usize::BITS
    } else {
        vrank.trailing_zeros()
    };
    let mut i = 0u32;
    while i < lowbit && (1usize << i) < p {
        let child_v = vrank | (1 << i);
        if child_v < p && child_v != vrank {
            let child = (child_v + root) % p;
            let rhs = comm.recv::<T>(child, tag);
            acc = op(acc, rhs);
        }
        i += 1;
    }
    if vrank != 0 {
        let parent_v = vrank & (vrank - 1);
        let parent = (parent_v + root) % p;
        comm.send(parent, tag, acc);
        None
    } else {
        Some(acc)
    }
}

/// Allreduce = reduce-to-0 + broadcast. One `allreduce` per refinement phase
/// is the paper's mechanism for exact global block weights (§IV-B).
pub fn allreduce<T, F>(comm: &Comm, value: T, op: F) -> T
where
    T: Clone + Wire,
    F: Fn(T, T) -> T,
{
    let _coll = comm.recorder().collective_span("allreduce");
    let tag = comm.fresh_tag_block() + OP_REDUCE;
    let total = reduce_internal(comm, 0, value, op, tag);
    let tag = comm.fresh_tag_block() + OP_BCAST;
    bcast_internal(comm, 0, total, tag)
}

/// Sum-allreduce of a scalar.
pub fn allreduce_sum(comm: &Comm, value: u64) -> u64 {
    allreduce(comm, value, |a, b| a + b)
}

/// Element-wise sum-allreduce of a vector (all PEs pass equal lengths).
pub fn allreduce_sum_vec(comm: &Comm, value: Vec<u64>) -> Vec<u64> {
    allreduce(comm, value, |mut a, b| {
        assert_eq!(a.len(), b.len(), "allreduce vector length mismatch");
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    })
}

/// Element-wise sum-allreduce of a signed vector (all PEs pass equal
/// lengths). Used by refinement to combine per-phase block-weight *deltas*,
/// which are signed even though the weights themselves are not.
pub fn allreduce_sum_vec_i64(comm: &Comm, value: Vec<i64>) -> Vec<i64> {
    allreduce(comm, value, |mut a, b| {
        assert_eq!(a.len(), b.len(), "allreduce vector length mismatch");
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    })
}

/// Min-allreduce of `(value, rank)` — "who has the best partition".
pub fn allreduce_min_with_rank(comm: &Comm, value: u64) -> (u64, usize) {
    allreduce(comm, (value, comm.rank()), |a, b| if b < a { b } else { a })
}

/// Exclusive prefix sum (exscan): rank r receives `Σ_{i<r} value_i`.
/// Used by the parallel contraction to renumber cluster IDs (§IV-C).
pub fn exscan_sum(comm: &Comm, value: u64) -> u64 {
    let _coll = comm.recorder().collective_span("exscan_sum");
    let tag = comm.fresh_tag_block() + OP_SCAN;
    // Linear ring pass: cheap and simple for p ≤ 64; the paper's prefix sum
    // is also latency-bound, not bandwidth-bound.
    let r = comm.rank();
    let prefix = if r == 0 {
        0
    } else {
        comm.recv::<u64>(r - 1, tag)
    };
    if r + 1 < comm.size() {
        comm.send(r + 1, tag, prefix + value);
    }
    prefix
}

/// Gather to `root`: returns `Some(values-in-rank-order)` on the root.
pub fn gather<T: Wire>(comm: &Comm, root: usize, value: T) -> Option<Vec<T>> {
    let _coll = comm.recorder().collective_span("gather");
    let tag = comm.fresh_tag_block() + OP_GATHER;
    if comm.rank() == root {
        let mut out: Vec<Option<T>> = (0..comm.size()).map(|_| None).collect();
        out[root] = Some(value);
        for src in 0..comm.size() {
            if src != root {
                out[src] = Some(comm.recv::<T>(src, tag));
            }
        }
        Some(out.into_iter().map(|x| x.expect("all received")).collect())
    } else {
        comm.send(root, tag, value);
        None
    }
}

/// Allgather: every PE receives every PE's value, in rank order.
pub fn allgather<T: Clone + Wire>(comm: &Comm, value: T) -> Vec<T> {
    let _coll = comm.recorder().collective_span("allgather");
    let tag = comm.fresh_tag_block() + OP_ALLGATHER;
    // Direct exchange: p−1 sends + p−1 receives per PE.
    for dst in 0..comm.size() {
        if dst != comm.rank() {
            comm.send(dst, tag, value.clone());
        }
    }
    let mut out: Vec<Option<T>> = (0..comm.size()).map(|_| None).collect();
    out[comm.rank()] = Some(value);
    for src in 0..comm.size() {
        if src != comm.rank() {
            out[src] = Some(comm.recv::<T>(src, tag));
        }
    }
    out.into_iter().map(|x| x.expect("all received")).collect()
}

/// Concatenating allgather of vectors (allgatherv): the result is the
/// concatenation of all PEs' vectors in rank order.
pub fn allgatherv<T: Clone + Wire>(comm: &Comm, value: Vec<T>) -> Vec<T> {
    let parts = allgather(comm, value);
    parts.into_iter().flatten().collect()
}

/// Personalized all-to-all (alltoallv): `sends[j]` goes to PE `j`; returns
/// the vector received from each PE, in rank order. The workhorse of the
/// parallel contraction (quotient-edge redistribution) and uncoarsening
/// (block-ID queries).
pub fn alltoallv<T: Wire>(comm: &Comm, mut sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
    let _coll = comm.recorder().collective_span("alltoallv");
    assert_eq!(sends.len(), comm.size(), "one send vector per PE required");
    let tag = comm.fresh_tag_block() + OP_ALLTOALL;
    let mine = std::mem::take(&mut sends[comm.rank()]);
    for (dst, buf) in sends.into_iter().enumerate() {
        if dst != comm.rank() {
            comm.send(dst, tag, buf);
        }
    }
    let mut out: Vec<Option<Vec<T>>> = (0..comm.size()).map(|_| None).collect();
    out[comm.rank()] = Some(mine);
    for src in 0..comm.size() {
        if src != comm.rank() {
            out[src] = Some(comm.recv::<Vec<T>>(src, tag));
        }
    }
    out.into_iter().map(|x| x.expect("all received")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

    #[test]
    fn barrier_completes_for_various_p() {
        for p in [1, 2, 3, 4, 5, 8, 13] {
            run(p, |comm| {
                for _ in 0..3 {
                    barrier(comm);
                }
            });
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        for p in [1, 2, 3, 4, 7, 8] {
            for root in 0..p {
                let r = run(p, move |comm| {
                    let v = if comm.rank() == root {
                        Some(root as u64 * 1000 + 7)
                    } else {
                        None
                    };
                    broadcast(comm, root, v)
                });
                assert!(
                    r.iter().all(|&x| x == root as u64 * 1000 + 7),
                    "p={p} root={root}"
                );
            }
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        for p in [1, 2, 3, 6, 9] {
            let r = run(p, |comm| {
                reduce(comm, 0, comm.rank() as u64 + 1, |a, b| a + b)
            });
            let expect = (p * (p + 1) / 2) as u64;
            assert_eq!(r[0], Some(expect));
            assert!(r[1..].iter().all(|x| x.is_none()));
        }
    }

    #[test]
    fn allreduce_sum_everywhere() {
        for p in [1, 2, 5, 8] {
            let r = run(p, |comm| allreduce_sum(comm, comm.rank() as u64));
            let expect = (p * (p - 1) / 2) as u64;
            assert!(r.iter().all(|&x| x == expect), "p = {p}: {r:?}");
        }
    }

    #[test]
    fn allreduce_vec_elementwise() {
        let r = run(4, |comm| {
            allreduce_sum_vec(comm, vec![comm.rank() as u64, 1])
        });
        assert!(r.iter().all(|v| v == &vec![6, 4]));
    }

    #[test]
    fn allreduce_vec_i64_sums_signed_deltas() {
        let r = run(4, |comm| {
            let delta = vec![comm.rank() as i64 - 1, -(comm.rank() as i64)];
            allreduce_sum_vec_i64(comm, delta)
        });
        assert!(r.iter().all(|v| v == &vec![2, -6]));
    }

    #[test]
    fn allreduce_min_with_rank_picks_global_min() {
        let vals = [30u64, 10, 20, 10];
        let r = run(4, move |comm| {
            allreduce_min_with_rank(comm, vals[comm.rank()])
        });
        // Ties broken toward the smaller (value, rank) pair -> rank 1.
        assert!(r.iter().all(|&x| x == (10, 1)));
    }

    #[test]
    fn exscan_is_exclusive_prefix() {
        let r = run(5, |comm| exscan_sum(comm, comm.rank() as u64 + 1));
        assert_eq!(r, vec![0, 1, 3, 6, 10]);
    }

    #[test]
    fn gather_preserves_rank_order() {
        let r = run(4, |comm| gather(comm, 2, format!("r{}", comm.rank())));
        assert_eq!(
            r[2].as_ref().unwrap(),
            &vec!["r0".to_string(), "r1".into(), "r2".into(), "r3".into()]
        );
        assert!(r[0].is_none());
    }

    #[test]
    fn allgather_everywhere() {
        let r = run(3, |comm| allgather(comm, comm.rank() as u32));
        assert!(r.iter().all(|v| v == &vec![0, 1, 2]));
    }

    #[test]
    fn allgatherv_concatenates() {
        let r = run(3, |comm| {
            allgatherv(comm, vec![comm.rank() as u32; comm.rank() + 1])
        });
        assert!(r.iter().all(|v| v == &vec![0, 1, 1, 2, 2, 2]));
    }

    #[test]
    fn alltoallv_exchanges_personalized_data() {
        let r = run(3, |comm| {
            let sends: Vec<Vec<u32>> = (0..3)
                .map(|dst| vec![(comm.rank() * 10 + dst) as u32])
                .collect();
            alltoallv(comm, sends)
        });
        // PE j receives [i*10 + j] from each i.
        for (j, recv) in r.iter().enumerate() {
            let flat: Vec<u32> = recv.iter().flatten().copied().collect();
            assert_eq!(flat, vec![j as u32, 10 + j as u32, 20 + j as u32]);
        }
    }

    #[test]
    fn back_to_back_collectives_do_not_interleave() {
        // If tags were reused, a fast PE's second broadcast could satisfy a
        // slow PE's first receive. Run many in sequence and check values.
        let r = run(4, |comm| {
            let mut got = Vec::new();
            for i in 0..50u64 {
                let v = if comm.rank() == (i % 4) as usize {
                    Some(i)
                } else {
                    None
                };
                got.push(broadcast(comm, (i % 4) as usize, v));
            }
            got
        });
        for v in r {
            assert_eq!(v, (0..50).collect::<Vec<_>>());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::run;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// allreduce(sum) agrees with the sequential fold for any inputs/p.
        #[test]
        fn allreduce_matches_sequential(p in 1usize..9, vals in proptest::collection::vec(0u64..1000, 9)) {
            let expect: u64 = vals[..p].iter().sum();
            let vals2 = vals.clone();
            let r = run(p, move |comm| allreduce_sum(comm, vals2[comm.rank()]));
            prop_assert!(r.iter().all(|&x| x == expect));
        }

        /// exscan agrees with the sequential exclusive prefix sum.
        #[test]
        fn exscan_matches_sequential(p in 1usize..9, vals in proptest::collection::vec(0u64..1000, 9)) {
            let vals2 = vals.clone();
            let r = run(p, move |comm| exscan_sum(comm, vals2[comm.rank()]));
            let mut acc = 0;
            for (i, item) in r.iter().enumerate().take(p) {
                prop_assert_eq!(*item, acc);
                acc += vals[i];
            }
        }

        /// alltoallv delivers exactly sends[i][j] from i to j.
        #[test]
        fn alltoallv_is_a_transpose(p in 1usize..7, base in 0u32..100) {
            let r = run(p, move |comm| {
                let sends: Vec<Vec<u32>> = (0..p)
                    .map(|dst| vec![base + (comm.rank() * p + dst) as u32])
                    .collect();
                alltoallv(comm, sends)
            });
            for (j, recv) in r.iter().enumerate() {
                for (i, from_i) in recv.iter().enumerate() {
                    prop_assert_eq!(from_i.len(), 1);
                    prop_assert_eq!(from_i[0], base + (i * p + j) as u32);
                }
            }
        }
    }
}
