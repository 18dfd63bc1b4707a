//! Plain metric value types shared across the workspace.

use std::collections::BTreeMap;

/// Log-bucketed (power-of-√2) latency histogram over nanosecond values.
///
/// Bucket 0 holds exactly `0 ns`; for `ns ≥ 1` with `k = ⌊log2 ns⌋`,
/// bucket `1 + 2k` covers `[2^k, ⌊√2·2^k⌋)` and bucket `2 + 2k` covers
/// `[⌊√2·2^k⌋, 2^{k+1})` — two buckets per octave, ~41% relative
/// resolution, O(1) indexing (one `ilog2` plus one compare). The exact
/// `total_ns` sum is kept alongside, so the histogram strictly
/// generalizes the old sum-only accumulator (count conservation is a
/// property test). Buckets are stored sparsely; merging is bucket-wise
/// addition and therefore independent of merge order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WaitHistogram {
    /// Sparse bucket counts, index ascending.
    pub buckets: BTreeMap<u32, u64>,
    /// Number of recorded values.
    pub count: u64,
    /// Exact sum of all recorded values (nanoseconds).
    pub total_ns: u64,
}

/// Integer square root (largest `r` with `r² ≤ x`), hand-rolled so the
/// bucket boundaries do not depend on `isqrt` stabilization.
fn isqrt_u128(x: u128) -> u128 {
    if x < 2 {
        return x;
    }
    // Newton's method from an upper-bound seed; converges in a few steps.
    let mut r = 1u128 << (x.ilog2() / 2 + 1);
    loop {
        let next = (r + x / r) / 2;
        if next >= r {
            return r;
        }
        r = next;
    }
}

impl WaitHistogram {
    /// Bucket index for a nanosecond value.
    pub fn bucket_of(ns: u64) -> u32 {
        if ns == 0 {
            return 0;
        }
        let k = ns.ilog2();
        let mid = isqrt_u128(1u128 << (2 * k + 1)) as u64;
        1 + 2 * k + u32::from(ns >= mid)
    }

    /// Inclusive lower boundary of a bucket (its quantile estimate).
    /// Saturates at `u64::MAX` for indices past the u64 range.
    pub fn bucket_lower_bound(index: u32) -> u64 {
        if index == 0 {
            return 0;
        }
        let k = (index - 1) / 2;
        if k >= 64 {
            return u64::MAX;
        }
        if (index - 1).is_multiple_of(2) {
            1u64 << k
        } else {
            u64::try_from(isqrt_u128(1u128 << (2 * k + 1))).unwrap_or(u64::MAX)
        }
    }

    /// Records one value.
    pub fn record(&mut self, ns: u64) {
        *self.buckets.entry(Self::bucket_of(ns)).or_insert(0) += 1;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
    }

    /// Bucket-wise merge (commutative and associative).
    pub fn merge(&mut self, other: &WaitHistogram) {
        for (&b, &n) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += n;
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
    }

    /// The `q`-quantile (0 < q ≤ 1) as the lower boundary of the bucket
    /// containing the ⌈q·count⌉-th smallest value; 0 when empty. A
    /// bucket-resolution estimate — exact values are not retained.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (&b, &n) in &self.buckets {
            cum += n;
            if cum >= target {
                return Self::bucket_lower_bound(b);
            }
        }
        // Unreachable when count equals the bucket sum; be forgiving.
        self.buckets
            .keys()
            .next_back()
            .map_or(0, |&b| Self::bucket_lower_bound(b))
    }
}

/// Outcome statistics for one local-search pass (SCLP clustering, SCLP
/// refinement, or sequential FM). Unifies the former `SclpStats` and
/// `FmStats` duplicates: both are "how many rounds ran, how many moves
/// were applied, what total gain" — FM reports gain, SCLP leaves it 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Rounds (label-propagation iterations or FM passes) executed.
    pub rounds: usize,
    /// Node moves applied across all rounds.
    pub moves: u64,
    /// Total cut gain achieved (FM only; SCLP reports 0).
    pub gain: i64,
    /// Arcs read by the sweeps, counted where they are read (SCLP, parallel
    /// and sequential, and sequential FM). In cluster mode this is the
    /// (local) arc count times the rounds; in refine mode the active set
    /// makes it far smaller than that. Two-way FM reads every arc once per
    /// call plus the row of every applied move, and that row again if the
    /// move is rolled back; k-way FM reads the row of every node it
    /// evaluates, or, with its gain table, builds it from every arc once
    /// and then reads movers' rows, forward scans for new first arcs and
    /// one entry per adjacent block of an evaluated node (pgp-seq's
    /// `FmStats`).
    pub edges_scanned: u64,
}

/// What one kernel call did at one hierarchy level of one V-cycle, and
/// the shape of the graph it ran on. `stage` is the name of the span the
/// call runs under: `"cluster"` (one SCLP cluster call while coarsening),
/// `"initial_partition"` (KaFFPaE on the coarsest graph; its counts stay 0)
/// or `"refine"` (one SCLP refine call while uncoarsening, which alone
/// carries `cut` and `imbalance`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LevelWork {
    /// V-cycle index.
    pub cycle: usize,
    /// Hierarchy index of the graph the call ran on (0 = finest).
    pub level: usize,
    /// The span the call runs under.
    pub stage: &'static str,
    /// Global node count of the graph.
    pub n_global: u64,
    /// Global (undirected) edge count of the graph.
    pub m_global: u64,
    /// Nodes of the graph owned by this PE.
    pub n_local: u64,
    /// Ghost (halo) nodes of the graph replicated on this PE.
    pub n_ghost: u64,
    /// Rounds the call ran ([`PassStats::rounds`]).
    pub rounds: usize,
    /// Moves this PE applied ([`PassStats::moves`]).
    pub moves: u64,
    /// Arcs this PE read ([`PassStats::edges_scanned`]).
    pub edges_scanned: u64,
    /// Global edge cut after a refine call.
    pub cut: Option<u64>,
    /// Imbalance ε′ = max_b w(b) / ⌈w(V)/k⌉ − 1 after a refine call.
    pub imbalance: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_boundaries_are_monotone() {
        for i in 0..130u32 {
            assert!(
                WaitHistogram::bucket_lower_bound(i) <= WaitHistogram::bucket_lower_bound(i + 1),
                "boundary {i} decreasing"
            );
        }
    }

    #[test]
    fn bucket_of_lands_between_boundaries() {
        for ns in [0u64, 1, 2, 3, 5, 7, 8, 100, 1_000, u64::MAX / 2, u64::MAX] {
            let b = WaitHistogram::bucket_of(ns);
            assert!(WaitHistogram::bucket_lower_bound(b) <= ns, "ns={ns}");
            if b < u32::MAX {
                // The topmost bucket's upper boundary saturates at u64::MAX,
                // so it contains u64::MAX inclusively.
                let next = WaitHistogram::bucket_lower_bound(b + 1);
                assert!(ns < next || next == u64::MAX, "ns={ns}");
            }
        }
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let mut h = WaitHistogram::default();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        // p50 and p95 sit in 10's bucket; p99 still does; the max does not.
        let b10 = WaitHistogram::bucket_lower_bound(WaitHistogram::bucket_of(10));
        assert_eq!(h.quantile_ns(0.50), b10);
        assert_eq!(h.quantile_ns(0.99), b10);
        assert_eq!(
            h.quantile_ns(1.0),
            WaitHistogram::bucket_lower_bound(WaitHistogram::bucket_of(1_000_000))
        );
        assert_eq!(WaitHistogram::default().quantile_ns(0.5), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Count conservation: the histogram generalizes the old
        /// sum-only accumulator — `total_ns` equals the plain sum and
        /// the bucket counts add up to the number of records.
        #[test]
        fn conserves_count_and_sum(values in proptest::collection::vec(0u64..=1u64 << 40, 0..200)) {
            let mut h = WaitHistogram::default();
            for &v in &values {
                h.record(v);
            }
            prop_assert_eq!(h.count, values.len() as u64);
            prop_assert_eq!(h.total_ns, values.iter().sum::<u64>());
            prop_assert_eq!(h.buckets.values().sum::<u64>(), h.count);
        }

        /// Every recorded value falls inside its bucket's range.
        #[test]
        fn bucket_ranges_contain_their_values(ns in 0u64..=u64::MAX) {
            let b = WaitHistogram::bucket_of(ns);
            prop_assert!(WaitHistogram::bucket_lower_bound(b) <= ns);
            // The topmost bucket extends to u64::MAX inclusive (saturated
            // upper boundary).
            prop_assert!(ns < WaitHistogram::bucket_lower_bound(b + 1)
                || WaitHistogram::bucket_lower_bound(b + 1) == u64::MAX);
        }

        /// Quantile re-derivation is stable under merge order: merging
        /// per-PE histograms in any permutation yields identical
        /// buckets and therefore identical p50/p95/p99.
        #[test]
        fn merge_order_does_not_change_quantiles(
            parts in proptest::collection::vec(
                proptest::collection::vec(0u64..=1u64 << 30, 0..40), 1..6),
            seed in 0u64..=u64::MAX,
        ) {
            let hists: Vec<WaitHistogram> = parts
                .iter()
                .map(|vs| {
                    let mut h = WaitHistogram::default();
                    for &v in vs {
                        h.record(v);
                    }
                    h
                })
                .collect();
            let mut forward = WaitHistogram::default();
            for h in &hists {
                forward.merge(h);
            }
            // A seed-driven permutation of the merge order.
            let mut order: Vec<usize> = (0..hists.len()).collect();
            let mut s = seed;
            for i in (1..order.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (s >> 33) as usize % (i + 1));
            }
            let mut shuffled = WaitHistogram::default();
            for &i in &order {
                shuffled.merge(&hists[i]);
            }
            prop_assert_eq!(&forward, &shuffled);
            for q in [0.5, 0.95, 0.99] {
                prop_assert_eq!(forward.quantile_ns(q), shuffled.quantile_ns(q));
            }
        }
    }
}
