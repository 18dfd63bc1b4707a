//! SPMD runner: executes one closure per simulated PE on its own OS thread.
//!
//! Every PE closure runs under `catch_unwind`. A *genuine* panic in one PE
//! poisons the universe (see `comm`), which wakes all peers parked in
//! blocking receives so the whole group unwinds promptly instead of
//! deadlocking the join loop; the first genuine panic is then re-raised
//! (first panic wins). A watchdog timeout unwinds with a crate-internal
//! sentinel that [`run_config`] surfaces as `Err(CommError)` per PE
//! instead of a crash.

use crate::comm::{Comm, CommAbort, CommError, DelayPlan, Universe};
use pgp_obs::Obs;
use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

/// Configuration for [`run_config`]: a watchdog, a delay plan and an
/// observability registry, each off by default.
#[derive(Default, Clone)]
pub struct RunConfig {
    /// Deadlock-watchdog deadline applied to every blocking receive. The
    /// first PE whose wait exceeds it poisons the universe with
    /// [`CommError::Timeout`] and the whole group fails structurally.
    /// `None` parks forever (the classic substrate).
    pub deadline: Option<Duration>,
    /// Seeded cross-tag send delays (see [`DelayPlan`]), a test hook under
    /// which results must stay bit-identical. `None` delivers every send
    /// at once.
    pub delay: Option<DelayPlan>,
    /// Observability registry (see `pgp-obs`). When set, every PE's comm
    /// traffic and phase spans are recorded into it; `None` keeps every
    /// recorder hook to a single branch. Must be sized for exactly `p` PEs.
    pub obs: Option<Arc<Obs>>,
    /// Ignored — nothing reads it; it is still here only because the frozen
    /// `benchmark/` package names it in two struct literals, and leaves with
    /// the next `benchmark` PR.
    pub threads_per_pe: usize,
}

/// Per-PE outcome of one thread: finished value, structured comm failure,
/// or a genuine panic payload (re-raised by the caller).
enum PeOutcome<R> {
    Done(Result<R, CommError>),
    Panicked(Box<dyn Any + Send>),
}

/// Runs `f` on `p` PEs under `cfg` (watchdog deadline, delay plan,
/// registry); returns each PE's outcome as a value. Genuine panics still
/// propagate as panics (first wins); a timeout from the deadlock watchdog
/// comes back as `Err(CommError)` so tests can assert on it.
///
/// Spawns one thread per PE over one [`Universe`], joins them all,
/// converts comm-abort sentinels into `Err`, and re-raises the first
/// genuine panic (in rank order) after every thread has exited.
pub fn run_config<R, F>(p: usize, cfg: RunConfig, f: F) -> Vec<Result<R, CommError>>
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    let universe = &Universe::with_config(p, cfg.deadline, cfg.delay, cfg.obs);
    let outcomes: Vec<PeOutcome<R>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for rank in 0..p {
            let comm = universe.comm(rank);
            let f = &f;
            handles.push(scope.spawn(move || {
                // The closure only crosses the unwind boundary to be
                // re-raised (or mapped to an error) on the joining side, so
                // any broken invariants die with the run.
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm))) {
                    Ok(r) => {
                        // On the PE's own thread (thread-CPU is per
                        // thread): the closing resource sample for the
                        // report. A single-branch no-op when observability
                        // is off.
                        comm.recorder().sample_resources();
                        PeOutcome::Done(Ok(r))
                    }
                    Err(payload) => match payload.downcast::<CommAbort>() {
                        Ok(abort) => PeOutcome::Done(Err(abort.0)),
                        Err(payload) => {
                            // Genuine panic: poison so peers parked in
                            // recv/collectives unwind instead of waiting
                            // for a message that will never come.
                            universe.poison(CommError::PeerDead { rank, dead: rank });
                            PeOutcome::Panicked(payload)
                        }
                    },
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(outcome) => outcome,
                // The closure caught everything; a join error would mean a
                // panic while unwinding (abort, not unwind).
                Err(payload) => PeOutcome::Panicked(payload),
            })
            .collect()
    });
    let mut results = Vec::with_capacity(p);
    let mut first_panic = None;
    for outcome in outcomes {
        match outcome {
            PeOutcome::Done(r) => results.push(r),
            PeOutcome::Panicked(payload) => {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
                // Placeholder never observed: the panic below wins.
                results.push(Err(CommError::PeerDead { rank: 0, dead: 0 }));
            }
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    results
}

/// Runs `f` on `p` PEs (threads); returns the per-rank results in rank
/// order. Panics in any PE propagate once all threads have been joined
/// (first panicking rank wins), and poison the universe so peers blocked
/// in `recv`/collectives unwind promptly instead of deadlocking.
///
/// # Panics
/// Re-raises the first PE panic. Also panics if a PE fails with a
/// structured [`CommError`] (only possible when a watchdog is installed —
/// use [`run_config`] to observe those as values).
///
/// ```
/// let sums = pgp_dmp::run(4, |comm| {
///     pgp_dmp::collectives::allreduce_sum(comm, comm.rank() as u64)
/// });
/// assert_eq!(sums, vec![6, 6, 6, 6]);
/// ```
pub fn run<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    run_config(p, RunConfig::default(), f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|err| panic!("PE failed: {err}")))
        .collect()
}

/// SplitMix64-style mixing of a global seed and a rank.
pub fn mix_seed(seed: u64, rank: u64) -> u64 {
    let mut z = seed ^ rank.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_rank_order() {
        let r = run(8, |comm| comm.rank() * 10);
        assert_eq!(r, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn single_pe_works() {
        let r = run(1, |comm| comm.size());
        assert_eq!(r, vec![1]);
    }

    #[test]
    #[should_panic(expected = "pe boom")]
    fn panics_propagate() {
        run(2, |comm| {
            if comm.rank() == 1 {
                panic!("pe boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "pe boom")]
    fn panic_unblocks_parked_peer() {
        // Rank 0 parks in a recv that will never be satisfied; rank 1
        // panics. Without panic-poisoning this deadlocks the join loop
        // (rank 0's handle never joins). The panic must still win over
        // rank 0's structured unwind.
        run(2, |comm| {
            if comm.rank() == 0 {
                let _: u64 = comm.recv(1, 42);
            } else {
                panic!("pe boom");
            }
        });
    }

    #[test]
    fn watchdog_times_out_instead_of_hanging() {
        let cfg = RunConfig {
            deadline: Some(Duration::from_millis(50)),
            ..RunConfig::default()
        };
        // Two PEs park in a recv/recv cycle: a classic deadlock. The
        // watchdog must convert it into structured errors on every rank.
        let results = run_config(2, cfg, |comm| {
            let peer = 1 - comm.rank();
            let _: u64 = comm.recv(peer, 9);
        });
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(
                matches!(
                    r,
                    Err(CommError::Timeout { .. }) | Err(CommError::PeerDead { .. })
                ),
                "expected structured failure, got {r:?}"
            );
        }
        // At least one PE reports the actual timeout (the watchdog origin).
        assert!(results
            .iter()
            .any(|r| matches!(r, Err(CommError::Timeout { .. }))));
    }

    #[test]
    fn run_config_without_chaos_matches_run() {
        let results = run_config(3, RunConfig::default(), |comm| comm.rank() * 2);
        let values: Vec<usize> = results
            .into_iter()
            .map(|r| r.expect("fault-free run cannot fail"))
            .collect();
        assert_eq!(values, vec![0, 2, 4]);
    }
}
