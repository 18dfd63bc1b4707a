//! SPMD runner: executes one closure per simulated PE on its own OS thread.
//!
//! Every PE closure runs under `catch_unwind`. A *genuine* panic in one PE
//! poisons the universe (see `comm`), which wakes all peers parked in
//! blocking receives so the whole group unwinds promptly instead of
//! deadlocking the join loop; the first genuine panic is then re-raised
//! (first panic wins). Structured failures — watchdog timeouts, killed
//! peers — unwind with a crate-internal sentinel that [`run_config`]
//! surfaces as `Err(CommError)` per PE instead of a crash.

use crate::comm::{Comm, CommAbort, CommError, FaultHook, Tag};
use crate::transport::{BackendKind, Group};
use pgp_obs::{Obs, RecoveryReport};
use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

/// Configuration for [`run_config`]: the knobs that turn the fault-free
/// substrate into a chaos-hardened one.
#[derive(Default, Clone)]
pub struct RunConfig {
    /// Which comm transport carries the messages (DESIGN.md §15). The
    /// default, [`BackendKind::Threads`], is the zero-regression fast
    /// path; [`BackendKind::Sockets`] routes every payload through real
    /// Unix-domain socketpairs. Algorithms cannot observe the choice —
    /// the cross-backend golden tests assert identical partitions.
    pub backend: BackendKind,
    /// Deadlock-watchdog deadline applied to every blocking receive. The
    /// first PE whose wait exceeds it poisons the universe with
    /// [`CommError::Timeout`] and the whole group fails structurally.
    /// `None` parks forever (the classic substrate).
    pub deadline: Option<Duration>,
    /// Fault-injection oracle (see [`FaultHook`] and the `pgp-chaos`
    /// crate). `None` is the zero-overhead fault-free path.
    pub fault_hook: Option<Arc<dyn FaultHook>>,
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

/// The shared runner core: spawns one thread per PE over `group` (either
/// backend), joins them all, converts comm-abort sentinels into `Err`, and
/// re-raises the first genuine panic (in rank order) after every thread has
/// exited.
fn run_group<R, F>(group: &Group, f: F) -> Vec<Result<R, CommError>>
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    let p = group.size();
    let outcomes: Vec<PeOutcome<R>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for rank in 0..p {
            let comm = group.comm(rank);
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
                            group.poison(rank, CommError::PeerDead { rank, dead: rank });
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
/// structured [`CommError`] (only possible when a watchdog or fault hook
/// is installed — use [`run_config`] to observe those as values).
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

/// Runs `f` on `p` PEs under `cfg` (watchdog deadline and/or fault
/// injection); returns each PE's outcome as a value. Genuine panics still
/// propagate as panics (first wins); structured failures — a timeout from
/// the deadlock watchdog, a peer killed by the fault plan — come back as
/// `Err(CommError)` so chaos tests can assert on them.
pub fn run_config<R, F>(p: usize, cfg: RunConfig, f: F) -> Vec<Result<R, CommError>>
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    let group = Group::build(p, cfg.backend, cfg.deadline, cfg.fault_hook, cfg.obs);
    run_group(&group, f)
}

/// The survivors' verdict about one failed attempt, derived from the
/// universe's accumulated fault ledger plus the per-rank outcomes after
/// every PE thread has joined.
///
/// The consensus rule (DESIGN.md §14): a rank is **dead** iff some
/// observed error names it in [`CommError::PeerDead::dead`] — deaths are
/// always *self-reported* at the kill site before the poison propagates,
/// and `localize` preserves the `dead` coordinate, so every survivor's
/// propagated copy corroborates the same rank. A [`CommError::Timeout`]
/// with no corroborating death is **transient**: the peer was slow (or a
/// message was delayed past the watchdog), not gone, so the attempt is
/// retried in place rather than escalated to a respawn.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailureVerdict {
    /// Ranks declared dead, ascending and distinct.
    pub dead: Vec<usize>,
    /// Uncorroborated deadline expiries observed across the group.
    pub timeouts: usize,
}

impl FailureVerdict {
    /// Derives the verdict from a finished (failed) attempt.
    pub fn from_run<R>(ledger: &[CommError], results: &[Result<R, CommError>]) -> Self {
        let mut verdict = FailureVerdict::default();
        let errors = ledger
            .iter()
            .chain(results.iter().filter_map(|r| r.as_ref().err()));
        for err in errors {
            match err {
                CommError::PeerDead { dead, .. } => {
                    if !verdict.dead.contains(dead) {
                        verdict.dead.push(*dead);
                    }
                }
                CommError::Timeout { .. } => verdict.timeouts += 1,
            }
        }
        verdict.dead.sort_unstable();
        verdict
    }

    /// True iff nothing died: every failure was an uncorroborated timeout.
    pub fn is_transient(&self) -> bool {
        self.dead.is_empty()
    }
}

/// Retry/recovery budgets of a supervised run. Wall-clock only: they
/// decide how long the supervisor keeps trying, never what the result is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryLimits {
    /// Transient retries (uncorroborated timeouts) per recovery window
    /// before a timeout escalates to full recovery.
    pub max_retries: u32,
    /// Full recoveries (respawn + resume after confirmed deaths) before
    /// the supervisor gives up and surfaces the fault.
    pub max_recoveries: u32,
    /// Base backoff before a transient retry, in milliseconds; doubles per
    /// retry with a seeded jitter on top.
    pub backoff_base_ms: u64,
}

impl Default for RecoveryLimits {
    fn default() -> Self {
        Self {
            max_retries: 3,
            max_recoveries: 4,
            backoff_base_ms: 5,
        }
    }
}

/// Knobs for [`run_config_supervised`]: the base run configuration plus
/// the recovery budgets.
#[derive(Clone, Default)]
pub struct SupervisorConfig {
    /// Backend, deadline, fault hook and obs registry for every attempt.
    /// The supervisor widens the deadline geometrically across transient
    /// retries (×2 per retry, capped at ×32) so a slow-but-alive group
    /// eventually outruns its watchdog, and disarms the fault hook's kills
    /// for ranks already declared dead so respawned replacements are not
    /// re-killed.
    pub base: RunConfig,
    /// Retry and recovery budgets.
    pub limits: RecoveryLimits,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

/// What the supervisor tells each attempt's PE closures about history:
/// enough to decide between a fresh start and a checkpoint resume.
#[derive(Clone, Debug, Default)]
pub struct AttemptInfo {
    /// 0 for the first launch, incremented per relaunch (retries and
    /// recoveries both count).
    pub attempt: u32,
    /// Full recoveries completed before this attempt.
    pub recoveries: u32,
    /// Every rank declared dead so far, ascending. The PEs running those
    /// ranks in this attempt are the respawned replacements.
    pub dead_ranks: Vec<usize>,
}

/// Wraps the user's fault hook, muting `kill_at_phase` for ranks already
/// declared dead: their replacements run the same plan minus the kill
/// that already fired. Send faults keep flowing — delays and stalls are
/// wall-clock-only and harmless to re-apply.
struct DisarmedKills {
    inner: Arc<dyn FaultHook>,
    /// Sorted ranks whose kills are spent.
    disarmed: Vec<usize>,
}

impl FaultHook for DisarmedKills {
    fn on_send(&self, src: usize, dst: usize, tag: Tag, seq: u64) -> crate::comm::SendFault {
        self.inner.on_send(src, dst, tag, seq)
    }

    fn kill_at_phase(&self, rank: usize) -> Option<u64> {
        if self.disarmed.binary_search(&rank).is_ok() {
            return None;
        }
        self.inner.kill_at_phase(rank)
    }
}

/// Watchdog-widening cap: deadlines stop doubling after ×32.
const MAX_WIDEN_EXP: u32 = 5;

/// What one launched attempt hands back to [`supervise`]: the per-rank
/// outcomes plus every distinct fault the group observed (the thread and
/// socket groups keep a ledger; worker processes report through their
/// result files only, so theirs is empty).
type AttemptOutcome<R> = (Vec<Result<R, CommError>>, Vec<CommError>);

/// The one attempt loop behind both supervised launchers (DESIGN.md §14).
/// `launch` runs a single attempt — it is told the history so far and the
/// watchdog deadline to arm (`base_deadline`, doubled per transient retry
/// up to ×32) — and every failed attempt is classified by
/// [`FailureVerdict`]: uncorroborated timeouts are retried after a seeded
/// backoff until `limits.max_retries` is spent, new deaths (or spent
/// retries) cost one of `limits.max_recoveries` full recoveries, and once
/// those are gone the attempt's first error is returned. When `obs` is
/// set the counters are mirrored into the registry and the supervisor
/// marks `recovery`/`consensus` spans on rank 0's timeline.
pub(crate) fn supervise<R>(
    limits: RecoveryLimits,
    seed: u64,
    base_deadline: Option<Duration>,
    obs: Option<&Arc<Obs>>,
    mut launch: impl FnMut(&AttemptInfo, Option<Duration>) -> AttemptOutcome<R>,
) -> Result<(Vec<R>, RecoveryReport), CommError> {
    let RecoveryLimits {
        max_retries,
        max_recoveries,
        backoff_base_ms,
    } = limits;
    let mut report = RecoveryReport::default();
    let mut info = AttemptInfo::default();
    // Transient retries since the last recovery (the escalation budget).
    let mut retries_window: u32 = 0;
    // Monotone widening exponent: never reset, so a consistently slow
    // group keeps its earned headroom even across an escalation.
    let mut widen: u32 = 0;
    let publish = |report: &RecoveryReport| {
        if let Some(obs) = obs {
            let snap = report.clone();
            obs.record_recovery(move |r| {
                // `lost_cycles` belongs to the partitioner's supervised
                // wrapper (the runner has no notion of V-cycles).
                let lost = r.lost_cycles;
                *r = snap;
                r.lost_cycles = lost;
            });
        }
    };
    loop {
        report.attempts += 1;
        let deadline = base_deadline.map(|d| d * (1u32 << widen.min(MAX_WIDEN_EXP)));
        let (results, ledger) = launch(&info, deadline);
        if results.iter().all(Result::is_ok) {
            publish(&report);
            let values = results
                .into_iter()
                .map(|r| r.expect("all outcomes checked ok"))
                .collect();
            return Ok((values, report));
        }
        // Failure consensus: the poison handshake already showed every
        // survivor the same fault state; the post-join ledger makes the
        // verdict exact even under concurrent multi-rank failures.
        let verdict = {
            // No PE threads are alive between attempts, so rank 0's cell
            // is free for the supervisor's own recovery spans.
            let rec = obs.map(|o| o.recorder(0));
            let _recovery = rec.as_ref().map(|r| r.span("recovery"));
            let _consensus = rec.as_ref().map(|r| r.span("consensus"));
            FailureVerdict::from_run(&ledger, &results)
        };
        let new_dead: Vec<usize> = verdict
            .dead
            .into_iter()
            .filter(|r| !info.dead_ranks.contains(r))
            .collect();
        if !new_dead.is_empty() || retries_window >= max_retries {
            // Full recovery: declare the ranks dead, respawn, resume.
            if report.recoveries >= u64::from(max_recoveries) {
                publish(&report);
                return Err(ledger
                    .into_iter()
                    .chain(results.into_iter().filter_map(Result::err))
                    .next()
                    .expect("failed attempt has at least one error"));
            }
            report.recoveries += 1;
            info.recoveries += 1;
            retries_window = 0;
            info.dead_ranks.extend(new_dead);
            info.dead_ranks.sort_unstable();
            report.dead_ranks = info.dead_ranks.clone();
        } else {
            // Transient: back off deterministically, widen the watchdog,
            // and re-run — the next attempt resumes from the latest
            // checkpoint exactly like a recovery would.
            report.retries += 1;
            retries_window += 1;
            widen += 1;
            let exp = (retries_window - 1).min(MAX_WIDEN_EXP);
            let jitter = mix_seed(seed, u64::from(info.attempt)) % (backoff_base_ms + 1);
            std::thread::sleep(Duration::from_millis((backoff_base_ms << exp) + jitter));
        }
        publish(&report);
        info.attempt += 1;
    }
}

/// Runs `f` on `p` PEs under automatic recovery (DESIGN.md §14): every
/// structured group failure is classified by [`FailureVerdict`] and either
/// retried in place (transient timeout, seeded backoff + widened deadline)
/// or answered with a full recovery — a fresh universe whose closures see
/// the dead ranks in [`AttemptInfo`] and are expected to resume from their
/// latest checkpoint (see `Partitioner::supervised` in `core`).
///
/// Returns the per-rank values of the first fully successful attempt plus
/// the recovery counters, or the terminal error once the budgets are
/// exhausted. Genuine panics still propagate as panics — recovery is for
/// structured comm failures, not broken invariants. When `base.obs` is
/// set, the counters are also written into the registry so they appear in
/// the RunReport.
pub fn run_config_supervised<R, F>(
    p: usize,
    sup: SupervisorConfig,
    f: F,
) -> Result<(Vec<R>, RecoveryReport), CommError>
where
    R: Send,
    F: Fn(&Comm, &AttemptInfo) -> R + Sync,
{
    let SupervisorConfig { base, limits, seed } = sup;
    supervise(
        limits,
        seed,
        base.deadline,
        base.obs.as_ref(),
        |info, deadline| {
            let hook = base.fault_hook.as_ref().map(|h| {
                if info.dead_ranks.is_empty() {
                    Arc::clone(h)
                } else {
                    Arc::new(DisarmedKills {
                        inner: Arc::clone(h),
                        disarmed: info.dead_ranks.clone(),
                    }) as Arc<dyn FaultHook>
                }
            });
            let group = Group::build(p, base.backend, deadline, hook, base.obs.clone());
            let results = run_group(&group, |comm| f(comm, info));
            (results, group.fault_ledger())
        },
    )
}

/// CPU time consumed by the calling thread, in seconds — re-exported
/// from `pgp-obs`, where resource observation lives alongside the rest
/// of the observability layer ([`pgp_obs::ResourceSample`] embeds the
/// same reading per PE). The `pgp_dmp::thread_cpu_seconds` path is kept
/// for the benchmarks and downstream callers.
pub use pgp_obs::thread_cpu_seconds;

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
    fn verdict_separates_dead_from_transient() {
        let ledger = vec![
            CommError::PeerDead { rank: 2, dead: 2 },
            CommError::Timeout {
                rank: 0,
                src: 2,
                tag: 9,
            },
            // Propagated copy on a survivor: same dead coordinate.
            CommError::PeerDead { rank: 1, dead: 2 },
        ];
        let results: Vec<Result<(), CommError>> = vec![
            Err(CommError::PeerDead { rank: 0, dead: 2 }),
            Ok(()),
            Ok(()),
        ];
        let v = FailureVerdict::from_run(&ledger, &results);
        assert_eq!(v.dead, vec![2], "one death, corroborated three ways");
        assert_eq!(v.timeouts, 1);
        assert!(!v.is_transient());

        let timeouts_only = vec![CommError::Timeout {
            rank: 1,
            src: 0,
            tag: 3,
        }];
        let none: Vec<Result<(), CommError>> = vec![Ok(()), Ok(())];
        let v = FailureVerdict::from_run(&timeouts_only, &none);
        assert!(v.is_transient(), "uncorroborated timeout must not kill");
        assert_eq!(v.timeouts, 1);
    }

    /// Kills one specific rank at a phase (like pgp-chaos's kill plans,
    /// local to this module — the chaos crate depends on this one).
    struct KillOnce {
        rank: usize,
        phase: u64,
    }

    impl FaultHook for KillOnce {
        fn on_send(
            &self,
            _src: usize,
            _dst: usize,
            _tag: Tag,
            _seq: u64,
        ) -> crate::comm::SendFault {
            crate::comm::SendFault::Deliver
        }

        fn kill_at_phase(&self, rank: usize) -> Option<u64> {
            (rank == self.rank).then_some(self.phase)
        }
    }

    #[test]
    fn supervised_recovers_from_a_kill() {
        let sup = SupervisorConfig {
            base: RunConfig {
                deadline: Some(Duration::from_secs(5)),
                fault_hook: Some(Arc::new(KillOnce { rank: 1, phase: 0 })),
                ..RunConfig::default()
            },
            ..SupervisorConfig::default()
        };
        let (values, report) = run_config_supervised(3, sup, |comm, info| {
            crate::collectives::barrier(comm);
            (comm.rank(), info.attempt, info.dead_ranks.clone())
        })
        .expect("supervisor must recover from a single kill");
        // Attempt 0 dies (rank 1's kill fires); attempt 1 runs with the
        // kill disarmed and every closure sees the consensus verdict.
        for (rank, (r, attempt, dead)) in values.into_iter().enumerate() {
            assert_eq!(r, rank);
            assert_eq!(attempt, 1);
            assert_eq!(dead, vec![1]);
        }
        assert_eq!(report.attempts, 2);
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.retries, 0);
        assert_eq!(report.dead_ranks, vec![1]);
    }

    #[test]
    fn supervised_gives_up_when_budget_exhausted() {
        // A kill can only fire once per rank (the supervisor disarms dead
        // ranks), so the way to exhaust the recovery budget is to allow
        // zero recoveries: the very first death must surface as the error.
        let sup = SupervisorConfig {
            base: RunConfig {
                deadline: Some(Duration::from_secs(5)),
                fault_hook: Some(Arc::new(KillOnce { rank: 0, phase: 0 })),
                ..RunConfig::default()
            },
            limits: RecoveryLimits {
                max_recoveries: 0,
                ..RecoveryLimits::default()
            },
            ..SupervisorConfig::default()
        };
        let err = run_config_supervised(2, sup, |comm, _| {
            crate::collectives::barrier(comm);
            comm.rank()
        })
        .expect_err("zero recovery budget must surface the death");
        assert!(matches!(err, CommError::PeerDead { dead: 0, .. }), "{err}");
    }

    #[test]
    fn supervised_fault_free_is_single_attempt() {
        let (values, report) =
            run_config_supervised(2, SupervisorConfig::default(), |comm, info| {
                assert_eq!(info.attempt, 0);
                assert!(info.dead_ranks.is_empty());
                comm.rank() * 7
            })
            .expect("fault-free");
        assert_eq!(values, vec![0, 7]);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.retries + report.recoveries, 0);
    }

    /// Drives [`supervise`] with a scripted launch on 2 ranks — no threads,
    /// no processes. `T` is a timed-out attempt, `D(r)` one where rank `r`
    /// died, `K` a clean one; `want` is `(attempts, retries, recoveries,
    /// dead_ranks)` or the terminal error.
    #[test]
    fn supervise_loop_budget_table() {
        #[derive(Clone, Copy, Debug)]
        enum Step {
            K,
            T,
            D(usize),
        }
        use Step::{D, K, T};
        let limits = RecoveryLimits {
            backoff_base_ms: 0,
            ..RecoveryLimits::default()
        };
        let (max_retries, max_recoveries) = (limits.max_retries as usize, limits.max_recoveries);
        let dead = |r| CommError::PeerDead { rank: r, dead: r };
        type Want = Result<(u64, u64, u64, Vec<usize>), CommError>;
        let rows: Vec<(Vec<Step>, Want)> = vec![
            (vec![T, T, K], Ok((3, 2, 0, vec![]))),
            (vec![D(1), K], Ok((2, 0, 1, vec![1]))),
            // Spent retries escalate to a recovery although nobody died.
            (
                [vec![T; max_retries + 1], vec![K]].concat(),
                Ok((max_retries as u64 + 2, max_retries as u64, 1, vec![])),
            ),
            // Each death names a new rank (a repeated one would be a retry);
            // one more than the budget surfaces that attempt's first error.
            (
                (0..=max_recoveries as usize).map(D).collect(),
                Err(dead(max_recoveries as usize)),
            ),
        ];
        for (script, want) in rows {
            let base = Duration::from_millis(10);
            let mut seen: Vec<AttemptInfo> = Vec::new();
            let got = supervise(limits, 7, Some(base), None, |info, deadline| {
                // The watchdog doubles per retry taken (the escalated timeout
                // of row three is answered by a recovery, not a retry).
                let timeouts = script[..seen.len()].iter().filter(|s| matches!(s, T));
                let widen = u32::try_from(timeouts.count().min(max_retries)).expect("small");
                assert_eq!(deadline, Some(base * (1 << widen)), "{script:?}");
                seen.push(info.clone());
                let err = match script[seen.len() - 1] {
                    K => return (vec![Ok(0usize), Ok(1)], Vec::new()),
                    T => CommError::Timeout {
                        rank: 0,
                        src: 1,
                        tag: 9,
                    },
                    D(r) => dead(r),
                };
                (vec![Err(err.clone()), Ok(1)], vec![err])
            });
            let got = got.map(|(values, r)| {
                assert_eq!(values, vec![0, 1]);
                // The last launch was told everything the report says.
                let last = seen.last().expect("launched");
                assert_eq!(last.dead_ranks, r.dead_ranks, "{script:?}");
                assert_eq!(u64::from(last.recoveries), r.recoveries, "{script:?}");
                (r.attempts, r.retries, r.recoveries, r.dead_ranks)
            });
            assert_eq!(got, want, "{script:?}");
            assert!(seen.iter().map(|i| i.attempt).eq(0..script.len() as u32));
        }
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

#[cfg(test)]
mod cpu_time_tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_under_load() {
        let t0 = thread_cpu_seconds();
        // Burn ~50ms of CPU.
        let mut acc = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(acc);
        let t1 = thread_cpu_seconds();
        assert!(t1 >= t0, "cpu time went backwards");
        assert!(t1 - t0 < 10.0, "implausible cpu delta {}", t1 - t0);
    }

    // The clock-tick-rate sanity test moved to `pgp-obs::resources` with
    // the helper itself; this module keeps the runner-facing contracts.
}
