//! Deterministic fault injection for the simulated PE universe.
//!
//! This crate is the user-facing half of the fault model (DESIGN.md §9):
//! it builds seed-driven [`FaultPlan`]s — message delay/reorder across
//! tags, send drops, induced stalls, and PE kill-at-phase — and installs
//! them into a run via [`pgp_dmp::RunConfig`]. The comm layer consults the
//! plan as a pure decision oracle ([`pgp_dmp::FaultHook`]); payloads and
//! mailbox internals never cross into this crate, and the xtask lint keeps
//! it that way.
//!
//! Every decision is a pure function of `(plan seed, src, dst, tag, seq)`,
//! so replaying the same plan against the same program yields the same
//! faults — chaos runs are reproducible, bisectable, and usable in tests
//! that assert *bit-identical* results against a fault-free run.

use pgp_dmp::runner::{run_config, RunConfig};
use pgp_dmp::{mix_seed, Comm, CommError, FaultHook, SendFault, Tag};
use pgp_graph::ids;
use std::sync::Arc;
use std::time::Duration;

/// Probabilities are expressed per mille (0..=1000) of send events.
const PER_MILLE: u64 = 1000;

/// A deterministic, seed-driven fault plan. Build one with the fluent
/// methods, then install it with [`FaultPlan::into_config`] or run
/// directly via [`chaos_run`].
///
/// Delay injection alone never changes program results on this substrate:
/// the comm layer preserves FIFO per `(src, tag)` and every receive is
/// selective, so reordering *across* tags is invisible to correct
/// protocols — which is exactly what the bit-identical chaos tests prove.
/// Drops and kills, by contrast, are fatal faults: they surface as
/// [`CommError::Timeout`] / [`CommError::PeerDead`] through the watchdog.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    /// Per-mille probability that a send event is delayed.
    delay_per_mille: u64,
    /// Maximum number of send events a delayed message is held across
    /// (the actual hold count is seeded in `1..=max`).
    delay_max_holds: u32,
    /// Per-mille probability that a send event is dropped.
    drop_per_mille: u64,
    /// Per-mille probability that a send event stalls the sender.
    stall_per_mille: u64,
    /// Stall duration in microseconds.
    stall_micros: u64,
    /// `(rank, phase)` pairs: kill `rank` when it starts `phase`.
    kills: Vec<(usize, u64)>,
    /// When set, only send events originating from this rank are faulted
    /// (kills are unaffected — they are already per-rank).
    only_src: Option<usize>,
}

impl FaultPlan {
    /// A plan with the given `seed` and no faults configured.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Delays `per_mille`/1000 of send events, each held across a seeded
    /// `1..=max_holds` subsequent send events (reordering it behind later
    /// traffic to other tags; FIFO per `(src, tag)` is preserved).
    pub fn delay(mut self, per_mille: u64, max_holds: u32) -> Self {
        assert!(per_mille <= PER_MILLE, "probability is per mille");
        self.delay_per_mille = per_mille;
        self.delay_max_holds = max_holds.max(1);
        self
    }

    /// Drops `per_mille`/1000 of send events (lost messages; receivers hit
    /// the watchdog deadline unless the protocol tolerates the loss).
    pub fn drop_sends(mut self, per_mille: u64) -> Self {
        assert!(per_mille <= PER_MILLE, "probability is per mille");
        self.drop_per_mille = per_mille;
        self
    }

    /// Stalls the sender for `micros` on `per_mille`/1000 of send events
    /// (wall-clock perturbation only; delivery order is unchanged).
    pub fn stall(mut self, per_mille: u64, micros: u64) -> Self {
        assert!(per_mille <= PER_MILLE, "probability is per mille");
        self.stall_per_mille = per_mille;
        self.stall_micros = micros;
        self
    }

    /// Kills PE `rank` when it starts its `phase`-th tag block (phases are
    /// counted per PE as [`pgp_dmp::Comm::fresh_tag_block`] calls).
    pub fn kill(mut self, rank: usize, phase: u64) -> Self {
        self.kills.push((rank, phase));
        self
    }

    /// Restricts send faults to events originating from `rank`.
    pub fn only_src(mut self, rank: usize) -> Self {
        self.only_src = Some(rank);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A [`RunConfig`] installing this plan plus a watchdog `deadline`.
    /// Plans with drops or kills should always run under a deadline — the
    /// watchdog is what turns the induced hang into a structured error.
    pub fn into_config(self, deadline: Option<Duration>) -> RunConfig {
        RunConfig {
            deadline,
            fault_hook: Some(Arc::new(self)),
            ..RunConfig::default()
        }
    }

    /// The seeded roll in `0..1000` for one send event and fault `salt`.
    fn roll(&self, salt: u64, src: usize, dst: usize, tag: Tag, seq: u64) -> u64 {
        let mut h = mix_seed(self.seed, salt);
        h = mix_seed(h, ids::count_global(src));
        h = mix_seed(h, ids::count_global(dst).wrapping_add(tag));
        mix_seed(h, seq) % PER_MILLE
    }
}

// Distinct salts keep the three fault categories' rolls independent.
const SALT_DROP: u64 = 0xD0;
const SALT_DELAY: u64 = 0xDE1;
const SALT_HOLDS: u64 = 0x401D;
const SALT_STALL: u64 = 0x57A11;

impl FaultHook for FaultPlan {
    fn on_send(&self, src: usize, dst: usize, tag: Tag, seq: u64) -> SendFault {
        if self.only_src.is_some_and(|only| only != src) {
            return SendFault::Deliver;
        }
        if self.drop_per_mille > 0 && self.roll(SALT_DROP, src, dst, tag, seq) < self.drop_per_mille
        {
            return SendFault::Drop;
        }
        if self.delay_per_mille > 0
            && self.roll(SALT_DELAY, src, dst, tag, seq) < self.delay_per_mille
        {
            let span = u64::from(self.delay_max_holds);
            let holds = 1 + self.roll(SALT_HOLDS, src, dst, tag, seq) % span;
            return SendFault::Delay {
                holds: u32::try_from(holds).expect("holds bounded by delay_max_holds (u32)"),
            };
        }
        if self.stall_per_mille > 0
            && self.roll(SALT_STALL, src, dst, tag, seq) < self.stall_per_mille
        {
            return SendFault::Stall {
                micros: self.stall_micros,
            };
        }
        SendFault::Deliver
    }

    fn kill_at_phase(&self, rank: usize) -> Option<u64> {
        self.kills
            .iter()
            .find(|&&(r, _)| r == rank)
            .map(|&(_, phase)| phase)
    }
}

/// Runs `f` on `p` PEs under `plan` with watchdog `deadline`; returns each
/// PE's outcome. Convenience wrapper over [`run_config`].
pub fn chaos_run<R, F>(
    p: usize,
    plan: FaultPlan,
    deadline: Duration,
    f: F,
) -> Vec<Result<R, CommError>>
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    run_config(p, plan.into_config(Some(deadline)), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::new(42).delay(300, 4).drop_sends(50);
        let b = FaultPlan::new(42).delay(300, 4).drop_sends(50);
        for seq in 0..200 {
            assert_eq!(a.on_send(0, 1, 7, seq), b.on_send(0, 1, 7, seq));
        }
    }

    #[test]
    fn different_seeds_give_different_decisions() {
        let a = FaultPlan::new(1).delay(500, 4);
        let b = FaultPlan::new(2).delay(500, 4);
        let differs = (0..200).any(|seq| a.on_send(0, 1, 7, seq) != b.on_send(0, 1, 7, seq));
        assert!(differs, "seeds 1 and 2 produced identical 200-event plans");
    }

    #[test]
    fn fault_free_plan_always_delivers() {
        let plan = FaultPlan::new(7);
        for seq in 0..100 {
            assert_eq!(plan.on_send(0, 1, 3, seq), SendFault::Deliver);
        }
        assert_eq!(plan.kill_at_phase(0), None);
    }

    #[test]
    fn only_src_scopes_faults() {
        let plan = FaultPlan::new(9).drop_sends(1000).only_src(2);
        for seq in 0..50 {
            assert_eq!(plan.on_send(0, 1, 3, seq), SendFault::Deliver);
            assert_eq!(plan.on_send(2, 1, 3, seq), SendFault::Drop);
        }
    }

    #[test]
    fn kill_registers_for_the_right_rank() {
        let plan = FaultPlan::new(0).kill(3, 17);
        assert_eq!(plan.kill_at_phase(3), Some(17));
        assert_eq!(plan.kill_at_phase(2), None);
    }

    #[test]
    fn probabilities_are_roughly_honored() {
        let plan = FaultPlan::new(1234).drop_sends(250);
        let drops = (0..4000)
            .filter(|&seq| plan.on_send(0, 1, 5, seq) == SendFault::Drop)
            .count();
        // 25% ± generous slack; the roll is a hash, not a strict RNG.
        assert!((600..=1400).contains(&drops), "drop count {drops}/4000");
    }
}
