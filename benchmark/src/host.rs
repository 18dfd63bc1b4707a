//! Host-noise guard: a fixed pure-CPU kernel timed around each workload,
//! and the share of CPU time the hypervisor took away meanwhile. Neither
//! depends on the program under test, so a drift here is the host's.

use std::hint::black_box;
use std::time::Instant;

/// Calibration drift above which a workload's numbers are marked `noisy`.
pub const NOISY_DRIFT: f64 = 0.10;

/// Times the calibration kernel once: 2^25 dependent integer steps that
/// live in registers, so neither the caches nor the allocator take part.
pub fn calibrate_once() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..(1u64 << 25) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

/// Three kernel timings, taken back to back.
pub fn calibrate() -> [f64; 3] {
    [calibrate_once(), calibrate_once(), calibrate_once()]
}

/// `(steal, total)` jiffies of all CPUs since boot, from the first line of
/// `/proc/stat`; `None` where that file does not exist or reads otherwise.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already part of user time.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// What the guard saw around one workload.
#[derive(Clone, Copy, Debug)]
pub struct HostNoise {
    /// `(max − min) / median` over the kernel timings before and after.
    pub calib_spread: f64,
    /// Stolen jiffies over all jiffies while the workload ran (0 when
    /// `/proc/stat` is unavailable).
    pub steal_share: f64,
    /// The kernel's median after the workload differs from the one before
    /// by more than [`NOISY_DRIFT`].
    pub noisy: bool,
}

/// Start of a guarded interval.
pub struct Guard {
    before: [f64; 3],
    jiffies: Option<(u64, u64)>,
}

impl Guard {
    pub fn start() -> Guard {
        Guard {
            before: calibrate(),
            jiffies: cpu_jiffies(),
        }
    }

    pub fn finish(self) -> HostNoise {
        let after = calibrate();
        let steal_share = match (self.jiffies, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        };
        noise_of(&self.before, &after, steal_share)
    }
}

fn noise_of(before: &[f64; 3], after: &[f64; 3], steal_share: f64) -> HostNoise {
    let all: Vec<f64> = before.iter().chain(after).copied().collect();
    let s = crate::stats::Summary::of(&all).expect("six samples");
    let (b, a) = (
        crate::stats::median_of(before),
        crate::stats::median_of(after),
    );
    HostNoise {
        calib_spread: (s.max - s.min) / s.median,
        steal_share,
        noisy: ((a - b) / b).abs() > NOISY_DRIFT,
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_beyond_ten_percent_is_noisy() {
        let quiet = noise_of(&[1.0, 1.01, 0.99], &[1.02, 1.0, 1.01], 0.0);
        assert!(!quiet.noisy);
        assert!((quiet.calib_spread - 0.03 / 1.005).abs() < 1e-12);
        let drifted = noise_of(&[1.0, 1.0, 1.0], &[1.2, 1.2, 1.0], 0.25);
        assert!(drifted.noisy);
        assert_eq!(drifted.steal_share, 0.25);
    }
}
