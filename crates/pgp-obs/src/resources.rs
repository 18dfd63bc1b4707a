//! Per-PE resource profiling: RSS and thread-CPU time.
//!
//! The semi-external roadmap item (ROADMAP.md item 3, grounded in
//! *(Semi-)External Algorithms for Graph Partitioning and Clustering*)
//! needs runs to *prove* a memory budget — peak RSS per PE in the run
//! artifacts, not an eyeballed `top`. This module supplies the sample
//! type the report embeds:
//!
//! - current/peak RSS from `/proc/self/status` (`VmRSS`/`VmHWM`) —
//!   process-wide, because the PEs are threads sharing one address space
//!   (the per-PE value is an upper bound);
//! - thread-CPU seconds from `/proc/thread-self/stat` (utime+stime),
//!   moved here from `pgp-dmp::runner` so resource observation lives
//!   with the rest of the observability layer (`pgp-dmp` re-exports it
//!   for compatibility).
//!
//! Everything here degrades to zeros on platforms without `/proc`;
//! nothing panics.

/// One point-in-time resource measurement for one PE.
///
/// All fields are wall-clock/racy observations: the report serializer
/// zeroes them under `to_json(true)` exactly like span timings, so the
/// golden determinism tests are unaffected.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResourceSample {
    /// Current resident set size in KiB (`VmRSS`), 0 if unavailable.
    pub rss_current_kb: u64,
    /// Peak resident set size in KiB (`VmHWM`), 0 if unavailable.
    /// Monotone non-decreasing over a process lifetime.
    pub rss_peak_kb: u64,
    /// CPU seconds consumed by the sampling thread (utime + stime).
    pub thread_cpu_s: f64,
}

impl ResourceSample {
    /// Captures a sample for the calling thread. Cheap (two small
    /// `/proc` reads); intended for phase-boundary cadence, not inner
    /// loops.
    pub fn capture() -> Self {
        let (rss_current_kb, rss_peak_kb) = read_rss_kb();
        ResourceSample {
            rss_current_kb,
            rss_peak_kb,
            thread_cpu_s: thread_cpu_seconds(),
        }
    }
}

/// Reads `(VmRSS, VmHWM)` in KiB from `/proc/self/status`; `(0, 0)`
/// when unavailable (non-Linux, restricted /proc).
pub fn read_rss_kb() -> (u64, u64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let mut current = 0;
    let mut peak = 0;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            current = parse_kb(rest);
        } else if let Some(rest) = line.strip_prefix("VmHWM:") {
            peak = parse_kb(rest);
        }
    }
    (current, peak)
}

/// Parses the numeric part of a `/proc/self/status` "<n> kB" field.
fn parse_kb(rest: &str) -> u64 {
    rest.split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// CPU time consumed by the calling thread, in seconds. Linux-only
/// (`/proc/thread-self/stat`); returns 0.0 when unavailable.
pub fn thread_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/thread-self/stat") else {
        return 0.0;
    };
    // Fields 14 (utime) and 15 (stime) in clock ticks, counted after the
    // parenthesized comm field (which may contain spaces).
    let Some(rest) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // rest begins at field 3 ("state"), so utime/stime are at 11/12.
    let (Some(ut), Some(st)) = (fields.get(11), fields.get(12)) else {
        return 0.0;
    };
    let ticks: f64 = ut.parse::<u64>().unwrap_or(0) as f64 + st.parse::<u64>().unwrap_or(0) as f64;
    ticks / clock_ticks_per_second()
}

/// `sysconf(_SC_CLK_TCK)`: the kernel's tick rate for `/proc` CPU-time
/// fields. Read once via `getconf CLK_TCK` (the workspace is `#![forbid
/// (unsafe_code)]`-adjacent in its algorithm crates and vendors no libc,
/// so the POSIX query goes through the standard utility instead of an
/// FFI call); falls back to 100, which is `USER_HZ` on every mainstream
/// Linux configuration — the kernel fixes the userspace-visible rate at
/// 100 regardless of the scheduler's internal `CONFIG_HZ`, so the
/// fallback is almost always exact rather than approximate.
fn clock_ticks_per_second() -> f64 {
    static CLK_TCK: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *CLK_TCK.get_or_init(|| {
        std::process::Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|out| {
                if !out.status.success() {
                    return None;
                }
                String::from_utf8(out.stdout)
                    .ok()?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .filter(|&hz| hz > 0.0)
            .unwrap_or(100.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_is_nonzero_and_peak_dominates_current() {
        let (current, peak) = read_rss_kb();
        // On Linux (the only supported platform for /proc sampling) a
        // running test process has resident memory.
        assert!(current > 0, "VmRSS should be nonzero on Linux");
        assert!(peak >= current, "VmHWM must dominate VmRSS");
    }

    #[test]
    fn peak_rss_is_monotone_across_allocation() {
        let (_, peak_before) = read_rss_kb();
        // Touch ~8 MiB so the high-water mark cannot shrink and very
        // likely grows past any earlier peak.
        let block: Vec<u8> = (0..8 * 1024 * 1024).map(|i| (i % 251) as u8).collect();
        std::hint::black_box(&block);
        let (current, peak_after) = read_rss_kb();
        assert!(peak_after >= peak_before, "VmHWM went backwards");
        assert!(peak_after >= current);
        drop(block);
        // VmHWM is max(hiwater_rss, current-approximate-rss) and the
        // kernel's per-task rss counters are synced lazily, so the
        // reported peak can sag by a few pages after a free. Allow that
        // jitter; `Recorder::sample_resources` clamps per-PE peaks monotone.
        let (_, peak_final) = read_rss_kb();
        assert!(
            peak_final + 4096 >= peak_after,
            "peak shrank past counter jitter: {peak_after} -> {peak_final}"
        );
    }

    #[test]
    fn capture_is_coherent() {
        let s = ResourceSample::capture();
        assert!(s.rss_peak_kb >= s.rss_current_kb);
        assert!(s.thread_cpu_s >= 0.0);
    }

    #[test]
    fn thread_cpu_seconds_is_present_and_sane() {
        let t = thread_cpu_seconds();
        assert!((0.0..3600.0).contains(&t), "implausible cpu time {t}");
    }
}
