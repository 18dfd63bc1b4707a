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
//! - thread-CPU seconds from `/proc/thread-self/schedstat`, in ns.
//!
//! Everything here degrades to zeros on platforms without `/proc`;
//! nothing panics.

/// One point-in-time resource measurement for one PE.
///
/// All fields are wall-clock/racy observations: `RunReport::zeroed`
/// zeroes them exactly like span timings, so the golden determinism tests
/// are unaffected.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResourceSample {
    /// Current resident set size in KiB (`VmRSS`), 0 if unavailable.
    pub rss_current_kb: u64,
    /// Peak resident set size in KiB (`VmHWM`), 0 if unavailable.
    /// Monotone non-decreasing over a process lifetime.
    pub rss_peak_kb: u64,
    /// CPU seconds consumed by the sampling thread
    /// ([`thread_cpu_seconds`]).
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

/// CPU time consumed by the calling thread, in seconds, at nanosecond
/// resolution: the first field of `/proc/thread-self/schedstat`, the
/// thread's on-CPU time in ns. The kernel brings that field up to date at
/// a scheduler tick or a reschedule, so the thread yields first to make
/// the reading current. Linux-only; returns 0.0 when unavailable.
pub fn thread_cpu_seconds() -> f64 {
    std::thread::yield_now();
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
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

    /// A 2 ms busy loop is shorter than a scheduler tick; every one must
    /// still read as CPU time spent.
    #[test]
    fn thread_cpu_seconds_sees_a_two_ms_loop() {
        for i in 0..5 {
            let t0 = thread_cpu_seconds();
            let start = std::time::Instant::now();
            let mut acc = 0u64;
            while start.elapsed() < std::time::Duration::from_millis(2) {
                acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            }
            std::hint::black_box(acc);
            let dt = thread_cpu_seconds() - t0;
            assert!(dt > 0.0, "loop {i}: a 2 ms loop read {dt} s");
        }
    }
}
