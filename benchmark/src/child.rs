//! Runs the shipped binary as a fresh OS process and reaps it with
//! `wait4`, the one call that returns a child's own CPU time and peak RSS.
//!
//! The reaping is done by a second, tiny process — this executable started
//! again as `pgp-benchmark reap …` — because Linux folds the *spawning*
//! process's RSS high-water mark into its child's `ru_maxrss` at `exec`. A
//! harness that has held a 400 MiB graph would report 400 MiB for every
//! child, however small; the reaper has never held more than a few MiB.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is that of 64-bit Linux");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen `long`s, of
/// which only `ru_maxrss` (KiB) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How one child run ended.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChildRun {
    /// Spawn to reaped.
    pub wall_s: f64,
    /// `ru_utime + ru_stime`, all threads.
    pub cpu_s: f64,
    /// `ru_maxrss`.
    pub peak_rss_kib: u64,
    /// Exit code; `None` when a signal ended the child (a timeout kills it).
    pub exit_code: Option<i32>,
    pub timed_out: bool,
}

impl ChildRun {
    /// The one line a reaper prints.
    fn to_line(self) -> String {
        format!(
            "{} {} {} {} {}",
            self.wall_s,
            self.cpu_s,
            self.peak_rss_kib,
            self.exit_code.unwrap_or(-1),
            self.timed_out
        )
    }

    fn from_line(line: &str) -> Option<ChildRun> {
        let mut it = line.split_whitespace();
        let run = ChildRun {
            wall_s: it.next()?.parse().ok()?,
            cpu_s: it.next()?.parse().ok()?,
            peak_rss_kib: it.next()?.parse().ok()?,
            exit_code: Some(it.next()?.parse().ok()?).filter(|&c: &i32| c >= 0),
            timed_out: it.next()?.parse().ok()?,
        };
        it.next().is_none().then_some(run)
    }
}

/// Runs `program args…` under a reaper process and returns what it saw.
pub fn run(program: &Path, args: &[String], timeout: Duration) -> Result<ChildRun, String> {
    let reaper = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(&reaper)
        .arg("reap")
        .arg(timeout.as_secs_f64().to_string())
        .arg(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", reaper.display()))?;
    let line = String::from_utf8_lossy(&out.stdout);
    match ChildRun::from_line(&line) {
        Some(run) if out.status.success() => Ok(run),
        _ => Err(format!(
            "the reaper of {} failed ({})",
            program.display(),
            out.status
        )),
    }
}

/// `pgp-benchmark reap <timeout seconds> <program> [args…]`: spawns the
/// program with its output discarded, kills it after the timeout, and prints
/// what `wait4` reported as one line.
pub fn reap_main(args: &[String]) -> ExitCode {
    let parsed = match args {
        [timeout, program, rest @ ..] => timeout
            .parse::<f64>()
            .ok()
            .filter(|t| t.is_finite() && *t > 0.0)
            .map(|t| (Duration::from_secs_f64(t), program, rest)),
        _ => None,
    };
    let Some((timeout, program, rest)) = parsed else {
        eprintln!("usage: pgp-benchmark reap <timeout seconds> <program> [args...]");
        return ExitCode::from(2);
    };
    match spawn_and_reap(Path::new(program), rest, timeout) {
        Ok(run) => {
            println!("{}", run.to_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn spawn_and_reap(program: &Path, args: &[String], timeout: Duration) -> Result<ChildRun, String> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
    let pid = child.id() as i32;
    let (reaped_tx, reaped_rx) = mpsc::channel::<()>();
    let (status, usage, wall_s, timed_out) = std::thread::scope(|scope| {
        // The watchdog sleeps until the child is reaped or the timeout
        // passes; only then does it kill, so the pid it signals is still ours.
        let watchdog = scope.spawn(move || {
            let expired = reaped_rx.recv_timeout(timeout).is_err();
            if expired {
                let _ = child.kill();
            }
            expired
        });
        let mut status = 0i32;
        let mut usage = Rusage::default();
        loop {
            // SAFETY: `status` and `usage` are live, writable and of the
            // types wait4(2) fills in on 64-bit Linux (checked at compile
            // time above); `pid` is a child of this process that nothing
            // else waits for, since `Child::wait` is never called.
            let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if r == pid {
                break;
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                let _ = reaped_tx.send(());
                let _ = watchdog.join();
                return Err(format!("wait4({pid}): {err}"));
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        let _ = reaped_tx.send(());
        let timed_out = watchdog.join().unwrap_or(false);
        Ok((status, usage, wall_s, timed_out))
    })?;
    let seconds = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(ChildRun {
        wall_s,
        cpu_s: seconds(&usage.utime) + seconds(&usage.stime),
        peak_rss_kib: usage.maxrss.max(0) as u64,
        // WIFEXITED / WEXITSTATUS.
        exit_code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        timed_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, timeout: Duration) -> ChildRun {
        spawn_and_reap(
            Path::new("/bin/sh"),
            &["-c".to_string(), script.to_string()],
            timeout,
        )
        .unwrap()
    }

    #[test]
    fn reports_exit_code_and_usage() {
        let ok = sh("exit 0", Duration::from_secs(10));
        assert_eq!((ok.exit_code, ok.timed_out), (Some(0), false));
        assert!(ok.peak_rss_kib > 0 && ok.wall_s > 0.0);
        let bad = sh("exit 3", Duration::from_secs(10));
        assert_eq!(bad.exit_code, Some(3));
    }

    #[test]
    fn kills_a_child_that_overruns() {
        let r = sh("exec sleep 30", Duration::from_millis(100));
        assert!(r.timed_out);
        assert_eq!(r.exit_code, None);
        assert!(r.wall_s < 10.0);
    }

    #[test]
    fn missing_program_is_an_error() {
        let gone = Path::new("/nonexistent/program");
        assert!(spawn_and_reap(gone, &[], Duration::from_secs(1)).is_err());
    }

    #[test]
    fn the_reapers_line_reads_back() {
        for run in [
            ChildRun {
                wall_s: 1.853_291_7,
                cpu_s: 3.201_082_5,
                peak_rss_kib: 426_148,
                exit_code: Some(0),
                timed_out: false,
            },
            ChildRun {
                wall_s: 37.0,
                cpu_s: 0.25,
                peak_rss_kib: 2048,
                exit_code: None,
                timed_out: true,
            },
        ] {
            assert_eq!(ChildRun::from_line(&run.to_line()), Some(run));
        }
        assert_eq!(ChildRun::from_line("1.0 2.0 3"), None);
        assert_eq!(ChildRun::from_line("1.0 2.0 3 0 false extra"), None);
    }
}
