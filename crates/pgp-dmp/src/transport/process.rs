//! Multi-process socket mode: one OS process per PE (DESIGN.md §15).
//!
//! The in-process backends simulate PEs as threads; this module makes them
//! real processes, so a `SIGKILL` is an actual death the recovery
//! supervisor must survive — not a simulated one. The shape:
//!
//! * The *parent* ([`run_multiprocess`]) re-executes its own binary once
//!   per rank (`current_exe`, so workers and parent are always the same
//!   build) with the worker protocol carried in environment variables,
//!   waits for every child, and collects one result file per rank.
//! * Each *worker* starts by calling [`maybe_run_worker`] — a trampoline
//!   that is a no-op in the parent but, in a spawned child, connects the
//!   socket mesh, runs the named entry function over a socket-backed
//!   [`Comm`], writes its result file, and exits without returning.
//! * [`run_multiprocess_supervised`] launches the parent side from the
//!   runner's attempt loop: failed attempts are diagnosed from the workers'
//!   result files (a missing or corrupt file is a self-evident death), dead
//!   ranks accumulate across attempts, deadlines widen, and the run
//!   converges or exhausts its recovery budget.
//!
//! Mesh wiring: every rank binds a Unix listener at `<dir>/pe-<r>.sock`,
//! connects to all lower ranks (announcing itself with an 8-byte hello),
//! and accepts from all higher ranks. A peer that never shows up inside
//! the connect timeout is reported as [`CommError::PeerDead`] — which is
//! exactly what a rank killed during setup looks like.

use super::socket::{spawn_reader, SocketEndpoint};
use crate::comm::{Comm, CommAbort, CommError};
use crate::runner::{supervise, RecoveryLimits};
use crate::wire::Wire;
use pgp_obs::{Recorder, RecoveryReport};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment variable naming the worker entry to run. Present iff the
/// current process is a spawned worker.
const ENV_ENTRY: &str = "PGP_WORKER_ENTRY";
/// This worker's rank.
const ENV_RANK: &str = "PGP_WORKER_RANK";
/// The PE group size.
const ENV_SIZE: &str = "PGP_WORKER_SIZE";
/// The rendezvous directory holding sockets, args, and result files.
const ENV_DIR: &str = "PGP_WORKER_DIR";
/// Watchdog deadline in milliseconds (absent = park forever).
const ENV_DEADLINE_MS: &str = "PGP_WORKER_DEADLINE_MS";
/// Attempt counter (0 on the first launch; see [`WorkerCtx::attempt`]).
const ENV_ATTEMPT: &str = "PGP_WORKER_ATTEMPT";
/// Comma-separated ranks declared dead in earlier attempts.
const ENV_DEAD: &str = "PGP_WORKER_DEAD";
/// How long mesh setup waits for a missing peer before declaring it dead.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// What a worker entry learns about the run besides its communicator.
#[derive(Clone, Debug)]
pub struct WorkerCtx {
    /// This worker's rank in `0..size`.
    pub rank: usize,
    /// The PE group size.
    pub size: usize,
    /// 0 on the first launch, incremented per supervised relaunch.
    pub attempt: u32,
    /// Ranks declared dead in earlier attempts (their current processes
    /// are respawned replacements), ascending.
    pub dead_ranks: Vec<usize>,
}

/// A worker entry: computes this rank's result bytes from the shared
/// argument bytes. Entries must be registered under the same name in the
/// parent ([`ProcessConfig::entry`]) and the worker ([`maybe_run_worker`]).
pub type WorkerFn = fn(&Comm, &WorkerCtx, &[u8]) -> Vec<u8>;

/// Parent-side configuration for one multi-process run.
#[derive(Clone, Debug)]
pub struct ProcessConfig {
    /// Name of the worker entry to run (looked up in the worker's
    /// [`maybe_run_worker`] registry).
    pub entry: String,
    /// Argument bytes broadcast to every worker (written once to the
    /// rendezvous directory).
    pub args: Vec<u8>,
    /// Watchdog deadline applied to every blocking receive in the workers.
    /// Strongly recommended: without it a wedged group hangs the parent.
    pub deadline: Option<Duration>,
    /// Extra command-line arguments for the spawned processes. A plain
    /// binary needs none; a libtest binary needs
    /// `["--exact", "<test_name>", "--nocapture"]` so the child re-enters
    /// the test function that called [`maybe_run_worker`].
    pub extra_args: Vec<String>,
}

/// The worker trampoline. Call this at the top of `main` (or of the test
/// function that spawns workers): in the parent it returns immediately; in
/// a spawned worker process it runs the matching entry over a socket-backed
/// [`Comm`], writes the rank's result file, and exits the process.
///
/// A structured failure ([`CommError`], from the watchdog or a dead peer)
/// is written to the result file and exits cleanly — the parent reads the
/// error from the file. A *genuine* panic is resumed: the process dies
/// without writing a result file or saying goodbye on its sockets, which
/// is precisely how peers and the parent learn of an unclean death.
pub fn maybe_run_worker(entries: &[(&str, WorkerFn)]) {
    let Ok(entry) = std::env::var(ENV_ENTRY) else {
        return;
    };
    let ctx = WorkerCtx {
        rank: env_usize(ENV_RANK),
        size: env_usize(ENV_SIZE),
        attempt: u32::try_from(env_usize(ENV_ATTEMPT)).expect("worker attempt fits u32"),
        dead_ranks: std::env::var(ENV_DEAD)
            .ok()
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.split(',')
                    .map(|r| r.parse().expect("worker dead-rank list"))
                    .collect()
            })
            .unwrap_or_default(),
    };
    let dir = PathBuf::from(std::env::var(ENV_DIR).expect("worker rendezvous dir"));
    let deadline = std::env::var(ENV_DEADLINE_MS)
        .ok()
        .map(|ms| Duration::from_millis(ms.parse().expect("worker deadline ms")));
    let f = entries
        .iter()
        .find(|(name, _)| *name == entry)
        .map(|(_, f)| *f)
        .unwrap_or_else(|| panic!("no worker entry named `{entry}` registered"));
    let args = std::fs::read(dir.join("args.bin")).expect("worker args file");

    let result: Result<Vec<u8>, CommError> = match connect_mesh(ctx.rank, ctx.size, &dir) {
        Err(missing) => Err(CommError::PeerDead {
            rank: ctx.rank,
            dead: missing,
        }),
        Ok((links, reader_streams)) => {
            let endpoint = SocketEndpoint::new(ctx.rank, ctx.size, links);
            let readers: Vec<_> = reader_streams
                .into_iter()
                .enumerate()
                .filter_map(|(src, s)| s.map(|s| spawn_reader(Arc::clone(&endpoint), src, s)))
                .collect();
            let comm = Comm::from_parts(
                Arc::clone(&endpoint) as Arc<dyn super::Transport>,
                ctx.rank,
                deadline,
                None,
                Recorder::disabled(),
            );
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm, &ctx, &args)));
            drop(comm);
            let result = match outcome {
                Ok(bytes) => Ok(bytes),
                Err(payload) => match payload.downcast::<CommAbort>() {
                    Ok(abort) => Err(abort.0),
                    // Genuine panic: die loudly, with no BYE and no result
                    // file — peers see EOF, the parent sees the gap.
                    Err(payload) => std::panic::resume_unwind(payload),
                },
            };
            // Orderly goodbye (even on a structured error — the group is
            // already poisoned; what matters is that this EOF is announced),
            // then drain the readers before the streams drop.
            endpoint.shutdown_clean();
            for h in readers {
                let _ = h.join();
            }
            result
        }
    };
    write_result(&dir, ctx.rank, &result);
    std::process::exit(0);
}

/// Reads a required usize-valued worker env var.
fn env_usize(key: &str) -> usize {
    std::env::var(key)
        .unwrap_or_else(|_| panic!("worker env var {key} missing"))
        .parse()
        .unwrap_or_else(|_| panic!("worker env var {key} malformed"))
}

/// Atomically writes this rank's result file (tmp + rename, so the parent
/// never observes a half-written file).
fn write_result(dir: &Path, rank: usize, result: &Result<Vec<u8>, CommError>) {
    let bytes = result.encode_to_vec();
    let tmp = dir.join(format!("result-{rank}.tmp"));
    let fin = dir.join(format!("result-{rank}.bin"));
    std::fs::write(&tmp, bytes).expect("worker result tmp write");
    std::fs::rename(&tmp, &fin).expect("worker result rename");
}

/// Wires this rank into the full socket mesh: bind `pe-<rank>.sock`,
/// connect to every lower rank (sending an 8-byte LE hello carrying our
/// rank), accept from every higher rank (reading theirs). Returns
/// `(links, reader_streams)` indexed by peer, or the rank of the first
/// peer that never showed up inside [`CONNECT_TIMEOUT`].
#[allow(clippy::type_complexity)]
fn connect_mesh(
    rank: usize,
    size: usize,
    dir: &Path,
) -> Result<(Vec<Option<UnixStream>>, Vec<Option<UnixStream>>), usize> {
    let own = dir.join(format!("pe-{rank}.sock"));
    let _ = std::fs::remove_file(&own);
    let listener = UnixListener::bind(&own).expect("worker bind rendezvous socket");
    listener
        .set_nonblocking(true)
        .expect("worker listener nonblocking");

    let mut links: Vec<Option<UnixStream>> = (0..size).map(|_| None).collect();
    // Connect downward.
    for (q, link) in links.iter_mut().enumerate().take(rank) {
        let peer = dir.join(format!("pe-{q}.sock"));
        let t0 = Instant::now(); // lint:instant-ok: mesh connect timeout
        let stream = loop {
            match UnixStream::connect(&peer) {
                Ok(s) => break s,
                Err(_) if t0.elapsed() < CONNECT_TIMEOUT => {
                    // The peer has not bound its socket yet (or died; the
                    // timeout decides which).
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => return Err(q),
            }
        };
        let hello = pgp_graph::ids::count_global(rank).to_le_bytes();
        let mut s = stream;
        if s.write_all(&hello).is_err() {
            return Err(q);
        }
        *link = Some(s);
    }
    // Accept upward.
    let mut pending: Vec<usize> = ((rank + 1)..size).collect();
    let t0 = Instant::now(); // lint:instant-ok: mesh accept timeout
    while !pending.is_empty() {
        match listener.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false).expect("worker stream blocking");
                let mut hello = [0u8; 8];
                let mut sm = s;
                if sm.read_exact(&mut hello).is_err() {
                    // A connector that died mid-hello; keep waiting for the
                    // rest (the timeout still bounds the wait).
                    continue;
                }
                let q = usize::try_from(u64::from_le_bytes(hello)).expect("hello rank fits usize");
                pending.retain(|&x| x != q);
                links[q] = Some(sm);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if t0.elapsed() >= CONNECT_TIMEOUT {
                    return Err(pending[0]);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return Err(pending[0]),
        }
    }
    let _ = std::fs::remove_file(&own);
    let mut reader_streams: Vec<Option<UnixStream>> = (0..size).map(|_| None).collect();
    for (q, link) in links.iter().enumerate() {
        if let Some(s) = link {
            reader_streams[q] = Some(s.try_clone().expect("worker stream clone"));
        }
    }
    Ok((links, reader_streams))
}

/// Runs `cfg.entry` across `size` worker processes and returns each rank's
/// result: the entry's bytes, or the structured error the worker reported.
/// A rank whose process died without reporting (SIGKILL, genuine panic) is
/// returned as its own [`CommError::PeerDead`].
///
/// # Panics
/// Panics on environment-level failures (cannot create the rendezvous
/// directory, cannot spawn the binary) — those are setup errors, not run
/// outcomes.
pub fn run_multiprocess(size: usize, cfg: &ProcessConfig) -> Vec<Result<Vec<u8>, CommError>> {
    run_attempt(size, cfg, 0, &[])
}

/// One parent-side attempt: fresh rendezvous dir, spawn all ranks, wait,
/// collect result files.
fn run_attempt(
    size: usize,
    cfg: &ProcessConfig,
    attempt: u32,
    dead: &[usize],
) -> Vec<Result<Vec<u8>, CommError>> {
    assert!(size > 0, "need at least one PE");
    let dir = fresh_rendezvous_dir(attempt);
    std::fs::write(dir.join("args.bin"), &cfg.args).expect("parent args write");
    let exe = std::env::current_exe().expect("parent current_exe");
    let dead_csv = dead
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let mut children = Vec::with_capacity(size);
    for rank in 0..size {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(&cfg.extra_args)
            .env(ENV_ENTRY, &cfg.entry)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_SIZE, size.to_string())
            .env(ENV_DIR, &dir)
            .env(ENV_ATTEMPT, attempt.to_string())
            .env(ENV_DEAD, &dead_csv)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        if let Some(d) = cfg.deadline {
            cmd.env(ENV_DEADLINE_MS, d.as_millis().to_string());
        }
        children.push(cmd.spawn().expect("parent spawn worker"));
    }
    for child in &mut children {
        let _ = child.wait();
    }
    let results: Vec<Result<Vec<u8>, CommError>> = (0..size)
        .map(|rank| {
            let path = dir.join(format!("result-{rank}.bin"));
            match std::fs::read(&path) {
                // A corrupt result file is treated like a missing one: the
                // process did not complete its protocol.
                Ok(bytes) => Result::<Vec<u8>, CommError>::decode_all(&bytes)
                    .unwrap_or(Err(CommError::PeerDead { rank, dead: rank })),
                Err(_) => Err(CommError::PeerDead { rank, dead: rank }),
            }
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    results
}

/// A unique scratch directory for one attempt's sockets and result files.
fn fresh_rendezvous_dir(attempt: u32) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed); // lint:relaxed-ok: unique-name counter
    let dir = std::env::temp_dir().join(format!("pgp-mp-{}-{n}-a{attempt}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("parent rendezvous dir");
    dir
}

/// Runs `cfg.entry` across `size` worker processes under the runner's
/// attempt loop (the same one, budgets and backoff as
/// [`run_config_supervised`](crate::run_config_supervised)): each failed
/// attempt is diagnosed from the workers' result files — a missing file is
/// a self-evident death (the SIGKILL case), a reported
/// [`CommError::PeerDead`] corroborates its `dead` coordinate, and
/// uncorroborated timeouts are retried with a widened deadline. Every rank
/// is respawned per attempt (workers are stateless between attempts; the
/// accumulated dead set and attempt number reach them through
/// [`WorkerCtx`], so entries can resume from checkpoints or skip
/// already-fired fault injections).
///
/// Returns each rank's bytes from the first fully successful attempt plus
/// the recovery counters, or the terminal error once budgets are exhausted.
pub fn run_multiprocess_supervised(
    size: usize,
    cfg: &ProcessConfig,
    limits: RecoveryLimits,
) -> Result<(Vec<Vec<u8>>, RecoveryReport), CommError> {
    // The backoff jitter is wall-clock only, so the parent needs no seed
    // of its own; the result files are the whole fault record (no ledger).
    supervise(limits, 0, cfg.deadline, None, |info, deadline| {
        let attempt_cfg = ProcessConfig {
            deadline,
            ..cfg.clone()
        };
        let results = run_attempt(size, &attempt_cfg, info.attempt, &info.dead_ranks);
        (results, Vec::new())
    })
}
