//! The shipped `pgp-partition` binary at its front door: a bad invocation
//! exits 2 with a message naming the key, a graph file it cannot accept
//! exits 1 with a message naming the line — never a panic, never an abort
//! and never a silently substituted default.

use pgp::pgp_obs::{validate_perfetto, JsonValue};
use std::process::Command;

/// Two triangles joined by one bridge.
const TWO_TRIANGLES: &str = "6 7\n2 3\n1 3 4\n1 2\n2 5 6\n4 6\n4 5\n";

/// A fresh scratch directory for one CLI run.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pgp-cli-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs the built CLI on a small METIS file with `extra` arguments;
/// returns the exit code and stderr.
fn run_cli(tag: &str, extra: &[&str]) -> (Option<i32>, String) {
    run_cli_on(tag, TWO_TRIANGLES, extra)
}

/// Runs the built CLI on a graph file holding `text`.
fn run_cli_on(tag: &str, text: &str, extra: &[&str]) -> (Option<i32>, String) {
    let (code, stderr, _) = run_cli_written(tag, text.as_bytes(), extra);
    (code, stderr)
}

/// [`run_cli_on`], plus the partition file the run wrote (empty if none).
fn run_cli_written(tag: &str, text: &[u8], extra: &[&str]) -> (Option<i32>, String, String) {
    let dir = temp_dir(tag);
    let graph = dir.join("graph.metis");
    let part = dir.join("out.part");
    std::fs::write(&graph, text).expect("write graph");
    let out = Command::new(env!("CARGO_BIN_EXE_pgp-partition"))
        .arg(&graph)
        .args(extra)
        .arg(format!("output={}", part.display()))
        .output()
        .expect("spawn pgp-partition");
    let written = std::fs::read_to_string(&part).unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        written,
    )
}

#[test]
fn bad_values_exit_2_naming_the_key() {
    // (how the last stderr line starts, arguments)
    let cases: [(&str, &[&str]); 20] = [
        ("error: invalid k=", &["k=0"]),
        ("error: invalid p=", &["k=2", "p=0"]),
        ("error: invalid eps=", &["k=2", "eps=-1"]),
        ("error: invalid p=", &["k=2", "p=two"]),
        ("error: invalid seed=", &["k=2", "seed=x"]),
        ("error: invalid eps=", &["k=2", "eps=abc"]),
        // A key or flag the CLI does not know — a removed option, a typo —
        // is refused, not ignored.
        (
            "error: unknown argument threads-per-pe=2",
            &["k=2", "threads-per-pe=2"],
        ),
        (
            "error: unknown argument --threads-per-pe",
            &["k=2", "--threads-per-pe", "2"],
        ),
        ("error: unknown argument sed=3", &["k=2", "sed=3"]),
        (
            "error: unknown argument --telemetry",
            &["k=2", "--telemetry", "x.ndjson"],
        ),
        (
            "error: unknown argument telemetry=x.ndjson",
            &["k=2", "telemetry=x.ndjson"],
        ),
        ("error: unknown argument --monitor", &["k=2", "--monitor"]),
        ("error: unknown argument monitor=1", &["k=2", "monitor=1"]),
        ("error: unknown argument --recover", &["k=2", "--recover"]),
        ("error: unknown argument recover=1", &["k=2", "recover=1"]),
        (
            "error: unknown argument max-retries=3",
            &["k=2", "max-retries=3"],
        ),
        (
            "error: unknown argument checkpoint-every=2",
            &["k=2", "checkpoint-every=2"],
        ),
        (
            "error: unknown argument backend=sockets",
            &["k=2", "backend=sockets"],
        ),
        (
            "error: unknown argument backend=threads",
            &["k=2", "backend=threads"],
        ),
        (
            "error: unknown argument --backend",
            &["k=2", "--backend", "sockets"],
        ),
    ];
    for (i, (want, args)) in cases.iter().enumerate() {
        let (code, stderr) = run_cli(&i.to_string(), args);
        assert_eq!(code, Some(2), "{args:?} must exit 2, stderr:\n{stderr}");
        let last = stderr.lines().last().unwrap_or_default();
        assert!(
            last.starts_with(want),
            "{args:?}: last line must start with `{want}`, got: {last}"
        );
        assert!(
            !stderr.contains("panicked at"),
            "{args:?} panicked:\n{stderr}"
        );
    }
}

#[test]
fn a_good_invocation_still_exits_0() {
    // The observation outputs go through `ObsSession::finish` in the
    // binary; they live outside the run's own (removed) scratch directory.
    let obs_dir = temp_dir("ok-obs");
    let report = obs_dir.join("report.json");
    let trace = obs_dir.join("trace.json");
    let (code, stderr) = run_cli(
        "ok",
        &[
            "k=2",
            "p=2",
            "seed=3",
            "--report",
            report.to_str().expect("utf-8 temp path"),
            "--trace",
            trace.to_str().expect("utf-8 temp path"),
        ],
    );
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    assert!(
        stderr.contains("cut = 1"),
        "two triangles, one bridge:\n{stderr}"
    );
    let text = std::fs::read_to_string(&report).expect("report written");
    let parsed = JsonValue::parse(&text).expect("report parses");
    let field = |key| parsed.get(key).and_then(JsonValue::as_u64);
    assert_eq!((field("schema_version"), field("p")), (Some(8), Some(2)));
    assert!(
        !text.contains("\"backend\""),
        "one transport, no backend key"
    );
    validate_perfetto(&std::fs::read_to_string(&trace).expect("trace written"))
        .expect("trace validates");
    let _ = std::fs::remove_dir_all(&obs_dir);
}

#[test]
fn many_isolated_nodes_partition_in_linear_time() {
    // 100 000 nodes, one edge: greedy growing restarts once per isolated
    // node it absorbs. A restart that scanned from node 0 every time made
    // this run take 17 s in release; it takes a fraction of a second now.
    let n = 100_000;
    let mut text = format!("{n} 1\n2\n1\n");
    text.push_str(&"\n".repeat(n - 2));
    let dir = temp_dir("isolated");
    let graph = dir.join("graph.metis");
    let out = dir.join("out.part");
    std::fs::write(&graph, text).expect("write graph");
    let mut child = Command::new(env!("CARGO_BIN_EXE_pgp-partition"))
        .arg(&graph)
        .args(["k=2", "p=1"])
        .arg(format!("output={}", out.display()))
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn pgp-partition");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait for pgp-partition") {
            break status;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_dir_all(&dir);
            panic!("k=2 p=1 on {n} isolated nodes did not finish within 30 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let written = std::fs::read_to_string(&out).unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(status.success(), "exit {status}");
    assert_eq!(written.lines().count(), n);
}

#[test]
fn hostile_graph_files_exit_1_naming_the_line() {
    let cases = [
        // A header that claims more nodes than `Node` holds, one that claims
        // 10^17 edges, and adjacency only one side lists.
        ("n", "5000000000 1\n2\n1\n", "line 1"),
        ("m", "3 99999999999999999\n2\n1 3\n2\n", "line 1"),
        ("asym", "3 2\n2 3\n\n\n", "line 2"),
    ];
    for (tag, text, line) in cases {
        let (code, stderr) = run_cli_on(tag, text, &["k=2", "p=2"]);
        assert_eq!(code, Some(1), "{tag} must exit 1, stderr:\n{stderr}");
        let errors: Vec<&str> = stderr.lines().filter(|l| l.contains("error")).collect();
        assert_eq!(errors.len(), 1, "{tag}: one error line, got:\n{stderr}");
        assert!(
            errors[0].starts_with("error reading ") && errors[0].contains(line),
            "{tag} must name {line}, got: {}",
            errors[0]
        );
        assert!(
            !stderr.contains("panicked at") && !stderr.contains("memory allocation"),
            "{tag} panicked or aborted:\n{stderr}"
        );
    }
}

#[test]
fn the_graph_file_is_not_held_in_memory() {
    // A six-node graph behind a 64 MiB comment: a reader that holds the
    // file peaks above 64 MiB, one that streams it stays far below.
    let mut text = vec![b'%'; 64 << 20];
    text.push(b'\n');
    text.extend_from_slice(TWO_TRIANGLES.as_bytes());
    let (code, stderr, written) = run_cli_written("comment-prefix", &text, &["k=2", "p=2"]);
    drop(text);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    assert_eq!(written.lines().count(), 6);
    let last = stderr.lines().last().unwrap_or_default();
    let mib: f64 = last
        .rsplit("peak RSS ")
        .next()
        .and_then(|r| r.strip_suffix(" MiB"))
        .and_then(|x| x.parse().ok())
        .unwrap_or_else(|| panic!("no peak RSS on the closing line: {last}"));
    assert!(
        mib < 32.0,
        "peak RSS {mib} MiB for a 64 MiB comment:\n{stderr}"
    );
}

#[test]
fn hostile_but_valid_graphs_exit_0_with_a_full_partition() {
    const PATH3: &str = "3 2\n2\n1 3\n2\n";
    let isolated = format!("100 0\n{}", "\n".repeat(100));
    let cases: [(&str, &str, &[&str]); 4] = [
        ("empty", "0 0\n", &["k=2", "p=2"]),
        ("p-above-n", PATH3, &["k=2", "p=8"]),
        ("k-above-n", PATH3, &["k=5", "p=2"]),
        ("isolated-p3", &isolated, &["k=2", "p=3"]),
    ];
    for (tag, text, args) in cases {
        let n: usize = text.split_whitespace().next().unwrap().parse().unwrap();
        let (code, stderr, written) = run_cli_written(tag, text.as_bytes(), args);
        assert_eq!(code, Some(0), "{tag} must exit 0, stderr:\n{stderr}");
        assert!(!stderr.contains("panicked at"), "{tag} panicked:\n{stderr}");
        assert_eq!(written.lines().count(), n, "{tag}: one line per node");
    }
}
