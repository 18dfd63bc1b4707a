//! The shipped `pgp-partition` binary at its front door: a bad invocation
//! exits 2 with a message naming the key, a graph file it cannot accept
//! exits 1 with a message naming the line — never a panic, never an abort
//! and never a silently substituted default.

use pgp::pgp_obs::{validate_perfetto, RunReport};
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
    let dir = temp_dir(tag);
    let graph = dir.join("graph.metis");
    std::fs::write(&graph, text).expect("write graph");
    let out = Command::new(env!("CARGO_BIN_EXE_pgp-partition"))
        .arg(&graph)
        .args(extra)
        .arg(format!("output={}", dir.join("out.part").display()))
        .output()
        .expect("spawn pgp-partition");
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_values_exit_2_naming_the_key() {
    // (how the last stderr line starts, arguments)
    let cases: [(&str, &[&str]); 15] = [
        ("error: invalid k=", &["k=0"]),
        ("error: invalid p=", &["k=2", "p=0"]),
        ("error: invalid eps=", &["k=2", "eps=-1"]),
        ("error: invalid p=", &["k=2", "p=two"]),
        ("error: invalid seed=", &["k=2", "seed=x"]),
        ("error: invalid eps=", &["k=2", "eps=abc"]),
        ("error: invalid max-retries=", &["k=2", "max-retries=-1"]),
        (
            "error: invalid checkpoint-every=",
            &["k=2", "checkpoint-every=z"],
        ),
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
    let parsed = RunReport::from_json(&std::fs::read_to_string(&report).expect("report written"))
        .expect("report parses");
    assert_eq!(parsed.schema_version, 6);
    assert_eq!((parsed.p, parsed.backend.as_str()), (2, "threads"));
    validate_perfetto(&std::fs::read_to_string(&trace).expect("trace written"))
        .expect("trace validates");
    let _ = std::fs::remove_dir_all(&obs_dir);
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
