//! The shipped `pgp-partition` binary at its front door: a bad invocation
//! exits 2 with a message naming the key, never a panic and never a
//! silently substituted default.

use std::process::Command;

/// Runs the built CLI on a small METIS file with `extra` arguments;
/// returns the exit code and stderr.
fn run_cli(tag: &str, extra: &[&str]) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("pgp-cli-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let graph = dir.join("two_triangles.metis");
    std::fs::write(&graph, "6 7\n2 3\n1 3 4\n1 2\n2 5 6\n4 6\n4 5\n").expect("write graph");
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
    let cases: [(&str, &[&str]); 9] = [
        ("k", &["k=0"]),
        ("p", &["k=2", "p=0"]),
        ("eps", &["k=2", "eps=-1"]),
        ("p", &["k=2", "p=two"]),
        ("seed", &["k=2", "seed=x"]),
        ("eps", &["k=2", "eps=abc"]),
        ("threads-per-pe", &["k=2", "threads-per-pe=q"]),
        ("max-retries", &["k=2", "max-retries=-1"]),
        ("checkpoint-every", &["k=2", "checkpoint-every=z"]),
    ];
    for (i, (key, args)) in cases.iter().enumerate() {
        let (code, stderr) = run_cli(&i.to_string(), args);
        assert_eq!(code, Some(2), "{args:?} must exit 2, stderr:\n{stderr}");
        let last = stderr.lines().last().unwrap_or_default();
        assert!(
            last.starts_with("error: invalid ") && last.contains(&format!(" {key}=")),
            "{args:?} must name `{key}` in its last line, got: {last}"
        );
        assert!(
            !stderr.contains("panicked at"),
            "{args:?} panicked:\n{stderr}"
        );
    }
}

#[test]
fn a_good_invocation_still_exits_0() {
    let (code, stderr) = run_cli("ok", &["k=2", "p=2", "seed=3"]);
    assert_eq!(code, Some(0), "stderr:\n{stderr}");
    assert!(
        stderr.contains("cut = 1"),
        "two triangles, one bridge:\n{stderr}"
    );
}
