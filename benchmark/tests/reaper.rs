//! The reaper process must report its child's own peak RSS, not that of
//! whoever asked for the child.

use std::process::Command;

#[test]
fn a_small_child_of_a_large_parent_reports_a_small_peak() {
    // Make this process large first: 256 MiB, every page touched.
    let mut ballast = vec![0u8; 256 << 20];
    for page in ballast.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&ballast);

    let out = Command::new(env!("CARGO_BIN_EXE_pgp-benchmark"))
        .args(["reap", "10", "/bin/sh", "-c", "exit 3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let line = String::from_utf8(out.stdout).unwrap();
    let fields: Vec<&str> = line.split_whitespace().collect();
    assert_eq!(fields.len(), 5, "{line}");
    let peak_rss_kib: u64 = fields[2].parse().unwrap();
    assert!(peak_rss_kib > 0 && peak_rss_kib < 64 << 10, "{line}");
    assert_eq!((fields[3], fields[4]), ("3", "false"));
}

#[test]
fn bad_reaper_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_pgp-benchmark"))
        .args(["reap", "soon", "/bin/sh"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
