//! Per-rule fixture tests: every rule has a positive fixture that must
//! trip it and a negative fixture that must stay silent.

use pgp_analyze::{analyze_files, Analysis, SourceFile};
use std::path::Path;

/// Reads a fixture from `crates/pgp-analyze/fixtures/`.
fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

/// Analyzes one fixture under the given repo-relative path (the path
/// decides rule scoping, e.g. determinism only fires under the
/// determinism-critical crates).
fn analyze_one(rel: &str, name: &str) -> Analysis {
    analyze_files(&[SourceFile {
        rel: rel.to_string(),
        text: fixture(name),
    }])
}

/// The distinct rule ids present in an analysis.
fn rules(a: &Analysis) -> Vec<&'static str> {
    let mut r: Vec<&'static str> = a.findings.iter().map(|f| f.rule).collect();
    r.sort_unstable();
    r.dedup();
    r
}

const PROTO_REL: &str = "crates/fix/src/lib.rs";
const DET_REL: &str = "crates/core/src/fix.rs";

#[test]
fn type_mismatch_trips() {
    let a = analyze_one(PROTO_REL, "protocol_type_mismatch_trip.rs");
    assert_eq!(rules(&a), vec!["protocol-type-mismatch"]);
    let f = &a.findings[0];
    assert!(f.message.contains("Vec<u32>") && f.message.contains("Vec<u64>"));
    // Anchored at the recv site.
    assert_eq!(f.line, 16);
}

#[test]
fn type_mismatch_passes_when_types_agree() {
    let a = analyze_one(PROTO_REL, "protocol_type_mismatch_pass.rs");
    assert_eq!(a.findings, Vec::new());
}

#[test]
fn unreceived_tag_trips() {
    let a = analyze_one(PROTO_REL, "protocol_unreceived_tag_trip.rs");
    assert_eq!(rules(&a), vec!["protocol-unreceived-tag"]);
    assert!(a.findings[0].message.contains("ORPHAN"));
}

#[test]
fn unreceived_tag_passes_via_self_tag_field() {
    let a = analyze_one(PROTO_REL, "protocol_unreceived_tag_pass.rs");
    assert_eq!(a.findings, Vec::new());
}

#[test]
fn collective_collision_trips_on_all_layout_violations() {
    let a = analyze_one(PROTO_REL, "protocol_collective_collision_trip.rs");
    assert_eq!(rules(&a), vec!["protocol-collective-collision"]);
    let msgs: String = a
        .findings
        .iter()
        .map(|f| f.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(msgs.contains("OP_BAD"), "op-code low byte: {msgs}");
    assert!(msgs.contains("TOO_HIGH"), "offset in op range: {msgs}");
    assert!(msgs.contains("DUP_B"), "duplicate value: {msgs}");
    assert!(msgs.contains("ABSOLUTE"), "const in block: {msgs}");
    assert!(msgs.contains("literal tag"), "literal in block: {msgs}");
}

#[test]
fn collective_collision_passes_on_wellformed_module() {
    let a = analyze_one(PROTO_REL, "protocol_collective_collision_pass.rs");
    assert_eq!(a.findings, Vec::new());
}

#[test]
fn rank_guarded_collective_trips() {
    let a = analyze_one(PROTO_REL, "spmd_rank_guarded_trip.rs");
    assert_eq!(rules(&a), vec!["spmd-rank-guarded-collective"]);
    let msgs: String = a
        .findings
        .iter()
        .map(|f| f.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(msgs.contains("`barrier`"), "if-branch collective: {msgs}");
    assert!(
        msgs.contains("`fresh_tag_block`"),
        "else-branch collective: {msgs}"
    );
}

#[test]
fn rank_guarded_collective_passes() {
    let a = analyze_one(PROTO_REL, "spmd_rank_guarded_pass.rs");
    assert_eq!(a.findings, Vec::new());
}

#[test]
fn hash_iter_trips_in_scoped_crate() {
    let a = analyze_one(DET_REL, "det_hash_iter_trip.rs");
    assert_eq!(rules(&a), vec!["det-unordered-hash-iter"]);
    assert_eq!(
        a.findings.len(),
        2,
        "method form and for form: {:?}",
        a.findings
    );
}

#[test]
fn hash_iter_ignores_unscoped_crates() {
    // Same source under a tooling path: out of determinism scope.
    let a = analyze_one("crates/xtask/src/fix.rs", "det_hash_iter_trip.rs");
    assert_eq!(a.findings, Vec::new());
}

#[test]
fn hash_iter_passes_on_ordered_or_noniterated() {
    let a = analyze_one(DET_REL, "det_hash_iter_pass.rs");
    assert_eq!(a.findings, Vec::new());
}

#[test]
fn float_reduce_trips_both_forms() {
    let a = analyze_one(DET_REL, "det_float_reduce_trip.rs");
    assert!(
        rules(&a).contains(&"det-unordered-float-reduce"),
        "{:?}",
        a.findings
    );
    let n = a
        .findings
        .iter()
        .filter(|f| f.rule == "det-unordered-float-reduce")
        .count();
    assert_eq!(n, 2, "chain form and loop form: {:?}", a.findings);
}

#[test]
fn float_reduce_passes_on_ordered_container() {
    let a = analyze_one(DET_REL, "det_float_reduce_pass.rs");
    assert_eq!(a.findings, Vec::new());
}

#[test]
fn err_swallowed_commerror_trips_all_forms() {
    let a = analyze_one(PROTO_REL, "err_swallowed_commerror_trip.rs");
    assert_eq!(rules(&a), vec!["err-swallowed-commerror"]);
    assert_eq!(
        a.findings.len(),
        4,
        "unwrap, expect, let _, turbofish: {:?}",
        a.findings
    );
    let msgs: String = a
        .findings
        .iter()
        .map(|f| f.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(msgs.contains(".unwrap()"), "{msgs}");
    assert!(msgs.contains(".expect()"), "{msgs}");
    assert!(msgs.contains("`let _ =` discards"), "{msgs}");
    assert!(msgs.contains("`helper`"), "turbofish call: {msgs}");
}

#[test]
fn err_swallowed_commerror_exempts_runner_terminal_point() {
    let a = analyze_one(
        "crates/pgp-dmp/src/runner.rs",
        "err_swallowed_commerror_trip.rs",
    );
    assert_eq!(a.findings, Vec::new());
}

#[test]
fn err_swallowed_commerror_passes_on_handled_faults() {
    let a = analyze_one(PROTO_REL, "err_swallowed_commerror_pass.rs");
    assert_eq!(a.findings, Vec::new());
}

#[test]
fn transport_confined_trips_on_every_breach_kind() {
    let a = analyze_one(PROTO_REL, "transport_confined_trip.rs");
    assert_eq!(rules(&a), vec!["transport-confined"]);
    assert_eq!(
        a.findings.len(),
        8,
        "use, mailbox, socket types, frame codec, raw streams: {:?}",
        a.findings
    );
    let msgs: String = a
        .findings
        .iter()
        .map(|f| f.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(msgs.contains("`Mailbox`"), "mailbox internal: {msgs}");
    assert!(msgs.contains("`SocketEndpoint`"), "socket type: {msgs}");
    assert!(msgs.contains("`write_frame`"), "frame codec: {msgs}");
    assert!(msgs.contains("`UnixStream`"), "raw OS stream: {msgs}");
}

#[test]
fn transport_confined_exempts_the_owning_layer() {
    // The identical breaches inside the transport layer itself: silent.
    for owner in [
        "crates/pgp-dmp/src/comm.rs",
        "crates/pgp-dmp/src/transport/socket.rs",
        "crates/pgp-dmp/src/transport/frame.rs",
    ] {
        let a = analyze_one(owner, "transport_confined_trip.rs");
        assert_eq!(a.findings, Vec::new(), "owner file {owner} is exempt");
    }
}

#[test]
fn transport_confined_passes_on_comm_api_usage() {
    let a = analyze_one(PROTO_REL, "transport_confined_pass.rs");
    assert_eq!(a.findings, Vec::new());
}

#[test]
fn unused_allow_trips_for_stale_and_unknown_markers() {
    let a = analyze_one(DET_REL, "unused_allow_trip.rs");
    assert_eq!(rules(&a), vec!["unused-allow"]);
    assert_eq!(a.findings.len(), 2, "{:?}", a.findings);
    assert!(a
        .findings
        .iter()
        .any(|f| f.message.contains("unknown rule")));
}

#[test]
fn allow_marker_suppresses_and_is_counted() {
    let a = analyze_one(DET_REL, "suppression_pass.rs");
    assert_eq!(a.findings, Vec::new());
    assert_eq!(a.suppressed, 1);
}
