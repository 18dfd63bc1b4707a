//! Findings, the rule catalog, suppression handling, and JSON output.

use crate::lexer::Allow;

/// Rule: send/recv payload types disagree for one tag.
pub const RULE_TYPE_MISMATCH: &str = "protocol-type-mismatch";
/// Rule: a tag is sent but never received (mailbox leak).
pub const RULE_UNRECEIVED_TAG: &str = "protocol-unreceived-tag";
/// Rule: a user-level tag value collides with the collective tag block.
pub const RULE_COLLECTIVE_COLLISION: &str = "protocol-collective-collision";
/// Rule: a collective call is lexically guarded by a rank-dependent branch.
pub const RULE_RANK_GUARDED_COLLECTIVE: &str = "spmd-rank-guarded-collective";
/// Rule: iteration over a std `HashMap`/`HashSet` in a determinism-critical
/// crate.
pub const RULE_HASH_ITER: &str = "det-unordered-hash-iter";
/// Rule: floating-point reduction over an unordered hash iteration.
pub const RULE_FLOAT_REDUCE: &str = "det-unordered-float-reduce";
/// Rule: a `Result<_, CommError>` unwrapped/expected/discarded outside the
/// runner's terminal collection point.
pub const RULE_ERR_SWALLOWED: &str = "err-swallowed-commerror";
/// Rule: a transport-layer internal (mailbox machinery, socket endpoints,
/// the frame codec, raw OS stream types) named outside comm.rs/transport/.
pub const RULE_TRANSPORT_CONFINED: &str = "transport-confined";
/// Rule: an `analyze:allow` marker that suppressed nothing.
pub const RULE_UNUSED_ALLOW: &str = "unused-allow";

/// The full rule catalog: `(id, one-line description)`. Order here is the
/// order rules are documented in `--list-rules` style output.
pub const RULES: &[(&str, &str)] = &[
    (
        RULE_TYPE_MISMATCH,
        "send sites and recv sites for one tag use different payload types (unpack would panic at runtime)",
    ),
    (
        RULE_UNRECEIVED_TAG,
        "a tag has send sites but no recv/drain site anywhere in the workspace (messages pile up in the mailbox)",
    ),
    (
        RULE_COLLECTIVE_COLLISION,
        "a user-level tag value or offset collides with the collective tag block layout",
    ),
    (
        RULE_RANK_GUARDED_COLLECTIVE,
        "a collective operation is called under a rank-dependent condition reachable from an SPMD entry point (deadlock: not all PEs participate)",
    ),
    (
        RULE_HASH_ITER,
        "iteration over std HashMap/HashSet in a determinism-critical crate (RandomState makes order run-dependent)",
    ),
    (
        RULE_FLOAT_REDUCE,
        "floating-point accumulation over an unordered hash iteration (result depends on iteration order)",
    ),
    (
        RULE_ERR_SWALLOWED,
        "a Result<_, CommError> is unwrapped, expected, or discarded with `let _ =` outside the runner's terminal collection point (the structured fault the recovery supervisor needs is swallowed)",
    ),
    (
        RULE_TRANSPORT_CONFINED,
        "a transport-layer internal (mailbox machinery, socket endpoints, frame codec, raw OS streams) is named outside comm.rs/transport/ — the backend seam is breached and cross-backend golden equivalence no longer covers the caller",
    ),
    (
        RULE_UNUSED_ALLOW,
        "an `// analyze:allow(...)` marker that did not suppress any finding",
    ),
];

/// Returns true when `rule` is a known rule id.
pub fn known_rule(rule: &str) -> bool {
    RULES.iter().any(|(id, _)| *id == rule)
}

/// One analyzer finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule id (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Repo-relative path of the file.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description of this specific instance.
    pub message: String,
}

/// Result of applying suppressions to a raw finding list.
#[derive(Debug, Default)]
pub struct Suppressed {
    /// Findings that survived (including any `unused-allow` findings).
    pub findings: Vec<Finding>,
    /// How many findings were suppressed by `analyze:allow` markers.
    pub suppressed: usize,
}

/// Applies `// analyze:allow(rule-id)` markers: a marker suppresses
/// matching findings on its own line or the line directly below it.
/// Markers that suppress nothing become `unused-allow` findings (which are
/// themselves not suppressible — delete the stale marker instead).
pub fn apply_suppressions(raw: Vec<Finding>, allows: &[(String, Vec<Allow>)]) -> Suppressed {
    let mut used = vec![Vec::new(); allows.len()];
    for (fi, (_, file_allows)) in allows.iter().enumerate() {
        used[fi] = vec![false; file_allows.len()];
    }
    let mut out = Suppressed::default();
    'finding: for f in raw {
        for (fi, (file, file_allows)) in allows.iter().enumerate() {
            if *file != f.file {
                continue;
            }
            for (ai, a) in file_allows.iter().enumerate() {
                let covers_line = a.line == f.line || a.line + 1 == f.line;
                if covers_line && a.rules.iter().any(|r| r == f.rule) {
                    used[fi][ai] = true;
                    out.suppressed += 1;
                    continue 'finding;
                }
            }
        }
        out.findings.push(f);
    }
    for (fi, (file, file_allows)) in allows.iter().enumerate() {
        for (ai, a) in file_allows.iter().enumerate() {
            if used[fi][ai] {
                continue;
            }
            for rule in &a.rules {
                if !known_rule(rule) {
                    out.findings.push(Finding {
                        rule: RULE_UNUSED_ALLOW,
                        file: file.clone(),
                        line: a.line,
                        message: format!("allow names unknown rule `{rule}`"),
                    });
                } else {
                    out.findings.push(Finding {
                        rule: RULE_UNUSED_ALLOW,
                        file: file.clone(),
                        line: a.line,
                        message: format!(
                            "allow for `{rule}` suppressed nothing; delete the stale marker"
                        ),
                    });
                }
            }
        }
    }
    sort_findings(&mut out.findings);
    out
}

/// Sorts findings by `(file, line, rule, message)` and drops exact
/// duplicates, so output is deterministic regardless of rule order.
pub fn sort_findings(findings: &mut Vec<Finding>) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    findings.dedup();
}

/// Renders the analysis result as stable machine-readable JSON
/// (`pgp-analyze/v1` schema).
pub fn to_json(findings: &[Finding], suppressed: usize, files_scanned: usize) -> String {
    let mut s = String::from("{\n  \"schema\": \"pgp-analyze/v1\",\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            escape(f.rule),
            escape(&f.file),
            f.line,
            escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str(&format!(
        "],\n  \"suppressed\": {suppressed},\n  \"files_scanned\": {files_scanned}\n}}\n"
    ));
    s
}

/// JSON string escaping (quotes, backslashes, control characters).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message: "m".to_string(),
        }
    }

    fn allow(line: u32, rule: &str) -> Allow {
        Allow {
            line,
            rules: vec![rule.to_string()],
        }
    }

    #[test]
    fn allow_suppresses_same_line_and_line_below() {
        let allows = vec![(
            "a.rs".to_string(),
            vec![allow(10, RULE_HASH_ITER), allow(20, RULE_HASH_ITER)],
        )];
        let raw = vec![
            finding(RULE_HASH_ITER, "a.rs", 10), // same line
            finding(RULE_HASH_ITER, "a.rs", 21), // line below marker
            finding(RULE_HASH_ITER, "a.rs", 30), // uncovered
        ];
        let s = apply_suppressions(raw, &allows);
        assert_eq!(s.suppressed, 2);
        assert_eq!(s.findings.len(), 1);
        assert_eq!(s.findings[0].line, 30);
    }

    #[test]
    fn wrong_rule_does_not_suppress() {
        let allows = vec![("a.rs".to_string(), vec![allow(10, RULE_FLOAT_REDUCE)])];
        let raw = vec![finding(RULE_HASH_ITER, "a.rs", 10)];
        let s = apply_suppressions(raw, &allows);
        assert_eq!(s.suppressed, 0);
        // The original finding survives AND the allow is reported unused.
        assert_eq!(s.findings.len(), 2);
        assert!(s.findings.iter().any(|f| f.rule == RULE_UNUSED_ALLOW));
    }

    #[test]
    fn unused_and_unknown_allows_are_flagged() {
        let allows = vec![(
            "a.rs".to_string(),
            vec![allow(5, RULE_HASH_ITER), allow(7, "not-a-rule")],
        )];
        let s = apply_suppressions(Vec::new(), &allows);
        assert_eq!(s.findings.len(), 2);
        assert!(s.findings.iter().all(|f| f.rule == RULE_UNUSED_ALLOW));
        assert!(s.findings[1].message.contains("unknown rule"));
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let findings = vec![Finding {
            rule: RULE_TYPE_MISMATCH,
            file: "crates/a/src/lib.rs".to_string(),
            line: 3,
            message: "types \"A\" vs \"B\"".to_string(),
        }];
        let j = to_json(&findings, 2, 40);
        assert!(j.contains("\"schema\": \"pgp-analyze/v1\""));
        assert!(j.contains("\\\"A\\\""));
        assert!(j.contains("\"suppressed\": 2"));
        assert!(j.contains("\"files_scanned\": 40"));
    }

    #[test]
    fn empty_findings_render_empty_array() {
        let j = to_json(&[], 0, 1);
        assert!(j.contains("\"findings\": []"));
    }
}
