//! Workspace automation tasks (`cargo xtask <command>`).
//!
//! `cargo xtask lint` enforces the repo-specific correctness-wall rules that
//! clippy cannot express (ISSUE 1):
//!
//! 1. **id-cast** — in the ID-domain hot-path files (the distributed
//!    substrate and the kernels that mix local IDs, global IDs, PE ranks,
//!    and array indices), raw `as` casts between integer domains are
//!    forbidden; code must go through the blessed helpers in
//!    `pgp_graph::ids` or `From`/`TryFrom`. Escape hatch for a genuinely
//!    domain-free cast: a trailing `// lint:cast-ok: <reason>` comment.
//! 2. **relaxed-ordering** — `Ordering::Relaxed` is forbidden in the comm
//!    layer (`crates/pgp-dmp/src`): a relaxed counter that gates a phase
//!    barrier reorders freely against payload writes. Counters that are
//!    genuinely diagnostic-only must carry `// lint:relaxed-ok: <reason>`.
//! 3. **raw-csr-index** — direct indexing into `xadj`/`adjncy`/`adjwgt`
//!    arrays is only allowed in the CSR-owning modules; everything else
//!    must use the accessor methods, which keep the head-pointer/target
//!    arithmetic in one audited place.
//! 4. **lints-opt-in** — every workspace crate manifest must contain
//!    `[lints] workspace = true` so the workspace lint gate applies.
//! 5. **mailbox-internals** — the mailbox machinery and the payload
//!    envelope, plus raw OS stream types, may only be named in
//!    `crates/pgp-dmp/src/comm.rs` and `mailbox.rs`. The single-consumer
//!    invariant that makes `notify_one` and the per-(src, tag) FIFO
//!    guarantee sound is local to those files, and every message must be
//!    counted and type-checked on its way through; code elsewhere must
//!    stay behind the `Comm` API.
//! 6. **instant-now** — raw `Instant::now()` and `SystemTime::now()` in
//!    the instrumented crates (`crates/{core,pgp-dmp,pgp-lp,pgp-obs}/src`)
//!    are forbidden (ISSUE 4): phase timing must go through the `pgp-obs`
//!    Recorder spans so every timer lands in the run report and is
//!    zeroable for golden comparisons, and trace events are stamped from
//!    the registry's monotonic epoch — a wall clock in a report or trace
//!    would make them non-reproducible and skew straggler math across
//!    PEs. The sanctioned exceptions, marked
//!    `// lint:instant-ok: <reason>`, are the watchdog deadline in
//!    `pgp-dmp/src/mailbox.rs` and three sites in
//!    `pgp-obs/src/recorder.rs`: the run epoch's origin (`Obs::new`), its
//!    rebase (`Obs::rebase_epoch`) and the one event timestamp
//!    (`Inner::now_ns`), of which every span and wait duration is a
//!    difference.
//! 7. **std-hash** — `std` `HashMap` / `HashSet` are forbidden in the
//!    determinism-critical crates
//!    (`crates/{core,pgp-lp,pgp-dmp,pgp-obs,pgp-graph,pgp-seq}/src`): their
//!    per-process random seed makes iteration order (and any float sum fed
//!    by it) differ between runs, which breaks the bit-identical partitions
//!    promised across runs and PE counts. Use `FxHashMap`, a
//!    `BTreeMap` or a sorted `Vec`; the rule has no escape.
//!
//! The scanner is line-based with comment/string stripping and skips
//! `#[cfg(test)]` modules (test code may take shortcuts).
//!
//! `cargo xtask validate-trace <trace.json>` runs the Perfetto structural
//! validator over an exported trace.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files where ID-domain discipline is enforced (rule 1).
const ID_DOMAIN_FILES: &[&str] = &[
    "crates/pgp-dmp/src/comm.rs",
    "crates/pgp-dmp/src/collectives.rs",
    "crates/pgp-dmp/src/dgraph.rs",
    "crates/pgp-dmp/src/exchange.rs",
    "crates/pgp-dmp/src/runner.rs",
    "crates/core/src/contract.rs",
    "crates/core/src/coarsen.rs",
    "crates/core/src/partitioner.rs",
    "crates/pgp-lp/src/par.rs",
    "crates/pgp-check/src/lib.rs",
];

/// Cast targets that denote an ID/index/rank domain (rule 1).
const ID_CAST_TARGETS: &[&str] = &["u32", "u64", "usize", "Node", "Weight"];

/// Modules allowed to index CSR arrays directly (rule 3).
const CSR_OWNER_FILES: &[&str] = &[
    "crates/pgp-graph/src/csr.rs",
    "crates/pgp-graph/src/builder.rs",
    "crates/pgp-graph/src/contract.rs",
    // The METIS reader fills the CSR arrays in place, like the builder.
    "crates/pgp-graph/src/io.rs",
    "crates/pgp-dmp/src/dgraph.rs",
    // The validator audits the raw arrays by design.
    "crates/pgp-check/src/lib.rs",
];

/// CSR array names whose direct indexing is restricted (rule 3).
const CSR_ARRAYS: &[&str] = &["xadj[", "adjncy[", "adjwgt["];

/// The only files allowed to name the mailbox internals (rule 5): the
/// Comm facade and the mailbox behind it (DESIGN.md §11).
const MAILBOX_OWNER_FILES: &[&str] = &[
    "crates/pgp-dmp/src/comm.rs",
    "crates/pgp-dmp/src/mailbox.rs",
];

/// Mailbox-internal names restricted to [`MAILBOX_OWNER_FILES`]
/// (rule 5).
const MAILBOX_INTERNALS: &[&str] = &[
    // The mailbox and the payload envelope.
    "Mailbox",
    "MailboxInner",
    "SrcState",
    "TagQueue",
    "Payload",
    "RecvOutcome",
    // Raw OS streams.
    "UnixStream",
    "UnixListener",
    "TcpStream",
    "TcpListener",
];

/// Source trees where raw `Instant::now()` is confined to the pgp-obs seam
/// (rule 6).
const INSTANT_RESTRICTED_PREFIXES: &[&str] = &[
    "crates/core/src/",
    "crates/pgp-dmp/src/",
    "crates/pgp-lp/src/",
    // pgp-obs is the seam itself: its annotated epoch and event-timestamp
    // sites are the only sanctioned `Instant::now()` escapes.
    "crates/pgp-obs/src/",
];

/// Determinism-critical source trees where `std` hash containers are
/// banned (rule 7).
const HASH_RESTRICTED_PREFIXES: &[&str] = &[
    "crates/core/src/",
    "crates/pgp-lp/src/",
    "crates/pgp-dmp/src/",
    "crates/pgp-obs/src/",
    "crates/pgp-graph/src/",
    "crates/pgp-seq/src/",
];

/// `std` hash containers restricted by rule 7 (whole words, so
/// `FxHashMap` passes).
const STD_HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("validate-trace") => validate_trace(&args[1..]),
        Some(other) => {
            eprintln!("unknown xtask command: {other}");
            eprintln!("available commands: lint, validate-trace");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask <command>");
            eprintln!("available commands: lint, validate-trace");
            ExitCode::FAILURE
        }
    }
}

/// `cargo xtask validate-trace <trace.json>`: structural check of an
/// exported Chrome-trace/Perfetto file (balanced spans, resolvable flows).
fn validate_trace(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("usage: cargo xtask validate-trace <trace.json>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("validate-trace: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match pgp_obs::validate_perfetto(&text) {
        Ok(summary) => {
            println!("validate-trace: {path}: {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("validate-trace: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One rule violation.
#[derive(Debug)]
struct Violation {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut violations = Vec::new();

    for file in rust_sources(&root) {
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        scan_file(&file, &rel, &text, &mut violations);
    }
    check_manifests(&root, &mut violations);

    if violations.is_empty() {
        println!("xtask lint: all checks passed");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!(
                "{}:{}: [{}] {}",
                v.file.display(),
                v.line,
                v.rule,
                v.message
            );
        }
        eprintln!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// The repo root: walks up from the current directory until a
/// `Cargo.toml` with a `crates/` sibling appears.
///
/// # Panics
///
/// Panics when invoked outside the workspace.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|e| panic!("cannot read cwd: {e}"));
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            panic!("not inside the workspace (no Cargo.toml with crates/ found)");
        }
    }
}

/// All first-party `.rs` files (crates/* plus top-level src/, tests/ and
/// examples/), excluding the vendored stand-in crates and build output.
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        collect_rs(&root.join(top), &mut out);
    }
    out.retain(|p| !p.components().any(|c| c.as_os_str() == "vendor"));
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Which rules apply to one file, decided by its repo-relative path.
struct Scope {
    id_domain: bool,
    comm_layer: bool,
    csr_restricted: bool,
    mailbox_restricted: bool,
    instant_restricted: bool,
    hash_restricted: bool,
}

impl Scope {
    fn of(rel: &str) -> Self {
        let under = |prefixes: &[&str]| prefixes.iter().any(|p| rel.starts_with(p));
        Scope {
            id_domain: ID_DOMAIN_FILES.contains(&rel),
            comm_layer: rel.starts_with("crates/pgp-dmp/src/"),
            csr_restricted: !CSR_OWNER_FILES.contains(&rel),
            mailbox_restricted: !MAILBOX_OWNER_FILES.contains(&rel),
            instant_restricted: under(INSTANT_RESTRICTED_PREFIXES),
            hash_restricted: under(HASH_RESTRICTED_PREFIXES),
        }
    }
}

/// Per-file scan state: strips comments/strings, tracks `#[cfg(test)]`
/// module extents by brace depth, applies the rules.
fn scan_file(file: &Path, rel: &str, text: &str, violations: &mut Vec<Violation>) {
    let scope = Scope::of(rel);
    let is_test_file = rel.starts_with("tests/") || rel.contains("/tests/");

    let mut depth: i32 = 0;
    let mut in_block_comment = false;
    // When Some(d): inside a #[cfg(test)] item that opened at depth d;
    // cleared once the brace depth drops back to d.
    let mut test_region: Option<i32> = None;
    // Set when a #[cfg(test)] attribute was seen but its item's brace has
    // not opened yet.
    let mut pending_test_attr = false;

    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let (code, was_in_block) = strip_comments(raw_line, in_block_comment);
        in_block_comment = was_in_block;
        let code = strip_strings(&code);
        let trimmed = code.trim();

        if trimmed.starts_with("#[cfg(test)]") {
            pending_test_attr = true;
        }

        let opens = code.matches('{').count() as i32;
        let closes = code.matches('}').count() as i32;

        if pending_test_attr && opens > 0 {
            test_region.get_or_insert(depth);
            pending_test_attr = false;
        }

        let in_test = is_test_file || test_region.is_some() || pending_test_attr;

        if !in_test {
            apply_rules(file, rel, lineno, raw_line, &code, &scope, violations);
        }

        depth += opens - closes;
        if let Some(d) = test_region {
            if depth <= d {
                test_region = None;
            }
        }
    }
}

fn apply_rules(
    file: &Path,
    rel: &str,
    lineno: usize,
    raw_line: &str,
    code: &str,
    scope: &Scope,
    violations: &mut Vec<Violation>,
) {
    // Rule 1: id-cast.
    if scope.id_domain && !raw_line.contains("lint:cast-ok") {
        for target in ID_CAST_TARGETS {
            if let Some(pos) = find_cast(code, target) {
                violations.push(Violation {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: "id-cast",
                    message: format!(
                        "raw `as {target}` cast in an ID-domain file (col {pos}); use the \
                         pgp_graph::ids helpers or From/TryFrom, or justify with \
                         `// lint:cast-ok: <reason>`"
                    ),
                });
                break; // one report per line is enough
            }
        }
    }

    // Rule 2: relaxed-ordering in the comm layer.
    if scope.comm_layer
        && code.contains("Ordering::Relaxed")
        && !raw_line.contains("lint:relaxed-ok")
    {
        violations.push(Violation {
            file: file.to_path_buf(),
            line: lineno,
            rule: "relaxed-ordering",
            message: "Ordering::Relaxed in the comm layer; counters that gate phase \
                      barriers need Acquire/Release (justify diagnostic-only counters \
                      with `// lint:relaxed-ok: <reason>`)"
                .to_string(),
        });
    }

    // Rule 3: raw CSR indexing outside the owning modules.
    if scope.csr_restricted && !raw_line.contains("lint:csr-ok") {
        for arr in CSR_ARRAYS {
            if let Some(pos) = find_ident_use(code, arr) {
                violations.push(Violation {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: "raw-csr-index",
                    message: format!(
                        "direct `{}` indexing outside the CSR owners (col {pos}, file {rel}); \
                         use the accessor methods (neighbors/degree/neighbor_slice)",
                        arr.trim_end_matches('[')
                    ),
                });
                break;
            }
        }
    }

    // Rule 5: mailbox internals outside comm.rs and mailbox.rs.
    if scope.mailbox_restricted {
        for name in MAILBOX_INTERNALS {
            if let Some(pos) = find_word(code, name) {
                violations.push(Violation {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: "mailbox-internals",
                    message: format!(
                        "mailbox internal `{name}` named outside comm.rs / mailbox.rs \
                         (col {pos}); go through the Comm API so every message is counted \
                         and type-checked"
                    ),
                });
                break;
            }
        }
    }

    // Rule 6: raw clock reads in the instrumented crates. Instant::now()
    // bypasses the Recorder span seam; SystemTime::now() is worse — a
    // wall-clock stamp in a report field or trace event breaks replay
    // determinism outright (events are stamped from the registry's
    // monotonic epoch instead).
    if scope.instant_restricted
        && (code.contains("Instant::now") || code.contains("SystemTime::now"))
        && !raw_line.contains("lint:instant-ok")
    {
        violations.push(Violation {
            file: file.to_path_buf(),
            line: lineno,
            rule: "instant-now",
            message: "raw Instant::now()/SystemTime::now() in an instrumented crate; phase \
                      timing must go through the pgp-obs Recorder spans and trace \
                      timestamps through the registry epoch (justify non-metric timers \
                      with `// lint:instant-ok: <reason>`)"
                .to_string(),
        });
    }

    // Rule 7: std hash containers in the determinism-critical crates.
    if scope.hash_restricted {
        for name in STD_HASH_TYPES {
            if let Some(pos) = find_word(code, name) {
                violations.push(Violation {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: "std-hash",
                    message: format!(
                        "std `{name}` in a determinism-critical crate (col {pos}); its \
                         per-process seed reorders iteration between runs — use FxHashMap, \
                         a BTreeMap or a sorted Vec"
                    ),
                });
                break;
            }
        }
    }
}

/// Finds `word` as a complete identifier token (boundaries on both sides);
/// returns the column, or `None`.
fn find_word(code: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let abs = from + pos;
        let before_ok = abs == 0
            || code[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| !c.is_alphanumeric() && c != '_');
        let after = abs + word.len();
        let after_ok = code[after..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if before_ok && after_ok {
            return Some(abs);
        }
        from = after;
    }
    None
}

/// Finds ` as <target>` where `<target>` is a complete token; returns the
/// column, or `None`.
fn find_cast(code: &str, target: &str) -> Option<usize> {
    let needle = format!(" as {target}");
    let mut from = 0;
    while let Some(pos) = code[from..].find(&needle) {
        let abs = from + pos;
        let after = abs + needle.len();
        let boundary = code[after..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if boundary {
            return Some(abs + 1);
        }
        from = after;
    }
    None
}

/// Finds `name[` as an identifier use (not part of a longer identifier,
/// e.g. `iface_xadj[` must not match `xadj[`).
fn find_ident_use(code: &str, pattern: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = code[from..].find(pattern) {
        let abs = from + pos;
        let preceded_by_ident = abs > 0
            && code[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if !preceded_by_ident {
            return Some(abs);
        }
        from = abs + pattern.len();
    }
    None
}

/// Removes line comments and tracks block comments across lines. Returns
/// the surviving code and whether a block comment continues past the line.
fn strip_comments(line: &str, mut in_block: bool) -> (String, bool) {
    let mut out = String::with_capacity(line.len());
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if in_block {
            if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                in_block = false;
                i += 2;
            } else {
                i += 1;
            }
        } else if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            break; // line comment: rest of line is gone
        } else if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            in_block = true;
            i += 2;
        } else {
            out.push(bytes[i] as char);
            i += 1;
        }
    }
    (out, in_block)
}

/// Blanks out string literals (keeps length/columns stable enough for
/// reporting; escapes handled, raw strings approximated).
fn strip_strings(code: &str) -> String {
    let mut out = String::with_capacity(code.len());
    let mut chars = code.chars().peekable();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        if in_string {
            match c {
                '\\' => {
                    let _ = chars.next(); // skip escaped char
                    out.push('_');
                    out.push('_');
                }
                '"' => {
                    in_string = false;
                    out.push('"');
                }
                _ => out.push('_'),
            }
        } else if c == '"' {
            in_string = true;
            out.push('"');
        } else {
            out.push(c);
        }
    }
    out
}

/// Rule 4: every first-party crate manifest opts into the workspace lints.
fn check_manifests(root: &Path, violations: &mut Vec<Violation>) {
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else {
        return;
    };
    for entry in entries.flatten() {
        let dir = entry.path();
        if !dir.is_dir() || dir.file_name().is_some_and(|n| n == "vendor") {
            continue;
        }
        let manifest = dir.join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        let has_opt_in = text
            .split("[lints]")
            .nth(1)
            .is_some_and(|after| after.trim_start().starts_with("workspace = true"));
        if !has_opt_in {
            violations.push(Violation {
                file: manifest,
                line: 1,
                rule: "lints-opt-in",
                message: "crate does not opt into the workspace lint gate; add \
                          `[lints]\\nworkspace = true`"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cast_detection_respects_token_boundaries() {
        assert!(find_cast("let x = y as u32;", "u32").is_some());
        assert!(find_cast("let x = y as u32", "u32").is_some());
        // `as u32` inside a longer token must not match.
        assert!(find_cast("let x = y as u32x;", "u32").is_none());
        assert!(find_cast("let x = y as f64;", "u32").is_none());
    }

    #[test]
    fn ident_use_respects_prefixes() {
        assert!(find_ident_use("self.xadj[u]", "xadj[").is_some());
        assert!(find_ident_use("iface_xadj[u]", "xadj[").is_none());
        assert!(find_ident_use("let iface_xadj[..]; xadj[0]", "xadj[").is_some());
    }

    #[test]
    fn comment_stripping() {
        let (code, cont) = strip_comments("a /* x */ b // c", false);
        assert_eq!(code.trim(), "a  b");
        assert!(!cont);
        let (code, cont) = strip_comments("a /* open", false);
        assert_eq!(code.trim(), "a");
        assert!(cont);
        let (code, cont) = strip_comments("still */ done", true);
        assert_eq!(code.trim(), "done");
        assert!(!cont);
    }

    #[test]
    fn string_stripping_hides_contents() {
        let s = strip_strings(r#"f("x as u64 [adjncy[")"#);
        assert!(find_cast(&s, "u64").is_none());
        assert!(find_ident_use(&s, "adjncy[").is_none());
    }

    #[test]
    fn mailbox_internals_confined_to_owner_files() {
        let src = "fn f(p: Payload) {}\n\
                   fn g() { let s = std::os::unix::net::UnixStream::connect(x); }\n\
                   fn h(mailbox: &[u8]) -> usize { mailbox.len() }\n";
        // Outside comm.rs / mailbox.rs: the payload type and the raw
        // stream are flagged; a lowercase `mailbox` binding is not a name.
        let mut v = Vec::new();
        scan_file(
            Path::new("crates/pgp-lp/src/par.rs"),
            "crates/pgp-lp/src/par.rs",
            src,
            &mut v,
        );
        let hits: Vec<_> = v
            .iter()
            .filter(|x| x.rule == "mailbox-internals")
            .map(|x| x.line)
            .collect();
        assert_eq!(hits, vec![1, 2]);
        // The mailbox is an owner file: clean.
        let mut v = Vec::new();
        scan_file(
            Path::new("crates/pgp-dmp/src/mailbox.rs"),
            "crates/pgp-dmp/src/mailbox.rs",
            src,
            &mut v,
        );
        assert!(v.iter().all(|x| x.rule != "mailbox-internals"), "must pass");
    }

    #[test]
    fn std_hash_confined_to_determinism_crates() {
        let src = "use std::collections::HashMap;\n\
                   fn f(s: &FxHashMap<u32, u32>) -> usize { s.len() }\n\
                   fn g() -> HashSet<u32> { HashSet::new() }\n";
        // Inside a determinism-critical crate: both std containers are
        // flagged, `FxHashMap` is not.
        let mut v = Vec::new();
        scan_file(
            Path::new("crates/pgp-seq/src/fm.rs"),
            "crates/pgp-seq/src/fm.rs",
            src,
            &mut v,
        );
        let hits: Vec<_> = v
            .iter()
            .filter(|x| x.rule == "std-hash")
            .map(|x| x.line)
            .collect();
        assert_eq!(hits, vec![1, 3], "exactly the std lines");
        // Tooling crates may hash freely.
        let mut v = Vec::new();
        scan_file(
            Path::new("crates/bench/src/main.rs"),
            "crates/bench/src/main.rs",
            src,
            &mut v,
        );
        assert!(v.iter().all(|x| x.rule != "std-hash"), "must pass");
    }

    #[test]
    fn instant_now_confined_to_obs_seam() {
        let src = "fn f() { let t = Instant::now(); }\n\
                   fn g() { let t = Instant::now(); } // lint:instant-ok: watchdog\n";
        // Inside an instrumented crate: the unescaped use is flagged, the
        // escaped one is not.
        let mut v = Vec::new();
        scan_file(
            Path::new("crates/pgp-lp/src/par.rs"),
            "crates/pgp-lp/src/par.rs",
            src,
            &mut v,
        );
        let hits: Vec<_> = v.iter().filter(|x| x.rule == "instant-now").collect();
        assert_eq!(hits.len(), 1, "exactly the unescaped line");
        assert_eq!(hits[0].line, 1);
        // Outside the instrumented crates: clean.
        let mut v = Vec::new();
        scan_file(
            Path::new("crates/bench/src/main.rs"),
            "crates/bench/src/main.rs",
            src,
            &mut v,
        );
        assert!(v.iter().all(|x| x.rule != "instant-now"), "must pass");
    }

    #[test]
    fn wall_clock_reads_flagged_in_obs_code() {
        // Trace events must be stamped from the registry's monotonic
        // epoch; a SystemTime read in pgp-obs (or any instrumented
        // crate) trips rule 6 like a raw Instant.
        let src = "fn f() -> u64 { stamp(SystemTime::now()) }\n\
                   fn g() { let t = SystemTime::now(); } // lint:instant-ok: output file mtime\n";
        let mut v = Vec::new();
        scan_file(
            Path::new("crates/pgp-obs/src/recorder.rs"),
            "crates/pgp-obs/src/recorder.rs",
            src,
            &mut v,
        );
        let hits: Vec<_> = v.iter().filter(|x| x.rule == "instant-now").collect();
        assert_eq!(hits.len(), 1, "exactly the unescaped line");
        assert_eq!(hits[0].line, 1);
        // CLI front-ends live outside the instrumented prefixes and may
        // read whatever clock they like.
        let mut v = Vec::new();
        scan_file(
            Path::new("src/bin/pgp-partition.rs"),
            "src/bin/pgp-partition.rs",
            src,
            &mut v,
        );
        assert!(v.iter().all(|x| x.rule != "instant-now"), "must pass");
    }

    #[test]
    fn id_cast_confined_to_id_domain_files() {
        let src = "fn f(v: usize) -> u64 { v as u64 }\n\
                   fn g(v: usize) -> u64 { v as u64 } // lint:cast-ok: length, not an ID\n";
        // Inside an ID-domain file: the unescaped cast is flagged, the
        // justified one is not.
        let mut v = Vec::new();
        scan_file(
            Path::new("crates/pgp-dmp/src/dgraph.rs"),
            "crates/pgp-dmp/src/dgraph.rs",
            src,
            &mut v,
        );
        let hits: Vec<_> = v.iter().filter(|x| x.rule == "id-cast").collect();
        assert_eq!(hits.len(), 1, "exactly the unescaped line");
        assert_eq!(hits[0].line, 1);
        // Outside the ID-domain list: clean.
        let mut v = Vec::new();
        scan_file(
            Path::new("crates/pgp-graph/src/csr.rs"),
            "crates/pgp-graph/src/csr.rs",
            src,
            &mut v,
        );
        assert!(v.iter().all(|x| x.rule != "id-cast"), "must pass");
    }

    #[test]
    fn relaxed_ordering_confined_to_comm_layer() {
        let src = "fn f(c: &AtomicUsize) -> usize { c.load(Ordering::Relaxed) }\n\
                   fn g(c: &AtomicUsize) -> usize { c.load(Ordering::Relaxed) } \
                   // lint:relaxed-ok: diagnostic counter\n";
        // Inside the comm layer: the unescaped load is flagged, the
        // justified one is not.
        let mut v = Vec::new();
        scan_file(
            Path::new("crates/pgp-dmp/src/collectives.rs"),
            "crates/pgp-dmp/src/collectives.rs",
            src,
            &mut v,
        );
        let hits: Vec<_> = v.iter().filter(|x| x.rule == "relaxed-ordering").collect();
        assert_eq!(hits.len(), 1, "exactly the unescaped line");
        assert_eq!(hits[0].line, 1);
        // Outside the comm layer: clean.
        let mut v = Vec::new();
        scan_file(
            Path::new("crates/bench/src/main.rs"),
            "crates/bench/src/main.rs",
            src,
            &mut v,
        );
        assert!(v.iter().all(|x| x.rule != "relaxed-ordering"), "must pass");
    }

    #[test]
    fn raw_csr_index_confined_to_owner_modules() {
        let src = "fn deg(g: &Csr, u: usize) -> usize { g.xadj[u + 1] - g.xadj[u] }\n\
                   fn tgt(g: &Csr, e: usize) -> usize { g.adjncy[e] } \
                   // lint:csr-ok: audited validator walk\n";
        // Outside the CSR owners: the unescaped indexing is flagged once
        // per line, the justified one is not.
        let mut v = Vec::new();
        scan_file(
            Path::new("crates/pgp-lp/src/par.rs"),
            "crates/pgp-lp/src/par.rs",
            src,
            &mut v,
        );
        let hits: Vec<_> = v.iter().filter(|x| x.rule == "raw-csr-index").collect();
        assert_eq!(hits.len(), 1, "exactly the unescaped line");
        assert_eq!(hits[0].line, 1);
        // Inside an owner module: clean.
        let mut v = Vec::new();
        scan_file(
            Path::new("crates/pgp-graph/src/csr.rs"),
            "crates/pgp-graph/src/csr.rs",
            src,
            &mut v,
        );
        assert!(v.iter().all(|x| x.rule != "raw-csr-index"), "must pass");
    }

    #[test]
    fn lints_opt_in_checks_every_crate_manifest() {
        // A synthetic workspace under target/: one opted-in crate, one
        // missing the opt-in, and a vendored tree that must be skipped.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target")
            .join(format!("lints-opt-in-test-{}", std::process::id()));
        let crates = root.join("crates");
        let good = crates.join("good");
        let bad = crates.join("bad");
        let vendor = crates.join("vendor");
        for d in [&good, &bad, &vendor] {
            std::fs::create_dir_all(d).expect("create fixture crate dir");
        }
        std::fs::write(
            good.join("Cargo.toml"),
            "[package]\nname = \"good\"\n\n[lints]\nworkspace = true\n",
        )
        .expect("write good manifest");
        std::fs::write(bad.join("Cargo.toml"), "[package]\nname = \"bad\"\n")
            .expect("write bad manifest");
        std::fs::write(vendor.join("Cargo.toml"), "[package]\nname = \"dep\"\n")
            .expect("write vendored manifest");

        let mut v = Vec::new();
        check_manifests(&root, &mut v);
        let hits: Vec<_> = v.iter().filter(|x| x.rule == "lints-opt-in").collect();
        assert_eq!(hits.len(), 1, "only the crate missing the opt-in: {hits:?}");
        assert_eq!(hits[0].file, bad.join("Cargo.toml"));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn test_regions_are_skipped() {
        let src = "fn a() { let x = 1 as u64; }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn b() { let y = 2 as u64; }\n\
                   }\n";
        let mut v = Vec::new();
        scan_file(
            Path::new("crates/pgp-dmp/src/dgraph.rs"),
            "crates/pgp-dmp/src/dgraph.rs",
            src,
            &mut v,
        );
        // Only the non-test cast is reported.
        assert_eq!(
            v.len(),
            1,
            "{:?}",
            v.iter().map(|x| x.line).collect::<Vec<_>>()
        );
        assert_eq!(v[0].line, 1);
    }
}
