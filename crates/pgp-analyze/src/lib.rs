//! AST-level static analysis for the workspace (`cargo xtask analyze`).
//!
//! Unlike the line-oriented `xtask lint` rules, this crate *parses* the
//! sources — a hand-rolled lexer ([`lexer`]) and item scanner ([`parse`])
//! over the token stream — and checks cross-file semantic properties that
//! no single-line regex can see:
//!
//! - [`protocol`] — message-protocol conformance: every tag's send sites
//!   and recv sites must agree on the payload type, every sent tag must
//!   have a receiver, and user tags must stay out of the collective block.
//! - [`spmd`] — SPMD divergence: collectives lexically guarded by
//!   rank-dependent conditions, reachable from the partitioner's front
//!   door (`Partitioner`'s two verbs and `parhip_distributed`).
//! - [`determinism`] — iteration over std hash containers (and float
//!   reductions fed by them) in determinism-critical crates.
//! - [`errs`] — swallowed structured faults: `Result<_, CommError>`
//!   unwrapped or discarded outside the runner's terminal collection
//!   point, losing the coordinates the recovery supervisor consumes.
//! - [`transport`] — transport confinement: mailbox/socket/frame internals
//!   and raw OS stream types named outside comm.rs and the transport/
//!   modules, breaching the pluggable-backend seam (DESIGN.md §15).
//!
//! Findings are suppressible with `// analyze:allow(rule-id)` on the same
//! line or the line above; stale markers are themselves findings
//! (`unused-allow`). Output is stable JSON (`pgp-analyze/v1`), sorted by
//! `(file, line, rule)`. See DESIGN.md §12 for the architecture and rule
//! catalog.

pub mod consts;
pub mod determinism;
pub mod errs;
pub mod lexer;
pub mod parse;
pub mod protocol;
pub mod report;
pub mod spmd;
pub mod transport;

pub use report::{Finding, RULES};

use std::path::{Path, PathBuf};

/// One input source file.
pub struct SourceFile {
    /// Repo-relative path (forward slashes).
    pub rel: String,
    /// Full file contents.
    pub text: String,
}

/// A lexed and item-parsed file, shared by all rule families.
pub struct FileUnit {
    /// Repo-relative path.
    pub rel: String,
    /// Token stream plus `analyze:allow` markers.
    pub lexed: lexer::Lexed,
    /// Extracted items (test-gated items already excluded).
    pub items: parse::Items,
}

/// The result of an analysis run.
pub struct Analysis {
    /// Findings that survived suppression, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// How many findings `analyze:allow` markers suppressed.
    pub suppressed: usize,
    /// How many files were scanned.
    pub files_scanned: usize,
    /// The SPMD rule's entry points and reach (see [`spmd::Coverage`]).
    pub spmd: spmd::Coverage,
}

impl Analysis {
    /// Renders the stable `pgp-analyze/v1` JSON document.
    pub fn to_json(&self) -> String {
        report::to_json(&self.findings, self.suppressed, self.files_scanned)
    }
}

/// Analyzes a set of in-memory sources. Files under `tests/` or `benches/`
/// directories are skipped entirely: tests deliberately exercise broken
/// protocols (type-mismatch panics, deadlock timeouts) and are allowed to.
pub fn analyze_files(files: &[SourceFile]) -> Analysis {
    let units: Vec<FileUnit> = files
        .iter()
        .filter(|f| !is_test_path(&f.rel))
        .map(|f| {
            let lexed = lexer::lex(&f.text);
            let items = parse::parse_items(&lexed.toks, &f.rel);
            FileUnit {
                rel: f.rel.clone(),
                lexed,
                items,
            }
        })
        .collect();

    let const_inputs: Vec<(usize, &[lexer::Tok], &[parse::ConstItem])> = units
        .iter()
        .enumerate()
        .map(|(i, u)| (i, u.lexed.toks.as_slice(), u.items.consts.as_slice()))
        .collect();
    let consts = consts::ConstTable::build(&const_inputs);

    let mut raw = Vec::new();
    raw.extend(protocol::check(&units, &consts));
    let (spmd_findings, spmd) = spmd::check(&units);
    raw.extend(spmd_findings);
    raw.extend(determinism::check(&units));
    raw.extend(errs::check(&units));
    raw.extend(transport::check(&units));

    let allows: Vec<(String, Vec<lexer::Allow>)> = units
        .iter()
        .map(|u| (u.rel.clone(), u.lexed.allows.clone()))
        .collect();
    let mut s = report::apply_suppressions(raw, &allows);
    report::sort_findings(&mut s.findings);
    Analysis {
        findings: s.findings,
        suppressed: s.suppressed,
        files_scanned: units.len(),
        spmd,
    }
}

/// True for paths the analyzer skips wholesale (integration tests and
/// benches may use ad-hoc protocols).
fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.starts_with("benches/")
        || rel.contains("/benches/")
}

/// Analyzes the workspace rooted at `root` (see [`workspace_root`]).
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    let mut files = Vec::new();
    for path in rust_sources(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(&path)?;
        files.push(SourceFile { rel, text });
    }
    Ok(analyze_files(&files))
}

/// Finds the workspace root by walking up from the current directory until
/// a `Cargo.toml` with a `crates/` sibling appears.
///
/// # Panics
///
/// Panics when invoked outside the workspace.
pub fn workspace_root() -> PathBuf {
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

/// All first-party `.rs` files (crates/* plus top-level src/ and tests/),
/// excluding the vendored stand-in crates, analyzer fixtures, and build
/// output.
pub fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        collect_rs(&root.join(top), &mut out);
    }
    out.retain(|p| {
        !p.components()
            .any(|c| c.as_os_str() == "vendor" || c.as_os_str() == "fixtures")
    });
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

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, text: &str) -> SourceFile {
        SourceFile {
            rel: rel.to_string(),
            text: text.to_string(),
        }
    }

    #[test]
    fn clean_input_produces_no_findings() {
        let a = analyze_files(&[file(
            "crates/x/src/lib.rs",
            "pub mod tags { pub const DATA: u64 = 0x01; }\n\
             fn s(comm: &Comm) { let tag = comm.fresh_tag_block() + tags::DATA; \
             comm.send::<Vec<u64>>(0, tag, Vec::new()); }\n\
             fn r(comm: &Comm) { let tag = comm.fresh_tag_block() + tags::DATA; \
             let v: Vec<u64> = comm.recv(0, tag); let _ = v; }",
        )]);
        assert_eq!(a.findings, Vec::new());
        assert_eq!(a.files_scanned, 1);
    }

    #[test]
    fn tests_dirs_are_skipped() {
        let a = analyze_files(&[file(
            "crates/x/tests/proto.rs",
            "fn s(comm: &Comm) { comm.send(0, 7, 1u64); }",
        )]);
        assert_eq!(a.files_scanned, 0);
        assert_eq!(a.findings, Vec::new());
    }

    #[test]
    fn json_shape_is_stable() {
        let a = analyze_files(&[file("crates/x/src/lib.rs", "fn ok() {}")]);
        let j = a.to_json();
        assert!(j.contains("\"schema\": \"pgp-analyze/v1\""));
        assert!(j.contains("\"files_scanned\": 1"));
    }
}
