//! Whole-tree checks: the workspace itself must analyze clean, and a
//! seeded mutation of a real protocol site must be caught — the analyzer
//! equivalent of a tripwire test, proving the rules see the *actual*
//! protocol code and not just the fixtures.

use pgp_analyze::{analyze_files, analyze_workspace, workspace_root, SourceFile};

#[test]
fn workspace_analyzes_clean() {
    let a = analyze_workspace(&workspace_root()).expect("workspace sources readable");
    assert!(
        a.files_scanned > 50,
        "walker found only {}",
        a.files_scanned
    );
    assert!(
        a.findings.is_empty(),
        "unsuppressed findings:\n{}",
        a.findings
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The SPMD rule finds its roots by name, so a renamed front door would
/// turn it into a silent no-op: it must find the door in the real tree and
/// walk from there into the V-cycle engine and the layers under it.
#[test]
fn spmd_rule_has_roots_and_reaches_the_vcycle_engine() {
    let a = analyze_workspace(&workspace_root()).expect("workspace sources readable");
    for entry in ["partition", "partition_distributed", "parhip_distributed"] {
        assert!(
            a.spmd.entry_points.iter().any(|e| e == entry),
            "entry point `{entry}` not found; roots: {:?}",
            a.spmd.entry_points
        );
    }
    for engine in [
        "parhip_cycles",
        "coarsen_borrowed",
        "parallel_sclp_refine_with_scratch",
        "kaffpae",
    ] {
        assert!(
            a.spmd.reachable.iter().any(|f| f == engine),
            "`{engine}` is not reachable from {:?}",
            a.spmd.entry_points
        );
    }
}

/// A real protocol file together with the tags module, as the analyzer
/// input set.
fn real_pair(rel: &str) -> Vec<SourceFile> {
    let root = workspace_root();
    let read = |r: &str| -> SourceFile {
        SourceFile {
            rel: r.to_string(),
            text: std::fs::read_to_string(root.join(r))
                .unwrap_or_else(|e| panic!("cannot read {r}: {e}")),
        }
    };
    vec![read("crates/pgp-dmp/src/tags.rs"), read(rel)]
}

/// One candidate mutation: file, the exact text a recv site must contain,
/// and the broken replacement.
struct Mutation {
    rel: &'static str,
    needle: &'static str,
    replacement: &'static str,
}

const MUTATIONS: &[Mutation] = &[
    // Ghost-label exchange: flip the recv annotation away from the sent
    // `Vec<(Node, Node)>`.
    Mutation {
        rel: "crates/pgp-dmp/src/exchange.rs",
        needle: "let mut updates: Vec<(Node, Node)> = comm.recv",
        replacement: "let mut updates: Vec<u64> = comm.recv",
    },
    // Rumor spreading: flip the drain turbofish away from the sent
    // `(Weight, Vec<BlockId>)`.
    Mutation {
        rel: "crates/pgp-evo/src/rumor.rs",
        needle: "comm.drain::<(Weight, Vec<BlockId>)>(self.tag)",
        replacement: "comm.drain::<Vec<u64>>(self.tag)",
    },
];

#[test]
fn real_protocol_files_are_clean_unmutated() {
    for m in MUTATIONS {
        let a = analyze_files(&real_pair(m.rel));
        assert!(
            a.findings.is_empty(),
            "{} should be clean: {:?}",
            m.rel,
            a.findings
        );
    }
}

#[test]
fn seeded_mutation_is_caught() {
    // Deterministic LCG over a handful of seeds; both mutation sites get
    // picked at least once across the seed range.
    let mut covered = [false; 2];
    for seed in 0u64..8 {
        let x = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let idx = ((x >> 33) as usize) % MUTATIONS.len();
        covered[idx] = true;
        let m = &MUTATIONS[idx];
        let mut files = real_pair(m.rel);
        let site = &mut files[1];
        assert!(
            site.text.contains(m.needle),
            "{} no longer contains the expected recv site `{}` — update the \
             mutation table",
            m.rel,
            m.needle
        );
        site.text = site.text.replace(m.needle, m.replacement);
        let a = analyze_files(&files);
        assert!(
            a.findings
                .iter()
                .any(|f| f.rule == "protocol-type-mismatch"),
            "seed {seed}: mutated {} but protocol-type-mismatch did not fire: {:?}",
            m.rel,
            a.findings
        );
    }
    assert_eq!(
        covered,
        [true, true],
        "seed range must exercise every mutation"
    );
}
