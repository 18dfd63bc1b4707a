//! Rule family (c): determinism.
//!
//! RunReports and trace goldens are compared across runs and across PE
//! counts, so every crate feeding them must be bit-deterministic. Two
//! classic leaks of nondeterminism are flagged:
//!
//! - `det-unordered-hash-iter` — iterating a std `HashMap`/`HashSet`:
//!   `RandomState` seeds differently every run, so iteration order (and
//!   anything derived from it) changes run to run.
//! - `det-unordered-float-reduce` — accumulating floats out of such an
//!   iteration: float addition is not associative, so even a *fixed* set
//!   of values sums to different results in different orders.
//!
//! The rule is scoped to the determinism-critical crates (everything that
//! feeds cut/balance accounting, RunReport, or the trace goldens); tools
//! like `xtask` and the benches may hash freely.

use crate::lexer::{Tok, TokKind};
use crate::report::{Finding, RULE_FLOAT_REDUCE, RULE_HASH_ITER};
use crate::FileUnit;
use std::collections::HashSet;

/// Crates whose sources must be deterministic.
const SCOPED_PREFIXES: &[&str] = &[
    "crates/core/src/",
    "crates/pgp-lp/src/",
    "crates/pgp-dmp/src/",
    "crates/pgp-obs/src/",
    "crates/pgp-graph/src/",
    "crates/pgp-seq/src/",
];

/// Methods whose call on a hash container observes its iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Runs the determinism rules.
pub fn check(units: &[FileUnit]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for unit in units {
        if !SCOPED_PREFIXES.iter().any(|p| unit.rel.starts_with(p)) {
            continue;
        }
        // Are std hash containers even in scope in this file?
        let std_hash_imported = unit.items.uses.iter().any(|u| {
            u.path.contains("std::collections")
                && (u.path.contains("HashMap") || u.path.contains("HashSet"))
        });
        for f in &unit.items.fns {
            check_fn(unit, f.body, std_hash_imported, &mut findings);
        }
    }
    findings
}

/// True when a type annotation names a std hash container (either imported
/// from std in this file, or written with an explicit `std::collections`
/// path).
fn is_hash_type(ty: &[Tok], std_imported: bool) -> bool {
    for (i, t) in ty.iter().enumerate() {
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            if std_imported {
                return true;
            }
            // Explicit path: `std :: collections :: HashMap`.
            if i >= 6 && ty[i - 6].is_ident("std") && ty[i - 4].is_ident("collections") {
                return true;
            }
        }
    }
    false
}

/// Checks one function body.
fn check_fn(
    unit: &FileUnit,
    body: (usize, usize),
    std_imported: bool,
    findings: &mut Vec<Finding>,
) {
    let toks = &unit.lexed.toks;
    let (start, end) = body;

    // Pass 1: locals of std hash type (annotation or constructor call).
    let mut hash_locals: HashSet<String> = HashSet::new();
    let mut float_locals: HashSet<String> = HashSet::new();
    let mut i = start;
    while i < end {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            while j < end && toks[j].is_ident("mut") {
                j += 1;
            }
            if let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
                let stmt = stmt_extent(toks, j + 1, end);
                let rest = &toks[j + 1..stmt];
                // Annotation or initializer mentioning the container type.
                if is_hash_type(rest, std_imported) {
                    hash_locals.insert(name.text.clone());
                }
                if rest.iter().any(|t| t.is_ident("f64") || t.is_ident("f32"))
                    || rest
                        .iter()
                        .any(|t| t.kind == TokKind::Number && is_float_literal(&t.text))
                {
                    float_locals.insert(name.text.clone());
                }
            }
        }
        i += 1;
    }

    // Pass 2: iteration sites.
    let mut i = start;
    while i < end {
        let t = &toks[i];
        // `X.iter()` / `X.keys()` / ... where X is a hash local.
        let method_site = t.kind == TokKind::Ident
            && hash_locals.contains(&t.text)
            && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(i + 2)
                .is_some_and(|t| ITER_METHODS.contains(&t.text.as_str()))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('));
        // `for pat in [&[mut]] X {` over a hash local.
        let mut for_site = false;
        if t.is_ident("for") {
            // Find `in` at depth 0 before the block.
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < end {
                let u = &toks[j];
                if u.is_punct('(') || u.is_punct('[') {
                    depth += 1;
                } else if u.is_punct(')') || u.is_punct(']') {
                    depth -= 1;
                } else if u.is_ident("in") && depth == 0 {
                    break;
                } else if u.is_punct('{') && depth == 0 {
                    j = end;
                }
                j += 1;
            }
            if j < end {
                let mut k = j + 1;
                while k < end && (toks[k].is_punct('&') || toks[k].is_ident("mut")) {
                    k += 1;
                }
                if toks
                    .get(k)
                    .is_some_and(|t| t.kind == TokKind::Ident && hash_locals.contains(&t.text))
                {
                    // Direct iteration only: `for x in map {` or
                    // `for x in &map {`. Chained calls are caught by the
                    // method-site pattern instead.
                    let next = toks.get(k + 1);
                    if next.is_some_and(|t| t.is_punct('{'))
                        || next.is_some_and(|t| t.is_punct('.'))
                    {
                        for_site = next.is_some_and(|t| t.is_punct('{'));
                    }
                }
            }
        }
        if method_site || for_site {
            findings.push(Finding {
                rule: RULE_HASH_ITER,
                file: unit.rel.clone(),
                line: t.line,
                message: format!(
                    "iteration over std hash container `{}`: RandomState makes the \
                     order differ between runs; use BTreeMap/BTreeSet or sort first",
                    if for_site {
                        // name is after `for .. in`
                        hash_name_after_in(toks, i, end).unwrap_or_else(|| t.text.clone())
                    } else {
                        t.text.clone()
                    }
                ),
            });
            // Float accumulation fed by this iteration?
            if method_site {
                let stmt = stmt_extent(toks, i, end);
                let window = &toks[i..stmt];
                if float_sink(window) {
                    findings.push(Finding {
                        rule: RULE_FLOAT_REDUCE,
                        file: unit.rel.clone(),
                        line: t.line,
                        message: format!(
                            "floating-point reduction over unordered `{}` iteration: \
                             float addition is not associative, so the result depends \
                             on iteration order",
                            t.text
                        ),
                    });
                }
            }
            if for_site {
                // Body of the for loop: does it accumulate into a float?
                let mut j = i;
                while j < end && !toks[j].is_punct('{') {
                    j += 1;
                }
                if j < end {
                    let close = crate::parse::skip_group(toks, j, '{', '}');
                    let body = &toks[j..close];
                    let accumulates = body.windows(3).any(|w| {
                        w[0].kind == TokKind::Ident
                            && float_locals.contains(&w[0].text)
                            && w[1].is_punct('+')
                            && w[2].is_punct('=')
                    });
                    if accumulates {
                        findings.push(Finding {
                            rule: RULE_FLOAT_REDUCE,
                            file: unit.rel.clone(),
                            line: t.line,
                            message: "floating-point accumulation inside an unordered hash \
                                      iteration: the sum depends on iteration order"
                                .to_string(),
                        });
                    }
                }
            }
        }
        i += 1;
    }
}

/// Extracts the iterated identifier of a `for .. in X {` loop.
fn hash_name_after_in(toks: &[Tok], for_idx: usize, end: usize) -> Option<String> {
    let mut depth = 0i32;
    let mut j = for_idx + 1;
    while j < end {
        let u = &toks[j];
        if u.is_punct('(') || u.is_punct('[') {
            depth += 1;
        } else if u.is_punct(')') || u.is_punct(']') {
            depth -= 1;
        } else if u.is_ident("in") && depth == 0 {
            let mut k = j + 1;
            while k < end && (toks[k].is_punct('&') || toks[k].is_ident("mut")) {
                k += 1;
            }
            return toks.get(k).map(|t| t.text.clone());
        }
        j += 1;
    }
    None
}

/// True when the statement window contains a float-typed reduction sink
/// (`.sum::<f64>()`, `.fold(0.0, ..)`).
fn float_sink(window: &[Tok]) -> bool {
    for (i, t) in window.iter().enumerate() {
        if t.is_ident("sum") || t.is_ident("product") {
            // `.sum::<f64>()`
            if window[i..]
                .iter()
                .take(8)
                .any(|t| t.is_ident("f64") || t.is_ident("f32"))
            {
                return true;
            }
        }
        if t.is_ident("fold")
            && window.get(i + 1).is_some_and(|t| t.is_punct('('))
            && window[i..]
                .iter()
                .take(6)
                .any(|t| t.kind == TokKind::Number && is_float_literal(&t.text))
        {
            return true;
        }
    }
    false
}

/// True for float literal token texts (`0.0`, `1e-3`, `2f64`).
fn is_float_literal(text: &str) -> bool {
    !text.starts_with("0x")
        && !text.starts_with("0b")
        && !text.starts_with("0o")
        && (text.contains('.') || text.contains("f3") || text.contains("f6") || text.contains('e'))
}

/// Statement extent: index of the terminating `;` at delimiter depth 0
/// (or the closing brace of the surrounding block).
fn stmt_extent(toks: &[Tok], start: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('}') {
            if depth == 0 {
                return i;
            }
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return i;
        }
        i += 1;
    }
    end
}
