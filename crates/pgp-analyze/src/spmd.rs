//! Rule family (b): SPMD conformance.
//!
//! Collectives are cooperative: every PE in the group must call them at
//! the same point, or the ones that do call park forever waiting for the
//! ones that don't. The classic way to break this is a rank-dependent
//! branch (`if comm.rank() == 0 { ... barrier(comm) ... }`), which is
//! purely lexical — exactly what a static walk can catch.
//!
//! The rule walks the name-based call graph from the SPMD entry points —
//! the front door's two verbs (`Partitioner::partition`,
//! `Partitioner::partition_distributed`) and the bare `parhip_distributed`
//! — taints identifiers
//! derived from `rank`, and flags any collective-set call that sits inside
//! the branches of a rank-tainted `if`/`else`.
//!
//! `if let`-conditions are never rank-dependent and are skipped. The
//! point-to-point internals of the collectives themselves (`gather`'s
//! `if rank == root { recv } else { send }`) are naturally exempt: `send`
//! and `recv` are not in the collective set.

use crate::lexer::{Tok, TokKind};
use crate::parse::skip_group;
use crate::report::{Finding, RULE_RANK_GUARDED_COLLECTIVE};
use crate::FileUnit;
use std::collections::{HashMap, HashSet};

/// Functions that start an SPMD region: the partitioner's front door.
/// Matched by exact name — renaming a verb without updating this list
/// empties the rule's root set, which the workspace test catches through
/// [`Coverage`].
const ENTRY_POINTS: &[&str] = &["partition", "partition_distributed", "parhip_distributed"];

/// What the rule looked at: without roots it finds nothing and proves
/// nothing, so the walk reports its own reach.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// The entry points found in the sources, sorted.
    pub entry_points: Vec<String>,
    /// Every function reachable from them (entry points included), sorted.
    pub reachable: Vec<String>,
}

/// Group-cooperative operations: calling these on a strict subset of PEs
/// deadlocks the group. Includes `fresh_tag_block` (the tag counter is
/// advanced group-wide) and the exchange phase boundaries.
const COLLECTIVES: &[&str] = &[
    "barrier",
    "broadcast",
    "reduce",
    "allreduce",
    "allreduce_sum",
    "allreduce_sum_vec",
    "allreduce_sum_vec_i64",
    "allreduce_min_with_rank",
    "exscan_sum",
    "gather",
    "allgather",
    "allgatherv",
    "alltoallv",
    "fresh_tag_block",
    "flush_sync",
    "flush_sync_with",
    "flush_overlap",
    "flush_overlap_with",
    "finish",
    "finish_with",
];

/// Runs the SPMD divergence rule.
pub fn check(units: &[FileUnit]) -> (Vec<Finding>, Coverage) {
    // Name-based call graph: fn name -> called fn names.
    let mut edges: HashMap<&str, HashSet<&str>> = HashMap::new();
    for unit in units {
        for f in &unit.items.fns {
            let callees = edges.entry(f.name.as_str()).or_default();
            let toks = &unit.lexed.toks;
            for i in f.body.0..f.body.1 {
                if toks[i].kind == TokKind::Ident
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                {
                    callees.insert(toks[i].text.as_str());
                }
            }
        }
    }
    // Reachability from the entry points.
    let mut reach: HashSet<&str> = HashSet::new();
    let mut entry_points: Vec<&str> = edges
        .keys()
        .filter(|n| ENTRY_POINTS.contains(n))
        .copied()
        .collect();
    entry_points.sort_unstable();
    let mut queue = entry_points.clone();
    while let Some(n) = queue.pop() {
        if !reach.insert(n) {
            continue;
        }
        if let Some(cs) = edges.get(n) {
            for c in cs {
                if edges.contains_key(c) && !reach.contains(c) {
                    queue.push(c);
                }
            }
        }
    }

    let mut findings = Vec::new();
    for unit in units {
        for f in &unit.items.fns {
            if !reach.contains(f.name.as_str()) {
                continue;
            }
            check_fn(unit, f.body, &mut findings);
        }
    }
    let mut reachable: Vec<String> = reach.into_iter().map(str::to_string).collect();
    reachable.sort_unstable();
    let coverage = Coverage {
        entry_points: entry_points.into_iter().map(str::to_string).collect(),
        reachable,
    };
    (findings, coverage)
}

/// Checks one reachable function body.
fn check_fn(unit: &FileUnit, body: (usize, usize), findings: &mut Vec<Finding>) {
    let toks = &unit.lexed.toks;
    let (start, end) = body;

    // Pass 1: rank-tainted locals. `rank` itself (parameter, method call,
    // field) taints, and taint propagates through `let` initializers.
    let mut tainted: HashSet<String> = HashSet::new();
    let mut i = start;
    while i < end {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            while j < end && toks[j].is_ident("mut") {
                j += 1;
            }
            if let Some(name) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
                let stmt = stmt_extent(toks, j + 1, end);
                let init_tainted = toks[j + 1..stmt].iter().any(|t| {
                    t.is_ident("rank") || (t.kind == TokKind::Ident && tainted.contains(&t.text))
                });
                if init_tainted {
                    tainted.insert(name.text.clone());
                }
            }
        }
        i += 1;
    }

    // Pass 2: rank-guarded `if` regions (condition + all branch blocks of
    // the `else`/`else if` chain).
    let mut regions: Vec<(usize, usize)> = Vec::new();
    let mut i = start;
    while i < end {
        if toks[i].is_ident("if") && !toks.get(i + 1).is_some_and(|t| t.is_ident("let")) {
            // Condition: up to the first `{` at delimiter depth 0.
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < end {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if t.is_punct('{') && depth == 0 {
                    break;
                }
                j += 1;
            }
            if j >= end {
                break;
            }
            let cond_tainted = toks[i + 1..j].iter().any(|t| {
                t.is_ident("rank") || (t.kind == TokKind::Ident && tainted.contains(&t.text))
            });
            if cond_tainted {
                // Extent: this block plus the whole else/else-if chain.
                let mut ext = skip_group(toks, j, '{', '}');
                while toks.get(ext).is_some_and(|t| t.is_ident("else")) {
                    if toks.get(ext + 1).is_some_and(|t| t.is_ident("if")) {
                        // `else if cond {`: find that block.
                        let mut d = 0i32;
                        let mut k = ext + 2;
                        while k < end {
                            let t = &toks[k];
                            if t.is_punct('(') || t.is_punct('[') {
                                d += 1;
                            } else if t.is_punct(')') || t.is_punct(']') {
                                d -= 1;
                            } else if t.is_punct('{') && d == 0 {
                                break;
                            }
                            k += 1;
                        }
                        if k >= end {
                            break;
                        }
                        ext = skip_group(toks, k, '{', '}');
                    } else if toks.get(ext + 1).is_some_and(|t| t.is_punct('{')) {
                        ext = skip_group(toks, ext + 1, '{', '}');
                        break;
                    } else {
                        break;
                    }
                }
                regions.push((j, ext));
            }
        }
        i += 1;
    }

    // Pass 3: collective calls inside a tainted region.
    for &(lo, hi) in &regions {
        for k in lo..hi.min(end) {
            let t = &toks[k];
            if t.kind == TokKind::Ident
                && COLLECTIVES.contains(&t.text.as_str())
                && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
            {
                findings.push(Finding {
                    rule: RULE_RANK_GUARDED_COLLECTIVE,
                    file: unit.rel.clone(),
                    line: t.line,
                    message: format!(
                        "collective `{}` is called under a rank-dependent condition; \
                         PEs that skip the branch never join and the group deadlocks",
                        t.text
                    ),
                });
            }
        }
    }
}

/// Statement extent: index of the terminating `;` (or closing brace) at
/// delimiter depth 0.
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
