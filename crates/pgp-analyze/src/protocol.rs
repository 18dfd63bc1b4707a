//! Rule family (a): message-protocol conformance.
//!
//! Builds a send/recv site table keyed by *tag* and checks it:
//!
//! - `protocol-type-mismatch` — the set of concrete payload types used at a
//!   tag's send sites differs from its recv sites (runtime `unpack` panic).
//! - `protocol-unreceived-tag` — a tag with send sites but no recv site
//!   anywhere (messages accumulate in the mailbox forever).
//! - `protocol-collective-collision` — a user tag value or tags-module
//!   offset that collides with the collective tag block layout.
//!
//! Tag keys are resolved through several layers, in order: a tags-module
//! constant named in the expression; `self.tag` (resolved through struct
//! literal `tag:` initializers in the same file); a local `let` binding
//! whose initializer resolved; a parameter of the enclosing function
//! (resolved depth-1 through its call sites); a constant-evaluable literal.
//! Anything else is skipped — unresolvable tags are out of scope, not
//! errors.

use crate::consts::{eval, ConstTable};
use crate::lexer::{Tok, TokKind};
use crate::parse::{join_tokens, skip_angle_group, skip_group, split_ranges, FnItem};
use crate::report::{Finding, RULE_COLLECTIVE_COLLISION, RULE_TYPE_MISMATCH, RULE_UNRECEIVED_TAG};
use crate::FileUnit;
use std::collections::{BTreeMap, HashMap};

/// Default collective block base when the tags module is absent
/// (fixtures): matches `pgp_dmp::tags::COLLECTIVE_TAG_BASE`.
const DEFAULT_BASE: u64 = 1 << 48;
/// Default block span, `pgp_dmp::tags::BLOCK_SPAN`.
const DEFAULT_SPAN: u64 = 1 << 16;
/// User tag offsets must stay below the op-code range (bits 8..16).
const USER_OFFSET_LIMIT: u64 = 0x100;

/// Mailbox methods that are protocol sites:
/// `(name, is_send, tag_arg_index, payload_arg_index)`.
/// A payload index of `usize::MAX` means the payload type can only come
/// from a turbofish or `let` annotation (receives).
const METHODS: &[(&str, bool, usize, usize)] = &[
    ("send", true, 1, 2),
    ("recv", false, 1, usize::MAX),
    ("drain", false, 0, usize::MAX),
];

/// A fully-resolved tag identity.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum TagKey {
    /// Named tags-module constant (by name).
    Named(String),
    /// Constant-evaluable literal tag value.
    Lit(u64),
}

impl TagKey {
    fn display(&self) -> String {
        match self {
            TagKey::Named(n) => format!("`{n}`"),
            TagKey::Lit(v) => format!("literal tag {v}"),
        }
    }
}

/// Partially-resolved tag expression.
#[derive(Clone, Debug)]
enum KeyRes {
    Known(TagKey),
    /// `self.tag` — resolved via the file's struct-literal tag initializers.
    SelfTag,
    /// Names the enclosing function's parameter at this non-self index;
    /// resolved through call sites afterwards.
    Param(usize),
    Skip,
}

/// One protocol call site.
struct Site {
    unit: usize,
    line: u32,
    is_send: bool,
    key: KeyRes,
    /// Global function index (into `ctxs`) of the enclosing fn.
    fn_id: usize,
    /// Normalized concrete payload type; `None` = unknown or generic.
    ty: Option<String>,
}

/// One non-protocol call expression, used for depth-1 param propagation.
struct Call {
    unit: usize,
    callee: String,
    /// Absolute token ranges of the arguments.
    args: Vec<(usize, usize)>,
    /// Global fn index of the *calling* function (for its bindings).
    caller: usize,
}

/// Per-function resolution context retained for propagation.
struct FnCtx {
    name: String,
    /// Names of non-self parameters, in order.
    param_names: Vec<String>,
    /// Local `let` bindings that resolved to a tag key.
    bindings: HashMap<String, KeyRes>,
}

/// Runs the protocol rule family.
pub fn check(units: &[FileUnit], consts: &ConstTable) -> Vec<Finding> {
    let base = consts
        .get("COLLECTIVE_TAG_BASE")
        .map(|c| c.value)
        .unwrap_or(DEFAULT_BASE);
    let span = consts
        .get("BLOCK_SPAN")
        .map(|c| c.value)
        .unwrap_or(DEFAULT_SPAN);

    let mut sites: Vec<Site> = Vec::new();
    let mut calls: Vec<Call> = Vec::new();
    let mut ctxs: Vec<FnCtx> = Vec::new();
    // Tag keys assigned to struct `tag:` fields, per file.
    let mut self_keys: Vec<Vec<TagKey>> = vec![Vec::new(); units.len()];

    for (ui, unit) in units.iter().enumerate() {
        for f in &unit.items.fns {
            let fn_id = ctxs.len();
            ctxs.push(FnCtx {
                name: f.name.clone(),
                param_names: f.params.iter().map(|p| p.name.clone()).collect(),
                bindings: HashMap::new(),
            });
            scan_body(
                unit,
                ui,
                f,
                fn_id,
                consts,
                &mut ctxs,
                &mut sites,
                &mut calls,
                &mut self_keys[ui],
            );
        }
    }

    // Depth-1 propagation: resolve Param sites through call sites, SelfTag
    // sites through the file's struct-literal keys.
    let mut resolved: Vec<(usize, u32, bool, TagKey, Option<String>)> = Vec::new();
    for s in &sites {
        match &s.key {
            KeyRes::Known(k) => resolved.push((s.unit, s.line, s.is_send, k.clone(), s.ty.clone())),
            KeyRes::SelfTag => {
                for k in &self_keys[s.unit] {
                    resolved.push((s.unit, s.line, s.is_send, k.clone(), s.ty.clone()));
                }
            }
            KeyRes::Param(pidx) => {
                let fname = &ctxs[s.fn_id].name;
                let mut keys: Vec<TagKey> = Vec::new();
                for c in calls.iter().filter(|c| &c.callee == fname) {
                    let Some(&(a0, a1)) = c.args.get(*pidx) else {
                        continue;
                    };
                    let caller = &ctxs[c.caller];
                    let arg = &units[c.unit].lexed.toks[a0..a1];
                    match resolve_key(arg, caller, consts) {
                        KeyRes::Known(k) if !keys.contains(&k) => keys.push(k),
                        KeyRes::SelfTag => {
                            for k in &self_keys[c.unit] {
                                if !keys.contains(k) {
                                    keys.push(k.clone());
                                }
                            }
                        }
                        _ => {}
                    }
                }
                for k in keys {
                    resolved.push((s.unit, s.line, s.is_send, k, s.ty.clone()));
                }
            }
            KeyRes::Skip => {}
        }
    }

    // Build the tag table. One recorded site: (unit index, line, optional
    // normalized payload type).
    type SiteRec = (usize, u32, Option<String>);
    #[derive(Default)]
    struct Entry {
        sends: Vec<SiteRec>,
        recvs: Vec<SiteRec>,
    }
    let mut table: BTreeMap<TagKey, Entry> = BTreeMap::new();
    for (unit, line, is_send, key, ty) in resolved {
        let e = table.entry(key).or_default();
        if is_send {
            e.sends.push((unit, line, ty));
        } else {
            e.recvs.push((unit, line, ty));
        }
    }

    let mut findings = Vec::new();
    for (key, e) in &table {
        // (b) senders with no receiver: mailbox leak.
        if e.recvs.is_empty() {
            let &(unit, line, _) = e
                .sends
                .first()
                .expect("table entries have at least one site");
            findings.push(Finding {
                rule: RULE_UNRECEIVED_TAG,
                file: units[unit].rel.clone(),
                line,
                message: format!(
                    "{} is sent here but no recv/drain site exists for it anywhere; \
                     messages pile up in the mailbox",
                    key.display()
                ),
            });
        }
        // (a) concrete payload type disagreement across sites.
        let mut types: Vec<(&str, &SiteRec)> = Vec::new();
        for s in &e.sends {
            if let Some(t) = &s.2 {
                types.push((t, s));
            }
        }
        for r in &e.recvs {
            if let Some(t) = &r.2 {
                types.push((t, r));
            }
        }
        let mut distinct: Vec<&str> = types.iter().map(|(t, _)| *t).collect();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() >= 2 {
            // Anchor the finding at the first recv site (that is where the
            // unpack panic would fire), falling back to the first site.
            let &(unit, line, _) = e.recvs.first().or(e.sends.first()).expect("non-empty");
            findings.push(Finding {
                rule: RULE_TYPE_MISMATCH,
                file: units[unit].rel.clone(),
                line,
                message: format!(
                    "{} is used with {} different payload types: {}; \
                     unpack panics at runtime when they meet",
                    key.display(),
                    distinct.len(),
                    distinct.join(" vs ")
                ),
            });
        }
        // (c) literal tags inside the collective block.
        if let TagKey::Lit(v) = key {
            if *v >= base {
                for (unit, line, _) in e.sends.iter().chain(e.recvs.iter()) {
                    findings.push(Finding {
                        rule: RULE_COLLECTIVE_COLLISION,
                        file: units[*unit].rel.clone(),
                        line: *line,
                        message: format!(
                            "literal tag {v} lies inside the collective tag block \
                             (>= COLLECTIVE_TAG_BASE); use fresh_tag_block() + offset"
                        ),
                    });
                }
            }
        }
    }

    // (c) audit the tags-module constants themselves.
    findings.extend(audit_tag_consts(units, consts, base, span));
    findings
}

/// Checks tags-module constants against the block layout: op codes live in
/// bits 8..16 with a zero low byte, user offsets below 0x100, no duplicate
/// values, nothing user-defined at or above the collective base.
fn audit_tag_consts(units: &[FileUnit], consts: &ConstTable, base: u64, span: u64) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut offsets: Vec<(u64, &str, usize, u32)> = Vec::new();
    for (name, c) in consts.iter() {
        if !c.in_tags_module {
            continue;
        }
        let at = |msg: String| Finding {
            rule: RULE_COLLECTIVE_COLLISION,
            file: units[c.file].rel.clone(),
            line: c.line,
            message: msg,
        };
        if c.value >= base && name != "COLLECTIVE_TAG_BASE" {
            findings.push(at(format!(
                "tag constant `{name}` = {} lies inside the collective tag block",
                c.value
            )));
            continue;
        }
        if c.value >= span {
            // Block-structure constants (the base, the span) — not offsets.
            continue;
        }
        if name.starts_with("OP_") {
            if c.value == 0 || c.value & 0xFF != 0 {
                findings.push(at(format!(
                    "op code `{name}` = {} must be a nonzero multiple of 0x100 \
                     (the low byte carries the round counter)",
                    c.value
                )));
            }
        } else if c.value >= USER_OFFSET_LIMIT {
            findings.push(at(format!(
                "user tag offset `{name}` = {} overlaps the op-code range; \
                 user offsets must stay below 0x100",
                c.value
            )));
        }
        offsets.push((c.value, name, c.file, c.line));
    }
    offsets.sort_unstable();
    for w in offsets.windows(2) {
        if w[0].0 == w[1].0 {
            findings.push(Finding {
                rule: RULE_COLLECTIVE_COLLISION,
                file: units[w[1].2].rel.clone(),
                line: w[1].3,
                message: format!(
                    "tag offsets `{}` and `{}` share the value {}; \
                     messages on one tag would be delivered to the other",
                    w[0].1, w[1].1, w[0].0
                ),
            });
        }
    }
    findings
}

/// Scans one function body: records protocol sites, tag `let` bindings,
/// ordinary calls (for propagation), and struct-literal `tag:` keys.
#[allow(clippy::too_many_arguments)]
fn scan_body(
    unit: &FileUnit,
    ui: usize,
    f: &FnItem,
    fn_id: usize,
    consts: &ConstTable,
    ctxs: &mut [FnCtx],
    sites: &mut Vec<Site>,
    calls: &mut Vec<Call>,
    self_keys: &mut Vec<TagKey>,
) {
    let toks = &unit.lexed.toks;
    let (start, end) = f.body;
    // Local variable type annotations (param types seed the map).
    let mut let_types: HashMap<String, String> = f
        .params
        .iter()
        .filter(|p| !p.name.is_empty())
        .map(|p| (p.name.clone(), normalize_type_str(&p.ty)))
        .collect();
    // Active `let` statement: (bound name, annotation, end-of-stmt index).
    let mut cur_let: Option<(String, Option<String>, usize)> = None;

    let mut i = start;
    while i < end {
        if let Some((_, _, semi)) = &cur_let {
            if i > *semi {
                cur_let = None;
            }
        }
        let t = &toks[i];
        // `let [mut] name [: Ty] = init ;`
        if t.is_ident("let") {
            let mut j = i + 1;
            while j < end && toks[j].is_ident("mut") {
                j += 1;
            }
            let name = toks
                .get(j)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone());
            let Some(name) = name else {
                i += 1;
                continue;
            };
            j += 1;
            // Optional annotation.
            let mut ann: Option<(usize, usize)> = None;
            if j < end && toks[j].is_punct(':') && !toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
            {
                let ty_start = j + 1;
                let mut depth = 0i32;
                let mut k = ty_start;
                while k < end {
                    let t = &toks[k];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
                        depth += 1;
                    } else if t.is_punct(')')
                        || t.is_punct(']')
                        || t.is_punct('}')
                        || t.is_punct('>')
                    {
                        depth -= 1;
                    } else if (t.is_punct('=') || t.is_punct(';')) && depth <= 0 {
                        break;
                    }
                    k += 1;
                }
                ann = Some((ty_start, k));
                j = k;
            }
            let ty_str = ann.map(|(a, b)| normalize_type(&toks[a..b]));
            if let Some(ty) = &ty_str {
                let_types.insert(name.clone(), ty.clone());
            }
            // Optional initializer: resolve it as a tag key.
            if j < end && toks[j].is_punct('=') {
                let init_start = j + 1;
                let semi = stmt_end(toks, init_start, end);
                let res = resolve_key(&toks[init_start..semi], &ctxs[fn_id], consts);
                if matches!(res, KeyRes::Known(_) | KeyRes::SelfTag) {
                    ctxs[fn_id].bindings.insert(name.clone(), res);
                }
                cur_let = Some((name, ty_str, semi));
                i = init_start; // keep scanning inside the initializer
                continue;
            }
            i = j;
            continue;
        }
        // Struct-literal `tag: <expr>` field initializer.
        if t.is_ident("tag")
            && i > start
            && (toks[i - 1].is_punct('{') || toks[i - 1].is_punct(','))
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            let expr_start = i + 2;
            let mut depth = 0i32;
            let mut k = expr_start;
            while k < end {
                let t = &toks[k];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if t.is_punct('}') {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                } else if t.is_punct(',') && depth == 0 {
                    break;
                }
                k += 1;
            }
            if let KeyRes::Known(key) = resolve_key(&toks[expr_start..k], &ctxs[fn_id], consts) {
                if !self_keys.contains(&key) {
                    self_keys.push(key);
                }
            }
            i = expr_start;
            continue;
        }
        // Method call: `.name` [`::<T>`] `(args)`.
        if t.is_punct('.') && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            let mname = toks[i + 1].text.clone();
            if let Some(&(method, is_send, tag_idx, payload_idx)) =
                METHODS.iter().find(|(m, ..)| *m == mname)
            {
                let line = toks[i + 1].line;
                let mut j = i + 2;
                // Turbofish.
                let mut turbofish: Option<(usize, usize)> = None;
                if toks.get(j).is_some_and(|t| t.is_punct(':'))
                    && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(j + 2).is_some_and(|t| t.is_punct('<'))
                {
                    let close = skip_angle_group(toks, j + 2);
                    turbofish = Some((j + 3, close.saturating_sub(1)));
                    j = close;
                }
                if toks.get(j).is_some_and(|t| t.is_punct('(')) {
                    let close = skip_group(toks, j, '(', ')');
                    let args = split_ranges(toks, j + 1, close.saturating_sub(1), ',');
                    if args.len() > tag_idx {
                        let key = resolve_key(
                            &toks[args[tag_idx].0..args[tag_idx].1],
                            &ctxs[fn_id],
                            consts,
                        );
                        let ty = site_type(
                            toks,
                            turbofish,
                            &args,
                            payload_idx,
                            method,
                            is_send,
                            &let_types,
                            &cur_let,
                            f,
                        );
                        sites.push(Site {
                            unit: ui,
                            line,
                            is_send,
                            key,
                            fn_id,
                            ty,
                        });
                    }
                    i = j; // continue into the argument list for nested calls
                    continue;
                }
            }
        }
        // Ordinary call expression (for param propagation): `name(args)`.
        if t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && !METHODS.iter().any(|(m, ..)| *m == t.text)
            && !matches!(
                t.text.as_str(),
                "if" | "while" | "for" | "match" | "return" | "let"
            )
        {
            let close = skip_group(toks, i + 1, '(', ')');
            let args = split_ranges(toks, i + 2, close.saturating_sub(1), ',');
            calls.push(Call {
                unit: ui,
                callee: t.text.clone(),
                args,
                caller: fn_id,
            });
            i += 2; // scan inside the argument list too
            continue;
        }
        i += 1;
    }
}

/// Determines the concrete payload type of a site, or `None` when unknown
/// or generic over the enclosing function's type parameters.
#[allow(clippy::too_many_arguments)]
fn site_type(
    toks: &[Tok],
    turbofish: Option<(usize, usize)>,
    args: &[(usize, usize)],
    payload_idx: usize,
    method: &str,
    is_send: bool,
    let_types: &HashMap<String, String>,
    cur_let: &Option<(String, Option<String>, usize)>,
    f: &FnItem,
) -> Option<String> {
    let raw = if let Some((a, b)) = turbofish {
        Some(normalize_type(&toks[a..b]))
    } else if is_send {
        // Payload argument: a single identifier can be looked up.
        let (a, b) = *args.get(payload_idx)?;
        let arg = &toks[a..b];
        if arg.len() == 1 && arg[0].kind == TokKind::Ident {
            let_types.get(&arg[0].text).cloned()
        } else {
            None
        }
    } else if method == "recv" {
        // `let x: Ty = comm.recv(...)` — use the active annotation.
        let (_, ty, _) = cur_let.as_ref()?;
        ty.clone()
    } else {
        // drain without turbofish: the `Vec<(usize, T)>` shape is not
        // worth guessing.
        None
    }?;
    // Generic over the fn's type parameters => not a concrete type.
    if mentions_generic(&raw, &f.generics) {
        return None;
    }
    Some(raw)
}

/// True when the normalized type string uses any of `generics` as a whole
/// identifier.
fn mentions_generic(ty: &str, generics: &[String]) -> bool {
    if generics.is_empty() {
        return false;
    }
    let mut ident = String::new();
    let mut idents = Vec::new();
    for c in ty.chars() {
        if c.is_alphanumeric() || c == '_' {
            ident.push(c);
        } else if !ident.is_empty() {
            idents.push(std::mem::take(&mut ident));
        }
    }
    if !ident.is_empty() {
        idents.push(ident);
    }
    idents.iter().any(|i| generics.iter().any(|g| g == i))
}

/// Normalizes a type token slice: strips references and path prefixes
/// (`pgp_graph::Node` -> `Node`), drops whitespace.
pub(crate) fn normalize_type(toks: &[Tok]) -> String {
    let mut keep: Vec<&Tok> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('&') || (t.is_ident("mut") && keep.is_empty()) {
            i += 1;
            continue;
        }
        // `ident :: ident` — drop the prefix segment.
        if t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.kind == TokKind::Ident)
        {
            i += 3;
            continue;
        }
        // `ident :: <` (turbofish in type position) — keep ident, drop `::`.
        if t.is_punct(':')
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('<'))
        {
            i += 2;
            continue;
        }
        keep.push(t);
        i += 1;
    }
    let texts: Vec<Tok> = keep.into_iter().cloned().collect();
    join_tokens(&texts)
}

/// Normalizes a type already rendered as a string (re-lexes it).
fn normalize_type_str(ty: &str) -> String {
    normalize_type(&crate::lexer::lex(ty).toks)
}

/// Finds the end of the current statement (`;` at delimiter depth 0, or
/// the closing brace of the surrounding block).
fn stmt_end(toks: &[Tok], start: usize, end: usize) -> usize {
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

/// Resolves a tag expression to a key within a function context.
fn resolve_key(expr: &[Tok], ctx: &FnCtx, consts: &ConstTable) -> KeyRes {
    if expr.is_empty() {
        return KeyRes::Skip;
    }
    // 1. A tags-module constant named in the expression. Prefer offset
    //    constants (value below the block span) over the base.
    let mut best: Option<(&str, u64)> = None;
    for t in expr {
        if t.kind != TokKind::Ident {
            continue;
        }
        if let Some(c) = consts.get(&t.text) {
            if c.in_tags_module {
                let better = match best {
                    None => true,
                    Some((_, v)) => c.value < v,
                };
                if better {
                    best = Some((&t.text, c.value));
                }
            }
        }
    }
    if let Some((name, _)) = best {
        return KeyRes::Known(TagKey::Named(name.to_string()));
    }
    // 2. `self.tag`.
    if expr
        .windows(3)
        .any(|w| w[0].is_ident("self") && w[1].is_punct('.') && w[2].is_ident("tag"))
    {
        return KeyRes::SelfTag;
    }
    // 3. A local binding that already resolved.
    for t in expr {
        if t.kind == TokKind::Ident {
            if let Some(b) = ctx.bindings.get(&t.text) {
                return b.clone();
            }
        }
    }
    // 4. A parameter of the enclosing function.
    for t in expr {
        if t.kind == TokKind::Ident {
            if let Some(idx) = ctx.param_names.iter().position(|p| p == &t.text) {
                return KeyRes::Param(idx);
            }
        }
    }
    // 5. A constant-evaluable expression (literals, non-tags consts).
    if let Some(v) = eval(expr, consts.known()) {
        return KeyRes::Known(TagKey::Lit(v));
    }
    KeyRes::Skip
}
