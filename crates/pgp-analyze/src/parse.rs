//! Item-level parse over the token stream.
//!
//! Extracts what the rules need: function items (name, generic parameters,
//! parameter list, body token range), `const` items with their initializer
//! token range (so the evaluator can resolve tag constants), `use`
//! declarations, and module structure (to know which constants live in a
//! `tags` module and which items are `#[cfg(test)]`-gated).
//!
//! Brace matching happens in *token space* — string literals and char
//! literals are single tokens by the time we see them, so a `{` inside a
//! string can never unbalance an extent, the failure mode line-based
//! scanners have to hack around.

use crate::lexer::{Tok, TokKind};

/// One function parameter (self receivers are recorded via
/// [`FnItem::has_self`], not here).
#[derive(Clone, Debug)]
pub struct Param {
    /// Parameter name; empty for destructuring patterns.
    pub name: String,
    /// The parameter's type, as written (token texts joined).
    pub ty: String,
}

/// One `fn` item with a body.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// Generic *type* parameter names (lifetimes excluded).
    pub generics: Vec<String>,
    /// Parameters, excluding any self receiver.
    pub params: Vec<Param>,
    /// Whether the first parameter is a self receiver.
    pub has_self: bool,
    /// Token index range of the body, *inside* the braces: `[start, end)`.
    pub body: (usize, usize),
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// One `const` (or `static`) item.
#[derive(Clone, Debug)]
pub struct ConstItem {
    /// The constant's name.
    pub name: String,
    /// Token index range of the initializer expression: `[start, end)`.
    pub expr: (usize, usize),
    /// 1-based line.
    pub line: u32,
    /// True when declared inside a module named `tags` (or a file
    /// `tags.rs`): these are the tag-protocol ground truth.
    pub in_tags_module: bool,
}

/// One `use` declaration, flattened to text.
#[derive(Clone, Debug)]
pub struct UseItem {
    /// The joined path text (`std::collections::{HashMap,HashSet}`).
    pub path: String,
    /// 1-based line.
    pub line: u32,
}

/// Everything extracted from one file.
#[derive(Debug, Default)]
pub struct Items {
    /// Functions with bodies (test-gated ones excluded).
    pub fns: Vec<FnItem>,
    /// Constants (test-gated ones excluded).
    pub consts: Vec<ConstItem>,
    /// Use declarations.
    pub uses: Vec<UseItem>,
}

/// Parses the items of a lexed file. `rel` is the repo-relative path (used
/// to treat `tags.rs` files as tags modules).
pub fn parse_items(toks: &[Tok], rel: &str) -> Items {
    let mut items = Items::default();
    let file_is_tags = rel.ends_with("/tags.rs") || rel == "tags.rs";
    scan_items(toks, 0, toks.len(), file_is_tags, &mut items);
    items
}

/// Advances past one balanced delimiter group starting at `i` (which must
/// point at the opening delimiter). Returns the index just past the close.
pub fn skip_group(toks: &[Tok], i: usize, open: char, close: char) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

/// Finds the body `{ ... }` starting at or after `i`; returns the token
/// range inside the braces and the index past the closing brace, or `None`
/// if a `;` (bodyless item) arrives first at angle/paren depth 0.
fn find_body(toks: &[Tok], mut i: usize) -> Option<((usize, usize), usize)> {
    let mut angle = 0i32;
    let mut paren = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = (angle - 1).max(0);
        } else if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if t.is_punct(';') && angle <= 0 && paren <= 0 {
            return None;
        } else if t.is_punct('{') && paren <= 0 {
            let end = skip_group(toks, i, '{', '}');
            return Some(((i + 1, end.saturating_sub(1)), end));
        } else if t.is_punct('-') && i + 1 < toks.len() && toks[i + 1].is_punct('>') {
            // `->`: the `>` is not closing an angle bracket.
            i += 2;
            continue;
        }
        i += 1;
    }
    None
}

/// The recursive item scanner. `[i, end)` is the token window; `in_tags`
/// marks whether the surrounding module is a tags module.
fn scan_items(toks: &[Tok], mut i: usize, end: usize, in_tags: bool, out: &mut Items) {
    while i < end {
        // Attributes: consume, remembering whether this item is test-gated.
        let mut test_gated = false;
        while i < end && toks[i].is_punct('#') {
            let mut j = i + 1;
            if j < end && toks[j].is_punct('!') {
                j += 1;
            }
            if j < end && toks[j].is_punct('[') {
                let close = skip_group(toks, j, '[', ']');
                let attr = &toks[j..close];
                let is_cfg_test = attr
                    .windows(3)
                    .any(|w| w[0].is_ident("cfg") && w[1].is_punct('(') && w[2].is_ident("test"));
                let is_test_attr =
                    attr.len() == 3 && attr[1].is_ident("test") && attr[0].is_punct('[');
                if is_cfg_test || is_test_attr {
                    test_gated = true;
                }
                i = close;
            } else {
                i += 1;
            }
        }
        if i >= end {
            break;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "pub" => {
                // Visibility: skip `pub` and an optional `(crate)` group.
                i += 1;
                if i < end && toks[i].is_punct('(') {
                    i = skip_group(toks, i, '(', ')');
                }
                if test_gated {
                    // Re-run the item head with the attr flag: simplest is
                    // to skip the whole item below; fall through by backing
                    // the flag into a skip of the next item.
                    i = skip_item(toks, i, end);
                }
            }
            "fn" => {
                if test_gated {
                    i = skip_item(toks, i, end);
                    continue;
                }
                let (item, next) = parse_fn(toks, i, end);
                if let Some(f) = item {
                    out.fns.push(f);
                }
                i = next;
            }
            "unsafe" | "async" | "extern" => {
                // Prefix keywords before `fn`; just advance (a following
                // string ABI like "C" is a Str token and gets skipped too).
                i += 1;
            }
            "const" | "static" => {
                // `const fn` is a function; `const NAME: Ty = expr;` is a
                // constant.
                if i + 1 < end && toks[i + 1].is_ident("fn") {
                    if test_gated {
                        i = skip_item(toks, i + 1, end);
                        continue;
                    }
                    let (item, next) = parse_fn(toks, i + 1, end);
                    if let Some(f) = item {
                        out.fns.push(f);
                    }
                    i = next;
                    continue;
                }
                if test_gated {
                    i = skip_item(toks, i, end);
                    continue;
                }
                let (item, next) = parse_const(toks, i, end, in_tags);
                if let Some(c) = item {
                    out.consts.push(c);
                }
                i = next;
            }
            "use" => {
                let line = toks[i].line;
                let mut j = i + 1;
                let mut path = String::new();
                while j < end && !toks[j].is_punct(';') {
                    path.push_str(&toks[j].text);
                    j += 1;
                }
                out.uses.push(UseItem { path, line });
                i = j + 1;
            }
            "mod" => {
                let name = toks
                    .get(i + 1)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone())
                    .unwrap_or_default();
                match find_body(toks, i + 1) {
                    Some(((bs, be), next)) => {
                        if !test_gated {
                            scan_items(toks, bs, be, in_tags || name == "tags", out);
                        }
                        i = next;
                    }
                    None => {
                        // `mod name;` — skip past the semicolon.
                        while i < end && !toks[i].is_punct(';') {
                            i += 1;
                        }
                        i += 1;
                    }
                }
            }
            "impl" | "trait" => match find_body(toks, i + 1) {
                Some(((bs, be), next)) => {
                    if !test_gated {
                        scan_items(toks, bs, be, in_tags, out);
                    }
                    i = next;
                }
                None => i += 1,
            },
            "struct" | "enum" | "union" | "type" => {
                i = skip_item(toks, i, end);
            }
            "macro_rules" => {
                // `macro_rules! name { ... }`
                let mut j = i + 1;
                while j < end && !toks[j].is_punct('{') {
                    j += 1;
                }
                i = if j < end {
                    skip_group(toks, j, '{', '}')
                } else {
                    end
                };
            }
            _ => i += 1,
        }
    }
}

/// Skips one item starting at `i` (keyword position): to its balanced body
/// or terminating semicolon. Used for test-gated items.
fn skip_item(toks: &[Tok], i: usize, end: usize) -> usize {
    match find_body(toks, i) {
        Some((_, next)) => next,
        None => {
            let mut j = i;
            while j < end && !toks[j].is_punct(';') {
                j += 1;
            }
            (j + 1).min(end)
        }
    }
}

/// Parses `fn name<G>(params) -> Ret { body }` starting at the `fn`
/// keyword. Returns the item (if it has a body) and the index to resume at.
fn parse_fn(toks: &[Tok], i: usize, end: usize) -> (Option<FnItem>, usize) {
    let line = toks[i].line;
    let mut j = i + 1;
    let Some(name_tok) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
        return (None, i + 1);
    };
    let name = name_tok.text.clone();
    j += 1;

    // Generic parameters.
    let mut generics = Vec::new();
    if j < end && toks[j].is_punct('<') {
        let close = skip_angle_group(toks, j);
        let mut depth = 0i32;
        let mut expect_param = true;
        let mut k = j;
        while k < close {
            let t = &toks[k];
            if t.is_punct('<') {
                depth += 1;
                if depth == 1 {
                    expect_param = true;
                }
            } else if t.is_punct('>') {
                depth -= 1;
            } else if depth == 1 {
                if t.is_punct(',') {
                    expect_param = true;
                } else if expect_param && t.kind == TokKind::Ident {
                    if t.text == "const" {
                        // `const N: usize`: the next ident is the parameter.
                        if let Some(n) = toks.get(k + 1).filter(|t| t.kind == TokKind::Ident) {
                            generics.push(n.text.clone());
                            k += 1;
                        }
                    } else {
                        generics.push(t.text.clone());
                    }
                    expect_param = false;
                } else if t.kind == TokKind::Lifetime {
                    // Lifetimes are not type parameters; keep waiting for
                    // an ident in this slot.
                } else {
                    expect_param = false;
                }
            }
            k += 1;
        }
        j = close;
    }

    // Parameters.
    let mut params = Vec::new();
    let mut has_self = false;
    if j < end && toks[j].is_punct('(') {
        let close = skip_group(toks, j, '(', ')');
        let inner = &toks[j + 1..close.saturating_sub(1)];
        for piece in split_top_level(inner, ',') {
            if piece.is_empty() {
                continue;
            }
            let texts: Vec<&str> = piece.iter().map(|t| t.text.as_str()).collect();
            if texts.contains(&"self") && !texts.contains(&":") {
                has_self = true;
                continue;
            }
            if let [only] = texts.as_slice() {
                if *only == "self" {
                    has_self = true;
                    continue;
                }
            }
            // `mut name: Ty` / `name: Ty` / pattern params.
            let colon = piece.iter().position(|t| t.is_punct(':'));
            let Some(c) = colon else { continue };
            // Reject `::` at the found position.
            if piece.get(c + 1).is_some_and(|t| t.is_punct(':')) {
                continue;
            }
            let name_tok = piece[..c]
                .iter()
                .rev()
                .find(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref");
            let pname = if piece[..c]
                .iter()
                .any(|t| t.is_punct('(') || t.is_punct('['))
            {
                String::new() // destructuring pattern
            } else {
                name_tok.map(|t| t.text.clone()).unwrap_or_default()
            };
            let ty: String = join_tokens(&piece[c + 1..]);
            if pname == "self" {
                has_self = true;
            } else {
                params.push(Param { name: pname, ty });
            }
        }
        j = close;
    }

    match find_body(toks, j) {
        Some((body, next)) => (
            Some(FnItem {
                name,
                generics,
                params,
                has_self,
                body,
                line,
            }),
            next,
        ),
        None => {
            // Trait method declaration without a body.
            let mut k = j;
            while k < end && !toks[k].is_punct(';') {
                k += 1;
            }
            (None, (k + 1).min(end))
        }
    }
}

/// Skips a `< ... >` group starting at `i`, tolerating nested angles and
/// shifts inside const-generic expressions.
pub fn skip_angle_group(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            // Delimited groups hide their angles.
            let (open, close) = match t.text.as_bytes()[0] {
                b'(' => ('(', ')'),
                b'[' => ('[', ']'),
                _ => ('{', '}'),
            };
            j = skip_group(toks, j, open, close);
            continue;
        }
        j += 1;
    }
    toks.len()
}

/// Parses `const NAME: Ty = expr;` starting at the keyword.
fn parse_const(toks: &[Tok], i: usize, end: usize, in_tags: bool) -> (Option<ConstItem>, usize) {
    let line = toks[i].line;
    let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
        return (None, i + 1);
    };
    let name = name_tok.text.clone();
    // Find `=` then capture to the `;` at delimiter depth 0.
    let mut j = i + 2;
    let mut depth = 0i32;
    let mut eq = None;
    while j < end {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct('=') && depth == 0 {
            // Exclude `==`, `=>`, `<=`... by checking neighbors.
            let prev_cmp = j > 0
                && (toks[j - 1].is_punct('=')
                    || toks[j - 1].is_punct('<')
                    || toks[j - 1].is_punct('>')
                    || toks[j - 1].is_punct('!'));
            let next_cmp = toks.get(j + 1).is_some_and(|t| t.is_punct('='));
            if !prev_cmp && !next_cmp {
                eq = Some(j);
                break;
            }
        } else if t.is_punct(';') && depth == 0 {
            // `const NAME: Ty;` in traits.
            return (None, j + 1);
        }
        j += 1;
    }
    let Some(eq) = eq else {
        return (None, (j + 1).min(end));
    };
    let mut k = eq + 1;
    let mut depth = 0i32;
    while k < end {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            break;
        }
        k += 1;
    }
    (
        Some(ConstItem {
            name,
            expr: (eq + 1, k),
            line,
            in_tags_module: in_tags,
        }),
        (k + 1).min(end),
    )
}

/// Splits the absolute token range `[lo, hi)` at top-level occurrences of
/// punct `sep`, returning absolute `(start, end)` ranges. Empty pieces are
/// dropped (e.g. a trailing comma).
pub fn split_ranges(toks: &[Tok], lo: usize, hi: usize, sep: char) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut start = lo;
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct('<') {
            if i > lo && (toks[i - 1].kind == TokKind::Ident || toks[i - 1].is_punct(':')) {
                angle += 1;
            }
        } else if t.is_punct('>') && angle > 0 {
            if !(i > lo && toks[i - 1].is_punct('-')) {
                angle -= 1;
            }
        } else if t.is_punct(sep) && depth == 0 && angle == 0 {
            if start < i {
                out.push((start, i));
            }
            start = i + 1;
        }
        i += 1;
    }
    if start < hi {
        out.push((start, hi));
    }
    out
}

/// Splits a token slice at top-level occurrences of punct `sep`
/// (delimiters and angle brackets shield their contents).
pub fn split_top_level(toks: &[Tok], sep: char) -> Vec<&[Tok]> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut start = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct('<') {
            // Heuristic: `<` after an ident or `::` opens a type list.
            if i > 0 && (toks[i - 1].kind == TokKind::Ident || toks[i - 1].is_punct(':')) {
                angle += 1;
            }
        } else if t.is_punct('>') && angle > 0 {
            // `->` does not close a type list.
            if !(i > 0 && toks[i - 1].is_punct('-')) {
                angle -= 1;
            }
        } else if t.is_punct(sep) && depth == 0 && angle == 0 {
            out.push(&toks[start..i]);
            start = i + 1;
        }
        i += 1;
    }
    out.push(&toks[start..]);
    out
}

/// Joins token texts into a canonical, whitespace-free string.
pub fn join_tokens(toks: &[Tok]) -> String {
    let mut s = String::new();
    for t in toks {
        match t.kind {
            TokKind::Str => {
                s.push('"');
                s.push_str(&t.text);
                s.push('"');
            }
            TokKind::Lifetime => {
                s.push('\'');
                s.push_str(&t.text);
            }
            _ => s.push_str(&t.text),
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> Items {
        parse_items(&lex(src).toks, "crates/x/src/lib.rs")
    }

    #[test]
    fn fn_extraction_with_generics_and_params() {
        let it = items("pub fn send<T: Send + 'static>(&self, dst: usize, tag: Tag, msg: T) {}");
        assert_eq!(it.fns.len(), 1);
        let f = &it.fns[0];
        assert_eq!(f.name, "send");
        assert_eq!(f.generics, vec!["T"]);
        assert!(f.has_self);
        let names: Vec<_> = f.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["dst", "tag", "msg"]);
        assert_eq!(f.params[1].ty, "Tag");
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let it = items(
            "fn live() { a(); }\n#[cfg(test)]\nmod tests { fn dead() { b(); } }\n#[test]\nfn also_dead() {}\nfn live2() {}",
        );
        let names: Vec<_> = it.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["live", "live2"]);
    }

    #[test]
    fn consts_in_tags_modules_are_marked() {
        let it = items("pub mod tags { pub const RUMOR: u64 = 0x52; }\nconst OTHER: u64 = 7;");
        assert_eq!(it.consts.len(), 2);
        let rumor = it.consts.iter().find(|c| c.name == "RUMOR").expect("rumor");
        assert!(rumor.in_tags_module);
        let other = it.consts.iter().find(|c| c.name == "OTHER").expect("other");
        assert!(!other.in_tags_module);
    }

    #[test]
    fn tags_rs_files_mark_their_consts() {
        let it = parse_items(
            &lex("pub const GHOST_LABELS: Tag = 0x01;").toks,
            "crates/pgp-dmp/src/tags.rs",
        );
        assert!(it.consts[0].in_tags_module);
    }

    #[test]
    fn impl_methods_are_found() {
        let it = items("impl Foo { fn a(&self) { x(); } pub fn b(v: u32) -> u32 { v } }");
        let names: Vec<_> = it.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn braces_in_strings_do_not_unbalance_bodies() {
        let it = items(r#"fn a() { let s = "unbalanced { brace"; x(); } fn b() {}"#);
        assert_eq!(it.fns.len(), 2);
    }

    #[test]
    fn return_types_with_angles_parse() {
        let it = items("fn f(v: Vec<(u32, u32)>) -> Option<Vec<u64>> { g() }");
        assert_eq!(it.fns.len(), 1);
        assert_eq!(it.fns[0].params[0].ty, "Vec<(u32,u32)>");
    }

    #[test]
    fn use_paths_are_flattened() {
        let it = items("use std::collections::{HashMap, HashSet};\nuse crate::tags;");
        assert_eq!(it.uses.len(), 2);
        assert!(it.uses[0]
            .path
            .contains("std::collections::{HashMap,HashSet}"));
    }
}
