//! The one JSON model: every document the program writes — the run
//! report and the Perfetto trace — is built as a [`JsonValue`] and
//! printed by [`JsonValue::write`]; [`JsonValue::parse`] reads documents
//! back where a check needs them. The offline vendor set has no serde.
//! Numbers keep their raw token so that `u64` tags (up to 2^48 +
//! collective blocks) survive a round trip without going through `f64`.

/// A JSON value, built to be printed or parsed from text.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token (lossless for u64 tags).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object from `(key, value)` pairs, in the order given.
    pub(crate) fn obj<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
        JsonValue::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
    }

    /// Prints the value as JSON text at nesting depth `depth`.
    ///
    /// Layout: a value prints on one line iff it holds no non-empty
    /// array; otherwise each field or element goes on its own line,
    /// indented two spaces per level. One-line containers separate with
    /// `", "` and `": "`. Numbers print their token as is. Strings escape
    /// `"`, `\` and control characters and keep all other text verbatim.
    pub(crate) fn write(&self, out: &mut String, depth: usize) {
        let flat = self.is_flat();
        let next = |out: &mut String, i: usize| {
            if i > 0 {
                out.push(',');
            }
            if !flat {
                out.push('\n');
                push_indent(out, depth + 1);
            } else if i > 0 {
                out.push(' ');
            }
        };
        let close = match self {
            JsonValue::Null => return out.push_str("null"),
            JsonValue::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(raw) => return out.push_str(raw),
            JsonValue::Str(s) => return write_str(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    next(out, i);
                    item.write(out, depth + 1);
                }
                ']'
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    next(out, i);
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                '}'
            }
        };
        if !flat {
            out.push('\n');
            push_indent(out, depth);
        }
        out.push(close);
    }

    /// True iff the value holds no non-empty array (the one-line rule).
    fn is_flat(&self) -> bool {
        match self {
            JsonValue::Arr(items) => items.is_empty(),
            JsonValue::Obj(fields) => fields.iter().all(|(_, v)| v.is_flat()),
            _ => true,
        }
    }

    /// Every key path in the value, sorted and without repeats: `a.b` for
    /// a field of a field, `a[].b` for a field of an array's elements.
    pub fn key_paths(&self) -> Vec<String> {
        fn walk(v: &JsonValue, prefix: &str, out: &mut Vec<String>) {
            match v {
                JsonValue::Obj(fields) => {
                    for (key, child) in fields {
                        let path = match prefix {
                            "" => key.clone(),
                            _ => format!("{prefix}.{key}"),
                        };
                        walk(child, &path, out);
                        out.push(path);
                    }
                }
                JsonValue::Arr(items) => {
                    for item in items {
                        walk(item, &format!("{prefix}[]"), out);
                    }
                }
                _ => {}
            }
        }
        let mut paths = Vec::new();
        walk(self, "", &mut paths);
        paths.sort();
        paths.dedup();
        paths
    }

    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integral number token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// What the program writes as JSON: numbers, strings, options, lists and
/// the report blocks (whose impls come from their field lists).
pub(crate) trait ToValue {
    /// The value in the JSON model.
    fn to_value(&self) -> JsonValue;
}

macro_rules! int_to_value {
    ($($t:ty),*) => {$(
        impl ToValue for $t {
            fn to_value(&self) -> JsonValue {
                JsonValue::Num(self.to_string())
            }
        }
    )*};
}
int_to_value!(u32, u64, usize);

impl ToValue for f64 {
    /// The shortest round-trip form; zero prints as `0`, and a non-finite
    /// value (which JSON cannot spell) as `null`.
    fn to_value(&self) -> JsonValue {
        if *self == 0.0 {
            JsonValue::Num("0".to_string())
        } else if self.is_finite() {
            JsonValue::Num(format!("{self}"))
        } else {
            JsonValue::Null
        }
    }
}

impl ToValue for str {
    fn to_value(&self) -> JsonValue {
        JsonValue::Str(self.to_string())
    }
}

impl<T: ToValue> ToValue for Option<T> {
    fn to_value(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, ToValue::to_value)
    }
}

impl<T: ToValue> ToValue for [T] {
    fn to_value(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(ToValue::to_value).collect())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'n') if self.eat_lit("null") => Ok(JsonValue::Null),
            Some(b't') if self.eat_lit("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_lit("false") => Ok(JsonValue::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "bad \\u codepoint".to_string())?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (content bytes pass through).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    let c = s.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits")
            .to_string();
        if raw.is_empty() || raw == "-" {
            return Err(format!("bad number at byte {start}"));
        }
        Ok(JsonValue::Num(raw))
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3], "b": {"c": "x\"y", "d": null}, "e": true}"#;
        let v = JsonValue::parse(doc).expect("parse");
        assert_eq!(v.get("a").and_then(|a| a.as_arr()).map(<[_]>::len), Some(3));
        assert_eq!(
            v.get("b")
                .and_then(|b| b.get("c"))
                .and_then(JsonValue::as_str),
            Some("x\"y")
        );
        assert_eq!(v.get("e"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn numbers_keep_u64_precision() {
        let tag = (1u64 << 48) + 65_536;
        let doc = format!("{{\"tag\": {tag}}}");
        let v = JsonValue::parse(&doc).expect("parse");
        assert_eq!(v.get("tag").and_then(JsonValue::as_u64), Some(tag));
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("{\"a\": }").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{} x").is_err());
    }

    /// Random trees of every kind of value, at most `depth` containers deep.
    struct Trees {
        depth: u32,
    }

    /// Characters a printer can get wrong, plus a random code point.
    fn char_of(rng: &mut TestRng) -> char {
        const HARD: [char; 12] = [
            '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1f}', '\u{7f}', '/', 'é', '日', '🦀',
        ];
        match rng.below(3) {
            0 => HARD[rng.below(HARD.len() as u64) as usize],
            1 => char::from(b'a' + rng.below(26) as u8),
            _ => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('?'),
        }
    }

    fn string_of(rng: &mut TestRng) -> String {
        (0..rng.below(8)).map(|_| char_of(rng)).collect()
    }

    impl Strategy for Trees {
        type Value = JsonValue;

        fn generate(&self, rng: &mut TestRng) -> JsonValue {
            let kind = rng.below(if self.depth == 0 { 5 } else { 7 });
            let inner = Trees {
                depth: self.depth.saturating_sub(1),
            };
            match kind {
                0 => JsonValue::Null,
                1 => JsonValue::Bool(rng.below(2) == 1),
                2 => JsonValue::Num(match rng.below(3) {
                    0 => (u64::MAX - rng.below(3)).to_string(),
                    1 => rng.below(1000).to_string(),
                    _ => rng.next_u64().to_string(),
                }),
                3 => match rng.below(3) {
                    0 => f64::from_bits(rng.next_u64()),
                    1 => rng.below(1 << 20) as f64 / 1024.0 - 512.0,
                    _ => rng.below(1000) as f64 * 1e-9,
                }
                .to_value(),
                4 => JsonValue::Str(string_of(rng)),
                5 => JsonValue::Arr((0..rng.below(4)).map(|_| inner.generate(rng)).collect()),
                _ => JsonValue::Obj(
                    (0..rng.below(4))
                        .map(|_| (string_of(rng), inner.generate(rng)))
                        .collect(),
                ),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one printer against the parser: any tree prints to text
        /// that parses back to the same tree, at any starting depth.
        #[test]
        fn printing_then_parsing_is_the_identity(v in Trees { depth: 4 }, depth in 0usize..3) {
            let mut text = String::new();
            v.write(&mut text, depth);
            prop_assert_eq!(JsonValue::parse(&text), Ok(v));
        }
    }
}
