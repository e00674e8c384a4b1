//! Hand-rolled JSON: a tiny writer/parser pair for the harness's
//! machine-readable results and for user-authored scenario files.
//!
//! The workspace builds offline with no crates.io dependencies, so instead
//! of serde this module carries the JSON the harness actually needs: an
//! ordered object model ([`Json`]), a deterministic pretty renderer (stable
//! key order, shortest-round-trip floats — the byte-identity the
//! determinism tests assert rests on this), and a strict recursive-descent
//! parser. The parser produces a [`SpannedJson`] tree carrying the byte
//! offset of every value and object key, so consumers of *user-authored*
//! files (scenario specs) can point semantic errors — unknown key, value
//! out of range — at an exact `line:column`; parse errors themselves are
//! reported the same way. [`Json::parse`] strips the spans for consumers
//! that only care about the data (trace forensics, the result cache).

use std::fmt::Write as _;

/// 1-based `(line, column)` of byte offset `byte` in `text`, counting
/// columns in characters. Offsets past the end clamp to the last position.
pub fn line_col(text: &str, byte: usize) -> (usize, usize) {
    let (mut line, mut col) = (1, 1);
    for (i, c) in text.char_indices() {
        if i >= byte {
            break;
        }
        if c == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    (line, col)
}

/// A JSON value. Objects preserve insertion order so rendering is
/// deterministic and diffs of result files stay readable.
///
/// Unsigned integers get their own variant so values beyond f64's 2^53
/// integer range — notably hash-derived workload seeds — round-trip
/// exactly. [`PartialEq`] treats numerically equal `Num`/`UInt` values as
/// equal, so `parse(render(x)) == x` holds regardless of which variant a
/// whole number started in.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; non-finite values render as `null`.
    Num(f64),
    /// A non-negative integer, kept exact beyond 2^53.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key/value list.
    Obj(Vec<(String, Json)>),
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            (Json::UInt(a), Json::UInt(b)) => a == b,
            // A whole number is the same value whichever variant holds it.
            (Json::Num(a), Json::UInt(b)) | (Json::UInt(b), Json::Num(a)) => *a == *b as f64,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            _ => false,
        }
    }
}

impl Json {
    /// An empty object, ready for [`Json::push`].
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a key to an object. Panics on non-objects — misuse is a
    /// harness bug, not a data error.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(members) => members.push((key.to_string(), value.into())),
            other => panic!("Json::push on non-object {other:?}"),
        }
        self
    }

    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number (`UInt` beyond 2^53 loses
    /// precision here; use [`Json::as_u64`] for exact integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::UInt(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// The exact integer value, if this is a `UInt` or a whole `Num`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(x) => Some(*x),
            Json::Num(x) if *x >= 0.0 && *x == x.trunc() && *x < u64::MAX as f64 => Some(*x as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The ordered members, if this is an object.
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Render as pretty-printed JSON (two-space indent, no trailing
    /// newline). Deterministic: same value, same bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Render on a single line with no whitespace — the NDJSON event form
    /// the serving daemon streams. Parses back to the same value as
    /// [`Json::render`].
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null | Json::Bool(_) | Json::Num(_) | Json::UInt(_) | Json::Str(_) => {
                self.write(out, 0)
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => out.push_str(&fmt_f64(*x)),
            Json::UInt(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Errors carry the `line:column` of the
    /// offending input (scenario files are user-authored; byte offsets
    /// are unhelpful).
    pub fn parse(text: &str) -> Result<Json, String> {
        SpannedJson::parse(text).map(|s| s.to_json())
    }
}

/// A parsed JSON value annotated with the byte offset it starts at, so
/// semantic errors against user-authored files (scenario specs) can point
/// at `line:column` via [`line_col`] long after parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedJson {
    /// Byte offset of the value's first character in the source text.
    pub pos: usize,
    /// The value itself.
    pub node: SpannedNode,
}

/// The value inside a [`SpannedJson`]. Mirrors [`Json`], except object
/// members also carry the byte offset of their key.
#[derive(Debug, Clone, PartialEq)]
pub enum SpannedNode {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A non-negative integer, kept exact beyond 2^53.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<SpannedJson>),
    /// An object as an ordered `(key offset, key, value)` list.
    Obj(Vec<(usize, String, SpannedJson)>),
}

impl SpannedJson {
    /// Parse a JSON document keeping source positions. Errors carry the
    /// `line:column` of the offending input.
    pub fn parse(text: &str) -> Result<SpannedJson, String> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err_at(p.pos, "trailing data"));
        }
        Ok(value)
    }

    /// Strip the spans, leaving the plain value tree.
    pub fn to_json(&self) -> Json {
        match &self.node {
            SpannedNode::Null => Json::Null,
            SpannedNode::Bool(b) => Json::Bool(*b),
            SpannedNode::Num(x) => Json::Num(*x),
            SpannedNode::UInt(x) => Json::UInt(*x),
            SpannedNode::Str(s) => Json::Str(s.clone()),
            SpannedNode::Arr(items) => Json::Arr(items.iter().map(SpannedJson::to_json).collect()),
            SpannedNode::Obj(members) => Json::Obj(
                members
                    .iter()
                    .map(|(_, k, v)| (k.clone(), v.to_json()))
                    .collect(),
            ),
        }
    }

    /// Member of an object by key (first occurrence).
    pub fn get(&self, key: &str) -> Option<&SpannedJson> {
        match &self.node {
            SpannedNode::Obj(members) => {
                members.iter().find(|(_, k, _)| k == key).map(|(_, _, v)| v)
            }
            _ => None,
        }
    }

    /// The ordered `(key offset, key, value)` members, if this is an object.
    pub fn members(&self) -> Option<&[(usize, String, SpannedJson)]> {
        match &self.node {
            SpannedNode::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[SpannedJson]> {
        match &self.node {
            SpannedNode::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match &self.node {
            SpannedNode::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match &self.node {
            SpannedNode::Num(x) => Some(*x),
            SpannedNode::UInt(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// The exact integer value, if this is a `UInt` or a whole `Num`.
    pub fn as_u64(&self) -> Option<u64> {
        self.to_json().as_u64()
    }

    /// A short label for the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match &self.node {
            SpannedNode::Null => "null",
            SpannedNode::Bool(_) => "a boolean",
            SpannedNode::Num(_) | SpannedNode::UInt(_) => "a number",
            SpannedNode::Str(_) => "a string",
            SpannedNode::Arr(_) => "an array",
            SpannedNode::Obj(_) => "an object",
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::UInt(x)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::UInt(x as u64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Option<f64>> for Json {
    fn from(x: Option<f64>) -> Json {
        x.map_or(Json::Null, Json::Num)
    }
}
impl From<Option<u64>> for Json {
    fn from(x: Option<u64>) -> Json {
        x.map_or(Json::Null, Json::UInt)
    }
}

/// Deterministic float formatting: integral values print without a
/// fraction, everything else uses Rust's shortest round-trip form. JSON
/// has no NaN/∞, so non-finite values become `null`.
pub fn fmt_f64(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    if x == x.trunc() && x.abs() < 9.007_199_254_740_992e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn bytes(&self) -> &[u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    /// Format an error pointing at `pos` as `line:column`.
    fn err_at(&self, pos: usize, msg: impl std::fmt::Display) -> String {
        let (line, col) = line_col(self.text, pos);
        format!("{msg} at line {line}, column {col}")
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err_at(self.pos, format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: SpannedNode) -> Result<SpannedNode, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err_at(self.pos, "invalid literal"))
        }
    }

    fn value(&mut self) -> Result<SpannedJson, String> {
        let pos = self.pos;
        let node = match self.peek() {
            Some(b'n') => self.literal("null", SpannedNode::Null),
            Some(b't') => self.literal("true", SpannedNode::Bool(true)),
            Some(b'f') => self.literal("false", SpannedNode::Bool(false)),
            Some(b'"') => self.string().map(SpannedNode::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err_at(self.pos, "unexpected input")),
        }?;
        Ok(SpannedJson { pos, node })
    }

    fn array(&mut self) -> Result<SpannedNode, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(SpannedNode::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(SpannedNode::Arr(items));
                }
                _ => return Err(self.err_at(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<SpannedNode, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(SpannedNode::Obj(members));
        }
        loop {
            self.skip_ws();
            let key_pos = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key_pos, key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(SpannedNode::Obj(members));
                }
                _ => return Err(self.err_at(self.pos, "expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        let start = self.pos;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err_at(start, "unterminated string starting")),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err_at(self.pos, "truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| self.err_at(self.pos, "bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err_at(self.pos, "bad \\u escape"))?;
                            // Surrogates never appear in our own output;
                            // map them to U+FFFD rather than failing.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err_at(self.pos, "bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this
                    // is always on a boundary).
                    let c = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<SpannedNode, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        // Plain non-negative integer literals stay exact (seeds exceed
        // f64's 2^53 integer range); everything else goes through f64.
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(x) = text.parse::<u64>() {
                return Ok(SpannedNode::UInt(x));
            }
        }
        text.parse::<f64>()
            .map(SpannedNode::Num)
            .map_err(|_| self.err_at(start, format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_back() {
        let mut obj = Json::object();
        obj.push("schema_version", 1u64)
            .push("name", "fig9")
            .push("loads", Json::Arr(vec![Json::Num(0.1), Json::Num(1.0)]))
            .push("missing", Json::Null)
            .push("ok", true);
        let text = obj.render();
        assert_eq!(Json::parse(&text).unwrap(), obj);
        // Stable key order in the rendering.
        let v = text.find("schema_version").unwrap();
        let n = text.find("name").unwrap();
        assert!(v < n);
    }

    #[test]
    fn compact_rendering_is_one_line_and_round_trips() {
        let text = r#"{"a": [1, 2.5, {"b": null}], "c": "x\ny", "d": false, "e": {}}"#;
        let j = Json::parse(text).unwrap();
        let compact = j.render_compact();
        assert!(!compact.contains('\n'), "{compact}");
        assert_eq!(
            compact,
            r#"{"a":[1,2.5,{"b":null}],"c":"x\ny","d":false,"e":{}}"#
        );
        assert_eq!(Json::parse(&compact).unwrap(), j);
    }

    #[test]
    fn float_formats() {
        assert_eq!(fmt_f64(5.0), "5");
        assert_eq!(fmt_f64(-3.0), "-3");
        assert_eq!(fmt_f64(0.1), "0.1");
        assert_eq!(fmt_f64(20240804.0), "20240804");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        // Round trip through parse.
        for x in [0.1, 1.0 / 3.0, 1e-9, 123456.789, -0.25] {
            let t = fmt_f64(x);
            assert_eq!(Json::parse(&t).unwrap().as_f64(), Some(x), "{t}");
        }
    }

    #[test]
    fn big_integers_stay_exact() {
        // Seeds beyond f64's 2^53 integer range must round-trip exactly.
        let seed: u64 = 9_007_199_254_740_993; // 2^53 + 1
        let mut obj = Json::object();
        obj.push("seed", seed).push("max", u64::MAX);
        let text = obj.render();
        assert!(text.contains("9007199254740993"), "{text}");
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(seed));
        assert_eq!(back.get("max").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(back, obj);
        // Whole numbers compare equal across variants; distinct big
        // integers stay distinct (f64 would have collapsed them).
        assert_eq!(Json::Num(5.0), Json::UInt(5));
        assert_ne!(Json::UInt(seed), Json::UInt(seed - 1));
        // Too big for u64 falls back to a float.
        assert!(matches!(
            Json::parse("123456789012345678901234567890").unwrap(),
            Json::Num(_)
        ));
    }

    #[test]
    fn escapes_strings() {
        let j = Json::Str("a\"b\\c\nd\u{1}".to_string());
        let text = j.render();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn parses_nested() {
        let text = r#" { "a": [1, 2.5, {"b": null}], "c": "x", "d": false } "#;
        let j = Json::parse(text).unwrap();
        assert_eq!(j.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(j.get("c").unwrap().as_str(), Some("x"));
        assert_eq!(j.get("d"), Some(&Json::Bool(false)));
        assert_eq!(
            j.get("a").unwrap().as_array().unwrap()[2].get("b"),
            Some(&Json::Null)
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn push_guards_type() {
        Json::Arr(vec![]).push("k", 1u64);
    }

    #[test]
    fn line_col_math() {
        let text = "ab\ncdé\nf";
        assert_eq!(line_col(text, 0), (1, 1));
        assert_eq!(line_col(text, 2), (1, 3)); // the newline itself
        assert_eq!(line_col(text, 3), (2, 1));
        // é is two bytes but one column.
        assert_eq!(line_col(text, 7), (2, 4));
        assert_eq!(line_col(text, 8), (3, 1));
        assert_eq!(line_col(text, 999), (3, 2)); // clamped past the end
    }

    #[test]
    fn errors_point_at_line_and_column() {
        // Missing ':' on line 3, right after the key.
        let err = Json::parse("{\n  \"a\": 1,\n  \"b\" 2\n}").unwrap_err();
        assert!(err.contains("line 3, column 7"), "{err}");
        // Trailing comma in an array on line 2.
        let err = Json::parse("[\n 1,\n]").unwrap_err();
        assert!(err.contains("line 3, column 1"), "{err}");
        // Bad literal midway through line 1.
        let err = Json::parse("{\"x\": nope}").unwrap_err();
        assert!(err.contains("line 1, column 7"), "{err}");
        // Trailing data after the document.
        let err = Json::parse("{}\n{}").unwrap_err();
        assert!(err.contains("trailing data at line 2, column 1"), "{err}");
        // Unterminated string points at its opening quote.
        let err = Json::parse("{\n  \"a\": \"open\n}").unwrap_err();
        assert!(err.contains("unterminated string"), "{err}");
        assert!(err.contains("line 2, column 8"), "{err}");
        // Truncated \u escape carries a position too.
        let err = Json::parse("[\"x\\u00").unwrap_err();
        assert!(err.contains("truncated \\u escape at line 1"), "{err}");
    }

    #[test]
    fn spanned_parse_records_positions() {
        let text = "{\n  \"phases\": [\n    {\"load\": 50}\n  ]\n}";
        let doc = SpannedJson::parse(text).unwrap();
        assert_eq!(line_col(text, doc.pos), (1, 1));
        let phases = doc.get("phases").unwrap();
        assert_eq!(line_col(text, phases.pos), (2, 13));
        let first = &phases.as_array().unwrap()[0];
        let (key_pos, key, value) = &first.members().unwrap()[0];
        assert_eq!(key, "load");
        assert_eq!(line_col(text, *key_pos), (3, 6));
        assert_eq!(value.as_f64(), Some(50.0));
        assert_eq!(value.as_u64(), Some(50));
        assert_eq!(value.kind(), "a number");
        // Stripping spans reproduces the plain parse.
        assert_eq!(doc.to_json(), Json::parse(text).unwrap());
    }
}
