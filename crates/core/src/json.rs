//! The workspace's one JSON reader and writer.
//!
//! The workspace is dependency-free by policy (its one codec,
//! `simkit::codec`, is binary, not JSON). [`parse`] is a small
//! recursive-descent reader for the `serve` wire protocol; numbers are
//! kept as `f64`, since the protocol's only numeric fields are ids and
//! node counts, both well inside the exact-integer range. `Writer` is
//! the only code that emits JSON: the `serve` responses and the
//! `bench-all --json` snapshot both render through it, so escaping,
//! separators and indentation are decided here and nowhere else.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Sorted keys — the protocol never uses duplicate keys and
    /// no reader depends on key order.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup (`None` on non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so a bound keeps a hostile request line from
/// overflowing the stack; protocol requests nest three deep.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document, requiring it to consume the whole input.
/// Nesting deeper than 128 arrays/objects is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse the value at `pos`, inside `depth` enclosing arrays/objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    Value::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                map.insert(key, parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b't') => parse_lit(b, pos, "true").map(|_| Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false").map(|_| Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null").map(|_| Value::Null),
        Some(_) => parse_number(b, pos).map(Value::Num),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        // Surrogate pairs are not needed by the protocol;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape '\\{}'", *other as char)),
                }
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences included).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid UTF-8")?;
                let ch = rest.chars().next().unwrap();
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

/// Escape `s` for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// [`escape`], appending to `out`.
fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
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
}

/// A streaming JSON writer into one `String`: `w.obj(|w| w.key("id").uint(7))`
/// writes `{"id":7}`. Keys keep insertion order, strings always go through
/// [`escape`], non-finite floats (which JSON cannot spell) become `null`,
/// and containers are written by closures, so they always close.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
    /// The innermost open container already holds a member or element.
    filled: bool,
    /// A key was just written, so the next value completes its member.
    after_key: bool,
}

impl Writer {
    /// The single-line layout (the `serve` wire format).
    pub fn compact() -> Self {
        Self::default()
    }

    /// One member or element per line, indented two spaces per level,
    /// with `": "` after keys.
    pub fn pretty() -> Self {
        Self {
            pretty: true,
            ..Self::default()
        }
    }

    /// The rendered document.
    pub fn finish(self) -> String {
        debug_assert_eq!(self.depth, 0, "finish inside an open container");
        self.out
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// Start a value. Unless a key already started its member, that is a
    /// comma after the previous element and, pretty, a fresh line.
    fn value(&mut self) -> &mut String {
        if !std::mem::take(&mut self.after_key) {
            if std::mem::replace(&mut self.filled, true) {
                self.out.push(',');
            }
            if self.pretty && self.depth > 0 {
                self.newline();
            }
        }
        &mut self.out
    }

    /// Write an object key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self.after_key = true;
        self
    }

    /// Write an object whose members `body` writes.
    pub fn obj(&mut self, body: impl FnOnce(&mut Self)) {
        self.container('{', '}', body);
    }

    /// Write an array whose elements `body` writes.
    pub fn arr(&mut self, body: impl FnOnce(&mut Self)) {
        self.container('[', ']', body);
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) {
        self.value().push(open);
        self.depth += 1;
        self.filled = false;
        body(self);
        self.depth -= 1;
        if self.pretty && self.filled {
            self.newline();
        }
        self.out.push(close);
        self.filled = true;
    }

    /// Write a string.
    pub fn str(&mut self, s: &str) {
        let out = self.value();
        out.push('"');
        escape_into(out, s);
        out.push('"');
    }

    /// Write an integer.
    pub fn uint(&mut self, v: u64) {
        let _ = write!(self.value(), "{v}");
    }

    /// Write a float in its shortest round-trip form (`Display`).
    pub fn num(&mut self, v: f64) {
        if v.is_finite() {
            let _ = write!(self.value(), "{v}");
        } else {
            self.null();
        }
    }

    /// Write a float with exactly `decimals` digits after the point.
    pub fn fixed(&mut self, v: f64, decimals: usize) {
        if v.is_finite() {
            let _ = write!(self.value(), "{v:.decimals$}");
        } else {
            self.null();
        }
    }

    /// Write `null`.
    pub fn null(&mut self) {
        self.raw("null");
    }

    /// Write an already-rendered JSON value verbatim, such as a compact
    /// document from another `Writer`.
    pub fn raw(&mut self, json: &str) {
        self.value().push_str(json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(r#"{"id": 3, "queries": [{"app":"alya","nodes":16,"io":true}]}"#).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(3));
        let q = &v.get("queries").unwrap().as_array().unwrap()[0];
        assert_eq!(q.get("app").unwrap().as_str(), Some("alya"));
        assert_eq!(q.get("nodes").unwrap().as_u64(), Some(16));
        assert_eq!(q.get("io").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
        assert_eq!(escape("a\"b\\c\nd"), r#"a\"b\\c\nd"#);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("{1: 2}").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let err = parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Far past any stack: rejected at the limit, not by overflow.
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn numbers_and_literals() {
        assert_eq!(parse("-2.5e3").unwrap().as_f64(), Some(-2500.0));
        assert_eq!(parse("true").unwrap().as_bool(), Some(true));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    fn sample(mut w: Writer) -> String {
        w.obj(|w| {
            w.key("name").str("a\"b\\c\nd");
            w.key("n").uint(42);
            w.key("x").num(0.1 + 0.2);
            w.key("f").fixed(2.0 / 3.0, 3);
            w.key("none").null();
            w.key("empty").arr(|_| {});
            w.key("rows").arr(|w| {
                w.obj(|w| w.key("k").fixed(1.0, 1));
                w.raw(r#"{"pre":[1,2]}"#);
            });
        });
        w.finish()
    }

    #[test]
    fn compact_layout_is_one_line() {
        assert_eq!(
            sample(Writer::compact()),
            r#"{"name":"a\"b\\c\nd","n":42,"x":0.30000000000000004,"f":0.667,"none":null,"empty":[],"rows":[{"k":1.0},{"pre":[1,2]}]}"#
        );
    }

    #[test]
    fn pretty_layout_indents_two_spaces_per_level() {
        let want = r#"{
  "name": "a\"b\\c\nd",
  "n": 42,
  "x": 0.30000000000000004,
  "f": 0.667,
  "none": null,
  "empty": [],
  "rows": [
    {
      "k": 1.0
    },
    {"pre":[1,2]}
  ]
}"#;
        assert_eq!(sample(Writer::pretty()), want);
    }

    #[test]
    fn written_documents_parse_back() {
        for text in [sample(Writer::compact()), sample(Writer::pretty())] {
            let v = parse(&text).unwrap();
            assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b\\c\nd"));
            assert_eq!(v.get("x").unwrap().as_f64(), Some(0.1 + 0.2));
            assert_eq!(v.get("none"), Some(&Value::Null));
            assert_eq!(v.get("rows").unwrap().as_array().unwrap().len(), 2);
        }
        // Keys and control characters are escaped too.
        let mut w = Writer::compact();
        w.obj(|w| w.key("k\"\u{1}").str("\t"));
        let v = parse(&w.finish()).unwrap();
        assert_eq!(v.get("k\"\u{1}").unwrap().as_str(), Some("\t"));
    }

    #[test]
    fn non_finite_floats_are_null() {
        let mut w = Writer::compact();
        w.arr(|w| {
            w.num(f64::NAN);
            w.fixed(f64::INFINITY, 2);
            w.num(-0.5);
        });
        assert_eq!(w.finish(), "[null,null,-0.5]");
    }
}
