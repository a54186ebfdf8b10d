//! The workspace's one JSON module: the [`Json`] value every writer
//! builds and the reader returns, one string escaper, one float rule and
//! one parser.
//!
//! The build environment is offline, so `serde_json` is unavailable (the
//! vendored `serde` is a no-op derive stub). Every artifact the workspace
//! writes — the `BENCH_*.json` exports, ledger records, metrics
//! snapshots, span profiles, flight dumps and the serve replies — is
//! built as a [`Json`] tree and printed with `{}`:
//!
//! * output is compact, valid UTF-8 JSON with object keys in insertion
//!   order, so equal values render byte-equal;
//! * strings escape `"`, `\` and every control character; other text,
//!   non-ASCII included, is written as is;
//! * a finite float prints with `{:?}`, which keeps a decimal point or
//!   exponent so it reads back as a float; a non-finite one prints as
//!   `null`, since JSON has no NaN or infinity.
//!
//! [`parse`] reads one document back. Every number reads back as
//! [`Json::Num`], and nesting deeper than [`MAX_DEPTH`] is a
//! [`ParseError`], so a hostile file cannot overflow the stack.

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts. Nothing the
/// workspace writes nests deeper than single digits.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Build one with the constructors and `From` impls and
/// print it with `{}`; [`parse`] returns one.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also how a non-finite float renders).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (counters). [`parse`] never returns one.
    UInt(u64),
    /// A float (powers, seconds, ratios), and every number [`parse`]
    /// reads.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object; key order is preserved as inserted or read.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, preserving order.
    #[must_use]
    pub fn object<K: Into<String>>(pairs: Vec<(K, Json)>) -> Self {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value under `key` when this is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value when this is a number of either kind.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The elements when this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::UInt(u64::from(v))
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

/// Writes `s` as a quoted JSON string — the workspace's one escaper.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Array(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            Json::Object(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { at: self.pos, message: message.into() })
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return self.err(format!("nesting deeper than {MAX_DEPTH}"));
                }
                self.depth += 1;
                let value = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => self.err(format!("unexpected byte 0x{b:02x}")),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            self.err(format!("expected '{text}'"))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ParseError { at: start, message: "non-utf8 number".into() })?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(ParseError { at: start, message: format!("bad number '{text}'") }),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                // The writer escapes only control
                                // characters, so surrogate pairs never
                                // occur; reject them rather than
                                // mis-decode.
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences
                    // whole, so `pos` stays on a char boundary).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| ParseError { at: self.pos, message: "non-utf8".into() })?;
                    let c = rest.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses `text` as one JSON document (trailing whitespace allowed,
/// trailing garbage not).
///
/// # Errors
///
/// A [`ParseError`] locating the first malformed byte, or the first
/// container nested deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut parser = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return parser.err("trailing garbage after document");
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::from(true).to_string(), "true");
        assert_eq!(Json::from(42u64).to_string(), "42");
        assert_eq!(Json::from(1.5).to_string(), "1.5");
        assert_eq!(Json::from(2.0).to_string(), "2.0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::from("a\"b\\c\n").to_string(), r#""a\"b\\c\n""#);
        assert_eq!(Json::from("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn containers_preserve_order() {
        let v = Json::object(vec![
            ("b", Json::from(1u64)),
            ("a", Json::Array(vec![Json::from("x"), Json::from("y")])),
        ]);
        assert_eq!(v.to_string(), r#"{"b":1,"a":["x","y"]}"#);
    }

    #[test]
    fn parses_every_value_kind() {
        let v = parse(
            r#"{"a": [1, -2.5, 1e3], "b": "x\n\"y\"", "c": true, "d": null, "e": {}}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert!((v.get("a").unwrap().as_arr().unwrap()[2].as_num().unwrap() - 1000.0).abs() < 1e-9);
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\n\"y\""));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Object(vec![])));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    /// `v` as [`parse`] reads it back: every number a float.
    fn as_read(v: &Json) -> Json {
        match v {
            Json::UInt(n) => Json::Num(*n as f64),
            Json::Array(items) => Json::Array(items.iter().map(as_read).collect()),
            Json::Object(pairs) => {
                Json::Object(pairs.iter().map(|(k, v)| (k.clone(), as_read(v))).collect())
            }
            other => other.clone(),
        }
    }

    #[test]
    fn rendering_then_parsing_gives_the_value_back() {
        let value = Json::object(vec![
            ("quote\"slash\\", Json::from("tab\tnl\nret\rnul\u{0}bell\u{7}unit\u{1f}")),
            ("non-ascii ✓", Json::from("ÿ — 日本語 — 🦀")),
            ("max", Json::from(u64::MAX)),
            ("zero", Json::from(0u64)),
            ("float", Json::from(-1.25e-7)),
            ("whole float", Json::from(3.0)),
            ("flags", Json::Array(vec![Json::Bool(true), Json::Bool(false), Json::Null])),
            ("empty", Json::object(Vec::<(&str, Json)>::new())),
            ("nested", Json::Array(vec![Json::Array(vec![Json::from("x")])])),
        ]);
        let text = value.to_string();
        assert_eq!(parse(&text).unwrap(), as_read(&value), "{text}");
        assert_eq!(parse(&Json::from(u64::MAX).to_string()).unwrap().as_num(), Some(u64::MAX as f64));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::from(bad).to_string(), "null");
            assert_eq!(parse(&Json::from(bad).to_string()).unwrap(), Json::Null);
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| r#"{"a":"#.repeat(depth) + "null" + &"}".repeat(depth);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        for depth in [MAX_DEPTH + 1, 1_000_000] {
            for text in [arrays(depth), objects(depth)] {
                let err = parse(&text).unwrap_err();
                assert!(err.message.contains("nesting"), "{err}");
            }
        }
        // Unclosed, as a truncated hostile file would be.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
    }
}
