//! Dependency-free JSON values, serialization, and parsing.
//!
//! The workspace persists experiment artifacts as JSON (`results/*.json`)
//! and the engine's determinism guarantee is stated over those bytes —
//! two runs of the same `RunSpec` list must serialize identically at any
//! thread count. That guarantee is easiest to audit when the serializer
//! is small and in-tree, and it frees the tier-1 build from crates.io:
//!
//! * [`Json`] — a value tree whose objects preserve insertion order, so
//!   serialization is a pure function of construction order (no hash-map
//!   iteration nondeterminism);
//! * compact and pretty writers with shortest-round-trip float
//!   formatting (`f64`'s `Display`);
//! * a strict recursive-descent [`parse`] used by tests and tools to
//!   read artifacts back, and [`parse_object_fields`], which validates a
//!   document just as strictly but hands an object's top-level fields
//!   straight to the caller, strings borrowed where they hold no
//!   escapes, instead of building a tree (the `arq serve` event decoder);
//! * [`ToJson`] — the conversion trait result types implement instead of
//!   external-derive serialization.
//!
//! Parsing is linear in the input: each run of a string between escapes
//! is borrowed or copied whole. The writers escape `"`, `\`, and control
//! characters and write every other character, non-ASCII included, raw
//! as UTF-8; the parser decodes `\uXXXX` escapes, surrogate pairs
//! included.
//!
//! Not a general-purpose JSON library: no streaming, numbers are
//! `i128`-or-`f64`. That is exactly enough for artifacts.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value. Objects keep their insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i128),
    /// A float. Non-finite values serialize as `null`, like serde_json.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Converts a value into a [`Json`] tree.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object; panics on other variants.
    pub fn push_field(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("push_field on non-object {other:?}"),
        }
        self
    }

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element lookup; `None` on non-arrays.
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(index),
            _ => None,
        }
    }

    /// The numeric value of `Int` / `Float` variants.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The string value of `Str` variants.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of `Arr` variants.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Indented serialization (two spaces), for human-read artifacts.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => write_f64(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

/// Compact serialization (no whitespace) — `to_string()` yields the
/// byte-deterministic form the executor's guarantees are stated over.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Keep a decimal point so the value parses back as Float.
        let _ = write!(out, "{f:.1}");
    } else {
        // Rust's Display prints the shortest string that round-trips.
        let _ = write!(out, "{f}");
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

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

macro_rules! int_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(v as i128)
            }
        }
    )*};
}
int_from!(i32, i64, u32, u64, usize);

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<&String> for Json {
    fn from(v: &String) -> Json {
        Json::Str(v.clone())
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl From<&[f64]> for Json {
    fn from(v: &[f64]) -> Json {
        Json::Arr(v.iter().map(|&y| Json::Float(y)).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl ToJson for crate::series::TimeSeries {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(&self.name)),
            ("xs", Json::from(self.xs())),
            ("ys", Json::from(self.ys())),
        ])
    }
}

impl ToJson for crate::stats::Summary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("mean", Json::from(self.mean)),
            ("stddev", Json::from(self.stddev)),
            ("min", Json::from(self.min)),
            ("p25", Json::from(self.p25)),
            ("p50", Json::from(self.p50)),
            ("p75", Json::from(self.p75)),
            ("p95", Json::from(self.p95)),
            ("max", Json::from(self.max)),
        ])
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

/// Parses a complete JSON document. Trailing garbage is an error.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    parse_document(text, parse_value)
}

/// A top-level field value as [`parse_object_fields`] hands it over.
#[derive(Debug, Clone, PartialEq)]
pub enum Field<'a> {
    /// A string, borrowed from the input when it holds no escapes.
    Str(Cow<'a, str>),
    /// Any other value, parsed in full.
    Other(Json),
}

/// Parses a complete JSON document as strictly as [`parse`], with the
/// same errors, and hands each top-level field of an object to `visit`
/// in document order, duplicates included, without building the
/// object. Any other document is validated and has no fields.
///
/// `visit` is a `dyn` callback so that the walk is compiled once, here,
/// with its helpers inlined, whichever crate calls it.
pub fn parse_object_fields<'a>(
    text: &'a str,
    visit: &mut dyn FnMut(&str, Field<'a>),
) -> Result<(), ParseError> {
    parse_document(text, |text, pos| {
        let bytes = text.as_bytes();
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'{') {
            return parse_value(text, pos).map(drop);
        }
        parse_object(text, pos, |key, pos| {
            skip_ws(bytes, pos);
            let value = if bytes.get(*pos) == Some(&b'"') {
                Field::Str(parse_string(text, pos)?)
            } else {
                Field::Other(parse_value(text, pos)?)
            };
            visit(&key, value);
            Ok(())
        })
    })
}

/// Runs `value` over the whole of `text`; trailing garbage is an error.
fn parse_document<'a, T>(
    text: &'a str,
    value: impl FnOnce(&'a str, &mut usize) -> Result<T, ParseError>,
) -> Result<T, ParseError> {
    let mut pos = 0usize;
    let value = value(text, &mut pos)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(ParseError::at(pos, "trailing characters"));
    }
    Ok(value)
}

/// A JSON parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    fn at(offset: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), ParseError> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(ParseError::at(*pos, format!("expected `{token}`")))
    }
}

fn parse_value(text: &str, pos: &mut usize) -> Result<Json, ParseError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(ParseError::at(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(text, pos).map(|s| Json::Str(s.into_owned())),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(ParseError::at(*pos, "expected `,` or `]`")),
                }
            }
        }
        Some(b'{') => {
            let mut fields = Vec::new();
            parse_object(text, pos, |key, pos| {
                fields.push((key.into_owned(), parse_value(text, pos)?));
                Ok(())
            })?;
            Ok(Json::Obj(fields))
        }
        Some(_) => parse_number(bytes, pos),
    }
}

/// Walks the object whose `{` is at `*pos`, handing each field's key to
/// `field` with `*pos` at the field's value, which `field` must consume.
fn parse_object<'a>(
    text: &'a str,
    pos: &mut usize,
    mut field: impl FnMut(Cow<'a, str>, &mut usize) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    let bytes = text.as_bytes();
    *pos += 1;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, ":")?;
        field(key, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(ParseError::at(*pos, "expected `,` or `}`")),
        }
    }
}

/// Parses the string whose opening quote is at `*pos`. It is borrowed
/// from `text` when it holds no escapes; otherwise each run between
/// escapes is copied whole.
fn parse_string<'a>(text: &'a str, pos: &mut usize) -> Result<Cow<'a, str>, ParseError> {
    let bytes = text.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(ParseError::at(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = Cow::Borrowed("");
    loop {
        // `"` and `\` are ASCII, so a run ends on a UTF-8 boundary.
        let run = *pos;
        *pos += quote_or_backslash(&bytes[run..]);
        let chunk = &text[run..*pos];
        match bytes.get(*pos) {
            None => return Err(ParseError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(match out {
                    Cow::Borrowed(_) => Cow::Borrowed(chunk),
                    Cow::Owned(mut s) => {
                        s.push_str(chunk);
                        Cow::Owned(s)
                    }
                });
            }
            Some(_) => {
                let s = out.to_mut();
                s.push_str(chunk);
                *pos += 1;
                s.push(match bytes.get(*pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'u') => parse_unicode_escape(bytes, pos)?,
                    _ => return Err(ParseError::at(*pos, "bad escape")),
                });
                *pos += 1;
            }
        }
    }
}

/// The index of the first `"` or `\` in `bytes`, or its length. Eight
/// bytes are tested at a time: a byte of `w ^ splat(c)` is zero where
/// `w` holds `c`, and the lowest byte the zero-byte test flags is exact
/// (its borrows only reach bytes above a zero byte).
fn quote_or_backslash(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let zero_bytes = |x: u64| x.wrapping_sub(ONES) & !x & HIGHS;
    let mut chunks = bytes.chunks_exact(8);
    let mut at = 0;
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().expect("chunks of eight"));
        let hits =
            zero_bytes(w ^ (ONES * u64::from(b'"'))) | zero_bytes(w ^ (ONES * u64::from(b'\\')));
        if hits != 0 {
            return at + (hits.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    let tail = chunks.remainder();
    at + tail
        .iter()
        .position(|&b| b == b'"' || b == b'\\')
        .unwrap_or(tail.len())
}

/// Decodes the `\u` escape whose `u` is at `*pos`, leaving `*pos` on its
/// last hex digit. A high surrogate followed by a `\u` low surrogate is
/// one scalar; any other surrogate decodes to U+FFFD.
fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Result<char, ParseError> {
    let high = hex4(bytes, *pos)?;
    *pos += 4;
    if (0xD800..0xDC00).contains(&high) && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u") {
        // A bad second escape is left for the caller to report.
        if let Ok(low @ 0xDC00..=0xDFFF) = hex4(bytes, *pos + 2) {
            *pos += 6;
            let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
            return Ok(char::from_u32(code).expect("a surrogate pair encodes a scalar"));
        }
    }
    Ok(char::from_u32(high).unwrap_or('\u{FFFD}'))
}

/// The value of exactly four hex digits after the `u` at `at`.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, ParseError> {
    let digits = bytes
        .get(at + 1..at + 5)
        .ok_or_else(|| ParseError::at(at, "truncated \\u escape"))?;
    digits.iter().try_fold(0, |code, &b| {
        let digit = char::from(b)
            .to_digit(16)
            .ok_or_else(|| ParseError::at(at, "bad \\u escape"))?;
        Ok(code * 16 + digit)
    })
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    let negative = bytes.get(*pos) == Some(&b'-');
    *pos += usize::from(negative);
    // Integers of up to 19 digits cannot overflow a u64, so they are
    // accumulated as they are scanned instead of re-parsed as an i128.
    let mut value = 0u64;
    while let Some(&b @ b'0'..=b'9') = bytes.get(*pos) {
        value = value.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
        *pos += 1;
    }
    let digits = *pos - start - usize::from(negative);
    let int_end = *pos;
    while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(*pos) {
        *pos += 1;
    }
    let is_float = *pos > int_end;
    if !is_float && (1..=19).contains(&digits) {
        let value = i128::from(value);
        return Ok(Json::Int(if negative { -value } else { value }));
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| ParseError::at(start, "invalid number"))?;
    if text.is_empty() || text == "-" {
        return Err(ParseError::at(start, "expected a value"));
    }
    if is_float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| ParseError::at(start, "invalid float"))
    } else {
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| ParseError::at(start, "invalid integer"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_serialization_is_canonical() {
        let v = Json::obj([
            ("name", Json::from("series \"a\"")),
            ("n", Json::from(3u64)),
            ("mean", Json::from(0.5f64)),
            ("tags", Json::from(vec![Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"series \"a\"","n":3,"mean":0.5,"tags":[null,true]}"#
        );
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &f in &[0.1, 1.0 / 3.0, 1e-300, 123456.789, -0.0, 2.0] {
            let s = Json::Float(f).to_string();
            let back = parse(&s).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), f.to_bits(), "value {f}");
        }
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn integers_stay_integers() {
        assert_eq!(Json::from(u64::MAX).to_string(), u64::MAX.to_string());
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("2.0").unwrap(), Json::Float(2.0));
    }

    #[test]
    fn short_integers_parse_as_i128_does() {
        let mut cases: Vec<String> = ["0", "-0", "007", "-007", "1", "-1", "42"]
            .map(str::to_string)
            .to_vec();
        for digits in 17..=20 {
            cases.push("9".repeat(digits));
            cases.push(format!("-{}", "9".repeat(digits)));
            cases.push(format!("1{}", "0".repeat(digits - 1)));
        }
        cases.extend(
            [i128::MAX, i128::MIN, i64::MAX as i128, u64::MAX as i128].map(|i| i.to_string()),
        );
        for text in cases {
            let want = Json::Int(text.parse::<i128>().unwrap());
            assert_eq!(parse(&text).unwrap(), want, "{text}");
        }
    }

    #[test]
    fn parse_round_trips_nested_documents() {
        let text = r#"{"a": [1, 2.5, "x", {"b": null}], "c": false}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Bool(false)));
        assert_eq!(
            v.get("a").unwrap().at(3).unwrap().get("b"),
            Some(&Json::Null)
        );
        let reparsed = parse(&v.to_string()).unwrap();
        assert_eq!(reparsed, v);
        let repretty = parse(&v.to_string_pretty()).unwrap();
        assert_eq!(repretty, v);
    }

    #[test]
    fn object_order_is_preserved() {
        let mut v = Json::object();
        v.push_field("z", 1u64);
        v.push_field("a", 2u64);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn parse_errors_carry_position() {
        assert!(parse("").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        let e = parse("[1] x").unwrap_err();
        assert!(e.message.contains("trailing"));
        assert_eq!(e.offset, 4);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line\nquote\"back\\slash\ttab\u{1}";
        let v = Json::from(s);
        assert_eq!(parse(&v.to_string()).unwrap().as_str(), Some(s));
    }

    #[test]
    fn unicode_escapes_decode_surrogate_pairs_and_need_four_hex_digits() {
        let decoded = |text: &str| parse(text).map(|v| v.as_str().unwrap().to_string());
        assert_eq!(decoded(r#""\ud83d\ude00""#).unwrap(), "\u{1F600}");
        assert_eq!(decoded(r#""a\uD83D\uDE00b""#).unwrap(), "a\u{1F600}b");
        assert_eq!(decoded(r#""\u00e9\u20AC""#).unwrap(), "é€");
        // Lone surrogates stay U+FFFD, and the escape after a lone high
        // surrogate is decoded on its own.
        assert_eq!(decoded(r#""\ud83d""#).unwrap(), "\u{FFFD}");
        assert_eq!(decoded(r#""\ude00""#).unwrap(), "\u{FFFD}");
        assert_eq!(decoded(r#""\ud83dx""#).unwrap(), "\u{FFFD}x");
        assert_eq!(decoded(r#""\ud83d\u0041""#).unwrap(), "\u{FFFD}A");
        assert_eq!(decoded(r#""\ude00\ud83d""#).unwrap(), "\u{FFFD}\u{FFFD}");
        for text in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\ud83d\u+e00""#,
        ] {
            let e = parse(text).unwrap_err();
            assert_eq!(e.message, "bad \\u escape", "{text}");
        }
        assert_eq!(parse(r#""\u+041""#).unwrap_err().offset, 2);
        assert_eq!(parse(r#""\ud83d\u+e00""#).unwrap_err().offset, 8);
    }

    /// `(document, offset, message)` for malformed documents, as the
    /// character-at-a-time parser this module used to have reported them.
    const MALFORMED: &[(&str, usize, &str)] = &[
        ("", 0, "unexpected end of input"),
        (" ", 1, "unexpected end of input"),
        ("[1,]", 3, "expected a value"),
        ("{\"a\" 1}", 5, "expected `:`"),
        ("[1] x", 4, "trailing characters"),
        ("{", 1, "expected string"),
        ("{\"a\":", 5, "unexpected end of input"),
        ("{\"a\":1,", 7, "expected string"),
        ("{\"a\":1 \"b\":2}", 7, "expected `,` or `}`"),
        ("{1:2}", 1, "expected string"),
        ("[1 2]", 3, "expected `,` or `]`"),
        ("\"abc", 4, "unterminated string"),
        ("\"a\\", 3, "bad escape"),
        ("\"a\\q\"", 3, "bad escape"),
        ("\"\\u12\"", 2, "truncated \\u escape"),
        ("\"\\u12", 2, "truncated \\u escape"),
        ("\"\\uzzzz\"", 2, "bad \\u escape"),
        ("\"\\u00é9\"", 2, "bad \\u escape"),
        ("nul", 0, "expected `null`"),
        ("tru", 0, "expected `true`"),
        ("-", 0, "expected a value"),
        ("--1", 0, "invalid float"),
        ("1.2.3", 0, "invalid float"),
        ("1e", 0, "invalid float"),
        ("{\"k\":[1,{\"x\":}]}", 13, "expected a value"),
        ("[\"é\", ]", 7, "expected a value"),
        ("{\"é\":1,}", 8, "expected string"),
        ("\"\\u0041\" x", 9, "trailing characters"),
        ("{}}", 2, "trailing characters"),
        ("[", 1, "unexpected end of input"),
        ("]", 0, "expected a value"),
        ("1 2", 2, "trailing characters"),
        ("{\"a\":tru}", 5, "expected `true`"),
        ("[nulll]", 5, "expected `,` or `]`"),
        (
            "999999999999999999999999999999999999999999",
            0,
            "invalid integer",
        ),
        ("\"ok\"\u{1}", 4, "trailing characters"),
        ("\"\\ud83d\\uzzzz\"", 8, "bad \\u escape"),
        ("\"\\ud83d\\u00", 8, "truncated \\u escape"),
        ("\"\\ud83d", 7, "unterminated string"),
        ("{\"ev\":\"pair\",\"src\":1,}", 21, "expected string"),
        ("{\"ev\":\"pa\\ir\"}", 10, "bad escape"),
        (
            "  {\"a\":\"b\\\"c\"  ,  \"d\" : [ ] } ]",
            30,
            "trailing characters",
        ),
        ("{\"a\":\"\u{7f}\0\" \"b\"}", 10, "expected `,` or `}`"),
        ("[\"日本\\n語\",\"x\\", 18, "bad escape"),
        ("{\"\\u00e9\\u20AC\":\"€\" : 1}", 22, "expected `,` or `}`"),
    ];

    #[test]
    fn malformed_documents_fail_where_they_always_did() {
        for &(text, offset, message) in MALFORMED {
            let want = ParseError::at(offset, message);
            assert_eq!(parse(text).unwrap_err(), want, "parse {text:?}");
            let walked = parse_object_fields(text, &mut |_, _| {});
            assert_eq!(walked.unwrap_err(), want, "parse_object_fields {text:?}");
        }
    }

    /// A seeded string over an alphabet of ASCII, multibyte UTF-8,
    /// control characters and characters the writer escapes.
    fn random_string(rng: &mut crate::rng::Rng64) -> String {
        const ALPHABET: &[char] = &[
            'a',
            'Z',
            '0',
            ' ',
            '/',
            '"',
            '\\',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{1}',
            '\u{1f}',
            '\u{7f}',
            'é',
            '€',
            '日',
            '\u{FFFD}',
            '\u{FFFF}',
            '\u{1F600}',
            '\u{10FFFF}',
        ];
        let len = rng.index(12);
        (0..len).map(|_| *rng.pick(ALPHABET)).collect()
    }

    /// Writes `s` as a JSON string that escapes a random subset of its
    /// characters as `\uXXXX`, astral ones as surrogate pairs, so escape
    /// runs start and end at every kind of character.
    fn escape_randomly(s: &str, rng: &mut crate::rng::Rng64) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            if matches!(c, '"' | '\\') || (c as u32) < 0x20 || rng.chance(0.4) {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    if rng.chance(0.5) {
                        let _ = write!(out, "\\u{unit:04x}");
                    } else {
                        let _ = write!(out, "\\u{unit:04X}");
                    }
                }
            } else {
                out.push(c);
            }
        }
        out.push('"');
        out
    }

    fn random_value(rng: &mut crate::rng::Rng64, depth: usize) -> Json {
        match rng.index(if depth == 0 { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.chance(0.5)),
            2 => Json::Int(rng.next_u64() as i128 - (1 << 40)),
            3 => Json::Float(rng.f64() * 1e6 - 5e5),
            4 => Json::Str(random_string(rng)),
            5 => Json::Arr(
                (0..rng.index(4))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.index(4))
                    .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn seeded_documents_round_trip() {
        let mut rng = crate::rng::Rng64::seed_from(0x150_u64);
        for case in 0..2_000 {
            let v = random_value(&mut rng, 3);
            for text in [v.to_string(), v.to_string_pretty()] {
                assert_eq!(parse(&text).unwrap(), v, "case {case}: {text}");
                let mut fields = Vec::new();
                parse_object_fields(&text, &mut |key, field| {
                    let value = match field {
                        Field::Str(s) => Json::Str(s.into_owned()),
                        Field::Other(value) => value,
                    };
                    fields.push((key.to_string(), value));
                })
                .unwrap();
                match &v {
                    Json::Obj(want) => assert_eq!(&fields, want, "case {case}: {text}"),
                    _ => assert!(fields.is_empty(), "case {case}: {text}"),
                }
            }
            let s = random_string(&mut rng);
            let text = escape_randomly(&s, &mut rng);
            assert_eq!(parse(&text).unwrap(), Json::Str(s), "case {case}: {text}");
        }
    }

    #[test]
    fn word_scan_finds_the_first_quote_or_backslash() {
        let mut rng = crate::rng::Rng64::seed_from(0x5CA7);
        // Bytes next to the targets in value, and every high byte, probe
        // the borrow and sign corners of the zero-byte test.
        const BYTES: &[u8] = &[
            b'a', b'!', b'#', b'[', b']', 0x00, 0x01, 0x7f, 0x80, 0xa2, 0xdc, 0xff,
        ];
        for _ in 0..5_000 {
            let len = rng.index(40);
            let mut bytes: Vec<u8> = (0..len).map(|_| *rng.pick(BYTES)).collect();
            for _ in 0..rng.index(3) {
                if len > 0 {
                    bytes[rng.index(len)] = *rng.pick(b"\"\\");
                }
            }
            let want = bytes
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(len);
            assert_eq!(quote_or_backslash(&bytes), want, "{bytes:?}");
        }
    }

    #[test]
    fn unescaped_strings_are_borrowed() {
        let text = r#"{"guid":"00ff","k\u0065y":"a\nb","n":[1]}"#;
        let mut seen = Vec::new();
        parse_object_fields(text, &mut |key, field| seen.push((key.to_string(), field))).unwrap();
        assert_eq!(seen.len(), 3);
        assert!(matches!(&seen[0].1, Field::Str(Cow::Borrowed("00ff"))));
        assert_eq!(seen[1].0, "key");
        assert!(matches!(&seen[1].1, Field::Str(Cow::Owned(s)) if s == "a\nb"));
        assert_eq!(seen[2].1, Field::Other(Json::Arr(vec![Json::Int(1)])));
    }
}
