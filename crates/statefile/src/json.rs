//! A strict, dependency-free JSON subset parser and canonical writer.
//!
//! Scenario specs and campaign manifests are JSON documents; like the XML
//! side (`crate::xml`) this parser is written from scratch and hardened
//! against hostile input: nesting depth is capped at
//! `MAX_JSON_DEPTH`, duplicate object keys are rejected, every error
//! carries a line/column position, and parse time is linear in the
//! document's size, so a body's byte limit also bounds the time spent
//! parsing it. The writer produces *canonical*
//! output — 2-space indent, insertion-ordered keys, shortest-round-trip
//! number rendering — so a parse → write cycle is a usable golden file.
//!
//! Determinism note: Rust's `{}` formatting of a finite `f64` is the
//! shortest string that round-trips to the same bits, so canonical JSON
//! numbers are bit-exact. Non-finite values have no JSON number form;
//! layers above encode them as `"bits:<16 hex>"` strings (see
//! [`crate::codec::fmt_f64_bits`]).

use std::collections::HashSet;
use std::fmt::Write as _;

/// Maximum array/object nesting depth, mirroring [`crate::xml::MAX_NESTING_DEPTH`].
pub(crate) const MAX_JSON_DEPTH: usize = 128;

/// A parsed JSON value. Object entries preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// All JSON numbers are held as `f64`; integers beyond 2^53 must be
    /// transported as decimal strings by the layer above.
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Human name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Num(_) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Arr(_) => "array",
            JsonValue::Obj(_) => "object",
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Render as canonical JSON: 2-space indent, insertion-ordered keys,
    /// `\n` separators, shortest-round-trip numbers, trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => render_number(*n, out),
            JsonValue::Str(s) => render_string(s, out),
            JsonValue::Arr(items) => {
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
                    pad(out, indent + 1);
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            JsonValue::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    render_string(k, out);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn render_number(n: f64, out: &mut String) {
    // The writer is only handed finite numbers; non-finite f64s are
    // encoded as "bits:<hex>" strings by the layer above.
    debug_assert!(n.is_finite(), "non-finite number reached the JSON writer");
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

fn render_string(s: &str, out: &mut String) {
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

/// Error from [`parse`], with a 1-based source position.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    pub(crate) line: usize,
    pub(crate) col: usize,
    pub(crate) message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at line {}, col {}: {}", self.line, self.col, self.message)
    }
}
impl std::error::Error for JsonError {}

/// Longest user-supplied string, in bytes, that an error message echoes
/// whole.
pub(crate) const ECHO_LIMIT: usize = 64;

/// A user-supplied string as an error message echoes it: quoted like
/// `{:?}` when at most `ECHO_LIMIT` bytes long, otherwise a quoted
/// prefix of at most that many bytes, an ellipsis and the full byte
/// length. One hostile value therefore cannot make an error (or the HTTP
/// body carrying it) as large as the value itself.
pub struct Echo<'a>(pub &'a str);

impl std::fmt::Display for Echo<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.0;
        if s.len() <= ECHO_LIMIT {
            return write!(f, "{s:?}");
        }
        let end = (0..=ECHO_LIMIT).rev().find(|&i| s.is_char_boundary(i)).unwrap_or(0);
        write!(f, "{:?}… ({} bytes)", &s[..end], s.len())
    }
}

/// Parse a complete JSON document. Trailing non-whitespace, duplicate
/// object keys, and nesting deeper than `MAX_JSON_DEPTH` are errors.
pub fn parse(src: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { src, bytes: src.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(v)
}

/// Objects with more keys than this detect duplicates with a hash set
/// instead of a scan of the keys so far, so that a many-key object
/// parses in linear time.
const KEY_SCAN_LIMIT: usize = 8;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError { line, col, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_JSON_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_JSON_DEPTH}")));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.keyword("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut entries: Vec<(String, JsonValue)> = Vec::new();
        // Filled once the object outgrows `KEY_SCAN_LIMIT` keys.
        let mut seen: HashSet<String> = HashSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(entries));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key"));
            }
            let key = self.string()?;
            let duplicate = if entries.len() < KEY_SCAN_LIMIT {
                entries.iter().any(|(k, _)| *k == key)
            } else {
                if seen.is_empty() {
                    seen.extend(entries.iter().map(|(k, _)| k.clone()));
                }
                !seen.insert(key.clone())
            };
            if duplicate {
                return Err(self.err(format!("duplicate key {}", Echo(&key))));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            entries.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the longest run that needs no decoding in one step. The
            // bytes that end a run (`"`, `\`, control) are ASCII, so the
            // run ends on a char boundary of the (already valid) source.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("unpaired surrogate"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let digits_before = self.digits();
        if digits_before == 0 {
            return Err(self.err("expected digit"));
        }
        if digits_before > 1 && self.bytes[int_start] == b'0' {
            return Err(self.err("leading zero"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected digit in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let n: f64 = text.parse().map_err(|_| self.err("bad number"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(JsonValue::Num(n))
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("-1.5e3").unwrap(), JsonValue::Num(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::Str("hi".into()));
    }

    #[test]
    fn parse_nested() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        let arr = v.get("a").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&JsonValue::Null));
    }

    #[test]
    fn object_order_preserved() {
        let v = parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn duplicate_keys_rejected() {
        let e = parse(r#"{"a": 1, "a": 2}"#).unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
        assert_eq!(e.message, r#"duplicate key "a""#);
    }

    #[test]
    fn echo_bounds_long_values() {
        // Short values echo exactly as `{:?}` does.
        for s in ["", "a", "tab\there", &"x".repeat(ECHO_LIMIT)] {
            assert_eq!(Echo(s).to_string(), format!("{s:?}"));
        }
        // Long ones: a prefix, an ellipsis and the byte length.
        let long = "a".repeat(50_000);
        assert_eq!(Echo(&long).to_string(), format!("{:?}… (50000 bytes)", &long[..ECHO_LIMIT]));
        // The cut never splits a character.
        let wide = "é".repeat(ECHO_LIMIT);
        let echoed = Echo(&wide).to_string();
        assert!(echoed.starts_with(&format!("{:?}", "é".repeat(ECHO_LIMIT / 2))), "{echoed}");
        assert!(echoed.ends_with(&format!("… ({} bytes)", wide.len())), "{echoed}");
        // A duplicate 50 KB key yields a short error.
        let doc = format!(r#"{{"{long}": 1, "{long}": 2}}"#);
        let e = parse(&doc).unwrap_err();
        assert!(e.to_string().len() < 200, "{} bytes", e.to_string().len());
    }

    #[test]
    fn depth_bomb_rejected() {
        let deep = "[".repeat(MAX_JSON_DEPTH + 10);
        let e = parse(&deep).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        // One under the cap parses (and then fails on truncation, not depth).
        let ok_depth = format!("{}1{}", "[".repeat(50), "]".repeat(50));
        parse(&ok_depth).unwrap();
    }

    #[test]
    fn trailing_content_rejected() {
        assert!(parse("1 2").is_err());
        assert!(parse("{} x").is_err());
    }

    #[test]
    fn error_position() {
        let e = parse("{\"a\": 1,\n \"a\": 2}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""a\"b\\c\nd\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c\nd\u{41}é");
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "😀");
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\q""#).is_err());
        assert!(parse("\"a\u{01}b\"").is_err());
    }

    #[test]
    fn malformed_inputs_error_without_panic() {
        for src in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\"}",
            "{\"a\":}",
            "[1,",
            "[1 2]",
            "tru",
            "01",
            "1.",
            "1e",
            "-",
            "nul",
            "{1: 2}",
            "\"\\u12\"",
        ] {
            assert!(parse(src).is_err(), "expected error for {src:?}");
        }
    }

    #[test]
    fn render_roundtrip_canonical() {
        let src = r#"{"name": "x", "vals": [1, 2.5, -3e-2], "flag": true, "none": null, "obj": {"k": ""}, "empty_arr": [], "empty_obj": {}}"#;
        let v = parse(src).unwrap();
        let rendered = v.render();
        let v2 = parse(&rendered).unwrap();
        assert_eq!(v, v2);
        // Canonical form is a fixed point.
        assert_eq!(v2.render(), rendered);
    }

    #[test]
    fn numbers_roundtrip_bit_exact() {
        for x in [0.0, -0.0, 1.0, 0.1, 1e300, 5e-324, std::f64::consts::PI, 86400.0, 2e9] {
            let mut s = String::new();
            render_number(x, &mut s);
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} rendered as {s}");
        }
    }

    #[test]
    fn render_escapes_control_chars() {
        let v = JsonValue::Str("a\"b\\c\nd\u{01}".into());
        let mut out = String::new();
        render_string(v.as_str().unwrap(), &mut out);
        assert_eq!(out, r#""a\"b\\c\nd\u0001""#);
        let back = parse(&out).unwrap();
        assert_eq!(back, v);
    }
}
