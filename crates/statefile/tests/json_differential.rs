//! Differential tests for the linear-time JSON reader.
//!
//! `parse_json` must accept and reject exactly what the original
//! char-at-a-time parser did: the same `Ok` values, and on failure the same
//! `JsonError` line, column and message (compared through its `Display`
//! text, which prints all three). That parser is kept below, verbatim
//! apart from its name and error type, as a private oracle
//! (`parse_reference`). Documents
//! are generated, then mutated and truncated, from a palette that covers 2-,
//! 3- and 4-byte UTF-8, every escape (surrogate pairs and unpaired halves
//! included), raw control bytes, duplicate keys on both sides of the
//! reader's hash-set threshold, and nesting at `MAX_JSON_DEPTH` ± 2.

use bce_statefile::{parse_json, JsonValue};
use proptest::prelude::*;

/// The reader's nesting limit (`json::MAX_JSON_DEPTH`).
const MAX_JSON_DEPTH: usize = 128;

/// The oracle's error: the reader's `JsonError` fields, printed the same way.
#[derive(Debug)]
struct JsonError {
    line: usize,
    col: usize,
    message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at line {}, col {}: {}", self.line, self.col, self.message)
    }
}

/// The original JSON parser: one `from_utf8` of the rest of the document
/// per string character, and a scan of every earlier key per object key.
fn parse_reference(src: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { bytes: src.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(v)
}

struct Parser<'a> {
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
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key {key:?}")));
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
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar; the source is a &str so the
                    // bytes are valid UTF-8 already.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input was a &str");
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
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

// --- Document generation ------------------------------------------------

/// SplitMix64: the documents are drawn from one `u64` proptest seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Pieces of string-literal content: plain runs in 1- to 4-byte UTF-8,
/// every escape, well-formed and broken `\u` escapes and surrogates, and
/// raw control bytes.
const STRING_PIECES: &[&str] = &[
    "a",
    "Zq 09",
    "abcdefghijklmnopqrstuvwxyz0123456789",
    "é",
    "ß\u{7ff}",
    "中文",
    "\u{ffff}",
    "😀",
    "\u{10ffff}",
    "\u{7f}",
    "\\\"",
    "\\\\",
    "\\/",
    "\\b",
    "\\f",
    "\\n",
    "\\r",
    "\\t",
    "\\u0041",
    "\\u00e9",
    "\\u4E2D",
    "\\u0000",
    "\\u001f",
    "\\ud83d\\ude00",
    "\\uD83D\\uDE00",
    "\\udbff\\udfff",
    "\\ud83d",
    "\\ud83dx",
    "\\ud83d\\u0041",
    "\\ud83d\\ud83d",
    "\\ude00",
    "\\udfff",
    "\\u12",
    "\\uZZZZ",
    "\\u+041",
    "\\u00中",
    "\\q",
    "\\",
    "\u{1}",
    "\u{1f}",
    "\t",
    "\n",
];

/// Object keys: a small pool so that random objects repeat keys, with
/// `"\u0061"` decoding to the same key as `"a"`.
const KEYS: &[&str] = &["a", "b", "\\u0061", "é", "😀", "k1", "k10", ""];

/// Scalar tokens, valid and not.
const SCALARS: &[&str] = &[
    "null", "true", "false", "0", "-0", "7", "-12.5", "0.5e-3", "1E+2", "6.02e23", "1e999", "01",
    "1.", "-", "1e", "+1", ".5", "tru", "nul", "fals", "NaN",
];

const SPACE: &[&str] = &["", "", " ", "\n", "\r\n", "\t", "  \n  "];

fn string_lit(g: &mut Gen, out: &mut String) {
    out.push('"');
    for _ in 0..g.below(8) {
        out.push_str(g.pick(STRING_PIECES));
    }
    out.push('"');
}

fn value(g: &mut Gen, depth: usize, out: &mut String) {
    let kind = if depth >= 4 { g.below(2) } else { g.below(5) };
    match kind {
        0 => out.push_str(g.pick(SCALARS)),
        1 => string_lit(g, out),
        2 | 3 => {
            out.push('[');
            for i in 0..g.below(5) {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(g.pick(SPACE));
                value(g, depth + 1, out);
                out.push_str(g.pick(SPACE));
            }
            out.push(']');
        }
        _ => {
            out.push('{');
            for i in 0..g.below(5) {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(g.pick(SPACE));
                if g.below(4) == 0 {
                    string_lit(g, out);
                } else {
                    out.push('"');
                    out.push_str(g.pick(KEYS));
                    out.push('"');
                }
                out.push_str(g.pick(SPACE));
                out.push(':');
                out.push_str(g.pick(SPACE));
                value(g, depth + 1, out);
            }
            out.push_str(g.pick(SPACE));
            out.push('}');
        }
    }
}

fn document(g: &mut Gen) -> String {
    let mut out = String::from(g.pick(SPACE));
    value(g, 0, &mut out);
    out.push_str(g.pick(SPACE));
    out
}

/// Characters a mutation inserts: structure, escapes, controls and
/// multi-byte UTF-8.
const MUTATION_CHARS: &[char] = &[
    '{', '}', '[', ']', ',', ':', '"', '\\', 'u', 'd', '8', '0', 'e', '-', '.', ' ', '\n', '\u{1}',
    'é', '中', '😀',
];

/// Apply a few random insertions, deletions and replacements, at char
/// boundaries so the result stays a valid `&str`.
fn mutate(g: &mut Gen, doc: &str) -> String {
    let mut chars: Vec<char> = doc.chars().collect();
    for _ in 0..1 + g.below(4) {
        let at = g.below(chars.len() + 1);
        let c = MUTATION_CHARS[g.below(MUTATION_CHARS.len())];
        match g.below(3) {
            0 => chars.insert(at, c),
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ if at < chars.len() => chars[at] = c,
            _ => chars.push(c),
        }
    }
    chars.into_iter().collect()
}

/// An object with `n` distinct keys, then (maybe) a repeat of key `dup`,
/// spelled with an escape half the time, then more keys.
fn keyed_object(g: &mut Gen, n: usize) -> String {
    let mut keys: Vec<String> = (0..n).map(|i| format!("k{i}")).collect();
    if n > 0 && g.below(4) != 0 {
        let dup = g.below(n);
        let spelled = if g.below(2) == 0 { format!("\\u006b{dup}") } else { format!("k{dup}") };
        keys.push(spelled);
    }
    keys.extend((0..g.below(4)).map(|i| format!("x{i}")));
    let body: Vec<String> = keys.iter().map(|k| format!("\"{k}\": {}", g.below(100))).collect();
    format!("{{{}}}", body.join(if g.below(2) == 0 { ", " } else { ",\n" }))
}

fn check(doc: &str) -> Result<(), String> {
    prop_assert_eq!(
        parse_json(doc).map_err(|e| e.to_string()),
        parse_reference(doc).map_err(|e| e.to_string()),
        "document {:?}",
        doc
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512 })]

    /// Generated documents, valid and not, parse identically.
    #[test]
    fn generated_documents_match_reference(seed in any::<u64>()) {
        let doc = document(&mut Gen(seed));
        check(&doc)?;
    }

    /// Mutated documents parse identically.
    #[test]
    fn mutated_documents_match_reference(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let doc = document(&mut g);
        check(&mutate(&mut g, &doc))?;
    }

    /// Every char-boundary prefix of a document parses identically.
    #[test]
    fn truncated_documents_match_reference(seed in any::<u64>()) {
        let doc = document(&mut Gen(seed));
        for (at, _) in doc.char_indices() {
            check(&doc[..at])?;
        }
    }

    /// Objects of up to 40 keys, with and without a repeated key, on both
    /// sides of the reader's switch from a key scan to a hash set.
    #[test]
    fn duplicate_keys_match_reference(seed in any::<u64>(), n in 0usize..40) {
        let doc = keyed_object(&mut Gen(seed), n);
        check(&doc)?;
    }
}

#[test]
fn nesting_at_the_depth_cap_matches_reference() {
    for depth in MAX_JSON_DEPTH - 2..=MAX_JSON_DEPTH + 2 {
        let arrays = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        let objects = format!("{}{{}}{}", "{\"a\": ".repeat(depth), "}".repeat(depth));
        let mixed = format!("{}\"x\"{}", "[{\"k\":".repeat(depth / 2), "}]".repeat(depth / 2));
        for doc in [arrays, objects, mixed] {
            check(&doc).unwrap();
            for cut in [1, doc.len() / 2, doc.len() - 1] {
                check(&doc[..cut]).unwrap();
            }
        }
    }
}

#[test]
fn every_escape_and_utf8_width_matches_reference() {
    for piece in STRING_PIECES {
        for doc in
            [format!("\"{piece}\""), format!("{{\"{piece}\": 1}}"), format!("[\"x{piece}y\"]")]
        {
            check(&doc).unwrap();
        }
    }
}
