//! A minimal XML subset, sufficient for BOINC-style `client_state.xml`
//! documents: nested elements, attributes, text content, comments, XML
//! declarations, and the five predefined entities. No namespaces, CDATA,
//! processing instructions or DTDs — BOINC state files use none of them.
//!
//! Implemented from scratch so the ingest path (volunteers paste their
//! state files into a web form, §4.3) has no external dependencies and
//! can give precise line-numbered errors.

use std::fmt::Write as _;

/// A parsed element.
#[derive(Debug, Clone, PartialEq)]
pub struct XmlNode {
    pub(crate) name: String,
    pub attrs: Vec<(String, String)>,
    pub children: Vec<XmlNode>,
    /// Concatenated text content directly inside this element (trimmed).
    pub text: String,
}

impl XmlNode {
    pub fn new(name: impl Into<String>) -> Self {
        XmlNode { name: name.into(), attrs: Vec::new(), children: Vec::new(), text: String::new() }
    }

    pub fn with_text(name: impl Into<String>, text: impl Into<String>) -> Self {
        let mut n = XmlNode::new(name);
        n.text = text.into();
        n
    }

    pub fn push(&mut self, child: XmlNode) -> &mut Self {
        self.children.push(child);
        self
    }

    /// First child element with the given name.
    pub(crate) fn child(&self, name: &str) -> Option<&XmlNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All child elements with the given name.
    pub(crate) fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlNode> {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// Text of the named child, if present.
    pub(crate) fn child_text(&self, name: &str) -> Option<&str> {
        self.child(name).map(|c| c.text.as_str())
    }

    /// Parse the named child's text as `T`.
    pub(crate) fn child_parse<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.child_text(name).and_then(|t| t.parse().ok())
    }

    pub(crate) fn attr(&self, name: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Serialize with 2-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        let _ = write!(out, "{pad}<{}", self.name);
        for (k, v) in &self.attrs {
            let _ = write!(out, " {k}=\"{}\"", escape(v));
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>\n");
        } else if self.children.is_empty() {
            let _ = writeln!(out, ">{}</{}>", escape(&self.text), self.name);
        } else {
            out.push_str(">\n");
            if !self.text.is_empty() {
                let _ = writeln!(out, "{pad}  {}", escape(&self.text));
            }
            for c in &self.children {
                c.render_into(out, depth + 1);
            }
            let _ = writeln!(out, "{pad}</{}>", self.name);
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

/// Deepest element nesting the parser accepts. Real `client_state.xml`
/// files are ~4 levels deep; the cap exists so a hostile document of the
/// form `<a><a><a>…` gets a typed, line-numbered error instead of
/// overflowing the stack of the recursive-descent parser — a stack
/// overflow aborts the process and cannot be caught, so on an untrusted
/// ingest path (the daemon's POST bodies) it would be a one-request
/// denial of service.
pub(crate) const MAX_NESTING_DEPTH: usize = 128;

/// Parse error with 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct XmlError {
    pub(crate) line: usize,
    pub(crate) message: String,
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XML error at line {}: {}", self.line, self.message)
    }
}
impl std::error::Error for XmlError {}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, XmlError> {
        Err(XmlError { line: self.line, message: msg.into() })
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }

    fn consume(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in 0..s.len() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                while !self.consume("?>") {
                    if self.bump().is_none() {
                        return self.err("unterminated declaration");
                    }
                }
            } else if self.starts_with("<!--") {
                while !self.consume("-->") {
                    if self.bump().is_none() {
                        return self.err("unterminated comment");
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.bump();
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected name");
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn attr_value(&mut self) -> Result<String, XmlError> {
        let quote = match self.bump() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return self.err("expected quoted attribute value"),
        };
        let mut raw = Vec::new();
        loop {
            match self.bump() {
                Some(c) if c == quote => break,
                Some(c) => raw.push(c),
                None => return self.err("unterminated attribute value"),
            }
        }
        self.unescape(&raw)
    }

    fn unescape(&self, raw: &[u8]) -> Result<String, XmlError> {
        let s = String::from_utf8_lossy(raw);
        if !s.contains('&') {
            return Ok(s.into_owned());
        }
        let mut out = String::with_capacity(s.len());
        let mut rest = s.as_ref();
        while let Some(i) = rest.find('&') {
            out.push_str(&rest[..i]);
            rest = &rest[i..];
            let semi = match rest.find(';') {
                Some(j) if j <= 6 => j,
                _ => return Err(XmlError { line: self.line, message: "bad entity".into() }),
            };
            match &rest[1..semi] {
                "amp" => out.push('&'),
                "lt" => out.push('<'),
                "gt" => out.push('>'),
                "quot" => out.push('"'),
                "apos" => out.push('\''),
                e => {
                    return Err(XmlError {
                        line: self.line,
                        message: format!("unknown entity &{e};"),
                    })
                }
            }
            rest = &rest[semi + 1..];
        }
        out.push_str(rest);
        Ok(out)
    }

    fn element(&mut self, depth: usize) -> Result<XmlNode, XmlError> {
        if depth > MAX_NESTING_DEPTH {
            return self.err(format!("element nesting deeper than {MAX_NESTING_DEPTH} levels"));
        }
        if !self.consume("<") {
            return self.err("expected '<'");
        }
        let name = self.name()?;
        let mut node = XmlNode::new(name);
        // attributes
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.bump();
                    if !self.consume(">") {
                        return self.err("expected '>' after '/'");
                    }
                    return Ok(node);
                }
                Some(b'>') => {
                    self.bump();
                    break;
                }
                Some(_) => {
                    let k = self.name()?;
                    self.skip_ws();
                    if !self.consume("=") {
                        return self.err(format!("expected '=' after attribute {k}"));
                    }
                    self.skip_ws();
                    let v = self.attr_value()?;
                    node.attrs.push((k, v));
                }
                None => return self.err("unexpected end of input in tag"),
            }
        }
        // content
        let mut text_raw: Vec<u8> = Vec::new();
        loop {
            if self.starts_with("<!--") {
                while !self.consume("-->") {
                    if self.bump().is_none() {
                        return self.err("unterminated comment");
                    }
                }
            } else if self.starts_with("</") {
                self.consume("</");
                let close = self.name()?;
                if close != node.name {
                    return self
                        .err(format!("mismatched close tag </{close}> for <{}>", node.name));
                }
                self.skip_ws();
                if !self.consume(">") {
                    return self.err("expected '>' in close tag");
                }
                node.text = self.unescape(&text_raw)?.trim().to_string();
                return Ok(node);
            } else if self.starts_with("<") {
                node.children.push(self.element(depth + 1)?);
            } else {
                match self.bump() {
                    Some(c) => text_raw.push(c),
                    None => return self.err(format!("unexpected end of input in <{}>", node.name)),
                }
            }
        }
    }
}

/// Parse a document; returns its single root element.
pub(crate) fn parse(src: &str) -> Result<XmlNode, XmlError> {
    let mut p = Parser { src: src.as_bytes(), pos: 0, line: 1 };
    p.skip_misc()?;
    let root = p.element(0)?;
    p.skip_misc()?;
    if p.pos != p.src.len() {
        return p.err("trailing content after root element");
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let n = parse("<a><b>1</b><c x=\"y\">text</c></a>").unwrap();
        assert_eq!(n.name, "a");
        assert_eq!(n.child_text("b"), Some("1"));
        assert_eq!(n.child("c").unwrap().attr("x"), Some("y"));
        assert_eq!(n.child("c").unwrap().text, "text");
        assert_eq!(n.child_parse::<i32>("b"), Some(1));
    }

    #[test]
    fn parse_with_decl_and_comments() {
        let n = parse("<?xml version=\"1.0\"?>\n<!-- hi -->\n<r><!-- inner --><x/></r>").unwrap();
        assert_eq!(n.name, "r");
        assert!(n.child("x").is_some());
    }

    #[test]
    fn self_closing_and_repeats() {
        let n = parse("<r><p/><p/><p/></r>").unwrap();
        assert_eq!(n.children_named("p").count(), 3);
    }

    #[test]
    fn entities_roundtrip() {
        let n = parse("<r>a &amp; b &lt;c&gt; &quot;d&quot; &apos;e&apos;</r>").unwrap();
        assert_eq!(n.text, "a & b <c> \"d\" 'e'");
        let rendered = XmlNode::with_text("r", n.text.clone()).render();
        let re = parse(&rendered).unwrap();
        assert_eq!(re.text, n.text);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("<a>\n<b>\n</c>\n</a>").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn hostile_nesting_is_a_typed_error_not_a_stack_overflow() {
        // A stack overflow would abort the process (uncatchable), so the
        // depth cap is load-bearing for the daemon's untrusted ingest.
        let deep = "<a>".repeat(100_000);
        let e = parse(&deep).unwrap_err();
        assert!(e.message.contains("nesting deeper"), "{e}");

        // At the cap itself (root is depth 0), documents still parse.
        let n = MAX_NESTING_DEPTH;
        let ok = format!("{}{}", "<a>".repeat(n + 1), "</a>".repeat(n + 1));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "<a>".repeat(n + 2), "</a>".repeat(n + 2));
        assert!(parse(&over).is_err());
    }

    #[test]
    fn rejects_trailing_content() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn rejects_unknown_entity() {
        assert!(parse("<a>&nbsp;</a>").is_err());
    }

    #[test]
    fn rejects_unterminated() {
        assert!(parse("<a><b></a>").is_err());
        assert!(parse("<a").is_err());
        assert!(parse("<!-- never closed").is_err());
    }

    #[test]
    fn render_parse_roundtrip() {
        let mut root = XmlNode::new("client_state");
        root.push(XmlNode::with_text("version", "7.16"));
        let mut proj = XmlNode::new("project");
        proj.attrs.push(("url".into(), "https://a.example/?q=1&r=2".into()));
        proj.push(XmlNode::with_text("share", "100"));
        root.push(proj);
        let text = root.render();
        let back = parse(&text).unwrap();
        assert_eq!(back, root);
    }

    #[test]
    fn whitespace_tolerant_attrs() {
        let n = parse("<a  k = \"v\"   j='w' />").unwrap();
        assert_eq!(n.attr("k"), Some("v"));
        assert_eq!(n.attr("j"), Some("w"));
    }
}
