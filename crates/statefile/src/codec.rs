//! Shared helpers for BCE's versioned XML state formats.
//!
//! Both the client-state document ([`crate::doc`]) and the campaign
//! checkpoint format (`bce-controller`) are XML documents built on the
//! subset parser in [`crate::xml`]. This module factors out what every
//! such format needs:
//!
//! * a **versioned envelope** — a root element carrying a `version`
//!   attribute, rejected cleanly when the document is a different format
//!   or written by a newer build, and
//! * **bit-exact `f64` round-tripping** — values are stored as the hex of
//!   their IEEE-754 bit pattern, because checkpoints feed a bit-for-bit
//!   determinism contract and decimal formatting is lossy for that.
//!
//! Every failure path returns a [`CodecError`]; malformed, truncated or
//! hostile input must never panic.

use crate::xml::{parse, XmlError, XmlNode};

/// Error from decoding a versioned state document.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The document is not well-formed XML (includes truncation).
    Xml(XmlError),
    /// The root element is a different format.
    WrongRoot { expected: String, found: String },
    /// The `version` attribute is missing or unparsable.
    BadVersion(String),
    /// Written by a newer build than this reader understands.
    UnsupportedVersion { found: u32, max: u32 },
    /// A required element, attribute or value is missing or malformed.
    Field(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Xml(e) => write!(f, "{e}"),
            CodecError::WrongRoot { expected, found } => {
                write!(f, "expected <{expected}> document, found <{found}>")
            }
            CodecError::BadVersion(m) => write!(f, "bad version attribute: {m}"),
            CodecError::UnsupportedVersion { found, max } => {
                write!(f, "document version {found} is newer than supported version {max}")
            }
            CodecError::Field(m) => write!(f, "{m}"),
        }
    }
}
impl std::error::Error for CodecError {}

impl From<XmlError> for CodecError {
    fn from(e: XmlError) -> Self {
        CodecError::Xml(e)
    }
}

/// Build an envelope root: `<name version="N">`.
pub fn envelope(name: &str, version: u32) -> XmlNode {
    let mut n = XmlNode::new(name);
    n.attrs.push(("version".into(), version.to_string()));
    n
}

/// Parse a document and check it is a `<name version="v">` envelope with
/// `1 <= v <= max_version`. Returns the version and the root element.
pub fn open_envelope(
    src: &str,
    name: &str,
    max_version: u32,
) -> Result<(u32, XmlNode), CodecError> {
    let root = parse(src)?;
    if root.name != name {
        return Err(CodecError::WrongRoot { expected: name.into(), found: root.name });
    }
    let raw = root
        .attr("version")
        .ok_or_else(|| CodecError::BadVersion("missing version attribute".into()))?;
    let v: u32 = raw.parse().map_err(|_| CodecError::BadVersion(format!("{raw:?}")))?;
    if v == 0 {
        return Err(CodecError::BadVersion("version 0".into()));
    }
    if v > max_version {
        return Err(CodecError::UnsupportedVersion { found: v, max: max_version });
    }
    Ok((v, root))
}

/// Format an `f64` as the hex of its IEEE-754 bit pattern. Round-trips
/// bit-exactly through [`parse_f64_bits`], including NaN payloads,
/// infinities and signed zero.
pub fn fmt_f64_bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Inverse of [`fmt_f64_bits`].
pub fn parse_f64_bits(s: &str) -> Result<f64, CodecError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| CodecError::Field(format!("bad f64 bit pattern {s:?}")))
}

/// Format a `u64` as hex (used for RNG words).
pub fn fmt_u64_hex(x: u64) -> String {
    format!("{x:016x}")
}

/// Inverse of [`fmt_u64_hex`].
pub fn parse_u64_hex(s: &str) -> Result<u64, CodecError> {
    u64::from_str_radix(s, 16).map_err(|_| CodecError::Field(format!("bad u64 hex {s:?}")))
}

/// Required attribute, as a string.
pub fn req_attr<'a>(n: &'a XmlNode, name: &str) -> Result<&'a str, CodecError> {
    n.attr(name).ok_or_else(|| CodecError::Field(format!("<{}> missing attribute {name}", n.name)))
}

/// Required attribute parsed with `FromStr` (decimal integers, bools…).
pub fn attr_parse<T: std::str::FromStr>(n: &XmlNode, name: &str) -> Result<T, CodecError> {
    let raw = req_attr(n, name)?;
    raw.parse().map_err(|_| {
        CodecError::Field(format!("<{}> attribute {name}={raw:?} is malformed", n.name))
    })
}

/// Required child element.
pub fn req_child<'a>(n: &'a XmlNode, name: &str) -> Result<&'a XmlNode, CodecError> {
    n.child(name).ok_or_else(|| CodecError::Field(format!("<{}> missing child <{name}>", n.name)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn f64_bits_roundtrip_specials() {
        for x in [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, 1e308] {
            let back = parse_f64_bits(&fmt_f64_bits(x)).unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        assert_eq!(parse_f64_bits(&fmt_f64_bits(nan)).unwrap().to_bits(), nan.to_bits());
    }

    #[test]
    fn envelope_roundtrip() {
        let mut root = envelope("bce_checkpoint", 3);
        root.push(XmlNode::with_text("payload", "x"));
        let (v, back) = open_envelope(&root.render(), "bce_checkpoint", 3).unwrap();
        assert_eq!(v, 3);
        assert_eq!(back.child_text("payload"), Some("x"));
    }

    #[test]
    fn envelope_rejections() {
        let doc = envelope("bce_checkpoint", 2).render();
        assert!(matches!(
            open_envelope(&doc, "client_state", 2),
            Err(CodecError::WrongRoot { .. })
        ));
        assert!(matches!(
            open_envelope(&doc, "bce_checkpoint", 1),
            Err(CodecError::UnsupportedVersion { found: 2, max: 1 })
        ));
        assert!(matches!(
            open_envelope("<bce_checkpoint/>", "bce_checkpoint", 1),
            Err(CodecError::BadVersion(_))
        ));
        assert!(matches!(
            open_envelope("<bce_checkpoint version=\"zero\"/>", "bce_checkpoint", 1),
            Err(CodecError::BadVersion(_))
        ));
        assert!(matches!(
            open_envelope("<bce_checkpoint version=\"0\"/>", "bce_checkpoint", 1),
            Err(CodecError::BadVersion(_))
        ));
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let doc = envelope("bce_checkpoint", 1).render();
        for cut in 0..doc.len() {
            // Any prefix must yield Err or (for the trivial empty-ish
            // prefixes) never a panic.
            let _ = open_envelope(&doc[..cut], "bce_checkpoint", 1);
        }
        assert!(open_envelope("", "bce_checkpoint", 1).is_err());
        assert!(open_envelope("<bce_checkpoint version=\"1\">", "bce_checkpoint", 1).is_err());
    }

    #[test]
    fn field_helpers_error_on_missing() {
        let n = XmlNode::new("x");
        assert!(req_attr(&n, "a").is_err());
        assert!(req_child(&n, "c").is_err());
        assert!(attr_parse::<u64>(&n, "a").is_err());
    }

    proptest! {
        #[test]
        fn f64_bits_roundtrip_any(bits in proptest::prelude::any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assert_eq!(parse_f64_bits(&fmt_f64_bits(x)).unwrap().to_bits(), bits);
        }

        #[test]
        fn u64_hex_roundtrip(x in proptest::prelude::any::<u64>()) {
            prop_assert_eq!(parse_u64_hex(&fmt_u64_hex(x)).unwrap(), x);
        }
    }
}
