//! Checksummed on-disk framing for checkpoint payloads.
//!
//! A checkpoint on a volunteer host must assume the storage under it
//! lies: torn renames and power-cut truncation produce files that
//! *exist* and *open* but hold garbage. The frame makes corruption
//! detectable before any parser runs:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "BCEFRAME"
//! 8       4     frame version (u32 LE), currently 1
//! 12      8     payload length (u64 LE)
//! 20      8     CRC-64/XZ over the payload (u64 LE)
//! 28      n     payload (opaque bytes — XML checkpoint text today)
//! ```
//!
//! The payload is opaque bytes, so the f64 bit-pattern discipline of the
//! inner codec (`fmt_f64_bits`) is untouched. CRC-64/XZ was chosen over
//! CRC-32 because checkpoints grow with campaign size (a 100k-run
//! campaign bitmap is ~12 kB and full emulation states are far larger);
//! a 32-bit check leaves a non-negligible collision chance across the
//! many generations × campaigns a long-lived service writes, while
//! CRC-64 keeps undetected-corruption odds negligible and still hashes
//! at memory speed with a 256-entry table. Cryptographic hashes would
//! buy tamper resistance we don't need at 4× the cost.
//!
//! A buffer not starting with `BCEFRAME` yields
//! [`FrameError::NotFramed`]; readers reject it like any other corrupt
//! file (checkpoints written before framing no longer load).

/// Frame magic. Eight bytes so the version/length fields stay aligned
/// and an accidental XML payload (`<bce_...`) can never collide.
pub(crate) const FRAME_MAGIC: [u8; 8] = *b"BCEFRAME";

/// Current frame version.
pub(crate) const FRAME_VERSION: u32 = 1;

/// Fixed header size in bytes.
pub(crate) const FRAME_HEADER_LEN: usize = 28;

/// Why a buffer failed to decode as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FrameError {
    /// The buffer does not begin with [`FRAME_MAGIC`] — an unframed
    /// pre-framing checkpoint or not a checkpoint at all.
    NotFramed,
    /// Framed, but with a version this build does not understand.
    UnsupportedVersion { found: u32, max: u32 },
    /// Framed, but shorter than the header or the declared payload —
    /// the signature of power-cut truncation or a torn rename.
    Truncated { expected: usize, found: usize },
    /// Payload bytes after the declared length — the file was appended
    /// to or spliced; refuse rather than guess.
    TrailingBytes { expected: usize, found: usize },
    /// The payload CRC does not match the header — bit rot or a partial
    /// overwrite.
    CrcMismatch { expected: u64, found: u64 },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::NotFramed => write!(f, "buffer is not a checksummed frame"),
            FrameError::UnsupportedVersion { found, max } => {
                write!(f, "frame version {found} is newer than supported {max}")
            }
            FrameError::Truncated { expected, found } => {
                write!(f, "frame truncated: expected {expected} bytes, found {found}")
            }
            FrameError::TrailingBytes { expected, found } => {
                write!(f, "frame has trailing bytes: expected {expected} bytes, found {found}")
            }
            FrameError::CrcMismatch { expected, found } => {
                write!(f, "frame CRC mismatch: header {expected:#018x}, payload {found:#018x}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// CRC-64/XZ (reflected, poly 0xC96C5795D7870F42, init/xorout all-ones),
/// the variant used by xz-utils — table-driven, one byte per step.
pub(crate) fn crc64(bytes: &[u8]) -> u64 {
    const TABLE: [u64; 256] = crc64_table();
    let mut crc = !0u64;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

const fn crc64_table() -> [u64; 256] {
    // Reflected form of the ECMA-182 polynomial 0x42F0E1EBA9EA3693.
    const POLY: u64 = 0xC96C_5795_D787_0F42;
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Wrap `payload` in a checksummed frame.
pub(crate) fn encode(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&FRAME_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate a frame and return its payload slice.
///
/// Every failure mode is typed: callers distinguish "legacy file"
/// ([`FrameError::NotFramed`]) from "corrupt generation" (everything
/// else), because the first is loadable and the second triggers
/// fallback to an older generation.
pub(crate) fn decode(buf: &[u8]) -> Result<&[u8], FrameError> {
    if buf.len() < FRAME_MAGIC.len() || buf[..FRAME_MAGIC.len()] != FRAME_MAGIC {
        // A truncated prefix of the magic itself is indistinguishable
        // from "some other file"; NotFramed is the safe answer for both
        // (the store treats an unparseable legacy sniff as corrupt).
        return Err(FrameError::NotFramed);
    }
    if buf.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Truncated { expected: FRAME_HEADER_LEN, found: buf.len() });
    }
    let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    if version == 0 || version > FRAME_VERSION {
        return Err(FrameError::UnsupportedVersion { found: version, max: FRAME_VERSION });
    }
    let len = u64::from_le_bytes(buf[12..20].try_into().unwrap());
    let expected_total = (FRAME_HEADER_LEN as u64).saturating_add(len);
    if (buf.len() as u64) < expected_total {
        return Err(FrameError::Truncated {
            expected: expected_total.min(usize::MAX as u64) as usize,
            found: buf.len(),
        });
    }
    if (buf.len() as u64) > expected_total {
        return Err(FrameError::TrailingBytes {
            expected: expected_total as usize,
            found: buf.len(),
        });
    }
    let payload = &buf[FRAME_HEADER_LEN..];
    let expected_crc = u64::from_le_bytes(buf[20..28].try_into().unwrap());
    let found_crc = crc64(payload);
    if found_crc != expected_crc {
        return Err(FrameError::CrcMismatch { expected: expected_crc, found: found_crc });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_matches_known_vectors() {
        // CRC-64/XZ check value from the catalogue of parametrised CRCs.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn roundtrip() {
        for payload in [&b""[..], b"x", b"<bce_checkpoint version=\"2\"/>", &[0u8; 4096][..]] {
            let framed = encode(payload);
            assert_eq!(decode(&framed).unwrap(), payload);
        }
    }

    #[test]
    fn legacy_xml_is_not_framed() {
        assert_eq!(decode(b"<bce_checkpoint version=\"2\"/>"), Err(FrameError::NotFramed));
        assert_eq!(decode(b""), Err(FrameError::NotFramed));
        assert_eq!(decode(b"BCEFRA"), Err(FrameError::NotFramed));
    }

    #[test]
    fn truncation_is_detected_at_every_cut() {
        let framed = encode(b"the quick brown fox jumps over the lazy dog");
        for cut in 0..framed.len() {
            let err = decode(&framed[..cut]).unwrap_err();
            assert!(
                matches!(err, FrameError::NotFramed | FrameError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn single_bit_flips_are_detected() {
        let framed = encode(b"payload under test, long enough to matter");
        for byte in 0..framed.len() {
            let mut bad = framed.clone();
            bad[byte] ^= 0x01;
            assert!(decode(&bad).is_err(), "flip at byte {byte} went undetected");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut framed = encode(b"abc");
        framed.push(0);
        assert!(matches!(decode(&framed), Err(FrameError::TrailingBytes { .. })));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut framed = encode(b"abc");
        framed[8..12].copy_from_slice(&(FRAME_VERSION + 1).to_le_bytes());
        assert!(matches!(decode(&framed), Err(FrameError::UnsupportedVersion { .. })));
    }
}
