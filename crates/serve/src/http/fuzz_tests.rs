//! Hostile-input fuzzing for the HTTP layer: whatever bytes arrive, the
//! parser returns a typed error or a request — it never panics, never
//! over-reads, and never accepts an oversized body.

use super::{read_request, HttpError};
use proptest::prelude::*;

const VALID: &str = "POST /run?scenario=scenario2 HTTP/1.1\r\n\
                     Host: t\r\nContent-Length: 5\r\n\r\nhello";

fn byte_strategy() -> impl Strategy<Value = u8> {
    // Weighted toward HTTP-structural bytes so the fuzz reaches deep
    // parser states instead of failing on byte 0 every time.
    prop_oneof![
        Just(b'\r'),
        Just(b'\n'),
        Just(b' '),
        Just(b':'),
        Just(b'/'),
        Just(b'G'),
        Just(b'P'),
        Just(b'T'),
        Just(b'H'),
        Just(b'1'),
        Just(b'.'),
        any::<u8>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512 })]

    /// Arbitrary byte soup: typed outcome, no panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(byte_strategy(), 0..2048)) {
        let mut cursor = bytes.as_slice();
        let _ = read_request(&mut cursor, 1 << 16);
    }

    /// Every truncation point of a valid request yields a typed error
    /// (or, past the body start, possibly a short body error) — never a
    /// panic, never a phantom success with the wrong body.
    #[test]
    fn truncations_of_a_valid_request_are_typed(cut in 0usize..44) {
        let raw = &VALID.as_bytes()[..cut.min(VALID.len() - 1)];
        let mut cursor = raw;
        match read_request(&mut cursor, 1 << 16) {
            Ok(req) => prop_assert!(false, "truncated request parsed: {req:?}"),
            Err(e) => {
                let code = e.status();
                prop_assert!((400..=599).contains(&code), "status {code} for {e}");
            }
        }
    }

    /// Declared Content-Length over the cap is refused up front with the
    /// typed 413, no matter what the rest of the request looks like.
    #[test]
    fn oversized_declared_bodies_are_rejected(extra in 1u64..u64::MAX / 2, cap in 1usize..1 << 20) {
        let declared = cap as u64 + extra.min(1 << 40);
        let raw = format!("POST /run HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n");
        let mut cursor = raw.as_bytes();
        let got = read_request(&mut cursor, cap);
        prop_assert_eq!(got, Err(HttpError::BodyTooLarge { limit: cap }));
    }

    /// Bodies shorter than their declared length are truncation errors,
    /// not hangs or panics.
    #[test]
    fn short_bodies_are_truncation_errors(missing in 1usize..5) {
        let raw = &VALID.as_bytes()[..VALID.len() - missing];
        let mut cursor = raw;
        match read_request(&mut cursor, 1 << 16) {
            Err(HttpError::Truncated(_)) => {}
            other => prop_assert!(false, "expected Truncated, got {other:?}"),
        }
    }
}
