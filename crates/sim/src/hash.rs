//! FNV-1a (64-bit), the one hash behind every determinism fingerprint:
//! emulation results, campaign identities and rendered tables. Stored
//! fingerprints (campaign checkpoints, the golden corpus) depend on its
//! exact output, so the constants and byte order here are frozen.

/// Incremental FNV-1a hasher. Integers and floats are fed as their
/// little-endian bytes (floats by bit pattern), so equal values hash
/// equally on every platform.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    #[inline]
    pub const fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    #[inline]
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// A length-prefixed string, so adjacent strings cannot alias.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of a byte string in one call.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv64::new();
        h.bytes(b"foo");
        h.bytes(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
        let mut h = Fnv64::new();
        h.u64(7);
        assert_eq!(h.finish(), fnv64(&7u64.to_le_bytes()));
    }
}
