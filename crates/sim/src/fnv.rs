//! FNV-1a 64-bit: the workspace's one digest hasher.
//!
//! Journal scenario digests, engine outcome digests, and fleet digests
//! all fold through this type, so every digest in the workspace shares
//! one byte-level definition. Integers hash as their little-endian
//! bytes and floats as their IEEE-754 bit patterns, so a digest is a
//! function of exact bits, never of formatting. Text is hashed as its
//! bytes through [`Fnv::bytes`]; the fleet trace folds its canonical
//! encoding in fixed-size chunks rather than building the whole text.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(OFFSET_BASIS)
    }

    /// Fold raw bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Fold an integer as its 8 little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a float as its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn words_hash_as_little_endian_bytes() {
        let mut a = Fnv::new();
        a.u64(0x0102_0304_0506_0708);
        a.f64(1.5);
        let mut b = Fnv::new();
        b.bytes(&[8, 7, 6, 5, 4, 3, 2, 1]);
        b.bytes(&1.5f64.to_bits().to_le_bytes());
        assert_eq!(a, b);
    }
}
