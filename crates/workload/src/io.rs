//! The bit-exact `f64` hex codec and the byte codec built on it
//! ([`push_hex16`], [`push_u64`], [`Cursor`]) that the fleet event
//! trace and the serve journal both write and read their lines with.

/// Bit-exact `f64` encoding: the 16-hex-digit IEEE-754 bit pattern.
///
/// Decimal formatting is shortest-round-trip in Rust, but serialized
/// traces that must replay **bit-identically** (the fleet event trace,
/// the serve journal) encode raw bits instead, so no parser in any
/// language can reintroduce rounding. Inverse: [`f64_from_hex`].
pub fn f64_to_hex(x: f64) -> String {
    let mut out = Vec::with_capacity(16);
    push_hex16(&mut out, x.to_bits());
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Decode a [`f64_to_hex`] bit pattern; `None` for anything that is not
/// exactly 16 hex digits (either case; no sign, no prefix).
pub fn f64_from_hex(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    s.bytes()
        .try_fold(0u64, |acc, b| {
            Some(acc << 4 | hex_digit(b.to_ascii_lowercase())?)
        })
        .map(f64::from_bits)
}

// ---------------------------------------------------------------------
// The byte codec behind the line formats (fleet trace, serve journal).
//
// Encoders append to a `Vec<u8>` without going through `fmt`; the
// `Cursor` reads back exactly what they write — lowercase 16-digit hex,
// canonical decimals — and declines anything else, so a caller can try
// it first and fall back to a general parser on `None`. The per-field
// functions are `#[inline]`: their callers live in other crates, and
// without link-time optimisation a call per field would cost more than
// the field.

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// `"00" ..= "ff"`: the two lowercase hex digits of every byte.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let mut table = [[0u8; 2]; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = [HEX_DIGITS[i >> 4], HEX_DIGITS[i & 0xf]];
        i += 1;
    }
    table
};

/// `"00" ..= "99"`: the two decimal digits of every number below 100.
const DEC_PAIRS: [[u8; 2]; 100] = {
    let mut table = [[0u8; 2]; 100];
    let mut i = 0;
    while i < 100 {
        table[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    table
};

/// The value of every lowercase hex digit; `NOT_HEX` for any other byte.
const HEX_VALUES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// A bit no hex digit's value has.
const NOT_HEX: u8 = 0x10;

/// The value of a lowercase hex digit; `None` for any other byte.
fn hex_digit(b: u8) -> Option<u64> {
    let v = HEX_VALUES[usize::from(b)];
    (v & NOT_HEX == 0).then_some(u64::from(v))
}

/// Append `x` as exactly 16 lowercase hex digits (`{:016x}`).
#[inline]
pub fn push_hex16(out: &mut Vec<u8>, x: u64) {
    let mut digits = [0u8; 16];
    for (pair, byte) in digits.chunks_exact_mut(2).zip(x.to_be_bytes()) {
        pair.copy_from_slice(&HEX_PAIRS[usize::from(byte)]);
    }
    out.extend_from_slice(&digits);
}

/// Append `x` in decimal, without leading zeros (`{}`).
#[inline]
pub fn push_u64(out: &mut Vec<u8>, mut x: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while x >= 100 {
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DEC_PAIRS[(x % 100) as usize]);
        x /= 100;
    }
    if x >= 10 {
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DEC_PAIRS[x as usize]);
    } else {
        at -= 1;
        digits[at] = b'0' + x as u8;
    }
    out.extend_from_slice(&digits[at..]);
}

/// A cursor over encoded bytes (a line, or a text of lines). Every read
/// accepts only what the encoders above write; on anything else it
/// returns `None` and leaves the cursor where it was, so a caller can
/// try one tag, then another.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { rest: bytes }
    }

    /// Consume the literal `tag`.
    #[inline]
    pub fn tag(&mut self, tag: &[u8]) -> Option<()> {
        self.rest = self.rest.strip_prefix(tag)?;
        Some(())
    }

    /// Consume exactly 16 lowercase hex digits ([`push_hex16`]).
    #[inline]
    pub fn hex16(&mut self) -> Option<u64> {
        let (digits, rest) = self.rest.split_first_chunk::<16>()?;
        // Branch-free over the 16 digits; one check of the marks at the end.
        let mut x = 0u64;
        let mut marks = 0u8;
        for &b in digits {
            let v = HEX_VALUES[usize::from(b)];
            marks |= v;
            x = x << 4 | u64::from(v);
        }
        if marks & NOT_HEX != 0 {
            return None;
        }
        self.rest = rest;
        Some(x)
    }

    /// Consume a canonical decimal ([`push_u64`]: no sign, no leading
    /// zeros) no greater than `max`.
    #[inline]
    pub fn u64_dec(&mut self, max: u64) -> Option<u64> {
        let mut x = 0u64;
        let mut len = 0;
        while let Some(&b) = self.rest.get(len) {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            x = x.checked_mul(10)?.checked_add(u64::from(d))?;
            len += 1;
        }
        if len == 0 || (len > 1 && self.rest[0] == b'0') || x > max {
            return None;
        }
        self.rest = &self.rest[len..];
        Some(x)
    }

    /// The bytes not yet consumed.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// `Some` once every byte has been consumed.
    #[inline]
    pub fn end(self) -> Option<()> {
        self.rest.is_empty().then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_codec_is_bit_exact() {
        for &x in &[
            0.0,
            -0.0,
            1.0,
            0.1 + 0.2, // not representable as a short decimal
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::NEG_INFINITY,
            1e-308 / 7.0, // subnormal
        ] {
            let hex = f64_to_hex(x);
            assert_eq!(hex.len(), 16);
            let back = f64_from_hex(&hex).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {hex}");
        }
        // NaN round-trips its payload bits too.
        let nan_hex = f64_to_hex(f64::NAN);
        assert_eq!(
            f64_from_hex(&nan_hex).unwrap().to_bits(),
            f64::NAN.to_bits()
        );
    }

    #[test]
    fn hex_codec_rejects_malformed() {
        assert_eq!(f64_from_hex(""), None);
        assert_eq!(f64_from_hex("3ff"), None);
        assert_eq!(f64_from_hex("3ff0000000000000ff"), None);
        assert_eq!(f64_from_hex("zzzzzzzzzzzzzzzz"), None);
        assert_eq!(f64_from_hex("+ff0000000000000"), None);
        assert_eq!(f64_from_hex("-ff0000000000000"), None);
        assert_eq!(f64_from_hex(" 3ff000000000000"), None);
        // Uppercase is still a bit pattern.
        assert_eq!(f64_from_hex("3FF0000000000000"), Some(1.0));
    }

    #[test]
    fn encoders_match_the_formatter() {
        let mut words = vec![0, 1, 9, 10, 99, 100, 101, 999, 1000, u64::MAX, u64::MAX - 1];
        words.extend((0..20).map(|k| 10u64.pow(k)));
        words.extend((1..20).map(|k| 10u64.pow(k) - 1));
        let mut state = 0x5eed_u64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            words.push(state >> (state % 64));
        }
        for x in words {
            let mut out = Vec::new();
            push_hex16(&mut out, x);
            out.push(b' ');
            push_u64(&mut out, x);
            assert_eq!(out, format!("{x:016x} {x}").into_bytes());
            let mut c = Cursor::new(&out);
            assert_eq!(c.hex16(), Some(x));
            assert_eq!(c.tag(b" "), Some(()));
            assert_eq!(c.u64_dec(u64::MAX), Some(x));
            assert_eq!(c.end(), Some(()));
        }
    }

    #[test]
    fn cursor_declines_everything_but_the_encoded_forms() {
        let dec = |s: &str, max: u64| {
            let mut c = Cursor::new(s.as_bytes());
            c.u64_dec(max).filter(|_| c.end().is_some())
        };
        assert_eq!(dec("0", 0), Some(0));
        assert_eq!(dec("18446744073709551615", u64::MAX), Some(u64::MAX));
        for bad in [
            "",
            "00",
            "01",
            "+1",
            "-1",
            " 1",
            "1 ",
            "18446744073709551616",
        ] {
            assert_eq!(dec(bad, u64::MAX), None, "{bad:?}");
        }
        // Overflow is declined, never wrapped: 2^64 + 1 and a 40-digit
        // run would wrap to small values.
        assert_eq!(dec("18446744073709551617", u64::MAX), None);
        assert_eq!(dec(&"9".repeat(40), u64::MAX), None);
        assert_eq!(dec("4294967296", u32::MAX.into()), None);
        let hex = |s: &str| {
            let mut c = Cursor::new(s.as_bytes());
            c.hex16().filter(|_| c.end().is_some())
        };
        assert_eq!(hex("3ff0000000000000"), Some(1f64.to_bits()));
        for bad in [
            "3FF0000000000000",
            "+ff0000000000000",
            "3ff000000000000",
            "3ff0000000000000 ",
            "3ff000000000000g",
        ] {
            assert_eq!(hex(bad), None, "{bad:?}");
        }
        let mut c = Cursor::new(b"ev 1");
        assert_eq!(c.tag(b"ev  "), None);
        assert_eq!(c.tag(b"ev "), Some(()));
        assert_eq!(c.end(), None);
    }
}
