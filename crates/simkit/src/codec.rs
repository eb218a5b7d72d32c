//! A small binary serialization data model.
//!
//! This is the workspace's one binary codec: little-endian and
//! length-prefixed, with an exact round-trip guarantee. Floating-point
//! values travel as raw IEEE-754 bits (`to_bits`/`from_bits`), so
//! `encode → decode` reproduces every value — including NaN payloads and
//! signed zeros — bit for bit. That exactness is what lets
//! [`store`](crate::store) promise that a result served from disk is
//! indistinguishable from recomputing it.
//!
//! The data model is deliberately minimal and self-describing only at the
//! container level (every string, vector and byte blob carries a `u64`
//! length prefix; `Option` carries a one-byte discriminant). There is no
//! schema evolution: readers must know the exact type they wrote, and the
//! store layered on top enforces that with a type tag plus a model-code
//! hash over the source tree.

/// Error produced by [`Decode`] implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What the decoder was trying to read.
    pub what: &'static str,
    /// Byte offset in the input where the failure occurred.
    pub at: usize,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over an encoded byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError { what, at: self.pos });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], DecodeError> {
        let bytes = self.take(N, what)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }
}

/// Types that can write themselves into a byte buffer.
pub trait Encode {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// Types that can reconstruct themselves from a [`Reader`].
pub trait Decode: Sized {
    /// Read one value, advancing the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Encode `value` into a fresh buffer.
pub fn encode_to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decode one `T` from `buf`, requiring every byte to be consumed.
pub fn decode_from_slice<T: Decode>(buf: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(buf);
    let v = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(DecodeError {
            what: "trailing bytes after value",
            at: r.position(),
        });
    }
    Ok(v)
}

macro_rules! int_codec {
    ($t:ty, $what:literal) => {
        impl Encode for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $t {
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(<$t>::from_le_bytes(r.array($what)?))
            }
        }
    };
}

int_codec!(u8, "u8");
int_codec!(u16, "u16");
int_codec!(u32, "u32");
int_codec!(u64, "u64");
int_codec!(i64, "i64");

impl Encode for usize {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl Decode for usize {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| DecodeError {
            what: "usize out of range",
            at: r.position(),
        })
    }
}

impl Encode for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError {
                what: "bool discriminant",
                at: r.position(),
            }),
        }
    }
}

impl Encode for f64 {
    /// Raw IEEE-754 bits: the round trip is exact for every value,
    /// including NaN payloads and `-0.0`.
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
}

impl Decode for f64 {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = usize::decode(r)?;
        let bytes = r.take(len, "string bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError {
            what: "string utf-8",
            at: r.position(),
        })
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = usize::decode(r)?;
        // Bound pre-allocation by what the input could actually hold, so a
        // corrupt length prefix cannot trigger a huge allocation.
        let mut out = Vec::with_capacity(len.min(r.remaining().max(1)));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(DecodeError {
                what: "option discriminant",
                at: r.position(),
            }),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        let back: T = decode_from_slice(&bytes).expect("round trip");
        assert_eq!(back, v);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u64);
        round_trip(u64::MAX);
        round_trip(-17i64);
        round_trip(usize::MAX as u64);
        round_trip(true);
        round_trip(false);
        round_trip(3.25f64);
    }

    #[test]
    fn float_bits_are_exact() {
        for bits in [0u64, 1, f64::NAN.to_bits() | 0xdead, (-0.0f64).to_bits()] {
            let v = f64::from_bits(bits);
            let back: f64 = decode_from_slice(&encode_to_vec(&v)).unwrap();
            assert_eq!(back.to_bits(), bits);
        }
    }

    #[test]
    fn containers_round_trip() {
        round_trip(String::from("héllo"));
        round_trip(vec![1u64, 2, 3]);
        round_trip(vec![vec![1.5f64], vec![], vec![f64::INFINITY]]);
        round_trip(Option::<u64>::None);
        round_trip(Some(String::from("x")));
        round_trip((String::from("a"), 2.5f64, vec![7u64]));
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = encode_to_vec(&String::from("hello"));
        for n in 0..bytes.len() {
            assert!(decode_from_slice::<String>(&bytes[..n]).is_err());
        }
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = encode_to_vec(&1u64);
        bytes.push(0);
        assert!(decode_from_slice::<u64>(&bytes).is_err());
    }

    #[test]
    fn corrupt_discriminants_error() {
        assert!(decode_from_slice::<bool>(&[2]).is_err());
        assert!(decode_from_slice::<Option<u64>>(&[9]).is_err());
    }

    /// Crafted `Histogram` bytes: `lo`, `hi`, the bin vector, then zero
    /// underflow and overflow counts — the field order it encodes in.
    fn histogram_bytes(lo: f64, hi: f64, bins: Vec<u64>) -> Vec<u8> {
        let mut out = encode_to_vec(&(lo, hi, bins));
        0u64.encode(&mut out);
        0u64.encode(&mut out);
        out
    }

    #[test]
    fn histogram_decode_rejects_broken_invariants() {
        use crate::stats::Histogram;
        let ok = decode_from_slice::<Histogram>(&histogram_bytes(0.0, 1.0, vec![3, 4]))
            .expect("a valid histogram decodes");
        assert_eq!(ok.bins(), &[3, 4]);
        for (lo, hi, bins) in [
            (0.0, 1.0, vec![]),
            (1.0, 1.0, vec![1]),
            (2.0, 1.0, vec![1]),
            (f64::NAN, 1.0, vec![1]),
            (0.0, f64::INFINITY, vec![1]),
            (f64::NEG_INFINITY, 0.0, vec![1]),
        ] {
            let bytes = histogram_bytes(lo, hi, bins.clone());
            assert!(
                decode_from_slice::<Histogram>(&bytes).is_err(),
                "lo={lo} hi={hi} bins={bins:?} must not decode"
            );
        }
    }
}
