//! Byte-level payload codec: every message crosses the mailbox as its
//! encoding, as between MPI processes.
//!
//! This module defines that encoding: a small, hand-rolled, schema-free
//! codec (the workspace vendors no serde) with one non-negotiable property
//! — **decode(encode(x)) == x, bit for bit, on every implementing type** —
//! because a partition must not depend on whether its messages were ever
//! decoded.
//!
//! Layout rules (all integers little-endian, no alignment, no padding):
//! * fixed-width integers encode as their LE bytes; `usize` always travels
//!   as `u64` so 32- and 64-bit builds interoperate;
//! * `f64` encodes as its IEEE-754 bit pattern (`to_bits`), never as text,
//!   so NaN payloads and signed zeros round-trip exactly;
//! * sequences (`Vec<T>`, `String`) encode a `u64` element count followed
//!   by the elements;
//! * `Option` encodes a one-byte discriminant followed by the value, if
//!   any.
//!
//! Decoding is total: corrupt or truncated input yields a [`WireError`],
//! never a panic and never an unbounded allocation (sequence decoders
//! grow incrementally instead of trusting the declared length).

/// Decode-side failure: the bytes do not describe a value of the requested
/// type. The receiving `Comm` treats this as a protocol bug on the sender.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    Truncated,
    /// The input was structurally invalid (bad discriminant, non-UTF-8
    /// string bytes, value out of domain).
    Invalid(&'static str),
    /// A complete value was decoded but input bytes remained.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire value truncated"),
            WireError::Invalid(what) => write!(f, "invalid wire value: {what}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after wire value"),
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over undecoded input bytes.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consumes one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Consumes a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        let arr: [u8; 4] = b.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(arr))
    }

    /// Consumes a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let arr: [u8; 8] = b.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Consumes a `u64` sequence length and checks it for plausibility
    /// against the remaining input (each element needs ≥ 1 byte unless the
    /// element type is zero-sized, which `Vec<()>` handles separately).
    fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| WireError::Invalid("sequence length"))?;
        if min_elem_bytes > 0 && n > self.remaining() / min_elem_bytes {
            // Declared more elements than the input could possibly hold:
            // corrupt length. Failing here (instead of at element #k)
            // keeps decode allocation bounded by the input size.
            return Err(WireError::Truncated);
        }
        Ok(n)
    }
}

/// A message payload: encodes itself to bytes and decodes back, with
/// `decode(encode(x)) == x` exactly. Every send carries the encoding, so
/// the bytes a run counts are the bytes an MPI program would send.
pub trait Wire: Send + Sized + 'static {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value, consuming its bytes from `r`.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encodes into a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a value that must span exactly `bytes`.
    fn decode_all(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok(v)
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let b = r.take(std::mem::size_of::<$t>())?;
                let arr: [u8; std::mem::size_of::<$t>()] =
                    b.try_into().map_err(|_| WireError::Truncated)?;
                Ok(<$t>::from_le_bytes(arr))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        // Always 8 bytes on the wire, independent of the host's pointer
        // width (ranks and counts fit u64 by construction).
        pgp_graph::ids::count_global(*self).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        usize::try_from(u64::decode(r)?).map_err(|_| WireError::Invalid("usize out of range"))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool discriminant")),
        }
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        pgp_graph::ids::count_global(self.len()).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len(1)?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("non-UTF-8 string"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        // Every send encodes into a fresh buffer; size it once instead of
        // regrowing it element by element.
        out.reserve(8 + self.len() * std::mem::size_of::<T>());
        pgp_graph::ids::count_global(self.len()).encode(out);
        for x in self {
            x.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // `()` elements occupy zero bytes; everything else at least one.
        // The plausibility check in `seq_len` keeps a corrupt length from
        // driving allocation; Vec<()> never allocates regardless of len.
        let min = usize::from(std::mem::size_of::<T>() > 0);
        let n = r.seq_len(min)?;
        let mut out = Vec::with_capacity(n.min(r.remaining().max(1)));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(WireError::Invalid("Option discriminant")),
        }
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

wire_tuple!(A: 0, B: 1);
wire_tuple!(A: 0, B: 1, C: 2);
wire_tuple!(A: 0, B: 1, C: 2, D: 3);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.encode_to_vec();
        assert_eq!(T::decode_all(&bytes), Ok(v));
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-7i64);
        roundtrip(i32::MIN);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(());
        roundtrip(3.25f64);
        // Exact bit patterns survive: NaN and -0.0 are not normalized.
        let nan_bits = f64::NAN.to_bits() | 1;
        let bytes = f64::from_bits(nan_bits).encode_to_vec();
        assert_eq!(f64::decode_all(&bytes).map(f64::to_bits), Ok(nan_bits));
        roundtrip(-0.0f64);
    }

    #[test]
    fn compounds_roundtrip() {
        roundtrip("héllo wörld".to_string());
        roundtrip(String::new());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u32>::new());
        roundtrip(vec![(3u32, 4u32), (5, 6)]);
        roundtrip(vec!["a".to_string(), String::new(), "ccc".to_string()]);
        roundtrip(Some(vec![9u64]));
        roundtrip(Option::<u64>::None);
        roundtrip(("pair".to_string(), 10u32));
        roundtrip((1u64, 2usize, vec![3u32]));
        roundtrip((1u8, 2u16, 3u32, 4u64));
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let bytes = vec![5u64; 4].encode_to_vec();
        for cut in 0..bytes.len() {
            assert!(
                Vec::<u64>::decode_all(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn corrupt_length_fails_without_allocating() {
        // Header claims 2^60 elements but carries 8 bytes of payload.
        let mut bytes = Vec::new();
        (1u64 << 60).encode(&mut bytes);
        0u64.encode(&mut bytes);
        assert_eq!(Vec::<u64>::decode_all(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn bad_discriminants_are_invalid() {
        assert!(matches!(bool::decode_all(&[2]), Err(WireError::Invalid(_))));
        assert!(matches!(
            Option::<u8>::decode_all(&[9, 0]),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = 7u32.encode_to_vec();
        bytes.push(0);
        assert_eq!(u32::decode_all(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn vec_unit_with_huge_length_is_cheap() {
        // Zero-sized elements: the plausibility check cannot apply, but
        // Vec<()> never allocates, so a huge declared length is harmless.
        let mut bytes = Vec::new();
        (1u64 << 20).encode(&mut bytes);
        let v = Vec::<()>::decode_all(&bytes).expect("unit vec decodes");
        assert_eq!(v.len(), 1 << 20);
    }
}
