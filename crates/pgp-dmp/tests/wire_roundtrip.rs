//! Property tests for the wire codec.
//!
//! Arbitrary typed payloads must survive `encode → decode` exactly: the
//! [`Wire`] codec round-trips every payload type the partition protocols
//! send, and corrupt or truncated input is an error, never a panic.

use pgp_dmp::{Wire, WireError};
use pgp_graph::{Node, Weight};
use proptest::collection::vec;
use proptest::prelude::*;

/// Asserts `decode_all(encode(v)) == v`.
fn assert_roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
    let bytes = v.encode_to_vec();
    assert_eq!(T::decode_all(&bytes), Ok(v), "decode(encode(v)) == v");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn u64_vectors_roundtrip(v in vec(0u64..=u64::MAX, 0..64)) {
        assert_roundtrip(v);
    }

    #[test]
    fn node_pair_vectors_roundtrip(raw in vec((0u64..1 << 48, 0u64..1 << 48), 0..64)) {
        let v: Vec<(Node, Node)> = raw
            .into_iter()
            .map(|(a, b)| (a as Node, b as Node))
            .collect();
        assert_roundtrip(v);
    }

    #[test]
    fn weighted_edge_vectors_roundtrip(
        raw in vec((0u64..1 << 32, 0u64..1 << 32, 1u64..1 << 20), 0..48),
    ) {
        let v: Vec<(Node, Node, Weight)> = raw
            .into_iter()
            .map(|(a, b, w)| (a as Node, b as Node, w as Weight))
            .collect();
        assert_roundtrip(v);
    }

    #[test]
    fn float_options_roundtrip(bits in 0u64..=u64::MAX, some in 0u8..2) {
        // Arbitrary bit patterns — NaNs and subnormals included — must
        // survive bit-exactly (`f64::to_bits` encoding).
        let v: Option<f64> = (some == 1).then(|| f64::from_bits(bits));
        let back = Option::<f64>::decode_all(&v.encode_to_vec()).expect("decodes");
        prop_assert_eq!(back.map(f64::to_bits), v.map(f64::to_bits));
    }

    #[test]
    fn strings_and_tuples_roundtrip(codes in vec(0u32..0xD800, 0..24), x in 0u32..=u32::MAX) {
        let s: String = codes
            .into_iter()
            .filter_map(char::from_u32)
            .collect();
        assert_roundtrip((s, x));
    }

    #[test]
    fn truncation_never_panics(
        v in vec(0u64..=u64::MAX, 0..16),
        cut_frac in 0u64..1000,
    ) {
        // Any prefix of a valid encoding either decodes (only the full
        // length does) or errors — never panics, never over-allocates.
        let payload = v.encode_to_vec();
        let cut = (payload.len() as u64 * cut_frac / 1000) as usize;
        let r = Vec::<u64>::decode_all(&payload[..cut]);
        if cut == payload.len() {
            prop_assert_eq!(r, Ok(v));
        } else {
            prop_assert!(r.is_err(), "truncated decode must fail, got {:?}", r);
        }
    }

    #[test]
    fn corrupt_length_prefix_is_rejected(
        v in vec(0u64..=u64::MAX, 1..16),
        bogus in 1u64 << 32..u64::MAX,
    ) {
        // Flipping the sequence-length prefix to an absurd value must be
        // caught by the plausibility check (bounded allocation), not OOM.
        let mut payload = v.encode_to_vec();
        payload[..8].copy_from_slice(&bogus.to_le_bytes());
        prop_assert_eq!(Vec::<u64>::decode_all(&payload), Err(WireError::Truncated));
    }
}
