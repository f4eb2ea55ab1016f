//! Property tests: the update codec is lossless and bit-exact on arbitrary
//! tensors (including special values), every corruption is detected, and a
//! hostile frame re-sealed with a valid trailer is an error, never a panic.

use mmlib_compress::rle;
use mmlib_compress::varint::write_u64;
use mmlib_compress::{decode_update, encode_update, CodecError};
use mmlib_tensor::hash::Sha256;
use mmlib_tensor::{Pcg32, Shape, Tensor};
use proptest::prelude::*;

/// Appends the SHA-256 trailer, as any peer can: it is a checksum, not a MAC.
fn seal(mut frame: Vec<u8>) -> Vec<u8> {
    let mut h = Sha256::new();
    h.update(&frame);
    frame.extend_from_slice(&h.finalize().0);
    frame
}

/// A frame header announcing one entry, then `rest`, re-sealed.
fn one_entry_frame(rest: &[u64]) -> Vec<u8> {
    let mut frame = b"MMCU".to_vec();
    frame.extend_from_slice(&1u16.to_le_bytes());
    for &v in [1].iter().chain(rest) {
        write_u64(v, &mut frame);
    }
    seal(frame)
}

/// The three hostile lengths that panicked the decoder: each is a varint
/// field holding a value whose arithmetic overflowed.
#[test]
fn resealed_hostile_lengths_are_errors() {
    let huge = 1u64 << 40;
    let frames = [
        ("name_len = u64::MAX", one_entry_frame(&[u64::MAX])),
        // name "a", raw mode, rank 1, dim 4, then the payload length.
        ("payload_len = u64::MAX", one_entry_frame(&[1, 0x61, 0, 1, 4, u64::MAX])),
        ("three dims of 2^40", one_entry_frame(&[1, 0x61, 0, 3, huge, huge, huge, 0])),
    ];
    let none = |_: &str| None;
    for (what, frame) in frames {
        let got = decode_update(&frame, &none);
        assert!(matches!(got, Err(CodecError::Corrupt(_))), "{what}: {got:?}");
    }
}

fn arb_tensor() -> impl Strategy<Value = Tensor> {
    (prop::collection::vec(1usize..8, 1..4), any::<u64>(), 0u8..3).prop_map(
        |(dims, seed, kind)| {
            let shape = Shape::new(dims);
            let mut rng = Pcg32::seeded(seed);
            match kind {
                0 => Tensor::rand_normal(shape, 0.0, 1.0, &mut rng),
                1 => {
                    // Sprinkle special values.
                    let mut t = Tensor::rand_normal(shape, 0.0, 1.0, &mut rng);
                    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
                    for (i, v) in t.data_mut().iter_mut().enumerate() {
                        if i % 3 == 0 {
                            *v = specials[i % specials.len()];
                        }
                    }
                    t
                }
                _ => Tensor::zeros(shape),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn raw_mode_is_bit_exact(t in arb_tensor()) {
        let entries = vec![("t", &t)];
        let none = |_: &str| None;
        let enc = encode_update(&entries, &none);
        // Encoded without a base, so raw; decoded onto one, as every entry is.
        let base = Tensor::zeros(t.shape().clone());
        let dec = decode_update(&enc.bytes, &|_| Some(&base)).unwrap();
        prop_assert!(dec[0].1.bit_eq(&t));
    }

    #[test]
    fn delta_mode_is_bit_exact(base in arb_tensor(), noise_seed in any::<u64>()) {
        let mut derived = base.clone();
        let mut rng = Pcg32::seeded(noise_seed);
        for v in derived.data_mut().iter_mut() {
            if rng.next_f32() < 0.3 {
                *v = f32::from_bits(v.to_bits() ^ rng.next_u32() & 0xff);
            }
        }
        let entries = vec![("t", &derived)];
        let base_fn = |name: &str| (name == "t").then_some(&base);
        let enc = encode_update(&entries, &base_fn);
        let dec = decode_update(&enc.bytes, &base_fn).unwrap();
        prop_assert!(dec[0].1.bit_eq(&derived));
    }

    #[test]
    fn single_bitflips_never_decode(t in arb_tensor(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let entries = vec![("t", &t)];
        let none = |_: &str| None;
        let mut enc = encode_update(&entries, &none).bytes;
        let base = |name: &str| (name == "t").then_some(&t);
        prop_assert!(decode_update(&enc, &base).is_ok());
        let pos = ((enc.len() - 1) as f64 * pos_frac) as usize;
        enc[pos] ^= 1 << bit;
        prop_assert!(decode_update(&enc, &base).is_err());
    }

    #[test]
    fn identical_update_compresses_massively(t in arb_tensor()) {
        // A derived tensor equal to its base XORs to all zeros.
        if t.numel() >= 64 {
            let entries = vec![("t", &t)];
            let base_fn = |name: &str| (name == "t").then_some(&t);
            let enc = encode_update(&entries, &base_fn);
            prop_assert!(enc.bytes.len() < t.nbytes() / 4 + 96,
                "encoded {} of raw {}", enc.bytes.len(), t.nbytes());
        }
    }

    #[test]
    fn resealed_single_byte_mutations_never_panic(
        t in arb_tensor(),
        pos_frac in 0.0f64..1.0,
        byte in any::<u8>(),
    ) {
        // Delta mode against the tensor itself plus a raw entry (encoded
        // without a base, decoded onto one), so the mutation can land in
        // either kind of entry.
        let entries = vec![("t", &t), ("r", &t)];
        let base_fn = |name: &str| (name == "t").then_some(&t);
        let mut frame = encode_update(&entries, &base_fn).bytes;
        frame.truncate(frame.len() - 32);
        let pos = ((frame.len() - 1) as f64 * pos_frac) as usize;
        frame[pos] = byte;
        // Any outcome but a panic: a byte can still re-seal a valid frame.
        let _ = decode_update(&seal(frame), &|_| Some(&t));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// `rle::decode` returns, never panics, on arbitrary bytes and any
    /// output bound the caller gives it, and what it returns has exactly
    /// that length.
    #[test]
    fn rle_decode_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        expected_len in 0usize..1 << 16,
    ) {
        if let Some(out) = rle::decode(&bytes, expected_len) {
            prop_assert_eq!(out.len(), expected_len);
        }
    }

    /// `decode_update` returns, never panics, on arbitrary bytes: as they
    /// are, and sealed behind a valid magic and version, so the parser
    /// runs past the checksum.
    #[test]
    fn decode_update_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let none = |_: &str| None;
        let _ = decode_update(&bytes, &none);
        let mut frame = b"MMCU".to_vec();
        frame.extend_from_slice(&1u16.to_le_bytes());
        frame.extend_from_slice(&bytes);
        let _ = decode_update(&seal(frame), &none);
    }
}
