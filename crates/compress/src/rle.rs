//! Zero-run-length encoding.
//!
//! The byte planes of an XOR delta between related models are dominated by
//! zero bytes (unchanged sign/exponent bits). This codec encodes a byte
//! stream as alternating tokens:
//!
//! ```text
//! token := zero_run(varint)  literal_len(varint)  literal_bytes
//! ```
//!
//! starting with a zero run (possibly 0), repeated until the input is
//! consumed. Worst case overhead is two varint bytes per literal chunk.
//!
//! [`decode`] reads bytes from disk or the wire, so this module is written
//! with checked indexing and arithmetic throughout, like the wire decoder.

#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]

use crate::varint;

/// Maximum literal chunk length (bounds worst-case token overhead).
const MAX_LITERAL: usize = 1 << 16;

/// Encodes `input` with zero-RLE.
pub fn encode(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity((input.len() / 4).saturating_add(16));
    let mut rest = input;
    while !rest.is_empty() {
        let zeros = rest.iter().take_while(|&&b| b == 0).count();
        varint::write_u64(zeros as u64, &mut out);
        let tail = rest.get(zeros..).unwrap_or_default();
        let (literal, tail) = tail.split_at_checked(literal_len(tail)).unwrap_or((tail, &[]));
        varint::write_u64(literal.len() as u64, &mut out);
        out.extend_from_slice(literal);
        rest = tail;
    }
    out
}

/// The length of the literal chunk at the front of `input`: it runs until
/// the next "worthwhile" zero run (>= 4, or reaching the end) or the chunk
/// limit, so isolated zeros don't fragment literals.
fn literal_len(input: &[u8]) -> usize {
    let mut len = 0usize;
    while len < MAX_LITERAL {
        let tail = input.get(len..).unwrap_or_default();
        let step = match tail.first() {
            None => break,
            Some(0) => {
                let zeros = tail.iter().take_while(|&&b| b == 0).count();
                if zeros >= 4 || zeros == tail.len() {
                    break;
                }
                zeros
            }
            Some(_) => 1,
        };
        len = len.saturating_add(step);
    }
    len
}

/// Decodes a zero-RLE stream produced by [`encode`].
///
/// `expected_len` bounds the output, and so what the decode allocates:
/// corrupt streams cannot balloon past it, so the caller bounds it. Run
/// lengths are untrusted: each is compared against the room left, never
/// added to a position first.
pub fn decode(input: &[u8], expected_len: usize) -> Option<Vec<u8>> {
    // A frame's `expected_len` is as untrusted as its runs, so it only
    // sizes the first allocation up to a bound; past it, the output grows.
    let mut out = Vec::with_capacity(expected_len.min(1 << 26));
    let mut rest = input;
    while !rest.is_empty() {
        let zeros = usize::try_from(varint::take_u64(&mut rest)?).ok()?;
        if zeros > expected_len.checked_sub(out.len())? {
            return None;
        }
        out.resize(out.len().checked_add(zeros)?, 0);
        let lits = usize::try_from(varint::take_u64(&mut rest)?).ok()?;
        if lits > expected_len.checked_sub(out.len())? {
            return None;
        }
        let (literal, tail) = rest.split_at_checked(lits)?;
        out.extend_from_slice(literal);
        rest = tail;
    }
    (out.len() == expected_len).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let enc = encode(data);
        let dec = decode(&enc, data.len()).unwrap();
        assert_eq!(dec, data);
    }

    #[test]
    fn round_trips_basic_patterns() {
        round_trip(&[]);
        round_trip(&[0; 1000]);
        round_trip(&[1; 1000]);
        round_trip(&[0, 0, 0, 0, 1, 2, 3, 0, 0, 0, 0, 0, 4]);
        round_trip(&[1, 0, 2, 0, 3, 0, 4]); // isolated zeros inside literals
    }

    #[test]
    fn long_zero_runs_shrink_dramatically() {
        let mut data = vec![0u8; 100_000];
        data[50_000] = 7;
        let enc = encode(&data);
        assert!(enc.len() < 16, "encoded {} bytes", enc.len());
    }

    #[test]
    fn incompressible_data_overhead_is_bounded() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 255 + 1) as u8).collect();
        let enc = encode(&data);
        assert!(enc.len() <= data.len() + data.len() / MAX_LITERAL * 4 + 8);
    }

    #[test]
    fn corrupt_streams_do_not_balloon() {
        let enc = encode(&[0u8; 1000]);
        // Claim a gigantic zero run.
        let mut bad = Vec::new();
        crate::varint::write_u64(u64::MAX / 2, &mut bad);
        assert!(decode(&bad, 1000).is_none());
        // Truncations fail cleanly.
        for cut in 0..enc.len() {
            assert!(decode(&enc[..cut], 1000).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn wrong_expected_len_is_rejected() {
        let data = [1u8, 2, 3];
        let enc = encode(&data);
        assert!(decode(&enc, 2).is_none());
        assert!(decode(&enc, 4).is_none());
    }
}
