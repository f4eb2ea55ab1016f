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

use crate::varint;

/// Maximum literal chunk length (bounds worst-case token overhead).
const MAX_LITERAL: usize = 1 << 16;

/// Encodes `input` with zero-RLE.
pub fn encode(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 4 + 16);
    let mut pos = 0usize;
    while pos < input.len() {
        // Count zeros.
        let zero_start = pos;
        while pos < input.len() && input[pos] == 0 {
            pos += 1;
        }
        varint::write_u64((pos - zero_start) as u64, &mut out);
        // Count literals: run until the next "worthwhile" zero run (>= 4)
        // or the chunk limit, so isolated zeros don't fragment literals.
        let lit_start = pos;
        while pos < input.len() && pos - lit_start < MAX_LITERAL {
            if input[pos] == 0 {
                let run_end = input[pos..]
                    .iter()
                    .position(|&b| b != 0)
                    .map_or(input.len(), |off| pos + off);
                if run_end - pos >= 4 || run_end == input.len() {
                    break;
                }
                pos = run_end;
            } else {
                pos += 1;
            }
        }
        varint::write_u64((pos - lit_start) as u64, &mut out);
        out.extend_from_slice(&input[lit_start..pos]);
    }
    out
}

/// Decodes a zero-RLE stream produced by [`encode`].
///
/// `expected_len` bounds the output (corrupt streams cannot balloon). Run
/// lengths are untrusted: each is compared against the room left, never
/// added to a position first.
pub fn decode(input: &[u8], expected_len: usize) -> Option<Vec<u8>> {
    // A frame's `expected_len` is as untrusted as its runs, so it only
    // sizes the first allocation up to a bound; past it, the output grows.
    let mut out = Vec::with_capacity(expected_len.min(1 << 26));
    let mut pos = 0usize;
    while pos < input.len() {
        let (zeros, used) = varint::read_u64(&input[pos..])?;
        pos += used;
        let zeros = usize::try_from(zeros).ok().filter(|&z| z <= expected_len - out.len())?;
        out.resize(out.len() + zeros, 0);
        let (lits, used) = varint::read_u64(&input[pos..])?;
        pos += used;
        let lits = usize::try_from(lits).ok()?;
        if lits > input.len() - pos || lits > expected_len - out.len() {
            return None;
        }
        out.extend_from_slice(&input[pos..pos + lits]);
        pos += lits;
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
