//! LEB128 variable-length unsigned integers.

/// Appends `value` as a LEB128 varint.
pub fn write_u64(value: u64, out: &mut Vec<u8>) {
    let mut v = value;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint from the front of `input`, returning the value and
/// the number of bytes consumed, or `None` on truncation/overflow.
pub fn read_u64(input: &[u8]) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if shift >= 64 {
            return None; // overflow: more than 10 bytes
        }
        let payload = (byte & 0x7f) as u64;
        // The final byte must fit in the remaining bits.
        if shift == 63 && payload > 1 {
            return None;
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Some((value, i + 1));
        }
        shift += 7;
    }
    None
}

/// Reads a LEB128 varint off the front of `rest` and advances `rest` past
/// it, or returns `None` (leaving `rest` as it was) on truncation/overflow.
pub fn take_u64(rest: &mut &[u8]) -> Option<u64> {
    let (value, used) = read_u64(rest)?;
    *rest = rest.get(used..)?;
    Some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_boundary_values() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(v, &mut buf);
            let (back, used) = read_u64(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn single_byte_for_small_values() {
        let mut buf = Vec::new();
        write_u64(127, &mut buf);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut buf = Vec::new();
        write_u64(u64::MAX, &mut buf);
        for cut in 0..buf.len() {
            assert!(read_u64(&buf[..cut]).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn overlong_encoding_is_rejected() {
        // 11 continuation bytes can never be a valid u64.
        let bad = [0x80u8; 11];
        assert!(read_u64(&bad).is_none());
    }

    #[test]
    fn reads_only_its_own_bytes() {
        let mut buf = Vec::new();
        write_u64(300, &mut buf);
        let tail_start = buf.len();
        buf.extend_from_slice(&[0xde, 0xad]);
        let (v, used) = read_u64(&buf).unwrap();
        assert_eq!(v, 300);
        assert_eq!(used, tail_start);
    }
}
