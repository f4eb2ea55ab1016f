//! Binary wire format for tensors and named tensor maps.
//!
//! The baseline approach serializes "the model's internal data structure that
//! maps each layer to its parameters" (§3.1); the parameter-update approach
//! serializes the pruned subset. This module defines that format:
//!
//! ```text
//! tensor   := MAGIC(u32 'MMTS') version(u16) rank(u16) dims(u64 × rank) data(f32-le × numel)
//! state    := MAGIC(u32 'MMSD') version(u16) count(u32)
//!             entry := name_len(u32) name(utf8) tensor
//! ```
//!
//! Everything is little-endian. The format is versioned so stores written by
//! one release stay readable by the next (the paper's environment-tracking
//! requirement applied to ourselves).
//!
//! Every recovery decodes stored bytes through [`read_tensor`] and
//! [`state_from_bytes`], so this module is written with checked indexing
//! and arithmetic throughout, like the wire decoder.
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]

use crate::error::TensorError;
use crate::shape::Shape;
use crate::tensor::Tensor;
use bytes::{BufMut, Bytes, BytesMut};

const TENSOR_MAGIC: u32 = 0x4d4d5453; // "MMTS"
const STATE_MAGIC: u32 = 0x4d4d5344; // "MMSD"
const VERSION: u16 = 1;

/// Serializes one tensor into `out`.
pub fn write_tensor(t: &Tensor, out: &mut BytesMut) {
    out.put_u32_le(TENSOR_MAGIC);
    out.put_u16_le(VERSION);
    out.put_u16_le(t.shape().rank() as u16);
    for &d in t.shape().dims() {
        out.put_u64_le(d as u64);
    }
    out.reserve(t.numel().saturating_mul(4));
    // Bulk-convert through a stack buffer: per-element `put_f32_le` calls
    // are measurably slower for multi-hundred-MB state dicts.
    let mut buf = [[0u8; 4]; 1024];
    for chunk in t.data().chunks(buf.len()) {
        for (word, v) in buf.iter_mut().zip(chunk) {
            *word = v.to_le_bytes();
        }
        let filled = buf.get(..chunk.len()).unwrap_or_default();
        out.put_slice(filled.as_flattened());
    }
}

/// Exact serialized size of one tensor (saturating: a capacity hint).
fn tensor_wire_size(t: &Tensor) -> usize {
    t.shape().rank().saturating_add(1).saturating_mul(8).saturating_add(t.numel().saturating_mul(4))
}

/// Splits the first `N` bytes off `buf`, as an array; `None` if it is
/// shorter.
fn take_array<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = buf.split_first_chunk::<N>()?;
    *buf = rest;
    Some(*head)
}

/// Serializes one tensor to an owned buffer.
pub fn tensor_to_bytes(t: &Tensor) -> Bytes {
    let mut out = BytesMut::with_capacity(tensor_wire_size(t));
    write_tensor(t, &mut out);
    out.freeze()
}

/// Deserializes one tensor from the front of `buf`, advancing it. Every
/// length is checked against the bytes remaining before it is used.
pub fn read_tensor(buf: &mut &[u8]) -> Result<Tensor, TensorError> {
    let header = || TensorError::Corrupt("truncated tensor header".into());
    let magic = u32::from_le_bytes(take_array(buf).ok_or_else(header)?);
    if magic != TENSOR_MAGIC {
        return Err(TensorError::Corrupt(format!("bad tensor magic {magic:#x}")));
    }
    let version = u16::from_le_bytes(take_array(buf).ok_or_else(header)?);
    if version != VERSION {
        return Err(TensorError::UnsupportedVersion(version));
    }
    let rank = usize::from(u16::from_le_bytes(take_array(buf).ok_or_else(header)?));
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        let d = take_array(buf).ok_or_else(|| TensorError::Corrupt("truncated dims".into()))?;
        let d = usize::try_from(u64::from_le_bytes(d))
            .map_err(|_| TensorError::Corrupt("dim overflows usize".into()))?;
        dims.push(d);
    }
    let shape = Shape::new(dims);
    // Defensive cap (~8G elements): a corrupt header must not trigger an
    // allocation-of-doom before the length check below can fire.
    let sizes =
        shape.checked_numel().filter(|&n| n <= 1 << 33).and_then(|n| Some((n, n.checked_mul(4)?)));
    let Some((_, nbytes)) = sizes else {
        return Err(TensorError::Corrupt(format!("implausible element count for dims {shape}")));
    };
    let Some((raw, rest)) = buf.split_at_checked(nbytes) else {
        return Err(TensorError::Corrupt(format!(
            "truncated data: need {nbytes} bytes, have {}",
            buf.len()
        )));
    };
    *buf = rest;
    // One exact-size allocation, filled straight from the borrowed bytes;
    // every chunk is 4 bytes, so the conversion never takes its default.
    let data =
        raw.chunks_exact(4).map(|b| f32::from_le_bytes(b.try_into().unwrap_or_default())).collect();
    Tensor::from_vec(shape, data)
}

/// Deserializes one tensor from a full buffer, requiring full consumption.
pub fn tensor_from_bytes(bytes: &[u8]) -> Result<Tensor, TensorError> {
    let mut buf = bytes;
    let t = read_tensor(&mut buf)?;
    if !buf.is_empty() {
        return Err(TensorError::Corrupt(format!("{} trailing bytes", buf.len())));
    }
    Ok(t)
}

/// Serializes an ordered list of `(name, tensor)` pairs — a state dict.
///
/// Order is preserved (and significant): mmlib's layer-wise diffing walks
/// both state dicts in the model's canonical layer order.
pub fn state_to_bytes<'a, I>(entries: I) -> Bytes
where
    I: IntoIterator<Item = (&'a str, &'a Tensor)>,
    I::IntoIter: ExactSizeIterator,
{
    let entries: Vec<(&'a str, &'a Tensor)> = entries.into_iter().collect();
    // Reserve the exact size: growth-by-doubling reallocs of multi-hundred-MB
    // buffers are very costly on page-fault-expensive hosts.
    let total = entries.iter().fold(10usize, |total, (n, t)| {
        total.saturating_add(4).saturating_add(n.len()).saturating_add(tensor_wire_size(t))
    });
    let iter = entries.into_iter();
    let mut out = BytesMut::with_capacity(total);
    out.put_u32_le(STATE_MAGIC);
    out.put_u16_le(VERSION);
    out.put_u32_le(iter.len() as u32);
    for (name, tensor) in iter {
        out.put_u32_le(name.len() as u32);
        out.put_slice(name.as_bytes());
        write_tensor(tensor, &mut out);
    }
    out.freeze()
}

/// Smallest encoded state entry: a name length, an empty name, a tensor
/// header and the smallest tensor body (a scalar's one element; an empty
/// rank-1 tensor needs twice that for its one dim).
const MIN_ENTRY_LEN: usize = 4 + 8 + 4;

/// Deserializes a state dict written by [`state_to_bytes`], decoding each
/// tensor straight from the borrowed bytes.
pub fn state_from_bytes(bytes: &[u8]) -> Result<Vec<(String, Tensor)>, TensorError> {
    let mut buf = bytes;
    let header = || TensorError::Corrupt("truncated state header".into());
    let magic = u32::from_le_bytes(take_array(&mut buf).ok_or_else(header)?);
    if magic != STATE_MAGIC {
        return Err(TensorError::Corrupt(format!("bad state magic {magic:#x}")));
    }
    let version = u16::from_le_bytes(take_array(&mut buf).ok_or_else(header)?);
    if version != VERSION {
        return Err(TensorError::UnsupportedVersion(version));
    }
    let count = u32::from_le_bytes(take_array(&mut buf).ok_or_else(header)?) as usize;
    // The count is input: reserve no more entries than the bytes could hold.
    let mut entries = Vec::with_capacity(count.min(buf.len() / MIN_ENTRY_LEN));
    for _ in 0..count {
        let name_len = take_array(&mut buf)
            .ok_or_else(|| TensorError::Corrupt("truncated entry name length".into()))?;
        let Some((name, rest)) = buf.split_at_checked(u32::from_le_bytes(name_len) as usize)
        else {
            return Err(TensorError::Corrupt("truncated entry name".into()));
        };
        let name = std::str::from_utf8(name)
            .map_err(|_| TensorError::Corrupt("entry name is not utf-8".into()))?
            .to_string();
        buf = rest;
        let tensor = read_tensor(&mut buf)?;
        entries.push((name, tensor));
    }
    if !buf.is_empty() {
        return Err(TensorError::Corrupt(format!("{} trailing bytes", buf.len())));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::Pcg32;

    #[test]
    fn tensor_round_trip_bit_exact() {
        let mut rng = Pcg32::seeded(1);
        let t = Tensor::rand_normal([3, 5, 2], 0.0, 1.0, &mut rng);
        let bytes = tensor_to_bytes(&t);
        let back = tensor_from_bytes(&bytes).unwrap();
        assert!(t.bit_eq(&back));
    }

    #[test]
    fn scalar_round_trip() {
        let t = Tensor::scalar(-0.0);
        let back = tensor_from_bytes(&tensor_to_bytes(&t)).unwrap();
        assert!(t.bit_eq(&back));
    }

    #[test]
    fn nan_and_inf_round_trip() {
        let t = Tensor::from_vec([3], vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY]).unwrap();
        let back = tensor_from_bytes(&tensor_to_bytes(&t)).unwrap();
        assert!(t.bit_eq(&back));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = tensor_to_bytes(&Tensor::zeros([2])).to_vec();
        bytes[0] ^= 0xff;
        assert!(matches!(tensor_from_bytes(&bytes), Err(TensorError::Corrupt(_))));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = tensor_to_bytes(&Tensor::zeros([2])).to_vec();
        bytes[4] = 99;
        assert!(matches!(
            tensor_from_bytes(&bytes),
            Err(TensorError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn rejects_truncation_at_every_point() {
        let bytes = tensor_to_bytes(&Tensor::zeros([4, 4])).to_vec();
        for cut in 0..bytes.len() {
            assert!(tensor_from_bytes(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn rejects_dims_whose_product_wraps() {
        // [2^32, 2^32] has 2^64 elements: an unchecked product wraps to 0,
        // a valid empty tensor in release and a panic in debug.
        let mut bytes = tensor_to_bytes(&Tensor::zeros([1, 1])).to_vec();
        bytes.truncate(8);
        bytes.extend_from_slice(&(1u64 << 32).to_le_bytes());
        bytes.extend_from_slice(&(1u64 << 32).to_le_bytes());
        assert!(matches!(tensor_from_bytes(&bytes), Err(TensorError::Corrupt(_))));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = tensor_to_bytes(&Tensor::zeros([2])).to_vec();
        bytes.push(0);
        assert!(tensor_from_bytes(&bytes).is_err());
    }

    #[test]
    fn state_dict_round_trip_preserves_order() {
        let mut rng = Pcg32::seeded(2);
        let entries = [("conv1.weight".to_string(), Tensor::rand_normal([4, 3, 3, 3], 0.0, 1.0, &mut rng)),
            ("bn1.weight".to_string(), Tensor::ones([4])),
            ("fc.bias".to_string(), Tensor::zeros([10]))];
        let bytes = state_to_bytes(entries.iter().map(|(n, t)| (n.as_str(), t)));
        let back = state_from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        for ((n1, t1), (n2, t2)) in entries.iter().zip(&back) {
            assert_eq!(n1, n2);
            assert!(t1.bit_eq(t2));
        }
    }

    #[test]
    fn empty_state_dict_round_trips() {
        let bytes = state_to_bytes(std::iter::empty::<(&str, &Tensor)>().collect::<Vec<_>>());
        assert!(state_from_bytes(&bytes).unwrap().is_empty());
    }

    #[test]
    fn state_rejects_non_utf8_name() {
        let entries = [("x".to_string(), Tensor::zeros([1]))];
        let mut bytes = state_to_bytes(entries.iter().map(|(n, t)| (n.as_str(), t))).to_vec();
        // name length is at offset 10..14; the name byte itself at 14.
        bytes[14] = 0xff;
        assert!(state_from_bytes(&bytes).is_err());
    }
}
