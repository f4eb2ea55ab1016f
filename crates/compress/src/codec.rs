//! The composed parameter-update codec.
//!
//! Encodes a set of named tensors (the changed layers of a parameter
//! update), each either
//!
//! * **delta-coded** against the same-named tensor of the base model:
//!   `xor-delta → byte planes → per-plane zero-RLE`, or
//! * **raw** (the tensor's own bytes, zero-RLE'd), used whenever delta
//!   coding would not shrink the tensor.
//!
//! An update changes layers its base holds, so [`decode_update`] takes
//! every entry, raw or delta, only with a same-named, same-shaped base
//! tensor: the base bounds what a frame may make the decoder allocate.
//! The encoder picks per tensor whichever is smaller, so the encoded update
//! is never larger than raw + small framing. A SHA-256 trailer seals the
//! frame. Decoding is bit-exact by construction and verified by checksum.
//!
//! ```text
//! frame  := MAGIC "MMCU" version(u16) count(varint) entry* sha256(32)
//! entry  := name_len(varint) name mode(u8) rank(varint) dims(varint*)
//!           payload_len(varint) payload
//! mode   := 0 raw-rle | 1 delta-rle
//! ```
//!
//! [`decode_update`] reads bytes from disk or the wire, so this module is
//! written with checked indexing and arithmetic throughout, like the wire
//! decoder.

#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]

use mmlib_tensor::hash::{Digest, Sha256};
use mmlib_tensor::{Shape, Tensor};

use crate::{byteplane, delta, rle, varint};

const MAGIC: &[u8; 4] = b"MMCU";
const VERSION: u16 = 1;

const MODE_RAW: u8 = 0;
const MODE_DELTA: u8 = 1;

/// Errors from encoding/decoding updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The frame is malformed or truncated.
    Corrupt(String),
    /// The frame checksum does not match.
    ChecksumMismatch,
    /// An entry has no (or a mismatching) base tensor.
    MissingBase(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Corrupt(m) => write!(f, "corrupt update frame: {m}"),
            CodecError::ChecksumMismatch => write!(f, "update frame checksum mismatch"),
            CodecError::MissingBase(n) => write!(f, "entry {n} has no matching base tensor"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An encoded update with its size statistics.
#[derive(Debug, Clone)]
pub struct EncodedUpdate {
    /// The framed bytes.
    pub bytes: Vec<u8>,
    /// Raw (uncompressed) size of the encoded tensors.
    pub raw_bytes: u64,
    /// How many tensors used delta mode.
    pub delta_entries: usize,
    /// How many tensors fell back to raw mode.
    pub raw_entries: usize,
}

impl EncodedUpdate {
    /// Compression ratio (raw / encoded); > 1 means the codec helped.
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.bytes.len().max(1) as f64
    }
}

fn rle_planes(words: &[u32]) -> Vec<u8> {
    rle::encode(&byteplane::split(words))
}

/// Encodes `entries` (name → tensor), delta-coding against `base` when a
/// same-named, same-shaped base tensor exists and it pays off.
pub fn encode_update<'a>(
    entries: &[(&'a str, &'a Tensor)],
    base: &dyn Fn(&str) -> Option<&'a Tensor>,
) -> EncodedUpdate {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    varint::write_u64(entries.len() as u64, &mut out);

    let mut raw_bytes = 0u64;
    let mut delta_entries = 0usize;
    for (name, tensor) in entries {
        raw_bytes = raw_bytes.saturating_add(tensor.nbytes() as u64);
        let own_words: Vec<u32> = tensor.data().iter().map(|v| v.to_bits()).collect();
        let raw_payload = rle_planes(&own_words);
        let delta_payload = base(name)
            .and_then(|b| delta::xor_words(tensor, b))
            .map(|d| rle_planes(&d));

        let (mode, payload) = match delta_payload {
            Some(dp) if dp.len() < raw_payload.len() => {
                delta_entries = delta_entries.saturating_add(1);
                (MODE_DELTA, dp)
            }
            _ => (MODE_RAW, raw_payload),
        };

        varint::write_u64(name.len() as u64, &mut out);
        out.extend_from_slice(name.as_bytes());
        out.push(mode);
        varint::write_u64(tensor.shape().rank() as u64, &mut out);
        for &d in tensor.shape().dims() {
            varint::write_u64(d as u64, &mut out);
        }
        varint::write_u64(payload.len() as u64, &mut out);
        out.extend_from_slice(&payload);
    }

    let mut h = Sha256::new();
    h.update(&out);
    let digest = h.finalize();
    out.extend_from_slice(&digest.0);
    let raw_entries = entries.len().saturating_sub(delta_entries);
    EncodedUpdate { bytes: out, raw_bytes, delta_entries, raw_entries }
}

/// Splits the first `n` bytes off `rest`; `what` names the field a short
/// frame truncated.
fn take<'a>(rest: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8], CodecError> {
    let (head, tail) =
        rest.split_at_checked(n).ok_or_else(|| CodecError::Corrupt(format!("truncated {what}")))?;
    *rest = tail;
    Ok(head)
}

/// Splits the first `N` bytes off `rest`, as an array.
fn take_array<const N: usize>(rest: &mut &[u8], what: &str) -> Result<[u8; N], CodecError> {
    let (head, tail) = rest
        .split_first_chunk::<N>()
        .ok_or_else(|| CodecError::Corrupt(format!("truncated {what}")))?;
    *rest = tail;
    Ok(*head)
}

/// Reads a varint length or count off the front of `rest`.
fn take_len(rest: &mut &[u8]) -> Result<usize, CodecError> {
    varint::take_u64(rest)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| CodecError::Corrupt("bad varint".into()))
}

/// Decodes an update frame against `base`, which must hold a same-named,
/// same-shaped tensor for every entry: delta entries resolve against it,
/// and it bounds every entry's size before its payload is expanded.
pub fn decode_update<'a>(
    bytes: &[u8],
    base: &dyn Fn(&str) -> Option<&'a Tensor>,
) -> Result<Vec<(String, Tensor)>, CodecError> {
    // Magic, version and a one-byte count at least, then the trailer.
    let (payload, trailer) = match bytes.split_last_chunk::<32>() {
        Some((payload, trailer)) if payload.len() >= 7 => (payload, trailer),
        _ => return Err(CodecError::Corrupt("too short".into())),
    };
    let mut h = Sha256::new();
    h.update(payload);
    if Digest(*trailer) != h.finalize() {
        return Err(CodecError::ChecksumMismatch);
    }

    let mut rest = payload;
    if take_array::<4>(&mut rest, "magic")? != *MAGIC {
        return Err(CodecError::Corrupt("bad magic".into()));
    }
    let version = u16::from_le_bytes(take_array(&mut rest, "version")?);
    if version != VERSION {
        return Err(CodecError::Corrupt(format!("unsupported version {version}")));
    }

    // The trailer is a checksum, not a MAC: anyone can re-seal a hostile
    // frame, so every length is checked against the bytes remaining and
    // every product is checked, never trusted to fit.
    let count = take_len(&mut rest)?;
    let mut out = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let name_len = take_len(&mut rest)?;
        let name = std::str::from_utf8(take(&mut rest, name_len, "name")?)
            .map_err(|_| CodecError::Corrupt("name not utf-8".into()))?
            .to_string();
        let [mode] = take_array(&mut rest, "mode")?;
        let rank = take_len(&mut rest)?;
        if rank > 8 {
            return Err(CodecError::Corrupt(format!("implausible rank {rank}")));
        }
        let dims = (0..rank).map(|_| take_len(&mut rest)).collect::<Result<Vec<_>, _>>()?;
        let shape = Shape::new(dims);
        let Some(plane_bytes) =
            shape.checked_numel().filter(|&n| n <= 1 << 33).and_then(|n| n.checked_mul(4))
        else {
            return Err(CodecError::Corrupt(format!("implausible element count for dims {shape}")));
        };
        let payload_len = take_len(&mut rest)?;
        let body = take(&mut rest, payload_len, "payload")?;
        // Checked before the zero runs expand, so a resealed frame cannot
        // make the decoder allocate a layer its base lacks.
        let b = base(&name)
            .filter(|b| b.shape() == &shape)
            .ok_or_else(|| CodecError::MissingBase(name.clone()))?;

        let planes = rle::decode(body, plane_bytes)
            .ok_or(CodecError::Corrupt("bad rle stream".into()))?;
        let words =
            byteplane::merge(&planes).ok_or(CodecError::Corrupt("bad byte planes".into()))?;
        let tensor = match mode {
            MODE_RAW => {
                let data: Vec<f32> = words.into_iter().map(f32::from_bits).collect();
                Tensor::from_vec(shape, data)
                    .map_err(|e| CodecError::Corrupt(format!("bad tensor: {e}")))?
            }
            MODE_DELTA => {
                delta::apply(b, &words).ok_or_else(|| CodecError::MissingBase(name.clone()))?
            }
            other => return Err(CodecError::Corrupt(format!("unknown mode {other}"))),
        };
        out.push((name, tensor));
    }
    if !rest.is_empty() {
        return Err(CodecError::Corrupt("trailing bytes".into()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlib_tensor::Pcg32;
    use std::collections::BTreeMap;

    fn nearby(base: &Tensor, step: f32) -> Tensor {
        let mut t = base.clone();
        for v in t.data_mut().iter_mut() {
            *v += step * *v * 1e-4;
        }
        t
    }

    #[test]
    fn delta_mode_round_trips_and_compresses() {
        let mut rng = Pcg32::seeded(1);
        let base = Tensor::rand_normal([64, 64], 0.5, 0.2, &mut rng);
        let derived = nearby(&base, 1.0);
        let entries = vec![("fc.weight", &derived)];
        let base_fn = |name: &str| (name == "fc.weight").then_some(&base);
        let enc = encode_update(&entries, &base_fn);
        assert_eq!(enc.delta_entries, 1);
        assert!(enc.ratio() > 1.2, "ratio {}", enc.ratio());
        let dec = decode_update(&enc.bytes, &base_fn).unwrap();
        assert_eq!(dec.len(), 1);
        assert!(dec[0].1.bit_eq(&derived));
    }

    #[test]
    fn raw_fallback_round_trips_unrelated_tensors() {
        let mut rng = Pcg32::seeded(2);
        let base = Tensor::rand_normal([32, 32], 0.0, 1.0, &mut rng);
        let unrelated = Tensor::rand_normal([32, 32], 0.0, 1.0, &mut rng);
        let entries = vec![("w", &unrelated)];
        let base_fn = |name: &str| (name == "w").then_some(&base);
        let enc = encode_update(&entries, &base_fn);
        let dec = decode_update(&enc.bytes, &base_fn).unwrap();
        assert!(dec[0].1.bit_eq(&unrelated));
        // Never (meaningfully) larger than raw.
        assert!(enc.bytes.len() as u64 <= enc.raw_bytes + 128);
    }

    #[test]
    fn entries_without_base_are_raw() {
        let t = Tensor::ones([10]);
        let entries = vec![("new.layer", &t)];
        let none = |_: &str| None;
        let enc = encode_update(&entries, &none);
        assert_eq!(enc.raw_entries, 1);
        let base = Tensor::zeros([10]);
        let dec = decode_update(&enc.bytes, &|_| Some(&base)).unwrap();
        assert!(dec[0].1.bit_eq(&t));
    }

    /// A raw entry decodes only onto a same-named, same-shaped base tensor,
    /// like a delta entry: the base bounds the zero runs it may expand.
    #[test]
    fn a_raw_entry_the_base_lacks_or_shapes_otherwise_is_refused() {
        let t = Tensor::ones([10]);
        let enc = encode_update(&[("w", &t)], &|_| None);
        assert_eq!(enc.raw_entries, 1);
        let refused = Some(CodecError::MissingBase("w".into()));
        let named_otherwise = Tensor::zeros([10]);
        let got = decode_update(&enc.bytes, &|name| (name == "v").then_some(&named_otherwise));
        assert_eq!(got.err(), refused);
        let shaped_otherwise = Tensor::zeros([5, 2]);
        let got = decode_update(&enc.bytes, &|name| (name == "w").then_some(&shaped_otherwise));
        assert_eq!(got.err(), refused);
    }

    #[test]
    fn missing_base_at_decode_is_reported() {
        let mut rng = Pcg32::seeded(3);
        let base = Tensor::rand_normal([128], 0.5, 0.1, &mut rng);
        let derived = nearby(&base, 1.0);
        let entries = vec![("w", &derived)];
        let with_base = |name: &str| (name == "w").then_some(&base);
        let enc = encode_update(&entries, &with_base);
        if enc.delta_entries == 1 {
            let none = |_: &str| None;
            assert!(matches!(decode_update(&enc.bytes, &none), Err(CodecError::MissingBase(_))));
        }
    }

    #[test]
    fn corruption_is_detected() {
        let t = Tensor::ones([100]);
        let entries = vec![("w", &t)];
        let none = |_: &str| None;
        let enc = encode_update(&entries, &none);
        let base = |name: &str| (name == "w").then_some(&t);
        assert!(decode_update(&enc.bytes, &base).is_ok());
        for pos in [0usize, 6, enc.bytes.len() / 2, enc.bytes.len() - 33] {
            let mut bad = enc.bytes.clone();
            bad[pos] ^= 1;
            assert!(decode_update(&bad, &base).is_err(), "corruption at {pos} accepted");
        }
        assert!(decode_update(&enc.bytes[..enc.bytes.len() - 1], &base).is_err());
    }

    #[test]
    fn multi_entry_updates_preserve_order() {
        let mut rng = Pcg32::seeded(4);
        let tensors: BTreeMap<String, Tensor> = (0..5)
            .map(|i| (format!("layer{i}.weight"), Tensor::rand_normal([16, 16], 0.0, 1.0, &mut rng)))
            .collect();
        let entries: Vec<(&str, &Tensor)> =
            tensors.iter().map(|(n, t)| (n.as_str(), t)).collect();
        let none = |_: &str| None;
        let enc = encode_update(&entries, &none);
        let base = |name: &str| tensors.get(name);
        let dec = decode_update(&enc.bytes, &base).unwrap();
        for ((n1, t1), (n2, t2)) in entries.iter().zip(&dec) {
            assert_eq!(*n1, n2);
            assert!(t1.bit_eq(t2));
        }
    }
}
