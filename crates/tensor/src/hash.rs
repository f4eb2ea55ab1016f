//! SHA-256 and tensor digests.
//!
//! The paper's baseline generates checksums "by hashing the tensor objects"
//! (§3.1) and the parameter-update approach organizes per-layer hashes into a
//! Merkle tree (§3.2). Both need a collision-resistant hash with a stable
//! definition. SHA-256 (FIPS 180-4) is implemented here from scratch because
//! the offline crate set contains no crypto crate; the implementation is
//! validated against the official NIST test vectors in the unit tests.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::tensor::Tensor;

/// Counter of tensor hash operations.
pub(crate) const TENSOR_HASH_OPS_TOTAL: &str = "mmlib_tensor_hash_ops_total";
/// Counter of tensor bytes hashed.
pub(crate) const TENSOR_HASH_BYTES_TOTAL: &str = "mmlib_tensor_hash_bytes_total";

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Lowercase hex rendering of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            use std::fmt::Write;
            // Writing into a String cannot fail; ignore the fmt Result.
            let _ = write!(s, "{b:02x}");
        }
        s
    }

    /// Parses a 64-char lowercase/uppercase hex string.
    pub fn from_hex(hex: &str) -> Option<Self> {
        if hex.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl Serialize for Digest {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.to_hex())
    }
}

impl Deserialize for Digest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::de::Error> {
        let s = String::from_value(v)?;
        Digest::from_hex(&s).ok_or_else(|| serde::de::Error::custom("invalid digest hex"))
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// Feed bytes with [`Sha256::update`] and finish with [`Sha256::finalize`].
/// For one-shot hashing use [`sha256`].
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buffer: [0u8; 64], buffer_len: 0, total_len: 0 }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        // Aligned blocks compress straight out of the input slice; the
        // `try_into` cannot fail for a `chunks_exact(64)` chunk, and the
        // match keeps the hot loop free of any panic path.
        let blocks = input.chunks_exact(64);
        let tail = blocks.remainder();
        for block in blocks {
            if let Ok(block) = block.try_into() {
                self.compress(block);
            }
        }
        if !tail.is_empty() {
            self.buffer[..tail.len()].copy_from_slice(tail);
            self.buffer_len = tail.len();
        }
    }

    /// Completes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length.
        self.update_padding(0x80);
        while self.buffer_len != 56 {
            self.update_padding(0x00);
        }
        let len_bytes = bit_len.to_be_bytes();
        self.buffer[56..64].copy_from_slice(&len_bytes);
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    fn update_padding(&mut self, byte: u8) {
        self.buffer[self.buffer_len] = byte;
        self.buffer_len += 1;
        if self.buffer_len == 64 {
            let block = self.buffer;
            self.compress(&block);
            self.buffer_len = 0;
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
        #[inline(always)]
        fn ssig0(x: u32) -> u32 {
            x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
        }
        #[inline(always)]
        fn ssig1(x: u32) -> u32 {
            x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
        }
        #[inline(always)]
        fn bsig0(x: u32) -> u32 {
            x.rotate_right(2) ^ x.rotate_right(13) ^ x.rotate_right(22)
        }
        #[inline(always)]
        fn bsig1(x: u32) -> u32 {
            x.rotate_right(6) ^ x.rotate_right(11) ^ x.rotate_right(25)
        }
        // One FIPS 180-4 round. The working variables are passed in rotated
        // role order instead of being shuffled `h = g; g = f; ...` after each
        // round: the shuffle is pure register pressure that the 64-iteration
        // loop form forces the compiler to materialize, and removing it (plus
        // the rolling 16-word schedule below) is where the save-path hash
        // throughput comes from.
        macro_rules! rnd {
            ($a:expr, $b:expr, $c:expr, $d:expr, $e:expr, $f:expr, $g:expr, $h:expr, $kw:expr) => {
                let t1 = $h
                    .wrapping_add(bsig1($e))
                    .wrapping_add(($e & $f) ^ (!$e & $g))
                    .wrapping_add($kw);
                let t2 = bsig0($a).wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(t2);
            };
        }
        let mut w = [0u32; 16];
        for (wi, be) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes([be[0], be[1], be[2], be[3]]);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for quarter in 0..4 {
            if quarter > 0 {
                // Rolling message schedule: w[j] currently holds w[16(q-1)+j]
                // and becomes w[16q+j]. Indices (j+1)&15 and (j+9)&15 pick up
                // already-updated slots exactly when FIPS 180-4 needs the
                // newer word.
                for j in 0..16 {
                    w[j] = w[j]
                        .wrapping_add(ssig0(w[(j + 1) & 15]))
                        .wrapping_add(w[(j + 9) & 15])
                        .wrapping_add(ssig1(w[(j + 14) & 15]));
                }
            }
            let k = &K[quarter * 16..quarter * 16 + 16];
            rnd!(a, b, c, d, e, f, g, h, k[0].wrapping_add(w[0]));
            rnd!(h, a, b, c, d, e, f, g, k[1].wrapping_add(w[1]));
            rnd!(g, h, a, b, c, d, e, f, k[2].wrapping_add(w[2]));
            rnd!(f, g, h, a, b, c, d, e, k[3].wrapping_add(w[3]));
            rnd!(e, f, g, h, a, b, c, d, k[4].wrapping_add(w[4]));
            rnd!(d, e, f, g, h, a, b, c, k[5].wrapping_add(w[5]));
            rnd!(c, d, e, f, g, h, a, b, k[6].wrapping_add(w[6]));
            rnd!(b, c, d, e, f, g, h, a, k[7].wrapping_add(w[7]));
            rnd!(a, b, c, d, e, f, g, h, k[8].wrapping_add(w[8]));
            rnd!(h, a, b, c, d, e, f, g, k[9].wrapping_add(w[9]));
            rnd!(g, h, a, b, c, d, e, f, k[10].wrapping_add(w[10]));
            rnd!(f, g, h, a, b, c, d, e, k[11].wrapping_add(w[11]));
            rnd!(e, f, g, h, a, b, c, d, k[12].wrapping_add(w[12]));
            rnd!(d, e, f, g, h, a, b, c, k[13].wrapping_add(w[13]));
            rnd!(c, d, e, f, g, h, a, b, k[14].wrapping_add(w[14]));
            rnd!(b, c, d, e, f, g, h, a, k[15].wrapping_add(w[15]));
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot SHA-256 of a byte slice.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Digest of a tensor: shape dims (as little-endian u64s) followed by the
/// raw little-endian `f32` data.
///
/// Including the shape means two tensors with identical bytes but different
/// shapes hash differently, which the Merkle layer relies on.
pub fn hash_tensor(t: &Tensor) -> Digest {
    let obs = mmlib_obs::recorder();
    obs.inc(TENSOR_HASH_OPS_TOTAL, 1);
    obs.inc(TENSOR_HASH_BYTES_TOTAL, t.data().len() as u64 * 4);
    let mut h = Sha256::new();
    h.update(&(t.shape().rank() as u64).to_le_bytes());
    for &d in t.shape().dims() {
        h.update(&(d as u64).to_le_bytes());
    }
    // Hash in 1024-element strides to avoid a full byte-buffer copy while
    // amortizing the per-`update` bookkeeping over 64 compression blocks.
    let mut chunk_bytes = [0u8; 4096];
    for chunk in t.data().chunks(1024) {
        for (i, v) in chunk.iter().enumerate() {
            chunk_bytes[i * 4..(i + 1) * 4].copy_from_slice(&v.to_le_bytes());
        }
        h.update(&chunk_bytes[..chunk.len() * 4]);
    }
    h.finalize()
}

/// Combines two digests into a parent digest (Merkle interior node).
pub fn hash_pair(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&left.0);
    h.update(&right.0);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    // NIST FIPS 180-4 test vectors.
    #[test]
    fn nist_empty() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_448_bits() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let oneshot = sha256(&data);
        for split in [0, 1, 63, 64, 65, 100, 3999] {
            let mut h = Sha256::new();
            h.update(&data[..split.min(data.len())]);
            h.update(&data[split.min(data.len())..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn hex_round_trip() {
        let d = sha256(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(&"0".repeat(63)), None);
    }

    #[test]
    fn tensor_hash_includes_shape() {
        let a = Tensor::from_vec([2, 3], vec![1.0; 6]).unwrap();
        let b = Tensor::from_vec([3, 2], vec![1.0; 6]).unwrap();
        assert_ne!(hash_tensor(&a), hash_tensor(&b));
    }

    #[test]
    fn tensor_hash_sensitive_to_single_bit() {
        let a = Tensor::from_vec([4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut b = a.clone();
        b.data_mut()[2] = f32::from_bits(3.0f32.to_bits() ^ 1);
        assert_ne!(hash_tensor(&a), hash_tensor(&b));
    }

    #[test]
    fn hash_pair_is_order_sensitive() {
        let a = sha256(b"a");
        let b = sha256(b"b");
        assert_ne!(hash_pair(&a, &b), hash_pair(&b, &a));
    }

    #[test]
    fn digest_serde_round_trip() {
        let d = sha256(b"serde");
        let json = serde_json::to_string(&d).unwrap();
        let back: Digest = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
