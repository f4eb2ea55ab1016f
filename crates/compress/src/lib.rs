//! Compression substrate for the mmlib reproduction.
//!
//! The paper's parameter-update approach stores changed layers verbatim;
//! its discussion of the storage-retraining trade-off (§4.7) and of
//! ModelHub's segmented parameter archive (§5) point at the obvious next
//! step: *encode* the update instead of storing raw floats. This crate
//! implements that extension, entirely from scratch (no external
//! compression crates are in the allowed dependency set):
//!
//! * [`varint`] — LEB128 variable-length integers (framing).
//! * [`rle`] — zero-run-length encoding: long zero runs become two bytes.
//! * [`byteplane`] — splits an `f32` stream into four byte planes. After an
//!   XOR delta, sign/exponent bytes are mostly zero while mantissa bytes
//!   stay noisy, so planes compress very differently — encoding them
//!   separately is what makes the delta codec effective.
//! * [`delta`] — XOR deltas between equal-shape tensors.
//! * [`codec`] — the composed update codec:
//!   `xor-delta → byte planes → per-plane zero-RLE → framed + checksummed`,
//!   with a store-raw fallback per tensor whenever encoding would not
//!   actually shrink it (compression never loses, by construction).
//!
//! The codec is **lossless and bit-exact**, as everything in mmlib must be:
//! decoding reproduces the original tensor to the bit, including NaN
//! payloads and signed zeros. Property tests enforce this.

pub mod byteplane;
pub mod codec;
pub mod delta;
pub mod rle;
pub mod varint;

pub use codec::{decode_update, encode_update, CodecError, EncodedUpdate};
