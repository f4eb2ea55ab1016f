//! Single-file dataset container.
//!
//! The provenance approach "compresses [the dataset] to a single file, saves
//! it, and references the file" (§3.3). The evaluation images are JPEGs —
//! already entropy-coded, so a container gains structure, not compression.
//! This container concatenates the blobs behind an index and seals the file
//! with a SHA-256 trailer:
//!
//! ```text
//! MAGIC "MMDC" | version u16 | name_len u16 | name | images u64 | total u64
//! | per-image: len u32 | blob bytes ...
//! | trailer: sha256 over everything above (32 bytes)
//! ```
//!
//! [`unpack`] reads bytes from disk or the wire, so it is written with
//! checked indexing and arithmetic throughout, like the wire decoder.
#![cfg_attr(not(test), deny(clippy::indexing_slicing, clippy::arithmetic_side_effects))]

use mmlib_tensor::hash::{Digest, Sha256};

use crate::catalog::DatasetId;
use crate::dataset::{content_digest, Dataset};

const MAGIC: &[u8; 4] = b"MMDC";
const VERSION: u16 = 1;

/// Errors from container encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// Header, index, or payload is malformed or truncated.
    Corrupt(String),
    /// The SHA-256 trailer does not match the content.
    ChecksumMismatch {
        /// Digest recorded in the trailer.
        stored: Digest,
        /// Digest recomputed over the payload.
        computed: Digest,
    },
    /// The container names a dataset this build does not know.
    UnknownDataset(String),
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::Corrupt(m) => write!(f, "corrupt dataset container: {m}"),
            ContainerError::ChecksumMismatch { stored, computed } => {
                write!(f, "container checksum mismatch: stored {stored}, computed {computed}")
            }
            ContainerError::UnknownDataset(n) => write!(f, "unknown dataset {n}"),
        }
    }
}

impl std::error::Error for ContainerError {}

/// Packs a dataset into the single-file container format, returning the
/// container and the dataset's [`content_digest`] over the blobs it packed:
/// each blob is generated once and feeds both.
pub fn pack(dataset: &Dataset) -> (Vec<u8>, Digest) {
    let name = dataset.id().short_name();
    let mut out = Vec::with_capacity((dataset.total_bytes() as usize).saturating_add(64));
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&dataset.len().to_le_bytes());
    out.extend_from_slice(&dataset.total_bytes().to_le_bytes());
    let blobs = (0..dataset.len()).map(|i| {
        let blob = dataset.blob(i);
        out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        out.extend_from_slice(&blob);
        blob
    });
    let digest = content_digest(dataset.id(), dataset.len(), dataset.total_bytes(), blobs);
    let mut h = Sha256::new();
    h.update(&out);
    out.extend_from_slice(&h.finalize().0);
    (out, digest)
}

/// A decoded container: the named dataset and its blob payloads, borrowed
/// from the container bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Unpacked<'a> {
    /// The dataset the container claims to hold.
    pub id: DatasetId,
    /// Per-image blobs in index order.
    pub blobs: Vec<&'a [u8]>,
}

impl Unpacked<'_> {
    /// The [`content_digest`] of the blobs this container holds.
    pub fn content_digest(&self) -> Digest {
        let total = self.blobs.iter().map(|b| b.len() as u64).sum();
        content_digest(self.id, self.blobs.len() as u64, total, &self.blobs)
    }
}

/// Splits the first `n` bytes off `rest`.
fn take<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], ContainerError> {
    let (head, tail) =
        rest.split_at_checked(n).ok_or_else(|| ContainerError::Corrupt("truncated".into()))?;
    *rest = tail;
    Ok(head)
}

/// Splits the first `N` bytes off `rest`, as an array.
fn take_array<const N: usize>(rest: &mut &[u8]) -> Result<[u8; N], ContainerError> {
    let (head, tail) =
        rest.split_first_chunk::<N>().ok_or_else(|| ContainerError::Corrupt("truncated".into()))?;
    *rest = tail;
    Ok(*head)
}

/// Unpacks and verifies a container produced by [`pack`].
pub fn unpack(bytes: &[u8]) -> Result<Unpacked<'_>, ContainerError> {
    let Some((payload, trailer)) = bytes.split_last_chunk::<32>() else {
        return Err(ContainerError::Corrupt("too short".into()));
    };
    let mut h = Sha256::new();
    h.update(payload);
    let computed = h.finalize();
    let stored = Digest(*trailer);
    if stored != computed {
        return Err(ContainerError::ChecksumMismatch { stored, computed });
    }

    let mut rest = payload;
    if take_array::<4>(&mut rest)? != *MAGIC {
        return Err(ContainerError::Corrupt("bad magic".into()));
    }
    let version = u16::from_le_bytes(take_array(&mut rest)?);
    if version != VERSION {
        return Err(ContainerError::Corrupt(format!("unsupported version {version}")));
    }
    let name_len = usize::from(u16::from_le_bytes(take_array(&mut rest)?));
    let name = std::str::from_utf8(take(&mut rest, name_len)?)
        .map_err(|_| ContainerError::Corrupt("name not utf-8".into()))?
        .to_string();
    let id = DatasetId::from_short_name(&name).ok_or(ContainerError::UnknownDataset(name))?;
    let images = u64::from_le_bytes(take_array(&mut rest)?);
    let total = u64::from_le_bytes(take_array(&mut rest)?);
    // The header's image count is untrusted: every image takes at least its
    // 4-byte length, so the remaining payload bounds the reservation.
    let mut blobs = Vec::with_capacity(images.min(rest.len() as u64 / 4) as usize);
    let mut seen = 0u64;
    for _ in 0..images {
        let len = u32::from_le_bytes(take_array(&mut rest)?);
        blobs.push(take(&mut rest, len as usize)?);
        seen = seen.saturating_add(u64::from(len));
    }
    if !rest.is_empty() {
        return Err(ContainerError::Corrupt("trailing bytes before checksum".into()));
    }
    if seen != total {
        return Err(ContainerError::Corrupt(format!(
            "index total {total} disagrees with payload {seen}"
        )));
    }
    Ok(Unpacked { id, blobs })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::new(DatasetId::CocoFood512, 0.0002)
    }

    #[test]
    fn pack_unpack_round_trip() {
        let d = tiny();
        let (packed, digest) = pack(&d);
        let un = unpack(&packed).unwrap();
        assert_eq!(un.id, d.id());
        assert_eq!(digest, d.content_digest(), "packed blobs are the generated ones");
        assert_eq!(un.content_digest(), digest, "and so are the unpacked ones");
        assert_eq!(un.blobs.len() as u64, d.len());
        for (i, blob) in un.blobs.iter().enumerate() {
            assert_eq!(*blob, d.blob(i as u64).as_slice());
        }
    }

    #[test]
    fn container_size_tracks_dataset_size() {
        let d = tiny();
        let (packed, _) = pack(&d);
        let overhead = packed.len() as u64 - d.total_bytes();
        // index: 4 bytes per image + header + trailer
        assert_eq!(overhead, 4 * d.len() + 4 + 2 + 2 + 6 + 8 + 8 + 32);
    }

    #[test]
    fn flipping_any_payload_bit_is_detected() {
        let (packed, _) = pack(&tiny());
        for &pos in &[0usize, 10, 100, packed.len() / 2, packed.len() - 40] {
            let mut corrupt = packed.clone();
            corrupt[pos] ^= 0x01;
            match unpack(&corrupt) {
                Err(ContainerError::ChecksumMismatch { .. }) | Err(ContainerError::Corrupt(_)) => {}
                other => panic!("corruption at {pos} not detected: {other:?}"),
            }
        }
    }

    /// Seals `payload` with a valid trailer, as a hostile writer could.
    fn reseal(mut payload: Vec<u8>) -> Vec<u8> {
        let mut h = Sha256::new();
        h.update(&payload);
        payload.extend_from_slice(&h.finalize().0);
        payload
    }

    #[test]
    fn resealed_header_claiming_u64_max_images_over_an_empty_body_is_corrupt() {
        let name = DatasetId::CocoFood512.short_name();
        let mut payload = Vec::new();
        payload.extend_from_slice(MAGIC);
        payload.extend_from_slice(&VERSION.to_le_bytes());
        payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
        payload.extend_from_slice(name.as_bytes());
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(unpack(&reseal(payload)), Err(ContainerError::Corrupt(_))));
    }

    #[test]
    fn truncation_is_detected() {
        let (packed, _) = pack(&tiny());
        assert!(unpack(&packed[..packed.len() - 1]).is_err());
        assert!(unpack(&packed[..10]).is_err());
        assert!(unpack(&[]).is_err());
    }
}
