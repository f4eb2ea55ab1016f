//! Materialized datasets: deterministic blobs, pixels, and labels.

use mmlib_tensor::hash::{Digest, Sha256};
use mmlib_tensor::{Pcg32, Tensor};

use crate::catalog::{DatasetId, DatasetSpec};

/// A synthetic dataset: a [`DatasetSpec`] plus deterministic content.
///
/// The dataset is *virtual* — blobs are generated on demand from the
/// dataset seed, so a 6.3 GB dataset costs nothing until a use case actually
/// stores it. Content is a pure function of `(dataset seed, image index)`:
/// two machines agree bit-for-bit, which is what makes the provenance
/// approach's dataset reference verifiable.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    spec: DatasetSpec,
}

/// Number of label classes (ImageNet-1k, as in the paper's models).
pub const NUM_CLASSES: u32 = 1000;

impl Dataset {
    /// Materializes a Table 1 dataset at the given byte-size scale.
    pub fn new(id: DatasetId, scale: f64) -> Dataset {
        Dataset { spec: id.spec(scale) }
    }

    /// The dataset's spec.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// The dataset id.
    pub fn id(&self) -> DatasetId {
        self.spec.id
    }

    /// Number of images.
    pub fn len(&self) -> u64 {
        self.spec.images
    }

    /// True if the dataset holds no images (never for Table 1 datasets).
    pub fn is_empty(&self) -> bool {
        self.spec.images == 0
    }

    /// Total blob bytes.
    pub fn total_bytes(&self) -> u64 {
        self.spec.total_bytes
    }

    /// Per-image PRNG, stream-separated by purpose.
    fn image_rng(&self, index: u64, stream: u64) -> Pcg32 {
        Pcg32::new(self.spec.id.seed() ^ index.wrapping_mul(0x9e3779b97f4a7c15), stream)
    }

    /// The raw "compressed image" blob for image `index`.
    ///
    /// JPEG-like: high-entropy bytes whose size matches the spec. Generated,
    /// not stored, so it is cheap to own huge datasets.
    pub fn blob(&self, index: u64) -> Vec<u8> {
        let n = self.spec.blob_bytes(index) as usize;
        let mut rng = self.image_rng(index, 1);
        let mut out = Vec::with_capacity(n);
        while out.len() + 4 <= n {
            out.extend_from_slice(&rng.next_u32().to_le_bytes());
        }
        while out.len() < n {
            out.push((rng.next_u32() & 0xff) as u8);
        }
        out
    }

    /// The decoded pixel tensor `[3, res, res]` for image `index`.
    ///
    /// Stands in for JPEG decode + resize: pixels are a deterministic
    /// function of the image identity, channel-wise normalized roughly like
    /// ImageNet preprocessing output.
    pub fn image_tensor(&self, index: u64, resolution: usize) -> Tensor {
        let mut rng = self.image_rng(index, 2);
        let n = 3 * resolution * resolution;
        let data: Vec<f32> = (0..n).map(|_| rng.normal(0.0, 1.0)).collect();
        Tensor::from_vec([3, resolution, resolution], data).expect("length by construction")
    }

    /// The class label for image `index` (0..1000).
    pub fn label(&self, index: u64) -> u32 {
        self.image_rng(index, 3).below(NUM_CLASSES)
    }

    /// The dataset's [`content_digest`], over freshly generated blobs (the
    /// check for a dataset that is referenced, not stored).
    pub fn content_digest(&self) -> Digest {
        let blobs = (0..self.len()).map(|i| self.blob(i));
        content_digest(self.id(), self.len(), self.total_bytes(), blobs)
    }
}

/// SHA-256 over a dataset's identity and its blob bytes: the checksum the
/// provenance approach records for its dataset reference. A save computes
/// it over the blobs it packs, a recovery over the blobs it unpacked from
/// the stored container, so the recorded value vouches for the stored
/// bytes; `images` and `total_bytes` are the count and summed length of
/// `blobs`.
pub fn content_digest<B: AsRef<[u8]>>(
    id: DatasetId,
    images: u64,
    total_bytes: u64,
    blobs: impl IntoIterator<Item = B>,
) -> Digest {
    let mut h = Sha256::new();
    h.update(id.short_name().as_bytes());
    h.update(&images.to_le_bytes());
    h.update(&total_bytes.to_le_bytes());
    for blob in blobs {
        h.update(blob.as_ref());
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::new(DatasetId::CocoOutdoor512, 0.0005)
    }

    #[test]
    fn blobs_are_deterministic_and_sized() {
        let d = small();
        let b1 = d.blob(0);
        let b2 = d.blob(0);
        assert_eq!(b1, b2);
        assert_eq!(b1.len() as u64, d.spec().blob_bytes(0));
        assert_ne!(d.blob(0), d.blob(1));
    }

    #[test]
    fn total_blob_bytes_match_spec() {
        let d = small();
        let total: u64 = (0..d.len()).map(|i| d.blob(i).len() as u64).sum();
        assert_eq!(total, d.total_bytes());
    }

    #[test]
    fn pixels_are_deterministic_and_distinct_per_image() {
        let d = small();
        assert!(d.image_tensor(3, 8).bit_eq(&d.image_tensor(3, 8)));
        assert!(!d.image_tensor(3, 8).bit_eq(&d.image_tensor(4, 8)));
        assert_eq!(d.image_tensor(0, 16).shape().dims(), &[3, 16, 16]);
    }

    #[test]
    fn labels_are_deterministic_and_in_range() {
        let d = small();
        for i in 0..32 {
            let l = d.label(i);
            assert!(l < NUM_CLASSES);
            assert_eq!(l, d.label(i));
        }
    }

    #[test]
    fn different_datasets_have_different_content() {
        let a = Dataset::new(DatasetId::CocoFood512, 0.0005);
        let b = Dataset::new(DatasetId::CocoOutdoor512, 0.0005);
        assert_ne!(a.blob(0), b.blob(0));
        assert_ne!(a.label(0), b.label(0) | 0x8000_0000); // labels may collide; digests must not
        assert_ne!(a.content_digest(), b.content_digest());
    }

    #[test]
    fn content_digest_is_stable() {
        let d = small();
        assert_eq!(d.content_digest(), d.content_digest());
    }
}
