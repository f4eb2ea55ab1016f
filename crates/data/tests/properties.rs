//! Property-based tests of the data substrate: container round trips under
//! arbitrary scales, loader determinism, and corruption detection.

use mmlib_data::loader::LoaderConfig;
use mmlib_data::{container, DataLoader, Dataset, DatasetId};
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (0usize..4, 1u32..50).prop_map(|(idx, scale_thousandths)| {
        let id = DatasetId::all()[idx];
        // Keep tests tiny: up to 5% of mINet and far less of INet.
        let scale = scale_thousandths as f64 / 1000.0 * 100_000.0 / id.paper_bytes() as f64;
        Dataset::new(id, scale.clamp(1e-6, 1.0))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn container_round_trip(dataset in arb_dataset()) {
        let (packed, digest) = container::pack(&dataset);
        let unpacked = container::unpack(&packed).unwrap();
        prop_assert_eq!(unpacked.id, dataset.id());
        prop_assert_eq!(unpacked.content_digest(), digest);
        prop_assert_eq!(unpacked.blobs.len() as u64, dataset.len());
        let total: u64 = unpacked.blobs.iter().map(|b| b.len() as u64).sum();
        prop_assert_eq!(total, dataset.total_bytes());
    }

    #[test]
    fn container_detects_any_single_bitflip(dataset in arb_dataset(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let (mut packed, _) = container::pack(&dataset);
        let pos = ((packed.len() - 1) as f64 * pos_frac) as usize;
        packed[pos] ^= 1 << bit;
        prop_assert!(container::unpack(&packed).is_err(), "bitflip at {} undetected", pos);
    }

    #[test]
    fn loader_batches_partition_the_epoch(seed in any::<u64>(), batch_size in 1usize..9, max_images in 1u64..33) {
        let dataset = Dataset::new(DatasetId::CocoOutdoor512, 0.0001);
        let loader = DataLoader::new(dataset, LoaderConfig {
            batch_size,
            resolution: 4,
            shuffle: true,
            augment: false,
            seed,
            max_images: Some(max_images),
        });
        let total: usize = loader.epoch(0).map(|b| b.labels.len()).sum();
        prop_assert_eq!(total as u64, loader.epoch_images());
        prop_assert_eq!(loader.epoch(0).count() as u64, loader.batches_per_epoch());
    }

    #[test]
    fn loader_is_pure(seed in any::<u64>(), epoch in 0u64..4, batch in 0u64..3) {
        let dataset = Dataset::new(DatasetId::CocoFood512, 0.0001);
        let config = LoaderConfig { batch_size: 4, resolution: 8, seed, max_images: Some(16), ..Default::default() };
        let a = DataLoader::new(dataset.clone(), config).batch(epoch, batch);
        let b = DataLoader::new(dataset, config).batch(epoch, batch);
        match (a, b) {
            (Some(a), Some(b)) => {
                prop_assert!(a.images.bit_eq(&b.images));
                prop_assert_eq!(a.labels, b.labels);
            }
            (None, None) => {}
            _ => prop_assert!(false, "loaders disagreed on batch existence"),
        }
    }

    #[test]
    fn blob_sizes_always_sum_to_spec(dataset in arb_dataset()) {
        let spec = *dataset.spec();
        let sum: u64 = (0..spec.images).map(|i| spec.blob_bytes(i)).sum();
        prop_assert_eq!(sum, spec.total_bytes);
    }
}

/// Seals `payload` with a valid SHA-256 trailer, as a hostile writer could,
/// so that what follows reaches the parser instead of the checksum.
fn reseal(mut payload: Vec<u8>) -> Vec<u8> {
    let digest = mmlib_tensor::hash::sha256(&payload);
    payload.extend_from_slice(&digest.0);
    payload
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// `unpack` returns, never panics, on arbitrary bytes: as they are, and
    /// resealed behind a valid magic, version and dataset name.
    #[test]
    fn unpack_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = container::unpack(&bytes);
        let (mut payload, _) = container::pack(&Dataset::new(DatasetId::CocoFood512, 0.0001));
        payload.truncate(14);
        payload.extend_from_slice(&bytes);
        let _ = container::unpack(&reseal(payload));
    }

    /// Every single-byte change of a valid container, resealed, is decoded
    /// or refused, never a panic. Half the cases land in the header and the
    /// first index entries, where the parser's lengths live.
    #[test]
    fn unpack_never_panics_on_a_resealed_single_byte_mutation(
        front in any::<bool>(),
        near in 0usize..64,
        frac in 0.0f64..1.0,
        value in any::<u8>(),
    ) {
        let (packed, _) = container::pack(&Dataset::new(DatasetId::CocoFood512, 0.0001));
        let mut payload = packed[..packed.len() - 32].to_vec();
        let pos = if front { near } else { ((payload.len() - 1) as f64 * frac) as usize };
        payload[pos] = value;
        match container::unpack(&reseal(payload)) {
            Ok(unpacked) => prop_assert_eq!(unpacked.id, DatasetId::CocoFood512),
            Err(container::ContainerError::ChecksumMismatch { .. }) => {
                prop_assert!(false, "a resealed container failed its checksum")
            }
            Err(_) => {}
        }
    }
}
