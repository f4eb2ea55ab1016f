//! Save-path hash cache: fingerprint-gated incremental Merkle rebuilds.
//!
//! Without it the `hash` phase is a flat ~68 ms per MobileNetV2 save under
//! every approach: each save re-SHA-256s every parameter byte even
//! though consecutive saves of a training run change only a few layers. The
//! cache closes that gap, trusting a fingerprint match (see the end):
//!
//! 1. Every save computes a cheap 128-bit non-cryptographic *fingerprint*
//!    per state entry (one multiply-mix pass over the raw `f32` bits —
//!    roughly an order of magnitude cheaper than SHA-256).
//! 2. Entries whose fingerprint matches the previous save reuse their cached
//!    SHA-256 digest; changed entries are re-hashed on the parallel pool.
//! 3. Changed layer digests are spliced into the cached tree with
//!    [`MerkleTree::update_leaves`] instead of rebuilding from scratch.
//!
//! Invalidation rules: any entry-path mismatch (different architecture,
//! renamed entries, different entry order) drops the whole cache and takes
//! the full-rebuild path; a failed splice does the same. The tree it
//! returns is byte-identical to `MerkleTree::from_model` (the core
//! proptests enforce this) unless an entry changed and kept its
//! fingerprint. A 128-bit fingerprint makes that very unlikely, not
//! impossible, and for a parameter update it would be silent: the stale
//! cached leaf makes the diff call the layer unchanged, so its new bytes are
//! not stored, and the stored root is built from the same stale leaf, so
//! the recovery, which returns the base's bytes for that layer, verifies.
//! (A snapshot stores every byte, so there the stale root fails the
//! recovery's verification loudly.)

use std::sync::Mutex;

use mmlib_model::Model;
use mmlib_obs::{Recorder, SpanGuard};
use mmlib_tensor::hash::Digest;
use mmlib_tensor::{hash_par, Tensor};

use crate::merkle::{layer_hashes_from_entries, MerkleTree};

/// Sub-phase labels recorded into `mmlib_save_phase_seconds` alongside the
/// coarse `hash` phase, so expositions show where hash time goes. These are
/// histogram labels, not breakdown phases: [`crate::SAVE_PHASES`] and
/// `SaveReport.phases` are unaffected.
pub const HASH_SUBPHASES: [&str; 3] = ["hash_fingerprint", "hash_rehash", "hash_splice"];

/// A 128-bit non-cryptographic fingerprint of a tensor: multiply-mix lanes
/// over the shape dims and raw `f32` bit patterns. Collisions between
/// *different* byte contents are what matters, and at 128 bits they are
/// negligible next to SHA-256's own collision bound.
pub fn fingerprint(t: &Tensor) -> (u64, u64) {
    const M0: u64 = 0x0000_0100_0000_01b3; // FNV-1a prime
    const M1: u64 = 0xff51_afd7_ed55_8ccd; // splitmix64 mixers
    const M2: u64 = 0xc4ce_b9fe_1a85_ec53;
    const M3: u64 = 0x9e37_79b9_7f4a_7c15; // golden ratio
    const MULS: [u64; 4] = [M0, M1, M2, M3];
    let mut a = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    let mut b = M3;
    a ^= t.shape().rank() as u64;
    for &d in t.shape().dims() {
        a = (a ^ d as u64).wrapping_mul(M0);
        b = (b.rotate_left(23) ^ d as u64).wrapping_mul(M1);
    }
    // Data pass: four independent accumulator lanes, elements striped
    // across them. A single chained multiply is latency-bound (each step
    // waits ~4 cycles on the previous product); four disjoint chains keep
    // four multiplies in flight, which is what makes the fingerprint an
    // order of magnitude cheaper than SHA-256 on the save hot path.
    let mut lanes: [u64; 4] = [
        a ^ 0x243f_6a88_85a3_08d3,
        b ^ 0x1319_8a2e_0370_7344,
        a.rotate_left(17) ^ 0xa409_3822_299f_31d0,
        b.rotate_left(31) ^ 0x082e_fa98_ec4e_6c89,
    ];
    let quads = t.data().chunks_exact(4);
    let rest = quads.remainder();
    for quad in quads {
        for i in 0..4 {
            lanes[i] = (lanes[i] ^ u64::from(quad[i].to_bits())).wrapping_mul(MULS[i]);
        }
    }
    // Tail elements re-mix their lane with a rotate so a short tail is
    // distinguishable from a full quad of the same values (the total length
    // is also pinned by the shape dims above).
    for (i, v) in rest.iter().enumerate() {
        lanes[i] =
            (lanes[i] ^ u64::from(v.to_bits())).wrapping_mul(MULS[i]).rotate_left(11);
    }
    a ^= lanes[0].wrapping_mul(M1) ^ lanes[2].rotate_left(29).wrapping_mul(M3);
    b ^= lanes[1].wrapping_mul(M2) ^ lanes[3].rotate_left(13).wrapping_mul(M0);
    (a, b)
}

struct CacheState {
    /// State-entry paths, in state-entry order (the cache key's structure).
    paths: Vec<String>,
    /// Per-entry fingerprints, parallel to `paths`.
    prints: Vec<(u64, u64)>,
    /// Per-entry SHA-256 digests, parallel to `paths`.
    digests: Vec<Digest>,
    /// The Merkle tree of the last save.
    tree: MerkleTree,
}

/// Per-service cache of the last saved model's entry digests and tree.
///
/// Interior mutability because every `SaveService` method takes `&self`;
/// a poisoned lock (a panicking holder) just drops the cached state.
#[derive(Default)]
pub struct HashCache {
    state: Mutex<Option<CacheState>>,
}

impl HashCache {
    /// An empty cache.
    pub fn new() -> HashCache {
        HashCache::default()
    }

    /// Drops any cached state (tests use this to force full rebuilds).
    pub fn clear(&self) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// The Merkle tree of `model`'s current parameters — byte-identical to
    /// [`MerkleTree::from_model`], incrementally when the previous call saw
    /// the same entry structure.
    ///
    /// `obs` receives `hash_*` sub-phase timings under the save-phase
    /// histogram (`mmlib_save_phase_seconds`); callers charge the whole call
    /// to the coarse `hash` phase as before.
    pub fn tree_for_model(&self, model: &Model, obs: &Recorder) -> MerkleTree {
        let span = |phase| SpanGuard::new(obs, crate::report::SAVE_PHASE, ("phase", phase));
        let entries = model.state_entries();
        let tensors: Vec<&Tensor> = entries.iter().map(|(_, t, _, _)| *t).collect();

        let fingerprinting = span("hash_fingerprint");
        let prints: Vec<(u64, u64)> = tensors.iter().map(|t| fingerprint(t)).collect();
        drop(fingerprinting);

        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(state) = guard.as_mut() {
            if state.paths.len() == entries.len()
                && state.paths.iter().zip(&entries).all(|(p, (q, _, _, _))| p == q)
            {
                // Same entry structure: re-hash only fingerprint-changed
                // entries and splice their layers into the cached tree.
                let changed: Vec<usize> =
                    (0..prints.len()).filter(|&i| state.prints[i] != prints[i]).collect();
                let rehashing = span("hash_rehash");
                let changed_tensors: Vec<&Tensor> =
                    changed.iter().map(|&i| tensors[i]).collect();
                let new_digests = hash_par::hash_tensors(&changed_tensors);
                for (&i, d) in changed.iter().zip(&new_digests) {
                    state.digests[i] = *d;
                    state.prints[i] = prints[i];
                }
                drop(rehashing);

                let _splicing = span("hash_splice");
                let layer_hashes = layer_hashes_from_entries(&state.paths, &state.digests);
                let updates: Vec<(String, Digest)> = layer_hashes
                    .into_iter()
                    .filter(|(p, d)| state.tree.leaf(p) != Some(d))
                    .collect();
                if let Some(tree) = state.tree.update_leaves(&updates) {
                    state.tree = tree.clone();
                    return tree;
                }
                // A layer appeared that the cached tree does not know —
                // structurally impossible when entry paths matched, but fall
                // through to the total rebuild rather than trusting it.
            }
        }

        let rehashing = span("hash_rehash");
        let digests = hash_par::hash_tensors(&tensors);
        drop(rehashing);
        let paths: Vec<String> = entries.into_iter().map(|(p, _, _, _)| p).collect();
        let tree = MerkleTree::from_leaves(layer_hashes_from_entries(&paths, &digests));
        *guard = Some(CacheState { paths, prints, digests, tree: tree.clone() });
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmlib_model::ArchId;

    fn recorder() -> Recorder {
        Recorder::new()
    }

    #[test]
    fn cold_cache_matches_from_model() {
        let cache = HashCache::new();
        let model = Model::new_initialized(ArchId::TinyCnn, 3);
        let tree = cache.tree_for_model(&model, &recorder());
        assert_eq!(tree, MerkleTree::from_model(&model));
    }

    #[test]
    fn warm_cache_tracks_mutations_exactly() {
        let cache = HashCache::new();
        let obs = recorder();
        let mut model = Model::new_initialized(ArchId::TinyCnn, 3);
        model.set_fully_trainable();
        cache.tree_for_model(&model, &obs);

        // Mutate one parameter; the incremental tree must equal a rebuild.
        model.visit_trainable_mut(&mut |_, param, _| param.data_mut()[0] += 0.5);
        let warm = cache.tree_for_model(&model, &obs);
        assert_eq!(warm, MerkleTree::from_model(&model));

        // Unchanged model: pure cache hit, still identical.
        let again = cache.tree_for_model(&model, &obs);
        assert_eq!(again, warm);
    }

    #[test]
    fn arch_change_invalidates() {
        let cache = HashCache::new();
        let obs = recorder();
        let a = Model::new_initialized(ArchId::TinyCnn, 1);
        cache.tree_for_model(&a, &obs);
        let b = Model::new_initialized(ArchId::ResNet18, 1);
        assert_eq!(cache.tree_for_model(&b, &obs), MerkleTree::from_model(&b));
    }

    #[test]
    fn fingerprint_is_shape_and_bit_sensitive() {
        let a = Tensor::from_vec([2, 3], vec![1.0; 6]).unwrap();
        let b = Tensor::from_vec([3, 2], vec![1.0; 6]).unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let mut c = a.clone();
        c.data_mut()[4] = f32::from_bits(1.0f32.to_bits() ^ 1);
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }
}
