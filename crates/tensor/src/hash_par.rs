//! Parallel digest computation over the crossbeam worker pool.
//!
//! The save hot path hashes every state entry of a model (~200 tensors for
//! MobileNetV2), and before this module that cost was a flat ~68 ms per save
//! (serial SHA-256 over ~14 MB) under *every* approach. Each entry digest is
//! independent, so the map is embarrassingly parallel — and unlike the float
//! reductions in [`crate::ops`], SHA-256 has no combine order: the parallel
//! path is **byte-identical** to the serial one by construction, with
//! results placed back in input order.
//!
//! Determinism contract: worker count never affects any digest, only wall
//! time. The count comes from [`hash_workers`] (the `MMLIB_HASH_THREADS`
//! override, else detected cores) so benches pin it; a panicking worker
//! degrades to the serial map. No wall-clock reads happen here (D1): timing
//! attribution lives in `mmlib-core`'s phase clocks, this module only counts
//! work via monotone counters.

use crate::hash::{hash_tensor, Digest};
use crate::tensor::Tensor;

/// Environment override for the hashing worker count.
pub const HASH_THREADS_ENV: &str = "MMLIB_HASH_THREADS";

/// Upper bound on workers; protects against absurd override values.
pub const MAX_HASH_WORKERS: usize = 64;

/// Minimum number of jobs before spawning threads is worth the overhead.
const MIN_PARALLEL_JOBS: usize = 4;

/// Resolved hashing worker count: `MMLIB_HASH_THREADS` if set to a positive
/// integer, else the detected core count, clamped to `1..=64`.
///
/// Read on every call (not cached) so tests and benches can pin it without
/// process-global state; the var is consulted a handful of times per save.
pub fn hash_workers() -> usize {
    std::env::var(HASH_THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(detected_workers)
        .min(MAX_HASH_WORKERS)
}

fn detected_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Maps `hash` over `jobs` on up to `workers` threads, returning digests in
/// input order — byte-identical to the serial `jobs.iter().map(hash)`.
///
/// Jobs are split into one contiguous chunk per worker. Every handle is
/// joined explicitly: under the std-scope crossbeam shim an unjoined
/// panicked worker re-panics the scope, so collecting per-handle results is
/// what makes the serial fallback reachable. If any worker panics the whole
/// map is recomputed serially on the calling thread (the closure runs on the
/// caller there, which the proptests use to force the fallback).
pub fn digest_map_with<T, F>(jobs: &[T], workers: usize, hash: F) -> Vec<Digest>
where
    T: Sync,
    F: Fn(&T) -> Digest + Sync,
{
    let workers = workers.clamp(1, MAX_HASH_WORKERS).min(jobs.len());
    if workers <= 1 || jobs.len() < MIN_PARALLEL_JOBS {
        return jobs.iter().map(&hash).collect();
    }
    let obs = mmlib_obs::recorder();
    let chunk = jobs.len().div_ceil(workers);
    let parallel = crossbeam::scope(|s| {
        let hash = &hash;
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|part| s.spawn(move |_| part.iter().map(hash).collect::<Vec<Digest>>()))
            .collect();
        // Join *every* handle before deciding the outcome — bailing on the
        // first Err would leave later panicked threads unjoined and the
        // scope itself would re-panic instead of letting us fall back.
        let mut out = Vec::with_capacity(jobs.len());
        let mut panicked = false;
        for handle in handles {
            match handle.join() {
                Ok(part) if !panicked => out.extend(part),
                Ok(_) => {}
                Err(_) => panicked = true,
            }
        }
        if panicked {
            None
        } else {
            Some(out)
        }
    });
    match parallel {
        Ok(Some(digests)) => {
            obs.inc("mmlib_tensor_hash_parallel_ops_total", digests.len() as u64);
            digests
        }
        // A worker panicked (or the scope shim reported one): recompute the
        // whole map serially. Digests are pure functions of the input, so
        // the result is identical to a clean parallel run.
        _ => {
            obs.inc("mmlib_tensor_hash_parallel_fallback_total", 1);
            jobs.iter().map(&hash).collect()
        }
    }
}

/// Hashes each tensor with [`hash_tensor`] across the worker pool resolved
/// by [`hash_workers`], preserving input order.
pub fn hash_tensors(tensors: &[&Tensor]) -> Vec<Digest> {
    hash_tensors_with(tensors, hash_workers())
}

/// [`hash_tensors`] with an explicit worker count (tests pin this instead of
/// mutating the process environment).
pub fn hash_tensors_with(tensors: &[&Tensor], workers: usize) -> Vec<Digest> {
    digest_map_with(tensors, workers, |t| hash_tensor(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::sha256;
    use crate::prng::Pcg32;
    use crate::shape::Shape;

    fn tensors(n: usize) -> Vec<Tensor> {
        let mut rng = Pcg32::seeded(7);
        (0..n)
            .map(|i| {
                Tensor::rand_normal(Shape::new(vec![1 + i % 5, 3]), 0.0, 1.0, &mut rng)
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial_for_various_worker_counts() {
        let owned = tensors(23);
        let refs: Vec<&Tensor> = owned.iter().collect();
        let serial: Vec<Digest> = refs.iter().map(|t| hash_tensor(t)).collect();
        for workers in [1, 2, 3, 8, 64] {
            assert_eq!(hash_tensors_with(&refs, workers), serial, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let refs: Vec<&Tensor> = Vec::new();
        assert!(hash_tensors_with(&refs, 4).is_empty());
        let owned = tensors(1);
        let refs: Vec<&Tensor> = owned.iter().collect();
        assert_eq!(hash_tensors_with(&refs, 4), vec![hash_tensor(&owned[0])]);
    }

    #[test]
    fn worker_panic_falls_back_to_serial() {
        let jobs: Vec<u32> = (0..32).collect();
        let main = std::thread::current().id();
        // Panics on every spawned worker; succeeds on the calling thread,
        // so only the serial fallback can produce a result.
        let digests = digest_map_with(&jobs, 8, |j| {
            assert_eq!(std::thread::current().id(), main, "forced worker panic");
            sha256(&j.to_le_bytes())
        });
        let expect: Vec<Digest> = jobs.iter().map(|j| sha256(&j.to_le_bytes())).collect();
        assert_eq!(digests, expect);
    }

    #[test]
    fn hash_workers_env_override() {
        // Sibling tests never read the var, so the temporary mutation is
        // safe; digests are worker-count independent anyway.
        std::env::set_var(HASH_THREADS_ENV, "3");
        assert_eq!(hash_workers(), 3);
        std::env::set_var(HASH_THREADS_ENV, "0");
        assert!(hash_workers() >= 1);
        std::env::set_var(HASH_THREADS_ENV, "9999");
        assert_eq!(hash_workers(), 64);
        std::env::remove_var(HASH_THREADS_ENV);
        assert!(hash_workers() >= 1);
    }
}
