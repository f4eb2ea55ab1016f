//! Parallel digest computation over the crossbeam worker pool.
//!
//! The save hot path hashes every state entry of a model (262 tensors for
//! MobileNetV2), and so does verification on recovery. Each entry digest is
//! independent, so the map is embarrassingly parallel — and unlike the float
//! reductions in [`crate::ops`], SHA-256 has no combine order: the parallel
//! path is **byte-identical** to the serial one by construction, with
//! results placed back in input order.
//!
//! Entry sizes are very uneven (MobileNetV2's last 131 entries hold 95 % of
//! its bytes), so work is dealt by bytes, not by position: [`hash_tensors`]
//! hands out tensors largest first through one shared cursor, the calling
//! thread works as worker 0, and whichever worker is idle takes the next
//! job. A cursor rather than a fixed split also keeps a worker whose core
//! is busy with other work from holding the rest back.
//!
//! Hashing runs on the calling thread unless `MMLIB_HASH_THREADS` asks for
//! more workers. A detected core is not a free one: on a shared 2-vCPU host
//! two threads hashed two 7 MB buffers anywhere from 1.0× to 2.6× as fast
//! as one, depending on what else ran there, and that spread reached every
//! save and recovery time. One worker is slower but the same run to run.
//!
//! Determinism contract: worker count never affects any digest, only wall
//! time. The count comes from [`hash_workers`] so benches pin it; a
//! panicking worker degrades to the serial map. No wall-clock reads happen
//! here (D1): timing attribution lives in `mmlib-core`'s phase clocks, this
//! module only counts work via monotone counters.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::hash::{hash_tensor, Digest};
use crate::tensor::Tensor;

/// Counter of digests computed on the parallel path.
pub(crate) const TENSOR_HASH_PARALLEL_OPS_TOTAL: &str = "mmlib_tensor_hash_parallel_ops_total";
/// Counter of parallel digest maps recomputed serially after a worker panic.
pub(crate) const TENSOR_HASH_PARALLEL_FALLBACK_TOTAL: &str =
    "mmlib_tensor_hash_parallel_fallback_total";

/// Environment override for the hashing worker count.
pub const HASH_THREADS_ENV: &str = "MMLIB_HASH_THREADS";

/// Upper bound on workers; protects against absurd override values.
pub const MAX_HASH_WORKERS: usize = 64;

/// Below this many bytes a hash runs serially: spawning a thread would cost
/// more than it saves.
const MIN_PARALLEL_BYTES: usize = 1 << 20;

/// Resolved hashing worker count: `MMLIB_HASH_THREADS` if set to a positive
/// integer, else 1 (the calling thread alone), clamped to `1..=64`.
///
/// Read on every call (not cached) so tests and benches can pin it without
/// process-global state; the var is consulted a handful of times per save.
pub fn hash_workers() -> usize {
    std::env::var(HASH_THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
        .min(MAX_HASH_WORKERS)
}

/// Maps `hash` over `jobs` on up to `workers` threads, returning digests in
/// input order — byte-identical to the serial `jobs.iter().map(hash)`.
///
/// Jobs are taken in input order through one shared cursor: the calling
/// thread is worker 0, `workers - 1` threads are spawned, and each worker
/// takes the next job as soon as it is idle. Every handle is joined
/// explicitly: under the std-scope crossbeam shim an unjoined panicked
/// worker re-panics the scope, so collecting per-handle results is what
/// makes the serial fallback reachable. If a spawned worker panics the
/// whole map is recomputed serially on the calling thread (the proptests
/// force this with a closure that panics off the calling thread).
pub fn digest_map_with<T, F>(jobs: &[T], workers: usize, hash: F) -> Vec<Digest>
where
    T: Sync,
    F: Fn(&T) -> Digest + Sync,
{
    let workers = workers.clamp(1, MAX_HASH_WORKERS).min(jobs.len());
    if workers <= 1 {
        return jobs.iter().map(&hash).collect();
    }
    let obs = mmlib_obs::recorder();
    // The cursor only hands out indices; results travel through the joins,
    // so it publishes no other data and `Relaxed` suffices.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else { break done };
            done.push((i, hash(job)));
        }
    };
    let parallel = crossbeam::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(|_| work())).collect();
        let mut parts = vec![work()];
        // Join *every* handle before deciding the outcome — bailing on the
        // first Err would leave later panicked threads unjoined and the
        // scope itself would re-panic instead of letting us fall back.
        let mut panicked = false;
        for handle in handles {
            match handle.join() {
                Ok(part) => parts.push(part),
                Err(_) => panicked = true,
            }
        }
        (!panicked).then_some(parts)
    });
    match parallel {
        Ok(Some(parts)) => {
            obs.inc(TENSOR_HASH_PARALLEL_OPS_TOTAL, jobs.len() as u64);
            in_input_order(parts.into_iter().flatten())
        }
        // A worker panicked (or the scope shim reported one): recompute the
        // whole map serially. Digests are pure functions of the input, so
        // the result is identical to a clean parallel run.
        _ => {
            obs.inc(TENSOR_HASH_PARALLEL_FALLBACK_TOTAL, 1);
            jobs.iter().map(&hash).collect()
        }
    }
}

/// Digests tagged with their job's index, put back in input order.
fn in_input_order(tagged: impl IntoIterator<Item = (usize, Digest)>) -> Vec<Digest> {
    let mut tagged: Vec<(usize, Digest)> = tagged.into_iter().collect();
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, digest)| digest).collect()
}

/// The order in which [`hash_tensors`] deals jobs of these byte sizes:
/// largest first, equal sizes in input order.
pub fn deal_order(sizes: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(sizes[i]));
    order
}

/// Hashes each tensor with [`hash_tensor`] across the worker pool resolved
/// by [`hash_workers`], preserving input order.
pub fn hash_tensors(tensors: &[&Tensor]) -> Vec<Digest> {
    hash_tensors_with(tensors, hash_workers())
}

/// [`hash_tensors`] with an explicit worker count (tests pin this instead of
/// mutating the process environment).
pub fn hash_tensors_with(tensors: &[&Tensor], workers: usize) -> Vec<Digest> {
    let sizes: Vec<usize> = tensors.iter().map(|t| t.nbytes()).collect();
    if sizes.iter().sum::<usize>() < MIN_PARALLEL_BYTES {
        return tensors.iter().map(|t| hash_tensor(t)).collect();
    }
    let order = deal_order(&sizes);
    let dealt: Vec<&Tensor> = order.iter().map(|&i| tensors[i]).collect();
    in_input_order(order.into_iter().zip(digest_map_with(&dealt, workers, |t| hash_tensor(t))))
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
    fn dealt_hashing_above_the_serial_threshold_matches_serial() {
        let mut rng = Pcg32::seeded(9);
        let owned: Vec<Tensor> = (0..23)
            .map(|i| Tensor::rand_normal([(i * 37 % 11 + 1) * 4096, 4], 0.0, 1.0, &mut rng))
            .collect();
        let refs: Vec<&Tensor> = owned.iter().collect();
        assert!(owned.iter().map(Tensor::nbytes).sum::<usize>() >= MIN_PARALLEL_BYTES);
        let serial: Vec<Digest> = refs.iter().map(|t| hash_tensor(t)).collect();
        for workers in [1, 2, 3, 8, 64] {
            assert_eq!(hash_tensors_with(&refs, workers), serial, "workers={workers}");
        }
    }

    #[test]
    fn deals_largest_first_and_ties_in_input_order() {
        assert_eq!(deal_order(&[3, 9, 3, 1, 9]), vec![1, 4, 0, 2, 3]);
        assert!(deal_order(&[]).is_empty());
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
        assert_eq!(hash_workers(), 1);
        std::env::set_var(HASH_THREADS_ENV, "9999");
        assert_eq!(hash_workers(), 64);
        std::env::remove_var(HASH_THREADS_ENV);
        assert_eq!(hash_workers(), 1, "unset, hashing stays on the calling thread");
    }
}
