//! Weight initializers.
//!
//! Each initializer consumes randomness from an explicit [`Pcg32`], so that
//! §2.3's "set the seed" discipline makes model construction bit-reproducible.
//! The set mirrors what torchvision's five evaluation models actually use:
//! Kaiming (He) init for conv layers, uniform fan-in init for linear layers,
//! constants for batch-norm, and — only in GoogLeNet — an expensive truncated
//! normal, whose cost the paper's Fig. 12 highlights.

use crate::prng::Pcg32;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Which initialization rule to apply to a parameter tensor.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Init {
    /// All zeros (biases, BN running means).
    Zeros,
    /// All ones (BN scale, BN running vars).
    Ones,
    /// A constant fill.
    Constant(f32),
    /// Uniform in `[-bound, bound]` with `bound = sqrt(6 / ((1+a²)·fan_in))`
    /// — Kaiming/He uniform as used by PyTorch conv defaults (`a = √5`).
    KaimingUniform {
        /// Negative-slope parameter of the assumed leaky ReLU.
        a: f32,
    },
    /// Normal with `std = sqrt(2 / fan_out)` — He normal (ResNet conv init).
    KaimingNormalFanOut,
    /// Uniform in `[-1/sqrt(fan_in), 1/sqrt(fan_in)]` (PyTorch linear/bias).
    UniformFanIn,
    /// Xavier/Glorot uniform: `bound = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform,
    /// Truncated normal on `[-2σ, 2σ]` via rejection sampling (GoogLeNet).
    ///
    /// Deliberately implemented with the same rejection scheme as
    /// scipy.stats.truncnorm-backed torchvision code; its cost is what makes
    /// GoogLeNet's recovery disproportionately slow in the paper's Fig. 12.
    TruncatedNormal {
        /// Standard deviation of the underlying normal.
        std: f32,
    },
    /// Truncated normal on `[-2σ, 2σ]` via the inverse-CDF (ppf) method.
    ///
    /// This reproduces the *cost profile* of torchvision's original
    /// GoogLeNet initializer, which sampled through
    /// `scipy.stats.truncnorm.ppf`: one high-precision inverse-error-function
    /// evaluation per parameter (here: Newton iterations on an `erf` series
    /// in `f64`). The paper's Fig. 12 attributes GoogLeNet's ~7× slower
    /// initialization — and thus its recovery-time anomaly — to exactly this
    /// routine, so we keep the expensive method rather than the cheap
    /// rejection sampler used by [`Init::TruncatedNormal`].
    TruncatedNormalPpf {
        /// Standard deviation of the underlying normal.
        std: f32,
    },
}

/// Error function via its Maclaurin series (converges for the |x| ≤ 2 range
/// the truncated-normal sampler needs). Deliberately the straightforward,
/// high-iteration implementation — see [`Init::TruncatedNormalPpf`].
fn erf_series(x: f64) -> f64 {
    let mut term = x;
    let mut sum = x;
    let x2 = x * x;
    for n in 1..64 {
        term *= -x2 / n as f64;
        let contrib = term / (2 * n + 1) as f64;
        sum += contrib;
        if contrib.abs() < sum.abs() * 1e-17 {
            break;
        }
    }
    sum * std::f64::consts::FRAC_2_SQRT_PI
}

/// Inverse error function via Newton iterations on [`erf_series`].
fn erfinv_newton(y: f64) -> f64 {
    debug_assert!((-1.0..=1.0).contains(&y));
    // Initial guess from the Winitzki approximation; Newton polish to f64
    // precision. Each iteration re-evaluates the erf series — the expense is
    // the point (see `Init::TruncatedNormalPpf`).
    let a = 0.147f64;
    let ln1my2 = (1.0 - y * y).max(f64::MIN_POSITIVE).ln();
    let term = 2.0 / (std::f64::consts::PI * a) + ln1my2 / 2.0;
    let mut x = y.signum() * ((term * term - ln1my2 / a).sqrt() - term).max(0.0).sqrt();
    for _ in 0..4 {
        let err = erf_series(x) - y;
        // d/dx erf(x) = 2/sqrt(pi) · exp(-x²)
        let deriv = std::f64::consts::FRAC_2_SQRT_PI * (-x * x).exp();
        if deriv.abs() < 1e-300 || err.abs() < 1e-12 {
            break;
        }
        x -= err / deriv;
    }
    x
}

/// Standard-normal CDF via the erf series.
fn norm_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf_series(x / std::f64::consts::SQRT_2))
}

/// One truncated-normal sample on `[cdf_lo, cdf_hi]` (precomputed CDF
/// bounds) via the inverse CDF.
fn truncnorm_ppf_sample(rng: &mut Pcg32, cdf_lo: f64, cdf_hi: f64) -> f64 {
    let u = cdf_lo + (cdf_hi - cdf_lo) * rng.next_f64();
    std::f64::consts::SQRT_2 * erfinv_newton(2.0 * u - 1.0)
}

/// Fan-in / fan-out of a parameter tensor, PyTorch conventions:
/// linear `[out, in]`, conv `[out, in/groups, k, k]`.
pub fn fan_in_out(shape: &Shape) -> (usize, usize) {
    let dims = shape.dims();
    match dims.len() {
        0 => (1, 1),
        1 => (dims[0], dims[0]),
        2 => (dims[1], dims[0]),
        _ => {
            let receptive: usize = dims[2..].iter().product();
            (dims[1] * receptive, dims[0] * receptive)
        }
    }
}

impl Init {
    /// Materializes a tensor of `shape` using this rule and `rng`.
    pub fn materialize(self, shape: impl Into<Shape>, rng: &mut Pcg32) -> Tensor {
        let shape = shape.into();
        let (fan_in, fan_out) = fan_in_out(&shape);
        match self {
            Init::Zeros => Tensor::zeros(shape),
            Init::Ones => Tensor::ones(shape),
            Init::Constant(c) => Tensor::full(shape, c),
            Init::KaimingUniform { a } => {
                let gain = (2.0 / (1.0 + a * a)).sqrt();
                let bound = gain * (3.0 / fan_in.max(1) as f32).sqrt();
                Tensor::rand_uniform(shape, -bound, bound, rng)
            }
            Init::KaimingNormalFanOut => {
                let std = (2.0 / fan_out.max(1) as f32).sqrt();
                Tensor::rand_normal(shape, 0.0, std, rng)
            }
            Init::UniformFanIn => {
                let bound = 1.0 / (fan_in.max(1) as f32).sqrt();
                Tensor::rand_uniform(shape, -bound, bound, rng)
            }
            Init::XavierUniform => {
                let bound = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
                Tensor::rand_uniform(shape, -bound, bound, rng)
            }
            Init::TruncatedNormal { std } => {
                let n = shape.numel();
                let data = (0..n)
                    .map(|_| rng.truncated_normal(0.0, std, -2.0, 2.0))
                    .collect();
                #[expect(
                    clippy::expect_used,
                    reason = "data has exactly shape.numel() elements by construction"
                )]
                Tensor::from_vec(shape, data).expect("length matches by construction")
            }
            Init::TruncatedNormalPpf { std } => {
                let n = shape.numel();
                let (cdf_lo, cdf_hi) = (norm_cdf(-2.0), norm_cdf(2.0));
                let data = (0..n)
                    .map(|_| (std as f64 * truncnorm_ppf_sample(rng, cdf_lo, cdf_hi)) as f32)
                    .collect();
                #[expect(
                    clippy::expect_used,
                    reason = "data has exactly shape.numel() elements by construction"
                )]
                Tensor::from_vec(shape, data).expect("length matches by construction")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_in_out_conventions() {
        assert_eq!(fan_in_out(&Shape::from([1000, 512])), (512, 1000));
        assert_eq!(fan_in_out(&Shape::from([64, 3, 7, 7])), (3 * 49, 64 * 49));
        assert_eq!(fan_in_out(&Shape::from([64])), (64, 64));
        assert_eq!(fan_in_out(&Shape::scalar()), (1, 1));
    }

    #[test]
    fn constant_inits() {
        let mut rng = Pcg32::seeded(0);
        assert!(Init::Zeros.materialize([4], &mut rng).data().iter().all(|&v| v == 0.0));
        assert!(Init::Ones.materialize([4], &mut rng).data().iter().all(|&v| v == 1.0));
        assert!(Init::Constant(0.5).materialize([4], &mut rng).data().iter().all(|&v| v == 0.5));
    }

    #[test]
    fn kaiming_uniform_respects_bound() {
        let mut rng = Pcg32::seeded(1);
        let t = Init::KaimingUniform { a: 5f32.sqrt() }.materialize([64, 16, 3, 3], &mut rng);
        let bound = (2.0f32 / 6.0).sqrt() * (3.0f32 / (16.0 * 9.0)).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= bound * 1.0001));
    }

    #[test]
    fn truncated_normal_stays_within_two_sigma() {
        let mut rng = Pcg32::seeded(2);
        let t = Init::TruncatedNormal { std: 0.01 }.materialize([2048], &mut rng);
        assert!(t.data().iter().all(|v| v.abs() <= 0.02 * 1.0001));
    }

    #[test]
    fn erf_series_matches_known_values() {
        // erf(1) = 0.8427007929497149, erf(2) = 0.9953222650189527
        assert!((erf_series(1.0) - 0.8427007929497149).abs() < 1e-12);
        assert!((erf_series(2.0) - 0.9953222650189527).abs() < 1e-12);
        assert!((erf_series(-1.0) + 0.8427007929497149).abs() < 1e-12);
        assert!(erf_series(0.0).abs() < 1e-15);
    }

    #[test]
    fn erfinv_inverts_erf() {
        for &x in &[0.0, 0.3, -0.7, 1.2, -1.9, 1.99] {
            let y = erf_series(x);
            let back = erfinv_newton(y);
            assert!((back - x).abs() < 1e-9, "x={x} back={back}");
        }
    }

    #[test]
    fn ppf_truncnorm_within_bounds_and_deterministic() {
        let mut rng = Pcg32::seeded(5);
        let t = Init::TruncatedNormalPpf { std: 0.01 }.materialize([4096], &mut rng);
        assert!(t.data().iter().all(|v| v.abs() <= 0.02 * 1.001));
        let mut rng2 = Pcg32::seeded(5);
        let t2 = Init::TruncatedNormalPpf { std: 0.01 }.materialize([4096], &mut rng2);
        assert!(t.bit_eq(&t2));
        // Distribution sanity: roughly centered.
        let mean: f32 = t.data().iter().sum::<f32>() / t.numel() as f32;
        assert!(mean.abs() < 1e-3);
    }

    #[test]
    fn init_is_seed_deterministic() {
        let a = Init::XavierUniform.materialize([128, 64], &mut Pcg32::seeded(3));
        let b = Init::XavierUniform.materialize([128, 64], &mut Pcg32::seeded(3));
        assert!(a.bit_eq(&b));
        let c = Init::XavierUniform.materialize([128, 64], &mut Pcg32::seeded(4));
        assert!(!a.bit_eq(&c));
    }
}
