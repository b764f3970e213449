//! Gaussian sampling utilities.
//!
//! The calibrated domains in `disq-domain` are multivariate Gaussians over
//! attribute values, and simulated workers add Gaussian answer noise. The
//! allowed dependency set has `rand` but not `rand_distr`, so the normal
//! sampler (Marsaglia polar method) is implemented here.

use crate::{nearest_psd, Cholesky, MathError, Matrix, Result};
use rand::{Rng, RngExt};

/// Draws one standard-normal variate using the Marsaglia polar method.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let s: f64 = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// A reusable sampler for `N(mean, sd²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalSampler {
    /// Mean of the distribution.
    pub mean: f64,
    /// Standard deviation (must be non-negative).
    pub sd: f64,
}

impl NormalSampler {
    /// Creates a sampler; negative `sd` is rejected.
    pub fn new(mean: f64, sd: f64) -> Result<Self> {
        if !mean.is_finite() || !sd.is_finite() || sd < 0.0 {
            return Err(MathError::NonFinite);
        }
        Ok(NormalSampler { mean, sd })
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sd * standard_normal(rng)
    }
}

/// Multivariate normal distribution `N(μ, Σ)` sampled via the Cholesky
/// factor of (a PSD-projected copy of) Σ.
#[derive(Debug, Clone)]
pub struct MultivariateNormal {
    mean: Vec<f64>,
    /// Lower-triangular factor with `L·Lᵀ = Σ` (after PSD repair).
    factor: Matrix,
}

impl MultivariateNormal {
    /// Builds the distribution. `cov` is symmetrized and, if necessary,
    /// projected to the nearest PD matrix before factorization, so mildly
    /// indefinite calibrated covariances (e.g. rounded paper tables) are
    /// accepted.
    pub fn new(mean: Vec<f64>, cov: &Matrix) -> Result<Self> {
        let n = mean.len();
        if cov.shape() != (n, n) {
            return Err(MathError::ShapeMismatch {
                expected: format!("{n}x{n}"),
                found: format!("{}x{}", cov.rows(), cov.cols()),
            });
        }
        if n == 0 {
            return Err(MathError::Empty);
        }
        if mean.iter().any(|v| !v.is_finite()) || !cov.is_finite() {
            return Err(MathError::NonFinite);
        }
        let mut c = cov.clone();
        c.symmetrize();
        let chol = match Cholesky::new(&c) {
            Ok(ch) => ch,
            Err(_) => {
                let repaired = nearest_psd(&c, 1e-9 * c.max_abs().max(1.0))?;
                Cholesky::new_with_jitter(&repaired)?
            }
        };
        Ok(MultivariateNormal {
            mean,
            factor: chol.factor().clone(),
        })
    }

    /// Dimension of the distribution.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Draws one vector sample `μ + L·z` with `z ~ N(0, I)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut out = vec![0.0; self.dim()];
        let mut z = vec![0.0; self.dim()];
        self.sample_into(rng, &mut z, &mut out);
        out
    }

    /// Draws one vector sample into `out`, reusing `z` as scratch for the
    /// standard-normal draws. Produces bit-identical values (and consumes
    /// the RNG identically) to [`MultivariateNormal::sample`], without
    /// allocating.
    ///
    /// # Panics
    /// Panics if `z` or `out` is shorter than [`MultivariateNormal::dim`].
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, z: &mut [f64], out: &mut [f64]) {
        let n = self.dim();
        for zi in z[..n].iter_mut() {
            *zi = standard_normal(rng);
        }
        for (i, (o, &mean)) in out[..n].iter_mut().zip(&self.mean).enumerate() {
            // factor is lower triangular; only sum j <= i, left to right.
            let acc = self.factor.row(i)[..=i]
                .iter()
                .zip(&z[..=i])
                .fold(0.0, |acc, (&l, &zj)| acc + l * zj);
            *o = mean + acc;
        }
    }

    /// Advances `rng` exactly as `count` calls to
    /// [`MultivariateNormal::sample`] would, without computing any
    /// samples. The polar-method normal sampler consumes a
    /// data-dependent number of uniforms per variate, so skipping must
    /// replay the draws; it only skips the O(dim²) triangular multiply.
    pub fn fast_forward<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) {
        for _ in 0..count {
            for _ in 0..self.dim() {
                standard_normal(rng);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 40_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn standard_normal_symmetric_tails() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 40_000;
        let pos = (0..n).filter(|_| standard_normal(&mut rng) > 0.0).count() as f64;
        assert!((pos / n as f64 - 0.5).abs() < 0.02);
    }

    #[test]
    fn normal_sampler_scales() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = NormalSampler::new(10.0, 2.0).unwrap();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| s.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1);
        assert!((var - 4.0).abs() < 0.3);
    }

    #[test]
    fn normal_sampler_rejects_bad_params() {
        assert!(NormalSampler::new(0.0, -1.0).is_err());
        assert!(NormalSampler::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn zero_sd_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = NormalSampler::new(4.5, 0.0).unwrap();
        for _ in 0..10 {
            assert_eq!(s.sample(&mut rng), 4.5);
        }
    }

    #[test]
    fn mvn_reproduces_covariance() {
        let cov = Matrix::from_rows(&[vec![1.0, 0.6], vec![0.6, 2.0]]);
        let mvn = MultivariateNormal::new(vec![1.0, -1.0], &cov).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 30_000;
        let samples: Vec<Vec<f64>> = (0..n).map(|_| mvn.sample(&mut rng)).collect();
        let mean0 = samples.iter().map(|s| s[0]).sum::<f64>() / n as f64;
        let mean1 = samples.iter().map(|s| s[1]).sum::<f64>() / n as f64;
        assert!((mean0 - 1.0).abs() < 0.05);
        assert!((mean1 + 1.0).abs() < 0.05);
        let c01 = samples
            .iter()
            .map(|s| (s[0] - mean0) * (s[1] - mean1))
            .sum::<f64>()
            / n as f64;
        let v0 = samples
            .iter()
            .map(|s| (s[0] - mean0) * (s[0] - mean0))
            .sum::<f64>()
            / n as f64;
        assert!((c01 - 0.6).abs() < 0.07, "cov {c01}");
        assert!((v0 - 1.0).abs() < 0.07, "var {v0}");
    }

    #[test]
    fn mvn_accepts_mildly_indefinite_covariance() {
        // Rounded correlations can be slightly indefinite; the constructor
        // must repair rather than reject.
        let cov = Matrix::from_rows(&[
            vec![1.0, 0.99, 0.0],
            vec![0.99, 1.0, 0.99],
            vec![0.0, 0.99, 1.0],
        ]);
        let mvn = MultivariateNormal::new(vec![0.0; 3], &cov).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let s = mvn.sample(&mut rng);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn mvn_sample_into_matches_sample_bitwise() {
        let cov = Matrix::from_rows(&[vec![1.0, 0.6], vec![0.6, 2.0]]);
        let mvn = MultivariateNormal::new(vec![1.0, -1.0], &cov).unwrap();
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let mut z = vec![0.0; 2];
        let mut out = vec![0.0; 2];
        for _ in 0..50 {
            let expect = mvn.sample(&mut a);
            mvn.sample_into(&mut b, &mut z, &mut out);
            assert_eq!(expect, out);
        }
    }

    #[test]
    fn mvn_fast_forward_matches_discarded_samples() {
        let cov = Matrix::from_rows(&[vec![1.0, 0.6], vec![0.6, 2.0]]);
        let mvn = MultivariateNormal::new(vec![0.0, 0.0], &cov).unwrap();
        for skip in [0usize, 1, 7, 33] {
            let mut a = StdRng::seed_from_u64(13);
            let mut b = StdRng::seed_from_u64(13);
            for _ in 0..skip {
                mvn.sample(&mut a);
            }
            mvn.fast_forward(&mut b, skip);
            // Identical stream position: the next sample matches bitwise.
            assert_eq!(mvn.sample(&mut a), mvn.sample(&mut b), "skip {skip}");
        }
    }

    #[test]
    fn mvn_validation() {
        let cov = Matrix::identity(2);
        assert!(MultivariateNormal::new(vec![0.0; 3], &cov).is_err());
        assert!(MultivariateNormal::new(vec![], &Matrix::zeros(0, 0)).is_err());
        assert!(MultivariateNormal::new(vec![f64::NAN, 0.0], &cov).is_err());
    }
}
