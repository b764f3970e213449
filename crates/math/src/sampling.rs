//! Gaussian sampling utilities.
//!
//! The calibrated domains in `disq-domain` are multivariate Gaussians over
//! attribute values, and simulated workers add Gaussian answer noise. The
//! allowed dependency set has `rand` but not `rand_distr`, so the normal
//! sampler (Marsaglia polar method) is implemented here.
//!
//! # One polar method, two loops
//!
//! The polar method draws a candidate pair `u, v` uniform on `[−1, 1)²`,
//! accepts it when `s = u² + v²` lies in `(0, 1)`, and returns
//! `u·√(−2 ln s / s)`. The candidate draw, the accept test and the
//! transform are each written once (`polar_candidate`, `polar_accepts`,
//! `polar_transform`), and both loops use them: [`standard_normal`] loops
//! per variate, and [`MultivariateNormal::sample_block`] draws a block of
//! samples in three passes:
//!
//! 1. *Accept.* For the block's `count·dim` variates, in the per-sample
//!    order (sample-major, attribute-minor), draw a candidate, store its
//!    `(u, s)` at the output index, and advance that index by
//!    `polar_accepts(s) as usize`. A rejected pair is overwritten by the
//!    next one, so the RNG is consumed exactly as by `count·dim` calls to
//!    [`standard_normal`], with no data-dependent branch in the loop.
//! 2. *Transform.* Each accepted pair becomes its variate `z`, stored
//!    attribute-major.
//! 3. *Product.* For attribute `i`, every sample's accumulator starts at
//!    `0.0` and adds `L_ij·z_j` for `j = 0..=i`, then the mean is added:
//!    the per-sample operations in their per-sample order, looped across
//!    the block's samples so the loop vectorises.
//!
//! The block's values are therefore bit for bit those of drawing its
//! samples one at a time.

use crate::{nearest_psd, Cholesky, MathError, Matrix, Result};
use rand::{Rng, RngExt};

/// Draws one polar-method candidate: `u` and `v` uniform on `[−1, 1)`,
/// in that order, returning `(u, s = u² + v²)`.
#[inline(always)]
fn polar_candidate<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
    let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
    (u, u * u + v * v)
}

/// Whether a candidate with squared radius `s` is accepted.
#[inline(always)]
fn polar_accepts(s: f64) -> bool {
    s > 0.0 && s < 1.0
}

/// The standard-normal variate of an accepted candidate `(u, s)`.
#[inline(always)]
fn polar_transform(u: f64, s: f64) -> f64 {
    u * (-2.0 * s.ln() / s).sqrt()
}

/// Draws one standard-normal variate using the Marsaglia polar method.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let (u, s) = polar_candidate(rng);
        if polar_accepts(s) {
            return polar_transform(u, s);
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

    /// Draws one vector sample `μ + L·z` with `z ~ N(0, I)`: a block of
    /// one (see [`MultivariateNormal::sample_block`]).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim());
        self.sample_block(rng, 1, &mut Vec::new(), |_, value| {
            out.extend_from_slice(value)
        });
        out
    }

    /// Draws `count` samples and hands them over one attribute at a
    /// time: `emit(i, values)` is called for `i = 0..dim` in order, with
    /// attribute `i` of the `count` samples in draw order.
    ///
    /// The values and the RNG stream are bit for bit those of `count`
    /// calls to [`MultivariateNormal::sample`], for every `count`, so how
    /// a caller splits a draw into blocks is unobservable (see the module
    /// docs for the three passes). `scratch` holds the block's buffers,
    /// `3·count·dim` values, and only ever grows; reuse it across blocks.
    pub fn sample_block<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
        scratch: &mut Vec<f64>,
        mut emit: impl FnMut(usize, &[f64]),
    ) {
        let total = count * self.dim();
        if total == 0 {
            return;
        }
        if scratch.len() < 3 * total {
            scratch.resize(3 * total, 0.0);
        }
        let (us, rest) = scratch.split_at_mut(total);
        let (ss, rest) = rest.split_at_mut(total);
        let zs = &mut rest[..total];

        let mut k = 0;
        while k < total {
            let (u, s) = polar_candidate(rng);
            us[k] = u;
            ss[k] = s;
            k += usize::from(polar_accepts(s));
        }
        for (o, (u_row, s_row)) in us
            .chunks_exact(self.dim())
            .zip(ss.chunks_exact(self.dim()))
            .enumerate()
        {
            for (j, (&u, &s)) in u_row.iter().zip(s_row).enumerate() {
                zs[j * count + o] = polar_transform(u, s);
            }
        }

        // The `u` buffer is spent; its head accumulates one attribute.
        let acc = &mut us[..count];
        for (i, &mean) in self.mean.iter().enumerate() {
            acc.fill(0.0);
            // factor is lower triangular; only j <= i, in order.
            for (&l, z) in self.factor.row(i)[..=i].iter().zip(zs.chunks_exact(count)) {
                for (a, &zj) in acc.iter_mut().zip(z) {
                    *a += l * zj;
                }
            }
            for a in acc.iter_mut() {
                *a += mean; // `mean + acc`: IEEE addition commutes exactly
            }
            emit(i, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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

    /// The per-sample draw as it was before the block draw: the polar
    /// loop per variate, then a left-to-right row fold of `L·z` from
    /// `0.0`. [`MultivariateNormal::sample_block`] must match it bit for
    /// bit and leave the RNG at the same position.
    fn sample_one_by_one(mvn: &MultivariateNormal, rng: &mut StdRng) -> Vec<f64> {
        let z: Vec<f64> = (0..mvn.dim())
            .map(|_| loop {
                let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
                let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
                let s: f64 = u * u + v * v;
                if s > 0.0 && s < 1.0 {
                    break u * (-2.0 * s.ln() / s).sqrt();
                }
            })
            .collect();
        (0..mvn.dim())
            .map(|i| {
                let acc = mvn.factor.row(i)[..=i]
                    .iter()
                    .zip(&z)
                    .fold(0.0, |acc, (&l, &zj)| acc + l * zj);
                mvn.mean[i] + acc
            })
            .collect()
    }

    /// Draws `n` samples in blocks of `block` (the last one ragged) and
    /// returns them sample-major.
    fn sample_in_blocks(
        mvn: &MultivariateNormal,
        rng: &mut StdRng,
        n: usize,
        block: usize,
    ) -> Vec<Vec<f64>> {
        let mut columns = vec![Vec::new(); mvn.dim()];
        let mut scratch = Vec::new();
        let mut done = 0;
        while done < n {
            let count = block.min(n - done);
            mvn.sample_block(rng, count, &mut scratch, |i, values| {
                assert_eq!(values.len(), count);
                columns[i].extend_from_slice(values);
            });
            done += count;
        }
        (0..n)
            .map(|o| columns.iter().map(|c| c[o]).collect())
            .collect()
    }

    #[test]
    fn mvn_sample_matches_per_sample_reference() {
        let cov = Matrix::from_rows(&[vec![1.0, 0.6], vec![0.6, 2.0]]);
        let mvn = MultivariateNormal::new(vec![1.0, -1.0], &cov).unwrap();
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let bits = |xs: Vec<f64>| xs.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(sample_one_by_one(&mvn, &mut a)),
                bits(mvn.sample(&mut b))
            );
        }
    }

    #[test]
    fn empty_block_draws_nothing() {
        let mvn = MultivariateNormal::new(vec![0.0], &Matrix::identity(1)).unwrap();
        let mut a = StdRng::seed_from_u64(2);
        let mut b = a.clone();
        mvn.sample_block(&mut a, 0, &mut Vec::new(), |_, _| panic!("emitted"));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn block_draw_matches_per_sample_reference(
            shape in (1usize..=17)
                .prop_flat_map(|d| (Just(d), collection::vec(-1.0_f64..1.0, d * d + d))),
            block in 1usize..48,
            blocks in 0usize..=3,
            tail in 0usize..48,
            seed in 0u64..10_000,
        ) {
            // Covariance B·Bᵀ + 0.1·I from a random B; means from the rest.
            let (dim, entries) = shape;
            let b = Matrix::from_vec(dim, dim, entries[..dim * dim].to_vec());
            let mut cov = b.matmul(&b.transpose()).unwrap();
            cov.add_diagonal(0.1);
            let mean = entries[dim * dim..].iter().map(|m| 10.0 * m).collect();
            let mvn = MultivariateNormal::new(mean, &cov).unwrap();
            let n = blocks * block + tail % block;

            let mut want_rng = StdRng::seed_from_u64(seed);
            let want: Vec<Vec<f64>> =
                (0..n).map(|_| sample_one_by_one(&mvn, &mut want_rng)).collect();
            let mut got_rng = StdRng::seed_from_u64(seed);
            let got = sample_in_blocks(&mvn, &mut got_rng, n, block);
            let bits = |rows: &[Vec<f64>]| {
                rows.iter()
                    .map(|r| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64());
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
