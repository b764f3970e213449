//! World sampling against a straightforward reference.
//!
//! `Population::sample` draws objects a block at a time and decides most
//! boolean-sharpening bisection steps from a rounding-error certificate
//! instead of a full pass over the column. Neither may change a bit of
//! the sampled world. The reference here is the plain algorithm: one
//! object at a time, each variate by the polar method's rejection loop
//! and each value by a left-to-right row fold of `μ + L·z`, then for every
//! boolean column a full sort for the threshold and 41 exact passes (the
//! `λ = 0` check and 40 bisection steps).
//!
//! The sizes cover an empty world, worlds too small to sharpen (`n < 8`),
//! the smallest sharpened one, ragged and whole sampling blocks, and the
//! 2,000-object worlds the experiments use.

use disq::domain::domains::{pictures, recipes};
use disq::domain::{AttributeKind, DomainSpec, Population};
use disq::math::{nearest_psd, Cholesky, Matrix};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::sync::Arc;

/// The Cholesky factor `MultivariateNormal` samples with: of the
/// symmetrized covariance, or of its PSD repair when that fails.
fn factor(spec: &DomainSpec) -> Matrix {
    let mut cov = spec.covariance_matrix();
    cov.symmetrize();
    match Cholesky::new(&cov) {
        Ok(ch) => ch.factor().clone(),
        Err(_) => {
            let repaired = nearest_psd(&cov, 1e-9 * cov.max_abs().max(1.0)).unwrap();
            Cholesky::new_with_jitter(&repaired)
                .unwrap()
                .factor()
                .clone()
        }
    }
}

fn polar_normal(rng: &mut StdRng) -> f64 {
    loop {
        let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let s: f64 = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Mixes a boolean column toward its 0/1 target with 41 exact passes.
fn sharpen(column: &mut [f64], target_sc: f64) {
    let n = column.len();
    let mean_q = column.iter().sum::<f64>() / n as f64;
    let mut sorted = column.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let threshold = sorted[(((1.0 - mean_q) * n as f64) as usize).min(n - 1)];
    let hard = |q: f64| f64::from(q >= threshold);
    let sc_at = |lambda: f64| {
        column
            .iter()
            .map(|&q| {
                let m = (1.0 - lambda) * q + lambda * hard(q);
                m * (1.0 - m)
            })
            .sum::<f64>()
            / n as f64
    };
    if sc_at(0.0) <= target_sc {
        return;
    }
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if sc_at(mid) > target_sc {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let lambda = 0.5 * (lo + hi);
    for q in column.iter_mut() {
        *q = (1.0 - lambda) * *q + lambda * hard(*q);
    }
}

/// The reference world, column-major.
fn reference_world(spec: &DomainSpec, n: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let l = factor(spec);
    let means = spec.means();
    let dim = means.len();
    let mut columns = vec![Vec::with_capacity(n); dim];
    for _ in 0..n {
        let z: Vec<f64> = (0..dim).map(|_| polar_normal(rng)).collect();
        for (i, column) in columns.iter_mut().enumerate() {
            let acc = l.row(i)[..=i]
                .iter()
                .zip(&z)
                .fold(0.0, |acc, (&lij, &zj)| acc + lij * zj);
            column.push(means[i] + acc);
        }
    }
    for a in spec.attribute_ids() {
        let attr = spec.attr(a);
        if attr.kind == AttributeKind::Boolean {
            let column = &mut columns[a.index()];
            for q in column.iter_mut() {
                *q = q.clamp(0.0, 1.0);
            }
            if n >= 8 {
                sharpen(column, attr.worker_sd * attr.worker_sd);
            }
        }
    }
    columns
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn sampled_worlds_equal_the_reference_bit_for_bit() {
    for (name, spec) in [("pictures", pictures::spec()), ("recipes", recipes::spec())] {
        let spec = Arc::new(spec);
        for n in [0, 1, 7, 8, 255, 256, 257, 2_000] {
            for seed in [1, 2] {
                let mut want_rng = StdRng::seed_from_u64(seed);
                let want = reference_world(&spec, n, &mut want_rng);
                let mut got_rng = StdRng::seed_from_u64(seed);
                let got = Population::sample(Arc::clone(&spec), n, &mut got_rng).unwrap();
                for a in spec.attribute_ids() {
                    assert_eq!(
                        bits(got.column(a)),
                        bits(&want[a.index()]),
                        "{name}, n {n}, seed {seed}, {}",
                        spec.attr(a).name
                    );
                }
                assert_eq!(
                    got_rng.next_u64(),
                    want_rng.next_u64(),
                    "{name}, n {n}, seed {seed}: RNG position"
                );
            }
        }
    }
}
