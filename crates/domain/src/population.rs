//! Sampled object populations.
//!
//! A [`Population`] realizes a [`DomainSpec`] into concrete objects by
//! drawing true attribute values from the spec's calibrated multivariate
//! Gaussian. Boolean attributes are clamped into `\[0, 1\]` after sampling
//! (the paper models booleans as numerics on that range).
//!
//! # Storage layout
//!
//! Values are held column-major (structure-of-arrays): one contiguous
//! `Vec<f64>` per attribute, all behind a single [`Arc`]. Every
//! population-scale statistic (variance, covariance, sharpening,
//! empirical calibration) scans whole attribute columns, so the SoA
//! layout turns those scans into linear walks over contiguous memory
//! instead of strided gathers across row vectors — and [`Population::column`]
//! becomes a zero-copy borrow. Row-shaped construction
//! ([`Population::from_values`]) and point access ([`Population::value`])
//! are kept as shims over the column store.
//!
//! # Chunked sampling
//!
//! [`Population::sample`] materializes objects in fixed-size chunks
//! ([`SAMPLE_CHUNK`]) via [`Population::sample_chunked`]: each object is
//! drawn into a small reusable row buffer and scattered into the columns,
//! so a 10⁶–10⁷-object world never builds an intermediate row table. The
//! RNG is consumed strictly per object in sequence, which makes the chunk
//! size unobservable: `sample_chunked` is bit-identical to `sample` for
//! *every* chunk size. To start sampling at object `k` (e.g. to fill one
//! chunk of a larger world elsewhere), advance the RNG over the first `k`
//! objects with [`fast_forward_sampling`]; the polar-method normal
//! sampler consumes a data-dependent number of uniforms per variate, so
//! the fast-forward replays draws rather than jumping the stream.

use crate::{AttributeId, AttributeKind, DomainError, DomainSpec, ObjectId};
use disq_math::MultivariateNormal;
use rand::Rng;
use std::sync::Arc;

/// Default number of objects materialized per chunk by
/// [`Population::sample`]. Large enough to amortize the scatter loop,
/// small enough that the in-flight chunk state stays cache-resident.
pub const SAMPLE_CHUNK: usize = 4096;

/// Column-major value storage: `columns[attribute][object]`.
#[derive(Debug)]
struct ColumnStore {
    n_objects: usize,
    columns: Vec<Vec<f64>>,
}

/// A set of objects with ground-truth values for every domain attribute.
///
/// The value table is behind an [`Arc`], so `Clone` is O(1): the bench
/// harness hands one sampled world to many concurrently-running strategy
/// evaluations without duplicating the (objects × attributes) matrix.
#[derive(Debug, Clone)]
pub struct Population {
    spec: Arc<DomainSpec>,
    values: Arc<ColumnStore>,
}

impl Population {
    /// Samples `n` objects from the domain's ground-truth distribution.
    ///
    /// Boolean attributes are yes-propensities in `\[0, 1\]`; the Gaussian
    /// draw is clamped and then *sharpened* toward `{0, 1}` just enough to
    /// hit the attribute's calibrated worker-answer variance
    /// `S_c = E[q(1−q)]` (low published `S_c` values mean workers almost
    /// always agree, i.e. propensities are close to 0 or 1 — a shape a
    /// clamped Gaussian alone cannot reach). The sharpening is monotone in
    /// the underlying Gaussian, so the correlation structure survives.
    pub fn sample<R: Rng + ?Sized>(
        spec: Arc<DomainSpec>,
        n: usize,
        rng: &mut R,
    ) -> Result<Self, DomainError> {
        Population::sample_chunked(spec, n, SAMPLE_CHUNK, rng)
    }

    /// Samples `n` objects in chunks of `chunk_size`, producing a
    /// population bit-identical to [`Population::sample`] for every
    /// chunk size (the RNG is consumed strictly per object, so chunking
    /// only changes write buffering, never the value stream). A
    /// `chunk_size` of zero is treated as one.
    pub fn sample_chunked<R: Rng + ?Sized>(
        spec: Arc<DomainSpec>,
        n: usize,
        chunk_size: usize,
        rng: &mut R,
    ) -> Result<Self, DomainError> {
        let chunk_size = chunk_size.max(1);
        let mvn = MultivariateNormal::new(spec.means(), &spec.covariance_matrix())?;
        let n_attrs = spec.n_attrs();
        let mut columns: Vec<Vec<f64>> = (0..n_attrs).map(|_| Vec::with_capacity(n)).collect();
        let boolean: Vec<bool> = spec
            .attribute_ids()
            .map(|a| spec.attr(a).kind == AttributeKind::Boolean)
            .collect();
        let mut z = vec![0.0; n_attrs];
        let mut row = vec![0.0; n_attrs];
        let mut done = 0;
        while done < n {
            let count = chunk_size.min(n - done);
            for _ in 0..count {
                mvn.sample_into(rng, &mut z, &mut row);
                for ((&val, col), &is_bool) in row.iter().zip(&mut columns).zip(&boolean) {
                    col.push(if is_bool { val.clamp(0.0, 1.0) } else { val });
                }
            }
            done += count;
        }
        if n >= 8 {
            let mut scratch = Vec::new();
            for a in spec.attribute_ids() {
                let s = spec.attr(a);
                if s.kind == AttributeKind::Boolean {
                    let target_sc = s.worker_sd * s.worker_sd;
                    sharpen_boolean_column(&mut columns[a.index()], target_sc, &mut scratch);
                }
            }
        }
        Ok(Population {
            spec,
            values: Arc::new(ColumnStore {
                n_objects: n,
                columns,
            }),
        })
    }

    /// Builds a population from explicit value rows (mainly for tests and
    /// replaying recorded data). Each row must have one value per domain
    /// attribute.
    pub fn from_values(spec: Arc<DomainSpec>, values: Vec<Vec<f64>>) -> Result<Self, DomainError> {
        let n_attrs = spec.n_attrs();
        for row in &values {
            if row.len() != n_attrs {
                return Err(DomainError::BadAttributeSpec(format!(
                    "row has {} values, domain has {} attributes",
                    row.len(),
                    n_attrs
                )));
            }
        }
        let n = values.len();
        let mut columns: Vec<Vec<f64>> = (0..n_attrs).map(|_| Vec::with_capacity(n)).collect();
        for row in &values {
            for (&val, col) in row.iter().zip(&mut columns) {
                col.push(val);
            }
        }
        Ok(Population {
            spec,
            values: Arc::new(ColumnStore {
                n_objects: n,
                columns,
            }),
        })
    }

    /// The domain this population realizes.
    pub fn spec(&self) -> &DomainSpec {
        &self.spec
    }

    /// Shared handle to the domain spec.
    pub fn spec_arc(&self) -> Arc<DomainSpec> {
        Arc::clone(&self.spec)
    }

    /// Number of objects.
    pub fn n_objects(&self) -> usize {
        self.values.n_objects
    }

    /// Ground-truth value of one attribute of one object.
    ///
    /// # Panics
    /// Panics on out-of-range ids.
    pub fn value(&self, o: ObjectId, a: AttributeId) -> f64 {
        self.values.columns[a.index()][o.index()]
    }

    /// All objects' true values for one attribute, as a zero-copy borrow
    /// of the contiguous column.
    pub fn column(&self, a: AttributeId) -> &[f64] {
        &self.values.columns[a.index()]
    }

    /// Empirical variance of one attribute over this population.
    pub fn empirical_variance(&self, a: AttributeId) -> f64 {
        disq_stats_variance(self.column(a))
    }

    /// Iterates object ids.
    pub fn object_ids(&self) -> impl Iterator<Item = ObjectId> {
        (0..self.n_objects()).map(ObjectId)
    }
}

/// Advances `rng` exactly as sampling `objects` objects of `spec` would
/// (see [`Population::sample`]), without materializing anything. This is
/// the per-chunk fast-forward: sampling a world's objects `k..n` equals
/// fast-forwarding over `k` objects and sampling `n − k`, value for
/// value, for the pre-sharpening stream (boolean sharpening is a
/// whole-column pass over the assembled world and is applied after all
/// chunks are in place).
pub fn fast_forward_sampling<R: Rng + ?Sized>(
    spec: &DomainSpec,
    objects: usize,
    rng: &mut R,
) -> Result<(), DomainError> {
    let mvn = MultivariateNormal::new(spec.means(), &spec.covariance_matrix())?;
    mvn.fast_forward(rng, objects);
    Ok(())
}

/// Mixes each propensity toward a hard 0/1 threshold (at the value that
/// preserves the column mean) until `mean(q(1−q))` matches `target_sc`.
/// The mix weight is found by bisection; columns already at or below the
/// target are left untouched. `scratch` is reused across columns.
///
/// The threshold is one order statistic, so it is selected in O(n), and
/// each object's hard 0/1 target is recomputed from it where needed. The
/// result stays bit-identical to a full sort with a stored target (the
/// test reference `sharpen_by_sorting`).
fn sharpen_boolean_column(column: &mut [f64], target_sc: f64, scratch: &mut Vec<f64>) {
    let n = column.len();
    let mean_q = column.iter().sum::<f64>() / n as f64;
    // Threshold at the (1 − mean)-quantile keeps the fraction of "hard
    // yes" objects equal to the mean propensity.
    let idx = (((1.0 - mean_q) * n as f64) as usize).min(n - 1);
    scratch.clear();
    scratch.extend_from_slice(column);
    let (_, &mut threshold, _) =
        scratch.select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).unwrap());
    let hard = |q: f64| f64::from(q >= threshold);

    let sc_at = |lambda: f64| -> f64 {
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
        return; // already agreeable enough
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

/// Local unbiased sample variance (avoids a circular dev-dependency on
/// `disq-stats`, which depends on nothing here but keeps layering clean).
fn disq_stats_variance(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let m = xs.iter().sum::<f64>() / n as f64;
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttributeSpec, DomainSpecBuilder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reference sharpening: a full sort for the order statistic and a
    /// materialized `hard` column. [`sharpen_boolean_column`] must match
    /// it bit for bit.
    fn sharpen_by_sorting(column: &mut [f64], target_sc: f64) {
        let n = column.len();
        let mean_q = column.iter().sum::<f64>() / n as f64;
        let mut sorted = column.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = (((1.0 - mean_q) * n as f64) as usize).min(n - 1);
        let threshold = sorted[idx];
        let hard: Vec<f64> = column.iter().map(|&q| f64::from(q >= threshold)).collect();

        let sc_at = |lambda: f64| -> f64 {
            column
                .iter()
                .zip(&hard)
                .map(|(&q, &h)| {
                    let m = (1.0 - lambda) * q + lambda * h;
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
        for (q, &h) in column.iter_mut().zip(&hard) {
            *q = (1.0 - lambda) * *q + lambda * h;
        }
    }

    /// Propensity columns of 8–5000 values built from runs: exact 0.0,
    /// exact 1.0, one value repeated (ties), or distinct values.
    fn propensity_column() -> impl Strategy<Value = Vec<f64>> {
        collection::vec((0u8..4, 1usize..250, 0.0_f64..=1.0), 1..40).prop_map(|runs| {
            let mut col = Vec::new();
            for (kind, len, u) in runs {
                col.extend((0..len).map(|i| match kind {
                    0 => 0.0,
                    1 => 1.0,
                    2 => u,
                    _ => (u + i as f64 * 0.618_033_988_749_895).fract(),
                }));
            }
            col.truncate(5000);
            col.resize(col.len().max(8), 0.5);
            col
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn selected_sharpening_matches_sorting_bit_for_bit(
            first in propensity_column(),
            second in propensity_column(),
            target_sc in 0.0_f64..0.3,
        ) {
            // One scratch across both columns, as `sample_chunked` reuses
            // it; targets above 0.25 leave every column untouched.
            let mut scratch = Vec::new();
            for col in [first, second] {
                let mut want = col.clone();
                sharpen_by_sorting(&mut want, target_sc);
                let mut got = col;
                sharpen_boolean_column(&mut got, target_sc, &mut scratch);
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got), bits(&want));
            }
        }
    }

    fn spec() -> Arc<DomainSpec> {
        Arc::new(
            DomainSpecBuilder::new("test")
                .attribute(AttributeSpec::numeric("X", 10.0, 2.0, 0.5))
                .attribute(AttributeSpec::numeric("Y", -5.0, 1.0, 0.5))
                .attribute(AttributeSpec::boolean("B", 0.5, 0.2))
                .correlation("X", "Y", 0.8)
                .build()
                .unwrap(),
        )
    }

    fn numeric_spec() -> Arc<DomainSpec> {
        Arc::new(
            DomainSpecBuilder::new("numeric")
                .attribute(AttributeSpec::numeric("X", 10.0, 2.0, 0.5))
                .attribute(AttributeSpec::numeric("Y", -5.0, 1.0, 0.5))
                .correlation("X", "Y", 0.8)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn sample_matches_spec_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let pop = Population::sample(spec(), 20_000, &mut rng).unwrap();
        assert_eq!(pop.n_objects(), 20_000);
        let x = pop.column(AttributeId(0));
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        let var = pop.empirical_variance(AttributeId(0));
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn sample_respects_correlation() {
        let mut rng = StdRng::seed_from_u64(2);
        let pop = Population::sample(spec(), 20_000, &mut rng).unwrap();
        let xs = pop.column(AttributeId(0));
        let ys = pop.column(AttributeId(1));
        let mx = xs.iter().sum::<f64>() / xs.len() as f64;
        let my = ys.iter().sum::<f64>() / ys.len() as f64;
        let cov: f64 = xs
            .iter()
            .zip(ys)
            .map(|(&x, &y)| (x - mx) * (y - my))
            .sum::<f64>()
            / xs.len() as f64;
        let rho = cov
            / (pop.empirical_variance(AttributeId(0)).sqrt()
                * pop.empirical_variance(AttributeId(1)).sqrt());
        assert!((rho - 0.8).abs() < 0.05, "rho {rho}");
    }

    #[test]
    fn boolean_values_clamped() {
        let mut rng = StdRng::seed_from_u64(3);
        let pop = Population::sample(spec(), 5_000, &mut rng).unwrap();
        for &v in pop.column(AttributeId(2)) {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn from_values_validates_arity() {
        let s = spec();
        assert!(Population::from_values(Arc::clone(&s), vec![vec![1.0, 2.0, 0.5]]).is_ok());
        assert!(Population::from_values(s, vec![vec![1.0]]).is_err());
    }

    #[test]
    fn value_access() {
        let s = spec();
        let pop =
            Population::from_values(s, vec![vec![1.0, 2.0, 0.3], vec![4.0, 5.0, 0.9]]).unwrap();
        assert_eq!(pop.value(ObjectId(1), AttributeId(0)), 4.0);
        assert_eq!(pop.column(AttributeId(2)), vec![0.3, 0.9]);
        assert_eq!(pop.object_ids().count(), 2);
    }

    #[test]
    fn clone_shares_value_storage() {
        let s = spec();
        let pop = Population::from_values(s, vec![vec![1.0, 2.0, 0.3]]).unwrap();
        let copy = pop.clone();
        assert!(Arc::ptr_eq(&pop.values, &copy.values));
    }

    #[test]
    fn empty_population() {
        let mut rng = StdRng::seed_from_u64(4);
        let pop = Population::sample(spec(), 0, &mut rng).unwrap();
        assert_eq!(pop.n_objects(), 0);
        assert_eq!(pop.empirical_variance(AttributeId(0)), 0.0);
    }

    #[test]
    fn sample_chunked_bit_identical_for_all_chunk_sizes() {
        let s = spec();
        let n = 100;
        let mut rng = StdRng::seed_from_u64(77);
        let serial = Population::sample(Arc::clone(&s), n, &mut rng).unwrap();
        for chunk in [0usize, 1, 3, 7, 64, 99, 100, 105, 4096] {
            let mut rng = StdRng::seed_from_u64(77);
            let chunked = Population::sample_chunked(Arc::clone(&s), n, chunk, &mut rng).unwrap();
            for a in s.attribute_ids() {
                assert_eq!(
                    serial.column(a),
                    chunked.column(a),
                    "chunk {chunk}, attr {a:?}"
                );
            }
        }
    }

    #[test]
    fn fast_forward_reaches_tail_of_serial_stream() {
        // Numeric-only spec: no sharpening, so the sampled columns ARE the
        // raw per-chunk stream. Sampling objects k..n after a fast-forward
        // over k objects must reproduce the serial tail bit for bit.
        let s = numeric_spec();
        let (n, k) = (50usize, 20usize);
        let mut rng = StdRng::seed_from_u64(5);
        let full = Population::sample(Arc::clone(&s), n, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        fast_forward_sampling(&s, k, &mut rng).unwrap();
        let tail = Population::sample(Arc::clone(&s), n - k, &mut rng).unwrap();
        for a in s.attribute_ids() {
            assert_eq!(&full.column(a)[k..], tail.column(a), "attr {a:?}");
        }
    }

    #[test]
    fn columns_are_contiguous_per_attribute() {
        let s = spec();
        let pop =
            Population::from_values(s, vec![vec![1.0, 2.0, 0.3], vec![4.0, 5.0, 0.9]]).unwrap();
        assert_eq!(pop.column(AttributeId(0)), vec![1.0, 4.0]);
        assert_eq!(pop.column(AttributeId(1)), vec![2.0, 5.0]);
    }
}
