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
//! # Blocked sampling
//!
//! [`Population::sample`] draws objects in blocks of `SAMPLE_BLOCK`
//! through [`MultivariateNormal::sample_block`], which hands each block
//! over one attribute at a time, so every column grows by a contiguous
//! `extend` and a 10⁶–10⁷-object world never builds a row table. The
//! block draw consumes the RNG exactly as drawing one object after
//! another would, so the block size is unobservable: every block size
//! gives the same world, bit for bit, and a crate-private hook lets the
//! tests check that.
//!
//! # Certified bisection
//!
//! Boolean sharpening (see [`Population::sample`]) bisects a mix weight
//! `λ` over 40 steps, and each step compares a full pass over the column,
//! `sc_at(λ)`, with the target. That pass is one long chain of dependent
//! additions, and 41 of them per column were most of the sampling time.
//! Once the column's threshold is known, four group sums taken in one
//! pass give the same quantity in closed form for every `λ`, and a
//! rigorous bound on the rounding of both evaluations decides most steps
//! without the pass. A step the bound cannot decide, near the root, runs
//! the exact pass as before, so every decision, `λ` and column stays bit
//! for bit what the 41 exact passes gave. `Certificate` derives the bound.

use crate::{AttributeId, AttributeKind, DomainError, DomainSpec, ObjectId};
use disq_math::MultivariateNormal;
use rand::Rng;
use std::sync::Arc;

/// Objects drawn per block by [`Population::sample`]. The block draw
/// needs `3 · SAMPLE_BLOCK · attributes` scratch values, 26 kB for the
/// 17-attribute domains: small beside a world's columns even at 2,000
/// objects, and cache-resident. 64, 128 and 256 sampled 10⁶ objects
/// equally fast.
const SAMPLE_BLOCK: usize = 64;

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
        Population::sample_in_blocks(spec, n, SAMPLE_BLOCK, rng)
    }

    /// [`Population::sample`] with the objects drawn `block` at a time
    /// (zero counts as one). Every block size gives the same population;
    /// crate-private so the tests can vary what `sample` fixes.
    pub(crate) fn sample_in_blocks<R: Rng + ?Sized>(
        spec: Arc<DomainSpec>,
        n: usize,
        block: usize,
        rng: &mut R,
    ) -> Result<Self, DomainError> {
        let block = block.max(1);
        let mvn = MultivariateNormal::new(spec.means(), &spec.covariance_matrix())?;
        let mut columns: Vec<Vec<f64>> =
            (0..spec.n_attrs()).map(|_| Vec::with_capacity(n)).collect();
        let boolean: Vec<bool> = spec
            .attribute_ids()
            .map(|a| spec.attr(a).kind == AttributeKind::Boolean)
            .collect();
        // One scratch buffer: the block draw's, then sharpening's.
        let mut scratch = Vec::new();
        let mut done = 0;
        while done < n {
            let count = block.min(n - done);
            mvn.sample_block(rng, count, &mut scratch, |i, values| {
                if boolean[i] {
                    columns[i].extend(values.iter().map(|v| v.clamp(0.0, 1.0)));
                } else {
                    columns[i].extend_from_slice(values);
                }
            });
            done += count;
        }
        if n >= 8 {
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

/// Mixes each propensity toward a hard 0/1 threshold (at the value that
/// preserves the column mean) until `mean(q(1−q))` matches `target_sc`.
/// The mix weight is found by bisection; columns already at or below the
/// target are left untouched. `scratch` is reused across columns.
///
/// The threshold is one order statistic, so it is selected in O(n), and
/// each object's hard 0/1 target is recomputed from it where needed. The
/// result stays bit-identical to a full sort with a stored target (the
/// test reference `sharpen_by_sorting`). Each bisection step asks the
/// [`Certificate`] first and runs the exact pass [`sc_at`] only when the
/// certificate cannot decide, so the steps, and the column, are those of
/// the exact passes alone.
fn sharpen_boolean_column(column: &mut [f64], target_sc: f64, scratch: &mut Vec<f64>) {
    let threshold = select_threshold(column, scratch);
    let certificate = Certificate::new(column, threshold, target_sc);
    let exceeds = |lambda: f64| {
        certificate
            .as_ref()
            .and_then(|c| c.exceeds(lambda))
            .unwrap_or_else(|| sc_at(column, threshold, lambda) > target_sc)
    };
    if !exceeds(0.0) {
        return; // already agreeable enough
    }
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if exceeds(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let lambda = 0.5 * (lo + hi);
    for q in column.iter_mut() {
        *q = (1.0 - lambda) * *q + lambda * f64::from(*q >= threshold);
    }
}

/// The column's hard-0/1 threshold: its `(1 − mean)`-quantile, which
/// keeps the fraction of "hard yes" objects equal to the mean propensity.
/// Selected on a copy in `scratch`; `column` must hold propensities in
/// `[0, 1]` and must not be empty. The copy turns `-0.0` into `+0.0`
/// (`q + 0.0`), after which bit patterns order it as `partial_cmp` does;
/// `τ` is only read by `q >= τ`, blind to that sign. The same pass sums
/// the mean as `Sum` does: left to right from `-0.0`.
fn select_threshold(column: &[f64], scratch: &mut Vec<f64>) -> f64 {
    let n = column.len();
    let mut sum = -0.0;
    scratch.clear();
    scratch.extend(column.iter().map(|&q| {
        sum += q;
        q + 0.0
    }));
    let idx = (((1.0 - sum / n as f64) * n as f64) as usize).min(n - 1);
    let (_, &mut threshold, _) = scratch.select_nth_unstable_by_key(idx, |q| q.to_bits());
    threshold
}

/// The exact pass: `mean(m(1−m))` over the column mixed with weight
/// `lambda` toward its hard 0/1 target, `m = (1−λ)·q + λ·[q ≥ τ]`, summed
/// left to right. Every bisection decision is this value's comparison
/// with the target.
fn sc_at(column: &[f64], threshold: f64, lambda: f64) -> f64 {
    column
        .iter()
        .map(|&q| {
            let m = (1.0 - lambda) * q + lambda * f64::from(q >= threshold);
            m * (1.0 - m)
        })
        .sum::<f64>()
        / column.len() as f64
}

/// Unit roundoff of `f64`, `u = 2⁻⁵³`.
const U: f64 = f64::EPSILON / 2.0;

/// Decides `sc_at(column, τ, λ) > target` for a bisection midpoint `λ`
/// from four group sums, or declines.
///
/// **Closed form.** Let `a = 1 − λ`, exact because a midpoint has at most
/// 41 fractional bits. With group 0 the objects `q < τ` and group 1 the
/// objects `q ≥ τ`, the exact pass sums `m(1−m)` with `m = a·q` in group
/// 0 and `m = 1 − a·(1−q)` in group 1. In exact arithmetic that sum is
///
/// `R(λ) = a·Σ₀q − a²·Σ₀q² + a²·Σ₁q(1−q) + a·λ·Σ₁(1−q)`,
///
/// and `M(λ)`, the same four terms added in absolute value, bounds it.
/// [`Certificate::new`] takes the four sums in one pass; each call
/// evaluates `R̂` and `M̂` from them in floating point.
///
/// **Bound.** With `γ_k = k·u/(1 − k·u)` (Higham, *Accuracy and
/// Stability of Numerical Algorithms*, §3.1 and §4.2) and `T` the exact
/// pass's sum before its division by `n`:
///
/// * `|R̂ − R| ≤ γ_{⌈n/4⌉+9}·M`: each of `R`'s elementary products
///   passes through at most `⌈n/4⌉ + 9` roundings: two per element,
///   `⌈n/4⌉ + 2` in its group sum (four lanes of at most `⌈n/4⌉` terms,
///   then the lanes), `a²` or `a·λ`, the coefficient product and three in
///   the four-term sum;
/// * `|T − R| ≤ γ_{n+2}·M + 2.01·u·n`: the left-to-right sum of `n`
///   non-negative terms adds `γ_{n−1}` relative error; each group-0 term
///   is within `γ_3·a·q` of its exact value, and each group-1 term within
///   `γ_2` of it relative plus `(1 + γ_2)(2 + u)·u` absolute, because
///   `1 − m` there is computed from an `m` rounded near 1;
/// * `M ≤ M̂/(1 − γ_{⌈n/4⌉+9})`, and products that underflow add at most
///   `2⁻¹⁰⁷⁵` each, a few per element, far below `0.01·u·n`.
///
/// For `8 ≤ n ≤ 2⁴⁰`, `γ_{⌈n/4⌉+9} + γ_{n+2} ≤ 1.54·γ_{n+6}`, so
/// `|R̂ − T| ≤ 1.6·γ_{n+6}·M̂ + 2.02·u·n`. The certificate uses
/// `B = 2·γ_{n+6}·M̂ + 3·u·n`, which still covers that after the few
/// roundings of evaluating `B` itself.
///
/// **Decision.** It answers "greater" iff `R̂ − B > n·target·(1 + 2⁻⁵⁰)`
/// and "not greater" iff `R̂ + B < n·target·(1 − 2⁻⁵⁰)`, each side
/// evaluated in floating point. Counting the roundings of those two
/// comparisons, "greater" implies `T ≥ n·target·(1 + 3u)`, so the pass's
/// `T / n` rounds above the target; "not greater" implies
/// `T < n·target·(1 − 3u)`, so it rounds to at most the target. A normal
/// target keeps `T / n` out of the subnormal range where this matters;
/// other targets, and columns outside `8..=2⁴⁰`, get no certificate.
struct Certificate {
    /// `Σ₀q`, `Σ₀q²`, `Σ₁q(1−q)` and `Σ₁(1−q)`.
    sums: [f64; 4],
    /// `γ_{n+6}`.
    gamma: f64,
    /// `3·u·n`.
    absolute: f64,
    /// `n·target·(1 + 2⁻⁵⁰)`: `R̂ − B` above it certifies "greater".
    above: f64,
    /// `n·target·(1 − 2⁻⁵⁰)`: `R̂ + B` below it certifies "not greater".
    below: f64,
}

impl Certificate {
    /// Takes the group sums of `column`, propensities in `[0, 1]`, around
    /// `threshold`, or returns `None` where the bound does not hold (see
    /// the type's docs).
    fn new(column: &[f64], threshold: f64, target_sc: f64) -> Option<Self> {
        let n = column.len();
        let bounded =
            (8..=1 << 40).contains(&(n as u64)) && target_sc.is_normal() && target_sc > 0.0;
        if !bounded {
            return None;
        }
        // Branch-free over four interleaved lanes, so the pass is not
        // one chain of dependent additions. Multiplying by the 0/1 target
        // is exact, so a term meets only the roundings the bound counts.
        let add = |sums: &mut [f64; 4], q: f64| {
            let hard = f64::from(q >= threshold);
            let (q0, c1) = ((1.0 - hard) * q, hard * (1.0 - q));
            sums[0] += q0;
            sums[1] += q0 * q0;
            sums[2] += q * c1;
            sums[3] += c1;
        };
        let mut lanes = [[0.0; 4]; 4];
        let mut chunks = column.chunks_exact(lanes.len());
        for chunk in &mut chunks {
            for (sums, &q) in lanes.iter_mut().zip(chunk) {
                add(sums, q);
            }
        }
        for (sums, &q) in lanes.iter_mut().zip(chunks.remainder()) {
            add(sums, q);
        }
        let sums = lanes.iter().fold([0.0; 4], |acc, lane| {
            std::array::from_fn(|j| acc[j] + lane[j])
        });
        let n = n as f64;
        let k = (n + 6.0) * U;
        let n_target = n * target_sc;
        let slack = 8.0 * U;
        Some(Certificate {
            sums,
            gamma: k / (1.0 - k),
            absolute: 3.0 * U * n,
            above: n_target * (1.0 + slack),
            below: n_target * (1.0 - slack),
        })
    }

    /// `Some(sc_at(column, τ, lambda) > target)` where the bound decides
    /// it, `None` where only the exact pass can. `lambda` must be `0` or
    /// a bisection midpoint, so that `1 − lambda` is exact.
    fn exceeds(&self, lambda: f64) -> Option<bool> {
        let a = 1.0 - lambda;
        let (a2, a_lambda) = (a * a, a * lambda);
        let [below_q, below_q2, above_qc, above_c] = self.sums;
        let terms = [
            a * below_q,
            a2 * below_q2,
            a2 * above_qc,
            a_lambda * above_c,
        ];
        let r = terms[0] - terms[1] + terms[2] + terms[3];
        let m = terms[0] + terms[1] + terms[2] + terms[3];
        let bound = 2.0 * self.gamma * m + self.absolute;
        if r - bound > self.above {
            Some(true)
        } else if r + bound < self.below {
            Some(false)
        } else {
            None
        }
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
    use rand::{RngCore, SeedableRng};

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
            // One scratch across both columns, as `sample_in_blocks` reuses
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

        #[test]
        fn certified_decisions_agree_with_the_exact_pass(
            col in propensity_column(),
            target_sc in 0.0_f64..0.3,
            root in 1u64..1 << 20,
        ) {
            certified_steps(&col, target_sc);
            // A target equal to the column's own S_c at a midpoint λ puts
            // the root on the bisection path, where R̂ lands within the
            // bound of the target and the certificate must decline.
            let threshold = select_threshold(&col, &mut Vec::new());
            let lambda = root as f64 / (1u64 << 20) as f64;
            certified_steps(&col, sc_at(&col, threshold, lambda));
        }
    }

    /// Columns whose selected rank sits on ties, with sharpening still
    /// active: a `-0.0`/`0.0` tie (eight 1s and a value just below 1 whose
    /// deficit the mean rounds away, so the rank lands on the last zero)
    /// and a `1.0` tie (a value just above 0 that keeps `S_c` positive).
    /// Bit-pattern selection and the sorting reference agree bit for bit.
    #[test]
    fn selection_on_tied_ranks_matches_sorting() {
        let below_one = 1.0 - f64::EPSILON / 2.0;
        let zero_tie = vec![1.0, -0.0, 1.0, 1.0, 0.0, 1.0, below_one, 1.0, 1.0, 1.0];
        let one_tie = vec![1.0, 0.0, 1.0, 1e-300, 1.0, -0.0, 1.0, 1.0, 1.0, 1.0];
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (col, tie, target_sc) in [(zero_tie, 0.0, 1e-18), (one_tie, 1.0, 1e-302)] {
            assert_eq!(select_threshold(&col, &mut Vec::new()), tie);
            let mut want = col.clone();
            sharpen_by_sorting(&mut want, target_sc);
            let mut got = col.clone();
            sharpen_boolean_column(&mut got, target_sc, &mut Vec::new());
            assert_ne!(bits(&got), bits(&col), "sharpening ran");
            assert_eq!(bits(&got), bits(&want));
        }
    }

    /// Walks the bisection of [`sharpen_boolean_column`] with every step
    /// decided by the exact pass, asserts that each decision the
    /// certificate makes on the way is the exact one, and returns how
    /// many steps it decided out of the steps visited.
    fn certified_steps(column: &[f64], target_sc: f64) -> (usize, usize) {
        let threshold = select_threshold(column, &mut Vec::new());
        let certificate = Certificate::new(column, threshold, target_sc);
        let (mut decided, mut visited) = (0, 0);
        let mut exceeds = |lambda: f64| {
            let exact = sc_at(column, threshold, lambda) > target_sc;
            if let Some(certified) = certificate.as_ref().and_then(|c| c.exceeds(lambda)) {
                assert_eq!(certified, exact, "λ {lambda}, target {target_sc}");
                decided += 1;
            }
            visited += 1;
            exact
        };
        if exceeds(0.0) {
            let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
            for _ in 0..40 {
                let mid = 0.5 * (lo + hi);
                if exceeds(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
        }
        (decided, visited)
    }

    #[test]
    fn certificate_decides_the_steps_far_from_the_root() {
        // 10⁴ spread propensities, target well below their S_c: all 41
        // steps are visited, and only the last few, within the bound of
        // the root, need the exact pass.
        let col: Vec<f64> = (0..10_000)
            .map(|i| (0.3 + i as f64 * 0.618_033_988_749_895).fract())
            .collect();
        let (decided, visited) = certified_steps(&col, 0.05);
        assert_eq!(visited, 41);
        assert!(decided >= 25, "certificate decided {decided} of 41");
    }

    #[test]
    fn certificate_declines_targets_it_cannot_bound() {
        let col = [0.1, 0.4, 0.5, 0.6, 0.9, 0.2, 0.7, 0.3];
        for target in [0.0, f64::MIN_POSITIVE / 2.0, -0.1, f64::INFINITY, f64::NAN] {
            assert!(Certificate::new(&col, 0.5, target).is_none());
        }
        assert!(Certificate::new(&col, 0.5, f64::MIN_POSITIVE).is_some());
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
    fn every_block_size_gives_the_same_world() {
        let s = spec();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [0usize, 5, 100, 600] {
            let mut rng = StdRng::seed_from_u64(77);
            let want = Population::sample(Arc::clone(&s), n, &mut rng).unwrap();
            let next = rng.next_u64();
            for block in [1, 3, 7, SAMPLE_BLOCK, n, n + 5] {
                let mut rng = StdRng::seed_from_u64(77);
                let got = Population::sample_in_blocks(Arc::clone(&s), n, block, &mut rng).unwrap();
                for a in s.attribute_ids() {
                    assert_eq!(
                        bits(want.column(a)),
                        bits(got.column(a)),
                        "n {n}, block {block}, attr {a:?}"
                    );
                }
                // The RNG lands on the same stream position too.
                assert_eq!(rng.next_u64(), next, "n {n}, block {block}");
            }
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
