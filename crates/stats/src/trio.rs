//! The statistics trio `S = (S_o, S_a, S_c)` (§2 and Table 2 of the paper).
//!
//! A [`StatsTrio`] holds, for a growing set of discovered attributes:
//!
//! * `S_o[t][a]` — covariance between one worker's answer to attribute `a`
//!   and the *true* value of query attribute `t`,
//! * `S_a[i][j]` — covariance between the true values of attributes `i` and
//!   `j` (the independent worker noise lives in `S_c`, not here: the error
//!   model of Eq. 2 adds it back as `Diag(S_c/b)`),
//! * `S_c[a]` — expected variance of a single worker's answer to `a`.
//!
//! The paper's definitions wrap `S_o`/`S_a` in absolute values; we store the
//! *signed* covariances (required for Eq. 2 to actually be the regression
//! error) and take magnitudes in the heuristics that want them (`G(a_j)`,
//! the pairing rule). The trio also tracks the targets' own variances,
//! needed by Eq. 11 and the error-normalizing weights `ω_t = 1/Var(a_t)`.

use disq_math::{MathError, Matrix, QuadFormWorkspace};
use std::fmt;

/// Errors raised by [`StatsTrio`] operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TrioError {
    /// An attribute index was out of range.
    AttrOutOfRange {
        /// Offending index.
        index: usize,
        /// Current number of attributes.
        len: usize,
    },
    /// A target index was out of range.
    TargetOutOfRange {
        /// Offending index.
        index: usize,
        /// Number of targets.
        len: usize,
    },
    /// A supplied vector had the wrong length.
    BadLength {
        /// What the vector was for.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Supplied length.
        found: usize,
    },
    /// The underlying linear algebra failed.
    Math(MathError),
}

impl fmt::Display for TrioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrioError::AttrOutOfRange { index, len } => {
                write!(f, "attribute index {index} out of range (have {len})")
            }
            TrioError::TargetOutOfRange { index, len } => {
                write!(f, "target index {index} out of range (have {len})")
            }
            TrioError::BadLength {
                what,
                expected,
                found,
            } => write!(f, "{what}: expected length {expected}, found {found}"),
            TrioError::Math(e) => write!(f, "math error: {e}"),
        }
    }
}

impl std::error::Error for TrioError {}

impl From<MathError> for TrioError {
    fn from(e: MathError) -> Self {
        TrioError::Math(e)
    }
}

/// Reusable scratch for the Eq. 2 / Eq. 10 objective evaluations.
///
/// The greedy budget-distribution solver scores thousands of candidate
/// allocations; each score needs the active-attribute set, the noise
/// diagonal `S_c/b`, the per-target signal vector, and a factorization of
/// `S_a + Diag(S_c/b)`. Holding them here (including the packed-triangle
/// [`QuadFormWorkspace`]) removes every per-candidate heap allocation, and
/// the factorization is shared by all targets of a multi-target query —
/// the matrix does not depend on the target, only the right-hand side
/// does.
#[derive(Debug, Clone, Default)]
pub struct EvalWorkspace {
    active: Vec<usize>,
    d: Vec<f64>,
    v: Vec<f64>,
    qf: QuadFormWorkspace,
}

impl EvalWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The statistics trio over a growing attribute set, for one or more query
/// attributes (targets).
#[derive(Debug, Clone)]
pub struct StatsTrio {
    /// `s_o[t][a]`: signed covariance of attribute `a`'s one-worker answer
    /// with target `t`'s true value.
    s_o: Vec<Vec<f64>>,
    /// `s_a[i][j]`: signed covariance between true attribute values
    /// (symmetric; diagonal = attribute variance).
    s_a: Vec<Vec<f64>>,
    /// Per-attribute worker answer variance.
    s_c: Vec<f64>,
    /// Variance of each target's true value.
    target_var: Vec<f64>,
}

// Crosses JSON as its four members, stored verbatim; decoding checks
// their shapes through `from_parts`.
disq_trace::record!(StatsTrio { s_o, s_a, s_c, target_var } via from_parts);

impl StatsTrio {
    /// Creates an empty trio for `n_targets` query attributes.
    pub fn new(n_targets: usize) -> Self {
        StatsTrio {
            s_o: vec![Vec::new(); n_targets],
            s_a: Vec::new(),
            s_c: Vec::new(),
            target_var: vec![0.0; n_targets],
        }
    }

    /// Number of query attributes (targets).
    pub fn n_targets(&self) -> usize {
        self.s_o.len()
    }

    /// Number of discovered attributes tracked so far.
    pub fn n_attrs(&self) -> usize {
        self.s_c.len()
    }

    fn check_attr(&self, a: usize) -> Result<(), TrioError> {
        if a >= self.n_attrs() {
            Err(TrioError::AttrOutOfRange {
                index: a,
                len: self.n_attrs(),
            })
        } else {
            Ok(())
        }
    }

    fn check_target(&self, t: usize) -> Result<(), TrioError> {
        if t >= self.n_targets() {
            Err(TrioError::TargetOutOfRange {
                index: t,
                len: self.n_targets(),
            })
        } else {
            Ok(())
        }
    }

    /// Appends a new attribute and returns its index.
    ///
    /// * `s_o_per_target` — covariance with each target (length
    ///   `n_targets`); entries for targets that were not measured can be
    ///   `f64::NAN` and filled in later by the graph estimator.
    /// * `cov_with_existing` — covariance with each existing attribute
    ///   (length `n_attrs()` *before* the push).
    /// * `own_var` — variance of the new attribute's true value.
    /// * `s_c` — one-worker answer variance.
    pub fn push_attribute(
        &mut self,
        s_o_per_target: &[f64],
        cov_with_existing: &[f64],
        own_var: f64,
        s_c: f64,
    ) -> Result<usize, TrioError> {
        if s_o_per_target.len() != self.n_targets() {
            return Err(TrioError::BadLength {
                what: "s_o_per_target",
                expected: self.n_targets(),
                found: s_o_per_target.len(),
            });
        }
        let n = self.n_attrs();
        if cov_with_existing.len() != n {
            return Err(TrioError::BadLength {
                what: "cov_with_existing",
                expected: n,
                found: cov_with_existing.len(),
            });
        }
        for (t, &v) in s_o_per_target.iter().enumerate() {
            self.s_o[t].push(v);
        }
        for (i, &c) in cov_with_existing.iter().enumerate() {
            self.s_a[i].push(c);
        }
        let mut new_row = cov_with_existing.to_vec();
        new_row.push(own_var.max(0.0));
        self.s_a.push(new_row);
        self.s_c.push(s_c.max(0.0));
        Ok(n)
    }

    /// Rebuilds a trio from raw component arrays, storing every value
    /// **verbatim** — no clamping, no symmetrization, no NaN repair.
    ///
    /// This is the deserialization counterpart of the raw accessors
    /// ([`s_o_rows`](Self::s_o_rows) etc.): a trio serialized field by
    /// field and rebuilt through `from_parts` is bit-identical to the
    /// original, including negative zeros, non-canonical NaN payloads and
    /// edge values the incremental setters would clamp. Only the shape is
    /// validated: `s_o` must be `n_targets × n_attrs`, `s_a` square
    /// `n_attrs × n_attrs`, and `target_var` length `n_targets`.
    pub fn from_parts(
        s_o: Vec<Vec<f64>>,
        s_a: Vec<Vec<f64>>,
        s_c: Vec<f64>,
        target_var: Vec<f64>,
    ) -> Result<Self, TrioError> {
        let n_attrs = s_c.len();
        for row in &s_o {
            if row.len() != n_attrs {
                return Err(TrioError::BadLength {
                    what: "s_o row",
                    expected: n_attrs,
                    found: row.len(),
                });
            }
        }
        if s_a.len() != n_attrs {
            return Err(TrioError::BadLength {
                what: "s_a",
                expected: n_attrs,
                found: s_a.len(),
            });
        }
        for row in &s_a {
            if row.len() != n_attrs {
                return Err(TrioError::BadLength {
                    what: "s_a row",
                    expected: n_attrs,
                    found: row.len(),
                });
            }
        }
        if target_var.len() != s_o.len() {
            return Err(TrioError::BadLength {
                what: "target_var",
                expected: s_o.len(),
                found: target_var.len(),
            });
        }
        Ok(StatsTrio {
            s_o,
            s_a,
            s_c,
            target_var,
        })
    }

    /// Raw `S_o` rows (`rows[t][a]`), for serialization.
    pub fn s_o_rows(&self) -> &[Vec<f64>] {
        &self.s_o
    }

    /// Raw `S_a` rows, for serialization.
    pub fn s_a_rows(&self) -> &[Vec<f64>] {
        &self.s_a
    }

    /// Raw `S_c` values, for serialization.
    pub fn s_c_values(&self) -> &[f64] {
        &self.s_c
    }

    /// Raw target variances, for serialization.
    pub fn target_variances(&self) -> &[f64] {
        &self.target_var
    }

    /// Signed `S_o` entry for `(target, attr)`.
    pub fn s_o(&self, target: usize, attr: usize) -> f64 {
        self.s_o[target][attr]
    }

    /// Overwrites an `S_o` entry (used by the §4 graph estimator).
    pub fn set_s_o(&mut self, target: usize, attr: usize, value: f64) -> Result<(), TrioError> {
        self.check_target(target)?;
        self.check_attr(attr)?;
        self.s_o[target][attr] = value;
        Ok(())
    }

    /// True when the `(target, attr)` covariance was never measured or
    /// estimated (stored as NaN).
    pub fn s_o_missing(&self, target: usize, attr: usize) -> bool {
        self.s_o[target][attr].is_nan()
    }

    /// Signed `S_a` entry.
    pub fn s_a(&self, i: usize, j: usize) -> f64 {
        self.s_a[i][j]
    }

    /// Overwrites an `S_a` entry symmetrically.
    pub fn set_s_a(&mut self, i: usize, j: usize, value: f64) -> Result<(), TrioError> {
        self.check_attr(i)?;
        self.check_attr(j)?;
        self.s_a[i][j] = value;
        self.s_a[j][i] = value;
        Ok(())
    }

    /// Worker answer variance for an attribute.
    pub fn s_c(&self, attr: usize) -> f64 {
        self.s_c[attr]
    }

    /// Overwrites `S_c` for an attribute.
    pub fn set_s_c(&mut self, attr: usize, value: f64) -> Result<(), TrioError> {
        self.check_attr(attr)?;
        self.s_c[attr] = value.max(0.0);
        Ok(())
    }

    /// Standard deviation of the attribute's true value (`√S_a[a][a]`).
    pub fn sigma(&self, attr: usize) -> f64 {
        self.s_a[attr][attr].max(0.0).sqrt()
    }

    /// Variance of a target's true value.
    pub fn target_variance(&self, target: usize) -> f64 {
        self.target_var[target]
    }

    /// Sets a target's true-value variance.
    pub fn set_target_variance(&mut self, target: usize, var: f64) -> Result<(), TrioError> {
        self.check_target(target)?;
        self.target_var[target] = var.max(0.0);
        Ok(())
    }

    /// Correlation between attribute `a`'s answer and target `t`
    /// (`S_o / (σ_a·σ_t)`, clamped to [−1, 1]; `0` when undefined).
    pub fn target_correlation(&self, target: usize, attr: usize) -> f64 {
        let so = self.s_o[target][attr];
        if so.is_nan() {
            return 0.0;
        }
        let denom = self.sigma(attr) * self.target_var[target].max(0.0).sqrt();
        if denom <= 0.0 {
            return 0.0;
        }
        (so / denom).clamp(-1.0, 1.0)
    }

    /// Correlation between two attributes.
    pub fn attr_correlation(&self, i: usize, j: usize) -> f64 {
        let denom = self.sigma(i) * self.sigma(j);
        if denom <= 0.0 {
            return 0.0;
        }
        (self.s_a[i][j] / denom).clamp(-1.0, 1.0)
    }

    /// The `S_a` covariance matrix restricted to `attrs`.
    pub fn s_a_submatrix(&self, attrs: &[usize]) -> Matrix {
        let k = attrs.len();
        let mut m = Matrix::zeros(k, k);
        for (si, &i) in attrs.iter().enumerate() {
            for (sj, &j) in attrs.iter().enumerate() {
                m[(si, sj)] = self.s_a[i][j];
            }
        }
        m
    }

    /// Evaluates the Eq. 2 objective
    /// `S_oᵀ (S_a + Diag(S_c/b))⁻¹ S_o`
    /// for one target, over the attributes with strictly positive budget.
    /// Unmeasured (NaN) `S_o` entries are treated as 0 (no usable signal).
    ///
    /// `budget[a]` is the (possibly fractional) number of value questions
    /// allocated to attribute `a`; its length must equal `n_attrs()`.
    pub fn explained_variance(&self, target: usize, budget: &[f64]) -> Result<f64, TrioError> {
        self.explained_variance_ws(target, budget, &mut EvalWorkspace::new())
    }

    /// [`StatsTrio::explained_variance`] with caller-provided scratch: no
    /// heap allocation once the workspace buffers have grown.
    pub fn explained_variance_ws(
        &self,
        target: usize,
        budget: &[f64],
        ws: &mut EvalWorkspace,
    ) -> Result<f64, TrioError> {
        self.check_target(target)?;
        self.prepare_factorization(budget, ws)?;
        if ws.active.is_empty() {
            return Ok(0.0);
        }
        self.fill_signal(target, ws);
        Ok(ws.qf.quad_form(&ws.v)?)
    }

    /// Selects the positive-budget attributes, builds the noise diagonal
    /// `S_c/b`, and factorizes `S_a + Diag(S_c/b)` into the workspace. The
    /// factor is target-independent and serves every subsequent
    /// right-hand-side solve.
    fn prepare_factorization(
        &self,
        budget: &[f64],
        ws: &mut EvalWorkspace,
    ) -> Result<(), TrioError> {
        if budget.len() != self.n_attrs() {
            return Err(TrioError::BadLength {
                what: "budget",
                expected: self.n_attrs(),
                found: budget.len(),
            });
        }
        ws.active.clear();
        ws.active
            .extend((0..self.n_attrs()).filter(|&a| budget[a] > 0.0));
        if ws.active.is_empty() {
            return Ok(());
        }
        ws.d.clear();
        ws.d.extend(ws.active.iter().map(|&a| self.s_c[a] / budget[a]));
        let (qf, active, d) = (&mut ws.qf, &ws.active, &ws.d);
        qf.factorize_with(active.len(), d, |i, j| self.s_a[active[i]][active[j]])?;
        Ok(())
    }

    /// Fills the workspace signal vector `S_o[target]` over the active set
    /// (NaN entries — never measured — contribute no signal).
    fn fill_signal(&self, target: usize, ws: &mut EvalWorkspace) {
        ws.v.clear();
        ws.v.extend(ws.active.iter().map(|&a| {
            let so = self.s_o[target][a];
            if so.is_nan() {
                0.0
            } else {
                so
            }
        }));
    }

    /// Weighted multi-target objective (Eq. 10): `Σ_t ω_t · EV(t, b)`.
    pub fn explained_variance_weighted(
        &self,
        weights: &[f64],
        budget: &[f64],
    ) -> Result<f64, TrioError> {
        self.explained_variance_weighted_ws(weights, budget, &mut EvalWorkspace::new())
    }

    /// [`StatsTrio::explained_variance_weighted`] with caller-provided
    /// scratch. `S_a + Diag(S_c/b)` is factorized once and shared by all
    /// targets — only the right-hand side changes between them.
    pub fn explained_variance_weighted_ws(
        &self,
        weights: &[f64],
        budget: &[f64],
        ws: &mut EvalWorkspace,
    ) -> Result<f64, TrioError> {
        if weights.len() != self.n_targets() {
            return Err(TrioError::BadLength {
                what: "weights",
                expected: self.n_targets(),
                found: weights.len(),
            });
        }
        self.prepare_factorization(budget, ws)?;
        if ws.active.is_empty() {
            return Ok(0.0);
        }
        let mut total = 0.0;
        for (t, &w) in weights.iter().enumerate() {
            if w != 0.0 {
                self.fill_signal(t, ws);
                total += w * ws.qf.quad_form(&ws.v)?;
            }
        }
        Ok(total)
    }

    /// Predicted plan error for one target: `Var(a_t) − EV(t, b)`, floored
    /// at zero (estimation noise can push EV above the variance).
    pub fn predicted_error(&self, target: usize, budget: &[f64]) -> Result<f64, TrioError> {
        let ev = self.explained_variance(target, budget)?;
        Ok((self.target_var[target] - ev).max(0.0))
    }

    /// Hash over every stored statistic's raw bit pattern, plus the
    /// dimensions, one whole 64-bit word per step:
    /// `h ← (rotl(h, 5) ⊕ word) · K` with an odd `K`. Each step is a
    /// bijection of `h` for a fixed word and of the word for a fixed
    /// `h`, so changing any one stored value always changes the result.
    /// Any mutation — a pushed attribute, an overwritten covariance, a
    /// re-estimated variance — thus changes the fingerprint, and caches
    /// keyed by it (e.g. the dismantle-loss probe cache) invalidate
    /// exactly when the trio changes. Distinct NaN payloads hash
    /// differently; the estimators only ever produce the canonical
    /// `f64::NAN`, so this never causes spurious misses in practice.
    pub fn fingerprint(&self) -> u64 {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut h = 0u64;
        let mut mix = |word: u64| h = (h.rotate_left(5) ^ word).wrapping_mul(K);
        mix(self.n_targets() as u64);
        mix(self.n_attrs() as u64);
        let rows = self.s_o.iter().chain(&self.s_a);
        for v in rows.flatten().chain(&self.s_c).chain(&self.target_var) {
            mix(v.to_bits());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One attribute that IS the target (covariance = variance = 1),
    /// answered with noise variance 1.
    fn single_attr_trio() -> StatsTrio {
        let mut t = StatsTrio::new(1);
        t.push_attribute(&[1.0], &[], 1.0, 1.0).unwrap();
        t.set_target_variance(0, 1.0).unwrap();
        t
    }

    #[test]
    fn push_and_access() {
        let mut t = StatsTrio::new(2);
        assert_eq!(t.n_targets(), 2);
        let a0 = t.push_attribute(&[0.5, 0.2], &[], 2.0, 0.3).unwrap();
        assert_eq!(a0, 0);
        let a1 = t.push_attribute(&[0.1, 0.4], &[0.7], 1.5, 0.2).unwrap();
        assert_eq!(a1, 1);
        assert_eq!(t.n_attrs(), 2);
        assert_eq!(t.s_o(0, 0), 0.5);
        assert_eq!(t.s_o(1, 1), 0.4);
        assert_eq!(t.s_a(0, 1), 0.7);
        assert_eq!(t.s_a(1, 0), 0.7);
        assert_eq!(t.s_a(1, 1), 1.5);
        assert_eq!(t.s_c(1), 0.2);
        assert!((t.sigma(0) - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn push_length_validation() {
        let mut t = StatsTrio::new(1);
        assert!(matches!(
            t.push_attribute(&[1.0, 2.0], &[], 1.0, 1.0),
            Err(TrioError::BadLength { .. })
        ));
        t.push_attribute(&[1.0], &[], 1.0, 1.0).unwrap();
        assert!(matches!(
            t.push_attribute(&[1.0], &[], 1.0, 1.0).and_then(|_| {
                // cov_with_existing must now have length 2.
                t.push_attribute(&[1.0], &[0.1], 1.0, 1.0)
            }),
            Err(TrioError::BadLength { .. })
        ));
    }

    #[test]
    fn setters_symmetric_and_checked() {
        let mut t = StatsTrio::new(1);
        t.push_attribute(&[1.0], &[], 1.0, 1.0).unwrap();
        t.push_attribute(&[0.5], &[0.2], 1.0, 1.0).unwrap();
        t.set_s_a(0, 1, 0.9).unwrap();
        assert_eq!(t.s_a(1, 0), 0.9);
        assert!(t.set_s_a(0, 5, 1.0).is_err());
        assert!(t.set_s_o(3, 0, 1.0).is_err());
        assert!(t.set_s_c(9, 1.0).is_err());
        // Negative variances are clamped, not stored.
        t.set_s_c(0, -1.0).unwrap();
        assert_eq!(t.s_c(0), 0.0);
    }

    #[test]
    fn explained_variance_single_attribute_closed_form() {
        // EV = S_o² / (Var + S_c/b) = 1 / (1 + 1/b).
        let t = single_attr_trio();
        for b in [1.0, 2.0, 10.0] {
            let ev = t.explained_variance(0, &[b]).unwrap();
            let expect = 1.0 / (1.0 + 1.0 / b);
            assert!((ev - expect).abs() < 1e-12, "b={b}");
        }
    }

    #[test]
    fn explained_variance_monotone_in_budget() {
        let t = single_attr_trio();
        let e1 = t.explained_variance(0, &[1.0]).unwrap();
        let e5 = t.explained_variance(0, &[5.0]).unwrap();
        assert!(e5 > e1);
    }

    #[test]
    fn zero_budget_attributes_excluded() {
        let mut t = StatsTrio::new(1);
        t.push_attribute(&[1.0], &[], 1.0, 1.0).unwrap();
        // A junk attribute with huge fake signal but zero budget must not
        // contribute.
        t.push_attribute(&[100.0], &[0.0], 1.0, 1.0).unwrap();
        t.set_target_variance(0, 1.0).unwrap();
        let with = t.explained_variance(0, &[2.0, 0.0]).unwrap();
        let only = single_attr_trio().explained_variance(0, &[2.0]).unwrap();
        assert!((with - only).abs() < 1e-12);
    }

    #[test]
    fn all_zero_budget_gives_zero() {
        let t = single_attr_trio();
        assert_eq!(t.explained_variance(0, &[0.0]).unwrap(), 0.0);
    }

    #[test]
    fn nan_s_o_treated_as_zero_signal() {
        let mut t = StatsTrio::new(1);
        t.push_attribute(&[f64::NAN], &[], 1.0, 1.0).unwrap();
        t.set_target_variance(0, 1.0).unwrap();
        assert!(t.s_o_missing(0, 0));
        let ev = t.explained_variance(0, &[5.0]).unwrap();
        assert_eq!(ev, 0.0);
    }

    #[test]
    fn second_correlated_attribute_adds_less_than_independent() {
        // Redundant attribute (high correlation with the first) should add
        // less explained variance than an independent one of equal signal.
        let mut redundant = StatsTrio::new(1);
        redundant.push_attribute(&[0.8], &[], 1.0, 0.5).unwrap();
        redundant.push_attribute(&[0.8], &[0.9], 1.0, 0.5).unwrap();
        redundant.set_target_variance(0, 1.0).unwrap();

        let mut indep = StatsTrio::new(1);
        indep.push_attribute(&[0.8], &[], 1.0, 0.5).unwrap();
        indep.push_attribute(&[0.8], &[0.0], 1.0, 0.5).unwrap();
        indep.set_target_variance(0, 1.0).unwrap();

        let ev_red = redundant.explained_variance(0, &[2.0, 2.0]).unwrap();
        let ev_ind = indep.explained_variance(0, &[2.0, 2.0]).unwrap();
        assert!(ev_ind > ev_red, "indep {ev_ind} vs redundant {ev_red}");
    }

    #[test]
    fn weighted_objective_sums_targets() {
        let mut t = StatsTrio::new(2);
        t.push_attribute(&[1.0, 0.5], &[], 1.0, 1.0).unwrap();
        t.set_target_variance(0, 1.0).unwrap();
        t.set_target_variance(1, 1.0).unwrap();
        let b = [2.0];
        let w = [1.0, 2.0];
        let total = t.explained_variance_weighted(&w, &b).unwrap();
        let e0 = t.explained_variance(0, &b).unwrap();
        let e1 = t.explained_variance(1, &b).unwrap();
        assert!((total - (e0 + 2.0 * e1)).abs() < 1e-12);
    }

    #[test]
    fn predicted_error_decreases_with_budget_and_floors_at_zero() {
        let t = single_attr_trio();
        let e1 = t.predicted_error(0, &[1.0]).unwrap();
        let e9 = t.predicted_error(0, &[9.0]).unwrap();
        assert!(e9 < e1);
        assert!(e9 >= 0.0);
    }

    #[test]
    fn correlations_computed_and_clamped() {
        let mut t = StatsTrio::new(1);
        t.push_attribute(&[2.0], &[], 1.0, 0.1).unwrap(); // implies rho > 1 (broken estimate)
        t.set_target_variance(0, 1.0).unwrap();
        assert_eq!(t.target_correlation(0, 0), 1.0);
        t.push_attribute(&[0.0], &[0.5], 1.0, 0.1).unwrap();
        assert!((t.attr_correlation(0, 1) - 0.5).abs() < 1e-12);
        assert_eq!(t.attr_correlation(0, 0), 1.0);
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let mut t = StatsTrio::new(2);
        t.push_attribute(&[1.0, 0.5], &[], 1.0, 1.0).unwrap();
        t.push_attribute(&[0.3, 0.9], &[0.4], 2.0, 0.5).unwrap();
        t.set_target_variance(0, 1.0).unwrap();
        t.set_target_variance(1, 1.0).unwrap();
        let mut ws = EvalWorkspace::new();
        // Reuse one workspace across budgets and both entry points; every
        // value must equal the allocate-fresh reference bit-for-bit.
        for b in [[1.0, 2.0], [3.0, 0.0], [0.5, 0.5]] {
            for target in 0..2 {
                assert_eq!(
                    t.explained_variance_ws(target, &b, &mut ws).unwrap(),
                    t.explained_variance(target, &b).unwrap(),
                );
            }
            let w = [1.0, 2.0];
            assert_eq!(
                t.explained_variance_weighted_ws(&w, &b, &mut ws).unwrap(),
                t.explained_variance_weighted(&w, &b).unwrap(),
            );
        }
    }

    #[test]
    fn budget_length_checked() {
        let t = single_attr_trio();
        assert!(matches!(
            t.explained_variance(0, &[1.0, 1.0]),
            Err(TrioError::BadLength { .. })
        ));
        assert!(matches!(
            t.explained_variance(4, &[1.0]),
            Err(TrioError::TargetOutOfRange { .. })
        ));
    }

    #[test]
    fn fingerprint_tracks_every_mutation() {
        let mut t = StatsTrio::new(1);
        t.push_attribute(&[1.0], &[], 1.0, 1.0).unwrap();
        t.set_target_variance(0, 1.0).unwrap();
        let base = t.fingerprint();
        assert_eq!(base, t.fingerprint(), "fingerprint must be stable");
        let mut seen = vec![base];
        t.set_s_o(0, 0, 0.9).unwrap();
        seen.push(t.fingerprint());
        t.set_s_a(0, 0, 1.1).unwrap();
        seen.push(t.fingerprint());
        t.set_s_c(0, 0.7).unwrap();
        seen.push(t.fingerprint());
        t.set_target_variance(0, 2.0).unwrap();
        seen.push(t.fingerprint());
        t.push_attribute(&[0.5], &[0.2], 1.0, 1.0).unwrap();
        seen.push(t.fingerprint());
        for i in 0..seen.len() {
            for j in (i + 1)..seen.len() {
                assert_ne!(seen[i], seen[j], "mutations {i} and {j} collided");
            }
        }
        // Every step mixes a whole word bijectively, so flipping any one
        // bit of any one stored value changes the hash.
        let last = t.fingerprint();
        for bit in 0..64 {
            let v = t.s_o(0, 1);
            t.set_s_o(0, 1, f64::from_bits(v.to_bits() ^ (1 << bit)))
                .unwrap();
            assert_ne!(t.fingerprint(), last, "flipping S_o bit {bit} went unseen");
            t.set_s_o(0, 1, v).unwrap();
        }
        assert_eq!(t.fingerprint(), last);
    }

    #[test]
    fn from_parts_is_bit_exact_including_clamp_edge_values() {
        // Values the incremental setters would clamp or repair: negative
        // variances, negative zero, a non-canonical NaN payload.
        let odd_nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let s_o = vec![vec![0.5, odd_nan]];
        let s_a = vec![vec![-0.0, 0.3], vec![0.4, -2.5]]; // asymmetric on purpose
        let s_c = vec![-1.0, 0.0];
        let tv = vec![-0.0];
        let t = StatsTrio::from_parts(s_o.clone(), s_a.clone(), s_c.clone(), tv.clone()).unwrap();
        assert_eq!(t.n_targets(), 1);
        assert_eq!(t.n_attrs(), 2);
        let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&t.s_o_rows()[0]), bits(&s_o[0]));
        assert_eq!(bits(&t.s_a_rows()[0]), bits(&s_a[0]));
        assert_eq!(bits(&t.s_a_rows()[1]), bits(&s_a[1]));
        assert_eq!(bits(t.s_c_values()), bits(&s_c));
        assert_eq!(bits(t.target_variances()), bits(&tv));
        // A round trip through the accessors reproduces the same trio,
        // fingerprint included.
        let back = StatsTrio::from_parts(
            t.s_o_rows().to_vec(),
            t.s_a_rows().to_vec(),
            t.s_c_values().to_vec(),
            t.target_variances().to_vec(),
        )
        .unwrap();
        assert_eq!(back.fingerprint(), t.fingerprint());
    }

    #[test]
    fn from_parts_validates_shape() {
        // s_o row too short.
        assert!(matches!(
            StatsTrio::from_parts(
                vec![vec![1.0]],
                vec![vec![0.0; 2]; 2],
                vec![0.0; 2],
                vec![0.0]
            ),
            Err(TrioError::BadLength { .. })
        ));
        // s_a not square: wrong row count, then wrong row length.
        assert!(matches!(
            StatsTrio::from_parts(vec![vec![1.0]], Vec::new(), vec![0.0], vec![0.0]),
            Err(TrioError::BadLength { what: "s_a", .. })
        ));
        assert!(matches!(
            StatsTrio::from_parts(vec![vec![1.0]], vec![vec![0.0, 0.0]], vec![0.0], vec![0.0]),
            Err(TrioError::BadLength {
                what: "s_a row",
                ..
            })
        ));
        // target_var length mismatch.
        assert!(matches!(
            StatsTrio::from_parts(vec![vec![1.0]], vec![vec![0.0]], vec![0.0], vec![0.0, 0.0]),
            Err(TrioError::BadLength { .. })
        ));
    }

    #[test]
    fn error_display() {
        let e = TrioError::BadLength {
            what: "budget",
            expected: 2,
            found: 1,
        };
        assert!(e.to_string().contains("budget"));
    }
}
