//! The plan-quality quadratic form `S_oᵀ (S_a + D)⁻¹ S_o`.
//!
//! Equation 2 of the paper: the mean squared error of the best linear
//! assembly is `E[a_t²] − S_oᵀ (S_a + Diag(S_c(a)/b(a)))⁻¹ S_o`, so every
//! candidate budget distribution is scored by this form. The greedy
//! forward-selection solver evaluates it thousands of times, always on
//! small principal submatrices (attributes with non-zero budget).
//!
//! Because the matrix `S_a + D` is symmetric and identical across the
//! query targets of one evaluation, the hot path is *factorize once,
//! solve per target*: [`QuadFormWorkspace`] stores the packed lower
//! triangle (n(n+1)/2 doubles instead of n² plus a cloned input), runs an
//! in-place Cholesky on it, and then answers any number of
//! [`QuadFormWorkspace::quad_form`] queries against the cached factor
//! without further allocation.

use crate::rank1::{cholesky_packed_in_place, packed_index as packed};
use crate::{Lu, MathError, Matrix, Result};
use disq_trace::Timer;

/// Which factorization the workspace currently holds.
#[derive(Debug, Clone)]
enum FactorState {
    /// No successful `factorize` call yet.
    Unfactored,
    /// `fac` holds the packed Cholesky factor of the (possibly jittered)
    /// matrix.
    Cholesky,
    /// The matrix was too broken for Cholesky even with jitter; a dense LU
    /// of the symmetric reconstruction stands in.
    Lu(Lu),
}

/// Reusable evaluator of `vᵀ (M + Diag(d))⁻¹ v` for a fixed `(M, d)` and
/// many right-hand sides `v`.
///
/// All buffers are retained across [`QuadFormWorkspace::factorize`] calls,
/// so a solver loop that scores thousands of candidate budget
/// distributions performs no per-candidate heap allocation once the
/// buffers have grown to the working dimension.
#[derive(Debug, Clone)]
pub struct QuadFormWorkspace {
    n: usize,
    /// Packed lower triangle of `M + Diag(d)` (kept pristine for jitter
    /// retries).
    base: Vec<f64>,
    /// Packed factor `L`, or scratch during retries.
    fac: Vec<f64>,
    /// Triangular-solve scratch.
    y: Vec<f64>,
    state: FactorState,
}

impl Default for QuadFormWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl QuadFormWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        QuadFormWorkspace {
            n: 0,
            base: Vec::new(),
            fac: Vec::new(),
            y: Vec::new(),
            state: FactorState::Unfactored,
        }
    }

    /// Dimension of the currently factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Factorizes `M + Diag(d)` where the symmetric `M` is given entry-wise
    /// by `entry(i, j)` for `j ≤ i` (only the lower triangle is read).
    ///
    /// Rescue ladder: plain Cholesky (the matrix is a covariance plus a
    /// positive diagonal, hence SPD in the common case), then diagonal
    /// jitter growing from `1e-10·max|A|` to `1e-4·max|A|`, then a dense
    /// LU of the symmetric reconstruction.
    pub fn factorize_with(
        &mut self,
        n: usize,
        d: &[f64],
        entry: impl FnMut(usize, usize) -> f64,
    ) -> Result<()> {
        disq_trace::time(Timer::QuadFormFactorize, || {
            self.factorize_with_impl(n, d, entry)
        })
    }

    fn factorize_with_impl(
        &mut self,
        n: usize,
        d: &[f64],
        mut entry: impl FnMut(usize, usize) -> f64,
    ) -> Result<()> {
        if d.len() != n {
            return Err(MathError::ShapeMismatch {
                expected: format!("{n}x1"),
                found: format!("{}x1", d.len()),
            });
        }
        self.n = n;
        self.state = FactorState::Unfactored;
        if n == 0 {
            return Ok(());
        }
        let len = packed(n - 1, n - 1) + 1;
        self.base.clear();
        self.base.reserve(len);
        for i in 0..n {
            for j in 0..i {
                self.base.push(entry(i, j));
            }
            self.base.push(entry(i, i) + d[i]);
        }
        self.y.resize(n, 0.0);

        if self.base.iter().all(|v| v.is_finite()) {
            self.fac.clear();
            self.fac.extend_from_slice(&self.base);
            match cholesky_packed_in_place(&mut self.fac, n) {
                Ok(()) => {
                    self.state = FactorState::Cholesky;
                    return Ok(());
                }
                Err(MathError::NotPositiveDefinite { .. }) => {
                    // Jitter ladder, restarting from the pristine matrix each
                    // attempt (matching `Cholesky::new_with_jitter`).
                    let scale = self
                        .base
                        .iter()
                        .fold(0.0_f64, |m, &v| m.max(v.abs()))
                        .max(1e-300);
                    let mut jitter = 1e-10 * scale;
                    let max_jitter = 1e-4 * scale;
                    loop {
                        self.fac.clear();
                        self.fac.extend_from_slice(&self.base);
                        for i in 0..n {
                            self.fac[packed(i, i)] += jitter;
                        }
                        match cholesky_packed_in_place(&mut self.fac, n) {
                            Ok(()) => {
                                self.state = FactorState::Cholesky;
                                return Ok(());
                            }
                            Err(MathError::NotPositiveDefinite { .. }) if jitter < max_jitter => {
                                jitter *= 10.0;
                            }
                            Err(_) => break,
                        }
                    }
                }
                Err(_) => {}
            }
        }
        // Last resort: dense LU on the symmetric reconstruction.
        let mut full = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = self.base[packed(i, j)];
                full[(i, j)] = v;
                full[(j, i)] = v;
            }
        }
        self.state = FactorState::Lu(Lu::new(&full)?);
        Ok(())
    }

    /// Factorizes `m + Diag(d)` from a dense symmetric matrix.
    pub fn factorize(&mut self, m: &Matrix, d: &[f64]) -> Result<()> {
        if !m.is_square() {
            return Err(MathError::NotSquare {
                rows: m.rows(),
                cols: m.cols(),
            });
        }
        self.factorize_with(m.rows(), d, |i, j| m[(i, j)])
    }

    /// Evaluates `vᵀ (M + Diag(d))⁻¹ v` against the cached factorization.
    pub fn quad_form(&mut self, v: &[f64]) -> Result<f64> {
        disq_trace::time(Timer::QuadFormSolve, || self.quad_form_impl(v))
    }

    fn quad_form_impl(&mut self, v: &[f64]) -> Result<f64> {
        if v.len() != self.n {
            return Err(MathError::ShapeMismatch {
                expected: format!("{}x1", self.n),
                found: format!("{}x1", v.len()),
            });
        }
        if self.n == 0 {
            return Ok(0.0);
        }
        match &self.state {
            FactorState::Unfactored => Err(MathError::Empty),
            FactorState::Cholesky => {
                // x = A⁻¹v via the shared packed triangular solves
                // (`disq_math::rank1`), arithmetically identical to the
                // historical in-line loops.
                self.y.clear();
                self.y.extend_from_slice(v);
                crate::rank1::solve_packed(&self.fac, self.n, &mut self.y);
                Ok(v.iter().zip(&self.y).map(|(&a, &b)| a * b).sum())
            }
            FactorState::Lu(lu) => {
                let x = lu.solve(v)?;
                Ok(v.iter().zip(&x).map(|(&a, &b)| a * b).sum())
            }
        }
    }
}

/// `vᵀ (m + Diag(d))⁻¹ v` through a fresh workspace.
#[cfg(test)]
pub(crate) fn quad_form_once(m: &Matrix, d: &[f64], v: &[f64]) -> Result<f64> {
    let mut ws = QuadFormWorkspace::new();
    ws.factorize(m, d)?;
    ws.quad_form(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `vᵀ a⁻¹ v` through an explicit LU inverse.
    fn via_lu_inverse(a: &Matrix, v: &[f64]) -> f64 {
        let inv = Lu::new(a).unwrap().inverse().unwrap();
        let iv = inv.matvec(v).unwrap();
        v.iter().zip(&iv).map(|(&a, &b)| a * b).sum()
    }

    #[test]
    fn identity_gives_norm_squared() {
        let m = Matrix::identity(3);
        let val = quad_form_once(&m, &[0.0; 3], &[1.0, 2.0, 2.0]).unwrap();
        assert!((val - 9.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_added_correctly() {
        // (I + I)⁻¹ halves the norm.
        let m = Matrix::identity(2);
        let val = quad_form_once(&m, &[1.0, 1.0], &[2.0, 0.0]).unwrap();
        assert!((val - 2.0).abs() < 1e-12);
    }

    #[test]
    fn matches_manual_inverse() {
        let m = Matrix::from_rows(&[vec![2.0, 0.5], vec![0.5, 1.0]]);
        let d = [0.3, 0.7];
        let v = [1.0, -1.0];
        let mut a = m.clone();
        a[(0, 0)] += d[0];
        a[(1, 1)] += d[1];
        let expect = via_lu_inverse(&a, &v);
        let got = quad_form_once(&m, &d, &v).unwrap();
        assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn quad_form_is_nonnegative_for_spd() {
        let m = Matrix::from_rows(&[
            vec![1.0, 0.5, 0.2],
            vec![0.5, 1.0, 0.3],
            vec![0.2, 0.3, 1.0],
        ]);
        for v in [[1.0, 0.0, 0.0], [0.3, -0.7, 0.2], [-1.0, -1.0, -1.0]] {
            let val = quad_form_once(&m, &[0.1, 0.1, 0.1], &v).unwrap();
            assert!(val >= 0.0);
        }
    }

    #[test]
    fn monotone_in_diagonal_noise() {
        // Adding worker noise (larger S_c/b) can only reduce the explained
        // variance — the core monotonicity the greedy solver relies on.
        let m = Matrix::from_rows(&[vec![1.0, 0.4], vec![0.4, 1.0]]);
        let v = [0.8, 0.6];
        let tight = quad_form_once(&m, &[0.01, 0.01], &v).unwrap();
        let loose = quad_form_once(&m, &[1.0, 1.0], &v).unwrap();
        assert!(tight > loose);
    }

    #[test]
    fn empty_is_zero() {
        let m = Matrix::zeros(0, 0);
        assert_eq!(quad_form_once(&m, &[], &[]).unwrap(), 0.0);
    }

    #[test]
    fn shape_validation() {
        let m = Matrix::identity(2);
        assert!(quad_form_once(&m, &[0.0], &[1.0, 1.0]).is_err());
        assert!(quad_form_once(&m, &[0.0, 0.0], &[1.0]).is_err());
        assert!(quad_form_once(&Matrix::zeros(2, 3), &[0.0, 0.0], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn workspace_matches_dense_cholesky_bitwise() {
        let m = Matrix::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.0],
            vec![0.6, 1.0, 3.0],
        ]);
        let d = [0.25, 0.5, 0.125];
        let v = [1.0, -2.0, 0.5];
        let mut a = m.clone();
        for i in 0..3 {
            a[(i, i)] += d[i];
        }
        let x = crate::Cholesky::new(&a).unwrap().solve(&v).unwrap();
        let expect: f64 = v.iter().zip(&x).map(|(&a, &b)| a * b).sum();
        let mut ws = QuadFormWorkspace::new();
        ws.factorize(&m, &d).unwrap();
        // Bit-identical, not merely close: same arithmetic sequence.
        assert_eq!(ws.quad_form(&v).unwrap(), expect);
    }

    #[test]
    fn workspace_factorize_once_solve_many() {
        let m = Matrix::from_rows(&[vec![2.0, 0.5], vec![0.5, 1.0]]);
        let d = [0.3, 0.7];
        let mut a = m.clone();
        a[(0, 0)] += d[0];
        a[(1, 1)] += d[1];
        let mut ws = QuadFormWorkspace::new();
        ws.factorize(&m, &d).unwrap();
        for v in [[1.0, -1.0], [0.0, 2.0], [3.0, 0.5]] {
            let got = ws.quad_form(&v).unwrap();
            assert!((got - via_lu_inverse(&a, &v)).abs() < 1e-12, "{v:?}");
        }
    }

    #[test]
    fn workspace_reusable_across_dimensions() {
        let mut ws = QuadFormWorkspace::new();
        ws.factorize(&Matrix::identity(3), &[0.0; 3]).unwrap();
        assert!((ws.quad_form(&[1.0, 2.0, 2.0]).unwrap() - 9.0).abs() < 1e-12);
        ws.factorize(&Matrix::identity(1), &[1.0]).unwrap();
        assert!((ws.quad_form(&[2.0]).unwrap() - 2.0).abs() < 1e-12);
        // Wrong-length right-hand side is rejected.
        assert!(ws.quad_form(&[1.0, 1.0]).is_err());
    }

    #[test]
    fn workspace_unfactored_rejected() {
        let mut ws = QuadFormWorkspace::new();
        assert!(ws.quad_form(&[]).is_ok()); // 0-dim is trivially 0
        let mut ws = QuadFormWorkspace::new();
        ws.factorize(&Matrix::identity(2), &[0.0, 0.0]).unwrap();
        assert!(ws.quad_form(&[1.0, 1.0]).is_ok());
    }

    #[test]
    fn workspace_lu_fallback_scores_indefinite_estimate() {
        // An indefinite "covariance" (a broken estimate, eigenvalues 3 and
        // −1) defeats Cholesky at every jitter level; the LU fallback must
        // still score it exactly: [[1,2],[2,1]]⁻¹ [1,1] = [1/3, 1/3].
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        let mut ws = QuadFormWorkspace::new();
        ws.factorize(&m, &[0.0, 0.0]).unwrap();
        assert!(matches!(ws.state, FactorState::Lu(_)));
        let got = ws.quad_form(&[1.0, 1.0]).unwrap();
        assert!((got - 2.0 / 3.0).abs() < 1e-12, "{got}");
    }
}
