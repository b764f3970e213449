//! Streaming co-moment (covariance-matrix) accumulation.
//!
//! [`CoMomentMatrix`] generalizes the scalar Welford accumulators in
//! `descriptive` to a full symmetric matrix of pairwise centered
//! co-moments, maintained in one pass: each observation row updates every
//! mean and every lower-triangle entry with the numerically stable
//! `C_ij += δᵢ·(x_j − μ_j')` recurrence (old delta × newly updated
//! mean — the same update [`OnlineCovariance`] uses for a single pair).
//! [`CoMomentMatrix::merge`] combines two accumulators built over
//! disjoint chunks (Chan et al.'s parallel update), so population-scale
//! statistics can be folded chunk by chunk — or chunk-parallel — without
//! ever materializing a row table or making a second pass.
//!
//! [`streaming_covariance`] and [`streaming_variance`] run the same
//! recurrence for one pair (or one variable) on stack scalars, keeping
//! only the means and the one co-moment they return: bit for bit what a
//! `CoMomentMatrix::new(2)` (or `new(1)`) would report, with no heap
//! block per call. Preprocessing calls them once per statistic.
//!
//! The streaming results agree with the two-pass batch formulas
//! (`covariance`, `sample_variance`) to floating-point round-off, not bit
//! for bit; the property tests in `proptests` pin the tolerance, with
//! the batch formulas as the reference.
//!
//! [`OnlineCovariance`]: crate::OnlineCovariance

/// One-pass accumulator for means and all pairwise centered co-moments of
/// a `dim`-dimensional variable.
#[derive(Debug, Clone)]
pub struct CoMomentMatrix {
    dim: usize,
    n: u64,
    means: Vec<f64>,
    /// Packed lower triangle (`j ≤ i`): `Σ (xᵢ − μᵢ)(x_j − μ_j)`.
    comoments: Vec<f64>,
    /// Scratch: per-dimension deltas against the pre-update means.
    delta: Vec<f64>,
}

impl CoMomentMatrix {
    /// Creates an empty accumulator over `dim` variables.
    pub fn new(dim: usize) -> Self {
        CoMomentMatrix {
            dim,
            n: 0,
            means: vec![0.0; dim],
            comoments: vec![0.0; dim * (dim + 1) / 2],
            delta: vec![0.0; dim],
        }
    }

    /// Builds an accumulator by scanning equal-length columns in one
    /// pass. Each column is one variable; observation `o` is the row
    /// `(cols[0][o], …, cols[dim−1][o])`.
    ///
    /// # Panics
    /// Panics if the columns have unequal lengths.
    pub fn from_columns(cols: &[&[f64]]) -> Self {
        let mut acc = CoMomentMatrix::new(cols.len());
        let rows = cols.first().map_or(0, |c| c.len());
        for c in cols {
            assert_eq!(c.len(), rows, "co-moment column length mismatch");
        }
        let mut row = vec![0.0; cols.len()];
        for o in 0..rows {
            for (slot, c) in row.iter_mut().zip(cols) {
                *slot = c[o];
            }
            acc.push(&row);
        }
        acc
    }

    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    fn idx(&self, i: usize, j: usize) -> usize {
        let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
        assert!(hi < self.dim, "co-moment index {hi} out of range");
        hi * (hi + 1) / 2 + lo
    }

    /// Feeds one observation row.
    ///
    /// # Panics
    /// Panics if `row.len() != dim`.
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "co-moment row arity mismatch");
        self.n += 1;
        let inv_n = 1.0 / self.n as f64;
        for ((d, m), &x) in self.delta.iter_mut().zip(&mut self.means).zip(row) {
            *d = x - *m;
            *m += *d * inv_n;
        }
        let mut k = 0;
        for (i, &di) in self.delta.iter().enumerate() {
            for (&xj, &mj) in row[..=i].iter().zip(&self.means[..=i]) {
                self.comoments[k] += di * (xj - mj);
                k += 1;
            }
        }
    }

    /// Folds another accumulator built over a *disjoint* set of
    /// observations into this one, as if all observations had been pushed
    /// into a single accumulator (up to floating-point round-off).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn merge(&mut self, other: &CoMomentMatrix) {
        assert_eq!(self.dim, other.dim, "co-moment merge dimension mismatch");
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            self.n = other.n;
            self.means.copy_from_slice(&other.means);
            self.comoments.copy_from_slice(&other.comoments);
            return;
        }
        let (n1, n2) = (self.n as f64, other.n as f64);
        let n = n1 + n2;
        let mut k = 0;
        for i in 0..self.dim {
            let di = other.means[i] - self.means[i];
            for j in 0..=i {
                let dj = other.means[j] - self.means[j];
                self.comoments[k] += other.comoments[k] + di * dj * (n1 * n2 / n);
                k += 1;
            }
        }
        for i in 0..self.dim {
            let d = other.means[i] - self.means[i];
            self.means[i] += d * (n2 / n);
        }
        self.n += other.n;
    }

    /// Running mean of variable `i` (`0.0` when empty).
    pub fn mean(&self, i: usize) -> f64 {
        self.means[i]
    }

    /// Raw centered co-moment `Σ (xᵢ − μᵢ)(x_j − μ_j)` (symmetric).
    pub fn comoment(&self, i: usize, j: usize) -> f64 {
        self.comoments[self.idx(i, j)]
    }

    /// Unbiased covariance between variables `i` and `j` (`0.0` with
    /// fewer than two observations).
    pub fn covariance(&self, i: usize, j: usize) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.comoment(i, j) / (self.n - 1) as f64
        }
    }

    /// Unbiased variance of variable `i`.
    pub fn variance(&self, i: usize) -> f64 {
        self.covariance(i, i)
    }
}

/// Streaming drop-in for [`covariance`](crate::covariance): one linear
/// scan of two contiguous columns on stack scalars. Bit-identical to
/// `CoMomentMatrix::new(2)` fed the rows `(x, y)` and read at `(0, 1)`:
/// the means and the `(1, 0)` co-moment take the same operations in the
/// same order, and the two diagonal co-moments, which the covariance
/// never reads, are skipped.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn streaming_covariance(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "covariance length mismatch");
    let (mut n, mut mx, mut my, mut c) = (0u64, 0.0, 0.0, 0.0);
    for (&x, &y) in xs.iter().zip(ys) {
        n += 1;
        let inv_n = 1.0 / n as f64;
        let dx = x - mx;
        mx += dx * inv_n;
        let dy = y - my;
        my += dy * inv_n;
        c += dy * (x - mx);
    }
    if n < 2 {
        0.0
    } else {
        c / (n - 1) as f64
    }
}

/// Streaming drop-in for [`sample_variance`](crate::sample_variance), on
/// stack scalars: bit-identical to `CoMomentMatrix::new(1)`'s `(0, 0)`
/// variance.
pub fn streaming_variance(xs: &[f64]) -> f64 {
    let (mut n, mut m, mut c) = (0u64, 0.0, 0.0);
    for &x in xs {
        n += 1;
        let inv_n = 1.0 / n as f64;
        let d = x - m;
        m += d * inv_n;
        c += d * (x - m);
    }
    if n < 2 {
        0.0
    } else {
        c / (n - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{covariance, mean, sample_variance};

    fn demo_rows() -> Vec<[f64; 3]> {
        vec![
            [1.0, 2.0, -1.0],
            [2.0, 1.0, 0.5],
            [3.0, 4.0, 2.0],
            [5.0, 4.0, -0.5],
            [8.0, 9.0, 3.0],
            [1.5, -2.0, 0.0],
        ]
    }

    fn columns(rows: &[[f64; 3]]) -> Vec<Vec<f64>> {
        (0..3)
            .map(|i| rows.iter().map(|r| r[i]).collect())
            .collect()
    }

    #[test]
    fn matches_batch_formulas() {
        let rows = demo_rows();
        let cols = columns(&rows);
        let mut acc = CoMomentMatrix::new(3);
        for r in &rows {
            acc.push(r);
        }
        assert_eq!(acc.count(), rows.len() as u64);
        for i in 0..3 {
            assert!((acc.mean(i) - mean(&cols[i])).abs() < 1e-12);
            assert!((acc.variance(i) - sample_variance(&cols[i])).abs() < 1e-12);
            for j in 0..3 {
                let want = covariance(&cols[i], &cols[j]);
                assert!(
                    (acc.covariance(i, j) - want).abs() < 1e-12,
                    "cov({i},{j}) {} vs {want}",
                    acc.covariance(i, j)
                );
            }
        }
    }

    #[test]
    fn merge_of_split_matches_one_shot() {
        let rows = demo_rows();
        let mut whole = CoMomentMatrix::new(3);
        for r in &rows {
            whole.push(r);
        }
        for split in 0..=rows.len() {
            let mut a = CoMomentMatrix::new(3);
            let mut b = CoMomentMatrix::new(3);
            for r in &rows[..split] {
                a.push(r);
            }
            for r in &rows[split..] {
                b.push(r);
            }
            a.merge(&b);
            assert_eq!(a.count(), whole.count());
            for i in 0..3 {
                assert!((a.mean(i) - whole.mean(i)).abs() < 1e-12);
                for j in 0..3 {
                    assert!(
                        (a.covariance(i, j) - whole.covariance(i, j)).abs() < 1e-12,
                        "split {split} cov({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn from_columns_matches_row_pushes() {
        let rows = demo_rows();
        let cols = columns(&rows);
        let views: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        let by_cols = CoMomentMatrix::from_columns(&views);
        let mut by_rows = CoMomentMatrix::new(3);
        for r in &rows {
            by_rows.push(r);
        }
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(by_cols.covariance(i, j), by_rows.covariance(i, j));
            }
        }
    }

    #[test]
    fn degenerate_counts_are_zero() {
        let mut acc = CoMomentMatrix::new(2);
        assert_eq!(acc.covariance(0, 1), 0.0);
        acc.push(&[1.0, 2.0]);
        assert_eq!(acc.covariance(0, 1), 0.0);
        assert_eq!(acc.mean(0), 1.0);
        assert_eq!(streaming_variance(&[]), 0.0);
        assert_eq!(streaming_variance(&[3.0]), 0.0);
        assert_eq!(streaming_covariance(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn merge_with_empty_sides() {
        let rows = demo_rows();
        let mut full = CoMomentMatrix::new(3);
        for r in &rows {
            full.push(r);
        }
        let empty = CoMomentMatrix::new(3);
        let mut a = full.clone();
        a.merge(&empty);
        assert_eq!(a.covariance(0, 1), full.covariance(0, 1));
        let mut b = CoMomentMatrix::new(3);
        b.merge(&full);
        assert_eq!(b.count(), full.count());
        assert_eq!(b.covariance(2, 1), full.covariance(2, 1));
    }

    #[test]
    fn streaming_pair_helpers_match_batch() {
        let xs = [1.0, 2.0, 3.0, 5.0, 8.0];
        let ys = [2.0, 1.0, 4.0, 4.0, 9.0];
        assert!((streaming_covariance(&xs, &ys) - covariance(&xs, &ys)).abs() < 1e-12);
        assert!((streaming_variance(&xs) - sample_variance(&xs)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn streaming_covariance_length_mismatch_panics() {
        streaming_covariance(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn push_arity_mismatch_panics() {
        CoMomentMatrix::new(2).push(&[1.0]);
    }
}
