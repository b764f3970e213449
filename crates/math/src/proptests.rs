//! Property-based tests over the numeric kernels.

use crate::quadform::quad_form_once;
use crate::*;
use proptest::prelude::*;

/// Strategy: a random `n x n` symmetric positive-definite matrix built as
/// `BᵀB + εI` from a random `B`.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0_f64..3.0, n * n).prop_map(move |data| {
        let b = Matrix::from_vec(n, n, data);
        let mut a = b.transpose().matmul(&b).unwrap();
        a.add_diagonal(0.5);
        a.symmetrize();
        a
    })
}

/// Strategy: a random symmetric matrix (not necessarily definite).
fn sym_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0_f64..3.0, n * n).prop_map(move |data| {
        let mut a = Matrix::from_vec(n, n, data);
        a.symmetrize();
        a
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solve_has_small_residual(a in spd_matrix(4), b in proptest::collection::vec(-5.0_f64..5.0, 4)) {
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let scale = a.max_abs().max(1.0) * (1.0 + x.iter().fold(0.0_f64, |m, v| m.max(v.abs())));
        for (p, q) in ax.iter().zip(&b) {
            prop_assert!((p - q).abs() < 1e-8 * scale);
        }
    }

    #[test]
    fn cholesky_matches_lu_solve(a in spd_matrix(4), b in proptest::collection::vec(-5.0_f64..5.0, 4)) {
        let xc = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let xl = Lu::new(&a).unwrap().solve(&b).unwrap();
        let scale = xl.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        for (c, l) in xc.iter().zip(&xl) {
            prop_assert!((c - l).abs() < 1e-7 * scale);
        }
    }

    #[test]
    fn cholesky_reconstructs(a in spd_matrix(5)) {
        let c = Cholesky::new(&a).unwrap();
        let l = c.factor();
        let recon = l.matmul(&l.transpose()).unwrap();
        prop_assert!(recon.sub(&a).unwrap().max_abs() < 1e-8 * a.max_abs().max(1.0));
    }

    #[test]
    fn eigen_reconstructs_and_orthonormal(a in sym_matrix(4)) {
        let e = jacobi_eigen(&a).unwrap();
        let d = Matrix::diag(&e.values);
        let recon = e.vectors.matmul(&d).unwrap().matmul(&e.vectors.transpose()).unwrap();
        prop_assert!(recon.sub(&a).unwrap().max_abs() < 1e-8 * a.max_abs().max(1.0));
        let vtv = e.vectors.transpose().matmul(&e.vectors).unwrap();
        prop_assert!(vtv.sub(&Matrix::identity(4)).unwrap().max_abs() < 1e-9);
    }

    #[test]
    fn eigenvalues_sorted_descending(a in sym_matrix(5)) {
        let e = jacobi_eigen(&a).unwrap();
        for w in e.values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn svd_reconstructs(data in proptest::collection::vec(-3.0_f64..3.0, 15)) {
        let a = Matrix::from_vec(5, 3, data);
        let s = svd_jacobi(&a).unwrap();
        let d = Matrix::diag(&s.sigma);
        let recon = s.u.matmul(&d).unwrap().matmul(&s.v.transpose()).unwrap();
        prop_assert!(recon.sub(&a).unwrap().max_abs() < 1e-8 * a.max_abs().max(1.0));
    }

    #[test]
    fn svd_sigma_nonnegative_descending(data in proptest::collection::vec(-3.0_f64..3.0, 12)) {
        let a = Matrix::from_vec(4, 3, data);
        let s = svd_jacobi(&a).unwrap();
        prop_assert!(s.sigma.iter().all(|&v| v >= 0.0));
        for w in s.sigma.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn nearest_psd_is_psd_and_idempotent(a in sym_matrix(4)) {
        let p = nearest_psd(&a, 0.0).unwrap();
        let e = jacobi_eigen(&p).unwrap();
        prop_assert!(e.values.iter().all(|&v| v >= -1e-8 * a.max_abs().max(1.0)));
        let p2 = nearest_psd(&p, 0.0).unwrap();
        prop_assert!(p2.sub(&p).unwrap().max_abs() < 1e-7 * a.max_abs().max(1.0));
    }

    #[test]
    fn nearest_correlation_valid(a in sym_matrix(4)) {
        let c = nearest_correlation(&a, 1e-9).unwrap();
        for i in 0..4 {
            prop_assert!((c[(i, i)] - 1.0).abs() < 1e-9);
            for j in 0..4 {
                prop_assert!(c[(i, j)].abs() <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn quad_form_nonnegative_on_spd(a in spd_matrix(4),
                                    v in proptest::collection::vec(-5.0_f64..5.0, 4),
                                    d in proptest::collection::vec(0.0_f64..2.0, 4)) {
        let val = quad_form_once(&a, &d, &v).unwrap();
        prop_assert!(val >= -1e-9);
    }

    #[test]
    fn quad_form_decreases_with_noise(a in spd_matrix(3),
                                      v in proptest::collection::vec(-5.0_f64..5.0, 3)) {
        let small = quad_form_once(&a, &[0.01; 3], &v).unwrap();
        let large = quad_form_once(&a, &[10.0; 3], &v).unwrap();
        prop_assert!(small >= large - 1e-9);
    }

    #[test]
    fn lstsq_recovers_noiseless_model(
        coefs in proptest::collection::vec(-3.0_f64..3.0, 2),
        intercept in -5.0_f64..5.0,
        rows in proptest::collection::vec(proptest::collection::vec(-10.0_f64..10.0, 2), 8..20),
    ) {
        let x = Matrix::from_rows(&rows);
        let y: Vec<f64> = rows
            .iter()
            .map(|r| intercept + coefs[0] * r[0] + coefs[1] * r[1])
            .collect();
        let fit = lstsq_svd(&x, &y, 1e-10).unwrap();
        // Only check prediction accuracy: coefficients may be non-unique
        // when random rows are nearly collinear.
        for (r, yy) in rows.iter().zip(&y) {
            prop_assert!((fit.predict(r) - yy).abs() < 1e-5 * (1.0 + yy.abs()));
        }
    }

    #[test]
    fn dijkstra_triangle_inequality(weights in proptest::collection::vec(0.1_f64..5.0, 6)) {
        // Complete graph on 4 nodes; distances must satisfy the triangle
        // inequality.
        let mut g = Graph::new(4);
        let mut w = weights.into_iter();
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(i, j, w.next().unwrap());
            }
        }
        let d: Vec<Vec<f64>> = (0..4).map(|s| shortest_paths(&g, s)).collect();
        for i in 0..4 {
            for j in 0..4 {
                for k in 0..4 {
                    prop_assert!(d[i][j] <= d[i][k] + d[k][j] + 1e-12);
                }
            }
        }
    }

    #[test]
    fn matmul_associative(a in proptest::collection::vec(-2.0_f64..2.0, 9),
                          b in proptest::collection::vec(-2.0_f64..2.0, 9),
                          c in proptest::collection::vec(-2.0_f64..2.0, 9)) {
        let a = Matrix::from_vec(3, 3, a);
        let b = Matrix::from_vec(3, 3, b);
        let c = Matrix::from_vec(3, 3, c);
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.sub(&right).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn transpose_involution(data in proptest::collection::vec(-5.0_f64..5.0, 12)) {
        let a = Matrix::from_vec(3, 4, data);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    /// A random sequence of the incremental solver's factor mutations
    /// (diagonal bumps, diagonal shrinks that keep the matrix SPD, and
    /// bordered appends) must track the fresh factorization of the
    /// explicitly assembled matrix throughout.
    #[test]
    fn rank1_mutation_sequence_matches_fresh_factorize(
        a in spd_matrix(3),
        ops in proptest::collection::vec((0usize..3, 0usize..6, 0.05_f64..2.0), 1..12),
    ) {
        let n0 = 3;
        let mut dense = a.clone();
        let mut fac = Vec::new();
        for i in 0..n0 {
            for j in 0..=i {
                fac.push(dense[(i, j)]);
            }
        }
        prop_assert!(rank1::cholesky_packed_in_place(&mut fac, n0).is_ok());
        let mut n = n0;
        for (op, coord, mag) in ops {
            match op {
                // Diagonal bump: A += mag·e_pe_pᵀ.
                0 => {
                    let p = coord % n;
                    let mut z = vec![0.0; n];
                    z[p] = mag.sqrt();
                    prop_assert!(rank1::cholesky_update_packed(&mut fac, n, &mut z, false).is_ok());
                    dense[(p, p)] += mag;
                }
                // Diagonal shrink. Accumulated mutations can leave too
                // little SPD margin for the shrink — a refused downdate
                // leaves the factor unspecified per the documented
                // contract, so mirror the solver's recovery and
                // refactorize from scratch before continuing.
                1 => {
                    let p = coord % n;
                    let delta = dense[(p, p)] * 0.25;
                    let mut z = vec![0.0; n];
                    z[p] = delta.sqrt();
                    if rank1::cholesky_update_packed(&mut fac, n, &mut z, true).is_ok() {
                        dense[(p, p)] -= delta;
                    } else {
                        fac.clear();
                        for i in 0..n {
                            for j in 0..=i {
                                fac.push(dense[(i, j)]);
                            }
                        }
                        prop_assert!(rank1::cholesky_packed_in_place(&mut fac, n).is_ok());
                    }
                }
                // Bordered append with a weak off-diagonal coupling. A
                // shrunken factor can leave the Schur complement
                // non-positive; a refused append must truncate back to
                // the pre-append factor (checked below).
                _ => {
                    let col: Vec<f64> = (0..n).map(|i| 0.1 * mag * ((coord + i) % 3) as f64).collect();
                    let diag = 1.0 + mag;
                    if rank1::cholesky_append_packed(&mut fac, n, &col, diag).is_err() {
                        prop_assert_eq!(fac.len(), rank1::packed_len(n));
                        continue;
                    }
                    let mut grown = Matrix::zeros(n + 1, n + 1);
                    for i in 0..n {
                        for j in 0..n {
                            grown[(i, j)] = dense[(i, j)];
                        }
                        grown[(i, n)] = col[i];
                        grown[(n, i)] = col[i];
                    }
                    grown[(n, n)] = diag;
                    dense = grown;
                    n += 1;
                }
            }
            // The mutated factor must reconstruct the assembled matrix.
            let mut fresh = Vec::new();
            for i in 0..n {
                for j in 0..=i {
                    fresh.push(dense[(i, j)]);
                }
            }
            prop_assert!(rank1::cholesky_packed_in_place(&mut fresh, n).is_ok());
            for i in 0..rank1::packed_len(n) {
                let scale = fresh[i].abs().max(1.0);
                prop_assert!(
                    (fac[i] - fresh[i]).abs() < 1e-8 * scale,
                    "entry {} diverged: {} vs {}", i, fac[i], fresh[i]
                );
            }
        }
    }

    /// Near-singular downdates must fail cleanly (never a poisoned
    /// factor): shrinking a diagonal entry by ~its full magnitude on a
    /// barely-definite matrix either succeeds with a finite factor or
    /// reports `NotPositiveDefinite`/`NonFinite`.
    #[test]
    fn rank1_downdate_never_yields_non_finite_factor(
        a in spd_matrix(3),
        p in 0usize..3,
        frac in 0.9_f64..1.2,
    ) {
        let mut fac = Vec::new();
        for i in 0..3 {
            for j in 0..=i {
                fac.push(a[(i, j)]);
            }
        }
        prop_assert!(rank1::cholesky_packed_in_place(&mut fac, 3).is_ok());
        // Remove (almost) the whole SPD-guaranteeing diagonal margin.
        let delta = (a[(p, p)] - 0.4) * frac;
        let mut z = vec![0.0; 3];
        z[p] = delta.max(0.0).sqrt();
        if rank1::cholesky_update_packed(&mut fac, 3, &mut z, true).is_ok() {
            prop_assert!(fac.iter().all(|v| v.is_finite()));
            for i in 0..3 {
                prop_assert!(fac[rank1::packed_index(i, i)] > 0.0);
            }
        }
    }
}
