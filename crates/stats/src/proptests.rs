//! Property-based tests for the statistics layer.

use crate::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn online_moments_match_batch(xs in proptest::collection::vec(-100.0_f64..100.0, 2..50)) {
        let mut acc = OnlineMoments::new();
        for &x in &xs {
            acc.push(x);
        }
        prop_assert!((acc.mean() - mean(&xs)).abs() < 1e-8);
        prop_assert!((acc.variance() - sample_variance(&xs)).abs() < 1e-6);
    }

    #[test]
    fn online_covariance_matches_batch(pairs in proptest::collection::vec((-50.0_f64..50.0, -50.0_f64..50.0), 2..50)) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let mut acc = OnlineCovariance::new();
        for (&x, &y) in xs.iter().zip(&ys) {
            acc.push(x, y);
        }
        prop_assert!((acc.covariance() - covariance(&xs, &ys)).abs() < 1e-6);
    }

    #[test]
    fn comoment_matrix_matches_batch(
        rows in proptest::collection::vec((-50.0_f64..50.0, -50.0_f64..50.0, -50.0_f64..50.0), 2..60),
    ) {
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|i| rows.iter().map(|r| [r.0, r.1, r.2][i]).collect())
            .collect();
        let mut acc = CoMomentMatrix::new(3);
        for r in &rows {
            acc.push(&[r.0, r.1, r.2]);
        }
        for i in 0..3 {
            prop_assert!((acc.mean(i) - mean(&cols[i])).abs() < 1e-8);
            prop_assert!((acc.variance(i) - sample_variance(&cols[i])).abs() < 1e-6);
            for j in 0..3 {
                prop_assert!(
                    (acc.covariance(i, j) - covariance(&cols[i], &cols[j])).abs() < 1e-6,
                    "cov({},{}) {} vs {}", i, j, acc.covariance(i, j), covariance(&cols[i], &cols[j])
                );
            }
        }
        prop_assert!((streaming_covariance(&cols[0], &cols[1]) - covariance(&cols[0], &cols[1])).abs() < 1e-6);
        prop_assert!((streaming_variance(&cols[2]) - sample_variance(&cols[2])).abs() < 1e-6);
    }

    #[test]
    fn streaming_helpers_are_bit_equal_to_the_matrix(
        pairs in proptest::collection::vec((-1e3_f64..1e3, -1e3_f64..1e3), 64),
    ) {
        // Every prefix length 0..=64 of the drawn columns.
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let mut pair = CoMomentMatrix::new(2);
        let mut single = CoMomentMatrix::new(1);
        for len in 0..=xs.len() {
            if len > 0 {
                pair.push(&[xs[len - 1], ys[len - 1]]);
                single.push(&[xs[len - 1]]);
            }
            let (x, y) = (&xs[..len], &ys[..len]);
            prop_assert_eq!(streaming_covariance(x, y).to_bits(), pair.covariance(0, 1).to_bits());
            prop_assert_eq!(streaming_variance(x).to_bits(), single.variance(0).to_bits());
        }
    }

    #[test]
    fn comoment_merge_of_arbitrary_splits_matches_one_shot(
        rows in proptest::collection::vec((-50.0_f64..50.0, -50.0_f64..50.0), 2..60),
        cuts in proptest::collection::vec(0usize..60, 0..4),
    ) {
        let mut whole = CoMomentMatrix::new(2);
        for r in &rows {
            whole.push(&[r.0, r.1]);
        }
        // Split the rows at arbitrary (sorted, clamped) cut points and
        // fold the pieces left to right.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(rows.len())).collect();
        bounds.push(0);
        bounds.push(rows.len());
        bounds.sort_unstable();
        let mut folded = CoMomentMatrix::new(2);
        for w in bounds.windows(2) {
            let mut piece = CoMomentMatrix::new(2);
            for r in &rows[w[0]..w[1]] {
                piece.push(&[r.0, r.1]);
            }
            folded.merge(&piece);
        }
        prop_assert_eq!(folded.count(), whole.count());
        for i in 0..2 {
            prop_assert!((folded.mean(i) - whole.mean(i)).abs() < 1e-8);
            for j in 0..2 {
                prop_assert!(
                    (folded.covariance(i, j) - whole.covariance(i, j)).abs() < 1e-6,
                    "cov({},{}) folded {} vs whole {}", i, j, folded.covariance(i, j), whole.covariance(i, j)
                );
            }
        }
    }

    #[test]
    fn correlation_bounded(pairs in proptest::collection::vec((-50.0_f64..50.0, -50.0_f64..50.0), 2..40)) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let r = correlation(&xs, &ys);
        prop_assert!((-1.0..=1.0).contains(&r));
    }

    #[test]
    fn correlation_invariant_to_affine_transform(
        pairs in proptest::collection::vec((-50.0_f64..50.0, -50.0_f64..50.0), 3..30),
        scale in 0.1_f64..10.0,
        shift in -100.0_f64..100.0,
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let xs2: Vec<f64> = xs.iter().map(|&x| scale * x + shift).collect();
        let r1 = correlation(&xs, &ys);
        let r2 = correlation(&xs2, &ys);
        prop_assert!((r1 - r2).abs() < 1e-6);
    }

    #[test]
    fn var_est_nonnegative(xs in proptest::collection::vec(-100.0_f64..100.0, 0..10)) {
        prop_assert!(var_est_k(&xs) >= 0.0);
    }

    #[test]
    fn angle_roundtrip(rho in 0.0_f64..=1.0) {
        let g = correlation_angle(rho);
        prop_assert!((rho_from_angle(g) - rho).abs() < 1e-9);
    }

    #[test]
    fn angle_composition_associative(a in 0.01_f64..1.0, b in 0.01_f64..1.0, c in 0.01_f64..1.0) {
        let (ga, gb, gc) = (correlation_angle(a), correlation_angle(b), correlation_angle(c));
        let left = compose_angles(compose_angles(ga, gb), gc);
        let right = compose_angles(ga, compose_angles(gb, gc));
        prop_assert!((left - right).abs() < 1e-9);
    }

    #[test]
    fn pr_new_is_probability_and_decreasing(n in 0u32..1000) {
        let p = pr_new_after_wrapper(n);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!(pr_new_after_wrapper(n + 1) < p);
    }

    #[test]
    fn trio_explained_variance_never_negative(
        so in -2.0_f64..2.0,
        var in 0.1_f64..4.0,
        sc in 0.0_f64..2.0,
        b in 0.5_f64..20.0,
    ) {
        let mut t = StatsTrio::new(1);
        // Keep |rho| <= 1 so the setup is physically realizable.
        let so = so.clamp(-var, var);
        t.push_attribute(&[so], &[], var, sc).unwrap();
        t.set_target_variance(0, var.max(so.abs())).unwrap();
        let ev = t.explained_variance(0, &[b]).unwrap();
        prop_assert!(ev >= -1e-9);
    }

    #[test]
    fn trio_monotone_in_budget(
        so in 0.1_f64..0.9,
        sc in 0.1_f64..2.0,
        b1 in 0.5_f64..5.0,
        extra in 0.1_f64..5.0,
    ) {
        let mut t = StatsTrio::new(1);
        t.push_attribute(&[so], &[], 1.0, sc).unwrap();
        t.set_target_variance(0, 1.0).unwrap();
        let lo = t.explained_variance(0, &[b1]).unwrap();
        let hi = t.explained_variance(0, &[b1 + extra]).unwrap();
        prop_assert!(hi >= lo - 1e-10);
    }

    #[test]
    fn so_graph_estimates_never_exceed_edge_product_bound(
        r1 in 0.1_f64..1.0,
        r2 in 0.1_f64..1.0,
    ) {
        let mut g = SoGraphEstimator::new(1, 2);
        g.add_target_edge(0, 0, r1);
        g.add_attr_edge(0, 1, r2);
        let (rho, _) = g.estimate(0, 1);
        prop_assert!(rho <= r1.min(1.0) + 1e-12);
        prop_assert!((rho - r1 * r2).abs() < 1e-9);
    }

    /// The incremental greedy evaluator must agree with the dense Eq. 10
    /// evaluation — both candidate scores and the post-grant objective —
    /// through a random sequence of grants on a random multi-attribute
    /// trio, within 1e-9 relative.
    #[test]
    fn incremental_matches_dense_over_random_trios(
        specs in proptest::collection::vec((0.1_f64..0.9, 0.5_f64..2.0, 0.05_f64..1.5), 2..5),
        cov_scale in 0.0_f64..0.5,
        grants in proptest::collection::vec(0usize..5, 1..12),
    ) {
        let n = specs.len();
        let mut trio = StatsTrio::new(1);
        for (i, &(so, var, sc)) in specs.iter().enumerate() {
            // Weak off-diagonal coupling keeps S_a comfortably SPD.
            let covs: Vec<f64> = (0..i).map(|j| cov_scale * 0.3 / (1.0 + (i - j) as f64)).collect();
            trio.push_attribute(&[so], &covs, var, sc).unwrap();
        }
        trio.set_target_variance(0, 1.0).unwrap();
        let mut ev = GreedyEval::new();
        ev.begin(&trio, &[1.0]);
        prop_assert!(ev.refresh(&trio).is_ok());
        let mut ws = EvalWorkspace::new();
        for &g in &grants {
            let a = g % n;
            for c in 0..n {
                let scored = ev.score(&trio, c).unwrap();
                let mut b = ev.budget().to_vec();
                b[c] += 1.0;
                let dense = trio.explained_variance_weighted_ws(&[1.0], &b, &mut ws).unwrap();
                prop_assert!(
                    (scored - dense).abs() <= 1e-9 * dense.abs().max(1.0),
                    "candidate {}: incremental {} vs dense {}", c, scored, dense
                );
            }
            prop_assert!(ev.apply(&trio, a).is_ok());
            prop_assert!(ev.refresh(&trio).is_ok());
            let dense = trio.explained_variance_weighted_ws(&[1.0], ev.budget(), &mut ws).unwrap();
            prop_assert!(
                (ev.objective() - dense).abs() <= 1e-9 * dense.abs().max(1.0),
                "objective after grant: {} vs {}", ev.objective(), dense
            );
        }
    }

    #[test]
    fn sprt_always_terminates(p in 0.0_f64..=1.0, seed in 0u64..1000) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = Sprt::new(SprtConfig::relevance_default()).unwrap();
        let mut steps = 0;
        loop {
            steps += 1;
            prop_assert!(steps <= 16, "SPRT exceeded max_samples bound");
            let yes = rng.random::<f64>() < p;
            if s.feed(yes) != SprtDecision::Continue {
                break;
            }
        }
    }
}

fn pr_new_after_wrapper(n: u32) -> f64 {
    crate::prnew::pr_new_after(n)
}
