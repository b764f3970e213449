//! Property-based tests for the core layer's pure machinery.

use crate::{EvaluationPlan, PlannedAttribute, TargetRegression};
use disq_crowd::{Money, PricingModel};
use disq_domain::{AttributeId, AttributeKind};
use proptest::prelude::*;

/// Strategy: an arbitrary (well-formed) evaluation plan.
fn arb_plan() -> impl Strategy<Value = EvaluationPlan> {
    let attr = (
        0usize..100,
        any::<bool>(),
        1u32..30,
        "[A-Za-z][A-Za-z0-9 ]{0,12}",
    )
        .prop_map(|(idx, boolean, questions, label)| PlannedAttribute {
            attr: AttributeId(idx),
            label,
            kind: if boolean {
                AttributeKind::Boolean
            } else {
                AttributeKind::Numeric
            },
            questions,
        });
    proptest::collection::vec(attr, 0..6).prop_flat_map(|attrs| {
        let n = attrs.len();
        let reg = (
            0usize..100,
            -100.0_f64..100.0,
            proptest::collection::vec(-10.0_f64..10.0, n..=n),
            "[A-Za-z]{1,8}",
        )
            .prop_map(
                move |(target, intercept, coefficients, label)| TargetRegression {
                    target: AttributeId(target),
                    label,
                    intercept,
                    coefficients,
                    training_mse: 0.5,
                },
            );
        (Just(attrs), proptest::collection::vec(reg, 1..4)).prop_map(|(attributes, regressions)| {
            EvaluationPlan {
                attributes,
                regressions,
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plan_cost_is_sum_of_question_prices(plan in arb_plan()) {
        let pricing = PricingModel::paper();
        let expect: Money = plan
            .attributes
            .iter()
            .map(|p| pricing.value_price(p.kind) * i64::from(p.questions))
            .sum();
        prop_assert_eq!(plan.cost_per_object(&pricing), expect);
        prop_assert_eq!(
            plan.questions_per_object(),
            plan.attributes.iter().map(|p| p.questions).sum::<u32>()
        );
    }

    #[test]
    fn plan_predict_is_linear(plan in arb_plan(), scale in -3.0_f64..3.0) {
        if plan.attributes.is_empty() {
            return Ok(());
        }
        let n = plan.attributes.len();
        let x: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let x_scaled: Vec<f64> = x.iter().map(|v| v * scale).collect();
        for t in 0..plan.regressions.len() {
            let y0 = plan.predict(t, &vec![0.0; n]);
            let y1 = plan.predict(t, &x);
            let y2 = plan.predict(t, &x_scaled);
            // Linearity: f(s·x) − f(0) = s · (f(x) − f(0)).
            prop_assert!(
                ((y2 - y0) - scale * (y1 - y0)).abs() < 1e-6 * (1.0 + y1.abs() + y2.abs()),
                "not linear: {y0} {y1} {y2}"
            );
        }
    }

    #[test]
    fn merged_plans_preserve_per_plan_predictions(plan_a in arb_plan(), plan_b in arb_plan()) {
        // Give the two plans disjoint attribute id ranges so merging never
        // aliases columns.
        let mut a = plan_a;
        let mut b = plan_b;
        for p in &mut a.attributes {
            p.attr = AttributeId(p.attr.index() % 50);
        }
        for p in &mut b.attributes {
            p.attr = AttributeId(50 + p.attr.index() % 50);
        }
        // Dedup attrs within each plan (merge assumes unique per plan);
        // duplicates may be non-adjacent, so use a set.
        let mut seen = std::collections::HashSet::new();
        a.attributes.retain(|p| seen.insert(p.attr));
        let mut seen = std::collections::HashSet::new();
        b.attributes.retain(|p| seen.insert(p.attr));
        for r in &mut a.regressions {
            r.coefficients.truncate(a.attributes.len());
            r.coefficients.resize(a.attributes.len(), 0.0);
        }
        for r in &mut b.regressions {
            r.coefficients.truncate(b.attributes.len());
            r.coefficients.resize(b.attributes.len(), 0.0);
        }

        let merged = EvaluationPlan::merge(&[a.clone(), b.clone()]);
        prop_assert_eq!(
            merged.regressions.len(),
            a.regressions.len() + b.regressions.len()
        );
        // Evaluate plan a's first regression through the merged plan with
        // matching averages; predictions must agree.
        let averages_a: Vec<f64> = (0..a.attributes.len()).map(|i| i as f64 * 0.5).collect();
        let merged_avgs: Vec<f64> = merged
            .attributes
            .iter()
            .map(|p| {
                a.attributes
                    .iter()
                    .position(|q| q.attr == p.attr)
                    .map(|i| averages_a[i])
                    .unwrap_or(0.0)
            })
            .collect();
        for (t, _) in a.regressions.iter().enumerate() {
            let direct = a.predict(t, &averages_a);
            let via_merged = merged.predict(t, &merged_avgs);
            prop_assert!((direct - via_merged).abs() < 1e-9);
        }
    }

    #[test]
    fn boolean_quality_bounds(
        pairs in proptest::collection::vec((0.0_f64..1.0, 0.0_f64..1.0), 0..50),
    ) {
        let est: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let truth: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let q = crate::metrics::boolean_quality(&est, &truth);
        for v in [q.precision, q.recall, q.f1, q.accuracy] {
            prop_assert!((0.0..=1.0).contains(&v));
        }
        // F1 lies between the harmonic bounds of its components.
        let lo = q.precision.min(q.recall);
        let hi = q.precision.max(q.recall);
        if q.precision + q.recall > 0.0 {
            prop_assert!(q.f1 >= 2.0 * lo * hi / (lo + hi) - 1e-12);
            prop_assert!(q.f1 <= hi + 1e-12);
        }
    }

    /// The dense and incremental budget-distribution engines must pick
    /// the identical allocation — and agree on the objective to 1e-9
    /// relative — on random statistics trios with heterogeneous prices.
    #[test]
    fn budget_engines_agree_on_random_trios(
        specs in proptest::collection::vec(
            (0.0_f64..0.95, 0.5_f64..2.0, 0.0_f64..1.5, 1i64..40), 1..5),
        cov_scale in 0.0_f64..0.5,
        budget_cents in 1i64..40,
    ) {
        use crate::components::budget_dist::{
            find_budget_distribution, with_engine, SolverEngine,
        };
        use disq_stats::StatsTrio;
        let mut trio = StatsTrio::new(1);
        let mut costs = Vec::new();
        for (i, &(so, var, sc, price_tenths)) in specs.iter().enumerate() {
            let covs: Vec<f64> = (0..i)
                .map(|j| cov_scale * 0.3 / (1.0 + (i - j) as f64))
                .collect();
            trio.push_attribute(&[so], &covs, var, sc).unwrap();
            costs.push(Money::from_cents(price_tenths as f64 / 10.0));
        }
        trio.set_target_variance(0, 1.0).unwrap();
        let budget = Money::from_cents(budget_cents as f64 / 10.0);
        let (b_dense, obj_dense) = with_engine(SolverEngine::Dense, || {
            find_budget_distribution(&trio, &[1.0], budget, &costs)
        }).unwrap();
        let (b_inc, obj_inc) = with_engine(SolverEngine::Incremental, || {
            find_budget_distribution(&trio, &[1.0], budget, &costs)
        }).unwrap();
        prop_assert_eq!(&b_dense, &b_inc, "allocations diverged");
        prop_assert!(
            (obj_dense - obj_inc).abs() <= 1e-9 * obj_dense.abs().max(1.0),
            "objectives diverged: dense {} vs incremental {}", obj_dense, obj_inc
        );
    }
}
