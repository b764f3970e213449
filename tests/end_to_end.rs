//! Cross-crate integration tests: the full offline → online pipeline.

use disq::baselines::{naive_average, run_baseline, Baseline};
use disq::core::{metrics, online, preprocess, DisqConfig};
use disq::crowd::{CrowdConfig, CrowdPlatform, Money, PricingModel, SimulatedCrowd};
use disq::domain::domains::{pictures, recipes, synthetic};
use disq::domain::{AttributeId, ObjectId, Population, Query};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn world(spec: Arc<disq::domain::DomainSpec>, n: usize, seed: u64) -> (Population, SimulatedCrowd) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = Population::sample(Arc::clone(&spec), n, &mut rng).unwrap();
    let crowd = SimulatedCrowd::new(
        pop.clone(),
        CrowdConfig::default(),
        Some(Money::from_dollars(25.0)),
        seed,
    );
    (pop, crowd)
}

fn online_error(
    pop: &Population,
    plan: &disq::core::EvaluationPlan,
    targets: &[AttributeId],
    weights: &[f64],
    seed: u64,
) -> f64 {
    let mut crowd = SimulatedCrowd::new(pop.clone(), CrowdConfig::default(), None, seed);
    let objects: Vec<ObjectId> = (0..150).map(ObjectId).collect();
    // A select-only query returns every object's estimates, in query
    // target order.
    let query = Query::new(targets.to_vec(), vec![]);
    let est: Vec<Vec<f64>> = online::evaluate_query(&mut crowd, plan, &query, &objects)
        .unwrap()
        .rows
        .into_iter()
        .map(|row| row.values)
        .collect();
    let truth: Vec<Vec<f64>> = objects
        .iter()
        .map(|&o| targets.iter().map(|&a| pop.value(o, a)).collect())
        .collect();
    metrics::query_error(&est, &truth, weights)
}

#[test]
fn full_pipeline_beats_naive_average_on_hard_attributes() {
    // The headline result, end to end, averaged over seeds.
    let spec = Arc::new(recipes::spec());
    let protein = spec.id_of("Protein").unwrap();
    let weights = vec![1.0 / (spec.attr(protein).sd * spec.attr(protein).sd)];
    let mut disq_err = 0.0;
    let mut naive_err = 0.0;
    let reps = 4;
    for seed in 0..reps {
        let (pop, mut crowd) = world(Arc::clone(&spec), 1_200, seed);
        let out = preprocess(
            &mut crowd,
            &spec,
            &[protein],
            Money::from_cents(4.0),
            &DisqConfig::default(),
            &PricingModel::paper(),
            Some(weights.clone()),
            seed,
        )
        .unwrap();
        disq_err += online_error(&pop, &out.plan, &[protein], &weights, seed + 50);
        let naive = naive_average(
            &spec,
            &[protein],
            Money::from_cents(4.0),
            &PricingModel::paper(),
            Some(&weights),
        )
        .unwrap();
        naive_err += online_error(&pop, &naive, &[protein], &weights, seed + 90);
    }
    assert!(
        disq_err < naive_err * 0.75,
        "DisQ {disq_err:.3} should clearly beat NaiveAverage {naive_err:.3}"
    );
}

#[test]
fn preprocessing_respects_both_budgets() {
    let spec = Arc::new(pictures::spec());
    let bmi = spec.id_of("Bmi").unwrap();
    let (_, mut crowd) = world(Arc::clone(&spec), 800, 3);
    let b_obj = Money::from_cents(4.0);
    let out = preprocess(
        &mut crowd,
        &spec,
        &[bmi],
        b_obj,
        &DisqConfig::default(),
        &PricingModel::paper(),
        None,
        3,
    )
    .unwrap();
    // Offline: never exceeds the ledger cap.
    assert!(out.stats.spent <= Money::from_dollars(25.0));
    assert_eq!(crowd.ledger().spent(), out.stats.spent);
    // Online: the plan fits the per-object budget.
    assert!(out.plan.cost_per_object(&PricingModel::paper()) <= b_obj);
}

#[test]
fn every_baseline_runs_on_the_same_world() {
    let spec = Arc::new(pictures::spec());
    let bmi = spec.id_of("Bmi").unwrap();
    let age = spec.id_of("Age").unwrap();
    for baseline in Baseline::ALL {
        let (_, mut crowd) = world(Arc::clone(&spec), 600, 11);
        let (plan, _) = run_baseline(
            baseline,
            &mut crowd,
            &spec,
            &[bmi, age],
            Money::from_cents(4.0),
            &DisqConfig::default(),
            &PricingModel::paper(),
            None,
            11,
        )
        .unwrap_or_else(|e| panic!("{} failed: {e}", baseline.name()));
        assert_eq!(plan.regressions.len(), 2, "{}", baseline.name());
        assert!(
            plan.cost_per_object(&PricingModel::paper()) <= Money::from_cents(4.0),
            "{}",
            baseline.name()
        );
    }
}

#[test]
fn deterministic_under_fixed_seeds() {
    let spec = Arc::new(synthetic::spec(&synthetic::SyntheticConfig::default(), 4));
    let target = AttributeId(0);
    let run = || {
        let (_, mut crowd) = world(Arc::clone(&spec), 700, 8);
        preprocess(
            &mut crowd,
            &spec,
            &[target],
            Money::from_cents(4.0),
            &DisqConfig::default(),
            &PricingModel::paper(),
            None,
            8,
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.plan, b.plan);
    assert_eq!(a.budget, b.budget);
    assert_eq!(a.stats.spent, b.stats.spent);
}

#[test]
fn formulas_render_for_all_targets() {
    let spec = Arc::new(pictures::spec());
    let bmi = spec.id_of("Bmi").unwrap();
    let age = spec.id_of("Age").unwrap();
    let (_, mut crowd) = world(Arc::clone(&spec), 600, 21);
    let out = preprocess(
        &mut crowd,
        &spec,
        &[bmi, age],
        Money::from_cents(4.0),
        &DisqConfig::default(),
        &PricingModel::paper(),
        None,
        21,
    )
    .unwrap();
    let f0 = out.plan.formula(0);
    let f1 = out.plan.formula(1);
    assert!(f0.starts_with("Bmi ≈"), "{f0}");
    assert!(f1.starts_with("Age ≈"), "{f1}");
}

#[test]
fn error_decreases_with_online_budget_on_average() {
    let spec = Arc::new(pictures::spec());
    let bmi = spec.id_of("Bmi").unwrap();
    let weights = vec![1.0 / (spec.attr(bmi).sd * spec.attr(bmi).sd)];
    let mut small = 0.0;
    let mut large = 0.0;
    for seed in 0..3 {
        let (pop, mut crowd) = world(Arc::clone(&spec), 1_000, seed + 60);
        let out = preprocess(
            &mut crowd,
            &spec,
            &[bmi],
            Money::from_cents(1.0),
            &DisqConfig::default(),
            &PricingModel::paper(),
            Some(weights.clone()),
            seed,
        )
        .unwrap();
        small += online_error(&pop, &out.plan, &[bmi], &weights, seed + 70);
        let (pop2, mut crowd2) = world(Arc::clone(&spec), 1_000, seed + 60);
        let out2 = preprocess(
            &mut crowd2,
            &spec,
            &[bmi],
            Money::from_cents(10.0),
            &DisqConfig::default(),
            &PricingModel::paper(),
            Some(weights.clone()),
            seed,
        )
        .unwrap();
        large += online_error(&pop2, &out2.plan, &[bmi], &weights, seed + 70);
    }
    assert!(
        large < small,
        "10¢ per object ({large:.3}) should beat 1¢ ({small:.3})"
    );
}
