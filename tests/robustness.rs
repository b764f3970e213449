//! Integration tests of the §5.4 robustness settings: the pipeline must
//! keep producing usable plans under degraded crowd behaviour.

use disq::core::{online, preprocess, DisqConfig, Unification};
use disq::crowd::{CrowdConfig, Money, PricingModel, SimulatedCrowd};
use disq::domain::domains::pictures;
use disq::domain::{ObjectId, Population, Query};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn run_with(crowd_config: CrowdConfig, algo_config: DisqConfig, seed: u64) -> f64 {
    let spec = Arc::new(pictures::spec());
    let bmi = spec.id_of("Bmi").unwrap();
    let weights = vec![1.0 / (spec.attr(bmi).sd * spec.attr(bmi).sd)];
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = Population::sample(Arc::clone(&spec), 900, &mut rng).unwrap();
    let mut crowd = SimulatedCrowd::new(
        pop.clone(),
        crowd_config.clone(),
        Some(Money::from_dollars(25.0)),
        seed,
    );
    let out = preprocess(
        &mut crowd,
        &spec,
        &[bmi],
        Money::from_cents(4.0),
        &algo_config,
        &crowd_config.pricing,
        Some(weights.clone()),
        seed,
    )
    .expect("preprocessing under degraded crowd");
    let mut online_crowd = SimulatedCrowd::new(pop.clone(), crowd_config, None, seed + 1);
    let objects: Vec<ObjectId> = (0..120).map(ObjectId).collect();
    let query = Query::new(vec![bmi], vec![]);
    let est: Vec<Vec<f64>> = online::evaluate_query(&mut online_crowd, &out.plan, &query, &objects)
        .unwrap()
        .rows
        .into_iter()
        .map(|row| row.values)
        .collect();
    let truth: Vec<Vec<f64>> = objects.iter().map(|&o| vec![pop.value(o, bmi)]).collect();
    disq::core::metrics::query_error(&est, &truth, &weights)
}

/// Errors should stay bounded relative to the clean baseline.
fn assert_degrades_gracefully(err: f64, clean: f64, label: &str) {
    assert!(err.is_finite(), "{label}: error not finite");
    assert!(
        err < clean * 2.5,
        "{label}: degraded error {err:.3} blew past clean {clean:.3}"
    );
}

#[test]
fn survives_junk_dismantling_answers() {
    let clean = run_with(CrowdConfig::default(), DisqConfig::default(), 31);
    let junky = run_with(
        CrowdConfig {
            junk_rate_boost: 0.5,
            ..Default::default()
        },
        DisqConfig::default(),
        31,
    );
    assert_degrades_gracefully(junky, clean, "junk answers");
}

#[test]
fn survives_missing_synonym_unification() {
    let clean = run_with(CrowdConfig::default(), DisqConfig::default(), 32);
    let raw = run_with(
        CrowdConfig {
            synonym_rate: 0.5,
            ..Default::default()
        },
        DisqConfig {
            unification: Unification::RawText,
            ..Default::default()
        },
        32,
    );
    assert_degrades_gracefully(raw, clean, "no unification");
}

#[test]
fn survives_spammy_value_answers() {
    let clean = run_with(CrowdConfig::default(), DisqConfig::default(), 33);
    let spammy = run_with(
        CrowdConfig {
            spam_rate: 0.1,
            ..Default::default()
        },
        DisqConfig::default(),
        33,
    );
    assert_degrades_gracefully(spammy, clean, "spam");
}

#[test]
fn rho_assumption_variations_stay_stable() {
    let mid = run_with(
        CrowdConfig::default(),
        DisqConfig {
            rho_assumption: 0.5,
            ..Default::default()
        },
        34,
    );
    for rho in [0.3, 0.7] {
        let err = run_with(
            CrowdConfig::default(),
            DisqConfig {
                rho_assumption: rho,
                ..Default::default()
            },
            34,
        );
        assert_degrades_gracefully(err, mid, "rho assumption");
    }
}

#[test]
fn alternative_pricing_still_works() {
    let paper = PricingModel::paper();
    let pricey = CrowdConfig {
        pricing: PricingModel {
            dismantle: Money::from_cents(3.0),
            example: Money::from_cents(10.0),
            ..paper
        },
        ..Default::default()
    };
    let clean = run_with(CrowdConfig::default(), DisqConfig::default(), 35);
    let err = run_with(pricey, DisqConfig::default(), 35);
    assert_degrades_gracefully(err, clean, "pricier tasks");
}
