//! Integration tests of the money flow: ledgers and caps.

use disq::core::{preprocess, DisqConfig, DisqError};
use disq::crowd::{CrowdConfig, CrowdPlatform, Money, PricingModel, QuestionKind, SimulatedCrowd};
use disq::domain::domains::pictures;
use disq::domain::Population;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn crowd(cap: Money, seed: u64) -> (Population, SimulatedCrowd) {
    let spec = Arc::new(pictures::spec());
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = Population::sample(spec, 700, &mut rng).unwrap();
    let c = SimulatedCrowd::new(pop.clone(), CrowdConfig::default(), Some(cap), seed);
    (pop, c)
}

#[test]
fn per_kind_totals_sum_to_spend() {
    let (_, mut c) = crowd(Money::from_dollars(20.0), 1);
    let spec = Arc::new(pictures::spec());
    let bmi = spec.id_of("Bmi").unwrap();
    let _ = preprocess(
        &mut c,
        &spec,
        &[bmi],
        Money::from_cents(4.0),
        &DisqConfig::default(),
        &PricingModel::paper(),
        None,
        1,
    )
    .unwrap();
    let ledger = c.ledger();
    let per_kind: Money = QuestionKind::ALL.iter().map(|&k| ledger.total(k)).sum();
    assert_eq!(per_kind, ledger.spent());
    // All four paid question kinds actually got used.
    assert!(ledger.count(QuestionKind::Example) > 0);
    assert!(ledger.count(QuestionKind::Dismantle) > 0);
    assert!(ledger.count(QuestionKind::Verify) > 0);
    assert!(ledger.count(QuestionKind::NumericValue) + ledger.count(QuestionKind::BinaryValue) > 0);
}

#[test]
fn spend_never_exceeds_cap_across_budgets() {
    let spec = Arc::new(pictures::spec());
    let bmi = spec.id_of("Bmi").unwrap();
    for dollars in [12.0, 18.0, 30.0] {
        let cap = Money::from_dollars(dollars);
        let (_, mut c) = crowd(cap, 7);
        let out = preprocess(
            &mut c,
            &spec,
            &[bmi],
            Money::from_cents(4.0),
            &DisqConfig::default(),
            &PricingModel::paper(),
            None,
            7,
        )
        .unwrap();
        assert!(out.stats.spent <= cap, "spent {} of {cap}", out.stats.spent);
        // Budgets are meant to be *used*: at least 80% consumed.
        assert!(
            out.stats.spent.as_dollars() > dollars * 0.8,
            "only spent {} of {cap}",
            out.stats.spent
        );
    }
}

#[test]
fn too_small_budget_fails_without_spending_everything() {
    let spec = Arc::new(pictures::spec());
    let bmi = spec.id_of("Bmi").unwrap();
    let (_, mut c) = crowd(Money::from_dollars(0.5), 9);
    let err = preprocess(
        &mut c,
        &spec,
        &[bmi],
        Money::from_cents(4.0),
        &DisqConfig::default(),
        &PricingModel::paper(),
        None,
        9,
    )
    .unwrap_err();
    assert!(matches!(err, DisqError::BudgetTooSmall { .. }));
    // Failing early must not have burned the budget.
    assert_eq!(c.ledger().spent(), Money::ZERO);
}
