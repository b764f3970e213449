//! Cross-engine equivalence: the incremental budget solver must be a
//! pure performance optimization. Every decision that escapes
//! preprocessing — the plan, the allocation, the money spent, the
//! attributes discovered — must be identical whichever engine priced the
//! greedy grants, across domains and seeds.

use disq::core::components::budget_dist::{find_budget_distribution, with_engine, SolverEngine};
use disq::core::{preprocess, DisqConfig, PreprocessOutput};
use disq::crowd::{CrowdConfig, Money, PricingModel, SimulatedCrowd};
use disq::domain::domains::{pictures, recipes};
use disq::domain::{AttributeKind, DomainSpec, Population};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn run(spec: &Arc<DomainSpec>, target: &str, seed: u64, engine: SolverEngine) -> PreprocessOutput {
    let id = spec.id_of(target).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = Population::sample(Arc::clone(spec), 2_000, &mut rng).unwrap();
    let mut crowd = SimulatedCrowd::new(
        pop,
        CrowdConfig::default(),
        Some(Money::from_dollars(25.0)),
        seed,
    );
    with_engine(engine, || {
        preprocess(
            &mut crowd,
            spec,
            &[id],
            Money::from_cents(4.0),
            &DisqConfig::default(),
            &PricingModel::paper(),
            None,
            seed,
        )
        .unwrap()
    })
}

fn assert_outputs_identical(a: &PreprocessOutput, b: &PreprocessOutput, what: &str) {
    assert_eq!(a.plan, b.plan, "{what}: plans diverged");
    assert_eq!(a.budget, b.budget, "{what}: allocations diverged");
    assert_eq!(a.pool_labels, b.pool_labels, "{what}: pools diverged");
    assert_eq!(a.weights, b.weights, "{what}: weights diverged");
    assert_eq!(
        a.stats.discovered, b.stats.discovered,
        "{what}: discoveries diverged"
    );
    assert_eq!(a.stats.spent, b.stats.spent, "{what}: spend diverged");
    assert_eq!(
        a.stats.dismantle_questions, b.stats.dismantle_questions,
        "{what}: dismantle counts diverged"
    );
    assert_eq!(
        a.stats.fell_back, b.stats.fell_back,
        "{what}: fallback verdicts diverged"
    );
}

#[test]
fn engines_identical_on_pictures_across_seeds() {
    let spec = Arc::new(pictures::spec());
    for seed in [1, 7, 23] {
        let dense = run(&spec, "Bmi", seed, SolverEngine::Dense);
        let inc = run(&spec, "Bmi", seed, SolverEngine::Incremental);
        assert_outputs_identical(&dense, &inc, &format!("pictures/Bmi seed {seed}"));
    }
}

#[test]
fn engines_identical_on_recipes() {
    let spec = Arc::new(recipes::spec());
    let dense = run(&spec, "Protein", 6, SolverEngine::Dense);
    let inc = run(&spec, "Protein", 6, SolverEngine::Incremental);
    assert_outputs_identical(&dense, &inc, "recipes/Protein seed 6");
}

/// On the final trio of a real preprocessing run, the two engines pick
/// the identical allocation at every online budget, and their objectives
/// agree to 1e-9 relative.
#[test]
fn engines_agree_on_objectives_end_to_end() {
    let spec = Arc::new(pictures::spec());
    let pricing = PricingModel::paper();
    for seed in [1, 7] {
        let out = run(&spec, "Bmi", seed, SolverEngine::Incremental);
        let costs: Vec<Money> = out
            .pool_labels
            .iter()
            .map(|label| {
                let kind = spec
                    .id_of(label)
                    .map_or(AttributeKind::Numeric, |id| spec.attr(id).kind);
                pricing.value_price(kind)
            })
            .collect();
        for cents in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let budget = Money::from_cents(cents);
            let solve = |engine| {
                with_engine(engine, || {
                    find_budget_distribution(&out.trio, &out.weights, budget, &costs)
                })
                .unwrap()
            };
            let (b_dense, obj_dense) = solve(SolverEngine::Dense);
            let (b_inc, obj_inc) = solve(SolverEngine::Incremental);
            assert_eq!(
                b_dense, b_inc,
                "seed {seed}, {cents}¢: allocations diverged"
            );
            assert!(
                (obj_inc - obj_dense).abs() <= 1e-9 * obj_dense.abs().max(1.0),
                "seed {seed}, {cents}¢: objectives disagree: incremental {obj_inc} vs dense {obj_dense}"
            );
        }
    }
}
