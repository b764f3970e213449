//! Head-to-head on the paper's headline single-attribute query: estimate
//! **Bmi** from photos (§5.2, Fig. 1a/1d), comparing DisQ against the
//! SimpleDisQ and NaiveAverage baselines at the same budgets.
//!
//! Run with: `cargo run --release --example pictures_bmi`

use disq::baselines::{naive_average, run_baseline, Baseline};
use disq::core::{metrics, online, DisqConfig};
use disq::crowd::{CrowdConfig, Money, PricingModel, SimulatedCrowd};
use disq::domain::domains::pictures;
use disq::domain::{ObjectId, Population, Query};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let spec = Arc::new(pictures::spec());
    let bmi = spec.id_of("Bmi").unwrap();
    let b_obj = Money::from_cents(4.0);
    let b_prc = Money::from_dollars(30.0);
    let reps = 5;
    let pricing = PricingModel::paper();
    let weights = vec![1.0 / (spec.attr(bmi).sd * spec.attr(bmi).sd)];

    println!("query: select Bmi from photos   (B_obj = {b_obj}, B_prc = {b_prc})\n");

    for baseline in [Baseline::DisQ, Baseline::SimpleDisQ, Baseline::NaiveAverage] {
        let mut total = 0.0;
        let mut example_formula = String::new();
        for rep in 0..reps {
            let mut rng = StdRng::seed_from_u64(rep);
            let population = Population::sample(Arc::clone(&spec), 1_500, &mut rng).unwrap();
            let plan = if baseline == Baseline::NaiveAverage {
                naive_average(&spec, &[bmi], b_obj, &pricing, Some(&weights)).unwrap()
            } else {
                let mut crowd = SimulatedCrowd::new(
                    population.clone(),
                    CrowdConfig::default(),
                    Some(b_prc),
                    rep + 100,
                );
                run_baseline(
                    baseline,
                    &mut crowd,
                    &spec,
                    &[bmi],
                    b_obj,
                    &DisqConfig::default(),
                    &pricing,
                    Some(weights.clone()),
                    rep,
                )
                .expect("offline phase")
                .0
            };
            if rep == 0 {
                example_formula = plan.formula(0);
            }
            let mut online_crowd =
                SimulatedCrowd::new(population.clone(), CrowdConfig::default(), None, rep + 500);
            let objects: Vec<ObjectId> = (0..150).map(ObjectId).collect();
            let query = Query::new(vec![bmi], vec![]);
            let est: Vec<Vec<f64>> =
                online::evaluate_query(&mut online_crowd, &plan, &query, &objects)
                    .unwrap()
                    .rows
                    .into_iter()
                    .map(|row| row.values)
                    .collect();
            let truth: Vec<Vec<f64>> = objects
                .iter()
                .map(|&o| vec![population.value(o, bmi)])
                .collect();
            total += metrics::query_error(&est, &truth, &weights);
        }
        println!(
            "{:<14} avg weighted error = {:.4}",
            baseline.name(),
            total / reps as f64
        );
        println!("               e.g. {example_formula}\n");
    }
    println!("(lower is better; DisQ assembles cheap boolean judgements like Heavy/Fat\n into the Bmi estimate instead of burning the budget on direct numeric guesses)");
}
