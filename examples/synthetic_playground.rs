//! Synthetic-domain playground: when does dismantling pay off?
//!
//! Sweeps the worker-noise difficulty of randomly generated domains (§5.1
//! "Synthetic Data") and reports DisQ vs the no-dismantling baseline. The
//! pattern to look for: the harder the query attribute is to estimate
//! directly, the bigger DisQ's advantage — the paper's core claim,
//! reproduced free of any hand calibration.
//!
//! Run with: `cargo run --release --example synthetic_playground`

use disq::baselines::{run_baseline, Baseline};
use disq::core::{metrics, online, DisqConfig};
use disq::crowd::{CrowdConfig, Money, PricingModel, SimulatedCrowd};
use disq::domain::domains::synthetic::{self, SyntheticConfig};
use disq::domain::{AttributeId, ObjectId, Population, Query};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let pricing = PricingModel::paper();
    println!("difficulty = worker noise sd as a multiple of the attribute's true sd\n");
    println!("difficulty | DisQ error | SimpleDisQ error | DisQ advantage");
    println!("-----------+------------+------------------+---------------");

    for difficulty in [0.5, 1.0, 2.0, 3.0, 4.0] {
        let mut errs = [0.0_f64; 2];
        let reps = 4;
        for rep in 0..reps {
            // Helpers keep moderate difficulty; only the query attribute's
            // noise is swept.
            let spec = Arc::new(synthetic::spec(
                &SyntheticConfig {
                    n_attrs: 18,
                    noise_ratio_range: (0.3, 1.0),
                    target_noise_ratio: Some(difficulty),
                    ..Default::default()
                },
                100 + rep,
            ));
            let target = AttributeId(0);
            let weights = vec![1.0 / (spec.attr(target).sd * spec.attr(target).sd)];
            let mut rng = StdRng::seed_from_u64(rep);
            let population = Population::sample(Arc::clone(&spec), 1_200, &mut rng).unwrap();

            for (i, baseline) in [Baseline::DisQ, Baseline::SimpleDisQ].iter().enumerate() {
                let mut crowd = SimulatedCrowd::new(
                    population.clone(),
                    CrowdConfig::default(),
                    Some(Money::from_dollars(25.0)),
                    rep * 10 + i as u64,
                );
                let (plan, _) = run_baseline(
                    *baseline,
                    &mut crowd,
                    &spec,
                    &[target],
                    Money::from_cents(4.0),
                    &DisqConfig::default(),
                    &pricing,
                    Some(weights.clone()),
                    rep,
                )
                .expect("offline phase");
                let mut online_crowd = SimulatedCrowd::new(
                    population.clone(),
                    CrowdConfig::default(),
                    None,
                    rep + 999,
                );
                let objects: Vec<ObjectId> = (0..120).map(ObjectId).collect();
                let query = Query::new(vec![target], vec![]);
                let est: Vec<Vec<f64>> =
                    online::evaluate_query(&mut online_crowd, &plan, &query, &objects)
                        .unwrap()
                        .rows
                        .into_iter()
                        .map(|row| row.values)
                        .collect();
                let truth: Vec<Vec<f64>> = objects
                    .iter()
                    .map(|&o| vec![population.value(o, target)])
                    .collect();
                errs[i] += metrics::query_error(&est, &truth, &weights) / reps as f64;
            }
        }
        let advantage = 100.0 * (1.0 - errs[0] / errs[1]);
        println!(
            "  {difficulty:>6.1}x  |   {:>7.4}  |      {:>7.4}     |   {advantage:>5.1}%",
            errs[0], errs[1]
        );
    }
}
