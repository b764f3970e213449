//! Multi-attribute queries (§4): estimating `{Bmi, Age}` together.
//!
//! A query with several attributes can share discovered helpers and their
//! statistics; this example contrasts the §4 pairing policies (the
//! rule-based default, `Full`, `OneConnection`) and shows the Eq. 11
//! angular-distance estimation filling the unmeasured `S_o` entries.
//!
//! Run with: `cargo run --release --example multi_attribute`

use disq::core::{online, preprocess, DisqConfig, PairingPolicy};
use disq::crowd::{CrowdConfig, Money, PricingModel, SimulatedCrowd};
use disq::domain::domains::pictures;
use disq::domain::{ObjectId, Population, Query};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let spec = Arc::new(pictures::spec());
    let bmi = spec.id_of("Bmi").unwrap();
    let age = spec.id_of("Age").unwrap();
    let targets = [bmi, age];
    let weights: Vec<f64> = targets
        .iter()
        .map(|&a| 1.0 / (spec.attr(a).sd * spec.attr(a).sd))
        .collect();
    let pricing = PricingModel::paper();

    println!("query: select Bmi, Age from photos\n");

    for (policy, name) in [
        (PairingPolicy::Rule, "Rule (the paper's collection rule)"),
        (PairingPolicy::All, "Full (measure every pair)"),
        (PairingPolicy::One, "OneConnection (one target per helper)"),
    ] {
        let mut rng = StdRng::seed_from_u64(9);
        let population = Population::sample(Arc::clone(&spec), 1_500, &mut rng).unwrap();
        let mut crowd = SimulatedCrowd::new(
            population.clone(),
            CrowdConfig::default(),
            Some(Money::from_dollars(50.0)),
            9,
        );
        let config = DisqConfig {
            pairing: policy,
            ..Default::default()
        };
        let out = preprocess(
            &mut crowd,
            &spec,
            &targets,
            Money::from_cents(6.0),
            &config,
            &pricing,
            Some(weights.clone()),
            9,
        )
        .expect("preprocessing");

        let mut online_crowd =
            SimulatedCrowd::new(population.clone(), CrowdConfig::default(), None, 10);
        let objects: Vec<ObjectId> = (0..150).map(ObjectId).collect();
        let query = Query::new(targets.to_vec(), vec![]);
        let raw: Vec<Vec<f64>> =
            online::evaluate_query(&mut online_crowd, &out.plan, &query, &objects)
                .unwrap()
                .rows
                .into_iter()
                .map(|row| row.values)
                .collect();
        let truth: Vec<Vec<f64>> = objects
            .iter()
            .map(|&o| targets.iter().map(|&a| population.value(o, a)).collect())
            .collect();
        let err = disq::core::metrics::query_error(&raw, &truth, &weights);

        println!("== {name}");
        println!("   discovered: {:?}", out.stats.discovered);
        println!("   offline spend: {}", out.stats.spent);
        for t in 0..targets.len() {
            println!("   {}", out.plan.formula(t));
        }
        println!("   weighted query error: {err:.4}\n");
    }
}
