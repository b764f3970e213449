//! Quickstart: dismantle one hard attribute and read off the plan.
//!
//! Builds a small synthetic world, runs the DisQ preprocessing phase with
//! a $20 offline budget and a 4¢ per-object budget, prints the discovered
//! attributes and the paper-style assembly formula, then estimates a few
//! objects online and reports the error against ground truth.
//!
//! Run with: `cargo run --release --example quickstart`

use disq::core::{online, preprocess, DisqConfig};
use disq::crowd::{CrowdConfig, Money, PricingModel, SimulatedCrowd};
use disq::domain::domains::synthetic::{self, SyntheticConfig};
use disq::domain::{ObjectId, Population, Query};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    // Honour DISQ_TRACE=<path> (structured JSONL event log); counters
    // below work either way.
    disq::trace::init_from_env();
    let trace_start = disq::trace::summary();

    // A 15-attribute synthetic world; attribute 0 will be our query.
    let spec = Arc::new(synthetic::spec(
        &SyntheticConfig {
            n_attrs: 15,
            ..Default::default()
        },
        7,
    ));
    let target = disq::domain::AttributeId(0);
    println!("domain: {} ({} attributes)", spec.name(), spec.n_attrs());
    println!("query attribute: {}\n", spec.attr(target).name);

    // Sample the ground-truth population and stand up a simulated crowd
    // with a $20 preprocessing budget.
    let mut rng = StdRng::seed_from_u64(42);
    let population = Population::sample(Arc::clone(&spec), 1_000, &mut rng).unwrap();
    let mut crowd = SimulatedCrowd::new(
        population.clone(),
        CrowdConfig::default(),
        Some(Money::from_dollars(20.0)),
        42,
    );

    // Offline phase: discover related attributes, learn the plan.
    let out = preprocess(
        &mut crowd,
        &spec,
        &[target],
        Money::from_cents(4.0),
        &DisqConfig::default(),
        &PricingModel::paper(),
        None,
        42,
    )
    .expect("preprocessing");

    println!("discovered attributes: {:?}", out.stats.discovered);
    println!(
        "dismantling questions asked: {} (junk {}, duplicates {}, rejected {})",
        out.stats.dismantle_questions, out.stats.junk, out.stats.duplicates, out.stats.rejected
    );
    println!("offline spend: {}\n", out.stats.spent);
    println!("plan formula:\n  {}\n", out.plan.formula(0));
    println!(
        "per-object online cost: {} ({} questions)",
        out.plan.cost_per_object(&PricingModel::paper()),
        out.plan.questions_per_object()
    );

    // Online phase: estimate 20 objects and compare against ground truth.
    let mut online_crowd =
        SimulatedCrowd::new(population.clone(), CrowdConfig::default(), None, 43);
    let objects: Vec<ObjectId> = (0..20).map(ObjectId).collect();
    let query = Query::new(vec![target], vec![]);
    let result = online::evaluate_query(&mut online_crowd, &out.plan, &query, &objects).unwrap();
    println!("\n object | estimate | truth");
    println!(" -------+----------+------");
    let mut se = 0.0;
    for row in &result.rows {
        let (o, est) = (row.object, row.values[0]);
        let truth = population.value(o, target);
        se += (est - truth) * (est - truth);
        println!("  {:>5} | {:>8.2} | {:>5.2}", o.index(), est, truth);
    }
    println!(
        "\nRMSE over {} objects: {:.3} (target sd {:.3})",
        objects.len(),
        (se / objects.len() as f64).sqrt(),
        spec.attr(target).sd
    );

    // Run summary: what the observability layer counted along the way.
    let summary = disq::trace::summary().delta_since(&trace_start);
    if !summary.is_empty() {
        println!();
        print!("{}", summary.render());
    }
    disq::trace::flush();
}
