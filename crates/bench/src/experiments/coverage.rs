//! §5.3.1 "Finding Relevant Attributes": gold-standard coverage.
//!
//! For each (domain, target) pair with an expert gold standard, run the
//! preprocessing phase and measure the fraction of gold attributes that
//! dismantling discovered. The paper reports > 80 % coverage for DisQ and
//! < 50 % for the naive approach that only dismantles the attributes
//! explicitly in the query; four domains are checked (pictures, recipes,
//! housing \[18\], laptops \[9\]).
//!
//! Worlds follow the harness convention: the `(domain, rep)` population
//! comes from a shared [`WorldCache`], so both strategies (and both
//! pictures cases) of a repetition dismantle the exact same sampled
//! objects — and the samples are shared rather than rebuilt per run.

use crate::harness::run_units;
use crate::report::Table;
use crate::runner::DomainKind;
use crate::world::WorldCache;
use disq_baselines::Baseline;
use disq_core::{preprocess, DisqConfig};
use disq_crowd::{CrowdConfig, Money, PricingModel, SimulatedCrowd};

const CASES: [(DomainKind, &str); 6] = [
    (DomainKind::Pictures, "Height"),
    (DomainKind::Pictures, "Weight"),
    (DomainKind::Recipes, "Protein"),
    (DomainKind::Recipes, "Calories"),
    (DomainKind::Housing, "Price"),
    (DomainKind::Laptops, "Price"),
];

const STRATEGIES: [Baseline; 2] = [Baseline::DisQ, Baseline::OnlyQueryAttributes];

/// Coverage of one strategy on one case for one repetition's shared
/// world: the fraction of gold attributes that dismantling discovered.
fn coverage_once(
    cache: &WorldCache,
    domain: DomainKind,
    target: &str,
    baseline: Baseline,
    rep: u64,
) -> f64 {
    let pop = cache.population(domain, rep).expect("world");
    let spec = pop.spec_arc();
    let target_id = spec.id_of(target).unwrap();
    let gold = spec.gold_standard(target_id).expect("gold standard");
    // Discovery-oriented configuration: the experiment measures what the
    // dismantling process can find, so most of the budget goes to it.
    let config = DisqConfig {
        dismantle_budget_fraction: 0.5,
        ..baseline.config(&DisqConfig::default()).unwrap()
    };
    let mut crowd = SimulatedCrowd::new(
        (*pop).clone(),
        CrowdConfig::default(),
        Some(Money::from_dollars(50.0)),
        rep,
    );
    let out = preprocess(
        &mut crowd,
        &spec,
        &[target_id],
        Money::from_cents(4.0),
        &config,
        &PricingModel::paper(),
        None,
        rep,
    )
    .expect("coverage run");
    let found = gold
        .iter()
        .filter(|&&g| {
            let name = &spec.attr(g).name;
            out.stats.discovered.iter().any(|d| d == name)
        })
        .count();
    found as f64 / gold.len() as f64
}

/// Regenerates the coverage comparison, fanning every
/// `(case, strategy, rep)` unit across the worker pool.
pub fn run(reps: usize) -> String {
    let cache = WorldCache::new();
    let groups = CASES.len() * STRATEGIES.len();
    let (fractions, timings) = run_units(groups, reps, Some(&cache), |i| {
        let case = i / (STRATEGIES.len() * reps);
        let rem = i % (STRATEGIES.len() * reps);
        let (domain, target) = CASES[case];
        coverage_once(
            &cache,
            domain,
            target,
            STRATEGIES[rem / reps],
            (rem % reps) as u64,
        )
    });
    let avg = |case: usize, s: usize| -> f64 {
        let start = (case * STRATEGIES.len() + s) * reps;
        fractions[start..start + reps].iter().sum::<f64>() / reps as f64
    };

    let mut table = Table::new(
        "§5.3.1 — gold-standard attribute coverage (B_prc=$50, B_obj=4¢)",
        &["domain", "target", "DisQ", "OnlyQueryAttributes"],
    );
    for (case, (domain, target)) in CASES.iter().enumerate() {
        table.row(vec![
            domain.name().to_string(),
            target.to_string(),
            format!("{:.0}%", 100.0 * avg(case, 0)),
            format!("{:.0}%", 100.0 * avg(case, 1)),
        ]);
    }
    let mut out = table.render();
    out.push_str(&timings.render());
    out.push('\n');
    out
}
