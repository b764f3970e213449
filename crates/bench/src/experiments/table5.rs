//! Table 5: example statistics gathered for the attributes.
//!
//! Reproduces the published statistic tables by running the actual
//! statistics component (`N₁` examples, `k = 2` answers per cell) and
//! printing, per attribute: the worker-agreement variance `S_c`, the
//! correlation with each query attribute (the `S_o` columns, shown as
//! correlations as the paper does "to make things more intuitive"), and
//! the attribute–attribute correlation matrix (`S_a`).

use crate::report::Table;
use crate::runner::DomainKind;
use disq_core::components::statistics::StatisticsCollector;
use disq_crowd::{CrowdConfig, SimulatedCrowd};
use disq_domain::Population;
use disq_stats::StatsTrio;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn stats_table(domain: DomainKind, targets: &[&str], attrs: &[&str], seed: u64) -> Table {
    let spec = Arc::new(domain.spec());
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = Population::sample(Arc::clone(&spec), 3_000, &mut rng).unwrap();
    let mut crowd = SimulatedCrowd::new(pop, CrowdConfig::default(), None, seed);

    let target_ids: Vec<_> = targets.iter().map(|n| spec.id_of(n).unwrap()).collect();
    let mut collector =
        StatisticsCollector::collect_examples(&mut crowd, &target_ids, 200).unwrap();
    let mut trio = StatsTrio::new(targets.len());
    for &name in attrs {
        let attr = spec.id_of(name).unwrap();
        let idx = collector
            .add_attribute(&mut crowd, attr, vec![true; targets.len()], 2)
            .unwrap();
        collector.update_trio(&mut trio, idx, 2, true, 0.0).unwrap();
    }
    for t in 0..targets.len() {
        trio.set_target_variance(t, collector.target_variance(t))
            .unwrap();
    }

    let mut header: Vec<String> = vec!["attribute".into(), "S_c".into()];
    header.extend(targets.iter().map(|t| format!("ρ(·,{t})")));
    header.extend(attrs.iter().map(|a| format!("ρ·{a}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        &format!("Table 5 ({}) — measured statistics", domain.name()),
        &header_refs,
    );
    for (i, &name) in attrs.iter().enumerate() {
        let mut row = vec![name.to_string(), format!("{:.3}", trio.s_c(i))];
        for t in 0..targets.len() {
            row.push(format!("{:.2}", trio.target_correlation(t, i)));
        }
        for j in 0..attrs.len() {
            row.push(format!("{:.2}", trio.attr_correlation(i, j)));
        }
        table.row(row);
    }
    table
}

/// Regenerates both halves of Table 5, one pool unit per domain.
pub fn run(_reps: usize) -> String {
    let halves: [(DomainKind, &[&str], &[&str], u64); 2] = [
        (
            DomainKind::Pictures,
            &["Bmi", "Age"],
            &[
                "Bmi",
                "Weight",
                "Heavy",
                "Attractive",
                "Works Out",
                "Wrinkles",
            ],
            51,
        ),
        (
            DomainKind::Recipes,
            &["Calories", "Protein"],
            &[
                "Calories",
                "Low Calorie",
                "Dessert",
                "Healthy",
                "Vegetarian",
                "Has Eggs",
            ],
            52,
        ),
    ];
    let (tables, timings) = crate::harness::run_units(halves.len(), 1, None, |i| {
        let (domain, targets, attrs, seed) = halves[i];
        stats_table(domain, targets, attrs, seed).render()
    });
    let mut out = tables.join("\n");
    out.push_str(&timings.render());
    out.push('\n');
    out
}
