//! Table 4: dismantling questions and their answer frequencies.
//!
//! For each attribute the paper lists (pictures: Bmi, Height, Age,
//! Attractive; recipes: Calories, Protein, Healthy, Easy to Make), ask a
//! batch of dismantling questions and report how often each answer name
//! came back — regenerating the frequency columns of Table 4.

use crate::report::Table;
use crate::runner::DomainKind;
use disq_crowd::{CrowdConfig, CrowdPlatform, SimulatedCrowd};
use disq_domain::Population;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

/// Dismantling questions asked per attribute.
const QUESTIONS: usize = 400;

fn domain_rows(domain: DomainKind, attrs: &[&str], seed: u64) -> Table {
    let spec = Arc::new(domain.spec());
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = Population::sample(Arc::clone(&spec), 50, &mut rng).unwrap();
    let mut crowd = SimulatedCrowd::new(pop, CrowdConfig::default(), None, seed);

    let mut table = Table::new(
        &format!("Table 4 ({}) — dismantling answers", domain.name()),
        &["question", "answer", "frequency"],
    );
    for &name in attrs {
        let attr = spec.id_of(name).unwrap();
        let mut counts: HashMap<String, usize> = HashMap::new();
        for _ in 0..QUESTIONS {
            let ans = crowd.ask_dismantle(attr).unwrap();
            // Merge synonyms for reporting, mark junk.
            let label = match spec.id_of(&ans) {
                Some(id) => spec.attr(id).name.clone(),
                None => "(irrelevant)".to_string(),
            };
            *counts.entry(label).or_default() += 1;
        }
        let mut sorted: Vec<(String, usize)> = counts.into_iter().collect();
        // Tie-break equal frequencies by label: HashMap iteration order
        // is randomized per process, and a count-only sort lets tied
        // rows swap between otherwise identical runs.
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (label, count) in sorted.into_iter().take(6) {
            table.row(vec![
                name.to_string(),
                label,
                format!("{:.0}%", 100.0 * count as f64 / QUESTIONS as f64),
            ]);
        }
    }
    table
}

/// Regenerates both halves of Table 4, one pool unit per domain.
pub fn run(_reps: usize) -> String {
    let halves: [(DomainKind, &[&str], u64); 2] = [
        (
            DomainKind::Pictures,
            &["Bmi", "Height", "Age", "Attractive"],
            41,
        ),
        (
            DomainKind::Recipes,
            &["Calories", "Protein", "Healthy", "Easy to Make"],
            42,
        ),
    ];
    let (tables, timings) = crate::harness::run_units(halves.len(), 1, None, |i| {
        let (domain, attrs, seed) = halves[i];
        domain_rows(domain, attrs, seed).render()
    });
    let mut out = tables.join("\n");
    out.push_str(&timings.render());
    out.push('\n');
    out
}
