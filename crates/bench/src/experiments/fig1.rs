//! Figure 1 (§5.2 "Proof of concept"): weighted query error of DisQ vs
//! SimpleDisQ vs NaiveAverage.
//!
//! * 1a/1b/1c — varying `B_prc` ($10–35) at `B_obj` = 4¢ for the queries
//!   {Bmi} (pictures), {Protein} (recipes) and {Bmi, Age} (pictures);
//! * 1d/1e/1f — varying `B_obj` (0.4–10¢) at `B_prc` = $30 for the same
//!   queries.
//!
//! Expected shape: DisQ lowest everywhere; SimpleDisQ between; the gap to
//! NaiveAverage is largest for the unintuitive Protein attribute; only
//! DisQ improves with `B_prc`.

use crate::experiments::{b_obj_fixed, b_obj_sweep, b_prc_fixed, b_prc_sweep, SweepPlan};
use crate::runner::{Cell, DomainKind, StrategyKind};
use disq_baselines::Baseline;

const STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::Baseline(Baseline::DisQ),
    StrategyKind::Baseline(Baseline::SimpleDisQ),
    StrategyKind::Baseline(Baseline::NaiveAverage),
];

const QUERIES: [(&str, DomainKind, &[&str]); 3] = [
    (
        "1a/1d  A(Q)={Bmi}, pictures",
        DomainKind::Pictures,
        &["Bmi"],
    ),
    (
        "1b/1e  A(Q)={Protein}, recipes",
        DomainKind::Recipes,
        &["Protein"],
    ),
    (
        "1c/1f  A(Q)={Bmi, Age}, pictures",
        DomainKind::Pictures,
        &["Bmi", "Age"],
    ),
];

/// Plans all six panels and runs them as one parallel sweep.
pub fn run(reps: usize) -> String {
    let mut header = vec!["budget"];
    header.extend(STRATEGIES.iter().map(|s| s.name()));
    let mut plan = SweepPlan::new();
    for (name, domain, targets) in QUERIES {
        // Varying B_prc (top row of Figure 1).
        let prc = b_prc_sweep();
        plan.table(
            &format!("Fig {name} — error vs B_prc (B_obj=4¢)"),
            &header,
            prc.iter()
                .map(|p| vec![format!("B_prc=${:.0}", p.as_dollars())])
                .collect(),
            STRATEGIES.len(),
            |r, c| Cell::new(domain, targets, STRATEGIES[c], prc[r], b_obj_fixed()),
        );
        // Varying B_obj (bottom row).
        let obj = b_obj_sweep();
        plan.table(
            &format!("Fig {name} — error vs B_obj (B_prc=$30)"),
            &header,
            obj.iter()
                .map(|o| vec![format!("B_obj={:.1}¢", o.as_cents())])
                .collect(),
            STRATEGIES.len(),
            |r, c| Cell::new(domain, targets, STRATEGIES[c], b_prc_fixed(), obj[r]),
        );
    }
    plan.run(reps)
}
