//! Figure 3 (§5.3.1 "The GetNextAttribute Method"): DisQ vs
//! OnlyQueryAttributes on the recipes/{Protein} query.
//!
//! * 3a — varying `B_prc` at `B_obj` = 4¢;
//! * 3b — varying `B_obj` at `B_prc` = $30.
//!
//! Expected shape: DisQ consistently below OnlyQueryAttributes, with the
//! gap widening as `B_prc` grows (enough budget to exploit the wider
//! answer variety that recursive dismantling provides).

use crate::experiments::{b_obj_fixed, b_obj_sweep, b_prc_fixed, b_prc_sweep, SweepPlan};
use crate::runner::{Cell, DomainKind, StrategyKind};
use disq_baselines::Baseline;

const STRATEGIES: [StrategyKind; 2] = [
    StrategyKind::Baseline(Baseline::DisQ),
    StrategyKind::Baseline(Baseline::OnlyQueryAttributes),
];

/// Plans both panels and runs them as one parallel sweep.
pub fn run(reps: usize) -> String {
    let domain = DomainKind::Recipes;
    let targets = ["Protein"];
    let header = ["budget", "DisQ", "OnlyQueryAttributes"];
    let mut plan = SweepPlan::new();

    let prc = b_prc_sweep();
    plan.table(
        "Fig 3a — error vs B_prc (recipes {Protein}, B_obj=4¢)",
        &header,
        prc.iter()
            .map(|p| vec![format!("B_prc=${:.0}", p.as_dollars())])
            .collect(),
        STRATEGIES.len(),
        |r, c| Cell::new(domain, &targets, STRATEGIES[c], prc[r], b_obj_fixed()),
    );

    let obj = b_obj_sweep();
    plan.table(
        "Fig 3b — error vs B_obj (recipes {Protein}, B_prc=$30)",
        &header,
        obj.iter()
            .map(|o| vec![format!("B_obj={:.1}¢", o.as_cents())])
            .collect(),
        STRATEGIES.len(),
        |r, c| Cell::new(domain, &targets, STRATEGIES[c], b_prc_fixed(), obj[r]),
    );

    plan.run(reps)
}
