//! Figure 4 (§5.3.2 "Statistic Estimation"): multi-target statistics
//! collection variants on pictures/{Bmi, Age}.
//!
//! DisQ (pairing rule + Eq. 11 graph estimation) vs TotallySeparated,
//! Full, OneConnection and NaiveEstimations.
//!
//! * 4a — varying `B_prc` at `B_obj` = 4¢;
//! * 4b — varying `B_obj` at `B_prc` = $50.
//!
//! Expected shape: TotallySeparated clearly worst (especially at low
//! `B_prc`); DisQ at least as good as Full for reasonable budgets and
//! never worse than OneConnection except marginally at very low budgets;
//! NaiveEstimations always below DisQ.

use crate::experiments::{b_obj_fixed, b_obj_sweep, b_prc_sweep, SweepPlan};
use crate::runner::{Cell, DomainKind, StrategyKind};
use disq_baselines::Baseline;
use disq_crowd::Money;

const STRATEGIES: [StrategyKind; 5] = [
    StrategyKind::Baseline(Baseline::DisQ),
    StrategyKind::TotallySeparated,
    StrategyKind::Baseline(Baseline::Full),
    StrategyKind::Baseline(Baseline::OneConnection),
    StrategyKind::Baseline(Baseline::NaiveEstimations),
];

fn header() -> Vec<&'static str> {
    let mut h = vec!["budget"];
    h.extend(STRATEGIES.iter().map(|s| s.name()));
    h
}

/// Plans both panels and runs them as one parallel sweep.
pub fn run(reps: usize) -> String {
    let domain = DomainKind::Pictures;
    let targets = ["Bmi", "Age"];
    let mut plan = SweepPlan::new();

    let prc: Vec<Money> = b_prc_sweep()
        .into_iter()
        .chain([Money::from_dollars(50.0)])
        .collect();
    plan.table(
        "Fig 4a — error vs B_prc (pictures {Bmi, Age}, B_obj=4¢)",
        &header(),
        prc.iter()
            .map(|p| vec![format!("B_prc=${:.0}", p.as_dollars())])
            .collect(),
        STRATEGIES.len(),
        |r, c| Cell::new(domain, &targets, STRATEGIES[c], prc[r], b_obj_fixed()),
    );

    let obj = b_obj_sweep();
    plan.table(
        "Fig 4b — error vs B_obj (pictures {Bmi, Age}, B_prc=$50)",
        &header(),
        obj.iter()
            .map(|o| vec![format!("B_obj={:.1}¢", o.as_cents())])
            .collect(),
        STRATEGIES.len(),
        |r, c| {
            Cell::new(
                domain,
                &targets,
                STRATEGIES[c],
                Money::from_dollars(50.0),
                obj[r],
            )
        },
    );

    plan.run(reps)
}
