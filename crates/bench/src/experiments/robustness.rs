//! §5.4 "Dependency on Assumptions": robustness sweeps.
//!
//! Four dimensions from the paper — dismantling answer quality (extra
//! irrelevant answers), the normalization mechanism (no synonym
//! unification), the `E[ρ(a_j, ans_j)]` constant, and crowd-task pricing —
//! plus two implementation ablations called out in `DESIGN.md`: the
//! `S_a` diagonal bias correction and the attribute-edge extension of the
//! Eq. 11 graph. The paper's finding, which these sweeps reproduce in
//! shape: trends survive every change; degraded settings just need a
//! somewhat higher `B_prc` for the same error.

use crate::experiments::SweepPlan;
use crate::runner::{Cell, DomainKind, StrategyKind};
use disq_baselines::Baseline;
use disq_core::Unification;
use disq_crowd::{Money, PricingModel};

fn base_cell() -> Cell {
    Cell::new(
        DomainKind::Pictures,
        &["Bmi"],
        StrategyKind::Baseline(Baseline::DisQ),
        Money::from_dollars(25.0),
        Money::from_cents(4.0),
    )
}

/// Plans all robustness sweeps and runs them as one parallel sweep.
pub fn run(reps: usize) -> String {
    let mut plan = SweepPlan::new();

    // --- Attributes Quality: extra junk answers --------------------------
    let junk_rates = [0.0, 0.2, 0.4, 0.6];
    plan.table(
        "§5.4 — robustness to irrelevant dismantling answers (pictures {Bmi})",
        &["extra junk rate", "DisQ error"],
        junk_rates.iter().map(|j| vec![format!("{j:.1}")]).collect(),
        1,
        |r, _| {
            let mut cell = base_cell();
            cell.crowd.junk_rate_boost = junk_rates[r];
            cell
        },
    );

    // --- Normalization Mechanism -----------------------------------------
    let unification = [
        (Unification::Merge, 0.3, "merge"),
        (Unification::RawText, 0.0, "none"),
        (Unification::RawText, 0.3, "none"),
        (Unification::RawText, 0.6, "none"),
    ];
    plan.table(
        "§5.4 — robustness to missing synonym unification (pictures {Bmi})",
        &["unification", "synonym rate", "DisQ error"],
        unification
            .iter()
            .map(|(_, syn, label)| vec![label.to_string(), format!("{syn:.1}")])
            .collect(),
        1,
        |r, _| {
            let (uni, syn, _) = unification[r];
            let mut cell = base_cell();
            cell.config.unification = uni;
            cell.crowd.synonym_rate = syn;
            cell
        },
    );

    // --- Answer's Correlation Parameter ------------------------------------
    let rhos = [0.3, 0.5, 0.7];
    plan.table(
        "§5.4 — robustness to the E[ρ(a_j, ans_j)] constant (pictures {Bmi})",
        &["ρ̂", "DisQ error"],
        rhos.iter().map(|r| vec![format!("{r:.1}")]).collect(),
        1,
        |r, _| {
            let mut cell = base_cell();
            cell.config.rho_assumption = rhos[r];
            cell
        },
    );

    // --- Crowd-Tasks Payment -----------------------------------------------
    let factors = [0.5, 1.0, 2.0];
    plan.table(
        "§5.4 — robustness to dismantle/example pricing (pictures {Bmi})",
        &["price factor", "DisQ error"],
        factors.iter().map(|f| vec![format!("x{f:.1}")]).collect(),
        1,
        |r, _| {
            let mut cell = base_cell();
            let paper = PricingModel::paper();
            cell.crowd.pricing = PricingModel {
                dismantle: Money::from_cents(paper.dismantle.as_cents() * factors[r]),
                example: Money::from_cents(paper.example.as_cents() * factors[r]),
                ..paper
            };
            cell
        },
    );

    // --- Ablation: S_a diagonal bias correction ----------------------------
    let corrections = [(true, "on (paper)"), (false, "off")];
    plan.table(
        "ablation — S_a diagonal bias correction (pictures {Bmi})",
        &["correction", "DisQ error"],
        corrections
            .iter()
            .map(|(_, label)| vec![label.to_string()])
            .collect(),
        1,
        |r, _| {
            let mut cell = base_cell();
            cell.config.diag_bias_correction = corrections[r].0;
            cell
        },
    );

    // --- Ablation: Eq. 11 graph attribute edges ----------------------------
    let edges = [(true, "on (extension)"), (false, "off (paper bipartite)")];
    plan.table(
        "ablation — attribute edges in the S_o estimation graph (pictures {Bmi, Age})",
        &["attr edges", "DisQ error"],
        edges
            .iter()
            .map(|(_, label)| vec![label.to_string()])
            .collect(),
        1,
        |r, _| {
            let mut cell = base_cell();
            cell.targets = vec!["Bmi", "Age"];
            cell.b_prc = Money::from_dollars(50.0);
            cell.config.graph_attr_edges = edges[r].0;
            cell
        },
    );

    plan.run(reps)
}
