//! Figure 2 (§5.2): the `B_obj` necessary to reach target error levels.
//!
//! For each algorithm, sweep `B_obj` at the fixed `B_prc` = $30 and report
//! the smallest per-object budget whose average error drops below each
//! target. The paper's reading: DisQ needs a markedly smaller `B_obj` than
//! SimpleDisQ/NaiveAverage to hit the same accuracy (e.g. 6¢ vs 10¢ for
//! 0.067 on Bmi).

use crate::experiments::{b_obj_sweep, b_prc_fixed};
use crate::harness::run_experiment;
use crate::report::Table;
use crate::runner::{Cell, DomainKind, StrategyKind};
use disq_baselines::Baseline;

const STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::Baseline(Baseline::DisQ),
    StrategyKind::Baseline(Baseline::SimpleDisQ),
    StrategyKind::Baseline(Baseline::NaiveAverage),
];

/// Error-vs-budget curves per strategy (gathered in one parallel sweep),
/// then the inverted "necessary budget" table for a grid of target
/// errors.
pub fn run(reps: usize) -> String {
    let queries = [
        ("pictures {Bmi}", DomainKind::Pictures, &["Bmi"][..]),
        ("recipes {Protein}", DomainKind::Recipes, &["Protein"][..]),
    ];
    let sweep = b_obj_sweep();

    // All curve points of both queries as one flat cell list:
    // query-major, then strategy, then budget point.
    let mut cells = Vec::new();
    for (_, domain, targets) in &queries {
        for s in STRATEGIES {
            for &b_obj in &sweep {
                cells.push(Cell::new(*domain, targets, s, b_prc_fixed(), b_obj));
            }
        }
    }
    let (results, timings) = run_experiment(&cells, reps);

    let mut out = String::new();
    let per_query = STRATEGIES.len() * sweep.len();
    for (qi, (name, _, _)) in queries.iter().enumerate() {
        let curves: Vec<Vec<Option<f64>>> = (0..STRATEGIES.len())
            .map(|si| {
                (0..sweep.len())
                    .map(|pi| results[qi * per_query + si * sweep.len() + pi].map(|(m, _)| m))
                    .collect()
            })
            .collect();
        // Target grid: geometric steps just above the best achievable
        // error. (An arithmetic grid over the full range would be
        // dominated by the enormous NaiveAverage errors at 0.4¢.)
        let observed: Vec<f64> = curves.iter().flatten().flatten().copied().collect();
        let lo = observed.iter().cloned().fold(f64::INFINITY, f64::min);
        let grid: Vec<f64> = [1.2, 1.7, 2.4, 3.4].iter().map(|m| lo * m).collect();

        let mut header = vec!["target error".to_string()];
        header.extend(STRATEGIES.iter().map(|s| s.name().to_string()));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = Table::new(
            &format!("Fig 2 — necessary B_obj for target errors ({name}, B_prc=$30)"),
            &header_refs,
        );
        for &target in &grid {
            let mut row = vec![format!("{target:.4}")];
            for (si, _) in STRATEGIES.iter().enumerate() {
                let needed = sweep
                    .iter()
                    .zip(&curves[si])
                    .find(|(_, e)| e.is_some_and(|e| e <= target))
                    .map(|(b, _)| format!("{:.1}¢", b.as_cents()))
                    .unwrap_or_else(|| ">10¢".to_string());
                row.push(needed);
            }
            table.row(row);
        }
        out.push_str(&table.render());
        out.push('\n');
    }
    out.push_str(&timings.render());
    out.push('\n');
    out
}
