//! One module per paper artifact. Each exposes `run(reps) -> String`,
//! returning the reproduced rows/series as text.
//!
//! Cell-sweep experiments (the figures and robustness tables) collect
//! *all* of their cells into a `SweepPlan` up front and execute them
//! through one [`crate::harness::run_experiment`] call, so every
//! `(cell, rep)` unit of the whole artifact fans out across the worker
//! pool and shares sampled worlds; tables are then formatted from the
//! indexed results. The non-cell experiments (coverage, Tables 4/5) fan
//! their units out through [`crate::harness::run_units`] instead.

pub mod coverage;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod robustness;
pub mod scale;
pub mod serve;
pub mod table4;
pub mod table5;
pub mod workers;

use crate::report::{fmt_err, Table};
use crate::runner::Cell;
use disq_crowd::Money;

/// A planned table: a contiguous, row-major block of the experiment's
/// flat cell list plus the labels needed to render it afterwards.
struct PlannedTable {
    title: String,
    header: Vec<String>,
    /// Per row: the label cells that precede the result columns.
    row_labels: Vec<Vec<String>>,
    start: usize,
    cols: usize,
}

/// Collects every cell of an experiment so the whole artifact runs as
/// one parallel sweep, then renders its tables from the results.
#[derive(Default)]
pub(crate) struct SweepPlan {
    cells: Vec<Cell>,
    tables: Vec<PlannedTable>,
}

impl SweepPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Plans one table. `rows` holds the label cells of each row;
    /// `make(row, col)` builds the cell for each of the `cols` result
    /// columns of each row. Cells are appended row-major, so results
    /// land in a contiguous block.
    pub fn table(
        &mut self,
        title: &str,
        header: &[&str],
        rows: Vec<Vec<String>>,
        cols: usize,
        mut make: impl FnMut(usize, usize) -> Cell,
    ) {
        let start = self.cells.len();
        for r in 0..rows.len() {
            for c in 0..cols {
                self.cells.push(make(r, c));
            }
        }
        self.tables.push(PlannedTable {
            title: title.to_string(),
            header: header.iter().map(|h| h.to_string()).collect(),
            row_labels: rows,
            start,
            cols,
        });
    }

    /// Executes every planned cell through the parallel harness and
    /// renders the tables plus the harness timing footer.
    pub fn run(self, reps: usize) -> String {
        let (results, timings) = crate::harness::run_experiment(&self.cells, reps);
        let mut out = String::new();
        for t in &self.tables {
            let header_refs: Vec<&str> = t.header.iter().map(String::as_str).collect();
            let mut table = Table::new(&t.title, &header_refs);
            for (r, labels) in t.row_labels.iter().enumerate() {
                let mut row = labels.clone();
                for c in 0..t.cols {
                    row.push(fmt_err(results[t.start + r * t.cols + c]));
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
}

/// The paper's `B_prc` sweep: $10–$35 (§5.2).
pub fn b_prc_sweep() -> Vec<Money> {
    [10.0, 15.0, 20.0, 25.0, 30.0, 35.0]
        .iter()
        .map(|&d| Money::from_dollars(d))
        .collect()
}

/// The paper's `B_obj` sweep: 0.4¢–10¢ (§5.2).
pub fn b_obj_sweep() -> Vec<Money> {
    [0.4, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        .iter()
        .map(|&c| Money::from_cents(c))
        .collect()
}

/// Fixed `B_obj` for the varying-`B_prc` figures (4¢, "over the graph's
/// knee").
pub fn b_obj_fixed() -> Money {
    Money::from_cents(4.0)
}

/// Fixed `B_prc` for the varying-`B_obj` figures ($30).
pub fn b_prc_fixed() -> Money {
    Money::from_dollars(30.0)
}
