//! Worker-pool heterogeneity curve: the Fig. 1a cell (pictures/{Bmi},
//! DisQ, B_prc=$30, B_obj=4¢) rerun under the opt-in heterogeneous
//! worker model at increasing pool sizes.
//!
//! Each size runs the same query with per-worker lognormal noise
//! multipliers and a spammer subpopulation planted (the
//! `DISQ_WORKER_MODEL=hetero` configuration, set programmatically here),
//! and prints one table row per pool size — wall clock plus the realized
//! query error. Against the homogeneous fig. 1 tables this isolates both
//! the cost of the provenance layer (it should be ~free: one extra RNG
//! stream) and the error inflation a heterogeneous crowd causes at fixed
//! budgets.
//!
//! Pool sizes come from `DISQ_WORKER_NS` (comma-separated counts); CI
//! smoke-tests a single small pool.

use crate::harness::per_sec;
use crate::report::Table;
use crate::runner::{run_cell, Cell, DomainKind, StrategyKind};
use disq_baselines::Baseline;
use disq_crowd::{Money, WorkerModel};
use std::time::Instant;

/// Default pool-size sweep: the stock pool and two growth steps.
pub const DEFAULT_POOLS: [usize; 3] = [16, 64, 256];

/// Repetitions averaged per pool size.
const REPS: u64 = 3;

/// Parses a `DISQ_WORKER_NS`-style size list (`"16,64"`). Invalid or
/// non-positive entries are dropped; an empty result means "default".
pub fn parse_pools(raw: &str) -> Vec<usize> {
    raw.split(',')
        .filter_map(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .collect()
}

/// Sweep pool sizes: `DISQ_WORKER_NS` when set and non-empty, else
/// [`DEFAULT_POOLS`].
pub fn pools_from_env() -> Vec<usize> {
    let parsed = std::env::var("DISQ_WORKER_NS")
        .map(|s| parse_pools(&s))
        .unwrap_or_default();
    if parsed.is_empty() {
        DEFAULT_POOLS.to_vec()
    } else {
        parsed
    }
}

/// The Fig. 1a cell with a heterogeneous worker pool of the given size.
fn hetero_cell(pool: usize) -> Cell {
    let mut cell = Cell::new(
        DomainKind::Pictures,
        &["Bmi"],
        StrategyKind::Baseline(Baseline::DisQ),
        Money::from_dollars(30.0),
        Money::from_cents(4.0),
    );
    cell.crowd.workers.pool = pool;
    cell.crowd.workers.model = WorkerModel::Heterogeneous;
    cell
}

/// Runs the sweep at the `DISQ_WORKER_NS` (or default) pool sizes.
pub fn run() -> String {
    run_pools(&pools_from_env())
}

/// Runs the heterogeneity sweep at the given pool sizes, one table row
/// per size.
pub fn run_pools(pools: &[usize]) -> String {
    let mut table = Table::new(
        "Worker heterogeneity: Fig 1a cell under DISQ_WORKER_MODEL=hetero",
        &["pool", "wall s", "units/s", "mean error"],
    );
    for &pool in pools {
        let cell = hetero_cell(pool);
        let start = Instant::now();
        let mut errors = Vec::new();
        for rep in 0..REPS {
            match run_cell(&cell, rep) {
                Ok(out) => errors.push(out.error),
                Err(e) => panic!("fig1@w{pool} rep {rep} failed: {e}"),
            }
        }
        let wall = start.elapsed().as_secs_f64();
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        table.row(vec![
            pool.to_string(),
            format!("{wall:.2}"),
            format!("{:.2}", per_sec(REPS as usize, wall)),
            format!("{mean:.4}"),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_pools_filters_garbage() {
        assert_eq!(parse_pools("16,64"), vec![16, 64]);
        assert_eq!(parse_pools(" 8 , x, 0, 3 "), vec![8, 3]);
        assert!(parse_pools("").is_empty());
    }

    #[test]
    fn hetero_cell_carries_the_pool() {
        let cell = hetero_cell(32);
        assert_eq!(cell.crowd.workers.pool, 32);
        assert_eq!(cell.crowd.workers.model, WorkerModel::Heterogeneous);
    }
}
