//! Cell execution: one (domain, query, strategy, budgets) configuration,
//! offline + online, scored against ground truth.

use disq_baselines::{naive_average, run_baseline, totally_separated, Baseline};
use disq_core::{metrics, online, DisqConfig, DisqError, EvaluationPlan, PreprocessStats};
use disq_crowd::{CrowdConfig, CrowdPlatform, Money, SimulatedCrowd};
use disq_domain::{AttributeId, DomainSpec, ObjectId, Population};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Which calibrated world a cell runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainKind {
    /// Human pictures (Table 4a/5a calibration).
    Pictures,
    /// Recipes (Table 4b/5b calibration).
    Recipes,
    /// Housing (coverage gold standard).
    Housing,
    /// Laptops (coverage gold standard).
    Laptops,
    /// Synthetic domain with the given generator seed.
    Synthetic(u64),
}

impl DomainKind {
    /// Builds the domain spec.
    pub fn spec(self) -> DomainSpec {
        match self {
            DomainKind::Pictures => disq_domain::domains::pictures::spec(),
            DomainKind::Recipes => disq_domain::domains::recipes::spec(),
            DomainKind::Housing => disq_domain::domains::housing::spec(),
            DomainKind::Laptops => disq_domain::domains::laptops::spec(),
            DomainKind::Synthetic(seed) => disq_domain::domains::synthetic::spec(
                &disq_domain::domains::synthetic::SyntheticConfig::default(),
                seed,
            ),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DomainKind::Pictures => "pictures",
            DomainKind::Recipes => "recipes",
            DomainKind::Housing => "housing",
            DomainKind::Laptops => "laptops",
            DomainKind::Synthetic(_) => "synthetic",
        }
    }
}

/// Strategy under test: a named baseline or the per-target split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// One of the shared-driver strategies.
    Baseline(Baseline),
    /// The `TotallySeparated` multi-target baseline.
    TotallySeparated,
}

impl StrategyKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Baseline(b) => b.name(),
            StrategyKind::TotallySeparated => "TotallySeparated",
        }
    }
}

/// One experimental configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    /// World to run in.
    pub domain: DomainKind,
    /// Query attribute names.
    pub targets: Vec<&'static str>,
    /// Strategy under test.
    pub strategy: StrategyKind,
    /// Offline preprocessing budget `B_prc`.
    pub b_prc: Money,
    /// Online per-object budget `B_obj`.
    pub b_obj: Money,
    /// Crowd behaviour (junk/synonym/spam rates; price sheet).
    pub crowd: CrowdConfig,
    /// Algorithm configuration (the robustness sweeps tweak this).
    pub config: DisqConfig,
}

impl Cell {
    /// A cell with default crowd and algorithm configurations.
    pub fn new(
        domain: DomainKind,
        targets: &[&'static str],
        strategy: StrategyKind,
        b_prc: Money,
        b_obj: Money,
    ) -> Self {
        Cell {
            domain,
            targets: targets.to_vec(),
            strategy,
            b_prc,
            b_obj,
            crowd: CrowdConfig::default(),
            config: DisqConfig::default(),
        }
    }
}

/// Everything one repetition produces.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Weighted query error on the held-out evaluation objects.
    pub error: f64,
    /// Offline money actually spent.
    pub offline_spent: Money,
    /// The plan that was executed.
    pub plan: EvaluationPlan,
    /// Driver diagnostics when the preprocessing driver ran.
    pub stats: Option<PreprocessStats>,
}

/// Objects evaluated online per repetition.
pub const EVAL_OBJECTS: usize = 150;
/// Population size backing each repetition.
pub const POPULATION: usize = 2_000;

/// Ground-truth evaluation weights: the paper's `ω_t = 1/Var(a_t)` with
/// the *domain's* variance (stable across repetitions and strategies).
pub fn eval_weights(spec: &DomainSpec, targets: &[AttributeId]) -> Vec<f64> {
    targets
        .iter()
        .map(|&a| {
            let sd = spec.attr(a).sd;
            1.0 / (sd * sd).max(1e-9)
        })
        .collect()
}

/// Seed of the `(rep)`-th sampled world. The seed is a pure function of
/// the repetition — never of the strategy or budgets — so that every
/// strategy of a repetition faces statistically identical objects, and so
/// that a cached world is interchangeable with a freshly sampled one.
pub fn world_seed(rep: u64) -> u64 {
    rep.wrapping_mul(0x9E37_79B9).wrapping_add(17)
}

/// Samples the repetition's world: [`POPULATION`] objects drawn with
/// [`world_seed`]`(rep)`. The single source of truth shared by the serial
/// path and [`crate::world::WorldCache`].
pub fn sample_population(spec: &Arc<DomainSpec>, rep: u64) -> Result<Population, DisqError> {
    let mut rng = StdRng::seed_from_u64(world_seed(rep));
    Population::sample(Arc::clone(spec), POPULATION, &mut rng)
        .map_err(|e| DisqError::Config(format!("population sampling failed: {e}")))
}

/// Runs one repetition of a cell. `rep` seeds both the sampled world and
/// the crowd so that every strategy sees statistically identical settings
/// (the §5.1 record-and-reuse discipline, achieved here by seeding).
pub fn run_cell(cell: &Cell, rep: u64) -> Result<CellOutcome, DisqError> {
    let spec = Arc::new(cell.domain.spec());
    let population = sample_population(&spec, rep)?;
    run_cell_in_world(cell, rep, &spec, &population)
}

/// Runs one repetition inside an already-sampled world. `population` must
/// be the [`sample_population`] world of `(cell.domain, rep)` — the
/// parallel harness passes cached worlds here; the `Population` handle is
/// `Arc`-backed, so the clones below share storage.
pub fn run_cell_in_world(
    cell: &Cell,
    rep: u64,
    spec: &Arc<DomainSpec>,
    population: &Population,
) -> Result<CellOutcome, DisqError> {
    let _span = disq_trace::span!(
        "cell",
        "{}/{}/{} rep={rep}",
        cell.domain.name(),
        cell.targets.join("+"),
        cell.strategy.name()
    );
    let targets: Vec<AttributeId> = cell
        .targets
        .iter()
        .map(|n| {
            spec.id_of(n)
                .unwrap_or_else(|| panic!("unknown target {n}"))
        })
        .collect();
    let weights = eval_weights(spec, &targets);
    let pricing = cell.crowd.pricing;

    // ---- Offline phase ----------------------------------------------------
    let (plan, preprocess, offline_spent) = match cell.strategy {
        StrategyKind::Baseline(Baseline::NaiveAverage) => {
            let plan = naive_average(spec, &targets, cell.b_obj, &pricing, Some(&weights))?;
            (plan, None, Money::ZERO)
        }
        StrategyKind::Baseline(b) => {
            let mut platform = SimulatedCrowd::new(
                population.clone(),
                cell.crowd.clone(),
                Some(cell.b_prc),
                rep.wrapping_add(1000),
            );
            let (plan, out) = run_baseline(
                b,
                &mut platform,
                spec,
                &targets,
                cell.b_obj,
                &cell.config,
                &pricing,
                Some(weights.clone()),
                rep,
            )?;
            let spent = platform.ledger().spent();
            (plan, out, spent)
        }
        StrategyKind::TotallySeparated => {
            let mut sub = 0u64;
            let pop = population.clone();
            let crowd_cfg = cell.crowd.clone();
            let (plan, spent) = totally_separated(
                move |cap| {
                    sub += 1;
                    SimulatedCrowd::new(
                        pop.clone(),
                        crowd_cfg.clone(),
                        Some(cap),
                        rep.wrapping_add(2000 + sub),
                    )
                },
                spec,
                &targets,
                cell.b_obj,
                cell.b_prc,
                &cell.config,
                &pricing,
                rep,
            )?;
            (plan, None, spent)
        }
    };

    // ---- Online phase -----------------------------------------------------
    let mut online_crowd = SimulatedCrowd::new(
        population.clone(),
        cell.crowd.clone(),
        None,
        rep.wrapping_add(5000),
    );
    let objects: Vec<ObjectId> = (0..EVAL_OBJECTS.min(population.n_objects()))
        .map(ObjectId)
        .collect();
    // With a trace sink active (and a preprocessing output to audit
    // against), the sweep also fills an audit: same question sequence and
    // arithmetic, but every batch's statistics are retained for the
    // explain/drift ledger. Untraced runs keep the zero-allocation
    // kernel — the bit-identical contract of tests/online_alloc.rs.
    let mut audit = if disq_trace::active() && preprocess.is_some() {
        Some(online::OnlineAudit::for_plan(&plan, objects.len()))
    } else {
        None
    };
    let mut raw_estimates = Vec::new();
    online::estimate_objects_into(
        &mut online_crowd,
        &plan,
        &objects,
        &mut online::EstimateScratch::new(),
        &mut raw_estimates,
        audit.as_mut(),
    )?;

    // Reorder plan-target estimates into query-target order.
    let order: Vec<usize> = targets
        .iter()
        .map(|&t| {
            plan.regressions
                .iter()
                .position(|r| r.target == t)
                .expect("plan covers every query target")
        })
        .collect();
    let estimates: Vec<Vec<f64>> = raw_estimates
        .chunks(plan.regressions.len())
        .map(|row| order.iter().map(|&i| row[i]).collect())
        .collect();
    let truth: Vec<Vec<f64>> = objects
        .iter()
        .map(|&o| targets.iter().map(|&a| population.value(o, a)).collect())
        .collect();
    let error = metrics::query_error(&estimates, &truth, &weights);

    // ---- Audit ledger -----------------------------------------------------
    // The full error-attribution story: per-target decomposition
    // (query_audit, which `disq-insight calib` also scores),
    // per-object residuals/CIs (object_audit), and per-attribute drift
    // detection over the retained batch statistics (drift_update /
    // drift_detected). The audit exists only under an active sink with a
    // preprocessing output to audit against.
    if let (Some(out), Some(audit)) = (&preprocess, &audit) {
        let label = format!(
            "{}/{}/{}",
            cell.domain.name(),
            cell.targets.join("+"),
            cell.strategy.name()
        );
        crate::audit::emit_query_audits(
            cell, rep, &label, out, &plan, &order, &objects, population, &estimates, &truth, audit,
        );
        // Worker provenance: planted profiles and per-worker tallies.
        crate::audit::emit_worker_telemetry(
            cell,
            rep,
            &label,
            online_crowd.worker_pool(),
            audit.workers(),
        );
    }

    Ok(CellOutcome {
        error,
        offline_spent,
        plan,
        stats: preprocess.map(|o| o.stats),
    })
}

/// Mean and standard deviation of the cell error over `reps` repetitions.
/// Repetitions whose budget is infeasible (`BudgetTooSmall`) are excluded;
/// if all are infeasible the result is `None`.
pub fn run_cell_avg(cell: &Cell, reps: usize) -> Option<(f64, f64)> {
    let mut errors = Vec::with_capacity(reps);
    for rep in 0..reps {
        match run_cell(cell, rep as u64) {
            Ok(outcome) => errors.push(outcome.error),
            Err(DisqError::BudgetTooSmall { .. }) => {}
            Err(e) => panic!("cell {:?} failed: {e}", cell.strategy.name()),
        }
    }
    if errors.is_empty() {
        return None;
    }
    Some(mean_sd(&errors))
}

/// Mean and population standard deviation, matching the [`run_cell_avg`]
/// aggregation exactly (same summation order).
fn mean_sd(errors: &[f64]) -> (f64, f64) {
    let n = errors.len() as f64;
    let mean = errors.iter().sum::<f64>() / n;
    let var = errors.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// What a parallel sweep produced: per-cell aggregates plus the cache and
/// pool statistics the harness reports.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// One entry per input cell, in input order: `Some((mean, sd))` over
    /// the feasible repetitions, `None` when every repetition was
    /// infeasible — exactly what [`run_cell_avg`] returns for that cell.
    pub results: Vec<Option<(f64, f64)>>,
    /// Number of `(cell, rep)` units executed.
    pub units: usize,
    /// Worker threads used.
    pub threads: usize,
    /// World-cache lookups served from an existing slot.
    pub cache_hits: usize,
    /// World-cache lookups that had to sample a fresh population.
    pub cache_misses: usize,
}

/// Runs every `(cell, rep)` unit of a sweep across
/// [`crate::pool::configured_threads`] workers, sharing each
/// `(domain, rep)` world through a [`crate::world::WorldCache`].
///
/// Results are aggregated in deterministic `(cell, rep)` order and are
/// bit-identical to calling [`run_cell_avg`] per cell, at any thread
/// count: worlds are pure functions of `(domain, rep)`, crowds are seeded
/// per `(cell, rep)`, and the pool returns units in input order.
pub fn run_cells_parallel(cells: &[Cell], reps: usize) -> ParallelOutcome {
    run_cells_parallel_with(cells, reps, crate::pool::configured_threads())
}

/// [`run_cells_parallel`] with an explicit worker count.
pub fn run_cells_parallel_with(cells: &[Cell], reps: usize, threads: usize) -> ParallelOutcome {
    if cells.is_empty() || reps == 0 {
        return ParallelOutcome {
            results: vec![None; cells.len()],
            units: 0,
            threads,
            cache_hits: 0,
            cache_misses: 0,
        };
    }
    let cache = crate::world::WorldCache::new();
    let units = cells.len() * reps;
    let errors: Vec<Option<f64>> = crate::pool::run_indexed(units, threads, |i| {
        let cell = &cells[i / reps];
        let rep = (i % reps) as u64;
        let population = cache
            .population(cell.domain, rep)
            .unwrap_or_else(|e| panic!("world ({}, rep {rep}) failed: {e}", cell.domain.name()));
        let spec = population.spec_arc();
        match run_cell_in_world(cell, rep, &spec, &population) {
            Ok(outcome) => Some(outcome.error),
            Err(DisqError::BudgetTooSmall { .. }) => None,
            Err(e) => panic!("cell {:?} failed: {e}", cell.strategy.name()),
        }
    });
    let results = errors
        .chunks(reps)
        .map(|unit_errors| {
            let feasible: Vec<f64> = unit_errors.iter().flatten().copied().collect();
            if feasible.is_empty() {
                None
            } else {
                Some(mean_sd(&feasible))
            }
        })
        .collect();
    ParallelOutcome {
        results,
        units,
        threads,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_average_cell_runs() {
        let cell = Cell::new(
            DomainKind::Pictures,
            &["Bmi"],
            StrategyKind::Baseline(Baseline::NaiveAverage),
            Money::ZERO,
            Money::from_cents(4.0),
        );
        let out = run_cell(&cell, 0).unwrap();
        assert!(out.error.is_finite());
        assert!(out.error > 0.0);
        assert_eq!(out.offline_spent, Money::ZERO);
    }

    #[test]
    fn disq_beats_naive_on_protein() {
        // The paper's headline: for a hard attribute, dismantling wins.
        let b_obj = Money::from_cents(4.0);
        let naive = Cell::new(
            DomainKind::Recipes,
            &["Protein"],
            StrategyKind::Baseline(Baseline::NaiveAverage),
            Money::ZERO,
            b_obj,
        );
        let disq = Cell::new(
            DomainKind::Recipes,
            &["Protein"],
            StrategyKind::Baseline(Baseline::DisQ),
            Money::from_dollars(30.0),
            b_obj,
        );
        let (naive_err, _) = run_cell_avg(&naive, 3).unwrap();
        let (disq_err, _) = run_cell_avg(&disq, 3).unwrap();
        assert!(
            disq_err < naive_err,
            "DisQ {disq_err} should beat NaiveAverage {naive_err}"
        );
    }

    #[test]
    fn infeasible_budget_excluded() {
        let cell = Cell::new(
            DomainKind::Pictures,
            &["Bmi"],
            StrategyKind::Baseline(Baseline::DisQ),
            Money::from_cents(50.0), // hopeless B_prc
            Money::from_cents(4.0),
        );
        assert!(run_cell_avg(&cell, 2).is_none());
    }

    #[test]
    fn determinism_per_rep() {
        let cell = Cell::new(
            DomainKind::Pictures,
            &["Bmi"],
            StrategyKind::Baseline(Baseline::SimpleDisQ),
            Money::from_dollars(15.0),
            Money::from_cents(2.0),
        );
        let a = run_cell(&cell, 3).unwrap();
        let b = run_cell(&cell, 3).unwrap();
        assert_eq!(a.error, b.error);
    }
}
