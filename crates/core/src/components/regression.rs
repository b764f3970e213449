//! `FindRegression`: assemble the training set and fit the plan's
//! regressions (§3.1 "Learning a Linear Regression", Table 1b).
//!
//! For each query attribute the training set holds `N₂ = 50 + 8·#active`
//! examples whose predictors are the *averaged answers under the final
//! budget distribution* — the regression must be learned on data shaped
//! exactly like the online phase will produce. Cost is kept down by
//! reusing the `E_B` statistics examples: their first `k` recorded answers
//! count toward the `b(a)` needed, so only `b(a) − k` fresh questions are
//! asked per reused cell.
//!
//! If the budget runs dry mid-collection the fit proceeds on the rows
//! gathered so far (as long as the system stays overdetermined) — a
//! deliberate graceful degradation so tight-budget runs produce a usable,
//! if noisier, plan.
//!
//! One call aggregates all its rows in one reused buffer set and stores
//! each target's rows flat, so a row costs no heap block of its own.

use crate::components::statistics::StatisticsCollector;
use crate::{
    AttributePool, DisqConfig, DisqError, EvaluationPlan, PlannedAttribute, TargetRegression,
};
use disq_crowd::{filter_spam_into, CrowdError, CrowdPlatform, WorkerId};
use disq_math::{lstsq_svd, Matrix};
use disq_stats::mean;
use disq_trace::{Counter, TraceEvent};

/// Learns the per-target regressions for a computed budget distribution
/// `b` (per pool attribute) and assembles the final [`EvaluationPlan`].
/// `spend_leftover = true` additionally converts whatever budget remains
/// above the reserve into extra training rows (see below); pass `false`
/// when a caller wants to compare candidate plans before committing the
/// surplus to the winner.
pub fn learn_regressions<P: CrowdPlatform>(
    platform: &mut P,
    collector: &StatisticsCollector,
    pool: &AttributePool,
    b: &[u32],
    config: &DisqConfig,
    spend_leftover: bool,
) -> Result<EvaluationPlan, DisqError> {
    assert_eq!(b.len(), pool.len(), "budget arity mismatch");
    let active: Vec<usize> = (0..pool.len()).filter(|&i| b[i] > 0).collect();
    let n_targets = collector.n_targets();
    let n2 = config.n2(active.len());
    let _span = disq_trace::span!(
        "regression",
        "active={} n2={n2} spend_leftover={spend_leftover}",
        active.len()
    );

    // Collect training rows per target; a budget exhaustion anywhere stops
    // all further collection but keeps completed rows.
    let mut rows: Vec<Rows> = (0..n_targets)
        .map(|_| Rows::with_capacity(n2, active.len()))
        .collect();
    let mut gatherer = RowGatherer {
        collector,
        pool,
        active: &active,
        b,
        answers: Vec::new(),
        workers: Vec::new(),
        scratch: Vec::new(),
        kept: Vec::new(),
    };
    let mut exhausted = false;

    'targets: for (t, rows) in rows.iter_mut().enumerate() {
        // Reuse E_B examples of this target first.
        for (e_idx, ex) in collector.examples().iter().enumerate() {
            if ex.target_idx != t || rows.len() >= n2 {
                continue;
            }
            match gatherer.build_row(platform, Some(e_idx), ex.object, ex.target_value, rows) {
                Ok(()) => {}
                Err(DisqError::Crowd(CrowdError::BudgetExhausted { .. })) => {
                    exhausted = true;
                    break 'targets;
                }
                Err(e) => return Err(e),
            }
        }
        // Fresh examples for the remainder.
        while rows.len() < n2 {
            if !gatherer.fresh_row(platform, t, rows)? {
                exhausted = true;
                break 'targets;
            }
        }
    }

    // The N₂ rule is a *lower bound* (Green [16]); whatever preprocessing
    // budget is left after the reserve was honoured buys extra training
    // rows round-robin across targets — directly converting surplus
    // `B_prc` into coefficient accuracy. Only meaningful under a capped
    // ledger (otherwise "leftover" is unbounded).
    if spend_leftover && !exhausted && !active.is_empty() && platform.ledger().cap().is_some() {
        let max_rows = n2 * 6;
        'extra: loop {
            let mut progressed = false;
            for (t, rows) in rows.iter_mut().enumerate() {
                if rows.len() >= max_rows {
                    continue;
                }
                if !gatherer.fresh_row(platform, t, rows)? {
                    break 'extra;
                }
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    // Fit one regression per target.
    let mut regressions = Vec::with_capacity(n_targets);
    for (t, data) in rows.iter_mut().enumerate() {
        let _fit_span = disq_trace::span!("regression_fit", "t={t}");
        let target_attr = collector.targets()[t];
        let label = pool
            .iter()
            .find(|d| d.is_query_attr && d.attr == target_attr)
            .map(|d| d.label.clone())
            .unwrap_or_else(|| format!("{target_attr}"));
        let n_rows = data.len();
        let enough = n_rows >= active.len() + 2;
        let regression = if active.is_empty() || !enough {
            // Degenerate (no budget / starved rows): predict the example
            // mean of the target.
            if !enough && !active.is_empty() && !exhausted {
                return Err(DisqError::BudgetTooSmall {
                    detail: format!(
                        "only {} training rows for target {} (need {})",
                        n_rows,
                        label,
                        active.len() + 2
                    ),
                });
            }
            let values: Vec<f64> = collector
                .examples()
                .iter()
                .filter(|e| e.target_idx == t)
                .map(|e| e.target_value)
                .collect();
            TargetRegression {
                target: target_attr,
                label,
                intercept: mean(&values),
                coefficients: vec![0.0; active.len()],
                training_mse: f64::NAN,
            }
        } else {
            let x = Matrix::from_vec(n_rows, active.len(), std::mem::take(&mut data.x));
            let fit = lstsq_svd(&x, &data.y, config.regression_tol)?;
            TargetRegression {
                target: target_attr,
                label,
                intercept: fit.intercept,
                coefficients: fit.coefficients,
                training_mse: fit.training_mse,
            }
        };
        disq_trace::count(Counter::RegressionFits);
        disq_trace::emit(|| TraceEvent::RegressionFit {
            target: regression.target.0 as u32,
            label: regression.label.clone(),
            training_mse: regression.training_mse,
            rows: n_rows as u32,
        });
        regressions.push(regression);
    }

    let attributes = active
        .iter()
        .map(|&i| {
            let d = pool.get(i);
            PlannedAttribute {
                attr: d.attr,
                label: d.label.clone(),
                kind: d.kind,
                questions: b[i],
            }
        })
        .collect();

    Ok(EvaluationPlan {
        attributes,
        regressions,
    })
}

/// One target's training rows, flat: row `r`'s predictors (one average
/// per active attribute) are `x[r·p..(r+1)·p]` and its true target value
/// is `y[r]`.
struct Rows {
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Rows {
    fn with_capacity(rows: usize, width: usize) -> Self {
        Rows {
            x: Vec::with_capacity(rows * width),
            y: Vec::with_capacity(rows),
        }
    }

    fn len(&self) -> usize {
        self.y.len()
    }
}

/// What one `learn_regressions` call reads while it gathers training
/// rows, and the one buffer set every row is aggregated in.
struct RowGatherer<'a> {
    collector: &'a StatisticsCollector,
    pool: &'a AttributePool,
    active: &'a [usize],
    b: &'a [u32],
    answers: Vec<f64>,
    workers: Vec<WorkerId>,
    scratch: Vec<f64>,
    kept: Vec<f64>,
}

impl RowGatherer<'_> {
    /// Collects one fresh training row for target `t` into `rows`: an
    /// example question plus `b(a)` value questions per active attribute.
    /// Returns `Ok(false)`, with `rows` unchanged, when the budget is
    /// exhausted.
    fn fresh_row<P: CrowdPlatform>(
        &mut self,
        platform: &mut P,
        t: usize,
        rows: &mut Rows,
    ) -> Result<bool, DisqError> {
        let (object, values) = match platform.ask_example(&[self.collector.targets()[t]]) {
            Ok(r) => r,
            Err(CrowdError::BudgetExhausted { .. }) => return Ok(false),
            Err(e) => return Err(e.into()),
        };
        match self.build_row(platform, None, object, values[0], rows) {
            Ok(()) => Ok(true),
            Err(DisqError::Crowd(CrowdError::BudgetExhausted { .. })) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Appends one training row to `rows`: for every active attribute,
    /// the average of exactly `b(a)` answers — recorded ones first (when
    /// `e_idx` references an `E_B` example), fresh value questions for
    /// the rest — and then the true value `y`. On an error `rows` is left
    /// as it was.
    fn build_row<P: CrowdPlatform>(
        &mut self,
        platform: &mut P,
        e_idx: Option<usize>,
        object: disq_domain::ObjectId,
        y: f64,
        rows: &mut Rows,
    ) -> Result<(), DisqError> {
        let start = rows.x.len();
        for &a in self.active {
            let need = self.b[a] as usize;
            self.answers.clear();
            if let Some(recorded) = e_idx.and_then(|e| self.collector.answers(a, e)) {
                self.answers.extend(recorded.iter().take(need));
            }
            let missing = need - self.answers.len();
            if missing > 0 {
                self.workers.clear();
                let attr = self.pool.get(a).attr;
                if let Err(e) = platform.ask_values_attributed(
                    object,
                    attr,
                    missing,
                    &mut self.answers,
                    &mut self.workers,
                ) {
                    rows.x.truncate(start);
                    return Err(e.into());
                }
            }
            // Aggregate exactly as the online phase will (spam filter, then
            // average) — any train/serve mismatch here biases the learned
            // coefficients.
            filter_spam_into(&self.answers, &mut self.scratch, &mut self.kept);
            let used = if self.kept.is_empty() {
                &self.answers
            } else {
                &self.kept
            };
            rows.x.push(used.iter().sum::<f64>() / used.len() as f64);
        }
        rows.y.push(y);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Unification;
    use disq_crowd::{CrowdConfig, Money, QuestionKind, SimulatedCrowd};
    use disq_domain::{domains::pictures, Population};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn crowd(cap: Option<Money>) -> SimulatedCrowd {
        let spec = Arc::new(pictures::spec());
        let mut rng = StdRng::seed_from_u64(0);
        let pop = Population::sample(spec, 3_000, &mut rng).unwrap();
        SimulatedCrowd::new(pop, CrowdConfig::default(), cap, 17)
    }

    /// Sets up Bmi (target) + Weight + Heavy with stats collected.
    fn setup(c: &mut SimulatedCrowd, n1: usize) -> (AttributePool, StatisticsCollector) {
        let spec = pictures::spec();
        let bmi = spec.id_of("Bmi").unwrap();
        let weight = spec.id_of("Weight").unwrap();
        let heavy = spec.id_of("Heavy").unwrap();
        let mut pool = AttributePool::new(&spec, &[bmi], Unification::Merge);
        for name in ["Weight", "Heavy"] {
            if let crate::Resolution::New(d) = pool.resolve(name, &spec) {
                pool.insert(d);
            }
        }
        let mut coll = StatisticsCollector::collect_examples(c, &[bmi], n1).unwrap();
        for attr in [bmi, weight, heavy] {
            coll.add_attribute(c, attr, vec![true], 2).unwrap();
        }
        (pool, coll)
    }

    #[test]
    fn learns_a_useful_plan() {
        let mut c = crowd(None);
        let (pool, coll) = setup(&mut c, 120);
        let config = DisqConfig::default();
        let b = vec![3u32, 2, 6];
        let plan = learn_regressions(&mut c, &coll, &pool, &b, &config, true).unwrap();
        assert_eq!(plan.attributes.len(), 3);
        assert_eq!(plan.regressions.len(), 1);
        assert_eq!(plan.questions_per_object(), 11);
        let r = &plan.regressions[0];
        assert_eq!(r.label, "Bmi");
        // Training MSE must beat the raw target variance (~20) clearly.
        assert!(r.training_mse < 15.0, "mse {}", r.training_mse);
        // Formula renders.
        assert!(plan.formula(0).contains("Bmi"));
    }

    #[test]
    fn zero_budget_attr_excluded_from_plan() {
        let mut c = crowd(None);
        let (pool, coll) = setup(&mut c, 80);
        let config = DisqConfig::default();
        let b = vec![3u32, 0, 6];
        let plan = learn_regressions(&mut c, &coll, &pool, &b, &config, true).unwrap();
        assert_eq!(plan.attributes.len(), 2);
        assert!(plan.attributes.iter().all(|p| p.label != "Weight"));
        assert_eq!(plan.regressions[0].coefficients.len(), 2);
    }

    #[test]
    fn all_zero_budget_gives_mean_predictor() {
        let mut c = crowd(None);
        let (pool, coll) = setup(&mut c, 60);
        let config = DisqConfig::default();
        let plan = learn_regressions(&mut c, &coll, &pool, &[0, 0, 0], &config, true).unwrap();
        assert!(plan.attributes.is_empty());
        let r = &plan.regressions[0];
        // Intercept near the Bmi mean of 25.
        assert!(
            (r.intercept - 25.0).abs() < 3.0,
            "intercept {}",
            r.intercept
        );
        assert_eq!(plan.predict(0, &[]), r.intercept);
    }

    #[test]
    fn reuse_reduces_fresh_questions() {
        // With b(a) = 2 = k, reused examples need zero fresh value
        // questions; only the extra (n2 - n1) examples cost anything.
        let mut c = crowd(None);
        let (pool, coll) = setup(&mut c, 200);
        let before_vq = c.ledger().count(QuestionKind::NumericValue)
            + c.ledger().count(QuestionKind::BinaryValue);
        let config = DisqConfig::default();
        // n2 = 50 + 8*3 = 74 < 200 reusable examples → all rows reused.
        let b = vec![2u32, 2, 2];
        let _ = learn_regressions(&mut c, &coll, &pool, &b, &config, true).unwrap();
        let after_vq = c.ledger().count(QuestionKind::NumericValue)
            + c.ledger().count(QuestionKind::BinaryValue);
        assert_eq!(after_vq, before_vq, "no fresh value questions expected");
    }

    #[test]
    fn fresh_examples_collected_when_n1_small() {
        let mut c = crowd(None);
        let (pool, coll) = setup(&mut c, 40);
        let before = c.ledger().count(QuestionKind::Example);
        let config = DisqConfig::default();
        let b = vec![2u32, 2, 2];
        let _ = learn_regressions(&mut c, &coll, &pool, &b, &config, true).unwrap();
        let after = c.ledger().count(QuestionKind::Example);
        // n2 = 74, n1 = 40 → 34 fresh examples.
        assert_eq!(after - before, 34);
    }

    #[test]
    fn budget_exhaustion_degrades_gracefully() {
        // Cap the budget so collection dies partway; the fit must still
        // succeed on the rows gathered (n1 = 80 reusable rows cost nothing
        // fresh with b = k, so row count stays sufficient).
        let mut c = crowd(None);
        let (pool, coll) = setup(&mut c, 80);
        let spent = c.ledger().spent();
        drop(c);
        // New crowd with a cap just above what setup spent: regression
        // fresh questions will hit the wall quickly.
        let mut c2 = crowd(Some(spent + Money::from_cents(30.0)));
        let (pool2, coll2) = setup(&mut c2, 80);
        let config = DisqConfig::default();
        let b = vec![4u32, 3, 8]; // needs fresh questions even on reused rows
        let plan = learn_regressions(&mut c2, &coll2, &pool2, &b, &config, true).unwrap();
        assert_eq!(plan.regressions.len(), 1);
        let _ = pool;
        let _ = coll;
    }
}
