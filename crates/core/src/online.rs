//! The online query-evaluation phase (Table 1c).
//!
//! For each object in the queried data table, execute the plan: ask
//! `b(a)` value questions per selected attribute, spam-filter and average
//! the answers, and assemble each query attribute's estimate through its
//! regression. [`evaluate_query`] then applies the query's predicates on
//! the estimates and returns the qualifying rows.

use crate::{DisqError, EvaluationPlan};
use disq_crowd::{filter_spam_into, ValueSource, WorkerId, WorkerLedger};
use disq_domain::{AttributeKind, ObjectId, Query};
use disq_trace::{Counter, TraceEvent};

/// Reusable working buffers for the per-object estimation kernel.
///
/// One scratch serves any number of [`estimate_objects_into`] calls;
/// after the first object has grown the buffers to the plan's batch
/// sizes, the per-object inner loop performs **zero heap allocations** —
/// the property that makes the million-object online phase scale
/// linearly (enforced by the facade test `warm_estimation_allocates_nothing`).
#[derive(Debug, Default)]
pub struct EstimateScratch {
    answers: Vec<f64>,
    kept: Vec<f64>,
    medians: Vec<f64>,
    averages: Vec<f64>,
    /// Worker id per raw answer, parallel to `answers`.
    workers: Vec<WorkerId>,
}

impl EstimateScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One answer batch as the estimator saw it: the raw/kept counts, the
/// average actually fed into the regressions, and the within-batch
/// sample variance (the realized counterpart of the trio's `S_c`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStat {
    /// Object the batch was asked about.
    pub object: u64,
    /// Raw answers asked.
    pub answers: u32,
    /// Answers that survived the spam filter.
    pub kept: u32,
    /// Mean of the answers actually averaged (kept, or raw on fallback).
    pub mean: f64,
    /// Sample variance of those answers (NaN when fewer than 2).
    pub var: f64,
    /// True when the filter rejected the whole batch and the estimator
    /// fell back to the raw answers.
    pub fallback: bool,
}

/// Per-plan-attribute answer-stream ledger filled by
/// [`estimate_objects_into`] when it is given one: everything the
/// explain/drift layer needs to attribute realized error, retained at
/// batch granularity. All retention happens in this side structure — the
/// questions and the arithmetic are the same with or without it, so
/// audited runs produce bit-identical estimates.
#[derive(Debug, Default)]
pub struct OnlineAudit {
    /// `batches[i]` are the batches of plan attribute `i`, in object
    /// order.
    batches: Vec<Vec<BatchStat>>,
    /// Per-worker answer / rejection / residual tallies across every
    /// batch of the run (the provenance side of the ledger).
    workers: WorkerLedger,
}

impl OnlineAudit {
    /// An audit sized for `plan`, with capacity for `objects` batches
    /// per attribute.
    pub fn for_plan(plan: &EvaluationPlan, objects: usize) -> Self {
        OnlineAudit {
            batches: plan
                .attributes
                .iter()
                .map(|_| Vec::with_capacity(objects))
                .collect(),
            workers: WorkerLedger::new(),
        }
    }

    /// The recorded batches of plan attribute `i`, in object order.
    pub fn batches(&self, i: usize) -> &[BatchStat] {
        &self.batches[i]
    }

    /// Number of plan attributes tracked.
    pub fn attr_count(&self) -> usize {
        self.batches.len()
    }

    /// Per-worker tallies accumulated across all audited batches.
    pub fn workers(&self) -> &WorkerLedger {
        &self.workers
    }
}

/// The online sweep: appends the estimates of every plan target for each
/// of `objects` to `out`, row-major (`out[i * plan.regressions.len() + t]`
/// is target `t` of `objects[i]`).
///
/// With a warm `scratch` and pre-reserved `out` the whole sweep allocates
/// nothing — this is the entry point the scale benchmarks drive at
/// n = 10⁶. Given an `audit`, every answer batch's statistics and worker
/// tallies are also retained there for post-hoc error attribution; that
/// retention allocates per batch by design, so callers gate it on tracing
/// being active. The questions asked and the estimates are the same
/// either way.
pub fn estimate_objects_into<P: ValueSource>(
    platform: &mut P,
    plan: &EvaluationPlan,
    objects: &[ObjectId],
    scratch: &mut EstimateScratch,
    out: &mut Vec<f64>,
    mut audit: Option<&mut OnlineAudit>,
) -> Result<(), DisqError> {
    let _span = disq_trace::span!("estimate_objects", "objects={}", objects.len());
    out.reserve(objects.len() * plan.regressions.len());
    for &o in objects {
        estimate_object_into(platform, plan, o, scratch, out, audit.as_deref_mut())?;
    }
    Ok(())
}

/// Estimation kernel: appends `plan.regressions.len()` estimates for
/// `object` to `out`, reusing `scratch` across calls. Allocation-free
/// once the scratch buffers are warm and `out` has capacity, unless
/// `audit` retains the batches.
fn estimate_object_into<P: ValueSource>(
    platform: &mut P,
    plan: &EvaluationPlan,
    object: ObjectId,
    scratch: &mut EstimateScratch,
    out: &mut Vec<f64>,
    mut audit: Option<&mut OnlineAudit>,
) -> Result<(), DisqError> {
    let _span = disq_trace::span!("object", "o={}", object.0);
    scratch.averages.clear();
    for (i, p) in plan.attributes.iter().enumerate() {
        scratch.answers.clear();
        scratch.workers.clear();
        platform.ask_values_attributed(
            object,
            p.attr,
            p.questions as usize,
            &mut scratch.answers,
            &mut scratch.workers,
        )?;
        let stats = filter_spam_into(&scratch.answers, &mut scratch.medians, &mut scratch.kept);
        let dropped = scratch.answers.len() - scratch.kept.len();
        if dropped > 0 {
            disq_trace::count_n(Counter::SpamAnswersDropped, dropped as u64);
            disq_trace::emit(|| TraceEvent::SpamDecision {
                object: object.0 as u64,
                attr: p.attr.0 as u32,
                answers: scratch.answers.len() as u32,
                kept: scratch.kept.len() as u32,
                median: stats.median,
                mad: stats.mad,
            });
        }
        let fallback = scratch.kept.is_empty();
        let used = if fallback {
            // The filter rejected every answer; fall back to the raw set
            // rather than dividing by zero. This used to happen silently
            // — now each occurrence is counted and traceable.
            disq_trace::count(Counter::SpamFallbacks);
            disq_trace::emit(|| TraceEvent::SpamFallback {
                object: object.0 as u64,
                attr: p.attr.0 as u32,
                answers: scratch.answers.len() as u32,
            });
            &scratch.answers
        } else {
            &scratch.kept
        };
        let mean = used.iter().sum::<f64>() / used.len() as f64;
        scratch.averages.push(mean);
        if let Some(audit) = audit.as_deref_mut() {
            let var = if used.len() >= 2 {
                used.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / (used.len() - 1) as f64
            } else {
                f64::NAN
            };
            audit.batches[i].push(BatchStat {
                object: object.0 as u64,
                answers: scratch.answers.len() as u32,
                kept: scratch.kept.len() as u32,
                mean,
                var,
                fallback,
            });
            // Attribute every raw answer to its worker: the filter's
            // verdict (replayed via `SpamStats::keeps`) feeds the
            // accept/reject tallies, and kept answers of well-formed
            // batches contribute a standardized residual — the
            // scale-free signal the worker scorecards estimate quality
            // from.
            let n = scratch.answers.len();
            let numeric = p.kind == AttributeKind::Numeric;
            let residuals_ok = !fallback && used.len() >= 3 && var.is_finite() && var > 0.0;
            let sd = var.sqrt();
            for (&x, &w) in scratch.answers.iter().zip(&scratch.workers) {
                let kept_ans = !fallback && stats.keeps(n, x);
                audit.workers.record_answer(w, numeric, !kept_ans);
                if residuals_ok && kept_ans {
                    audit.workers.record_residual(w, (x - mean) / sd);
                }
            }
        }
    }
    for t in 0..plan.regressions.len() {
        out.push(plan.predict(t, &scratch.averages));
    }
    Ok(())
}

/// A row of a query result: the object and its estimated values for the
/// query's projection list.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// The qualifying object.
    pub object: ObjectId,
    /// Estimates for `query.select`, in order.
    pub values: Vec<f64>,
}

/// Result of evaluating a query over a set of objects.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Rows whose estimated attribute values satisfy every predicate.
    pub rows: Vec<ResultRow>,
    /// Number of objects scanned.
    pub scanned: usize,
}

/// Evaluates a `select … where …` query: estimates `A(Q)` per object from
/// the plan, filters on the predicates, projects the selection.
///
/// The plan must contain a regression for every attribute the query
/// mentions.
pub fn evaluate_query<P: ValueSource>(
    platform: &mut P,
    plan: &EvaluationPlan,
    query: &Query,
    objects: &[ObjectId],
) -> Result<QueryResult, DisqError> {
    let _span = disq_trace::span!("evaluate_query", "objects={}", objects.len());
    // Resolve every query attribute to its regression index *before* the
    // object loop — the loop then indexes directly instead of running a
    // linear attribute search per predicate per object.
    let resolve = |a| {
        plan.regressions
            .iter()
            .position(|r| r.target == a)
            .ok_or_else(|| {
                DisqError::Config(format!("plan has no regression for query attribute {a}"))
            })
    };
    let pred_idx: Vec<usize> = query
        .predicates
        .iter()
        .map(|p| resolve(p.attr))
        .collect::<Result<_, _>>()?;
    let select_idx: Vec<usize> = query
        .select
        .iter()
        .map(|&a| resolve(a))
        .collect::<Result<_, _>>()?;

    let mut rows = Vec::new();
    let mut scratch = EstimateScratch::new();
    let mut estimates = Vec::with_capacity(plan.regressions.len());
    for &o in objects {
        estimates.clear();
        estimate_object_into(platform, plan, o, &mut scratch, &mut estimates, None)?;
        let passes = query
            .predicates
            .iter()
            .zip(&pred_idx)
            .all(|(p, &i)| p.matches(estimates[i]));
        if passes {
            rows.push(ResultRow {
                object: o,
                values: select_idx.iter().map(|&i| estimates[i]).collect(),
            });
        }
    }
    Ok(QueryResult {
        rows,
        scanned: objects.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvaluationPlan, PlannedAttribute, TargetRegression};
    use disq_crowd::{CrowdConfig, CrowdPlatform, PricingModel, SimulatedCrowd};
    use disq_domain::{domains::pictures, AttributeKind, Population};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn crowd() -> SimulatedCrowd {
        let spec = Arc::new(pictures::spec());
        let mut rng = StdRng::seed_from_u64(0);
        let pop = Population::sample(spec, 500, &mut rng).unwrap();
        SimulatedCrowd::new(pop, CrowdConfig::default(), None, 23)
    }

    /// A hand-built plan: estimate Bmi directly from 8 Bmi answers.
    fn direct_bmi_plan(spec: &disq_domain::DomainSpec) -> EvaluationPlan {
        let bmi = spec.id_of("Bmi").unwrap();
        EvaluationPlan {
            attributes: vec![PlannedAttribute {
                attr: bmi,
                label: "Bmi".into(),
                kind: AttributeKind::Numeric,
                questions: 8,
            }],
            regressions: vec![TargetRegression {
                target: bmi,
                label: "Bmi".into(),
                intercept: 0.0,
                coefficients: vec![1.0],
                training_mse: 0.0,
            }],
        }
    }

    /// One sweep over `objects` with a fresh scratch, unaudited.
    fn sweep(c: &mut SimulatedCrowd, plan: &EvaluationPlan, objects: &[ObjectId]) -> Vec<f64> {
        let mut out = Vec::new();
        estimate_objects_into(
            c,
            plan,
            objects,
            &mut EstimateScratch::new(),
            &mut out,
            None,
        )
        .unwrap();
        out
    }

    #[test]
    fn estimates_track_truth() {
        let mut c = crowd();
        let spec = Arc::new(pictures::spec());
        let plan = direct_bmi_plan(&spec);
        let bmi = spec.id_of("Bmi").unwrap();
        let objects: Vec<ObjectId> = (0..50).map(ObjectId).collect();
        let est = sweep(&mut c, &plan, &objects);
        // With 8 answers of sd √30, the estimate's sd ≈ 1.94; check the
        // average absolute error is in that ballpark.
        let mae: f64 = objects
            .iter()
            .zip(&est)
            .map(|(&o, e)| (e - c.population().value(o, bmi)).abs())
            .sum::<f64>()
            / 50.0;
        assert!(mae < 4.0, "mae {mae}");
        assert!(mae > 0.2, "suspiciously perfect: mae {mae}");
    }

    #[test]
    fn per_object_cost_matches_plan() {
        let mut c = crowd();
        let spec = Arc::new(pictures::spec());
        let plan = direct_bmi_plan(&spec);
        let before = c.ledger().spent();
        sweep(&mut c, &plan, &[ObjectId(0)]);
        let cost = c.ledger().spent() - before;
        assert_eq!(cost, plan.cost_per_object(&PricingModel::paper()));
    }

    #[test]
    fn query_filters_on_estimates() {
        let mut c = crowd();
        let spec = Arc::new(pictures::spec());
        let plan = direct_bmi_plan(&spec);
        let q = Query::parse("select bmi where bmi >= 25", spec.registry()).unwrap();
        let objects: Vec<ObjectId> = (0..80).map(ObjectId).collect();
        let result = evaluate_query(&mut c, &plan, &q, &objects).unwrap();
        assert_eq!(result.scanned, 80);
        assert!(!result.rows.is_empty());
        assert!(result.rows.len() < 80);
        for row in &result.rows {
            assert!(row.values[0] >= 25.0);
        }
    }

    #[test]
    fn query_result_mostly_correct() {
        // Selection accuracy: estimated >= 25 should usually match truth.
        let mut c = crowd();
        let spec = Arc::new(pictures::spec());
        let plan = direct_bmi_plan(&spec);
        let bmi = spec.id_of("Bmi").unwrap();
        let q = Query::parse("select bmi where bmi >= 25", spec.registry()).unwrap();
        let objects: Vec<ObjectId> = (0..200).map(ObjectId).collect();
        let result = evaluate_query(&mut c, &plan, &q, &objects).unwrap();
        let correct = result
            .rows
            .iter()
            .filter(|r| c.population().value(r.object, bmi) >= 25.0)
            .count();
        let precision = correct as f64 / result.rows.len().max(1) as f64;
        // The exact value is seed-sensitive (the vendored `rand` shim's
        // stream differs from upstream); anything well above chance with
        // sd-√30 answers demonstrates the selection logic works.
        assert!(precision > 0.70, "precision {precision}");
    }

    #[test]
    fn scratch_reuse_matches_fresh_per_object_calls() {
        // One warm sweep across many objects must produce the same
        // estimates as a fresh sweep per object (identically-seeded
        // crowds): buffer reuse is invisible.
        let spec = Arc::new(pictures::spec());
        let plan = direct_bmi_plan(&spec);
        let objects: Vec<ObjectId> = (0..30).map(ObjectId).collect();
        let warm = sweep(&mut crowd(), &plan, &objects);
        let mut fresh_crowd = crowd();
        let fresh: Vec<f64> = objects
            .iter()
            .flat_map(|&o| sweep(&mut fresh_crowd, &plan, &[o]))
            .collect();
        assert_eq!(warm, fresh);
    }

    #[test]
    fn select_only_query_returns_the_sweep_in_query_order() {
        // Two targets, each estimated from its own answers: a query
        // selecting them in reverse plan order gets every object, in
        // object order, with the sweep's estimates swapped.
        let spec = Arc::new(pictures::spec());
        let mut plan = direct_bmi_plan(&spec);
        let age = spec.id_of("Age").unwrap();
        plan.attributes.push(PlannedAttribute {
            attr: age,
            label: "Age".into(),
            kind: AttributeKind::Numeric,
            questions: 3,
        });
        plan.regressions[0].coefficients.push(0.0);
        plan.regressions.push(TargetRegression {
            target: age,
            label: "Age".into(),
            intercept: 0.0,
            coefficients: vec![0.0, 1.0],
            training_mse: 0.0,
        });
        let objects: Vec<ObjectId> = (0..20).map(ObjectId).collect();
        let flat = sweep(&mut crowd(), &plan, &objects);
        let q = Query::parse("select age, bmi", spec.registry()).unwrap();
        let result = evaluate_query(&mut crowd(), &plan, &q, &objects).unwrap();
        assert_eq!(result.rows.len(), objects.len());
        for (i, row) in result.rows.iter().enumerate() {
            assert_eq!(row.object, objects[i]);
            assert_eq!(row.values, [flat[2 * i + 1], flat[2 * i]]);
        }
    }

    #[test]
    fn audited_estimates_are_bit_identical_and_ledger_is_complete() {
        let spec = Arc::new(pictures::spec());
        let plan = direct_bmi_plan(&spec);
        let objects: Vec<ObjectId> = (0..25).map(ObjectId).collect();
        let plain = sweep(&mut crowd(), &plan, &objects);
        let mut audit = OnlineAudit::for_plan(&plan, objects.len());
        let mut audited = Vec::new();
        let mut scratch = EstimateScratch::new();
        estimate_objects_into(
            &mut crowd(),
            &plan,
            &objects,
            &mut scratch,
            &mut audited,
            Some(&mut audit),
        )
        .unwrap();
        // Same seeds, same question sequence: estimates must be
        // bit-identical, not merely close.
        assert_eq!(plain, audited);
        assert_eq!(audit.attr_count(), 1);
        let batches = audit.batches(0);
        assert_eq!(batches.len(), objects.len());
        for (i, b) in batches.iter().enumerate() {
            assert_eq!(b.object, i as u64);
            assert_eq!(b.answers, 8);
            assert!(b.kept >= 1 && b.kept <= 8);
            assert!(b.var.is_finite() && b.var > 0.0, "8 noisy answers");
            assert!(!b.fallback);
        }
        // The recorded means are exactly what the regressions consumed:
        // for this identity plan the estimate IS the batch mean.
        for (b, &estimate) in batches.iter().zip(&audited) {
            assert_eq!(b.mean, estimate);
        }
        // Worker provenance: every raw answer was attributed to a real
        // member of the (default 16-worker) pool, and residual tallies
        // only cover kept answers.
        let workers = audit.workers();
        assert!(!workers.is_empty());
        let total: u64 = workers.iter().map(|(_, t)| t.answers()).sum();
        assert_eq!(total, 8 * objects.len() as u64);
        let rejected: u64 = workers.iter().map(|(_, t)| t.rejected).sum();
        let kept_total: u64 = batches.iter().map(|b| b.kept as u64).sum();
        assert_eq!(rejected, total - kept_total);
        let residuals: u64 = workers.iter().map(|(_, t)| t.residual_n).sum();
        assert_eq!(residuals, kept_total, "all batches here are well-formed");
        for (w, t) in workers.iter() {
            assert!(w.0 < 16, "worker {w:?} outside default pool");
            assert!(t.numeric_answers > 0 || t.binary_answers > 0);
        }
    }

    #[test]
    fn unplanned_query_attribute_rejected() {
        let mut c = crowd();
        let spec = Arc::new(pictures::spec());
        let plan = direct_bmi_plan(&spec);
        let q = Query::parse("select age", spec.registry()).unwrap();
        let err = evaluate_query(&mut c, &plan, &q, &[ObjectId(0)]).unwrap_err();
        assert!(matches!(err, DisqError::Config(_)));
    }

    #[test]
    fn empty_object_list() {
        let mut c = crowd();
        let spec = Arc::new(pictures::spec());
        let plan = direct_bmi_plan(&spec);
        let q = Query::parse("select bmi", spec.registry()).unwrap();
        let result = evaluate_query(&mut c, &plan, &q, &[]).unwrap();
        assert!(result.rows.is_empty());
        assert_eq!(result.scanned, 0);
    }
}
