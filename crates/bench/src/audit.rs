//! Query-level error attribution: assembles the audit ledger a traced
//! run emits after scoring a plan against ground truth.
//!
//! The runner calls [`emit_query_audits`] only when a trace sink is
//! active *and* the strategy produced a preprocessing output (so the
//! trio and budget are available) — untraced runs never reach this
//! module, preserving the bit-identical / allocation-identical hot-path
//! contract.
//!
//! The central identity is the exact per-object decomposition
//!
//! ```text
//! residual = ŷ − y = (ŷ − ỹ) + (ỹ − y) = noise_err + model_err
//! ```
//!
//! where `ỹ` is the plan regression applied to the *true* values of the
//! planned attributes. Squaring and averaging gives
//! `realized_mse = noise_mse + model_mse + cross_mse` up to float
//! rounding — the sum-check `disq-insight explain` verifies to 1e-9.
//! `noise` is the crowd's fault (answer variance through the regression
//! weights), `model` is the regression's own bias on perfect inputs,
//! and the budget-truncation term prices how much of the predicted
//! error the finite `B_obj` is responsible for.

use crate::runner::Cell;
use disq_core::online::OnlineAudit;
use disq_core::{EvaluationPlan, PreprocessOutput};
use disq_crowd::{WorkerLedger, WorkerPool};
use disq_domain::{AttributeKind, ObjectId, Population};
use disq_stats::{Cusum, Ewma};
use disq_trace::{AttrAudit, Counter, TraceEvent};

/// Two-sided 95% normal quantile for the per-object intervals.
const CI_Z: f64 = 1.959963984540054;
/// Nominal coverage of those intervals.
const CI_LEVEL: f64 = 0.95;
/// EWMA smoothing for the drift detectors' level estimate.
const DRIFT_EWMA_ALPHA: f64 = 0.1;
/// Per-attribute budget used to price the error floor: large enough
/// that `S_c/b` vanishes, so `predicted_error` degenerates to the
/// irreducible regression error at infinite answers.
const FLOOR_BUDGET: f64 = 1e12;

/// Emits the worker provenance ledger of one repetition: one
/// `worker_profile` event per pool member (the planted truth), one
/// `worker_stats` event per worker the spam-filter audit attributed
/// answers to (the observation).
pub(crate) fn emit_worker_telemetry(
    cell: &Cell,
    rep: u64,
    label: &str,
    pool: &WorkerPool,
    workers: &WorkerLedger,
) {
    for (w, p) in pool.iter() {
        disq_trace::emit(|| TraceEvent::WorkerProfile {
            label: label.to_string(),
            worker: w.0,
            sd_multiplier: p.sd_multiplier,
            spam_propensity: p.spam_propensity,
        });
    }
    let pricing = &cell.crowd.pricing;
    let binary_mc = pricing.value_price(AttributeKind::Boolean).millicents();
    let numeric_mc = pricing.value_price(AttributeKind::Numeric).millicents();
    for (w, t) in workers.iter() {
        let spent = binary_mc * t.binary_answers as i64 + numeric_mc * t.numeric_answers as i64;
        disq_trace::emit(|| TraceEvent::WorkerStats {
            label: label.to_string(),
            seed: rep,
            worker: w.0,
            binary_answers: t.binary_answers,
            numeric_answers: t.numeric_answers,
            rejected: t.rejected,
            spent_millicents: spent,
            residual_n: t.residual_n,
            residual_sum: t.residual_sum,
            residual_sq: t.residual_sq,
        });
    }
}

/// One drift detector pair (level + alarm) over one monitored metric of
/// one attribute's batch stream.
struct DriftMonitor {
    metric: &'static str,
    reference: f64,
    ewma: Ewma,
    cusum: Cusum,
}

impl DriftMonitor {
    fn new(metric: &'static str, reference: f64) -> Self {
        DriftMonitor {
            metric,
            reference,
            ewma: Ewma::new(DRIFT_EWMA_ALPHA),
            cusum: Cusum::standard(),
        }
    }

    /// Absorbs one standardized deviation; on a fresh alarm emits the
    /// `drift_detected` event (reconstructing the pre-reset score) and
    /// bumps the alarm counter.
    fn absorb(&mut self, z: f64, observed: f64, label: &str, attr: &str) {
        self.ewma.update(z);
        let before = self.cusum;
        if self.cusum.update(z) {
            let k = before.slack();
            let tripped = (before.positive() + z - k).max(before.negative() - z - k);
            disq_trace::count(Counter::DriftAlarms);
            disq_trace::emit(|| TraceEvent::DriftDetected {
                label: label.to_string(),
                attr: attr.to_string(),
                metric: self.metric.to_string(),
                observed,
                reference: self.reference,
                score: tripped,
                threshold: before.threshold(),
                sample: self.cusum.samples(),
            });
        }
    }

    /// Emits the detector's final state.
    fn finish(&self, label: &str, attr: &str) {
        disq_trace::emit(|| TraceEvent::DriftUpdate {
            label: label.to_string(),
            attr: attr.to_string(),
            metric: self.metric.to_string(),
            reference: self.reference,
            ewma: self.ewma.value(),
            score: self.cusum.score(),
            threshold: self.cusum.threshold(),
            samples: self.cusum.samples(),
            alarms: self.cusum.alarms(),
        });
    }
}

/// Assembles and emits the full audit ledger of one repetition: one
/// `query_audit` per query target, one `object_audit` per evaluated
/// object per target, per-attribute `drift_update` (always) and
/// `drift_detected` (alarms only) events.
///
/// `estimates`/`truth` are in query-target order (`estimates[i][qi]`),
/// exactly as scored; `order[qi]` maps a query target to its plan
/// regression.
#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_query_audits(
    cell: &Cell,
    rep: u64,
    label: &str,
    out: &PreprocessOutput,
    plan: &EvaluationPlan,
    order: &[usize],
    objects: &[ObjectId],
    population: &Population,
    estimates: &[Vec<f64>],
    truth: &[Vec<f64>],
    audit: &OnlineAudit,
) {
    // Plan attribute j ↔ the j-th pool attribute with a nonzero budget
    // (the order `learn_regressions` builds `plan.attributes` in).
    let pool_idx: Vec<usize> = (0..out.budget.len())
        .filter(|&i| out.budget[i] > 0)
        .collect();
    debug_assert_eq!(pool_idx.len(), plan.attributes.len());
    let b_f64: Vec<f64> = out.budget.iter().map(|&q| q as f64).collect();
    let floor_budget: Vec<f64> = out
        .budget
        .iter()
        .map(|&q| if q > 0 { FLOOR_BUDGET } else { 0.0 })
        .collect();

    // ---- Per-attribute stream audit + drift detection ---------------------
    let attr_audits: Vec<AttrAudit> = plan
        .attributes
        .iter()
        .enumerate()
        .map(|(j, p)| {
            let batches = audit.batches(j);
            let planned_sc = pool_idx.get(j).map_or(f64::NAN, |&pi| out.trio.s_c(pi));
            let mut var_monitor = DriftMonitor::new("answer_var", planned_sc);
            let spam_ref = cell.crowd.spam_rate;
            let mut spam_monitor = DriftMonitor::new("spam_rate", spam_ref);
            let (mut answers, mut dropped, mut fallbacks) = (0u64, 0u64, 0u64);
            let (mut var_sum, mut var_n) = (0.0f64, 0u64);
            for b in batches {
                answers += b.answers as u64;
                dropped += (b.answers - b.kept) as u64;
                fallbacks += b.fallback as u64;
                if b.var.is_finite() {
                    var_sum += b.var;
                    var_n += 1;
                }
                // Standardize the batch sample variance against the
                // planned S_c: under the plan, v ~ S_c·χ²(m−1)/(m−1),
                // whose sd is S_c·√(2/(m−1)).
                if b.kept >= 2 && planned_sc > 0.0 {
                    let sd = planned_sc * (2.0 / (b.kept as f64 - 1.0)).sqrt();
                    var_monitor.absorb((b.var - planned_sc) / sd, b.var, label, &p.label);
                }
                // Standardize the batch spam fraction against the
                // configured rate via the binomial sd, floored at half
                // an answer so a zero reference still has scale.
                if b.answers > 0 {
                    let n = b.answers as f64;
                    let obs = (b.answers - b.kept) as f64 / n;
                    let p_ref = spam_ref.clamp(0.5 / n, 1.0 - 0.5 / n);
                    let sd = (p_ref * (1.0 - p_ref) / n).sqrt();
                    spam_monitor.absorb((obs - spam_ref) / sd, obs, label, &p.label);
                }
            }
            var_monitor.finish(label, &p.label);
            spam_monitor.finish(label, &p.label);
            AttrAudit {
                label: p.label.clone(),
                questions: p.questions,
                batches: batches.len() as u64,
                answers,
                dropped,
                fallbacks,
                planned_sc,
                realized_sc: if var_n > 0 {
                    var_sum / var_n as f64
                } else {
                    f64::NAN
                },
            }
        })
        .collect();

    // ---- Per-target error decomposition -----------------------------------
    // The regression applied to the TRUE planned-attribute values: the
    // crowd-noise-free prediction ỹ that splits each residual exactly.
    let true_inputs: Vec<Vec<f64>> = objects
        .iter()
        .map(|&o| {
            plan.attributes
                .iter()
                .map(|p| population.value(o, p.attr))
                .collect()
        })
        .collect();
    let n = objects.len();
    for (qi, name) in cell.targets.iter().enumerate() {
        let r = order[qi];
        let query = disq_trace::next_audit_id();
        let predicted_mse = out.trio.predicted_error(qi, &b_f64).unwrap_or(f64::NAN);
        let error_floor = out
            .trio
            .predicted_error(qi, &floor_budget)
            .unwrap_or(f64::NAN);
        let ci_half = if predicted_mse >= 0.0 {
            CI_Z * predicted_mse.sqrt()
        } else {
            f64::NAN
        };
        let (mut realized, mut noise, mut model, mut cross) = (0.0f64, 0.0, 0.0, 0.0);
        let mut covered = 0u64;
        for (i, &o) in objects.iter().enumerate() {
            let y = truth[i][qi];
            let y_hat = estimates[i][qi];
            let y_tilde = plan.predict(r, &true_inputs[i]);
            let noise_err = y_hat - y_tilde;
            let model_err = y_tilde - y;
            let residual = y_hat - y;
            realized += residual * residual;
            noise += noise_err * noise_err;
            model += model_err * model_err;
            cross += 2.0 * noise_err * model_err;
            let (ci_lo, ci_hi) = (y_hat - ci_half, y_hat + ci_half);
            let in_ci = y >= ci_lo && y <= ci_hi;
            covered += in_ci as u64;
            disq_trace::count(Counter::AuditedObjects);
            disq_trace::emit(|| TraceEvent::ObjectAudit {
                query,
                label: label.to_string(),
                seed: rep,
                target: (*name).to_string(),
                object: o.0 as u64,
                truth: y,
                estimate: y_hat,
                residual,
                noise_err,
                model_err,
                ci_lo,
                ci_hi,
                in_ci,
            });
        }
        let denom = n.max(1) as f64;
        disq_trace::count(Counter::AuditedQueries);
        disq_trace::emit(|| TraceEvent::QueryAudit {
            query,
            label: label.to_string(),
            seed: rep,
            target: (*name).to_string(),
            n_objects: n as u32,
            predicted_mse,
            training_mse: plan.regressions[r].training_mse,
            realized_mse: realized / denom,
            noise_mse: noise / denom,
            model_mse: model / denom,
            cross_mse: cross / denom,
            error_floor,
            budget_truncation: predicted_mse - error_floor,
            ci_level: CI_LEVEL,
            ci_coverage: covered as f64 / denom,
            attrs: attr_audits.clone(),
        });
    }
}
