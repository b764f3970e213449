//! `EXPLAIN ANALYZE` for crowd queries: renders the audit ledger a
//! traced run emits into a per-query error-attribution narrative.
//!
//! [`ExplainReport::from_reader`] folds the `query_audit`,
//! `object_audit`, `drift_update`, `drift_detected` and `spam_decision`
//! events of a trace into one explainable record per query target. The
//! rendering leads with the *worst-attributed* realized-error component
//! (crowd noise, model bias, or their interaction), then reconciles the
//! planning side (`predicted = error floor + budget truncation`), CI
//! coverage, the per-attribute answer streams, drift-detector status,
//! and the largest residual objects.
//!
//! [`QueryExplain::decomposition_gap`] re-checks the ledger's central
//! identity — `noise + model + cross == realized` within
//! [`SUM_CHECK_TOL`] — so a malformed or truncated ledger is flagged
//! rather than narrated; the CLI exits non-zero on it.

use crate::report::fmt_f64;
use crate::table::{Align, Table};
use disq_trace::json::{write_f64, write_str};
use disq_trace::{AttrAudit, TraceEvent, TraceReader};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufRead;

/// Relative tolerance of the decomposition sum-check.
pub const SUM_CHECK_TOL: f64 = 1e-9;
/// Largest-|residual| objects retained per query.
pub const MAX_WORST: usize = 5;

/// One retained `object_audit` row.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectRow {
    /// Object id.
    pub object: u64,
    /// Ground-truth target value.
    pub truth: f64,
    /// Regression estimate.
    pub estimate: f64,
    /// `estimate − truth`.
    pub residual: f64,
    /// Crowd-noise share of the residual.
    pub noise_err: f64,
    /// Model-bias share of the residual.
    pub model_err: f64,
    /// Truth inside the predicted confidence interval?
    pub in_ci: bool,
}

/// Per-object aggregates keyed by the process-unique audit id shared
/// between a `query_audit` ledger and its `object_audit` rows —
/// `(label, seed, target)` recurs across sweep cells and parallel cells
/// interleave, so only the id is a safe join key.
#[derive(Debug, Clone, Default)]
struct ObjectAgg {
    count: u64,
    ci_hits: u64,
    worst: Vec<ObjectRow>,
}

impl ObjectAgg {
    fn absorb(&mut self, row: ObjectRow) {
        self.count += 1;
        self.ci_hits += row.in_ci as u64;
        self.worst.push(row);
        self.worst
            .sort_by(|a, b| b.residual.abs().total_cmp(&a.residual.abs()));
        self.worst.truncate(MAX_WORST);
    }
}

/// One fully-attributed query target.
#[derive(Debug, Clone, Default)]
pub struct QueryExplain {
    /// Audit id correlating the ledger with its object rows.
    pub query: u64,
    /// Run label.
    pub label: String,
    /// Repetition seed.
    pub seed: u64,
    /// Query target attribute.
    pub target: String,
    /// Objects the ledger says were evaluated.
    pub n_objects: u32,
    /// Trio-predicted `Err(b)` at the chosen budget.
    pub predicted_mse: f64,
    /// Regression training MSE.
    pub training_mse: f64,
    /// Realized per-object MSE against ground truth.
    pub realized_mse: f64,
    /// Crowd-noise component of the realized MSE.
    pub noise_mse: f64,
    /// Model-bias component.
    pub model_mse: f64,
    /// Noise x model interaction component.
    pub cross_mse: f64,
    /// Predicted error at an unbounded per-object budget.
    pub error_floor: f64,
    /// `predicted_mse − error_floor`.
    pub budget_truncation: f64,
    /// Nominal CI coverage.
    pub ci_level: f64,
    /// Realized CI coverage.
    pub ci_coverage: f64,
    /// Per-attribute answer-stream audit.
    pub attrs: Vec<AttrAudit>,
    /// `object_audit` rows matched to this query.
    pub objects_seen: u64,
    /// Matched rows with the truth inside the CI.
    pub ci_hits: u64,
    /// Largest-|residual| matched rows.
    pub worst: Vec<ObjectRow>,
}

impl QueryExplain {
    /// Absolute gap between the component sum and the realized MSE.
    pub fn decomposition_gap(&self) -> f64 {
        (self.noise_mse + self.model_mse + self.cross_mse - self.realized_mse).abs()
    }

    /// True when the decomposition sums to the realized MSE within
    /// [`SUM_CHECK_TOL`] (relative to the realized magnitude).
    pub fn decomposition_ok(&self) -> bool {
        let tol = SUM_CHECK_TOL * self.realized_mse.abs().max(1.0);
        self.decomposition_gap().is_finite() && self.decomposition_gap() <= tol
    }

    /// The realized-error components, worst first: `(name, mse, share of
    /// realized)`. The interaction term can be negative; ranking is by
    /// absolute magnitude.
    pub fn components(&self) -> Vec<(&'static str, f64, f64)> {
        let mut c = vec![
            ("crowd noise", self.noise_mse),
            ("model bias", self.model_mse),
            ("noise x model interaction", self.cross_mse),
        ];
        c.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        let denom = if self.realized_mse != 0.0 {
            self.realized_mse
        } else {
            1.0
        };
        c.into_iter().map(|(n, v)| (n, v, v / denom)).collect()
    }
}

/// One drift detector's end-of-run status (`drift_update`).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftStatus {
    /// Run label.
    pub label: String,
    /// Monitored attribute.
    pub attr: String,
    /// Monitored metric (`answer_var` or `spam_rate`).
    pub metric: String,
    /// Planned reference level.
    pub reference: f64,
    /// EWMA of standardized deviations.
    pub ewma: f64,
    /// Final CUSUM score.
    pub score: f64,
    /// Alarm threshold `h`.
    pub threshold: f64,
    /// Batches absorbed.
    pub samples: u64,
    /// Alarms raised.
    pub alarms: u64,
}

/// One raised alarm (`drift_detected`).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftAlarm {
    /// Run label.
    pub label: String,
    /// Monitored attribute.
    pub attr: String,
    /// Monitored metric.
    pub metric: String,
    /// Observed metric value at the alarming batch.
    pub observed: f64,
    /// Planned reference level.
    pub reference: f64,
    /// CUSUM score that tripped the threshold.
    pub score: f64,
    /// Alarm threshold `h`.
    pub threshold: f64,
    /// Batch index (1-based) at which the alarm fired.
    pub sample: u64,
}

/// Everything `explain` needs, folded out of one trace stream.
#[derive(Debug, Clone, Default)]
pub struct ExplainReport {
    /// Audited queries in stream order.
    pub queries: Vec<QueryExplain>,
    /// Drift-detector statuses in stream order.
    pub drift: Vec<DriftStatus>,
    /// Alarms in stream order.
    pub alarms: Vec<DriftAlarm>,
    /// Spam-filter decisions seen.
    pub spam_decisions: u64,
    /// Answers those decisions dropped.
    pub spam_dropped: u64,
    /// Events parsed.
    pub parsed: usize,
    /// Corrupt lines skipped.
    pub skipped: usize,
    /// The reader's skip warning, when any line was skipped.
    pub skip_warning: Option<String>,
    objects: BTreeMap<u64, ObjectAgg>,
}

impl ExplainReport {
    /// Folds every event of `reader`, then captures its skip stats.
    pub fn from_reader<R: BufRead>(mut reader: TraceReader<R>) -> ExplainReport {
        let mut report = ExplainReport::default();
        for event in reader.by_ref() {
            report.absorb(event);
        }
        report.parsed = reader.parsed();
        report.skipped = reader.skipped();
        report.skip_warning = reader.skip_warning();
        report
    }

    /// Folds one event (audit events only; everything else is ignored).
    pub fn absorb(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::QueryAudit {
                query,
                label,
                seed,
                target,
                n_objects,
                predicted_mse,
                training_mse,
                realized_mse,
                noise_mse,
                model_mse,
                cross_mse,
                error_floor,
                budget_truncation,
                ci_level,
                ci_coverage,
                attrs,
            } => {
                let agg = self.objects.remove(&query).unwrap_or_default();
                self.queries.push(QueryExplain {
                    query,
                    label,
                    seed,
                    target,
                    n_objects,
                    predicted_mse,
                    training_mse,
                    realized_mse,
                    noise_mse,
                    model_mse,
                    cross_mse,
                    error_floor,
                    budget_truncation,
                    ci_level,
                    ci_coverage,
                    attrs,
                    objects_seen: agg.count,
                    ci_hits: agg.ci_hits,
                    worst: agg.worst,
                });
            }
            TraceEvent::ObjectAudit {
                query,
                object,
                truth,
                estimate,
                residual,
                noise_err,
                model_err,
                in_ci,
                ..
            } => {
                self.objects.entry(query).or_default().absorb(ObjectRow {
                    object,
                    truth,
                    estimate,
                    residual,
                    noise_err,
                    model_err,
                    in_ci,
                });
            }
            TraceEvent::DriftUpdate {
                label,
                attr,
                metric,
                reference,
                ewma,
                score,
                threshold,
                samples,
                alarms,
            } => self.drift.push(DriftStatus {
                label,
                attr,
                metric,
                reference,
                ewma,
                score,
                threshold,
                samples,
                alarms,
            }),
            TraceEvent::DriftDetected {
                label,
                attr,
                metric,
                observed,
                reference,
                score,
                threshold,
                sample,
            } => self.alarms.push(DriftAlarm {
                label,
                attr,
                metric,
                observed,
                reference,
                score,
                threshold,
                sample,
            }),
            TraceEvent::SpamDecision { answers, kept, .. } => {
                self.spam_decisions += 1;
                self.spam_dropped += u64::from(answers.saturating_sub(kept));
            }
            _ => {}
        }
    }

    /// True when every query's decomposition passes the sum-check and no
    /// query is missing its object rows.
    pub fn well_formed(&self) -> bool {
        self.queries
            .iter()
            .all(|q| q.decomposition_ok() && q.objects_seen == u64::from(q.n_objects))
    }

    /// Renders the full narrative.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events parsed{}",
            self.parsed,
            match self.skipped {
                0 => String::new(),
                n => format!(", {n} corrupt lines skipped"),
            }
        );
        if let Some(w) = &self.skip_warning {
            let _ = writeln!(out, "{w}");
        }
        if self.queries.is_empty() {
            out.push_str(
                "no query audits in this trace — run the benchmark with \
                 DISQ_TRACE set so the audit ledger is emitted\n",
            );
            // Drift/spam sections (below) can still carry information.
        }

        for q in &self.queries {
            let _ = writeln!(
                out,
                "\n== query \"{}\" ({}, seed {}) ==",
                q.target, q.label, q.seed
            );
            let ratio = if q.predicted_mse > 0.0 {
                format!(" ({:.2}x predicted)", q.realized_mse / q.predicted_mse)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "{} objects evaluated; realized MSE {} vs predicted {}{}",
                q.n_objects,
                fmt_f64(q.realized_mse),
                fmt_f64(q.predicted_mse),
                ratio
            );

            out.push_str("\nerror attribution (worst first):\n");
            let mut t = Table::new(&["component", "mse", "share"]).aligns(&[
                Align::Left,
                Align::Right,
                Align::Right,
            ]);
            for (name, mse, share) in q.components() {
                t.row(vec![
                    name.into(),
                    fmt_f64(mse),
                    format!("{:.1}%", share * 100.0),
                ]);
            }
            out.push_str(&t.render());
            if q.decomposition_ok() {
                let _ = writeln!(
                    out,
                    "(sum-check: components match realized MSE, gap {})",
                    fmt_f64(q.decomposition_gap())
                );
            } else {
                let _ = writeln!(
                    out,
                    "WARNING: decomposition gap {} exceeds tolerance — malformed ledger",
                    fmt_f64(q.decomposition_gap())
                );
            }

            let _ = writeln!(
                out,
                "\nplanning: predicted {} = error floor {} + budget truncation {} \
                 (training MSE {})",
                fmt_f64(q.predicted_mse),
                fmt_f64(q.error_floor),
                fmt_f64(q.budget_truncation),
                fmt_f64(q.training_mse)
            );
            let _ = writeln!(
                out,
                "{:.0}% CI coverage: {:.1}% ({}/{} objects within the predicted interval)",
                q.ci_level * 100.0,
                q.ci_coverage * 100.0,
                q.ci_hits,
                q.objects_seen
            );
            if q.objects_seen != u64::from(q.n_objects) {
                let _ = writeln!(
                    out,
                    "WARNING: {} object audits found, ledger says {} — truncated trace?",
                    q.objects_seen, q.n_objects
                );
            }

            if !q.attrs.is_empty() {
                out.push_str("\nanswer streams:\n");
                let mut t = Table::new(&[
                    "attribute",
                    "q/obj",
                    "batches",
                    "answers",
                    "dropped",
                    "fallbacks",
                    "planned S_c",
                    "realized S_c",
                ])
                .aligns(&[
                    Align::Left,
                    Align::Right,
                    Align::Right,
                    Align::Right,
                    Align::Right,
                    Align::Right,
                    Align::Right,
                    Align::Right,
                ]);
                for a in &q.attrs {
                    t.row(vec![
                        a.label.clone(),
                        a.questions.to_string(),
                        a.batches.to_string(),
                        a.answers.to_string(),
                        a.dropped.to_string(),
                        a.fallbacks.to_string(),
                        fmt_f64(a.planned_sc),
                        fmt_f64(a.realized_sc),
                    ]);
                }
                out.push_str(&t.render());
            }

            if !q.worst.is_empty() {
                out.push_str("\nworst residuals:\n");
                let mut t = Table::new(&[
                    "object", "truth", "estimate", "residual", "noise", "model", "in CI",
                ])
                .aligns(&[
                    Align::Right,
                    Align::Right,
                    Align::Right,
                    Align::Right,
                    Align::Right,
                    Align::Right,
                    Align::Left,
                ]);
                for w in &q.worst {
                    t.row(vec![
                        w.object.to_string(),
                        fmt_f64(w.truth),
                        fmt_f64(w.estimate),
                        fmt_f64(w.residual),
                        fmt_f64(w.noise_err),
                        fmt_f64(w.model_err),
                        if w.in_ci { "yes" } else { "NO" }.into(),
                    ]);
                }
                out.push_str(&t.render());
            }
        }

        if !self.drift.is_empty() {
            out.push_str("\ndrift detectors:\n");
            let mut t = Table::new(&[
                "attribute",
                "metric",
                "reference",
                "ewma",
                "cusum",
                "threshold",
                "batches",
                "alarms",
            ])
            .aligns(&[
                Align::Left,
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
            ]);
            for d in &self.drift {
                t.row(vec![
                    d.attr.clone(),
                    d.metric.clone(),
                    fmt_f64(d.reference),
                    fmt_f64(d.ewma),
                    fmt_f64(d.score),
                    fmt_f64(d.threshold),
                    d.samples.to_string(),
                    d.alarms.to_string(),
                ]);
            }
            out.push_str(&t.render());
        }
        if self.alarms.is_empty() {
            if !self.drift.is_empty() {
                out.push_str("no drift alarms: the crowd behaved as planned\n");
            }
        } else {
            let _ = writeln!(out, "\ndrift alarms ({}):", self.alarms.len());
            for a in &self.alarms {
                let _ = writeln!(
                    out,
                    "  {} {} at batch {}: observed {} vs planned {} \
                     (cusum {} > {})",
                    a.attr,
                    a.metric,
                    a.sample,
                    fmt_f64(a.observed),
                    fmt_f64(a.reference),
                    fmt_f64(a.score),
                    fmt_f64(a.threshold)
                );
            }
        }
        if self.spam_decisions > 0 {
            let _ = writeln!(
                out,
                "\nspam filter: {} batch(es) dropped {} answer(s)",
                self.spam_decisions, self.spam_dropped
            );
        }
        out
    }

    /// Renders the report as one JSON object (the `--json` mode).
    pub fn to_json(&self) -> String {
        let mut o = String::from("{");
        let _ = write!(
            o,
            "\"parsed\":{},\"skipped\":{},",
            self.parsed, self.skipped
        );
        o.push_str("\"queries\":[");
        for (i, q) in self.queries.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(o, "{{\"query\":{},\"label\":", q.query);
            write_str(&mut o, &q.label);
            let _ = write!(o, ",\"seed\":{},\"target\":", q.seed);
            write_str(&mut o, &q.target);
            let _ = write!(o, ",\"n_objects\":{},", q.n_objects);
            for (name, value) in [
                ("predicted_mse", q.predicted_mse),
                ("training_mse", q.training_mse),
                ("realized_mse", q.realized_mse),
                ("noise_mse", q.noise_mse),
                ("model_mse", q.model_mse),
                ("cross_mse", q.cross_mse),
                ("error_floor", q.error_floor),
                ("budget_truncation", q.budget_truncation),
                ("ci_level", q.ci_level),
                ("ci_coverage", q.ci_coverage),
                ("decomposition_gap", q.decomposition_gap()),
            ] {
                let _ = write!(o, "\"{name}\":");
                write_f64(&mut o, value);
                o.push(',');
            }
            let _ = write!(
                o,
                "\"decomposition_ok\":{},\"objects_seen\":{},\"ci_hits\":{},",
                q.decomposition_ok(),
                q.objects_seen,
                q.ci_hits
            );
            o.push_str("\"attrs\":[");
            for (j, a) in q.attrs.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                o.push_str("{\"label\":");
                write_str(&mut o, &a.label);
                let _ = write!(
                    o,
                    ",\"questions\":{},\"batches\":{},\"answers\":{},\
                     \"dropped\":{},\"fallbacks\":{},\"planned_sc\":",
                    a.questions, a.batches, a.answers, a.dropped, a.fallbacks
                );
                write_f64(&mut o, a.planned_sc);
                o.push_str(",\"realized_sc\":");
                write_f64(&mut o, a.realized_sc);
                o.push('}');
            }
            o.push_str("],\"worst\":[");
            for (j, w) in q.worst.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                let _ = write!(o, "{{\"object\":{},", w.object);
                for (name, value) in [
                    ("truth", w.truth),
                    ("estimate", w.estimate),
                    ("residual", w.residual),
                    ("noise_err", w.noise_err),
                    ("model_err", w.model_err),
                ] {
                    let _ = write!(o, "\"{name}\":");
                    write_f64(&mut o, value);
                    o.push(',');
                }
                let _ = write!(o, "\"in_ci\":{}}}", w.in_ci);
            }
            o.push_str("]}");
        }
        o.push_str("],\"drift\":[");
        for (i, d) in self.drift.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"attr\":");
            write_str(&mut o, &d.attr);
            o.push_str(",\"metric\":");
            write_str(&mut o, &d.metric);
            for (name, value) in [
                ("reference", d.reference),
                ("ewma", d.ewma),
                ("score", d.score),
                ("threshold", d.threshold),
            ] {
                let _ = write!(o, ",\"{name}\":");
                write_f64(&mut o, value);
            }
            let _ = write!(o, ",\"samples\":{},\"alarms\":{}}}", d.samples, d.alarms);
        }
        o.push_str("],\"alarms\":[");
        for (i, a) in self.alarms.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"attr\":");
            write_str(&mut o, &a.attr);
            o.push_str(",\"metric\":");
            write_str(&mut o, &a.metric);
            for (name, value) in [
                ("observed", a.observed),
                ("reference", a.reference),
                ("score", a.score),
                ("threshold", a.threshold),
            ] {
                let _ = write!(o, ",\"{name}\":");
                write_f64(&mut o, value);
            }
            let _ = write!(o, ",\"sample\":{}}}", a.sample);
        }
        let _ = write!(
            o,
            "],\"spam\":{{\"decisions\":{},\"dropped\":{}}},\"well_formed\":{}}}",
            self.spam_decisions,
            self.spam_dropped,
            self.well_formed()
        );
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn object(
        qid: u64,
        target: &str,
        object: u64,
        truth: f64,
        estimate: f64,
        in_ci: bool,
    ) -> TraceEvent {
        let residual = estimate - truth;
        TraceEvent::ObjectAudit {
            query: qid,
            label: "fig1".into(),
            seed: 0,
            target: target.into(),
            object,
            truth,
            estimate,
            residual,
            noise_err: residual * 0.75,
            model_err: residual * 0.25,
            ci_lo: estimate - 1.0,
            ci_hi: estimate + 1.0,
            in_ci,
        }
    }

    fn query(qid: u64, target: &str, n: u32, realized: f64, noise: f64, model: f64) -> TraceEvent {
        TraceEvent::QueryAudit {
            query: qid,
            label: "fig1".into(),
            seed: 0,
            target: target.into(),
            n_objects: n,
            predicted_mse: 0.5,
            training_mse: 0.3,
            realized_mse: realized,
            noise_mse: noise,
            model_mse: model,
            cross_mse: realized - noise - model,
            error_floor: 0.4,
            budget_truncation: 0.1,
            ci_level: 0.95,
            ci_coverage: 0.5,
            attrs: vec![AttrAudit {
                label: "Weight".into(),
                questions: 6,
                batches: n as u64,
                answers: 6 * n as u64,
                dropped: 1,
                fallbacks: 0,
                planned_sc: 2.0,
                realized_sc: 1.8,
            }],
        }
    }

    #[test]
    fn objects_join_onto_the_consuming_query() {
        let mut r = ExplainReport::default();
        // Objects arrive before their ledger, as the runner emits them.
        r.absorb(object(1, "Bmi", 3, 20.0, 24.0, false));
        r.absorb(object(1, "Bmi", 7, 22.0, 22.5, true));
        r.absorb(query(1, "Bmi", 2, 8.125, 4.0, 2.0));
        let q = &r.queries[0];
        assert_eq!(q.objects_seen, 2);
        assert_eq!(q.ci_hits, 1);
        assert_eq!(q.worst[0].object, 3, "largest |residual| first");
        assert!(r.well_formed());
        let text = r.render();
        assert!(text.contains("== query \"Bmi\""), "{text}");
        assert!(text.contains("error attribution (worst first):"), "{text}");
        assert!(text.contains("worst residuals:"), "{text}");
    }

    #[test]
    fn repeated_keys_do_not_leak_objects_across_sweep_cells() {
        // A sweep runs the same (label, seed, target) once per budget
        // point; each ledger must claim only its own object rows.
        let mut r = ExplainReport::default();
        r.absorb(object(1, "Bmi", 1, 20.0, 21.0, true));
        r.absorb(query(1, "Bmi", 1, 1.0, 0.5625, 0.0625));
        r.absorb(object(2, "Bmi", 1, 20.0, 20.5, true));
        r.absorb(query(2, "Bmi", 1, 0.25, 0.140625, 0.015625));
        assert_eq!(r.queries.len(), 2);
        assert_eq!(r.queries[0].objects_seen, 1);
        assert_eq!(r.queries[1].objects_seen, 1);
        assert_eq!(r.queries[1].worst[0].residual, 0.5);
        assert!(r.well_formed());
    }

    #[test]
    fn interleaved_parallel_cells_join_by_audit_id() {
        // With DISQ_THREADS > 1 two cells sharing (label, seed, target)
        // interleave their rows in the shared sink; only the audit id
        // keeps each ledger's rows together.
        let mut r = ExplainReport::default();
        r.absorb(object(1, "Bmi", 1, 20.0, 21.0, true));
        r.absorb(object(2, "Bmi", 1, 20.0, 20.5, true));
        r.absorb(object(1, "Bmi", 2, 30.0, 31.0, true));
        r.absorb(object(2, "Bmi", 2, 30.0, 30.5, true));
        r.absorb(query(2, "Bmi", 2, 0.25, 0.140625, 0.015625));
        r.absorb(query(1, "Bmi", 2, 1.0, 0.5625, 0.0625));
        assert_eq!(r.queries.len(), 2);
        assert_eq!(r.queries[0].objects_seen, 2);
        assert_eq!(r.queries[1].objects_seen, 2);
        assert_eq!(r.queries[0].worst[0].residual, 0.5, "id-2 ledger first");
        assert_eq!(r.queries[1].worst[0].residual, 1.0);
        assert!(r.well_formed());
    }

    #[test]
    fn components_rank_worst_first() {
        let mut r = ExplainReport::default();
        r.absorb(query(1, "Bmi", 0, 10.0, 2.0, 7.5));
        let c = r.queries[0].components();
        assert_eq!(c[0].0, "model bias");
        assert_eq!(c[1].0, "crowd noise");
        assert!((c[0].2 - 0.75).abs() < 1e-12, "share of realized");
    }

    #[test]
    fn broken_decomposition_is_flagged() {
        let mut r = ExplainReport::default();
        r.absorb(TraceEvent::QueryAudit {
            query: 1,
            label: "fig1".into(),
            seed: 0,
            target: "Bmi".into(),
            n_objects: 0,
            predicted_mse: 0.5,
            training_mse: 0.3,
            realized_mse: 1.0,
            noise_mse: 0.5,
            model_mse: 0.1,
            cross_mse: 0.0, // sum 0.6 != 1.0
            error_floor: 0.4,
            budget_truncation: 0.1,
            ci_level: 0.95,
            ci_coverage: 0.0,
            attrs: vec![],
        });
        assert!(!r.queries[0].decomposition_ok());
        assert!(!r.well_formed());
        assert!(r.render().contains("WARNING: decomposition gap"));
    }

    #[test]
    fn missing_object_rows_break_well_formedness() {
        let mut r = ExplainReport::default();
        r.absorb(object(1, "Bmi", 1, 20.0, 21.0, true));
        r.absorb(query(1, "Bmi", 2, 6.0, 4.0, 2.0));
        assert!(!r.well_formed(), "1 of 2 object audits present");
        assert!(r.render().contains("truncated trace?"));
    }

    #[test]
    fn drift_status_and_alarms_render() {
        let mut r = ExplainReport::default();
        r.absorb(TraceEvent::DriftUpdate {
            label: "fig1".into(),
            attr: "Weight".into(),
            metric: "spam_rate".into(),
            reference: 0.0,
            ewma: 1.4,
            score: 3.2,
            threshold: 5.0,
            samples: 150,
            alarms: 1,
        });
        r.absorb(TraceEvent::DriftDetected {
            label: "fig1".into(),
            attr: "Weight".into(),
            metric: "spam_rate".into(),
            observed: 0.375,
            reference: 0.0,
            score: 5.3,
            threshold: 5.0,
            sample: 41,
        });
        r.absorb(TraceEvent::SpamDecision {
            object: 9,
            attr: 0,
            answers: 8,
            kept: 5,
            median: 70.0,
            mad: 2.0,
        });
        let text = r.render();
        assert!(text.contains("drift detectors:"), "{text}");
        assert!(text.contains("drift alarms (1):"), "{text}");
        assert!(text.contains("at batch 41"), "{text}");
        assert!(text.contains("dropped 3 answer(s)"), "{text}");
    }

    #[test]
    fn empty_trace_renders_a_hint() {
        let r = ExplainReport::from_reader(TraceReader::new(&b""[..]));
        assert!(r.render().contains("no query audits"));
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let mut r = ExplainReport::default();
        r.absorb(object(1, "Bmi", 1, 20.0, 21.0, true));
        r.absorb(query(1, "Bmi", 1, 6.0, 4.0, 2.0));
        let doc = disq_trace::json::parse(&r.to_json()).unwrap();
        let queries = doc.get("queries").and_then(|q| q.as_arr()).unwrap();
        assert_eq!(queries.len(), 1);
        let q = &queries[0];
        assert_eq!(q.get("target").and_then(|v| v.as_str()), Some("Bmi"));
        assert_eq!(
            q.get("decomposition_ok").and_then(|v| v.as_bool()),
            Some(true)
        );
        assert_eq!(
            q.get("attrs")
                .and_then(|a| a.as_arr())
                .and_then(|a| a[0].get("questions"))
                .and_then(|v| v.as_u64()),
            Some(6)
        );
        assert_eq!(doc.get("well_formed").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(
            doc.get("queries")
                .and_then(|q| q.as_arr())
                .and_then(|q| q[0].get("worst"))
                .and_then(|w| w.as_arr())
                .map(<[_]>::len),
            Some(1)
        );
    }
}
