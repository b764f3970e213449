//! Typed aggregation of a JSONL trace into a per-run report.
//!
//! [`RunReport::from_reader`] folds the event stream once, in constant
//! memory per aggregate, into: budget attribution by phase and question
//! kind, the dismantle-decision tables (every candidate's Eq. 8/9
//! `Pr(new|a_j)·Σω[G−L]` score against the chosen one), SPRT verdict and
//! sample totals, budget-distribution and regression summaries, and a
//! per-label span table read through the shared [`SpanJoin`].
//!
//! [`RunReport::derived_counters`] re-derives the always-on
//! [`Counter`] totals *from events alone*; for an offline (preprocessing)
//! run these are bit-exact against the in-process [`RunSummary`] delta —
//! the end-to-end test proves it — which is what makes the report
//! trustworthy: if the stream lost events, the totals would disagree.

use crate::flame::SpanJoin;
use crate::table::{Align, Table};
use disq_trace::{CandidateScore, Counter, TraceEvent, TraceReader};
use std::fmt::Write as _;
use std::io::BufRead;

/// Detailed dismantle decisions retained verbatim (counts stay exact).
pub const MAX_DECISIONS: usize = 8;
/// Detailed SPRT verdicts retained verbatim (counts stay exact).
pub const MAX_VERDICTS: usize = 12;

/// Spend attribution of one preprocessing phase, aggregated over runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseAgg {
    /// Phase name (`examples`, `dismantle`, `refine`, `regression`).
    pub phase: String,
    /// Times the phase boundary was crossed (= runs covering it).
    pub occurrences: u64,
    /// Total milli-cents attributed to the phase.
    pub millicents: i64,
    /// Total questions attributed to the phase.
    pub questions: u64,
    /// Per-kind `(questions, millicents)` breakdown.
    pub by_kind: std::collections::BTreeMap<String, (u64, i64)>,
}

/// One retained `GetNextAttribute` decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Chosen pool index (`None` = stop signal).
    pub chosen: Option<u32>,
    /// Every scored candidate.
    pub scores: Vec<CandidateScore>,
}

/// One retained SPRT verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Candidate attribute text.
    pub candidate: String,
    /// Accepted as relevant?
    pub accepted: bool,
    /// Worker answers consumed.
    pub samples: u32,
}

/// Everything aggregated out of one trace stream.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// `run_start` labels with their seeds, in stream order.
    pub runs: Vec<(String, u64)>,
    /// Phase aggregates in first-seen order.
    pub phases: Vec<PhaseAgg>,
    /// Dismantle decisions that chose an attribute.
    pub dismantle_choices: u64,
    /// Dismantle decisions that signalled stop (`chosen = null`).
    pub dismantle_stops: u64,
    /// First [`MAX_DECISIONS`] decisions, verbatim.
    pub decisions: Vec<Decision>,
    /// SPRT verdicts accepting the candidate.
    pub sprt_accepted: u64,
    /// SPRT verdicts rejecting the candidate.
    pub sprt_rejected: u64,
    /// Worker answers consumed across all SPRT dialogues.
    pub sprt_samples: u64,
    /// First [`MAX_VERDICTS`] verdicts, verbatim.
    pub verdicts: Vec<Verdict>,
    /// Greedy budget-distribution grants.
    pub budget_steps: u64,
    /// Finished distributions: `(label, granted attrs, questions, objective)`.
    pub budget_chosen: Vec<(String, usize, u64, f64)>,
    /// Regression fits: `(label, training_mse, rows)`.
    pub regressions: Vec<(String, f64, u32)>,
    /// Whole-batch online spam rejections.
    pub spam_fallbacks: u64,
    /// Incremental budget solves rescued by the dense engine:
    /// `(solve label, breakdown reason)`, verbatim.
    pub solver_fallbacks: Vec<(String, String)>,
    /// Peak statistics-trio shape seen.
    pub trio_peak: (u32, u32),
    /// `span_start` events seen.
    pub span_starts: u64,
    /// `span_end` events seen.
    pub span_ends: u64,
    /// Total heap bytes attributed to closed spans (self + children;
    /// nested spans double-count by construction, so this is an
    /// upper envelope, not a sum of disjoint parts).
    pub span_alloc_bytes: u64,
    /// Distinct span labels seen, in first-seen order, with close
    /// counts and total duration. Use `disq-insight flame`/`timeline`
    /// for the full hierarchy.
    pub span_labels: Vec<(String, u64, u64)>,
    /// `query_audit` ledgers seen (detailed in [`crate::explain`]).
    pub query_audits: u64,
    /// `object_audit` rows seen.
    pub object_audits: u64,
    /// Drift-detector `drift_update` summaries seen.
    pub drift_updates: u64,
    /// `drift_detected` alarms seen.
    pub drift_alarms: u64,
    /// Worker provenance `worker_profile` events seen.
    pub worker_profiles: u64,
    /// Worker provenance `worker_stats` events seen (detailed in
    /// [`crate::workers`]).
    pub worker_stats: u64,
    /// Spam-filter `spam_decision` events (batches that dropped answers).
    pub spam_decisions: u64,
    /// Worker answers dropped across all spam decisions.
    pub spam_answers_dropped: u64,
    /// The span join; spans left open after absorbing a truncated trace
    /// stay in it.
    pub spans: SpanJoin,
    /// Events parsed.
    pub parsed: usize,
    /// Corrupt lines skipped by the reader.
    pub skipped: usize,
    /// The reader's one-line skip warning, when any line was skipped.
    pub skip_warning: Option<String>,
}

impl RunReport {
    /// Aggregates every event of `reader`, then captures its skip stats.
    pub fn from_reader<R: BufRead>(mut reader: TraceReader<R>) -> RunReport {
        let mut report = RunReport::default();
        for event in reader.by_ref() {
            report.absorb(event);
        }
        report.parsed = reader.parsed();
        report.skipped = reader.skipped();
        report.skip_warning = reader.skip_warning();
        report
    }

    /// Folds one event into the aggregates.
    pub fn absorb(&mut self, event: TraceEvent) {
        let closed = self.spans.add(&event, 0);
        match event {
            TraceEvent::RunStart { label, seed } => self.runs.push((label, seed)),
            TraceEvent::PhaseSpend {
                phase,
                delta_millicents,
                delta_questions,
                by_kind,
                ..
            } => {
                let agg = match self.phases.iter_mut().find(|p| p.phase == phase) {
                    Some(agg) => agg,
                    None => {
                        self.phases.push(PhaseAgg {
                            phase,
                            ..PhaseAgg::default()
                        });
                        self.phases.last_mut().unwrap()
                    }
                };
                agg.occurrences += 1;
                agg.millicents += delta_millicents;
                agg.questions += delta_questions;
                for k in by_kind {
                    let slot = agg.by_kind.entry(k.kind).or_insert((0, 0));
                    slot.0 += k.questions;
                    slot.1 += k.millicents;
                }
            }
            TraceEvent::DismantleChoice { chosen, scores } => {
                match chosen {
                    Some(_) => self.dismantle_choices += 1,
                    None => self.dismantle_stops += 1,
                }
                if self.decisions.len() < MAX_DECISIONS {
                    self.decisions.push(Decision { chosen, scores });
                }
            }
            TraceEvent::SprtVerdict {
                candidate,
                accepted,
                samples,
                ..
            } => {
                if accepted {
                    self.sprt_accepted += 1;
                } else {
                    self.sprt_rejected += 1;
                }
                self.sprt_samples += u64::from(samples);
                if self.verdicts.len() < MAX_VERDICTS {
                    self.verdicts.push(Verdict {
                        candidate,
                        accepted,
                        samples,
                    });
                }
            }
            TraceEvent::TrioSize { n_targets, n_attrs } => {
                self.trio_peak.0 = self.trio_peak.0.max(n_targets);
                self.trio_peak.1 = self.trio_peak.1.max(n_attrs);
            }
            TraceEvent::BudgetStep { .. } => self.budget_steps += 1,
            TraceEvent::BudgetChosen {
                label,
                allocation,
                objective,
            } => {
                let granted = allocation.iter().filter(|&&q| q > 0).count();
                let questions: u64 = allocation.iter().map(|&q| u64::from(q)).sum();
                self.budget_chosen
                    .push((label, granted, questions, objective));
            }
            TraceEvent::RegressionFit {
                label,
                training_mse,
                rows,
                ..
            } => self.regressions.push((label, training_mse, rows)),
            TraceEvent::SpamFallback { .. } => self.spam_fallbacks += 1,
            TraceEvent::SolverFallback { label, reason } => {
                self.solver_fallbacks.push((label, reason));
            }
            TraceEvent::SpanStart { .. } => self.span_starts += 1,
            TraceEvent::SpanEnd {
                dur_ns,
                alloc_bytes,
                ..
            } => {
                self.span_ends += 1;
                self.span_alloc_bytes += alloc_bytes;
                let label = closed.map_or_else(|| "(unmatched)".into(), |span| span.label);
                match self.span_labels.iter_mut().find(|(l, _, _)| *l == label) {
                    Some(slot) => {
                        slot.1 += 1;
                        slot.2 += dur_ns;
                    }
                    None => self.span_labels.push((label, 1, dur_ns)),
                }
            }
            TraceEvent::QueryAudit { .. } => self.query_audits += 1,
            TraceEvent::ObjectAudit { .. } => self.object_audits += 1,
            TraceEvent::DriftUpdate { .. } => self.drift_updates += 1,
            TraceEvent::DriftDetected { .. } => self.drift_alarms += 1,
            TraceEvent::WorkerProfile { .. } => self.worker_profiles += 1,
            TraceEvent::WorkerStats { .. } => self.worker_stats += 1,
            TraceEvent::SpamDecision { answers, kept, .. } => {
                self.spam_decisions += 1;
                self.spam_answers_dropped += u64::from(answers.saturating_sub(kept));
            }
            TraceEvent::BatchFlush { .. } => {}
        }
    }

    /// Re-derives the always-on counter totals from events alone. Each
    /// pair `(counter, value)` uses the counter's exact increment
    /// semantics (e.g. [`Counter::DismantleChoices`] bumps only when an
    /// attribute was chosen, while a stop decision still emits an
    /// event). For offline runs — where every charged question crosses a
    /// `phase_spend` boundary — these equal the in-process
    /// [`RunSummary`] delta bit-for-bit.
    pub fn derived_counters(&self) -> Vec<(Counter, u64)> {
        let kind_total = |kind: &str| -> u64 {
            self.phases
                .iter()
                .filter_map(|p| p.by_kind.get(kind))
                .map(|&(q, _)| q)
                .sum()
        };
        let spend: i64 = self.phases.iter().map(|p| p.millicents).sum();
        vec![
            (Counter::QuestionsBinary, kind_total("binary value")),
            (Counter::QuestionsNumeric, kind_total("numeric value")),
            (Counter::QuestionsDismantle, kind_total("dismantle")),
            (Counter::QuestionsVerify, kind_total("verify")),
            (Counter::QuestionsExample, kind_total("example")),
            (Counter::SpendMillicents, spend.max(0) as u64),
            (Counter::DismantleChoices, self.dismantle_choices),
            (Counter::SprtAccepted, self.sprt_accepted),
            (Counter::SprtRejected, self.sprt_rejected),
            (Counter::SprtSamples, self.sprt_samples),
            (Counter::BudgetSteps, self.budget_steps),
            (Counter::RegressionFits, self.regressions.len() as u64),
            (Counter::SpamFallbacks, self.spam_fallbacks),
            (Counter::SolverFallbacks, self.solver_fallbacks.len() as u64),
            (Counter::AuditedQueries, self.query_audits),
            (Counter::AuditedObjects, self.object_audits),
            (Counter::DriftAlarms, self.drift_alarms),
        ]
    }

    /// Renders the full human-readable report.
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
        match self.runs.len() {
            0 => {}
            1 => {
                let _ = writeln!(out, "run: {} (seed {})", self.runs[0].0, self.runs[0].1);
            }
            n => {
                let _ = writeln!(out, "runs: {n} (first: {})", self.runs[0].0);
            }
        }
        if self.trio_peak != (0, 0) {
            let _ = writeln!(
                out,
                "trio peak: {} target(s) x {} attribute(s)",
                self.trio_peak.0, self.trio_peak.1
            );
        }

        if !self.phases.is_empty() {
            out.push_str("\nbudget attribution (B_prc by phase):\n");
            let mut t = Table::new(&["phase", "runs", "questions", "spend", "by kind"]).aligns(&[
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Left,
            ]);
            for p in &self.phases {
                let kinds: Vec<String> = p
                    .by_kind
                    .iter()
                    .map(|(k, &(q, mc))| format!("{k}: {q}q/{}", fmt_millicents(mc)))
                    .collect();
                t.row(vec![
                    p.phase.clone(),
                    p.occurrences.to_string(),
                    p.questions.to_string(),
                    fmt_millicents(p.millicents),
                    kinds.join(", "),
                ]);
            }
            let total_mc: i64 = self.phases.iter().map(|p| p.millicents).sum();
            let total_q: u64 = self.phases.iter().map(|p| p.questions).sum();
            t.row(vec![
                "total".into(),
                String::new(),
                total_q.to_string(),
                fmt_millicents(total_mc),
                String::new(),
            ]);
            out.push_str(&t.render());
        }

        let total_decisions = self.dismantle_choices + self.dismantle_stops;
        if total_decisions > 0 {
            let _ = writeln!(
                out,
                "\ndismantle decisions: {} chosen, {} stop signals",
                self.dismantle_choices, self.dismantle_stops
            );
            let mut t = Table::new(&[
                "decision",
                "candidate",
                "Pr(new|a_j)",
                "Σω[G−L]",
                "score",
                "",
            ])
            .aligns(&[
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Left,
            ]);
            for (i, d) in self.decisions.iter().enumerate() {
                if d.scores.is_empty() {
                    t.row(vec![
                        format!("#{}", i + 1),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        match d.chosen {
                            Some(c) => format!("chose a{c} (unscored)"),
                            None => "stop".into(),
                        },
                    ]);
                    continue;
                }
                for s in &d.scores {
                    let mark = if d.chosen == Some(s.index) {
                        "<- chosen"
                    } else {
                        ""
                    };
                    t.row(vec![
                        format!("#{}", i + 1),
                        format!("a{}", s.index),
                        fmt_f64(s.pr_new),
                        fmt_f64(s.value),
                        fmt_f64(s.score),
                        mark.into(),
                    ]);
                }
                if d.chosen.is_none() {
                    t.row(vec![
                        format!("#{}", i + 1),
                        "-".into(),
                        String::new(),
                        String::new(),
                        String::new(),
                        "stop (no positive score)".into(),
                    ]);
                }
            }
            out.push_str(&t.render());
            if total_decisions as usize > self.decisions.len() {
                let _ = writeln!(
                    out,
                    "(first {} of {} decisions shown)",
                    self.decisions.len(),
                    total_decisions
                );
            }
        }

        if self.sprt_accepted + self.sprt_rejected > 0 {
            let _ = writeln!(
                out,
                "\nSPRT verification: {} accepted, {} rejected, {} samples \
                 ({:.1} samples/verdict)",
                self.sprt_accepted,
                self.sprt_rejected,
                self.sprt_samples,
                self.sprt_samples as f64 / (self.sprt_accepted + self.sprt_rejected) as f64,
            );
            let mut t = Table::new(&["candidate", "verdict", "samples"]).aligns(&[
                Align::Left,
                Align::Left,
                Align::Right,
            ]);
            for v in &self.verdicts {
                t.row(vec![
                    v.candidate.clone(),
                    if v.accepted { "accept" } else { "reject" }.into(),
                    v.samples.to_string(),
                ]);
            }
            out.push_str(&t.render());
            if (self.sprt_accepted + self.sprt_rejected) as usize > self.verdicts.len() {
                let _ = writeln!(
                    out,
                    "(first {} of {} verdicts shown)",
                    self.verdicts.len(),
                    self.sprt_accepted + self.sprt_rejected
                );
            }
        }

        if self.budget_steps > 0 || !self.budget_chosen.is_empty() {
            let _ = writeln!(out, "\nbudget distribution: {} grants", self.budget_steps);
            let mut t = Table::new(&["call", "attrs granted", "questions", "objective"]).aligns(&[
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
            ]);
            for (label, granted, questions, objective) in &self.budget_chosen {
                t.row(vec![
                    label.clone(),
                    granted.to_string(),
                    questions.to_string(),
                    fmt_f64(*objective),
                ]);
            }
            if !t.is_empty() {
                out.push_str(&t.render());
            }
        }

        if !self.regressions.is_empty() {
            out.push_str("\nregressions fitted:\n");
            let mut t = Table::new(&["target", "training MSE", "rows"]).aligns(&[
                Align::Left,
                Align::Right,
                Align::Right,
            ]);
            for (label, mse, rows) in &self.regressions {
                t.row(vec![label.clone(), fmt_f64(*mse), rows.to_string()]);
            }
            out.push_str(&t.render());
        }

        if self.spam_fallbacks > 0 {
            let _ = writeln!(
                out,
                "\nspam-filter fallbacks: {} whole-batch rejections",
                self.spam_fallbacks
            );
        }

        if self.spam_decisions > 0 {
            let _ = writeln!(
                out,
                "\nspam decisions: {} batch(es) dropped {} answer(s)",
                self.spam_decisions, self.spam_answers_dropped
            );
        }

        if self.query_audits > 0 || self.drift_updates > 0 {
            let _ = writeln!(
                out,
                "\naudit ledger: {} query audit(s), {} object audit(s), \
                 {} drift update(s), {} drift alarm(s)",
                self.query_audits, self.object_audits, self.drift_updates, self.drift_alarms
            );
            out.push_str("(see `disq-insight explain` for the error attribution)\n");
        }

        if self.worker_profiles > 0 || self.worker_stats > 0 {
            let _ = writeln!(
                out,
                "\nworker provenance: {} profile(s), {} stats event(s)",
                self.worker_profiles, self.worker_stats
            );
            out.push_str("(see `disq-insight workers` for the scorecards)\n");
        }

        if !self.solver_fallbacks.is_empty() {
            let _ = writeln!(
                out,
                "\nbudget-solver fallbacks: {} incremental solves rescued by the dense engine",
                self.solver_fallbacks.len()
            );
            let mut t = Table::new(&["solve", "reason"]).aligns(&[Align::Left, Align::Left]);
            for (label, reason) in &self.solver_fallbacks {
                t.row(vec![label.clone(), reason.clone()]);
            }
            out.push_str(&t.render());
        }

        if self.span_starts > 0 {
            let _ = writeln!(
                out,
                "\nspans: {} opened, {} closed{}{}",
                self.span_starts,
                self.span_ends,
                match self.spans.open_spans() {
                    0 => String::new(),
                    n => format!(", {n} left open (truncated trace?)"),
                },
                match self.span_alloc_bytes {
                    0 => String::new(),
                    b => format!("; {b} heap bytes attributed"),
                },
            );
            let mut t = Table::new(&["span", "count", "total time"]).aligns(&[
                Align::Left,
                Align::Right,
                Align::Right,
            ]);
            for (label, count, dur_ns) in &self.span_labels {
                t.row(vec![label.clone(), count.to_string(), fmt_ns(*dur_ns)]);
            }
            out.push_str(&t.render());
            out.push_str("(see `disq-insight timeline`/`flame` for the hierarchy)\n");
        }

        out.push_str("\ncounters derived from events:\n");
        let mut t = Table::new(&["counter", "value"]).aligns(&[Align::Left, Align::Right]);
        for (c, v) in self.derived_counters() {
            t.row(vec![c.name().to_string(), v.to_string()]);
        }
        out.push_str(&t.render());
        out
    }

    /// Renders the aggregates as one JSON object (the `--json` mode).
    pub fn to_json(&self) -> String {
        use disq_trace::json::{write_f64, write_str};
        let mut o = String::from("{");
        let _ = write!(
            o,
            "\"parsed\":{},\"skipped\":{},",
            self.parsed, self.skipped
        );
        o.push_str("\"runs\":[");
        for (i, (label, seed)) in self.runs.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"label\":");
            write_str(&mut o, label);
            let _ = write!(o, ",\"seed\":{seed}}}");
        }
        o.push_str("],\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"phase\":");
            write_str(&mut o, &p.phase);
            let _ = write!(
                o,
                ",\"occurrences\":{},\"questions\":{},\"millicents\":{},\"by_kind\":{{",
                p.occurrences, p.questions, p.millicents
            );
            for (j, (kind, &(q, mc))) in p.by_kind.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                write_str(&mut o, kind);
                let _ = write!(o, ":{{\"questions\":{q},\"millicents\":{mc}}}");
            }
            o.push_str("}}");
        }
        let _ = write!(
            o,
            "],\"dismantle\":{{\"choices\":{},\"stops\":{}}},\
             \"sprt\":{{\"accepted\":{},\"rejected\":{},\"samples\":{}}},\
             \"budget_steps\":{},",
            self.dismantle_choices,
            self.dismantle_stops,
            self.sprt_accepted,
            self.sprt_rejected,
            self.sprt_samples,
            self.budget_steps
        );
        o.push_str("\"regressions\":[");
        for (i, (label, mse, rows)) in self.regressions.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"target\":");
            write_str(&mut o, label);
            o.push_str(",\"training_mse\":");
            write_f64(&mut o, *mse);
            let _ = write!(o, ",\"rows\":{rows}}}");
        }
        let _ = write!(
            o,
            "],\"spam\":{{\"fallbacks\":{},\"decisions\":{},\"answers_dropped\":{}}},\
             \"spans\":{{\"starts\":{},\"ends\":{},\"open\":{},\"alloc_bytes\":{}}},\
             \"audit\":{{\"query_audits\":{},\"object_audits\":{},\
             \"drift_updates\":{},\"drift_alarms\":{}}},\
             \"workers\":{{\"profiles\":{},\"stats\":{}}},",
            self.spam_fallbacks,
            self.spam_decisions,
            self.spam_answers_dropped,
            self.span_starts,
            self.span_ends,
            self.spans.open_spans(),
            self.span_alloc_bytes,
            self.query_audits,
            self.object_audits,
            self.drift_updates,
            self.drift_alarms,
            self.worker_profiles,
            self.worker_stats
        );
        o.push_str("\"counters\":{");
        for (i, (c, v)) in self.derived_counters().into_iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(o, "\"{}\":{v}", c.name());
        }
        o.push_str("}}");
        o
    }
}

/// Milli-cents rendered as cents or dollars.
pub fn fmt_millicents(mc: i64) -> String {
    let cents = mc as f64 / 1000.0;
    if cents.abs() >= 100.0 {
        format!("${:.2}", cents / 100.0)
    } else {
        format!("{cents:.2}c")
    }
}

/// Nanoseconds rendered at a human scale.
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}us", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Compact float rendering for tables.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if !(1e-3..1e6).contains(&a) {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disq_trace::KindSpend;

    fn phase(phase: &str, kind: &str, questions: u64, mc: i64) -> TraceEvent {
        TraceEvent::PhaseSpend {
            phase: phase.into(),
            spent_millicents: mc,
            delta_millicents: mc,
            delta_questions: questions,
            by_kind: vec![KindSpend {
                kind: kind.into(),
                questions,
                millicents: mc,
            }],
        }
    }

    #[test]
    fn phases_aggregate_across_runs() {
        let mut r = RunReport::default();
        r.absorb(phase("examples", "example", 10, 4000));
        r.absorb(phase("examples", "example", 6, 2500));
        r.absorb(phase("dismantle", "dismantle", 3, 1500));
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0].phase, "examples");
        assert_eq!(r.phases[0].occurrences, 2);
        assert_eq!(r.phases[0].questions, 16);
        assert_eq!(r.phases[0].millicents, 6500);
        assert_eq!(r.phases[0].by_kind["example"], (16, 6500));
        let derived = r.derived_counters();
        let get = |c: Counter| derived.iter().find(|(k, _)| *k == c).unwrap().1;
        assert_eq!(get(Counter::QuestionsExample), 16);
        assert_eq!(get(Counter::QuestionsDismantle), 3);
        assert_eq!(get(Counter::SpendMillicents), 8000);
    }

    #[test]
    fn solver_fallbacks_counted_and_rendered() {
        let mut r = RunReport::default();
        r.absorb(TraceEvent::SolverFallback {
            label: "main".into(),
            reason: "schur".into(),
        });
        r.absorb(TraceEvent::SolverFallback {
            label: "probe".into(),
            reason: "downdate".into(),
        });
        assert_eq!(r.solver_fallbacks.len(), 2);
        let derived = r.derived_counters();
        let fallbacks = derived
            .iter()
            .find(|(c, _)| *c == Counter::SolverFallbacks)
            .unwrap()
            .1;
        assert_eq!(fallbacks, 2);
        let text = r.render();
        assert!(text.contains("budget-solver fallbacks: 2"), "{text}");
        assert!(text.contains("schur"), "{text}");
        assert!(text.contains("probe"), "{text}");
    }

    #[test]
    fn dismantle_stop_counts_event_but_not_choice() {
        let mut r = RunReport::default();
        r.absorb(TraceEvent::DismantleChoice {
            chosen: Some(1),
            scores: vec![],
        });
        r.absorb(TraceEvent::DismantleChoice {
            chosen: None,
            scores: vec![],
        });
        assert_eq!(r.dismantle_choices, 1);
        assert_eq!(r.dismantle_stops, 1);
        let derived = r.derived_counters();
        let choices = derived
            .iter()
            .find(|(c, _)| *c == Counter::DismantleChoices)
            .unwrap()
            .1;
        assert_eq!(choices, 1, "stop signals do not bump the counter");
    }

    #[test]
    fn sprt_totals_and_render() {
        let mut r = RunReport::default();
        r.absorb(TraceEvent::SprtVerdict {
            candidate: "Has Meat".into(),
            parent: 2,
            accepted: true,
            samples: 9,
        });
        r.absorb(TraceEvent::SprtVerdict {
            candidate: "Junk".into(),
            parent: 2,
            accepted: false,
            samples: 4,
        });
        assert_eq!(r.sprt_accepted, 1);
        assert_eq!(r.sprt_rejected, 1);
        assert_eq!(r.sprt_samples, 13);
        let text = r.render();
        assert!(
            text.contains("1 accepted, 1 rejected, 13 samples"),
            "{text}"
        );
        assert!(text.contains("Has Meat"), "{text}");
    }

    #[test]
    fn report_from_reader_carries_skip_stats() {
        let good = TraceEvent::RunStart {
            label: "x".into(),
            seed: 1,
        }
        .to_json();
        let text = format!("{good}\ngarbage\n");
        let r = RunReport::from_reader(TraceReader::new(text.as_bytes()));
        assert_eq!(r.parsed, 1);
        assert_eq!(r.skipped, 1);
        assert_eq!(r.runs.len(), 1);
        assert!(r.render().contains("1 corrupt lines skipped"));
    }

    #[test]
    fn decision_table_marks_chosen_candidate() {
        let mut r = RunReport::default();
        r.absorb(TraceEvent::DismantleChoice {
            chosen: Some(2),
            scores: vec![
                CandidateScore {
                    index: 0,
                    pr_new: 0.5,
                    value: 0.2,
                    score: 0.1,
                },
                CandidateScore {
                    index: 2,
                    pr_new: 0.25,
                    value: 2.0,
                    score: 0.5,
                },
            ],
        });
        let text = r.render();
        let chosen_line = text
            .lines()
            .find(|l| l.contains("<- chosen"))
            .expect("chosen marked");
        assert!(chosen_line.contains("a2"), "{chosen_line}");
    }

    #[test]
    fn spans_joined_by_id_and_rendered() {
        let mut r = RunReport::default();
        r.absorb(TraceEvent::SpanStart {
            id: 1,
            parent: None,
            tid: 1,
            req: 0,
            label: "preprocess".into(),
            detail: String::new(),
        });
        r.absorb(TraceEvent::SpanStart {
            id: 2,
            parent: Some(1),
            tid: 1,
            req: 0,
            label: "examples".into(),
            detail: "n1=30".into(),
        });
        r.absorb(TraceEvent::SpanEnd {
            id: 2,
            tid: 1,
            dur_ns: 1_500_000,
            alloc_bytes: 4096,
            allocs: 10,
            questions: 60,
            kernel_ns: 0,
        });
        assert_eq!(r.span_starts, 2);
        assert_eq!(r.span_ends, 1);
        assert_eq!(r.span_alloc_bytes, 4096);
        assert_eq!(r.spans.open_spans(), 1);
        assert_eq!(r.span_labels, vec![("examples".to_string(), 1, 1_500_000)]);
        let text = r.render();
        assert!(
            text.contains("spans: 2 opened, 1 closed, 1 left open"),
            "{text}"
        );
        assert!(text.contains("4096 heap bytes"), "{text}");
        assert!(text.contains("examples"), "{text}");
    }

    #[test]
    fn audit_events_aggregate_and_derive_counters() {
        let mut r = RunReport::default();
        r.absorb(TraceEvent::ObjectAudit {
            query: 1,
            label: "fig1".into(),
            seed: 0,
            target: "Bmi".into(),
            object: 7,
            truth: 22.0,
            estimate: 23.0,
            residual: 1.0,
            noise_err: 0.6,
            model_err: 0.4,
            ci_lo: 21.0,
            ci_hi: 25.0,
            in_ci: true,
        });
        r.absorb(TraceEvent::QueryAudit {
            query: 1,
            label: "fig1".into(),
            seed: 0,
            target: "Bmi".into(),
            n_objects: 1,
            predicted_mse: 1.5,
            training_mse: 1.0,
            realized_mse: 1.0,
            noise_mse: 0.36,
            model_mse: 0.16,
            cross_mse: 0.48,
            error_floor: 1.2,
            budget_truncation: 0.3,
            ci_level: 0.95,
            ci_coverage: 1.0,
            attrs: vec![],
        });
        r.absorb(TraceEvent::DriftUpdate {
            label: "fig1".into(),
            attr: "Weight".into(),
            metric: "answer_var".into(),
            reference: 2.0,
            ewma: 0.1,
            score: 0.0,
            threshold: 5.0,
            samples: 150,
            alarms: 0,
        });
        r.absorb(TraceEvent::DriftDetected {
            label: "fig1".into(),
            attr: "Weight".into(),
            metric: "spam_rate".into(),
            observed: 0.3,
            reference: 0.0,
            score: 5.2,
            threshold: 5.0,
            sample: 9,
        });
        r.absorb(TraceEvent::SpamDecision {
            object: 7,
            attr: 0,
            answers: 8,
            kept: 6,
            median: 70.0,
            mad: 2.0,
        });
        assert_eq!(r.query_audits, 1);
        assert_eq!(r.object_audits, 1);
        assert_eq!(r.drift_updates, 1);
        assert_eq!(r.drift_alarms, 1);
        assert_eq!(r.spam_decisions, 1);
        assert_eq!(r.spam_answers_dropped, 2);
        let derived = r.derived_counters();
        let get = |c: Counter| derived.iter().find(|(k, _)| *k == c).unwrap().1;
        assert_eq!(get(Counter::AuditedQueries), 1);
        assert_eq!(get(Counter::AuditedObjects), 1);
        assert_eq!(get(Counter::DriftAlarms), 1);
        let text = r.render();
        assert!(
            text.contains("audit ledger: 1 query audit(s), 1 object audit(s)"),
            "{text}"
        );
        assert!(
            text.contains("spam decisions: 1 batch(es) dropped 2 answer(s)"),
            "{text}"
        );
    }

    /// A corrupt `spam_decision` that kept more answers than it saw
    /// counts as dropping none, in both folds that total the drops.
    #[test]
    fn corrupt_spam_decision_drops_nothing_instead_of_overflowing() {
        let line = r#"{"event":"spam_decision","object":1,"attr":0,"answers":5,"kept":7,"median":1.0,"mad":0.5}"#;
        let event = TraceEvent::parse(line).unwrap();
        let mut r = RunReport::default();
        r.absorb(event.clone());
        assert_eq!((r.spam_decisions, r.spam_answers_dropped), (1, 0));
        let mut e = crate::explain::ExplainReport::default();
        e.absorb(event);
        assert_eq!((e.spam_decisions, e.spam_dropped), (1, 0));
    }

    #[test]
    fn report_json_is_parseable_and_carries_counters() {
        let mut r = RunReport::default();
        r.absorb(TraceEvent::RunStart {
            label: "fig1".into(),
            seed: 3,
        });
        r.absorb(phase("examples", "example", 10, 4000));
        let doc = disq_trace::json::parse(&r.to_json()).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("questions_example"))
                .and_then(|v| v.as_u64()),
            Some(10)
        );
        assert_eq!(
            doc.get("runs").and_then(|r| r.as_arr()).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(
            doc.get("phases").and_then(|p| p.as_arr()).and_then(|p| p[0]
                .get("phase")
                .and_then(|v| v.as_str().map(str::to_string))),
            Some("examples".into())
        );
        assert_eq!(
            doc.get("audit")
                .and_then(|a| a.get("query_audits"))
                .and_then(|v| v.as_u64()),
            Some(0)
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_millicents(2500), "2.50c");
        assert_eq!(fmt_millicents(12_345_678), "$123.46");
        assert_eq!(fmt_ns(512), "512ns");
        assert_eq!(fmt_ns(2_048), "2.0us");
        assert_eq!(fmt_ns(3_000_000), "3.0ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.50s");
    }
}
