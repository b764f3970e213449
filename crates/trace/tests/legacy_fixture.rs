//! Golden traces written by the hand-kept codec that predates the
//! table-driven schema: every line must still parse, every all-finite
//! line must re-encode byte for byte, and the old `null` encoding of a
//! non-finite float must read back as NaN.
//!
//! The fixture covers every event kind, `chosen`/`parent` both null and
//! set, and a `span_start` without the additive `req` field. Its last
//! line is the fixture's `query_audit` with `predicted_mse` written as
//! `null`, the old encoding of a non-finite float; today's encoder
//! writes a `"bits:…"` string instead.

use disq_trace::{AttrAudit, CandidateScore, KindSpend, TraceEvent};
use std::collections::BTreeSet;

const FIXTURE: &str = include_str!("fixtures/legacy.jsonl");

const LABEL: &str = "pictures/{Bmi} DisQ b_prc=$30 b_obj=4.0¢";

/// The events behind every fixture line except the last, in file order.
fn finite_events() -> Vec<TraceEvent> {
    vec![
        TraceEvent::RunStart {
            label: "pictures / {Bmi} \"quoted\" \\ tab\t é".into(),
            seed: 42,
        },
        TraceEvent::PhaseSpend {
            phase: "examples".into(),
            spent_millicents: 123_456,
            delta_millicents: -250,
            delta_questions: 40,
            by_kind: vec![
                KindSpend {
                    kind: "example".into(),
                    questions: 40,
                    millicents: 123_456,
                },
                KindSpend {
                    kind: "verify".into(),
                    questions: 3,
                    millicents: -250,
                },
            ],
        },
        TraceEvent::DismantleChoice {
            chosen: Some(2),
            scores: vec![
                CandidateScore {
                    index: 0,
                    pr_new: 0.5,
                    value: 1.0 / 3.0,
                    score: 1.0 / 6.0,
                },
                CandidateScore {
                    index: 2,
                    pr_new: 0.25,
                    value: -0.0,
                    score: 1e-300,
                },
            ],
        },
        TraceEvent::DismantleChoice {
            chosen: None,
            scores: vec![],
        },
        TraceEvent::SprtVerdict {
            candidate: "Has \"Meat\"".into(),
            parent: 3,
            accepted: true,
            samples: 7,
        },
        TraceEvent::TrioSize {
            n_targets: 2,
            n_attrs: 5,
        },
        TraceEvent::BudgetStep {
            label: "main".into(),
            attr: 1,
            question: 3,
            objective: 0.725,
        },
        TraceEvent::BudgetChosen {
            label: "refine".into(),
            allocation: vec![5, 10, 0, 3],
            objective: 0.81,
        },
        TraceEvent::RegressionFit {
            target: 0,
            label: "Bmi".into(),
            training_mse: 4.25,
            rows: 58,
        },
        TraceEvent::SpamFallback {
            object: 17,
            attr: 4,
            answers: 6,
        },
        TraceEvent::SolverFallback {
            label: "probe".into(),
            reason: "schur".into(),
        },
        TraceEvent::SpamDecision {
            object: 17,
            attr: 4,
            answers: 6,
            kept: 5,
            median: 23.5,
            mad: 2.9652,
        },
        TraceEvent::QueryAudit {
            query: 12,
            label: LABEL.into(),
            seed: 3,
            target: "Bmi".into(),
            n_objects: 150,
            predicted_mse: 3.75,
            training_mse: 4.25,
            realized_mse: 4.5,
            noise_mse: 2.5,
            model_mse: 1.75,
            cross_mse: 0.25,
            error_floor: 1.5,
            budget_truncation: 2.25,
            ci_level: 0.95,
            ci_coverage: 0.9266666666666666,
            attrs: vec![
                AttrAudit {
                    label: "Weight".into(),
                    questions: 5,
                    batches: 150,
                    answers: 750,
                    dropped: 12,
                    fallbacks: 1,
                    planned_sc: 40.0,
                    realized_sc: 43.7,
                },
                AttrAudit {
                    label: "Height".into(),
                    questions: 3,
                    batches: 150,
                    answers: 450,
                    dropped: 0,
                    fallbacks: 0,
                    planned_sc: 0.01,
                    realized_sc: 0.008,
                },
            ],
        },
        TraceEvent::ObjectAudit {
            query: 12,
            label: LABEL.into(),
            seed: 3,
            target: "Bmi".into(),
            object: 117,
            truth: 24.0,
            estimate: 25.5,
            residual: 1.5,
            noise_err: 1.0,
            model_err: 0.5,
            ci_lo: 21.7,
            ci_hi: 29.3,
            in_ci: false,
        },
        TraceEvent::DriftUpdate {
            label: LABEL.into(),
            attr: "Weight".into(),
            metric: "answer_var".into(),
            reference: 40.0,
            ewma: 0.35,
            score: 1.25,
            threshold: 5.0,
            samples: 150,
            alarms: 0,
        },
        TraceEvent::DriftDetected {
            label: LABEL.into(),
            attr: "Weight".into(),
            metric: "spam_rate".into(),
            observed: 0.4,
            reference: 0.0,
            score: 5.2,
            threshold: 5.0,
            sample: 31,
        },
        TraceEvent::WorkerProfile {
            label: LABEL.into(),
            worker: 7,
            sd_multiplier: 1.62,
            spam_propensity: 0.85,
        },
        TraceEvent::WorkerStats {
            label: LABEL.into(),
            seed: 3,
            worker: 7,
            binary_answers: 12,
            numeric_answers: 88,
            rejected: 19,
            spent_millicents: 36_400,
            residual_n: 81,
            residual_sum: -2.5,
            residual_sq: 130.75,
        },
        TraceEvent::SpanStart {
            id: 42,
            parent: Some(41),
            tid: 1,
            req: 7,
            label: "dismantle_round".into(),
            detail: "k=3".into(),
        },
        // Written before request scoping existed: no `req` field.
        TraceEvent::SpanStart {
            id: 43,
            parent: None,
            tid: 2,
            req: 0,
            label: "preprocess".into(),
            detail: String::new(),
        },
        TraceEvent::SpanEnd {
            id: 42,
            tid: 1,
            dur_ns: 12_345_678,
            alloc_bytes: 1 << 33,
            allocs: 9_001,
            questions: 57,
            kernel_ns: 2_000_000,
        },
        TraceEvent::BatchFlush {
            object: 12,
            attr: 3,
            k_max: 5,
            k_sum: 9,
            joiners: 3,
            reqs: vec![0, 7, 8, 11],
        },
    ]
}

fn fixture_lines() -> (Vec<&'static str>, &'static str) {
    let mut lines: Vec<&str> = FIXTURE.lines().collect();
    let last = lines.pop().expect("fixture is empty");
    (lines, last)
}

#[test]
fn legacy_lines_parse_to_the_expected_events() {
    let (lines, _) = fixture_lines();
    let expected = finite_events();
    assert_eq!(lines.len(), expected.len());
    for (line, want) in lines.iter().zip(&expected) {
        let got = TraceEvent::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(&got, want, "{line}");
    }
}

#[test]
fn legacy_finite_lines_re_encode_byte_for_byte() {
    let (lines, _) = fixture_lines();
    for line in lines {
        assert_eq!(TraceEvent::parse(line).unwrap().to_json(), line);
    }
}

#[test]
fn legacy_null_float_reads_back_as_nan() {
    let (_, last) = fixture_lines();
    assert!(last.contains("\"predicted_mse\":null"), "{last}");
    match TraceEvent::parse(last).unwrap() {
        TraceEvent::QueryAudit {
            predicted_mse,
            training_mse,
            n_objects,
            ..
        } => {
            assert!(predicted_mse.is_nan());
            assert_eq!(training_mse, 4.25);
            assert_eq!(n_objects, 150);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn fixture_covers_every_kind() {
    let names: BTreeSet<&str> = finite_events().iter().map(TraceEvent::name).collect();
    let kinds: BTreeSet<&str> = TraceEvent::KINDS.iter().copied().collect();
    assert_eq!(names, kinds);
}
