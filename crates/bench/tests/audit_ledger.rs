//! The audit ledger's accounting contracts, exercised through a real
//! traced repetition: exact error decomposition, bit-exact derived
//! counters, and bit-identical estimates with auditing on or off.

use disq_baselines::Baseline;
use disq_bench::runner::{run_cell, Cell, DomainKind, StrategyKind};
use disq_crowd::Money;
use disq_trace::{Counter, MemorySink, TraceEvent};
use std::sync::{Arc, Mutex};

/// The trace sink is process-global; tests in this binary serialize.
static GLOBAL_SINK_LOCK: Mutex<()> = Mutex::new(());

fn disq_cell() -> Cell {
    Cell::new(
        DomainKind::Pictures,
        &["Bmi"],
        StrategyKind::Baseline(Baseline::DisQ),
        Money::from_dollars(30.0),
        Money::from_cents(4.0),
    )
}

#[test]
fn audit_ledger_is_exact_and_bit_identical() {
    let _guard = GLOBAL_SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cell = disq_cell();

    // Reference run with tracing off: the audit path must not perturb it.
    let untraced = run_cell(&cell, 0).expect("untraced repetition");

    let sink = Arc::new(MemorySink::new());
    let before = disq_trace::summary();
    disq_trace::install(sink.clone());
    let traced = run_cell(&cell, 0).expect("traced repetition");
    disq_trace::uninstall();
    let delta = disq_trace::summary().delta_since(&before);
    let events = sink.take();

    // The audited estimator asks the same questions in the same order:
    // the scored error is bit-identical, not merely close.
    assert_eq!(untraced.error, traced.error);

    let query_audits: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::QueryAudit { .. }))
        .collect();
    let object_audits = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::ObjectAudit { .. }))
        .count();
    let drift_updates = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::DriftUpdate { .. }))
        .count();
    let drift_alarms = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::DriftDetected { .. }))
        .count();

    // Derived counters are bit-exact against the in-process RunSummary:
    // every audit event increments its counter adjacently.
    assert_eq!(
        delta.counter(Counter::AuditedQueries),
        query_audits.len() as u64
    );
    assert_eq!(delta.counter(Counter::AuditedObjects), object_audits as u64);
    assert_eq!(delta.counter(Counter::DriftAlarms), drift_alarms as u64);

    // One query target, 150 evaluated objects, and both drift metrics
    // reported for every planned attribute.
    assert_eq!(query_audits.len(), 1);
    assert_eq!(object_audits, 150);
    assert_eq!(
        drift_updates,
        2 * traced.plan.attributes.len(),
        "answer_var + spam_rate per planned attribute"
    );

    let TraceEvent::QueryAudit {
        query,
        n_objects,
        predicted_mse,
        realized_mse,
        noise_mse,
        model_mse,
        cross_mse,
        error_floor,
        budget_truncation,
        ci_coverage,
        attrs,
        ..
    } = query_audits[0]
    else {
        unreachable!()
    };

    // Every object row carries its ledger's correlation id — the join
    // key `disq-insight explain` aggregates on.
    assert!(events.iter().all(|e| !matches!(
        e,
        TraceEvent::ObjectAudit { query: q, .. } if q != query
    )));

    // The tentpole identity: the decomposition sums to the realized
    // per-object MSE within 1e-9 (it is exact per-object algebra; only
    // float summation order separates the two).
    assert_eq!(*n_objects, 150);
    let sum = noise_mse + model_mse + cross_mse;
    assert!(
        (sum - realized_mse).abs() <= 1e-9 * realized_mse.abs().max(1.0),
        "decomposition {sum} vs realized {realized_mse}"
    );
    assert!(*noise_mse >= 0.0 && *model_mse >= 0.0);
    assert!((0.0..=1.0).contains(ci_coverage));
    // The error floor prices an unbounded per-object budget: it can only
    // improve on the finite plan, and the difference is the truncation.
    assert!(*error_floor <= *predicted_mse);
    assert!((budget_truncation - (predicted_mse - error_floor)).abs() < 1e-12);

    // The per-attribute stream audit is self-consistent with the plan.
    assert_eq!(attrs.len(), traced.plan.attributes.len());
    for (a, p) in attrs.iter().zip(&traced.plan.attributes) {
        assert_eq!(a.label, p.label);
        assert_eq!(a.questions, p.questions);
        assert_eq!(a.batches, 150);
        assert_eq!(a.answers, 150 * p.questions as u64);
        assert!(a.dropped <= a.answers);
        assert!(a.planned_sc > 0.0);
    }
}

#[test]
fn spammy_crowd_trips_the_spam_drift_detector() {
    let _guard = GLOBAL_SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut cell = disq_cell();
    // A third of all answers are spam — far beyond the planned 0.0
    // reference; the CUSUM must alarm within the 150-object stream.
    cell.crowd.spam_rate = 0.35;

    let sink = Arc::new(MemorySink::new());
    let before = disq_trace::summary();
    disq_trace::install(sink.clone());
    let _ = run_cell(&cell, 1).expect("traced repetition");
    disq_trace::uninstall();
    let delta = disq_trace::summary().delta_since(&before);
    let events = sink.take();

    let spam_alarms = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::DriftDetected { metric, .. } if metric == "spam_rate"
            )
        })
        .count();
    assert!(spam_alarms > 0, "no spam_rate drift alarm at 35% spam");
    let total_alarms = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::DriftDetected { .. }))
        .count();
    assert_eq!(delta.counter(Counter::DriftAlarms), total_alarms as u64);
    // Spam decisions carry the filter's window statistics.
    assert!(events.iter().any(|e| matches!(
        e,
        TraceEvent::SpamDecision { mad, kept, answers, .. }
            if *mad >= 0.0 && kept <= answers
    )));
}
