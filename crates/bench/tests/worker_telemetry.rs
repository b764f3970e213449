//! Acceptance tests for the worker provenance layer: the homogeneous
//! default must be invisible (pool size never perturbs the estimate),
//! and under the heterogeneous model the shrinkage scorecards must
//! recover the planted quality ranking and flag the spammers.

use disq_baselines::Baseline;
use disq_bench::runner::{run_cell, Cell, DomainKind, StrategyKind};
use disq_crowd::{Money, WorkerModel};
use disq_insight::WorkersReport;
use disq_trace::{MemorySink, TraceEvent};
use std::sync::{Arc, Mutex};

/// The trace sink is process-global; tests in this binary serialize.
static GLOBAL_SINK_LOCK: Mutex<()> = Mutex::new(());

fn fig1_cell() -> Cell {
    Cell::new(
        DomainKind::Pictures,
        &["Bmi"],
        StrategyKind::Baseline(Baseline::DisQ),
        Money::from_dollars(30.0),
        Money::from_cents(4.0),
    )
}

/// Homogeneous mode is the default and must be a pure relabelling: the
/// worker-id stream is drawn from its own salted RNG, so changing the
/// pool size cannot perturb a single answer. The scored error is
/// bit-identical across pool sizes, not merely close.
#[test]
fn homogeneous_pool_size_never_perturbs_the_estimate() {
    let _guard = GLOBAL_SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let reference = run_cell(&fig1_cell(), 0).expect("default pool");
    for pool in [1usize, 64] {
        let mut cell = fig1_cell();
        cell.crowd.workers.pool = pool;
        let out = run_cell(&cell, 0).expect("resized pool");
        assert_eq!(
            reference.error.to_bits(),
            out.error.to_bits(),
            "pool {pool} changed the homogeneous estimate"
        );
    }
}

/// The ISSUE's acceptance bar: plant known per-worker qualities over a
/// ≥32-worker heterogeneous pool, run a traced repetition, and prove
/// the James–Stein-shrunk quality estimates rank-correlate with the
/// planted noise multipliers (Spearman ≥ 0.9) while a planted spammer
/// surfaces among the worst-K offenders.
#[test]
fn heterogeneous_shrinkage_recovers_planted_quality_ranking() {
    let _guard = GLOBAL_SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut cell = fig1_cell();
    cell.crowd.workers.pool = 32;
    cell.crowd.workers.model = WorkerModel::Heterogeneous;

    let sink = Arc::new(MemorySink::new());
    disq_trace::install(sink.clone());
    // Several repetitions so every worker accumulates enough residuals
    // for a stable variance estimate; the scorecard builder aggregates
    // stats events across runs by worker id.
    for rep in 0..8 {
        run_cell(&cell, rep).expect("traced heterogeneous repetition");
    }
    disq_trace::uninstall();
    let events = sink.take();

    let report = WorkersReport::from_events(events);
    assert_eq!(report.len(), 32, "every pool member earns a scorecard");

    // Shrunk quality must track the planted noise-sd multipliers.
    let rho = report
        .quality_rank_correlation()
        .expect("planted profiles joined with estimates");
    assert!(
        rho >= 0.9,
        "Spearman {rho:.3} < 0.9 against planted quality"
    );

    // The planted spammer subpopulation (12.5% of 32 = 4 workers at
    // 85% spam propensity) dominates the worst-offender ranking.
    let offenders = report.offenders();
    let top: Vec<_> = offenders.iter().take(5).collect();
    assert!(
        top.iter().any(|c| c.spam_propensity > 0.5),
        "no planted spammer in the top offenders: {:?}",
        top.iter()
            .map(|c| (c.worker, c.spam_propensity))
            .collect::<Vec<_>>()
    );
}

/// The provenance ledger is internally consistent: stats events join
/// onto planted profiles, and the per-worker answer tallies sum to the
/// crowd-wide totals the audit ledger reports.
#[test]
fn worker_events_join_profiles_and_conserve_answer_counts() {
    let _guard = GLOBAL_SINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cell = fig1_cell();

    let sink = Arc::new(MemorySink::new());
    disq_trace::install(sink.clone());
    let traced = run_cell(&cell, 0).expect("traced repetition");
    disq_trace::uninstall();
    let events = sink.take();

    let profile_ids: Vec<u32> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::WorkerProfile { worker, .. } => Some(*worker),
            _ => None,
        })
        .collect();
    assert_eq!(profile_ids.len(), 16, "default pool emits 16 profiles");

    let mut stats_answers = 0u64;
    for e in &events {
        if let TraceEvent::WorkerStats {
            worker,
            binary_answers,
            numeric_answers,
            rejected,
            spent_millicents,
            residual_n,
            ..
        } = e
        {
            assert!(
                profile_ids.contains(worker),
                "stats for unplanted worker {worker}"
            );
            assert!(rejected <= &(binary_answers + numeric_answers));
            assert!(residual_n <= &(binary_answers + numeric_answers));
            assert!(*spent_millicents >= 0);
            stats_answers += binary_answers + numeric_answers;
        }
    }

    // Conservation: every answer the audited attribute streams counted
    // was attributed to exactly one worker.
    let audited_answers: u64 = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::QueryAudit { attrs, .. } => {
                Some(attrs.iter().map(|a| a.answers).sum::<u64>())
            }
            _ => None,
        })
        .sum();
    assert!(audited_answers > 0, "no audited answers in the trace");
    assert!(
        stats_answers >= audited_answers,
        "worker tallies {stats_answers} < audited answers {audited_answers}"
    );
    let _ = traced;
}
