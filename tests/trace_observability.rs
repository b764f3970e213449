//! End-to-end observability: a real preprocessing run traced through a
//! sink must (a) leave the algorithm's output bit-identical — down to
//! the allocation count, since [`disq::trace::CountingAlloc`] is this
//! binary's global allocator via the facade crate — (b) emit a typed
//! event for every dismantle decision, SPRT verdict, budget phase
//! transition and pipeline span, and (c) round-trip through the JSONL
//! format and the Chrome-trace timeline exporter.
//!
//! The trace sink is process-global, so every test here serializes on
//! one mutex.

use disq::core::{preprocess, DisqConfig, PreprocessOutput};
use disq::crowd::{CrowdConfig, Money, PricingModel, SimulatedCrowd};
use disq::domain::{domains::pictures, Population};
use disq::trace::{self, Counter, MemorySink, TraceEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

static GLOBAL_SINK_LOCK: Mutex<()> = Mutex::new(());

fn run_preprocess(seed: u64) -> PreprocessOutput {
    let spec = Arc::new(pictures::spec());
    let bmi = spec.id_of("Bmi").unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = Population::sample(Arc::clone(&spec), 2_000, &mut rng).unwrap();
    let mut crowd = SimulatedCrowd::new(
        pop,
        CrowdConfig::default(),
        Some(Money::from_dollars(20.0)),
        seed,
    );
    preprocess(
        &mut crowd,
        &spec,
        &[bmi],
        Money::from_cents(4.0),
        &DisqConfig::default(),
        &PricingModel::paper(),
        None,
        seed,
    )
    .unwrap()
}

#[test]
fn traced_run_is_bit_identical_and_covers_all_decisions() {
    let _guard = GLOBAL_SINK_LOCK.lock().unwrap();
    trace::uninstall();

    let baseline = run_preprocess(11);

    let sink = Arc::new(MemorySink::new());
    let before = trace::summary();
    trace::install(sink.clone());
    let traced = run_preprocess(11);
    trace::uninstall();
    let delta = trace::summary().delta_since(&before);
    let events = sink.take();

    // (a) Observation must not perturb the algorithm.
    assert_eq!(baseline.plan, traced.plan);
    assert_eq!(baseline.budget, traced.budget);
    assert_eq!(baseline.stats.discovered, traced.stats.discovered);
    assert_eq!(baseline.stats.spent, traced.stats.spent);

    // (b) Event coverage.
    let count = |pred: &dyn Fn(&TraceEvent) -> bool| events.iter().filter(|e| pred(e)).count();
    assert!(
        count(&|e| matches!(e, TraceEvent::RunStart { .. })) == 1,
        "exactly one run_start"
    );
    let phases: Vec<String> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::PhaseSpend { phase, .. } => Some(phase.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(phases, ["examples", "dismantle", "refine", "regression"]);
    // Every dismantle question the stats counted corresponds to a
    // dismantle_choice decision event (Random strategy aside, the
    // default Optimal strategy emits one per chosen question).
    let choices = count(&|e| {
        matches!(
            e,
            TraceEvent::DismantleChoice {
                chosen: Some(_),
                ..
            }
        )
    });
    assert_eq!(choices as u32, traced.stats.dismantle_questions);
    // Every verification dialogue ends in exactly one verdict. The stats
    // can undercount by one: an accepted candidate whose statistics are
    // no longer affordable is dropped after its verdict.
    let verdicts = count(&|e| matches!(e, TraceEvent::SprtVerdict { .. })) as u32;
    let expected_verdicts =
        traced.stats.discovered.len() as u32 + traced.stats.rejected + traced.stats.junk;
    assert!(
        verdicts == expected_verdicts || verdicts == expected_verdicts + 1,
        "verdicts {verdicts} vs stats {expected_verdicts}"
    );
    // Chosen-candidate scores carry the Eq. 8 ingredients.
    let has_scored_choice = events.iter().any(|e| match e {
        TraceEvent::DismantleChoice { scores, .. } => {
            scores.iter().any(|s| s.score.is_finite() && s.pr_new > 0.0)
        }
        _ => false,
    });
    assert!(has_scored_choice, "no candidate score breakdown captured");
    // The budget distribution ran and granted questions.
    let grants = count(&|e| matches!(e, TraceEvent::BudgetStep { .. }));
    assert!(grants > 0, "no budget_step events");
    let chosen_allocs: Vec<&Vec<u32>> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::BudgetChosen {
                label, allocation, ..
            } if label == "main" => Some(allocation),
            _ => None,
        })
        .collect();
    assert_eq!(chosen_allocs.len(), 1);
    assert_eq!(chosen_allocs[0].len(), traced.budget.len());
    assert!(count(&|e| matches!(e, TraceEvent::TrioSize { .. })) >= 1);
    assert!(count(&|e| matches!(e, TraceEvent::RegressionFit { .. })) >= 1);
    // Spans: every start matched by exactly one end, none left open, and
    // the label set covers the whole pipeline.
    let mut open: BTreeMap<u64, String> = BTreeMap::new();
    let mut labels: BTreeSet<String> = BTreeSet::new();
    let mut root_end: Option<(u64, u64, u64)> = None; // (alloc_bytes, allocs, questions)
    let mut root_id = None;
    for e in &events {
        match e {
            TraceEvent::SpanStart {
                id, parent, label, ..
            } => {
                labels.insert(label.clone());
                if parent.is_none() && label == "preprocess" {
                    root_id = Some(*id);
                }
                assert!(
                    open.insert(*id, label.clone()).is_none(),
                    "span {id} started twice"
                );
            }
            TraceEvent::SpanEnd {
                id,
                alloc_bytes,
                allocs,
                questions,
                ..
            } => {
                assert!(open.remove(id).is_some(), "span_end {id} without a start");
                if Some(*id) == root_id {
                    root_end = Some((*alloc_bytes, *allocs, *questions));
                }
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "spans left open: {open:?}");
    for required in [
        "preprocess",
        "examples",
        "target",
        "dismantle",
        "dismantle_round",
        "refine",
        "budget_dist",
        "regression",
    ] {
        assert!(
            labels.contains(required),
            "no {required} span in {labels:?}"
        );
    }
    // The root span attributes the run's full resource footprint: every
    // crowd question charged inside it, plus the heap traffic seen by the
    // counting allocator (installed as this binary's global allocator).
    let (root_bytes, root_allocs, root_questions) = root_end.expect("preprocess span closed");
    assert_eq!(root_questions, delta.total_questions());
    assert!(root_allocs > 0, "counting allocator not attributing spans");
    assert!(root_bytes > 0);

    // (c) Counters moved in lockstep with the events.
    assert!(delta.counter(Counter::DismantleChoices) >= choices as u64);
    assert!(
        delta.counter(Counter::SprtAccepted) + delta.counter(Counter::SprtRejected)
            >= verdicts as u64
    );
    assert!(delta.counter(Counter::QuestionsDismantle) >= traced.stats.dismantle_questions as u64);
    assert!(delta.total_questions() > 0);
    // Kernel timers only tick while a sink is installed, and the greedy
    // loop factorizes constantly.
    assert!(delta.timer(disq::trace::Timer::QuadFormFactorize).count > 0);
    assert!(delta.timer(disq::trace::Timer::CrowdQuestion).count > 0);
}

#[test]
fn jsonl_sink_round_trips_every_event() {
    let _guard = GLOBAL_SINK_LOCK.lock().unwrap();
    trace::uninstall();

    let dir = std::env::temp_dir().join(format!("disq-trace-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.jsonl");

    let sink = Arc::new(trace::JsonlSink::create(&path).unwrap());
    trace::install(sink);
    let _ = run_preprocess(12);
    trace::uninstall();

    let text = std::fs::read_to_string(&path).unwrap();
    let mut parsed = Vec::new();
    for (i, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        match TraceEvent::parse(line) {
            Ok(e) => parsed.push(e),
            Err(e) => panic!("line {}: {e}\n  {line}", i + 1),
        }
    }
    assert!(!parsed.is_empty());
    // Every line is stamped with a monotone `t_us` clock; stripping the
    // stamp and re-serializing the parsed event reproduces the line:
    // floats round-trip bit-exactly through Rust's shortest Display.
    let mut last_t_us = 0u64;
    for (line, event) in text.lines().filter(|l| !l.trim().is_empty()).zip(&parsed) {
        let rest = line
            .strip_prefix("{\"t_us\":")
            .unwrap_or_else(|| panic!("line not stamped: {line}"));
        let (stamp, body) = rest.split_once(',').expect("stamp then event body");
        let t_us: u64 = stamp
            .parse()
            .unwrap_or_else(|e| panic!("bad t_us {stamp:?}: {e}"));
        assert!(
            t_us >= last_t_us,
            "t_us went backwards: {t_us} < {last_t_us}"
        );
        last_t_us = t_us;
        assert_eq!(format!("{{{body}"), event.to_json());
    }
    // The acceptance surface is present in file form too.
    assert!(parsed
        .iter()
        .any(|e| matches!(e, TraceEvent::DismantleChoice { .. })));
    assert!(parsed
        .iter()
        .any(|e| matches!(e, TraceEvent::SprtVerdict { .. })));
    assert!(parsed
        .iter()
        .any(|e| matches!(e, TraceEvent::PhaseSpend { .. })));
    assert!(parsed
        .iter()
        .any(|e| matches!(e, TraceEvent::SpanStart { .. })));

    std::fs::remove_dir_all(&dir).ok();
}

/// With tracing off, observation must vanish entirely: two identical
/// runs on the same thread request exactly the same number of heap
/// allocations and bytes, as counted by the [`trace::CountingAlloc`]
/// this binary installs through the facade crate.
#[test]
fn untraced_runs_are_allocation_identical() {
    let _guard = GLOBAL_SINK_LOCK.lock().unwrap();
    trace::uninstall();

    // Warm-up: one-time lazy initialization (env probe, TLS, epoch)
    // allocates on the first run only.
    let _ = run_preprocess(13);

    let measure = || {
        let bytes0 = trace::span::thread_alloc_bytes();
        let allocs0 = trace::span::thread_allocs();
        let out = run_preprocess(13);
        (
            trace::span::thread_alloc_bytes().wrapping_sub(bytes0),
            trace::span::thread_allocs().wrapping_sub(allocs0),
            out,
        )
    };
    let (bytes_a, allocs_a, out_a) = measure();
    let (bytes_b, allocs_b, out_b) = measure();
    assert_eq!(out_a.plan, out_b.plan);
    assert!(
        allocs_a > 0,
        "counting allocator not installed as #[global_allocator]?"
    );
    assert_eq!(allocs_a, allocs_b, "allocation counts diverged");
    assert_eq!(bytes_a, bytes_b, "allocated bytes diverged");
}

/// A real traced run exported through `disq-insight timeline` must yield
/// schema-valid Chrome trace JSON in which every span_end found its
/// span_start.
#[test]
fn timeline_export_round_trips_spans() {
    let _guard = GLOBAL_SINK_LOCK.lock().unwrap();
    trace::uninstall();

    let dir = std::env::temp_dir().join(format!("disq-timeline-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.jsonl");

    let sink = Arc::new(trace::JsonlSink::create(&path).unwrap());
    trace::install(sink);
    let _ = run_preprocess(14);
    trace::uninstall();

    let mut reader = trace::TraceReader::open(&path).unwrap();
    let tl = disq_insight::Timeline::from_reader(&mut reader);
    assert!(reader.skip_warning().is_none(), "trace lines skipped");
    assert!(tl.spans_complete > 0, "no spans exported");
    assert_eq!(tl.spans.unmatched_ends, 0, "span_end without span_start");
    assert_eq!(tl.spans.open_spans(), 0, "spans left open");

    let rendered = tl.render();
    let n = disq_insight::timeline::validate(&rendered).expect("schema-valid Chrome trace");
    assert!(n >= tl.spans_complete + tl.instants);
    // The pipeline spans survive export by name.
    for label in ["preprocess", "dismantle_round", "budget_dist"] {
        assert!(
            rendered.contains(&format!("\"name\":\"{label}\"")),
            "timeline lost the {label} span"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
