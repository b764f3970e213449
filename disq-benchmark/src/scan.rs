//! `scan_1m`: the online kernel over a working set far larger than the
//! caches. Set-up samples a 10⁶-object pictures population and plans
//! `{Bmi}` [`PLANS`] times on differently seeded crowds. Each operation,
//! a scan, evaluates `Bmi >= 25` over every object on a fresh crowd as
//! ten `evaluate_query` calls over consecutive 10⁵-object blocks, each
//! block with the next plan in rotation.
//!
//! One plan asks 10, 13, 16 or 19 questions per object depending on its
//! crowd's answers, and a block's time follows. Rotating per block makes
//! every scan cost about the average plan, so scan times are unimodal
//! and a run measures the kernel rather than the few plans it drew.

use crate::layers::{self, Fingerprint, PlanLayer};
use crate::report::{Report, SERVE_ONLY};
use crate::schedule;
use crate::stats::{self, Timing};
use crate::timed::TimedSource;
use crate::{repeated_setup, Args};
use disq_core::online::evaluate_query;
use disq_core::EvaluationPlan;
use disq_crowd::{CrowdConfig, Money, SimulatedCrowd, ValueSource};
use disq_domain::{domains, AttributeId, ObjectId, Population, Predicate, PredicateOp, Query};
use std::sync::Arc;
use std::time::Instant;

/// Objects per scan.
pub const OBJECTS: usize = 1_000_000;
/// Objects per timed block.
const BLOCK: usize = 100_000;
/// Plans computed in set-up and rotated through, block by block.
const PLANS: usize = 32;
/// Blocks per scan.
const BLOCKS: usize = OBJECTS / BLOCK;

const TAG_POPULATION: u64 = 21;
const TAG_PLAN: u64 = 22;
const TAG_SCAN: u64 = 23;

fn b_prc() -> Money {
    Money::from_dollars(30.0)
}

fn b_obj() -> Money {
    Money::from_cents(4.0)
}

/// One set-up: the population, the `{Bmi}` plans and the query.
struct Rig {
    population: Population,
    bmi: AttributeId,
    plans: Vec<EvaluationPlan>,
    query: Query,
    objects: Vec<ObjectId>,
    variance: f64,
    sample_ms: f64,
}

/// Crowd seed of plan `k`.
fn plan_seed(seed: u64, k: usize) -> u64 {
    schedule::mix(seed, TAG_PLAN + ((k as u64) << 8))
}

fn plan_crowd(population: &Population, seed: u64, k: usize) -> SimulatedCrowd {
    SimulatedCrowd::new(
        population.clone(),
        CrowdConfig::default(),
        Some(b_prc()),
        plan_seed(seed, k),
    )
}

fn build_rig(seed: u64) -> Result<Rig, String> {
    let spec = Arc::new(domains::pictures::spec());
    let t = Instant::now();
    let mut rng = schedule::rng(seed, TAG_POPULATION);
    let population =
        Population::sample(Arc::clone(&spec), OBJECTS, &mut rng).map_err(|e| e.to_string())?;
    let sample_ms = t.elapsed().as_secs_f64() * 1e3;
    let bmi = spec.id_of("Bmi").ok_or("pictures has Bmi")?;
    let plans = (0..PLANS)
        .map(|k| {
            let mut crowd = plan_crowd(&population, seed, k);
            layers::plan(&mut crowd, &spec, &[bmi], b_obj(), plan_seed(seed, k))
                .map(|out| out.plan)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let predicate = Predicate {
        attr: bmi,
        op: PredicateOp::Ge,
        value: 25.0,
    };
    Ok(Rig {
        variance: population.empirical_variance(bmi),
        population,
        bmi,
        plans,
        query: Query::new(vec![bmi], vec![predicate]),
        objects: (0..OBJECTS).map(ObjectId).collect(),
        sample_ms,
    })
}

/// What one scan produced.
struct Scan {
    block_us: Vec<f64>,
    wall_s: f64,
    scanned: usize,
    all_finite: bool,
    err_sum: f64,
    rows: usize,
    print: Fingerprint,
}

impl Rig {
    fn crowd(&self, seed: u64, j: usize) -> SimulatedCrowd {
        SimulatedCrowd::new(
            self.population.clone(),
            CrowdConfig::default(),
            None,
            schedule::mix(seed, TAG_SCAN + ((j as u64) << 8)),
        )
    }

    /// Scan `j`: every object through `source`, block `b` with plan
    /// `(j·BLOCKS + b) mod PLANS`.
    fn scan<S: ValueSource>(&self, source: &mut S, j: usize) -> Result<Scan, String> {
        let mut scan = Scan {
            block_us: Vec::with_capacity(BLOCKS),
            wall_s: 0.0,
            scanned: 0,
            all_finite: true,
            err_sum: 0.0,
            rows: 0,
            print: Fingerprint::default(),
        };
        let start = Instant::now();
        for (b, block) in self.objects.chunks(BLOCK).enumerate() {
            let plan = &self.plans[(j * BLOCKS + b) % PLANS];
            let t = Instant::now();
            let result =
                evaluate_query(source, plan, &self.query, block).map_err(|e| e.to_string())?;
            scan.block_us.push(t.elapsed().as_secs_f64() * 1e6);
            scan.scanned += result.scanned;
            for row in &result.rows {
                let v = row.values[0];
                scan.all_finite &= v.is_finite();
                let d = v - self.population.value(row.object, self.bmi);
                scan.err_sum += d * d / self.variance;
            }
            scan.rows += result.rows.len();
            scan.print = scan.print.result(&result);
        }
        scan.wall_s = start.elapsed().as_secs_f64();
        Ok(scan)
    }
}

/// Scans on fresh crowds, scan index 0 upward, until `seconds` pass and
/// at least two scans (20 blocks, the fewest a median can be reported
/// from) are done.
fn pass(
    rig: &Rig,
    seed: u64,
    seconds: f64,
    mut scan: impl FnMut(SimulatedCrowd, usize) -> Result<Scan, String>,
) -> Result<Vec<Scan>, String> {
    let mut scans = Vec::new();
    let start = Instant::now();
    while scans.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let j = scans.len();
        scans.push(scan(rig.crowd(seed, j), j)?);
    }
    Ok(scans)
}

fn check_scans(scans: &[Scan], report: &mut Report) {
    let bad = scans
        .iter()
        .filter(|s| s.scanned != OBJECTS || !s.all_finite)
        .count();
    report.attempted += (scans.len() * OBJECTS / BLOCK) as u64;
    report.check(
        format!("every scan covers {OBJECTS} objects with finite estimates ({bad} did not)"),
        bad == 0,
    );
}

/// `scan_1m`.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    disq_trace::watermark_start();
    let (rig, times) = repeated_setup(|| build_rig(args.seed))?;
    report.set("setup_s", stats::median(&times));
    report.note(format!(
        "setup: {} set-ups sampling {OBJECTS} objects and planning {{Bmi}} {PLANS} times, median {:.3} s; the plans ask {:?} questions/object",
        times.len(),
        stats::median(&times),
        rig.plans.iter().map(|p| p.questions_per_object()).collect::<Vec<_>>()
    ));
    let window = if args.trace {
        0.5 * args.seconds
    } else {
        args.seconds
    };
    let scans = pass(&rig, args.seed, window, |mut c, j| rig.scan(&mut c, j))?;
    check_scans(&scans, &mut report);
    let blocks: Vec<f64> = scans.iter().flat_map(|s| s.block_us.clone()).collect();
    let timing = Timing::of(&blocks, 0.90).ok_or("too few blocks for a latency summary")?;
    let scan_us: Vec<f64> = scans.iter().map(|s| s.wall_s * 1e6).collect();
    let rates: Vec<f64> = scans.iter().map(|s| OBJECTS as f64 / s.wall_s).collect();
    let rate = stats::median(&rates);
    let rows: usize = scans.iter().map(|s| s.rows).sum();
    let error = scans.iter().map(|s| s.err_sum).sum::<f64>() / rows.max(1) as f64;
    report.note(format!(
        "scan_1m: {} scans, median {:.0} us; {BLOCK}-object blocks {}; objects/s per scan {}; normalized MSE of matched rows {error:.4}",
        scans.len(),
        stats::median(&scan_us),
        timing.describe("us"),
        stats::spread(&rates)
    ));
    report.set("latency_p50_us", stats::median(&scan_us));
    report.set("e2e.latency_tail_us", timing.tail);
    report.set("throughput_per_s", rate);
    if args.trace {
        report.set("quality.query_error", error);
        let questions: u32 = rig.plans.iter().map(|p| p.questions_per_object()).sum();
        report.set(
            "quality.questions_per_op",
            f64::from(questions) / PLANS as f64,
        );
        traced(&rig, args, &scans, stats::median(&scan_us), &mut report)?;
    }
    Ok(report)
}

fn traced(
    rig: &Rig,
    args: &Args,
    untraced: &[Scan],
    untraced_scan_us: f64,
    report: &mut Report,
) -> Result<(), String> {
    // Plan again behind TimedCrowd: the same seeds must give the same plans.
    let spec = rig.population.spec_arc();
    let mut layer = PlanLayer::default();
    let mut outputs = Vec::with_capacity(PLANS);
    let mut differ = 0;
    for (k, plan) in rig.plans.iter().enumerate() {
        let crowd = plan_crowd(&rig.population, args.seed, k);
        let out = layer
            .run(crowd, &spec, &[rig.bmi], b_obj(), plan_seed(args.seed, k))
            .map_err(|e| e.to_string())?;
        differ += usize::from(
            Fingerprint::default().plan(&out.plan) != Fingerprint::default().plan(plan),
        );
        outputs.push(out);
    }
    report.check(
        format!("the {PLANS} traced {{Bmi}} plans are bit-identical to the untraced ones ({differ} differ)"),
        differ == 0,
    );
    layer.report(report);
    let refs: Vec<_> = outputs.iter().collect();
    report.set(
        "core.budget_dist.solve_us",
        layers::budget_solve_us(&spec, &refs, b_obj()),
    );

    let mut ask_ns = 0u64;
    let mut questions = 0u64;
    let mut new_ns = 0u64;
    let mut batches = Vec::new();
    let (b0, a0) = (
        disq_trace::thread_alloc_bytes(),
        disq_trace::thread_allocs(),
    );
    let start = Instant::now();
    let scans = pass(rig, args.seed, 0.5 * args.seconds, |crowd, j| {
        let t = Instant::now();
        let mut source = TimedSource::new(crowd, 4096usize.saturating_sub(batches.len()));
        new_ns += t.elapsed().as_nanos() as u64;
        let scan = rig.scan(&mut source, j)?;
        ask_ns += source.clock.ns;
        questions += source.clock.questions;
        batches.append(&mut source.capture.batches);
        Ok(scan)
    })?;
    let pass_ns = start.elapsed().as_nanos() as f64;
    let bytes = disq_trace::thread_alloc_bytes() - b0;
    let allocs = disq_trace::thread_allocs() - a0;
    check_scans(&scans, report);
    let compared = scans.len().min(untraced.len());
    let mismatches = (0..compared)
        .filter(|&j| scans[j].print != untraced[j].print)
        .count();
    report.check(
        format!("traced scans reproduce the untraced estimates bit for bit ({compared} compared, {mismatches} differ)"),
        mismatches == 0 && compared > 0,
    );

    let blocks: Vec<f64> = scans.iter().flat_map(|s| s.block_us.clone()).collect();
    let eval_ns = blocks.iter().sum::<f64>() * 1e3;
    let scan_ns: f64 = scans.iter().map(|s| s.wall_s * 1e9).sum::<f64>() + new_ns as f64;
    let n_objects = (scans.len() * OBJECTS) as f64;
    let crowd_share = (ask_ns + new_ns) as f64 / scan_ns;
    let kernel_share = (eval_ns - ask_ns as f64) / scan_ns;
    report.set("crowd.sim.share", crowd_share);
    report.set("core.online.share", kernel_share);
    report.zero(&["core.preprocess.share", "core.metrics.share"]);
    let covered = crowd_share + kernel_share;
    report.set("trace.coverage", covered);
    report.check(
        format!(
            "named layers cover {:.1}% of traced scan time (>= 95%)",
            covered * 100.0
        ),
        covered >= crate::report::MIN_COVERAGE,
    );
    let traced_scan_us = stats::median(&scans.iter().map(|s| s.wall_s * 1e6).collect::<Vec<_>>());
    report.set("trace.overhead_ratio", traced_scan_us / untraced_scan_us);
    report.note(format!(
        "layers per scan (mean ms): scan {:.1} = crowd {:.1} + kernel self {:.1}; median scan {traced_scan_us:.0} us traced vs {:.0} us untraced; coverage {:.1}% of {:.2} s",
        scan_ns / 1e6 / scans.len() as f64,
        (ask_ns + new_ns) as f64 / 1e6 / scans.len() as f64,
        (eval_ns - ask_ns as f64) / 1e6 / scans.len() as f64,
        untraced_scan_us,
        covered * 100.0,
        pass_ns / 1e9
    ));
    report.set("core.online.eval_us", stats::mean(&blocks));
    report.set(
        "core.online.kernel_self_ns_per_object",
        (eval_ns - ask_ns as f64) / n_objects,
    );
    report.set(
        "crowd.sim.value_ns_per_question",
        ask_ns as f64 / questions.max(1) as f64,
    );
    report.set(
        "crowd.spam.filter_ns_per_batch",
        layers::spam_filter_ns(&batches),
    );
    report.set("crowd.sim.value_per_op", questions as f64 / n_objects);
    report.zero(&[
        "crowd.sim.dismantle_per_op",
        "crowd.sim.verify_per_op",
        "crowd.sim.example_per_op",
    ]);
    report.set("alloc.bytes_per_object", bytes as f64 / n_objects);
    report.set("alloc.calls_per_object", allocs as f64 / n_objects);
    report.set("domain.population.sample_ms", rig.sample_ms);
    report.zero(SERVE_ONLY);
    Ok(())
}
