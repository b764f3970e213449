//! `plan_cold`: the offline phase over and over. Each operation is one
//! fig. 1 cell — `preprocess` on a fresh budget-capped crowd, then
//! `evaluate_query` on 150 objects, then the paper's weighted query
//! error — rotating through the cells below.

use crate::layers::{self, Fingerprint, PlanLayer};
use crate::report::{Report, SERVE_ONLY};
use crate::schedule;
use crate::stats::{self, Timing};
use crate::timed::TimedSource;
use crate::{repeated_setup, Args};
use disq_core::metrics;
use disq_core::online::{evaluate_query, QueryResult};
use disq_core::PreprocessOutput;
use disq_crowd::{CrowdConfig, CrowdPlatform, Money, PricingModel, SimulatedCrowd};
use disq_domain::{domains, AttributeId, DomainSpec, ObjectId, Population, Query};
use std::sync::Arc;
use std::time::Instant;

/// World size per domain.
const POPULATION: usize = 2000;
/// Objects evaluated online per cell.
const EVAL_OBJECTS: usize = 150;

/// The rotation: fig. 1's queries × `B_prc`. `{Bmi, Age}` cannot afford
/// its example sets at $10 (`BudgetTooSmall`), so it runs at $20 and $30
/// only; every cell here plans successfully.
const CELLS: [(usize, &[&str], f64); 8] = [
    (0, &["Bmi"], 10.0),
    (0, &["Bmi"], 20.0),
    (0, &["Bmi"], 30.0),
    (1, &["Protein"], 10.0),
    (1, &["Protein"], 20.0),
    (1, &["Protein"], 30.0),
    (0, &["Bmi", "Age"], 20.0),
    (0, &["Bmi", "Age"], 30.0),
];

const TAG_WORLDS: u64 = 11;
const TAG_CELLS: u64 = 12;

/// The per-object online budget `B_obj`.
fn b_obj() -> Money {
    Money::from_cents(4.0)
}

/// The sampled worlds: pictures and recipes.
struct Worlds {
    populations: [Population; 2],
    sample_ms: f64,
}

fn build_worlds(seed: u64) -> Result<Worlds, String> {
    let t = Instant::now();
    let specs = [domains::pictures::spec(), domains::recipes::spec()];
    let mut populations = Vec::with_capacity(2);
    for (i, spec) in specs.into_iter().enumerate() {
        let mut rng = schedule::rng(seed, TAG_WORLDS + i as u64);
        populations.push(
            Population::sample(Arc::new(spec), POPULATION, &mut rng).map_err(|e| e.to_string())?,
        );
    }
    let populations: [Population; 2] = populations.try_into().expect("two worlds");
    Ok(Worlds {
        populations,
        sample_ms: t.elapsed().as_secs_f64() * 1e3,
    })
}

/// One cell's inputs.
struct Cell<'a> {
    world: &'a Population,
    spec: Arc<DomainSpec>,
    targets: Vec<AttributeId>,
    b_prc: Money,
    seed: u64,
}

fn cell(worlds: &Worlds, seed: u64, i: usize) -> Cell<'_> {
    let (w, names, dollars) = CELLS[i % CELLS.len()];
    let world = &worlds.populations[w];
    let spec = world.spec_arc();
    let targets = names
        .iter()
        .map(|n| spec.id_of(n).expect("fig. 1 attribute"))
        .collect();
    Cell {
        world,
        spec,
        targets,
        b_prc: Money::from_dollars(dollars),
        seed: schedule::mix(seed, TAG_CELLS + ((i as u64) << 8)),
    }
}

impl Cell<'_> {
    fn capped_crowd(&self) -> SimulatedCrowd {
        SimulatedCrowd::new(
            self.world.clone(),
            CrowdConfig::default(),
            Some(self.b_prc),
            self.seed,
        )
    }

    fn online_crowd(&self) -> SimulatedCrowd {
        SimulatedCrowd::new(
            self.world.clone(),
            CrowdConfig::default(),
            None,
            schedule::mix(self.seed, 1),
        )
    }

    fn query(&self) -> Query {
        Query::new(self.targets.clone(), Vec::new())
    }

    fn objects(&self) -> Vec<ObjectId> {
        (0..EVAL_OBJECTS).map(ObjectId).collect()
    }

    /// The paper's weighted query error of `result` against truth, with
    /// the domain's `1/Var` weights.
    fn error(&self, result: &QueryResult) -> f64 {
        let estimates: Vec<Vec<f64>> = result.rows.iter().map(|r| r.values.clone()).collect();
        let truth: Vec<Vec<f64>> = result
            .rows
            .iter()
            .map(|r| {
                self.targets
                    .iter()
                    .map(|&a| self.world.value(r.object, a))
                    .collect()
            })
            .collect();
        let weights: Vec<f64> = self
            .targets
            .iter()
            .map(|&a| 1.0 / self.spec.attr(a).sd.powi(2))
            .collect();
        metrics::query_error(&estimates, &truth, &weights)
    }

    /// The budget invariants: the ledger never overdrew `B_prc`, and the
    /// plan's per-object price fits `B_obj`.
    fn within_budgets(&self, spent: Money, out: &PreprocessOutput) -> bool {
        spent <= self.b_prc && out.plan.cost_per_object(&PricingModel::paper()) <= b_obj()
    }
}

/// Capacity reserved per second of window for per-cell samples, well
/// above the fastest rate seen, so sample buffers never grow while the
/// heap high-water mark runs.
const CELLS_PER_SECOND: f64 = 20_000.0;

/// What a pass over cells recorded.
#[derive(Default)]
struct Pass {
    /// `preprocess` wall time per cell (µs).
    plan_us: Vec<f64>,
    /// Cell completion times since the pass started (s).
    done_s: Vec<f64>,
    /// Plan and result fingerprint per cell.
    prints: Vec<Fingerprint>,
    errors: Vec<f64>,
    questions: u64,
    over_budget: usize,
    wall_s: f64,
}

impl Pass {
    fn with_capacity(n: usize) -> Pass {
        Pass {
            plan_us: Vec::with_capacity(n),
            done_s: Vec::with_capacity(n),
            prints: Vec::with_capacity(n),
            errors: Vec::with_capacity(n),
            ..Pass::default()
        }
    }
}

/// Runs untraced cells from index 0 for `seconds`, recording into `pass`.
fn untraced_pass(worlds: &Worlds, seed: u64, seconds: f64, mut pass: Pass) -> Result<Pass, String> {
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let c = cell(worlds, seed, i);
        let mut crowd = c.capped_crowd();
        let t = Instant::now();
        let out = layers::plan(&mut crowd, &c.spec, &c.targets, b_obj(), c.seed)
            .map_err(|e| format!("cell {i}: {e}"))?;
        pass.plan_us.push(t.elapsed().as_secs_f64() * 1e6);
        let result = evaluate_query(&mut c.online_crowd(), &out.plan, &c.query(), &c.objects())
            .map_err(|e| format!("cell {i}: {e}"))?;
        pass.errors.push(c.error(&result));
        pass.done_s.push(start.elapsed().as_secs_f64());
        pass.questions += crowd.ledger().total_questions();
        pass.over_budget += usize::from(!c.within_budgets(crowd.ledger().spent(), &out));
        pass.prints
            .push(Fingerprint::default().plan(&out.plan).result(&result));
        i += 1;
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    Ok(pass)
}

/// `preprocess` time of each full rotation through [`CELLS`]. The cells
/// differ up to 5x in cost, so single-cell times form a mixture whose
/// median jumps between modes; a rotation's total does not.
fn rotations(plan_us: &[f64]) -> Vec<f64> {
    plan_us
        .chunks_exact(CELLS.len())
        .map(|c| c.iter().sum())
        .collect()
}

fn check_pass(pass: &Pass, report: &mut Report) {
    report.attempted += pass.plan_us.len() as u64;
    report.check(
        format!(
            "ledger spend <= B_prc and planned spend <= B_obj in every cell ({} broke it)",
            pass.over_budget
        ),
        pass.over_budget == 0,
    );
}

/// `plan_cold`.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let window = if args.trace {
        0.5 * args.seconds
    } else {
        args.seconds
    };
    let pass = Pass::with_capacity((window * CELLS_PER_SECOND) as usize);
    disq_trace::watermark_start();
    let (worlds, times) = repeated_setup(|| build_worlds(args.seed))?;
    report.set("setup_s", stats::median(&times));
    report.note(format!(
        "setup: {} set-ups sampling two {POPULATION}-object worlds, median {:.5} s",
        times.len(),
        stats::median(&times)
    ));
    let pass = untraced_pass(&worlds, args.seed, window, pass)?;
    check_pass(&pass, &mut report);
    let timing = Timing::of(&rotations(&pass.plan_us), 0.99)
        .ok_or("too few rotations for a latency summary")?;
    let windows = stats::window_rates(&pass.done_s, 1.0, pass.wall_s);
    let rate = if windows.is_empty() {
        pass.plan_us.len() as f64 / pass.wall_s
    } else {
        stats::median(&windows)
    };
    let error = stats::mean(&pass.errors);
    report.note(format!(
        "plan_cold: {} cells in {:.2} s; preprocess time per rotation of {} cells {}; cells/s per 1-s window {}; weighted query error {error:.4}; {:.1} questions/plan",
        pass.plan_us.len(),
        pass.wall_s,
        CELLS.len(),
        timing.describe("us"),
        stats::spread(&windows),
        pass.questions as f64 / pass.plan_us.len() as f64
    ));
    report.set("latency_p50_us", timing.p50);
    report.set("e2e.latency_tail_us", timing.tail);
    report.set("throughput_per_s", rate);
    if args.trace {
        traced_pass(&worlds, args, &pass, timing.p50, &mut report)?;
    }
    Ok(report)
}

/// Runs the same cells again behind the timing wrappers, checks they
/// reproduce the untraced plans and estimates bit for bit, and reports
/// the layer split of a cell.
fn traced_pass(
    worlds: &Worlds,
    args: &Args,
    untraced: &Pass,
    untraced_p50_us: f64,
    report: &mut Report,
) -> Result<(), String> {
    let mut layer = PlanLayer::default();
    let mut kept: Vec<(usize, PreprocessOutput)> = Vec::new();
    let mut batches: Vec<Vec<f64>> = Vec::new();
    let (mut plan_us, mut errors, mut mismatches) = (Vec::new(), Vec::new(), 0usize);
    let (mut wall_ns, mut new_ns, mut eval_ns, mut ask_ns, mut metrics_ns) = (0u64, 0, 0, 0, 0);
    let (mut asked, mut bytes, mut allocs) = (0u64, 0u64, 0u64);
    let mut plan_ask_questions = 0u64;
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < 0.5 * args.seconds {
        let c = cell(worlds, args.seed, i);
        let t_cell = Instant::now();
        let crowd = c.capped_crowd();
        new_ns += t_cell.elapsed().as_nanos() as u64;
        let crowd_before = layer.crowd;
        let wall_before = layer.wall_ns;
        let out = layer
            .run(crowd, &c.spec, &c.targets, b_obj(), c.seed)
            .map_err(|e| format!("cell {i}: {e}"))?;
        plan_us.push((layer.wall_ns - wall_before) as f64 / 1e3);
        plan_ask_questions += layer.crowd.value.questions - crowd_before.value.questions;
        let t = Instant::now();
        let mut source =
            TimedSource::new(c.online_crowd(), 4096usize.saturating_sub(batches.len()));
        new_ns += t.elapsed().as_nanos() as u64;
        let (b0, a0) = (
            disq_trace::thread_alloc_bytes(),
            disq_trace::thread_allocs(),
        );
        let t = Instant::now();
        let result = evaluate_query(&mut source, &out.plan, &c.query(), &c.objects())
            .map_err(|e| format!("cell {i}: {e}"))?;
        eval_ns += t.elapsed().as_nanos() as u64;
        bytes += disq_trace::thread_alloc_bytes() - b0;
        allocs += disq_trace::thread_allocs() - a0;
        ask_ns += source.clock.ns;
        asked += source.clock.questions;
        batches.append(&mut source.capture.batches);
        let t = Instant::now();
        errors.push(c.error(&result));
        metrics_ns += t.elapsed().as_nanos() as u64;
        wall_ns += t_cell.elapsed().as_nanos() as u64;

        let print = Fingerprint::default().plan(&out.plan).result(&result);
        if let Some(&want) = untraced.prints.get(i) {
            mismatches += usize::from(print != want);
        }
        if kept.len() < 64 {
            kept.push((i, out));
        }
        i += 1;
    }
    let cells = i.max(1) as f64;
    let compared = i.min(untraced.prints.len());
    report.check(
        format!(
            "traced cells reproduce the untraced plans and estimates bit for bit ({compared} compared, {mismatches} differ)"
        ),
        mismatches == 0 && compared > 0,
    );
    report.attempted += i as u64;

    let crowd_ns = layer.crowd.total_ns() + ask_ns + new_ns;
    let preprocess_self = layer.wall_ns.saturating_sub(layer.crowd.total_ns());
    let shares = [
        ("crowd.sim.share", crowd_ns),
        ("core.preprocess.share", preprocess_self),
        ("core.online.share", eval_ns.saturating_sub(ask_ns)),
        ("core.metrics.share", metrics_ns),
    ];
    let mut covered = 0.0;
    for (name, ns) in shares {
        let share = ns as f64 / wall_ns as f64;
        covered += share;
        report.set(name, share);
    }
    report.set("trace.coverage", covered);
    report.check(
        format!(
            "named layers cover {:.1}% of traced cell time (>= 95%)",
            covered * 100.0
        ),
        covered >= crate::report::MIN_COVERAGE,
    );
    let traced_p50 = stats::median(&rotations(&plan_us));
    report.set("trace.overhead_ratio", traced_p50 / untraced_p50_us);
    report.note(format!(
        "layers per cell (mean us): cell {:.1} = crowd {:.1} + preprocess self {:.1} + kernel self {:.1} + metrics {:.1}; coverage {:.1}%",
        wall_ns as f64 / 1e3 / cells,
        crowd_ns as f64 / 1e3 / cells,
        preprocess_self as f64 / 1e3 / cells,
        eval_ns.saturating_sub(ask_ns) as f64 / 1e3 / cells,
        metrics_ns as f64 / 1e3 / cells,
        covered * 100.0
    ));

    layer.report(report);
    // Each kept output is solved against its own domain's prices.
    let mut solve = Vec::new();
    for w in 0..worlds.populations.len() {
        let outs: Vec<&PreprocessOutput> = kept
            .iter()
            .filter(|(i, _)| CELLS[i % CELLS.len()].0 == w)
            .map(|(_, o)| o)
            .collect();
        if !outs.is_empty() {
            let spec = worlds.populations[w].spec();
            solve.push(layers::budget_solve_us(spec, &outs, b_obj()));
        }
    }
    report.set("core.budget_dist.solve_us", stats::median(&solve));
    let n_objects = cells * EVAL_OBJECTS as f64;
    report.set("core.online.eval_us", eval_ns as f64 / 1e3 / cells);
    report.set(
        "core.online.kernel_self_ns_per_object",
        eval_ns.saturating_sub(ask_ns) as f64 / n_objects,
    );
    let value_questions = plan_ask_questions + asked;
    let value_ns = layer.crowd.value.ns + ask_ns;
    report.set(
        "crowd.sim.value_ns_per_question",
        value_ns as f64 / value_questions.max(1) as f64,
    );
    report.set(
        "crowd.spam.filter_ns_per_batch",
        layers::spam_filter_ns(&batches),
    );
    report.set("crowd.sim.value_per_op", value_questions as f64 / cells);
    report.set(
        "crowd.sim.dismantle_per_op",
        layer.crowd.dismantle.questions as f64 / cells,
    );
    report.set(
        "crowd.sim.verify_per_op",
        layer.crowd.verify.questions as f64 / cells,
    );
    report.set(
        "crowd.sim.example_per_op",
        layer.crowd.example.questions as f64 / cells,
    );
    report.set("alloc.bytes_per_object", bytes as f64 / n_objects);
    report.set("alloc.calls_per_object", allocs as f64 / n_objects);
    report.set("quality.query_error", stats::mean(&errors));
    report.set(
        "quality.questions_per_op",
        untraced.questions as f64 / untraced.plan_us.len().max(1) as f64,
    );
    report.set("domain.population.sample_ms", worlds.sample_ms);
    report.zero(SERVE_ONLY);
    Ok(())
}
