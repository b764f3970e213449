//! `serve_c1` and `serve_open`: an in-process `disq-serve` daemon with
//! `ServeConfig::default()` (pictures, population 500, 40 objects per
//! query, flight recorder on), its plans warmed during set-up, driven
//! over keep-alive loopback connections with a Zipf attribute mix that
//! `--seed` generates.
//!
//! The daemon keeps its default seed rather than one derived from
//! `--seed`: its plans, and with them the questions a query asks, are a
//! function of that seed, and across seeds they range from ~620 to
//! ~750 questions per query with latency following. Varying them would
//! measure the seed more than the code.
//!
//! * `serve_c1` is a closed loop on one connection: the batcher stays on
//!   its passthrough path and answers must equal the in-process
//!   reference bit for bit.
//! * `serve_open` is an open loop: Poisson arrivals split over two
//!   connections, climbing a ladder of offered rates, each request timed
//!   from the moment it was due.
//!
//! The traced runs split each request's time into layers with the
//! daemon's own spans of the same requests (summed by a benchmark-owned
//! sink, see [`span_pass`]), and run the bare kernel behind a
//! [`TimedSource`] on the same request stream.

use crate::client::{self, Answer, Conn};
use crate::layers::{Fingerprint, PlanLayer, SpanSums, SpanTotal};
use crate::report::{Report, LADDER};
use crate::schedule::{self, StepStats};
use crate::stats::{self, Timing};
use crate::timed::TimedSource;
use crate::{repeated_setup, Args};
use disq_core::online::evaluate_query;
use disq_core::EvaluationPlan;
use disq_crowd::{CrowdConfig, SimulatedCrowd};
use disq_domain::{AttributeId, ObjectId, Population, Predicate, PredicateOp, Query};
use disq_serve::{Engine, QueryServer, ReferenceSession, ServeConfig, ServeSnapshot};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The attribute mix, most popular first (Zipf s = 1 over ranks).
pub const ATTRIBUTES: [&str; 4] = ["Bmi", "Age", "Heavy", "Weight"];

/// Latency limit of the open loop, from due time (µs).
pub const SLO_US: f64 = 10_000.0;

/// `serve_c1` answers checked bit for bit against the reference.
const CHECKED_ANSWERS: usize = 500;

/// Requests `serve_c1` sends traced after its window.
const TRACED_REQUESTS: usize = 1000;

/// Head of the reference schedule `serve_open` sends again traced.
const OPEN_TRACED_REQUESTS: usize = 300;

/// Capacity reserved per second of window for per-request samples, well
/// above the fastest rate seen, so sample buffers never grow while the
/// heap high-water mark runs.
const SAMPLES_PER_SECOND: f64 = 50_000.0;

// Stream tags for `schedule::mix`.
const TAG_REQUESTS: u64 = 2;
const TAG_ARRIVALS: u64 = 3;
const TAG_PLANS: u64 = 4;
const TAG_KERNEL: u64 = 5;

/// One generated request: attribute rank and optional `>=` constant.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    attr: usize,
    at_least: Option<f64>,
}

impl Request {
    fn label(&self) -> &'static str {
        ATTRIBUTES[self.attr]
    }

    fn body(&self) -> String {
        match self.at_least {
            Some(v) => format!(
                "{{\"attribute\":\"{}\",\"predicate\":\">= {v:?}\"}}",
                self.label()
            ),
            None => format!("{{\"attribute\":\"{}\"}}", self.label()),
        }
    }

    fn predicate(&self) -> Option<(PredicateOp, f64)> {
        self.at_least.map(|v| (PredicateOp::Ge, v))
    }
}

/// The seeded request stream: Zipf attribute, and in half the requests
/// a predicate at the attribute's population median.
pub struct Mix {
    rng: StdRng,
    medians: [f64; 4],
}

impl Mix {
    fn new(seed: u64, medians: [f64; 4]) -> Mix {
        Mix {
            rng: schedule::rng(seed, TAG_REQUESTS),
            medians,
        }
    }

    fn take(&mut self, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.next_request()).collect()
    }

    fn next_request(&mut self) -> Request {
        let attr = schedule::zipf(&mut self.rng, ATTRIBUTES.len());
        let at_least = (self.rng.random::<f64>() < 0.5).then_some(self.medians[attr]);
        Request { attr, at_least }
    }
}

/// Ground truth for scoring answers, regenerated from the daemon seed.
struct Truth {
    population: Population,
    ids: [AttributeId; 4],
    medians: [f64; 4],
    variances: [f64; 4],
}

impl Truth {
    /// Squared error of every row over the attribute's variance:
    /// `(Σ, rows)`.
    fn score(&self, attr: usize, answer: &Answer) -> (f64, usize) {
        let a = self.ids[attr];
        let sum = answer
            .rows
            .iter()
            .map(|&(o, v)| {
                let d = v - self.population.value(ObjectId(o as usize), a);
                d * d / self.variances[attr]
            })
            .sum();
        (sum, answer.rows.len())
    }
}

/// One set-up: the daemon (engine and listener) with warm plans, plus
/// the truth its answers are scored against.
struct Daemon {
    config: ServeConfig,
    truth: Truth,
    engine: Arc<Engine>,
    server: QueryServer,
    sample_ms: f64,
}

impl Daemon {
    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    fn mix(&self, seed: u64) -> Mix {
        Mix::new(seed, self.truth.medians)
    }
}

/// Builds an engine and computes every attribute's plan through one
/// query each, in [`ATTRIBUTES`] order.
fn warm_engine(config: &ServeConfig) -> Result<Engine, String> {
    let engine = Engine::new(config.clone()).map_err(|e| e.message())?;
    for a in ATTRIBUTES {
        engine.run_query(a, None, None).map_err(|e| e.message())?;
    }
    Ok(engine)
}

/// The reference session, warmed with the same queries as the engine.
fn warm_reference(config: &ServeConfig) -> Result<ReferenceSession, String> {
    let mut session = ReferenceSession::new(config.clone()).map_err(|e| e.message())?;
    for a in ATTRIBUTES {
        session.query(a, None, None).map_err(|e| e.message())?;
    }
    Ok(session)
}

fn build_daemon() -> Result<Daemon, String> {
    let config = ServeConfig::default();
    let spec = Arc::new(disq_serve::domain_spec(&config.domain).ok_or("unknown domain")?);
    let t = Instant::now();
    // The engine samples its population from the same seed this way.
    let population = Population::sample(
        Arc::clone(&spec),
        config.population,
        &mut StdRng::seed_from_u64(config.seed),
    )
    .map_err(|e| e.to_string())?;
    let sample_ms = t.elapsed().as_secs_f64() * 1e3;
    let ids = ATTRIBUTES.map(|a| spec.id_of(a).expect("pictures attribute"));
    let truth = Truth {
        medians: ids.map(|a| stats::median(population.column(a))),
        variances: ids.map(|a| population.empirical_variance(a)),
        ids,
        population,
    };
    let engine = Arc::new(warm_engine(&config)?);
    let server =
        QueryServer::start("127.0.0.1:0", Arc::clone(&engine)).map_err(|e| e.to_string())?;
    Ok(Daemon {
        config,
        truth,
        engine,
        server,
        sample_ms,
    })
}

/// Builds the daemon repeatedly (see [`repeated_setup`]) and records
/// the median set-up time.
fn setup(report: &mut Report) -> Result<Daemon, String> {
    let (daemon, times) = repeated_setup(build_daemon)?;
    report.set("setup_s", stats::median(&times));
    report.note(format!(
        "setup: {} set-ups of a warm daemon (pop {}, {} objects/query), median {:.4} s",
        times.len(),
        daemon.config.population,
        daemon.config.default_objects,
        stats::median(&times)
    ));
    Ok(daemon)
}

/// Records batcher and plan-cache metrics from two engine snapshots.
fn report_batcher(report: &mut Report, before: &ServeSnapshot, after: &ServeSnapshot) {
    let queries = after.queries - before.queries;
    let requested = after.requested_questions - before.requested_questions;
    let asked = after.asked_questions - before.asked_questions;
    let coalesced = after.coalesced_batches - before.coalesced_batches;
    let saved = after.saved_questions - before.saved_questions;
    let hits = after.plan_hits - before.plan_hits;
    let lookups = hits + after.plan_misses - before.plan_misses;
    let q = queries.max(1) as f64;
    let hit_rate = hits as f64 / lookups.max(1) as f64;
    report.set("crowd.batcher.requested_per_query", requested as f64 / q);
    report.set("crowd.batcher.asked_per_query", asked as f64 / q);
    report.set("crowd.batcher.coalesced_per_query", coalesced as f64 / q);
    report.set(
        "crowd.batcher.saved_ratio",
        saved as f64 / requested.max(1) as f64,
    );
    report.set("serve.plan_cache.hit_rate", hit_rate);
    report.set("quality.questions_per_op", asked as f64 / q);
    report.check(
        format!("every plan lookup in the window hits the cache (hit rate {hit_rate:.3})"),
        lookups > 0 && hits == lookups,
    );
    report.note(format!(
        "batcher: {queries} queries, {:.1} requested and {:.1} asked questions/query, {coalesced} shared batches, {saved} questions saved",
        requested as f64 / q,
        asked as f64 / q,
    ));
}

/// What the closed loop saw.
struct Closed {
    /// Round trip of every request (µs).
    rtts_us: Vec<f64>,
    /// Requests answered per 1-s window.
    per_window: Vec<f64>,
    /// The first [`CHECKED_ANSWERS`] answers, in order (`None`: not a
    /// well-formed 200).
    firsts: Vec<Option<Answer>>,
}

/// The closed loop: one keep-alive connection, the next request sent
/// when the previous one is answered, for `seconds` split into 1-s
/// windows. Every answer must be a 200 scanning the configured object
/// count; answers are scored against truth.
fn closed_loop(
    daemon: &Daemon,
    mix: &mut Mix,
    seconds: f64,
    rtts_us: Vec<f64>,
    report: &mut Report,
) -> Result<Closed, String> {
    let objects = daemon.config.default_objects as u64;
    let windows = (seconds.floor() as usize).max(1);
    let window_s = seconds / windows as f64;
    let mut run = Closed {
        rtts_us,
        per_window: Vec::with_capacity(windows),
        firsts: Vec::with_capacity(CHECKED_ANSWERS),
    };
    let (mut err_sum, mut err_rows) = (0.0, 0usize);
    let mut conn = Conn::open(daemon.addr()).map_err(|e| e.to_string())?;
    let start = Instant::now();
    for w in 0..windows {
        let end = window_s * (w + 1) as f64;
        let mut answered = 0.0;
        while start.elapsed().as_secs_f64() < end {
            let request = mix.next_request();
            let body = request.body();
            let t = Instant::now();
            let res = conn.post(&body);
            run.rtts_us.push(t.elapsed().as_secs_f64() * 1e6);
            report.attempted += 1;
            let answer = match res {
                Ok((200, text)) => client::decode(&text).filter(|a| a.scanned == objects),
                Ok(_) => None,
                Err(_) => {
                    conn = Conn::open(daemon.addr()).map_err(|e| e.to_string())?;
                    None
                }
            };
            match &answer {
                Some(a) => {
                    let (s, n) = daemon.truth.score(request.attr, a);
                    err_sum += s;
                    err_rows += n;
                    answered += 1.0;
                }
                None => report.failed += 1,
            }
            if run.firsts.len() < CHECKED_ANSWERS {
                run.firsts.push(answer);
            }
        }
        run.per_window.push(answered / window_s);
    }
    report.check(
        format!(
            "every response is a 200 scanning {objects} objects ({} were not)",
            report.failed
        ),
        report.failed == 0,
    );
    let error = err_sum / err_rows.max(1) as f64;
    report.set("quality.query_error", error);
    report.note(format!(
        "quality: normalized MSE {error:.4} over {err_rows} returned rows"
    ));
    Ok(run)
}

/// The daemon's documented contract on one connection: its first
/// answers equal `ReferenceSession::query` on the same request stream,
/// bit for bit.
fn check_against_reference(
    daemon: &Daemon,
    seed: u64,
    firsts: &[Option<Answer>],
    report: &mut Report,
) -> Result<(), String> {
    let mut reference = warm_reference(&daemon.config)?;
    let mut mismatches = 0;
    for (request, answer) in daemon.mix(seed).take(firsts.len()).iter().zip(firsts) {
        let want = reference
            .query(request.label(), request.predicate(), None)
            .map_err(|e| e.message())?;
        let same = answer
            .as_ref()
            .is_some_and(|a| client::bit_identical(a, &client::answer_of(&want)));
        mismatches += usize::from(!same);
    }
    report.check(
        format!(
            "first {} serve_c1 answers are bit-identical to ReferenceSession::query ({mismatches} differ)",
            firsts.len()
        ),
        mismatches == 0 && !firsts.is_empty(),
    );
    Ok(())
}

/// `serve_c1`.
pub fn closed(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    // Traced runs measure the loop for half the window and spend the
    // rest on the layer passes.
    let window = if args.trace {
        0.5 * args.seconds
    } else {
        args.seconds
    };
    let rtts = Vec::with_capacity((window * SAMPLES_PER_SECOND) as usize);
    disq_trace::watermark_start();
    let daemon = setup(&mut report)?;
    let mut mix = daemon.mix(args.seed);
    let before = daemon.engine.snapshot();
    let run = closed_loop(&daemon, &mut mix, window, rtts, &mut report)?;
    report_batcher(&mut report, &before, &daemon.engine.snapshot());
    check_against_reference(&daemon, args.seed, &run.firsts, &mut report)?;

    let timing = Timing::of(&run.rtts_us, 0.99).ok_or("too few requests for a latency summary")?;
    let qps = stats::median(&run.per_window);
    report.note(format!(
        "serve_c1: {} requests; latency {}; req/s per window {}",
        run.rtts_us.len(),
        timing.describe("us"),
        stats::spread(&run.per_window)
    ));
    report.set("latency_p50_us", timing.p50);
    report.set("e2e.latency_tail_us", timing.tail);
    report.set("throughput_per_s", qps);
    if args.trace {
        let requests = mix.take(TRACED_REQUESTS);
        span_pass(&mut report, &run.rtts_us, || {
            send_closed(&daemon, &requests)
        })?;
        kernel_replay(&daemon, &requests, args.seed, &mut report)?;
        report.zero(&["loadgen."]);
    }
    Ok(report)
}

fn sleep_until(start: Instant, offset_s: f64) {
    let due = start + Duration::from_secs_f64(offset_s);
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Runs `send` — a pass of requests over HTTP that returns their round
/// trips (µs) — with a [`SpanSums`] sink installed, and splits the mean
/// round trip into layers using the daemon's own spans of the same
/// requests:
///
/// * http: round trip − `request` span (socket, framing, thread wake-up);
/// * codec: `request` − `plan_lookup` − `evaluate_query` (JSON parse and
///   render, routing, counters and gauges);
/// * engine: `plan_lookup` + `batch_wait` (plan cache and batcher);
/// * crowd: crowd-question time inside `evaluate_query`;
/// * online kernel: the rest of `evaluate_query`.
///
/// The spans nest, so the parts add up to the round trip unless the
/// sink missed spans; coverage outside 95–105% fails the run.
fn span_pass(
    report: &mut Report,
    untraced_rtt_us: &[f64],
    send: impl FnOnce() -> Result<Vec<f64>, String>,
) -> Result<(), String> {
    let sink = Arc::new(SpanSums::default());
    disq_trace::install(Arc::clone(&sink) as Arc<dyn disq_trace::TraceSink>);
    let rtts = send();
    disq_trace::uninstall();
    let rtts = rtts?;
    let [request, lookup, evaluate, wait] = sink.sums();
    let total = rtts.iter().sum::<f64>() * 1e3;
    let ns = |t: SpanTotal| t.dur_ns as f64;
    let crowd = evaluate.kernel_ns as f64;
    let parts = [
        ("serve.http.share", total - ns(request)),
        ("serve.codec.share", ns(request) - ns(lookup) - ns(evaluate)),
        ("serve.engine.share", ns(lookup) + ns(wait)),
        ("crowd.sim.share", crowd),
        ("core.online.share", ns(evaluate) - ns(wait) - crowd),
    ];
    let mut covered = 0.0;
    let mut line = String::new();
    for (name, part) in parts {
        covered += part.max(0.0) / total;
        report.set(name, part / total);
        line.push_str(&format!(
            " {} {:.1}",
            name.trim_end_matches(".share"),
            part / 1e3 / rtts.len() as f64
        ));
    }
    report.zero(&["core.preprocess.share", "core.metrics.share"]);
    report.set("trace.coverage", covered);
    report.check(
        format!(
            "named layers cover {:.1}% of the traced round trips (95-105%; {} requests, {} request spans)",
            covered * 100.0,
            rtts.len(),
            request.count
        ),
        (crate::report::MIN_COVERAGE..=2.0 - crate::report::MIN_COVERAGE).contains(&covered),
    );
    let traced = stats::median(&rtts);
    report.set(
        "trace.overhead_ratio",
        traced / stats::median(untraced_rtt_us),
    );
    report.note(format!(
        "layers (mean us per request): round trip {:.1} ={line}; coverage {:.1}%",
        total / 1e3 / rtts.len() as f64,
        covered * 100.0
    ));
    Ok(())
}

/// Sends `requests` back to back on one fresh connection.
fn send_closed(daemon: &Daemon, requests: &[Request]) -> Result<Vec<f64>, String> {
    let mut conn = Conn::open(daemon.addr()).map_err(|e| e.to_string())?;
    requests
        .iter()
        .map(|r| {
            let t = Instant::now();
            match conn.post(&r.body()) {
                Ok((200, _)) => Ok(t.elapsed().as_secs_f64() * 1e6),
                other => Err(format!("traced request failed: {other:?}")),
            }
        })
        .collect()
}

/// Plans the four attributes through traced `preprocess` calls (fresh
/// capped crowds over the served population, as a plan-cache miss does),
/// then runs the bare kernel on the request stream twice — plain, and
/// behind a [`TimedSource`] — checking both return the same bits.
fn kernel_replay(
    daemon: &Daemon,
    requests: &[Request],
    seed: u64,
    report: &mut Report,
) -> Result<(), String> {
    let truth = &daemon.truth;
    let spec = truth.population.spec_arc();
    let mut layer = PlanLayer::default();
    let mut outputs = Vec::new();
    for (i, &a) in truth.ids.iter().enumerate() {
        let plan_seed = schedule::mix(seed, TAG_PLANS + ((i as u64) << 8));
        let crowd = SimulatedCrowd::new(
            truth.population.clone(),
            CrowdConfig::default(),
            Some(daemon.config.b_prc),
            plan_seed,
        );
        let out = layer
            .run(crowd, &spec, &[a], daemon.config.b_obj, plan_seed)
            .map_err(|e| e.to_string())?;
        outputs.push(out);
    }
    layer.report(report);
    let refs: Vec<_> = outputs.iter().collect();
    report.set(
        "core.budget_dist.solve_us",
        crate::layers::budget_solve_us(&spec, &refs, daemon.config.b_obj),
    );
    let plans: Vec<&EvaluationPlan> = outputs.iter().map(|o| &o.plan).collect();

    let objects: Vec<ObjectId> = (0..daemon.config.default_objects).map(ObjectId).collect();
    let queries: Vec<Query> = requests
        .iter()
        .map(|r| {
            let a = truth.ids[r.attr];
            let predicates = r
                .predicate()
                .map(|(op, value)| vec![Predicate { attr: a, op, value }])
                .unwrap_or_default();
            Query::new(vec![a], predicates)
        })
        .collect();
    let crowd = || {
        SimulatedCrowd::new(
            truth.population.clone(),
            CrowdConfig::default(),
            None,
            schedule::mix(seed, TAG_KERNEL),
        )
    };
    let mut plain = crowd();
    let mut plain_print = Fingerprint::default();
    let t = Instant::now();
    for (r, q) in requests.iter().zip(&queries) {
        let res =
            evaluate_query(&mut plain, plans[r.attr], q, &objects).map_err(|e| e.to_string())?;
        plain_print = plain_print.result(&res);
    }
    let plain_ns = t.elapsed().as_nanos() as f64;

    let mut timed = TimedSource::new(crowd(), 4096);
    let mut timed_print = Fingerprint::default();
    let (bytes0, allocs0) = (
        disq_trace::thread_alloc_bytes(),
        disq_trace::thread_allocs(),
    );
    let t = Instant::now();
    for (r, q) in requests.iter().zip(&queries) {
        let res =
            evaluate_query(&mut timed, plans[r.attr], q, &objects).map_err(|e| e.to_string())?;
        timed_print = timed_print.result(&res);
    }
    let timed_ns = t.elapsed().as_nanos() as f64;
    let bytes = disq_trace::thread_alloc_bytes() - bytes0;
    let allocs = disq_trace::thread_allocs() - allocs0;
    report.check(
        "kernel replay behind TimedSource is bit-identical to the plain kernel",
        plain_print == timed_print,
    );
    let n_objects = (requests.len() * objects.len()) as f64;
    let ask_ns = timed.clock.ns as f64;
    report.note(format!(
        "kernel replay: {} queries, {:.1} us plain, {:.1} us behind TimedSource",
        requests.len(),
        plain_ns / 1e3 / requests.len() as f64,
        timed_ns / 1e3 / requests.len() as f64
    ));
    report.set(
        "core.online.eval_us",
        timed_ns / 1e3 / requests.len() as f64,
    );
    report.set(
        "core.online.kernel_self_ns_per_object",
        (timed_ns - ask_ns) / n_objects,
    );
    report.set(
        "crowd.sim.value_ns_per_question",
        ask_ns / timed.clock.questions.max(1) as f64,
    );
    report.set(
        "crowd.spam.filter_ns_per_batch",
        crate::layers::spam_filter_ns(&timed.capture.batches),
    );
    report.set("alloc.bytes_per_object", bytes as f64 / n_objects);
    report.set("alloc.calls_per_object", allocs as f64 / n_objects);
    report.set(
        "crowd.sim.value_per_op",
        timed.clock.questions as f64 / requests.len() as f64,
    );
    report.zero(&[
        "crowd.sim.dismantle_per_op",
        "crowd.sim.verify_per_op",
        "crowd.sim.example_per_op",
    ]);
    report.set("domain.population.sample_ms", daemon.sample_ms);
    Ok(())
}

/// One ladder step's schedule.
struct Step {
    rate: f64,
    due: Vec<f64>,
    requests: Vec<Request>,
    /// Scheduled requests over the rate: the goodput denominator.
    nominal_s: f64,
    /// Seconds until the last arrival (at least `nominal_s`).
    send_s: f64,
    grace_s: f64,
}

/// The ladder for a `seconds` window. The reference step sends
/// `25·seconds` requests at the lowest rate, as Poisson arrivals spread
/// over exactly their nominal span, with `seconds/20` s (at least 0.5 s)
/// of grace; every higher rate sends for `seconds/20` s with
/// `seconds/80` s of grace.
fn ladder(seed: u64, seconds: f64, mix: &mut Mix) -> Vec<Step> {
    let mut rng = schedule::rng(seed, TAG_ARRIVALS);
    LADDER
        .iter()
        .enumerate()
        .map(|(k, &rate)| {
            let (due, nominal_s, grace_s) = if k == 0 {
                let n = ((25.0 * seconds).round() as usize).max(20);
                let nominal_s = n as f64 / rate;
                let due = schedule::poisson_within(&mut rng, n, nominal_s);
                (due, nominal_s, (seconds / 20.0).max(0.5))
            } else {
                let send_s = seconds / 20.0;
                let due = schedule::poisson(&mut rng, rate, None, send_s);
                (due, send_s, seconds / 80.0)
            };
            let requests = mix.take(due.len());
            Step {
                rate,
                send_s: due.last().copied().unwrap_or(0.0).max(nominal_s),
                due,
                requests,
                nominal_s,
                grace_s,
            }
        })
        .collect()
}

/// What one client thread recorded for one request.
struct Sent {
    index: usize,
    sent_s: f64,
    done_s: f64,
    /// 200 and the expected object count.
    ok: bool,
    body: Option<String>,
}

/// Sends one step over `conns` (one thread each). A request whose turn
/// comes after the step's grace period is abandoned.
fn run_step(
    addr: SocketAddr,
    conns: &mut [Conn],
    step: &Step,
    keep_bodies: bool,
    objects: usize,
) -> (StepStats, Vec<Sent>) {
    let deadline = step.send_s + step.grace_s;
    let next = AtomicUsize::new(0);
    let abandoned = AtomicUsize::new(0);
    let bodies: Vec<String> = step.requests.iter().map(Request::body).collect();
    let expect = format!("\"scanned\":{objects},");
    let start = Instant::now();
    let mut sent: Vec<Sent> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (next, abandoned, bodies, expect) = (&next, &abandoned, &bodies, &expect);
                s.spawn(move || {
                    let mut out = Vec::with_capacity(step.due.len());
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= step.due.len() {
                            return out;
                        }
                        sleep_until(start, step.due[i]);
                        let sent_s = start.elapsed().as_secs_f64();
                        if sent_s > deadline {
                            abandoned.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        let res = conn.post(&bodies[i]);
                        let done_s = start.elapsed().as_secs_f64();
                        let (ok, body) = match res {
                            Ok((status, text)) => {
                                let ok = status == 200 && text.contains(expect.as_str());
                                (ok, keep_bodies.then_some(text))
                            }
                            Err(_) => {
                                if let Ok(c) = Conn::open(addr) {
                                    *conn = c;
                                }
                                (false, None)
                            }
                        };
                        out.push(Sent {
                            index: i,
                            sent_s,
                            done_s,
                            ok,
                            body,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load generator thread"))
            .collect()
    });
    sent.sort_by_key(|s| s.index);
    let mut stats = StepStats {
        rate: step.rate,
        send_s: step.nominal_s,
        scheduled: step.due.len(),
        abandoned: abandoned.into_inner(),
        ..StepStats::default()
    };
    for s in &sent {
        let due = step.due[s.index];
        stats.lateness_us.push((s.sent_s - due) * 1e6);
        if s.ok {
            stats.latencies_us.push((s.done_s - due) * 1e6);
            stats.round_trips_us.push((s.done_s - s.sent_s) * 1e6);
        } else {
            stats.failed += 1;
        }
    }
    let tail = stats.lateness_us.len().saturating_sub(10);
    stats.late_end_us = stats.lateness_us[tail..]
        .iter()
        .copied()
        .fold(0.0, f64::max);
    (stats, sent)
}

/// `serve_open`.
pub fn open(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    disq_trace::watermark_start();
    let daemon = &setup(&mut report)?;
    let mut mix = daemon.mix(args.seed);
    let steps = ladder(args.seed, args.seconds, &mut mix);
    let mut conns = vec![
        Conn::open(daemon.addr()).map_err(|e| e.to_string())?,
        Conn::open(daemon.addr()).map_err(|e| e.to_string())?,
    ];
    let objects = daemon.config.default_objects;
    let mut results = Vec::new();
    let mut reference_sent = Vec::new();
    let mut counters = None;
    // Steps start on a fixed timetable so every commit runs the same
    // length; a step that overruns makes the next one start late.
    let ladder_start = Instant::now();
    let mut offset = 0.0;
    for (k, step) in steps.iter().enumerate() {
        sleep_until(ladder_start, offset);
        offset += step.send_s + step.grace_s;
        let before = daemon.engine.snapshot();
        let (stats, sent) = run_step(daemon.addr(), &mut conns, step, k == 0, objects);
        report.attempted += sent.len() as u64;
        report.failed += stats.failed as u64;
        if k == 0 {
            counters = Some((before, daemon.engine.snapshot()));
            reference_sent = sent;
        }
        results.push(stats);
    }
    let failed: usize = results.iter().map(|s| s.failed).sum();
    report.check(
        format!("every response is a 200 scanning {objects} objects ({failed} were not)"),
        failed == 0,
    );
    let reference = &results[0];
    report.check(
        format!(
            "no request of the {} req/s reference step was abandoned ({})",
            reference.rate, reference.abandoned
        ),
        reference.abandoned == 0,
    );
    let (before, after) = counters.expect("reference step ran");
    report_batcher(&mut report, &before, &after);

    // Score the reference step's answers against truth.
    let (mut err_sum, mut err_rows) = (0.0, 0usize);
    for s in &reference_sent {
        if let Some(a) = s.body.as_deref().and_then(client::decode) {
            let (e, n) = daemon.truth.score(steps[0].requests[s.index].attr, &a);
            err_sum += e;
            err_rows += n;
        }
    }
    report.set("quality.query_error", err_sum / err_rows.max(1) as f64);

    report.note(format!(
        "ladder (latency from due time; SLO: p99 <= {:.0} ms and end lateness <= {:.0} ms):",
        SLO_US / 1e3,
        SLO_US / 1e3
    ));
    for s in &results {
        let tail = s
            .tail()
            .map(|(q, v)| format!("p{} {:.0} us", q * 100.0, v))
            .unwrap_or_else(|| "tail n/a".into());
        let trips = Timing::of(&s.round_trips_us, 0.99)
            .map(|t| t.describe("us"))
            .unwrap_or_default();
        report.note(format!(
            "  {:>6} req/s: scheduled {:>6}, answered {:>6}, abandoned {:>6}, p50 {:>9.0} us, {tail}, round trip {trips}, end lateness {:.0} us, goodput {:.1}/s, {}",
            s.rate,
            s.scheduled,
            s.latencies_us.len(),
            s.abandoned,
            stats::median(&s.latencies_us),
            s.late_end_us,
            s.goodput(SLO_US),
            if s.passes(SLO_US) { "pass" } else { "FAIL" }
        ));
    }
    let open_max = schedule::max_passing_rate(&results, SLO_US);
    report.note(format!("open_max_qps {open_max} (highest passing rate)"));
    // Gated: the reference step's median round trip and achieved rate.
    // Its tails are reported per layer only: at this commit a query that
    // overlaps another waits out a coalescing window per cell, so how
    // many overlap — and how long the resulting backlogs last — swings
    // both tails by more than 2x from seed to seed.
    let timing = Timing::of(&reference.round_trips_us, 0.99)
        .ok_or("too few reference requests for a latency summary")?;
    let last_done = reference_sent.iter().map(|s| s.done_s).fold(0.0, f64::max);
    let achieved = reference.latencies_us.len() as f64 / last_done;
    report.note(format!(
        "reference step: round trip {}; {achieved:.2} answers/s from the step's start to its last answer",
        timing.describe("us")
    ));
    report.set("latency_p50_us", timing.p50);
    report.set("e2e.latency_tail_us", timing.tail);
    report.set("throughput_per_s", achieved);

    if args.trace {
        report.set("loadgen.open_max_qps", open_max);
        let due_tail = reference.tail().map_or(f64::INFINITY, |(_, v)| v);
        report.set("loadgen.due_p99_slo_ratio", due_tail / SLO_US);
        let late = stats::sorted(&reference.lateness_us);
        let late_p99 = stats::tail(&late, 0.99).map_or(0.0, |(_, v)| v);
        report.set("loadgen.late_p99_slo_ratio", late_p99 / SLO_US);
        for s in &results {
            let rate = s.rate;
            report.set(
                &format!("loadgen.r{rate}.achieved_ratio"),
                s.achieved_ratio(),
            );
            let met = s.within(SLO_US) as f64 / s.scheduled.max(1) as f64;
            report.set(&format!("loadgen.r{rate}.slo_met_ratio"), met);
        }
        // Send the head of the reference schedule again, traced.
        let head = &steps[0];
        let n = OPEN_TRACED_REQUESTS.min(head.due.len());
        let replay = Step {
            rate: head.rate,
            due: head.due[..n].to_vec(),
            requests: head.requests[..n].to_vec(),
            nominal_s: n as f64 / head.rate,
            send_s: head.due[n - 1],
            grace_s: head.grace_s,
        };
        let untraced: Vec<f64> = reference_sent
            .iter()
            .filter(|s| s.index < n)
            .map(|s| (s.done_s - s.sent_s) * 1e6)
            .collect();
        span_pass(&mut report, &untraced, || {
            let (stats, _) = run_step(daemon.addr(), &mut conns, &replay, false, objects);
            if stats.failed + stats.abandoned > 0 {
                return Err(format!(
                    "traced replay: {} failed, {} abandoned",
                    stats.failed, stats.abandoned
                ));
            }
            Ok(stats.round_trips_us)
        })?;
        kernel_replay(daemon, &replay.requests, args.seed, &mut report)?;
    }
    Ok(report)
}
