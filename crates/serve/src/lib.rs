//! `disq-serve`: the online query daemon.
//!
//! The paper's online phase (§5) is where users actually touch the
//! system; this crate puts it behind a std::net HTTP server so queries
//! arrive as `POST /query {"attribute": "Bmi", "predicate": ">= 25"}`
//! instead of bench-harness calls. Two layers make it fast:
//!
//! 1. **Plan cache** — preprocessing an attribute costs dollars of
//!    simulated crowd spend and ~10⁵ RNG draws; queries for the same
//!    attribute (the dominant pattern under a skewed workload) reuse the
//!    first request's [`PreprocessOutput`]. With [`PLAN_DIR_ENV`] set,
//!    plans persist through the versioned [`PlanStore`], so a restarted
//!    daemon warm-starts from disk instead of recomputing.
//! 2. **Cross-request answer sharing** — concurrent queries about the
//!    same attribute ask the crowd about the same objects; a
//!    [`CoalescingCrowd`] in front of the platform lets a query read
//!    the answers another in-flight query just asked for the same cell
//!    instead of asking again. No query waits for another to join.
//!
//! **Determinism contract**: with a single connection the daemon's
//! answers are bit-identical to the in-process [`evaluate_query`] path
//! — [`ReferenceSession`] *is* that path, and the e2e suite drives both
//! and compares `f64::to_bits`. Plans are computed on a fresh crowd
//! seeded purely by `(seed, attribute)`, so plan-cache state (cold,
//! warm, disk) never perturbs the online answer stream.

#![warn(missing_docs)]

pub mod http;
mod obs;
mod server;

pub use obs::RequestRecord;
pub use server::QueryServer;

use disq_core::online::{evaluate_query, QueryResult};
use disq_core::plan_store::check_domain;
use disq_core::{preprocess, DisqConfig, PlanMeta, PlanStore, PreprocessOutput, PLAN_DIR_ENV};
use disq_crowd::{CoalescingCrowd, CrowdConfig, Money, SimulatedCrowd};
use disq_domain::{domains, DomainSpec, ObjectId, Population, Predicate, PredicateOp, Query};
use disq_trace::gauge::GaugeSet;
use disq_trace::Counter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Environment variable: domain served (default `pictures`).
pub const SERVE_DOMAIN_ENV: &str = "DISQ_SERVE_DOMAIN";
/// Environment variable: population size (default 500).
pub const SERVE_POP_ENV: &str = "DISQ_SERVE_POP";
/// Environment variable: seed for population, crowd and plans
/// (default 42).
pub const SERVE_SEED_ENV: &str = "DISQ_SERVE_SEED";
/// Environment variable: listen address of the `disq-serve` binary
/// (default `127.0.0.1:7878`).
pub const SERVE_ADDR_ENV: &str = "DISQ_SERVE_ADDR";
/// Environment variable: fixed slow-request threshold in microseconds.
/// Unset means "use a rolling per-route p99 estimate".
pub const SLOW_US_ENV: &str = "DISQ_SLOW_US";
/// Environment variable: directory receiving slow-request dumps. Unset
/// disables dumping, and with it tracing.
pub const SLOW_DIR_ENV: &str = "DISQ_SLOW_DIR";
/// Environment variable: path of the JSONL access log. Unset disables
/// access logging.
pub const ACCESS_LOG_ENV: &str = "DISQ_ACCESS_LOG";
/// Environment variable: per-request latency SLO in microseconds
/// (default 100 000 = 100 ms), feeding the compliance/burn-rate gauges.
pub const SLO_US_ENV: &str = "DISQ_SLO_US";

/// Configuration of one serving session.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Domain name: `pictures`, `recipes`, `housing` or `laptops`.
    pub domain: String,
    /// Number of objects sampled into the served data table.
    pub population: usize,
    /// Master seed: population sampling, the online crowd, and (mixed
    /// with the attribute label) each plan's preprocessing crowd.
    pub seed: u64,
    /// Plan-store directory; `None` disables disk warm-start.
    pub plan_dir: Option<PathBuf>,
    /// Objects scanned when a query names no count.
    pub default_objects: usize,
    /// Per-connection read timeout (slow clients get a 408).
    pub read_timeout: Duration,
    /// Preprocessing budget cap per attribute (`B_prc`).
    pub b_prc: Money,
    /// Per-object online budget (`b_obj`).
    pub b_obj: Money,
    /// `false` disables plan reuse entirely: every query recomputes its
    /// plan (the cold baseline the bench measures speedup against).
    pub plan_cache: bool,
    /// Fixed slow-request threshold (µs). `None` falls back to a
    /// rolling per-route p99 estimate once enough requests were seen.
    pub slow_us: Option<u64>,
    /// Directory receiving slow-request dumps; `None` disables dumping.
    /// While it is set the engine keeps tracing on, and the server
    /// captures each request's spans for a possible dump.
    pub slow_dir: Option<PathBuf>,
    /// JSONL access-log path; `None` disables access logging.
    pub access_log: Option<PathBuf>,
    /// Per-request latency SLO (µs) for the compliance and burn-rate
    /// gauges.
    pub slo_us: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            domain: "pictures".into(),
            population: 500,
            seed: 42,
            plan_dir: None,
            default_objects: 40,
            read_timeout: Duration::from_millis(2000),
            b_prc: Money::from_dollars(30.0),
            b_obj: Money::from_cents(4.0),
            plan_cache: true,
            slow_us: None,
            slow_dir: None,
            access_log: None,
            slo_us: 100_000,
        }
    }
}

impl ServeConfig {
    /// Reads `DISQ_SERVE_DOMAIN`, `DISQ_SERVE_POP`, `DISQ_SERVE_SEED`,
    /// `DISQ_PLAN_DIR`, `DISQ_SLOW_US`, `DISQ_SLOW_DIR`,
    /// `DISQ_ACCESS_LOG` and `DISQ_SLO_US`, defaulting everything else.
    pub fn from_env() -> Self {
        let mut c = ServeConfig::default();
        if let Ok(d) = std::env::var(SERVE_DOMAIN_ENV) {
            if !d.trim().is_empty() {
                c.domain = d.trim().to_string();
            }
        }
        if let Some(n) = env_parse::<usize>(SERVE_POP_ENV) {
            c.population = n.max(1);
        }
        if let Some(s) = env_parse::<u64>(SERVE_SEED_ENV) {
            c.seed = s;
        }
        c.plan_dir = std::env::var(PLAN_DIR_ENV)
            .ok()
            .filter(|d| !d.trim().is_empty())
            .map(|d| PathBuf::from(d.trim()));
        c.slow_us = env_parse::<u64>(SLOW_US_ENV);
        c.slow_dir = std::env::var(SLOW_DIR_ENV)
            .ok()
            .filter(|d| !d.trim().is_empty())
            .map(|d| PathBuf::from(d.trim()));
        c.access_log = std::env::var(ACCESS_LOG_ENV)
            .ok()
            .filter(|d| !d.trim().is_empty())
            .map(|d| PathBuf::from(d.trim()));
        if let Some(slo) = env_parse::<u64>(SLO_US_ENV) {
            c.slo_us = slo.max(1);
        }
        c
    }
}

fn env_parse<T: std::str::FromStr>(var: &str) -> Option<T> {
    std::env::var(var).ok().and_then(|v| v.trim().parse().ok())
}

/// Resolves a domain name to its spec.
pub fn domain_spec(name: &str) -> Option<DomainSpec> {
    match name {
        "pictures" => Some(domains::pictures::spec()),
        "recipes" => Some(domains::recipes::spec()),
        "housing" => Some(domains::housing::spec()),
        "laptops" => Some(domains::laptops::spec()),
        _ => None,
    }
}

/// Request-level failure, mapped to an HTTP status by the server.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The query named an attribute the domain does not have (404).
    UnknownAttribute(String),
    /// The request was syntactically or semantically invalid (400).
    BadRequest(String),
    /// Evaluation failed server-side (500).
    Internal(String),
}

impl ServeError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::UnknownAttribute(_) => 404,
            ServeError::BadRequest(_) => 400,
            ServeError::Internal(_) => 500,
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> String {
        match self {
            ServeError::UnknownAttribute(a) => format!("unknown attribute '{a}'"),
            ServeError::BadRequest(m) => m.clone(),
            ServeError::Internal(m) => m.clone(),
        }
    }
}

/// Parses a predicate string like `">= 25"` / `"<3.5"` / `"= 1"`.
pub fn parse_predicate(text: &str) -> Result<(PredicateOp, f64), ServeError> {
    let t = text.trim();
    let (op, rest) = if let Some(r) = t.strip_prefix("<=") {
        (PredicateOp::Le, r)
    } else if let Some(r) = t.strip_prefix(">=") {
        (PredicateOp::Ge, r)
    } else if let Some(r) = t.strip_prefix('<') {
        (PredicateOp::Lt, r)
    } else if let Some(r) = t.strip_prefix('>') {
        (PredicateOp::Gt, r)
    } else if let Some(r) = t.strip_prefix('=') {
        (PredicateOp::Eq, r)
    } else {
        return Err(ServeError::BadRequest(format!(
            "bad predicate '{t}': expected an operator (<, <=, >, >=, =)"
        )));
    };
    let value: f64 = rest.trim().parse().map_err(|_| {
        ServeError::BadRequest(format!("bad predicate '{t}': unparseable constant"))
    })?;
    if !value.is_finite() {
        return Err(ServeError::BadRequest(format!(
            "bad predicate '{t}': constant must be finite"
        )));
    }
    Ok((op, value))
}

/// Mixes the attribute label into the master seed (FNV-1a), so each
/// attribute's preprocessing crowd is a pure function of
/// `(seed, label)` — reproducible regardless of request order or
/// plan-cache state.
fn plan_seed(seed: u64, label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.rotate_left(17);
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs the full preprocessing phase for one attribute on a fresh,
/// budget-capped crowd. Shared verbatim by [`Engine`] and
/// [`ReferenceSession`] — plan equality between daemon and reference is
/// by construction.
fn compute_plan(
    spec: &Arc<DomainSpec>,
    population: &Population,
    config: &ServeConfig,
    label: &str,
) -> Result<PreprocessOutput, ServeError> {
    let target = spec
        .id_of(label)
        .ok_or_else(|| ServeError::UnknownAttribute(label.to_string()))?;
    let _span = disq_trace::span!("plan_compute", "attr={label}");
    let mut crowd = SimulatedCrowd::new(
        population.clone(),
        CrowdConfig::default(),
        Some(config.b_prc),
        plan_seed(config.seed, label),
    );
    preprocess(
        &mut crowd,
        spec,
        &[target],
        config.b_obj,
        &DisqConfig::default(),
        &disq_crowd::PricingModel::paper(),
        None,
        plan_seed(config.seed, label),
    )
    .map_err(|e| ServeError::Internal(format!("preprocess failed for '{label}': {e}")))
}

/// Where a query's plan came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// In-memory cache hit.
    Memory,
    /// Loaded from the on-disk plan store (counted as a cache miss).
    Disk,
    /// Computed by running `preprocess` (cache miss).
    Computed,
}

impl PlanSource {
    /// Stable lowercase name used in responses and stats.
    pub fn name(self) -> &'static str {
        match self {
            PlanSource::Memory => "memory",
            PlanSource::Disk => "disk",
            PlanSource::Computed => "computed",
        }
    }
}

#[derive(Debug, Default)]
struct EngineStats {
    queries: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    plan_disk_loads: AtomicU64,
}

/// Point-in-time serving statistics (the `/stats` payload's source).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSnapshot {
    /// Queries answered.
    pub queries: u64,
    /// In-memory plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses (disk loads included).
    pub plan_misses: u64,
    /// Misses satisfied from the on-disk store.
    pub plan_disk_loads: u64,
    /// Crowd questions actually asked (after sharing).
    pub asked_questions: u64,
    /// Crowd questions requests asked for (before sharing).
    pub requested_questions: u64,
    /// Batches that a query other than their asker read.
    pub coalesced_batches: u64,
    /// Questions read off another query's batch instead of asked.
    pub saved_questions: u64,
}

impl ServeSnapshot {
    /// Fraction of plan lookups served from memory.
    pub fn hit_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_hits as f64 / total as f64
        }
    }

    /// Mean crowd questions per answered query.
    pub fn questions_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.asked_questions as f64 / self.queries as f64
        }
    }
}

/// One cached plan's slot: the outer map hands out slots under a brief
/// lock; the slot's own lock serializes the (expensive) first
/// computation without blocking other attributes.
#[derive(Default)]
struct PlanSlot {
    plan: Mutex<Option<Arc<PreprocessOutput>>>,
}

/// The serving engine: domain + population + online crowd + plan cache.
/// [`QueryServer`] wraps it in HTTP; tests can drive it directly.
pub struct Engine {
    spec: Arc<DomainSpec>,
    population: Population,
    online: CoalescingCrowd<SimulatedCrowd>,
    plans: Mutex<HashMap<String, Arc<PlanSlot>>>,
    store: Option<PlanStore>,
    config: ServeConfig,
    stats: EngineStats,
    obs: obs::Observer,
}

impl Engine {
    /// Builds the engine: samples the population and seeds the online
    /// crowd. No plans are computed until the first query.
    pub fn new(config: ServeConfig) -> Result<Self, ServeError> {
        let spec = Arc::new(domain_spec(&config.domain).ok_or_else(|| {
            ServeError::BadRequest(format!("unknown domain '{}'", config.domain))
        })?);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let population = Population::sample(Arc::clone(&spec), config.population, &mut rng)
            .map_err(|e| ServeError::Internal(format!("population sampling failed: {e}")))?;
        let online = CoalescingCrowd::new(SimulatedCrowd::new(
            population.clone(),
            CrowdConfig::default(),
            None,
            config.seed,
        ));
        let store = config.plan_dir.as_ref().map(PlanStore::new);
        let obs = obs::Observer::new(&config, &spec);
        Ok(Engine {
            spec,
            population,
            online,
            plans: Mutex::new(HashMap::new()),
            store,
            config,
            stats: EngineStats::default(),
            obs,
        })
    }

    /// The served domain spec.
    pub fn spec(&self) -> &Arc<DomainSpec> {
        &self.spec
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    fn plan_for(&self, label: &str) -> Result<(Arc<PreprocessOutput>, PlanSource), ServeError> {
        if !self.config.plan_cache {
            // Cold baseline: every query pays full preprocessing.
            self.stats.plan_misses.fetch_add(1, Ordering::Relaxed);
            disq_trace::count(Counter::PlanCacheMisses);
            let out = compute_plan(&self.spec, &self.population, &self.config, label)?;
            return Ok((Arc::new(out), PlanSource::Computed));
        }
        let slot = {
            let mut plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(plans.entry(label.to_string()).or_default())
        };
        let mut guard = slot.plan.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(plan) = guard.as_ref() {
            self.stats.plan_hits.fetch_add(1, Ordering::Relaxed);
            disq_trace::count(Counter::PlanCacheHits);
            return Ok((Arc::clone(plan), PlanSource::Memory));
        }
        self.stats.plan_misses.fetch_add(1, Ordering::Relaxed);
        disq_trace::count(Counter::PlanCacheMisses);
        let meta = PlanMeta {
            domain: self.spec.name().to_string(),
            attribute: label.to_string(),
            seed: self.config.seed,
        };
        if let Some(store) = &self.store {
            match store.load(&meta.domain, &meta.attribute, meta.seed) {
                Ok(Some(out)) => {
                    check_domain(&out.plan, &self.spec)
                        .map_err(|e| ServeError::Internal(e.to_string()))?;
                    self.stats.plan_disk_loads.fetch_add(1, Ordering::Relaxed);
                    disq_trace::count(Counter::PlanStoreLoads);
                    let plan = Arc::new(out);
                    *guard = Some(Arc::clone(&plan));
                    return Ok((plan, PlanSource::Disk));
                }
                Ok(None) => {}
                Err(e) => return Err(ServeError::Internal(e.to_string())),
            }
        }
        let out = compute_plan(&self.spec, &self.population, &self.config, label)?;
        if let Some(store) = &self.store {
            store
                .save(&out, &meta)
                .map_err(|e| ServeError::Internal(format!("plan store write failed: {e}")))?;
        }
        let plan = Arc::new(out);
        *guard = Some(Arc::clone(&plan));
        Ok((plan, PlanSource::Computed))
    }

    /// Answers one query: plan lookup, online estimation over the first
    /// `objects` objects, predicate filtering.
    pub fn run_query(
        &self,
        attribute: &str,
        predicate: Option<(PredicateOp, f64)>,
        objects: Option<usize>,
    ) -> Result<(QueryResult, PlanSource), ServeError> {
        let attr = self
            .spec
            .id_of(attribute)
            .ok_or_else(|| ServeError::UnknownAttribute(attribute.to_string()))?;
        let (plan, source) = {
            let _span = disq_trace::span!("plan_lookup", "attr={attribute}");
            self.plan_for(attribute)?
        };
        let n = objects
            .unwrap_or(self.config.default_objects)
            .min(self.population.n_objects());
        let object_ids: Vec<ObjectId> = (0..n).map(ObjectId).collect();
        let query = Query {
            select: vec![attr],
            predicates: predicate
                .map(|(op, value)| vec![Predicate { attr, op, value }])
                .unwrap_or_default(),
        };
        let mut crowd = self.online.begin_query();
        let result = evaluate_query(&mut crowd, &plan.plan, &query, &object_ids)
            .map_err(|e| ServeError::Internal(format!("evaluation failed: {e}")))?;
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        Ok((result, source))
    }

    /// The serving gauges, rendered at scrape time from state the
    /// engine owns: in-flight queries, the plan cache, questions per
    /// query, and the per-route and per-attribute latency/SLO families.
    /// Each engine reports only its own requests.
    pub(crate) fn render_gauges(&self) -> String {
        let snap = self.snapshot();
        let mut set = GaugeSet::new();
        set.set(
            "disq_serve_in_flight",
            "Queries currently in flight",
            &[],
            self.online.in_flight() as f64,
        );
        set.set(
            "disq_serve_plans_cached",
            "Plans resident in the in-memory cache",
            &[],
            self.plans.lock().unwrap_or_else(|e| e.into_inner()).len() as f64,
        );
        set.set(
            "disq_serve_plan_cache_hit_rate",
            "Fraction of plan lookups served from memory",
            &[],
            snap.hit_rate(),
        );
        set.set(
            "disq_serve_questions_per_query",
            "Mean crowd questions per answered query",
            &[],
            snap.questions_per_query(),
        );
        self.obs.render_gauges(&mut set);
        set.render()
    }

    /// Records one finished request into the access log and the latency
    /// histograms and SLO state, and — when it crossed the slow
    /// threshold — writes its captured trace to the slow dir. Called by
    /// the server per request; tests may call it directly.
    pub fn observe_request(&self, rec: &RequestRecord<'_>) {
        self.obs.observe(rec);
    }

    /// Current counters (queries, cache, answer sharing).
    pub fn snapshot(&self) -> ServeSnapshot {
        let b = self.online.stats();
        ServeSnapshot {
            queries: self.stats.queries.load(Ordering::Relaxed),
            plan_hits: self.stats.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.stats.plan_misses.load(Ordering::Relaxed),
            plan_disk_loads: self.stats.plan_disk_loads.load(Ordering::Relaxed),
            asked_questions: b.asked_questions,
            requested_questions: b.requested_questions,
            coalesced_batches: b.coalesced_batches,
            saved_questions: b.saved_questions,
        }
    }
}

/// The in-process path the daemon must match bit for bit: same plan
/// computation (fresh `(seed, attribute)`-seeded crowd), same online
/// crowd seed, but a bare [`SimulatedCrowd`] driven directly through
/// [`evaluate_query`] — no answer sharing, no HTTP, no JSON.
pub struct ReferenceSession {
    spec: Arc<DomainSpec>,
    population: Population,
    crowd: SimulatedCrowd,
    plans: HashMap<String, Arc<PreprocessOutput>>,
    config: ServeConfig,
}

impl ReferenceSession {
    /// Builds the reference session for `config` (the plan dir is
    /// ignored — this path has no plan store).
    pub fn new(config: ServeConfig) -> Result<Self, ServeError> {
        let spec = Arc::new(domain_spec(&config.domain).ok_or_else(|| {
            ServeError::BadRequest(format!("unknown domain '{}'", config.domain))
        })?);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let population = Population::sample(Arc::clone(&spec), config.population, &mut rng)
            .map_err(|e| ServeError::Internal(format!("population sampling failed: {e}")))?;
        let crowd = SimulatedCrowd::new(
            population.clone(),
            CrowdConfig::default(),
            None,
            config.seed,
        );
        Ok(ReferenceSession {
            spec,
            population,
            crowd,
            plans: HashMap::new(),
            config,
        })
    }

    /// Answers one query exactly as [`Engine::run_query`] does, minus
    /// every serving layer.
    pub fn query(
        &mut self,
        attribute: &str,
        predicate: Option<(PredicateOp, f64)>,
        objects: Option<usize>,
    ) -> Result<QueryResult, ServeError> {
        let attr = self
            .spec
            .id_of(attribute)
            .ok_or_else(|| ServeError::UnknownAttribute(attribute.to_string()))?;
        let plan = match self.plans.get(attribute) {
            Some(p) => Arc::clone(p),
            None => {
                let out = compute_plan(&self.spec, &self.population, &self.config, attribute)?;
                let p = Arc::new(out);
                self.plans.insert(attribute.to_string(), Arc::clone(&p));
                p
            }
        };
        let n = objects
            .unwrap_or(self.config.default_objects)
            .min(self.population.n_objects());
        let object_ids: Vec<ObjectId> = (0..n).map(ObjectId).collect();
        let query = Query {
            select: vec![attr],
            predicates: predicate
                .map(|(op, value)| vec![Predicate { attr, op, value }])
                .unwrap_or_default(),
        };
        evaluate_query(&mut self.crowd, &plan.plan, &query, &object_ids)
            .map_err(|e| ServeError::Internal(format!("evaluation failed: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_parser_accepts_the_grammar() {
        assert_eq!(parse_predicate(">= 25").unwrap(), (PredicateOp::Ge, 25.0));
        assert_eq!(parse_predicate("<=3.5").unwrap(), (PredicateOp::Le, 3.5));
        assert_eq!(parse_predicate("< -1").unwrap(), (PredicateOp::Lt, -1.0));
        assert_eq!(parse_predicate("> 0").unwrap(), (PredicateOp::Gt, 0.0));
        assert_eq!(parse_predicate("= 1").unwrap(), (PredicateOp::Eq, 1.0));
        assert!(parse_predicate("!= 2").is_err());
        assert!(parse_predicate(">= banana").is_err());
        assert!(parse_predicate(">= inf").is_err());
        assert!(parse_predicate("").is_err());
    }

    #[test]
    fn plan_seed_is_pure_and_label_sensitive() {
        assert_eq!(plan_seed(42, "Bmi"), plan_seed(42, "Bmi"));
        assert_ne!(plan_seed(42, "Bmi"), plan_seed(42, "Age"));
        assert_ne!(plan_seed(42, "Bmi"), plan_seed(43, "Bmi"));
    }

    #[test]
    fn unknown_domain_and_attribute_are_rejected() {
        assert!(domain_spec("groceries").is_none());
        let cfg = ServeConfig {
            population: 30,
            ..ServeConfig::default()
        };
        let engine = Engine::new(cfg).unwrap();
        let err = engine.run_query("Charisma", None, Some(5)).unwrap_err();
        assert_eq!(err.status(), 404);
        assert!(err.message().contains("Charisma"));
    }

    /// Tracing follows `slow_dir`. No other unit test in this crate sets
    /// a slow dir or installs a sink, so `active()` here is this test's.
    #[test]
    fn engine_traces_only_while_it_can_dump() {
        let engine = Engine::new(ServeConfig::default()).unwrap();
        assert!(!disq_trace::active(), "a default engine runs untraced");
        let dumping = Engine::new(ServeConfig {
            slow_dir: Some(std::env::temp_dir()),
            ..ServeConfig::default()
        })
        .unwrap();
        assert!(disq_trace::active(), "an engine that dumps traces");
        drop(dumping);
        assert!(!disq_trace::active());
        drop(engine);
    }

    #[test]
    fn snapshot_rates_handle_zero() {
        let snap = ServeSnapshot {
            queries: 0,
            plan_hits: 0,
            plan_misses: 0,
            plan_disk_loads: 0,
            asked_questions: 0,
            requested_questions: 0,
            coalesced_batches: 0,
            saved_questions: 0,
        };
        assert_eq!(snap.hit_rate(), 0.0);
        assert_eq!(snap.questions_per_query(), 0.0);
    }
}
