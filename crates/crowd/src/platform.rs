//! The crowd platform trait and its simulator.
//!
//! [`CrowdPlatform`] is the only interface through which the DisQ
//! algorithm may learn about the world — exactly the four question types
//! of §2, each charged against the ledger at the configured price before
//! an answer is produced.
//!
//! [`SimulatedCrowd`] implements the paper's worker model over a sampled
//! [`Population`]:
//!
//! * **value questions** — numeric attributes get `o.a + ε` with
//!   `ε ~ N(0, S_c[a])`; boolean attributes get a yes/no *vote* drawn
//!   Bernoulli on the object's yes-propensity (unbiased, independent —
//!   the paper's worker model exactly, with `S_c = E[q(1−q)]`). An
//!   optional spam rate produces garbage for the spam filter to catch;
//! * **dismantling questions** sample the domain's empirical answer
//!   distribution (Table 4), optionally rephrased as a synonym and with
//!   leftover mass going to irrelevant junk phrases;
//! * **verification questions** answer "yes" with probability increasing
//!   in the true correlation between the candidate and the target —
//!   workers mostly confirm genuinely related attributes;
//! * **example questions** return a random object with its true values
//!   (the paper assumes uploaded example values are correct).

use crate::worker::{WorkerConfig, WorkerId, WorkerPool};
use crate::{BudgetLedger, CrowdError, Money, PricingModel, QuestionKind};
use disq_domain::{AttributeId, AttributeKind, ObjectId, Population};
use disq_math::standard_normal;
use disq_trace::Timer;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Salt XORed into the crowd seed to derive the *worker-identity* RNG
/// stream. Keeping identity draws on a separate stream is what lets the
/// provenance layer stamp every answer without perturbing the
/// answer-value stream: the main `rng` sees exactly the draw sequence it
/// saw before workers existed.
const WORKER_STREAM_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Behavioural knobs of the simulated crowd (§5.4 robustness dimensions).
#[derive(Debug, Clone)]
pub struct CrowdConfig {
    /// Price sheet used to charge the ledger.
    pub pricing: PricingModel,
    /// Extra probability that a dismantling answer is irrelevant junk,
    /// *in addition to* the leftover mass of the domain distribution
    /// ("Attributes Quality" experiment).
    pub junk_rate_boost: f64,
    /// Probability that a dismantling answer uses a synonym phrasing
    /// instead of the canonical name ("Normalization Mechanism"
    /// experiment).
    pub synonym_rate: f64,
    /// Probability that a value answer is uniform garbage instead of a
    /// noisy estimate (caught downstream by [`crate::filter_spam_into`]).
    pub spam_rate: f64,
    /// Worker pool configuration (identity provenance; the default —
    /// honoring `DISQ_WORKER_POOL` / `DISQ_WORKER_MODEL` — is a
    /// homogeneous pool whose answer stream is byte-identical to an
    /// anonymous crowd).
    pub workers: WorkerConfig,
}

impl Default for CrowdConfig {
    fn default() -> Self {
        CrowdConfig {
            pricing: PricingModel::paper(),
            junk_rate_boost: 0.0,
            synonym_rate: 0.0,
            spam_rate: 0.0,
            workers: WorkerConfig::from_env(),
        }
    }
}

/// Irrelevant phrases a confused worker may offer when dismantling.
/// None of these resolve in any domain registry, so verification is the
/// only line of defence — as in the paper.
const JUNK_PHRASES: [&str; 12] = [
    "background color",
    "font of the text",
    "number of vowels in the name",
    "mood of the photographer",
    "day of the week",
    "phase of the moon",
    "is it black",
    "photo resolution",
    "username of the poster",
    "page number",
    "shadow direction",
    "camera brand",
];

/// The crowd as the algorithm sees it.
pub trait CrowdPlatform {
    /// Asks `k` workers for the value of `o.a`, appending each answer to
    /// `out` and the worker who gave it to `workers`; charges a binary or
    /// numeric value price per answer depending on the attribute kind.
    ///
    /// This is the one value question a platform implements: a single
    /// question is the `k = 1` batch, and a batch must be
    /// indistinguishable from `k` single questions — same answers, same
    /// ledger charges, same RNG stream. On budget exhaustion the answers
    /// collected so far stay in `out`, with their ids in `workers`, and
    /// the error is returned, exactly as `k` single questions stopping at
    /// the first refusal would leave them. Platforms without an identity
    /// layer stamp [`WorkerId::ANONYMOUS`].
    fn ask_values_attributed(
        &mut self,
        o: ObjectId,
        a: AttributeId,
        k: usize,
        out: &mut Vec<f64>,
        workers: &mut Vec<WorkerId>,
    ) -> Result<(), CrowdError>;

    /// The `k = 1` batch of [`ask_values_attributed`](Self::ask_values_attributed).
    /// Kept for implementors that still override it; callers ask in
    /// batches.
    fn ask_value_attributed(
        &mut self,
        o: ObjectId,
        a: AttributeId,
    ) -> Result<(f64, WorkerId), CrowdError> {
        let (mut out, mut workers) = (Vec::with_capacity(1), Vec::with_capacity(1));
        self.ask_values_attributed(o, a, 1, &mut out, &mut workers)?;
        Ok((out[0], workers[0]))
    }

    /// [`ask_value_attributed`](Self::ask_value_attributed) without the
    /// worker id.
    fn ask_value(&mut self, o: ObjectId, a: AttributeId) -> Result<f64, CrowdError> {
        self.ask_value_attributed(o, a).map(|(v, _)| v)
    }

    /// [`ask_values_attributed`](Self::ask_values_attributed) without the
    /// worker ids.
    fn ask_values(
        &mut self,
        o: ObjectId,
        a: AttributeId,
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), CrowdError> {
        self.ask_values_attributed(o, a, k, out, &mut Vec::with_capacity(k))
    }

    /// Asks one worker to dismantle attribute `a`; returns the raw answer
    /// text (canonical name, synonym, or junk).
    fn ask_dismantle(&mut self, a: AttributeId) -> Result<String, CrowdError>;

    /// Asks one worker whether knowing `candidate` (raw text) helps
    /// estimate `of`.
    fn ask_verify(&mut self, candidate: &str, of: AttributeId) -> Result<bool, CrowdError>;

    /// Asks one worker for an example object with true values for `attrs`.
    fn ask_example(&mut self, attrs: &[AttributeId]) -> Result<(ObjectId, Vec<f64>), CrowdError>;

    /// The ledger recording everything charged so far.
    fn ledger(&self) -> &BudgetLedger;
}

/// The narrow interface the *online phase* actually needs: per-object
/// value questions, nothing else.
///
/// [`CrowdPlatform`] bundles the four §2 question types plus ledger
/// access behind one `&mut self` receiver, which forces every consumer
/// of the online estimation kernel to hold exclusive access to the whole
/// platform. The query daemon's cross-request answer sharing cannot
/// offer that — it multiplexes one platform between concurrent requests
/// and cannot hand out `&BudgetLedger` borrows — so the estimation entry
/// points bound on this trait instead. Every `CrowdPlatform` is a
/// `ValueSource` through the blanket impl, which forwards the attributed
/// batch; request-scoped handles (e.g. `QueryCrowd`) implement only
/// this.
pub trait ValueSource {
    /// Asks `k` workers for the value of `o.a`, appending each answer to
    /// `out` and its worker to `workers`. Same contract as
    /// [`CrowdPlatform::ask_values_attributed`]: on budget exhaustion the
    /// answers collected so far stay in `out`, their ids in `workers`,
    /// and the error is returned.
    fn ask_values_attributed(
        &mut self,
        o: ObjectId,
        a: AttributeId,
        k: usize,
        out: &mut Vec<f64>,
        workers: &mut Vec<WorkerId>,
    ) -> Result<(), CrowdError>;

    /// [`ask_values_attributed`](Self::ask_values_attributed) without the
    /// worker ids. Kept for implementors that still override it; callers
    /// ask with attribution.
    fn ask_values(
        &mut self,
        o: ObjectId,
        a: AttributeId,
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), CrowdError> {
        self.ask_values_attributed(o, a, k, out, &mut Vec::with_capacity(k))
    }
}

impl<P: CrowdPlatform + ?Sized> ValueSource for P {
    fn ask_values_attributed(
        &mut self,
        o: ObjectId,
        a: AttributeId,
        k: usize,
        out: &mut Vec<f64>,
        workers: &mut Vec<WorkerId>,
    ) -> Result<(), CrowdError> {
        CrowdPlatform::ask_values_attributed(self, o, a, k, out, workers)
    }
}

/// Simulated workers over a sampled population.
#[derive(Debug)]
pub struct SimulatedCrowd {
    population: Population,
    config: CrowdConfig,
    ledger: BudgetLedger,
    rng: StdRng,
    /// Planted worker pool (pure function of `config.workers`).
    pool: WorkerPool,
    /// Identity stream, derived from the crowd seed but fully separate
    /// from the answer stream `rng` — see [`WORKER_STREAM_SALT`].
    worker_rng: StdRng,
}

impl SimulatedCrowd {
    /// Creates a simulated crowd. `cap` is the hard budget (use `None`
    /// for the uncapped online phase); `seed` makes the crowd
    /// deterministic.
    pub fn new(population: Population, config: CrowdConfig, cap: Option<Money>, seed: u64) -> Self {
        let ledger = match cap {
            Some(c) => BudgetLedger::with_cap(c),
            None => BudgetLedger::unlimited(),
        };
        let pool = WorkerPool::generate(&config.workers);
        SimulatedCrowd {
            population,
            config,
            ledger,
            rng: StdRng::seed_from_u64(seed),
            pool,
            worker_rng: StdRng::seed_from_u64(seed ^ WORKER_STREAM_SALT),
        }
    }

    /// Ground-truth population behind the crowd (for *harness-side* error
    /// measurement only — the algorithm must go through the question API).
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The active configuration.
    pub fn config(&self) -> &CrowdConfig {
        &self.config
    }

    /// The planted worker pool (for harness-side scorecards comparing
    /// observed quality against the planted truth).
    pub fn worker_pool(&self) -> &WorkerPool {
        &self.pool
    }

    fn value_kind(&self, a: AttributeId) -> (QuestionKind, Money) {
        let kind = self.population.spec().attr(a).kind;
        let price = self.config.pricing.value_price(kind);
        let qk = match kind {
            AttributeKind::Boolean => QuestionKind::BinaryValue,
            AttributeKind::Numeric => QuestionKind::NumericValue,
        };
        (qk, price)
    }

    /// Draws one value answer *after* the ledger accepted the charge.
    ///
    /// The worker identity comes off `worker_rng`; everything the answer
    /// value depends on comes off the main `rng` in the historical draw
    /// order. Under the homogeneous pool the profile is exactly neutral
    /// (`sd × 1.0`, propensity `0.0` leaving the spam guard untaken), so
    /// the value produced here is bit-identical to the pre-provenance
    /// crowd.
    fn draw_value(
        &mut self,
        kind: AttributeKind,
        truth: f64,
        mean: f64,
        sd: f64,
        worker_sd: f64,
    ) -> (f64, WorkerId) {
        let w = self.worker_rng.random_range(0..self.pool.len());
        let profile = self.pool.profile(w);
        let spam_rate = self.config.spam_rate.max(profile.spam_propensity);
        let spamming = spam_rate > 0.0 && self.rng.random::<f64>() < spam_rate;
        let v = match kind {
            // Boolean questions get a yes/no vote: Bernoulli on the
            // object's yes-propensity. E[vote | truth] = truth, so the
            // paper's unbiased-independent-noise model holds exactly, with
            // per-object variance q(1−q).
            AttributeKind::Boolean => {
                let p = if spamming { 0.5 } else { truth.clamp(0.0, 1.0) };
                if self.rng.random::<f64>() < p {
                    1.0
                } else {
                    0.0
                }
            }
            AttributeKind::Numeric => {
                if spamming {
                    // Spam: uniform garbage over a wide plausible range.
                    let span = (4.0 * sd).max(1.0);
                    mean + (self.rng.random::<f64>() * 2.0 - 1.0) * span
                } else {
                    truth + (worker_sd * profile.sd_multiplier) * standard_normal(&mut self.rng)
                }
            }
        };
        (v, WorkerId(w as u32))
    }
}

impl CrowdPlatform for SimulatedCrowd {
    /// Batched value questions: the price, attribute spec and ground
    /// truth are resolved once for the whole batch (one column lookup
    /// instead of `k`), and the ledger is charged once for the prefix the
    /// budget can pay for ([`BudgetLedger::charge_n`]). The charged
    /// answers are then drawn one by one, each with a worker off the
    /// identity stream, in exactly the order `k` single questions would
    /// draw them (`batched_ask_matches_looped_ask`).
    fn ask_values_attributed(
        &mut self,
        o: ObjectId,
        a: AttributeId,
        k: usize,
        out: &mut Vec<f64>,
        workers: &mut Vec<WorkerId>,
    ) -> Result<(), CrowdError> {
        let (qk, price) = self.value_kind(a);
        let spec = self.population.spec().attr(a);
        let (kind, mean, sd, worker_sd) = (spec.kind, spec.mean, spec.sd, spec.worker_sd);
        let truth = self.population.value(o, a);
        let (charged, charge) = self.ledger.charge_n(qk, price, k);
        out.reserve(charged);
        workers.reserve(charged);
        for _ in 0..charged {
            let (v, w) = disq_trace::time(Timer::CrowdQuestion, || {
                self.draw_value(kind, truth, mean, sd, worker_sd)
            });
            out.push(v);
            workers.push(w);
        }
        charge
    }

    fn ask_dismantle(&mut self, a: AttributeId) -> Result<String, CrowdError> {
        disq_trace::time(Timer::CrowdQuestion, || {
            self.ledger
                .charge(QuestionKind::Dismantle, self.config.pricing.dismantle)?;
            let spec = self.population.spec();
            let keep = (1.0 - self.config.junk_rate_boost).clamp(0.0, 1.0);
            let mut u: f64 = self.rng.random();
            for &(ans, p) in spec.dismantle_distribution(a) {
                let p = p * keep;
                if u < p {
                    let attr = spec.attr(ans);
                    // Optionally phrase the answer as a synonym.
                    if !attr.synonyms.is_empty()
                        && self.config.synonym_rate > 0.0
                        && self.rng.random::<f64>() < self.config.synonym_rate
                    {
                        let i = self.rng.random_range(0..attr.synonyms.len());
                        return Ok(attr.synonyms[i].clone());
                    }
                    return Ok(attr.name.clone());
                }
                u -= p;
            }
            // Leftover mass: an irrelevant answer.
            let i = self.rng.random_range(0..JUNK_PHRASES.len());
            Ok(JUNK_PHRASES[i].to_string())
        })
    }

    fn ask_verify(&mut self, candidate: &str, of: AttributeId) -> Result<bool, CrowdError> {
        disq_trace::time(Timer::CrowdQuestion, || {
            self.ledger
                .charge(QuestionKind::Verify, self.config.pricing.verify)?;
            let spec = self.population.spec();
            let p_yes = match spec.id_of(candidate) {
                Some(c) => {
                    let rho = spec.correlation(c, of).abs();
                    (0.2 + 1.1 * rho).clamp(0.05, 0.95)
                }
                // Junk the crowd does not recognize as related.
                None => 0.15,
            };
            Ok(self.rng.random::<f64>() < p_yes)
        })
    }

    fn ask_example(&mut self, attrs: &[AttributeId]) -> Result<(ObjectId, Vec<f64>), CrowdError> {
        disq_trace::time(Timer::CrowdQuestion, || {
            self.ledger
                .charge(QuestionKind::Example, self.config.pricing.example)?;
            if self.population.n_objects() == 0 {
                return Err(CrowdError::EmptyPopulation);
            }
            let o = ObjectId(self.rng.random_range(0..self.population.n_objects()));
            let values = attrs.iter().map(|&a| self.population.value(o, a)).collect();
            Ok((o, values))
        })
    }

    fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disq_domain::domains::pictures;
    use std::sync::Arc;

    fn crowd(cap: Option<Money>) -> SimulatedCrowd {
        let spec = Arc::new(pictures::spec());
        let mut rng = StdRng::seed_from_u64(0);
        let pop = Population::sample(spec, 500, &mut rng).unwrap();
        SimulatedCrowd::new(pop, CrowdConfig::default(), cap, 42)
    }

    #[test]
    fn value_answers_center_on_truth() {
        let mut c = crowd(None);
        let spec = c.population().spec();
        let bmi = spec.id_of("Bmi").unwrap();
        let o = ObjectId(3);
        let truth = c.population().value(o, bmi);
        let n = 3000;
        let avg: f64 = (0..n).map(|_| c.ask_value(o, bmi).unwrap()).sum::<f64>() / n as f64;
        // Worker sd for Bmi is sqrt(90) ≈ 9.5; the mean of 3000 answers has
        // sd ≈ 0.1.
        assert!((avg - truth).abs() < 0.5, "avg {avg} truth {truth}");
    }

    #[test]
    fn value_answer_noise_matches_sc() {
        let mut c = crowd(None);
        let spec = c.population().spec();
        let bmi = spec.id_of("Bmi").unwrap();
        let o = ObjectId(1);
        let n = 4000;
        let answers: Vec<f64> = (0..n).map(|_| c.ask_value(o, bmi).unwrap()).collect();
        let mean = answers.iter().sum::<f64>() / n as f64;
        let var = answers.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((var - 90.0).abs() < 9.0, "var {var}");
    }

    #[test]
    fn boolean_answers_clamped() {
        let mut c = crowd(None);
        let spec = c.population().spec();
        let heavy = spec.id_of("Heavy").unwrap();
        for i in 0..200 {
            let v = c.ask_value(ObjectId(i % 50), heavy).unwrap();
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn value_questions_priced_by_kind() {
        let mut c = crowd(None);
        let spec = c.population().spec();
        let bmi = spec.id_of("Bmi").unwrap(); // numeric
        let heavy = spec.id_of("Heavy").unwrap(); // boolean
        c.ask_value(ObjectId(0), bmi).unwrap();
        c.ask_value(ObjectId(0), heavy).unwrap();
        assert_eq!(c.ledger().count(QuestionKind::NumericValue), 1);
        assert_eq!(c.ledger().count(QuestionKind::BinaryValue), 1);
        assert_eq!(c.ledger().spent(), Money::from_cents(0.5));
    }

    #[test]
    fn dismantle_frequencies_follow_table4() {
        let mut c = crowd(None);
        let spec = c.population().spec();
        let bmi = spec.id_of("Bmi").unwrap();
        let n = 4000;
        let mut weight_count = 0;
        let mut junk_count = 0;
        for _ in 0..n {
            let ans = c.ask_dismantle(bmi).unwrap();
            match c.population().spec().id_of(&ans) {
                Some(id) if c.population().spec().attr(id).name == "Weight" => weight_count += 1,
                Some(_) => {}
                None => junk_count += 1,
            }
        }
        let weight_freq = weight_count as f64 / n as f64;
        assert!((weight_freq - 0.33).abs() < 0.03, "weight {weight_freq}");
        // Bmi's Table 4a relevant mass is 0.74, so ~26% junk.
        let junk_freq = junk_count as f64 / n as f64;
        assert!((junk_freq - 0.26).abs() < 0.03, "junk {junk_freq}");
    }

    #[test]
    fn junk_boost_increases_junk() {
        let spec = Arc::new(pictures::spec());
        let mut rng = StdRng::seed_from_u64(0);
        let pop = Population::sample(Arc::clone(&spec), 100, &mut rng).unwrap();
        let cfg = CrowdConfig {
            junk_rate_boost: 0.5,
            ..Default::default()
        };
        let mut c = SimulatedCrowd::new(pop, cfg, None, 7);
        let bmi = spec.id_of("Bmi").unwrap();
        let n = 2000;
        let junk = (0..n)
            .filter(|_| {
                let ans = c.ask_dismantle(bmi).unwrap();
                spec.id_of(&ans).is_none()
            })
            .count();
        let freq = junk as f64 / n as f64;
        // 1 - 0.87*0.5 ≈ 0.565 expected junk.
        assert!(freq > 0.45, "junk freq {freq}");
    }

    #[test]
    fn synonyms_surface_when_enabled() {
        let spec = Arc::new(pictures::spec());
        let mut rng = StdRng::seed_from_u64(0);
        let pop = Population::sample(Arc::clone(&spec), 100, &mut rng).unwrap();
        let cfg = CrowdConfig {
            synonym_rate: 1.0,
            ..Default::default()
        };
        let mut c = SimulatedCrowd::new(pop, cfg, None, 7);
        let bmi = spec.id_of("Bmi").unwrap();
        // Heavy has synonyms; with rate 1.0 any Heavy answer must be a
        // synonym, never the canonical name.
        for _ in 0..500 {
            let ans = c.ask_dismantle(bmi).unwrap();
            assert_ne!(ans, "Heavy");
        }
    }

    #[test]
    fn verify_separates_relevant_from_junk() {
        let mut c = crowd(None);
        let spec = c.population().spec();
        let bmi = spec.id_of("Bmi").unwrap();
        let n = 500;
        let yes_weight = (0..n)
            .filter(|_| c.ask_verify("Weight", bmi).unwrap())
            .count();
        let yes_junk = (0..n)
            .filter(|_| c.ask_verify("phase of the moon", bmi).unwrap())
            .count();
        assert!(yes_weight as f64 / n as f64 > 0.7);
        assert!((yes_junk as f64 / n as f64) < 0.3);
    }

    #[test]
    fn verify_accepts_synonym_phrasing() {
        let mut c = crowd(None);
        let spec = c.population().spec();
        let bmi = spec.id_of("Bmi").unwrap();
        let n = 400;
        // "big" is a synonym of Heavy (rho 0.86 with Bmi).
        let yes = (0..n).filter(|_| c.ask_verify("big", bmi).unwrap()).count();
        assert!(yes as f64 / n as f64 > 0.6);
    }

    #[test]
    fn examples_return_truth() {
        let mut c = crowd(None);
        let spec = c.population().spec();
        let bmi = spec.id_of("Bmi").unwrap();
        let age = spec.id_of("Age").unwrap();
        let (o, values) = c.ask_example(&[bmi, age]).unwrap();
        assert_eq!(values.len(), 2);
        assert_eq!(values[0], c.population().value(o, bmi));
        assert_eq!(values[1], c.population().value(o, age));
        assert_eq!(c.ledger().count(QuestionKind::Example), 1);
    }

    #[test]
    fn budget_cap_stops_questions() {
        let mut c = crowd(Some(Money::from_cents(1.5)));
        let spec = c.population().spec();
        let bmi = spec.id_of("Bmi").unwrap();
        c.ask_dismantle(bmi).unwrap(); // exactly exhausts 1.5¢
        let err = c.ask_dismantle(bmi).unwrap_err();
        assert!(matches!(err, CrowdError::BudgetExhausted { .. }));
        assert_eq!(c.ledger().count(QuestionKind::Dismantle), 1);
    }

    #[test]
    fn spam_rate_inflates_answer_spread() {
        let spec = Arc::new(pictures::spec());
        let mut rng = StdRng::seed_from_u64(0);
        let pop = Population::sample(Arc::clone(&spec), 100, &mut rng).unwrap();
        let clean = SimulatedCrowd::new(pop.clone(), CrowdConfig::default(), None, 1);
        let spammy = SimulatedCrowd::new(
            pop,
            CrowdConfig {
                spam_rate: 0.3,
                ..Default::default()
            },
            None,
            1,
        );
        let height = spec.id_of("Height").unwrap();
        let spread = |mut c: SimulatedCrowd| {
            let xs: Vec<f64> = (0..2000)
                .map(|_| c.ask_value(ObjectId(0), height).unwrap())
                .collect();
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
        };
        assert!(spread(spammy) > spread(clean) * 1.5);
    }

    /// `ask_values` must be indistinguishable from `k` `ask_value` calls
    /// on an identically-seeded crowd: same answers bit-for-bit, same
    /// ledger state, same RNG stream afterwards.
    fn assert_batched_matches_looped(cfg: CrowdConfig, attr_name: &str) {
        let spec = Arc::new(pictures::spec());
        let mut rng = StdRng::seed_from_u64(0);
        let pop = Population::sample(Arc::clone(&spec), 100, &mut rng).unwrap();
        let attr = spec.id_of(attr_name).unwrap();
        let mut batched = SimulatedCrowd::new(pop.clone(), cfg.clone(), None, 11);
        let mut looped = SimulatedCrowd::new(pop, cfg, None, 11);
        let mut got = Vec::new();
        for round in 0..6 {
            let o = ObjectId(round % 5);
            let k = [0, 1, 2, 7][round % 4];
            got.clear();
            CrowdPlatform::ask_values(&mut batched, o, attr, k, &mut got).unwrap();
            let want: Vec<f64> = (0..k).map(|_| looped.ask_value(o, attr).unwrap()).collect();
            assert_eq!(got, want, "round {round} (k={k})");
        }
        assert_eq!(batched.ledger().spent(), looped.ledger().spent());
        assert_eq!(
            batched.ledger().total_questions(),
            looped.ledger().total_questions()
        );
        // The RNG streams stay aligned: a single follow-up question agrees.
        let bmi = spec.id_of("Bmi").unwrap();
        assert_eq!(
            batched.ask_value(ObjectId(9), bmi).unwrap(),
            looped.ask_value(ObjectId(9), bmi).unwrap()
        );
    }

    #[test]
    fn batched_ask_matches_looped_ask_numeric() {
        assert_batched_matches_looped(CrowdConfig::default(), "Bmi");
    }

    #[test]
    fn batched_ask_matches_looped_ask_boolean() {
        assert_batched_matches_looped(CrowdConfig::default(), "Heavy");
    }

    #[test]
    fn batched_ask_matches_looped_ask_with_spam() {
        let cfg = CrowdConfig {
            spam_rate: 0.3,
            ..Default::default()
        };
        assert_batched_matches_looped(cfg.clone(), "Height");
        assert_batched_matches_looped(cfg, "Heavy");
    }

    #[test]
    fn batched_ask_keeps_partial_answers_on_budget_exhaustion() {
        let spec = Arc::new(pictures::spec());
        let mut rng = StdRng::seed_from_u64(0);
        let pop = Population::sample(Arc::clone(&spec), 50, &mut rng).unwrap();
        let bmi = spec.id_of("Bmi").unwrap();
        // Numeric values cost 0.4¢: a 1.2¢ cap affords exactly 3 of 5.
        let cap = Some(Money::from_cents(1.2));
        let mut batched = SimulatedCrowd::new(pop.clone(), CrowdConfig::default(), cap, 3);
        let mut looped = SimulatedCrowd::new(pop, CrowdConfig::default(), cap, 3);
        let mut got = Vec::new();
        let err =
            CrowdPlatform::ask_values(&mut batched, ObjectId(0), bmi, 5, &mut got).unwrap_err();
        assert!(matches!(err, CrowdError::BudgetExhausted { .. }));
        let mut want = Vec::new();
        let want_err = loop {
            match looped.ask_value(ObjectId(0), bmi) {
                Ok(v) => want.push(v),
                Err(e) => break e,
            }
        };
        assert_eq!(got, want);
        assert_eq!(got.len(), 3);
        assert!(matches!(want_err, CrowdError::BudgetExhausted { .. }));
        assert_eq!(batched.ledger().spent(), looped.ledger().spent());
    }

    #[test]
    fn deterministic_under_seed() {
        let spec = Arc::new(pictures::spec());
        let mut rng = StdRng::seed_from_u64(0);
        let pop = Population::sample(Arc::clone(&spec), 100, &mut rng).unwrap();
        let bmi = spec.id_of("Bmi").unwrap();
        let mut a = SimulatedCrowd::new(pop.clone(), CrowdConfig::default(), None, 5);
        let mut b = SimulatedCrowd::new(pop, CrowdConfig::default(), None, 5);
        for i in 0..50 {
            assert_eq!(
                a.ask_value(ObjectId(i), bmi).unwrap(),
                b.ask_value(ObjectId(i), bmi).unwrap()
            );
        }
    }

    use crate::worker::{WorkerConfig, WorkerModel};

    fn crowd_with_workers(workers: WorkerConfig, seed: u64) -> SimulatedCrowd {
        let spec = Arc::new(pictures::spec());
        let mut rng = StdRng::seed_from_u64(0);
        let pop = Population::sample(spec, 200, &mut rng).unwrap();
        let cfg = CrowdConfig {
            workers,
            ..Default::default()
        };
        SimulatedCrowd::new(pop, cfg, None, seed)
    }

    /// Attributed and plain asks are the *same* call: identical answer
    /// values, and the identity stream stays aligned so a later
    /// attributed ask sees the same worker either way.
    #[test]
    fn attributed_matches_plain_and_streams_stay_aligned() {
        let workers = WorkerConfig {
            pool: 8,
            ..Default::default()
        };
        let mut plain = crowd_with_workers(workers.clone(), 11);
        let mut attr = crowd_with_workers(workers, 11);
        let spec = plain.population().spec();
        let bmi = spec.id_of("Bmi").unwrap();
        let mut vals = Vec::new();
        let mut ws = Vec::new();
        CrowdPlatform::ask_values_attributed(&mut attr, ObjectId(0), bmi, 7, &mut vals, &mut ws)
            .unwrap();
        let mut want = Vec::new();
        CrowdPlatform::ask_values(&mut plain, ObjectId(0), bmi, 7, &mut want).unwrap();
        assert_eq!(vals, want);
        assert_eq!(ws.len(), 7);
        assert!(ws.iter().all(|w| !w.is_anonymous() && w.0 < 8));
        // Both crowds drew 7 identities; the next one agrees.
        let (va, wa) = attr.ask_value_attributed(ObjectId(1), bmi).unwrap();
        let (vp, wp) = plain.ask_value_attributed(ObjectId(1), bmi).unwrap();
        assert_eq!((va, wa), (vp, wp));
    }

    /// The tentpole's byte-identity claim: under the homogeneous model
    /// the answer stream does not depend on the pool size at all (worker
    /// draws ride a separate RNG stream and neutral profiles multiply
    /// the noise sd by exactly 1.0).
    #[test]
    fn homogeneous_answers_are_invariant_to_pool_size() {
        for attr_name in ["Bmi", "Heavy"] {
            let mut small = crowd_with_workers(
                WorkerConfig {
                    pool: 1,
                    ..Default::default()
                },
                13,
            );
            let mut large = crowd_with_workers(
                WorkerConfig {
                    pool: 64,
                    ..Default::default()
                },
                13,
            );
            let spec = small.population().spec();
            let a = spec.id_of(attr_name).unwrap();
            for i in 0..60 {
                let o = ObjectId(i % 9);
                assert_eq!(
                    small.ask_value(o, a).unwrap(),
                    large.ask_value(o, a).unwrap(),
                    "{attr_name} answer {i}"
                );
            }
        }
    }

    /// With crowd-level spam in play the homogeneous identity layer must
    /// still not disturb the stream (the spam guard consumes main-stream
    /// draws).
    #[test]
    fn homogeneous_spammy_answers_are_invariant_to_pool_size() {
        let base = CrowdConfig {
            spam_rate: 0.3,
            ..Default::default()
        };
        let spec = Arc::new(pictures::spec());
        let mut rng = StdRng::seed_from_u64(0);
        let pop = Population::sample(Arc::clone(&spec), 100, &mut rng).unwrap();
        let mk = |pool: usize, pop: Population| {
            let cfg = CrowdConfig {
                workers: WorkerConfig {
                    pool,
                    ..Default::default()
                },
                ..base.clone()
            };
            SimulatedCrowd::new(pop, cfg, None, 17)
        };
        let mut small = mk(2, pop.clone());
        let mut large = mk(32, pop);
        let h = spec.id_of("Height").unwrap();
        for i in 0..80 {
            let o = ObjectId(i % 7);
            assert_eq!(
                small.ask_value(o, h).unwrap(),
                large.ask_value(o, h).unwrap()
            );
        }
    }

    /// Heterogeneous mode actually changes behaviour: a planted spammer
    /// answers garbage at its propensity even with crowd-wide spam off,
    /// and high-multiplier workers answer with inflated noise.
    #[test]
    fn heterogeneous_profiles_shape_answers() {
        let workers = WorkerConfig {
            pool: 32,
            model: WorkerModel::Heterogeneous,
            ..Default::default()
        };
        let mut c = crowd_with_workers(workers.clone(), 23);
        let pool = c.worker_pool().clone();
        let spammer = pool
            .iter()
            .find(|(_, p)| p.spam_propensity > 0.0)
            .map(|(w, _)| w)
            .expect("seeded 32-worker pool at 12.5% spammer fraction plants one");
        let spec = c.population().spec();
        let height = spec.id_of("Height").unwrap();
        let truth = c.population().value(ObjectId(0), height);
        let worker_sd = spec.attr(height).worker_sd;
        let mut by_worker: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
        for _ in 0..6000 {
            let (v, w) = c.ask_value_attributed(ObjectId(0), height).unwrap();
            by_worker.entry(w.0).or_default().push(v);
        }
        assert_eq!(by_worker.len(), 32, "uniform assignment hits every worker");
        // The spammer's answers are uniform over ±4sd around the attribute
        // mean: their spread dwarfs an honest worker's.
        let sd_of = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        let honest_low = pool
            .iter()
            .filter(|(_, p)| p.spam_propensity == 0.0)
            .min_by(|a, b| a.1.sd_multiplier.total_cmp(&b.1.sd_multiplier))
            .unwrap();
        let spam_sd = sd_of(&by_worker[&spammer.0]);
        let low_sd = sd_of(&by_worker[&honest_low.0 .0]);
        assert!(
            spam_sd > 2.0 * low_sd,
            "spammer sd {spam_sd} vs best honest {low_sd}"
        );
        // Honest answers still center on truth with sd ≈ worker_sd × mult.
        let honest_mean = by_worker[&honest_low.0 .0].iter().sum::<f64>()
            / by_worker[&honest_low.0 .0].len() as f64;
        assert!(
            (honest_mean - truth).abs() < worker_sd,
            "honest mean {honest_mean} truth {truth}"
        );
    }
}
