//! Worker identity, the simulated worker pool, and per-worker tallies.
//!
//! The paper ran on CrowdFlower, where every answer came from an
//! identifiable paid worker; this module restores that provenance to the
//! simulation. [`SimulatedCrowd`](crate::SimulatedCrowd) stamps every
//! value answer with a [`WorkerId`] drawn from a *separate* derived RNG
//! stream, so the identity layer never perturbs the answer-value stream:
//! the default homogeneous pool keeps every experiment table
//! byte-identical to an anonymous crowd.
//!
//! The opt-in heterogeneous model (`DISQ_WORKER_MODEL=hetero`) plants a
//! quality profile per worker — a lognormal noise-variance multiplier
//! and, for a spammer fraction of the pool, a spam propensity — from a
//! pool seed that is *fixed across crowds*, so worker #7 is the same
//! worker in every cell and repetition and tallies aggregate
//! meaningfully across runs.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;

/// Identity of one simulated worker within a crowd's pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub u32);

impl WorkerId {
    /// The "no identity recorded" sentinel: platforms that predate the
    /// provenance layer (or third-party [`crate::CrowdPlatform`] impls
    /// using the default attributed methods) stamp answers with this.
    pub const ANONYMOUS: WorkerId = WorkerId(u32::MAX);

    /// True for the [`ANONYMOUS`](Self::ANONYMOUS) sentinel.
    pub fn is_anonymous(self) -> bool {
        self == WorkerId::ANONYMOUS
    }
}

/// Which quality model the pool is generated under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkerModel {
    /// Every worker behaves identically (multiplier 1, no extra spam):
    /// answer values are byte-identical to an anonymous crowd.
    #[default]
    Homogeneous,
    /// Per-worker lognormal variance multipliers plus a spammer
    /// subpopulation with elevated spam propensity.
    Heterogeneous,
}

/// Configuration of the worker pool (`DISQ_WORKER_POOL`,
/// `DISQ_WORKER_MODEL`).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerConfig {
    /// Workers in the pool (≥ 1).
    pub pool: usize,
    /// Quality model.
    pub model: WorkerModel,
    /// Seed the planted profiles derive from. Fixed by default (and
    /// *not* mixed with the per-crowd answer seed) so the same worker id
    /// denotes the same planted quality in every cell and repetition.
    pub pool_seed: u64,
    /// Lognormal sigma of the per-worker noise-sd multiplier
    /// (heterogeneous model only).
    pub sd_log_sigma: f64,
    /// Fraction of the pool drawn as spammers (heterogeneous only).
    pub spam_frac: f64,
    /// Spam propensity planted on each spammer (heterogeneous only).
    pub spammer_rate: f64,
}

/// Default pool size when `DISQ_WORKER_POOL` is unset.
pub const DEFAULT_POOL: usize = 16;

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            pool: DEFAULT_POOL,
            model: WorkerModel::Homogeneous,
            pool_seed: 0x0D15_C0DE,
            sd_log_sigma: 0.6,
            spam_frac: 0.125,
            spammer_rate: 0.85,
        }
    }
}

impl WorkerConfig {
    /// Reads `DISQ_WORKER_POOL` (pool size) and `DISQ_WORKER_MODEL`
    /// (`hetero` opts into the heterogeneous model; anything else —
    /// including unset — stays homogeneous). Unparsable values fall back
    /// to the defaults.
    pub fn from_env() -> Self {
        let mut cfg = WorkerConfig::default();
        if let Ok(raw) = std::env::var("DISQ_WORKER_POOL") {
            if let Some(n) = parse_pool(&raw) {
                cfg.pool = n;
            }
        }
        if let Ok(raw) = std::env::var("DISQ_WORKER_MODEL") {
            cfg.model = parse_model(&raw);
        }
        cfg
    }
}

/// Parses a `DISQ_WORKER_POOL` value; `None` on garbage or zero.
pub(crate) fn parse_pool(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Parses a `DISQ_WORKER_MODEL` value (`hetero`/`heterogeneous` opt in).
pub(crate) fn parse_model(raw: &str) -> WorkerModel {
    match raw.trim().to_ascii_lowercase().as_str() {
        "hetero" | "heterogeneous" => WorkerModel::Heterogeneous,
        _ => WorkerModel::Homogeneous,
    }
}

/// One worker's planted quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerProfile {
    /// Multiplier applied to the attribute's per-answer noise sd for
    /// numeric answers. 1.0 under the homogeneous model — `sd * 1.0` is
    /// bitwise `sd`, which is what keeps default runs byte-identical.
    pub sd_multiplier: f64,
    /// Worker-specific spam probability, combined with the crowd-wide
    /// rate as `max(spam_rate, spam_propensity)`. 0.0 when honest.
    pub spam_propensity: f64,
}

impl WorkerProfile {
    /// The homogeneous profile: behaves exactly like the anonymous crowd.
    pub const NEUTRAL: WorkerProfile = WorkerProfile {
        sd_multiplier: 1.0,
        spam_propensity: 0.0,
    };
}

/// The planted pool: one profile per worker, derived purely from the
/// [`WorkerConfig`] (never from the per-crowd answer seed).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerPool {
    profiles: Vec<WorkerProfile>,
}

impl WorkerPool {
    /// Generates the pool for `config`. Heterogeneous profiles draw the
    /// sd multiplier as `exp(sd_log_sigma · N(0,1))` and make each
    /// worker a spammer (propensity `spammer_rate`) with probability
    /// `spam_frac`, all from a dedicated RNG seeded by `pool_seed`.
    pub fn generate(config: &WorkerConfig) -> Self {
        let n = config.pool.max(1);
        let profiles = match config.model {
            WorkerModel::Homogeneous => vec![WorkerProfile::NEUTRAL; n],
            WorkerModel::Heterogeneous => {
                let mut rng = StdRng::seed_from_u64(config.pool_seed);
                (0..n)
                    .map(|_| {
                        let mult =
                            (config.sd_log_sigma * disq_math::standard_normal(&mut rng)).exp();
                        let spammer = rng.random::<f64>() < config.spam_frac;
                        WorkerProfile {
                            sd_multiplier: mult,
                            spam_propensity: if spammer { config.spammer_rate } else { 0.0 },
                        }
                    })
                    .collect()
            }
        };
        WorkerPool { profiles }
    }

    /// Workers in the pool.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Always false: [`generate`](Self::generate) clamps to ≥ 1 worker.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The planted profile of worker `w` (panics when out of range).
    pub fn profile(&self, w: usize) -> WorkerProfile {
        self.profiles[w]
    }

    /// Iterates `(worker id, planted profile)`.
    pub fn iter(&self) -> impl Iterator<Item = (WorkerId, WorkerProfile)> + '_ {
        self.profiles
            .iter()
            .enumerate()
            .map(|(i, &p)| (WorkerId(i as u32), p))
    }
}

/// Observed tallies of one worker across an audited run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerTally {
    /// Binary value answers attributed to the worker.
    pub binary_answers: u64,
    /// Numeric value answers attributed to the worker.
    pub numeric_answers: u64,
    /// Answers of either kind the spam filter rejected.
    pub rejected: u64,
    /// Standardized residuals recorded (kept answers of well-formed
    /// batches only).
    pub residual_n: u64,
    /// Sum of those standardized residuals.
    pub residual_sum: f64,
    /// Sum of their squares. Raw moments (not a running variance) so
    /// tallies from separate runs add exactly.
    pub residual_sq: f64,
}

impl WorkerTally {
    /// Total answers attributed to the worker.
    pub fn answers(&self) -> u64 {
        self.binary_answers + self.numeric_answers
    }
}

/// Per-worker tallies of an audited run, keyed by worker id.
/// [`WorkerId::ANONYMOUS`] answers are not attributable and are skipped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerLedger {
    tallies: BTreeMap<u32, WorkerTally>,
}

impl WorkerLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one attributed answer and the filter's verdict on it.
    pub fn record_answer(&mut self, worker: WorkerId, numeric: bool, rejected: bool) {
        if worker.is_anonymous() {
            return;
        }
        let t = self.tallies.entry(worker.0).or_default();
        if numeric {
            t.numeric_answers += 1;
        } else {
            t.binary_answers += 1;
        }
        t.rejected += rejected as u64;
    }

    /// Records one kept answer's standardized residual
    /// `(answer − batch mean) / batch sd`.
    pub fn record_residual(&mut self, worker: WorkerId, z: f64) {
        if worker.is_anonymous() || !z.is_finite() {
            return;
        }
        let t = self.tallies.entry(worker.0).or_default();
        t.residual_n += 1;
        t.residual_sum += z;
        t.residual_sq += z * z;
    }

    /// The tally of one worker, if any answers were attributed to it.
    pub fn get(&self, worker: WorkerId) -> Option<&WorkerTally> {
        self.tallies.get(&worker.0)
    }

    /// Iterates tallies in worker-id order.
    pub fn iter(&self) -> impl Iterator<Item = (WorkerId, &WorkerTally)> {
        self.tallies.iter().map(|(&w, t)| (WorkerId(w), t))
    }

    /// Workers with at least one attributed answer.
    pub fn len(&self) -> usize {
        self.tallies.len()
    }

    /// True when nothing was attributed.
    pub fn is_empty(&self) -> bool {
        self.tallies.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anonymous_sentinel_is_recognised() {
        assert!(WorkerId::ANONYMOUS.is_anonymous());
        assert!(!WorkerId(0).is_anonymous());
    }

    #[test]
    fn env_parsers_accept_and_reject() {
        assert_eq!(parse_pool("32"), Some(32));
        assert_eq!(parse_pool(" 7 "), Some(7));
        assert_eq!(parse_pool("0"), None);
        assert_eq!(parse_pool("x"), None);
        assert_eq!(parse_model("hetero"), WorkerModel::Heterogeneous);
        assert_eq!(parse_model("HETEROGENEOUS"), WorkerModel::Heterogeneous);
        assert_eq!(parse_model("homogeneous"), WorkerModel::Homogeneous);
        assert_eq!(parse_model(""), WorkerModel::Homogeneous);
    }

    #[test]
    fn homogeneous_pool_is_all_neutral() {
        let pool = WorkerPool::generate(&WorkerConfig::default());
        assert_eq!(pool.len(), DEFAULT_POOL);
        for (_, p) in pool.iter() {
            assert_eq!(p, WorkerProfile::NEUTRAL);
        }
    }

    #[test]
    fn heterogeneous_pool_is_deterministic_and_planted() {
        let cfg = WorkerConfig {
            pool: 64,
            model: WorkerModel::Heterogeneous,
            ..Default::default()
        };
        let a = WorkerPool::generate(&cfg);
        let b = WorkerPool::generate(&cfg);
        assert_eq!(a, b, "pool is a pure function of the config");
        // Multipliers spread around 1 and at least one spammer exists at
        // a 12.5% spammer fraction over 64 workers (seeded, so stable).
        let mults: Vec<f64> = a.iter().map(|(_, p)| p.sd_multiplier).collect();
        assert!(mults.iter().any(|&m| m > 1.2));
        assert!(mults.iter().any(|&m| m < 0.8));
        assert!(a.iter().any(|(_, p)| p.spam_propensity > 0.0));
        // The pool seed is independent of the crowd seed: changing it
        // changes the profiles.
        let other = WorkerPool::generate(&WorkerConfig {
            pool_seed: 99,
            ..cfg
        });
        assert_ne!(a, other);
    }

    #[test]
    fn pool_size_clamps_to_one() {
        let cfg = WorkerConfig {
            pool: 0,
            ..Default::default()
        };
        assert_eq!(WorkerPool::generate(&cfg).len(), 1);
    }

    #[test]
    fn ledger_tallies_answers_and_residuals() {
        let mut l = WorkerLedger::new();
        l.record_answer(WorkerId(2), true, false);
        l.record_answer(WorkerId(2), true, true);
        l.record_answer(WorkerId(2), false, false);
        l.record_answer(WorkerId::ANONYMOUS, true, true); // skipped
        l.record_residual(WorkerId(2), 1.0);
        l.record_residual(WorkerId(2), -1.0);
        l.record_residual(WorkerId(2), f64::NAN); // skipped
        assert_eq!(l.len(), 1);
        let t = l.get(WorkerId(2)).unwrap();
        assert_eq!(t.answers(), 3);
        assert_eq!(t.numeric_answers, 2);
        assert_eq!(t.binary_answers, 1);
        assert_eq!(t.rejected, 1);
        assert_eq!(t.residual_n, 2);
        assert_eq!(t.residual_sum, 0.0);
        assert_eq!(t.residual_sq, 2.0);
        assert!(l.get(WorkerId(7)).is_none());
    }
}
