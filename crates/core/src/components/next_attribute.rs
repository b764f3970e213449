//! `GetNextAttribute`: which attribute should the crowd dismantle next?
//!
//! Eq. 8 (single target) / Eq. 9 (multi-target): pick the attribute `a_j`
//! maximizing
//!
//! ```text
//! Pr(new | a_j) · Σ_t ω_t · [ G(a_t, a_j) − L(a_t, A, B_obj, 1) ]
//! ```
//!
//! where `Pr(new | a_j) = 1/(n_j + 2)` (Eq. 4), the *gain*
//! `G = ρ̂²·S_o[a_j]²/σ(a_j)²` is the explained variance a hypothetical
//! answer would add under the Eqs. 5–7 optimism assumptions (answer
//! correlated `ρ̂ ≈ 0.5` with `a_j`, noiseless, uncorrelated with existing
//! attributes), and the *loss* `L` is the objective drop from moving one
//! question's worth of online budget off the current attributes.

use crate::components::budget_dist::{greedy_objective_with, BudgetSolver};
use crate::{AttributePool, DisqConfig, DisqError, SelectionStrategy};
use disq_crowd::Money;
use disq_stats::{NewAnswerModel, StatsTrio};
use disq_trace::{CandidateScore, Counter, TraceEvent};
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::HashMap;

/// Scratch state carried across successive [`choose_dismantle_target`]
/// calls of one dismantling loop.
///
/// The expensive part of a dismantle decision is the loss term
/// `L(a_t, A, B_obj, 1)`: two greedy budget solves per target. The
/// statistics trio only changes when a dismantling question actually
/// *discovers* a new attribute — duplicate, junk and SPRT-rejected
/// answers (the common outcomes) leave it untouched, so consecutive
/// decisions repeat the identical probes. This scratch memoizes each
/// probe objective keyed by `(budget, target)` under a trio fingerprint
/// guard, and reuses one [`BudgetSolver`] (factor state + workspaces)
/// for every probe that must actually run.
///
/// The guard is content-based: [`StatsTrio::fingerprint`] hashes every
/// stored statistic, so a cache survives only a trio whose values are
/// unchanged bit for bit, however it was written. Every decision pays
/// for one fingerprint, so the hash takes one multiply step per stored
/// value, not one per byte.
#[derive(Debug, Clone, Default)]
pub struct DismantleScratch {
    solver: BudgetSolver,
    /// Fingerprint of the trio the cached probes were computed against.
    fingerprint: u64,
    /// `(budget millicents, target) → greedy objective`. Valid only
    /// while the trio fingerprint matches: the cost vector is a pure
    /// function of the pool, which cannot change without the trio
    /// changing too.
    probes: HashMap<(i64, usize), f64>,
    /// Reusable one-hot weight buffer for per-target probes.
    unit: Vec<f64>,
}

impl DismantleScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Invalidates the probe cache unless it was built against `trio`'s
    /// exact current statistics.
    fn sync(&mut self, trio: &StatsTrio) {
        let fp = trio.fingerprint();
        if self.fingerprint != fp {
            self.probes.clear();
            self.fingerprint = fp;
        }
    }

    /// The greedy objective for one target under `budget`, memoized.
    fn probe(
        &mut self,
        trio: &StatsTrio,
        target: usize,
        budget: Money,
        costs: &[Money],
    ) -> Result<f64, DisqError> {
        let key = (budget.millicents(), target);
        if let Some(&v) = self.probes.get(&key) {
            disq_trace::count(Counter::ProbeCacheHits);
            return Ok(v);
        }
        self.unit.clear();
        self.unit.resize(trio.n_targets(), 0.0);
        self.unit[target] = 1.0;
        let v = greedy_objective_with(&mut self.solver, trio, &self.unit, budget, costs)?;
        self.probes.insert(key, v);
        Ok(v)
    }
}

/// Chooses the pool index of the next attribute to dismantle, or `None`
/// when no attribute has positive expected value (a stopping signal).
#[allow(clippy::too_many_arguments)] // mirrors the paper's component signature
pub fn choose_dismantle_target(
    trio: &StatsTrio,
    pool: &AttributePool,
    model: &NewAnswerModel,
    weights: &[f64],
    b_obj: Money,
    costs: &[Money],
    config: &DisqConfig,
    rng: &mut StdRng,
    scratch: &mut DismantleScratch,
) -> Result<Option<usize>, DisqError> {
    if pool.is_empty() {
        return Ok(None);
    }
    let candidates: Vec<usize> = match config.selection {
        SelectionStrategy::Optimal => (0..pool.len()).collect(),
        SelectionStrategy::QueryOnly => pool.query_indices(),
        SelectionStrategy::Random => {
            let i = rng.random_range(0..pool.len());
            disq_trace::count(Counter::DismantleChoices);
            disq_trace::emit(|| TraceEvent::DismantleChoice {
                chosen: Some(i as u32),
                scores: Vec::new(),
            });
            return Ok(Some(i));
        }
    };
    if candidates.is_empty() {
        return Ok(None);
    }

    // L(a_t, A, B_obj, 1): objective with the full budget minus the
    // objective with one (cheapest) question's budget removed — computed
    // once per target, shared by all candidates.
    let delta = costs
        .iter()
        .copied()
        .filter(|c| c.is_positive())
        .min()
        .unwrap_or(Money::from_cents(0.1));
    let reduced = b_obj.saturating_sub_floor_zero(delta);
    scratch.sync(trio);
    let mut losses = vec![0.0; trio.n_targets()];
    for (t, loss) in losses.iter_mut().enumerate() {
        let full = scratch.probe(trio, t, b_obj, costs)?;
        let less = scratch.probe(trio, t, reduced, costs)?;
        *loss = (full - less).max(0.0);
    }

    let rho2 = config.rho_assumption * config.rho_assumption;
    let mut best: Option<(usize, f64)> = None;
    // Per-candidate score breakdown, assembled only while tracing.
    let mut traced: Vec<CandidateScore> = Vec::new();
    for &j in &candidates {
        let sigma2 = trio.s_a(j, j).max(1e-12);
        let mut value = 0.0;
        for (t, &w) in weights.iter().enumerate() {
            let so = trio.s_o(t, j);
            let g = if so.is_nan() {
                0.0
            } else {
                rho2 * so * so / sigma2
            };
            value += w * (g - losses[t]);
        }
        let score = model.pr_new(j) * value;
        if disq_trace::active() {
            traced.push(CandidateScore {
                index: j as u32,
                pr_new: model.pr_new(j),
                value,
                score,
            });
        }
        if score > 0.0 && best.is_none_or(|(_, s)| score > s) {
            best = Some((j, score));
        }
    }
    let chosen = best.map(|(j, _)| j);
    if chosen.is_some() {
        disq_trace::count(Counter::DismantleChoices);
    }
    disq_trace::emit(|| TraceEvent::DismantleChoice {
        chosen: chosen.map(|j| j as u32),
        scores: traced,
    });
    Ok(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Unification;
    use disq_domain::domains::pictures;
    use rand::SeedableRng;

    fn cents(c: f64) -> Money {
        Money::from_cents(c)
    }

    /// Builds a pool (Bmi query attr + Heavy discovered) and a matching
    /// trio with controllable signal.
    fn setup(so: &[f64], sc: &[f64]) -> (AttributePool, StatsTrio, NewAnswerModel) {
        let spec = pictures::spec();
        let bmi = spec.id_of("Bmi").unwrap();
        let mut pool = AttributePool::new(&spec, &[bmi], Unification::Merge);
        let mut trio = StatsTrio::new(1);
        let mut model = NewAnswerModel::new();
        trio.push_attribute(&[so[0]], &[], 1.0, sc[0]).unwrap();
        model.add_attribute();
        for i in 1..so.len() {
            // Discover extra attributes (Heavy, Weight, …).
            let name = ["Heavy", "Weight", "Attractive"][i - 1];
            if let crate::Resolution::New(d) = pool.resolve(name, &spec) {
                pool.insert(d);
            }
            trio.push_attribute(&[so[i]], &vec![0.0; i], 1.0, sc[i])
                .unwrap();
            model.add_attribute();
        }
        trio.set_target_variance(0, 1.0).unwrap();
        (pool, trio, model)
    }

    #[test]
    fn picks_strongest_signal() {
        let (pool, trio, model) = setup(&[0.3, 0.9], &[1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(0);
        let costs = [cents(0.4), cents(0.1)];
        let choice = choose_dismantle_target(
            &trio,
            &pool,
            &model,
            &[1.0],
            cents(4.0),
            &costs,
            &DisqConfig::default(),
            &mut rng,
            &mut DismantleScratch::new(),
        )
        .unwrap();
        assert_eq!(choice, Some(1));
    }

    #[test]
    fn exhausted_attribute_deprioritized() {
        // Equal signal, but attribute 1 has been asked many times: its
        // Pr(new) collapses, so attribute 0 wins.
        let (pool, trio, mut model) = setup(&[0.8, 0.8], &[1.0, 1.0]);
        for _ in 0..50 {
            model.record_question(1);
        }
        let mut rng = StdRng::seed_from_u64(0);
        let costs = [cents(0.4), cents(0.1)];
        let choice = choose_dismantle_target(
            &trio,
            &pool,
            &model,
            &[1.0],
            cents(4.0),
            &costs,
            &DisqConfig::default(),
            &mut rng,
            &mut DismantleScratch::new(),
        )
        .unwrap();
        assert_eq!(choice, Some(0));
    }

    #[test]
    fn query_only_restricts_candidates() {
        let (pool, trio, model) = setup(&[0.3, 0.9], &[1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(0);
        let costs = [cents(0.4), cents(0.1)];
        let config = DisqConfig {
            selection: SelectionStrategy::QueryOnly,
            ..Default::default()
        };
        let choice = choose_dismantle_target(
            &trio,
            &pool,
            &model,
            &[1.0],
            cents(4.0),
            &costs,
            &config,
            &mut rng,
            &mut DismantleScratch::new(),
        )
        .unwrap();
        // Index 1 has the stronger signal but is not a query attribute.
        assert_eq!(choice, Some(0));
    }

    #[test]
    fn random_strategy_covers_pool() {
        let (pool, trio, model) = setup(&[0.5, 0.5], &[1.0, 1.0]);
        let costs = [cents(0.4), cents(0.1)];
        let config = DisqConfig {
            selection: SelectionStrategy::Random,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            let c = choose_dismantle_target(
                &trio,
                &pool,
                &model,
                &[1.0],
                cents(4.0),
                &costs,
                &config,
                &mut rng,
                &mut DismantleScratch::new(),
            )
            .unwrap();
            seen.insert(c.unwrap());
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn no_signal_no_choice() {
        // Zero S_o everywhere: gain is zero, loss non-negative → stop.
        let (pool, trio, model) = setup(&[0.0, 0.0], &[1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(0);
        let costs = [cents(0.4), cents(0.1)];
        let choice = choose_dismantle_target(
            &trio,
            &pool,
            &model,
            &[1.0],
            cents(4.0),
            &costs,
            &DisqConfig::default(),
            &mut rng,
            &mut DismantleScratch::new(),
        )
        .unwrap();
        assert_eq!(choice, None);
    }

    #[test]
    fn empty_pool_no_choice() {
        let spec = pictures::spec();
        let pool = AttributePool::new(&spec, &[], Unification::Merge);
        let trio = StatsTrio::new(1);
        let model = NewAnswerModel::new();
        let mut rng = StdRng::seed_from_u64(0);
        let choice = choose_dismantle_target(
            &trio,
            &pool,
            &model,
            &[1.0],
            cents(4.0),
            &[],
            &DisqConfig::default(),
            &mut rng,
            &mut DismantleScratch::new(),
        )
        .unwrap();
        assert_eq!(choice, None);
    }

    #[test]
    fn probe_cache_reuse_is_transparent_and_invalidated_by_mutation() {
        let (pool, mut trio, model) = setup(&[0.3, 0.9], &[1.0, 1.0]);
        let costs = [cents(0.4), cents(0.1)];
        let config = DisqConfig::default();
        let mut scratch = DismantleScratch::new();
        let run = |trio: &StatsTrio, scratch: &mut DismantleScratch| {
            let mut rng = StdRng::seed_from_u64(0);
            choose_dismantle_target(
                trio,
                &pool,
                &model,
                &[1.0],
                cents(4.0),
                &costs,
                &config,
                &mut rng,
                scratch,
            )
            .unwrap()
        };
        let fresh = run(&trio, &mut scratch);
        // One target, two probes (full and reduced budget).
        assert_eq!(scratch.probes.len(), 2);
        // Prove the second decision is served from the cache: poison the
        // cached entries — a recompute would overwrite them, a hit
        // returns them. The poisoned losses cancel (full == reduced), so
        // the decision itself stays correct.
        for v in scratch.probes.values_mut() {
            *v = 123.0;
        }
        let cached = run(&trio, &mut scratch);
        assert_eq!(cached, fresh);
        assert!(
            scratch.probes.values().all(|&v| v == 123.0),
            "unchanged trio must serve probes from the cache"
        );
        // The guard reads content, not writes: storing a value back
        // unchanged keeps the cache.
        trio.set_s_o(0, 1, trio.s_o(0, 1)).unwrap();
        assert_eq!(run(&trio, &mut scratch), fresh);
        assert!(scratch.probes.values().all(|&v| v == 123.0));
        // A statistics mutation must invalidate the cache, down to a
        // one-ulp change: the poisoned entries are cleared and
        // recomputed under the new fingerprint.
        let s_o = trio.s_o(0, 0);
        trio.set_s_o(0, 0, f64::from_bits(s_o.to_bits() + 1))
            .unwrap();
        run(&trio, &mut scratch);
        assert!(scratch.probes.values().all(|&v| v != 123.0));
        trio.set_s_o(0, 0, s_o).unwrap();
        for v in scratch.probes.values_mut() {
            *v = 123.0;
        }
        trio.set_s_o(0, 1, 0.2).unwrap();
        let after_mutation = run(&trio, &mut scratch);
        assert_eq!(scratch.fingerprint, trio.fingerprint());
        assert!(
            scratch.probes.values().all(|&v| v != 123.0),
            "mutated trio must not serve stale probes"
        );
        // With attribute 1's signal collapsed, attribute 0 wins.
        assert_eq!(after_mutation, Some(0));
    }

    #[test]
    fn nan_s_o_contributes_no_gain() {
        let (pool, mut trio, model) = setup(&[0.5, 0.9], &[1.0, 1.0]);
        trio.set_s_o(0, 1, f64::NAN).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let costs = [cents(0.4), cents(0.1)];
        let choice = choose_dismantle_target(
            &trio,
            &pool,
            &model,
            &[1.0],
            cents(4.0),
            &costs,
            &DisqConfig::default(),
            &mut rng,
            &mut DismantleScratch::new(),
        )
        .unwrap();
        // Attribute 1's unknown signal gives no gain; 0 wins.
        assert_eq!(choice, Some(0));
    }
}
