//! `FindBudgetDistribution`: cost-aware greedy forward selection (Eq. 2/10).
//!
//! The optimal budget distribution maximizes
//! `Σ_t ω_t · S_oᵀ (S_a + Diag(S_c/b))⁻¹ S_o`
//! subject to `Σ_a b(a)·price(a) ≤ B_obj`. Exact optimization is NP-hard
//! in `B_obj` \[27\], so — following the paper — we run greedy forward
//! selection: repeatedly grant one more question to the attribute with the
//! best objective gain *per cent spent* (the cost division implements the
//! paper's treatment of heterogeneous question prices) until the budget
//! can buy nothing more or no gain remains.
//!
//! # Engines
//!
//! Two interchangeable engines price the candidate grants:
//!
//! * **Incremental** (default) — maintains one Cholesky factor of the
//!   support-set matrix across the whole greedy run
//!   ([`disq_stats::GreedyEval`]): Sherman–Morrison prices repeat grants
//!   in `O(targets)`, the bordered block inverse prices first grants in
//!   `O(k²)`, and the winning grant is applied by a rank-1 diagonal
//!   downdate or an `O(k²)` bordered append. Numerical breakdown (the
//!   cases where the dense engine's jitter-rescue ladder would engage)
//!   restarts the whole call on the dense engine, counted by
//!   `solver_fallbacks` and emitted as a `solver_fallback` trace event.
//! * **Dense** — refactorizes `S_a + Diag(S_c/b)` per candidate
//!   (`O(n·k³)` per grant). Owns the jitter-rescue ladder, so it is also
//!   the fallback target.
//!
//! Incremental is always used; [`with_engine`] forces either engine on
//! the current thread, which is how the tests and the kernel benches
//! compare them.
//!
//! # Tie-breaking contract
//!
//! Every engine scans candidates in increasing attribute index and
//! replaces the incumbent only on a strictly greater gain-per-cent, so
//! the **lowest attribute index wins exact ties**. This is load-bearing:
//! it is what lets two engines (whose scores differ in final-ulp
//! rounding only on *symmetric* inputs) provably choose identical
//! allocations on identical inputs, and it keeps allocations independent
//! of internal evaluation order.

use crate::DisqError;
use disq_crowd::Money;
use disq_stats::{Breakdown, EvalWorkspace, GreedyEval, StatsTrio};
use disq_trace::{Counter, TraceEvent};
use std::cell::Cell;

/// Gains below this are considered numerical noise and stop the greedy
/// loop (prevents burning budget on zero-signal attributes).
const MIN_GAIN: f64 = 1e-12;

/// Which implementation prices and applies the greedy grants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverEngine {
    /// Refactorize per candidate (legacy; owns the jitter ladder).
    Dense,
    /// Rank-1 factor maintenance with dense fallback (default).
    Incremental,
}

thread_local! {
    static ENGINE: Cell<SolverEngine> = const { Cell::new(SolverEngine::Incremental) };
}

/// The engine in effect on this thread: the [`with_engine`] override if
/// inside one, else [`SolverEngine::Incremental`].
pub fn current_engine() -> SolverEngine {
    ENGINE.with(Cell::get)
}

/// Runs `f` with `engine` forced on the current thread (restored on exit,
/// including by panic). Note the override is thread-local: it does not
/// propagate into worker threads spawned inside `f`.
pub fn with_engine<T>(engine: SolverEngine, f: impl FnOnce() -> T) -> T {
    struct Restore(SolverEngine);
    impl Drop for Restore {
        fn drop(&mut self) {
            ENGINE.with(|c| c.set(self.0));
        }
    }
    let prev = ENGINE.with(|c| c.replace(engine));
    let _restore = Restore(prev);
    f()
}

/// Reusable scratch for budget-distribution solves: the dense engine's
/// evaluation workspace, the incremental engine's factor state, and the
/// fractional-budget buffer. A long-lived solver makes repeated calls
/// (the refine loop, the next-attribute loss probes) allocation-free in
/// steady state.
#[derive(Debug, Clone, Default)]
pub struct BudgetSolver {
    ws: EvalWorkspace,
    ev: GreedyEval,
    b_f: Vec<f64>,
}

impl BudgetSolver {
    /// Creates an empty solver; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes the greedy budget distribution and its final objective value.
///
/// * `trio` — current statistics (|pool| attributes).
/// * `weights` — per-target error weights `ω_t`.
/// * `budget` — the per-object online budget `B_obj`.
/// * `costs` — per-attribute value-question price.
///
/// Returns `(b, objective)` with `b[a]` = questions for attribute `a`.
///
/// This untraced entry point also serves the next-attribute scorer's
/// inner loss probes (via [`greedy_objective`]), which run once per
/// candidate per dismantle step — tracing them would bury the decisions
/// that matter. Top-level distribution calls use
/// [`find_budget_distribution_labeled`] instead.
pub fn find_budget_distribution(
    trio: &StatsTrio,
    weights: &[f64],
    budget: Money,
    costs: &[Money],
) -> Result<(Vec<u32>, f64), DisqError> {
    find_budget_distribution_inner(&mut BudgetSolver::new(), trio, weights, budget, costs, None)
}

/// [`find_budget_distribution`] reusing caller-held scratch.
pub fn find_budget_distribution_with(
    solver: &mut BudgetSolver,
    trio: &StatsTrio,
    weights: &[f64],
    budget: Money,
    costs: &[Money],
) -> Result<(Vec<u32>, f64), DisqError> {
    find_budget_distribution_inner(solver, trio, weights, budget, costs, None)
}

/// [`find_budget_distribution`], with each greedy grant and the final
/// allocation emitted as trace events under `label`.
pub fn find_budget_distribution_labeled(
    trio: &StatsTrio,
    weights: &[f64],
    budget: Money,
    costs: &[Money],
    label: &str,
) -> Result<(Vec<u32>, f64), DisqError> {
    find_budget_distribution_inner(
        &mut BudgetSolver::new(),
        trio,
        weights,
        budget,
        costs,
        Some(label),
    )
}

/// [`find_budget_distribution_labeled`] reusing caller-held scratch.
pub fn find_budget_distribution_labeled_with(
    solver: &mut BudgetSolver,
    trio: &StatsTrio,
    weights: &[f64],
    budget: Money,
    costs: &[Money],
    label: &str,
) -> Result<(Vec<u32>, f64), DisqError> {
    find_budget_distribution_inner(solver, trio, weights, budget, costs, Some(label))
}

fn find_budget_distribution_inner(
    solver: &mut BudgetSolver,
    trio: &StatsTrio,
    weights: &[f64],
    budget: Money,
    costs: &[Money],
    label: Option<&str>,
) -> Result<(Vec<u32>, f64), DisqError> {
    let _span = disq_trace::span!(
        "budget_dist",
        "label={} n_attrs={}",
        label.unwrap_or("-"),
        trio.n_attrs()
    );
    let n = trio.n_attrs();
    if costs.len() != n {
        return Err(DisqError::Config(format!(
            "costs has length {}, trio has {} attributes",
            costs.len(),
            n
        )));
    }
    if n == 0 {
        return Ok((vec![], 0.0));
    }
    // A weights-arity mismatch must surface as the dense engine's
    // descriptive error (and, with nothing affordable, as its silent
    // empty plan) — route it there rather than duplicating the checks.
    let engine = if weights.len() == trio.n_targets() {
        current_engine()
    } else {
        SolverEngine::Dense
    };
    match engine {
        SolverEngine::Dense => dense_greedy(solver, trio, weights, budget, costs, label),
        SolverEngine::Incremental => {
            match incremental_greedy(solver, trio, weights, budget, costs, label) {
                Ok(result) => Ok(result),
                Err(breakdown) => {
                    note_fallback(label, breakdown.reason);
                    dense_greedy(solver, trio, weights, budget, costs, label)
                }
            }
        }
    }
}

/// Records an incremental-engine breakdown that is being rescued by the
/// dense engine. Loss probes run unlabeled; they are attributed to
/// `"probe"` so the fallback report can distinguish them from the
/// labeled top-level solves.
fn note_fallback(label: Option<&str>, reason: &'static str) {
    disq_trace::count(Counter::SolverFallbacks);
    disq_trace::emit(|| TraceEvent::SolverFallback {
        label: label.unwrap_or("probe").to_string(),
        reason: reason.to_string(),
    });
}

/// The legacy engine: refactorize `S_a + Diag(S_c/b)` per candidate.
/// Shares the jitter-rescue ladder of
/// [`disq_math::QuadFormWorkspace::factorize_with`], which is why it
/// doubles as the fallback for the incremental engine.
fn dense_greedy(
    solver: &mut BudgetSolver,
    trio: &StatsTrio,
    weights: &[f64],
    budget: Money,
    costs: &[Money],
    label: Option<&str>,
) -> Result<(Vec<u32>, f64), DisqError> {
    let n = trio.n_attrs();
    let mut b = vec![0u32; n];
    let BudgetSolver { ws, b_f, .. } = solver;
    b_f.clear();
    b_f.resize(n, 0.0);
    let mut remaining = budget;
    let mut current = 0.0;

    loop {
        let mut best: Option<(usize, f64, f64)> = None; // (attr, gain/cent, objective)
        for a in 0..n {
            let price = costs[a];
            if !price.is_positive() || price > remaining {
                continue;
            }
            b_f[a] += 1.0;
            let obj = trio.explained_variance_weighted_ws(weights, b_f, ws)?;
            b_f[a] -= 1.0;
            let gain = obj - current;
            if gain <= MIN_GAIN {
                continue;
            }
            let rate = gain / price.as_cents();
            // Tie-breaking contract: strict `>` over an ascending index
            // scan — the lowest index wins exact ties.
            if best.is_none_or(|(_, r, _)| rate > r) {
                best = Some((a, rate, obj));
            }
        }
        match best {
            Some((a, _, obj)) => {
                b[a] += 1;
                b_f[a] += 1.0;
                remaining -= costs[a];
                current = obj;
                if let Some(label) = label {
                    disq_trace::count(Counter::BudgetSteps);
                    disq_trace::emit(|| TraceEvent::BudgetStep {
                        label: label.to_string(),
                        attr: a as u32,
                        question: b[a],
                        objective: obj,
                    });
                }
            }
            None => break,
        }
    }
    if let Some(label) = label {
        disq_trace::emit(|| TraceEvent::BudgetChosen {
            label: label.to_string(),
            allocation: b.clone(),
            objective: current,
        });
    }
    Ok((b, current))
}

/// The incremental engine: one maintained factor, Sherman–Morrison /
/// bordered scoring, rank-1 grant application. Any [`Breakdown`] aborts
/// the whole call — the caller restarts on the dense engine, so a solve
/// is never half-incremental.
///
/// Trace events are buffered and emitted only on success; a mid-solve
/// breakdown therefore leaves no phantom `budget_step` events behind for
/// the dense rerun to duplicate.
fn incremental_greedy(
    solver: &mut BudgetSolver,
    trio: &StatsTrio,
    weights: &[f64],
    budget: Money,
    costs: &[Money],
    label: Option<&str>,
) -> Result<(Vec<u32>, f64), Breakdown> {
    let n = trio.n_attrs();
    let ev = &mut solver.ev;
    ev.begin(trio, weights);
    ev.refresh(trio)?;
    let mut b = vec![0u32; n];
    let mut remaining = budget;
    let mut current = 0.0;
    let mut steps: Vec<(u32, u32, f64)> = Vec::new();

    loop {
        let mut best: Option<(usize, f64)> = None; // (attr, gain/cent)
        for a in 0..n {
            let price = costs[a];
            if !price.is_positive() || price > remaining {
                continue;
            }
            let obj = ev.score(trio, a)?;
            let gain = obj - current;
            if gain <= MIN_GAIN {
                continue;
            }
            let rate = gain / price.as_cents();
            // Same tie-breaking contract as the dense engine: strict `>`
            // over an ascending index scan.
            if best.is_none_or(|(_, r)| rate > r) {
                best = Some((a, rate));
            }
        }
        match best {
            Some((a, _)) => {
                ev.apply(trio, a)?;
                ev.refresh(trio)?;
                b[a] += 1;
                remaining -= costs[a];
                // The refreshed objective is recomputed exactly from the
                // maintained factor, so scoring error cannot compound
                // across grants.
                current = ev.objective();
                if label.is_some() {
                    steps.push((a as u32, b[a], current));
                }
            }
            None => break,
        }
    }
    if let Some(label) = label {
        for &(attr, question, objective) in &steps {
            disq_trace::count(Counter::BudgetSteps);
            disq_trace::emit(|| TraceEvent::BudgetStep {
                label: label.to_string(),
                attr,
                question,
                objective,
            });
        }
        disq_trace::emit(|| TraceEvent::BudgetChosen {
            label: label.to_string(),
            allocation: b.clone(),
            objective: current,
        });
    }
    Ok((b, current))
}

/// The maximal greedy objective achievable with the given budget — used by
/// the `L(A, u, v)` loss term of the next-attribute scorer.
pub fn greedy_objective(
    trio: &StatsTrio,
    weights: &[f64],
    budget: Money,
    costs: &[Money],
) -> Result<f64, DisqError> {
    Ok(find_budget_distribution(trio, weights, budget, costs)?.1)
}

/// [`greedy_objective`] reusing caller-held scratch.
pub fn greedy_objective_with(
    solver: &mut BudgetSolver,
    trio: &StatsTrio,
    weights: &[f64],
    budget: Money,
    costs: &[Money],
) -> Result<f64, DisqError> {
    Ok(find_budget_distribution_with(solver, trio, weights, budget, costs)?.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cheap helper: single target with variance 1.
    fn trio_with(attrs: &[(f64, f64, f64)]) -> StatsTrio {
        // (s_o, own_var, s_c) per attribute, mutually uncorrelated.
        let mut t = StatsTrio::new(1);
        for (i, &(so, var, sc)) in attrs.iter().enumerate() {
            t.push_attribute(&[so], &vec![0.0; i], var, sc).unwrap();
        }
        t.set_target_variance(0, 1.0).unwrap();
        t
    }

    fn cents(c: f64) -> Money {
        Money::from_cents(c)
    }

    /// Trio with explicit pairwise covariance, for multi-attribute
    /// cross-engine checks.
    fn correlated_trio(attrs: &[(f64, f64, f64)], cov: f64) -> StatsTrio {
        let mut t = StatsTrio::new(1);
        for (i, &(so, var, sc)) in attrs.iter().enumerate() {
            t.push_attribute(&[so], &vec![cov; i], var, sc).unwrap();
        }
        t.set_target_variance(0, 1.0).unwrap();
        t
    }

    #[test]
    fn spends_whole_budget_on_single_good_attribute() {
        let t = trio_with(&[(0.9, 1.0, 1.0)]);
        let (b, obj) = find_budget_distribution(&t, &[1.0], cents(1.0), &[cents(0.1)]).unwrap();
        assert_eq!(b, vec![10]);
        assert!(obj > 0.0);
    }

    #[test]
    fn ignores_zero_signal_attribute() {
        let t = trio_with(&[(0.9, 1.0, 1.0), (0.0, 1.0, 1.0)]);
        let (b, _) =
            find_budget_distribution(&t, &[1.0], cents(1.0), &[cents(0.1), cents(0.1)]).unwrap();
        assert_eq!(b[1], 0);
        assert_eq!(b[0], 10);
    }

    #[test]
    fn prefers_cheap_attribute_of_equal_signal() {
        let t = trio_with(&[(0.6, 1.0, 1.0), (0.6, 1.0, 1.0)]);
        let (b, _) =
            find_budget_distribution(&t, &[1.0], cents(1.0), &[cents(0.4), cents(0.1)]).unwrap();
        assert!(b[1] > b[0], "cheap attr should dominate: {b:?}");
    }

    #[test]
    fn splits_between_complementary_attributes() {
        // Two uncorrelated informative attributes: both should get budget
        // under a generous allowance.
        let t = trio_with(&[(0.6, 1.0, 0.5), (0.6, 1.0, 0.5)]);
        let (b, _) =
            find_budget_distribution(&t, &[1.0], cents(2.0), &[cents(0.1), cents(0.1)]).unwrap();
        assert!(b[0] >= 3 && b[1] >= 3, "{b:?}");
    }

    #[test]
    fn noisy_attribute_gets_more_questions_than_clean_one() {
        // Same signal; attribute 0 is noisier, so equalizing marginal
        // utility pushes more questions its way.
        let t = trio_with(&[(0.6, 1.0, 2.0), (0.6, 1.0, 0.1)]);
        let (b, _) =
            find_budget_distribution(&t, &[1.0], cents(2.0), &[cents(0.1), cents(0.1)]).unwrap();
        assert!(b[0] > b[1], "{b:?}");
    }

    #[test]
    fn budget_constraint_respected() {
        let t = trio_with(&[(0.9, 1.0, 1.0), (0.5, 1.0, 1.0)]);
        let costs = [cents(0.4), cents(0.1)];
        let budget = cents(1.3);
        let (b, _) = find_budget_distribution(&t, &[1.0], budget, &costs).unwrap();
        let spent: Money = (0..2).map(|i| costs[i] * i64::from(b[i])).sum();
        assert!(spent <= budget, "spent {spent} of {budget}");
        assert!(b.iter().sum::<u32>() > 0);
    }

    #[test]
    fn objective_monotone_in_budget() {
        let t = trio_with(&[(0.7, 1.0, 1.0), (0.4, 1.0, 0.5)]);
        let costs = [cents(0.1), cents(0.1)];
        let small = greedy_objective(&t, &[1.0], cents(0.5), &costs).unwrap();
        let large = greedy_objective(&t, &[1.0], cents(2.0), &costs).unwrap();
        assert!(large >= small);
    }

    #[test]
    fn empty_trio_gives_empty_plan() {
        let t = StatsTrio::new(1);
        let (b, obj) = find_budget_distribution(&t, &[1.0], cents(5.0), &[]).unwrap();
        assert!(b.is_empty());
        assert_eq!(obj, 0.0);
    }

    #[test]
    fn zero_budget_gives_zero_plan() {
        let t = trio_with(&[(0.9, 1.0, 1.0)]);
        let (b, obj) = find_budget_distribution(&t, &[1.0], Money::ZERO, &[cents(0.1)]).unwrap();
        assert_eq!(b, vec![0]);
        assert_eq!(obj, 0.0);
    }

    #[test]
    fn cost_length_mismatch_rejected() {
        let t = trio_with(&[(0.9, 1.0, 1.0)]);
        assert!(find_budget_distribution(&t, &[1.0], cents(1.0), &[]).is_err());
    }

    #[test]
    fn multi_target_weights_steer_allocation() {
        // Attribute 0 helps target 0, attribute 1 helps target 1.
        let mut t = StatsTrio::new(2);
        t.push_attribute(&[0.8, 0.0], &[], 1.0, 1.0).unwrap();
        t.push_attribute(&[0.0, 0.8], &[0.0], 1.0, 1.0).unwrap();
        t.set_target_variance(0, 1.0).unwrap();
        t.set_target_variance(1, 1.0).unwrap();
        let costs = [cents(0.1), cents(0.1)];
        // Heavily weight target 1: attribute 1 should get more budget.
        let (b, _) = find_budget_distribution(&t, &[0.1, 10.0], cents(1.0), &costs).unwrap();
        assert!(b[1] > b[0], "{b:?}");
    }

    /// The tie-breaking contract: identical uncorrelated attributes with
    /// identical costs produce bitwise-equal scores (IEEE arithmetic is
    /// symmetric under the relabeling), so the lowest index must win —
    /// on every engine.
    #[test]
    fn exact_ties_go_to_lowest_index_on_every_engine() {
        let t = trio_with(&[(0.6, 1.0, 0.5), (0.6, 1.0, 0.5), (0.6, 1.0, 0.5)]);
        let costs = [cents(0.1), cents(0.1), cents(0.1)];
        for engine in [SolverEngine::Dense, SolverEngine::Incremental] {
            let (b, _) = with_engine(engine, || {
                // Budget for exactly one question: a three-way exact tie.
                find_budget_distribution(&t, &[1.0], cents(0.1), &costs)
            })
            .unwrap();
            assert_eq!(b, vec![1, 0, 0], "engine {engine:?}");
        }
    }

    /// Dense and incremental engines must produce the identical
    /// allocation and agree on the objective to 1e-9 relative across a
    /// spread of correlated trios and budgets.
    #[test]
    fn engines_agree_on_correlated_trios() {
        let cases = [
            (
                correlated_trio(&[(0.8, 1.0, 0.5), (0.5, 1.2, 0.3)], 0.2),
                1.0,
            ),
            (
                correlated_trio(&[(0.7, 1.0, 1.5), (0.6, 0.8, 0.2), (0.3, 1.1, 0.9)], 0.3),
                2.0,
            ),
            (
                correlated_trio(
                    &[
                        (0.9, 1.0, 0.1),
                        (0.2, 2.0, 2.0),
                        (0.5, 0.5, 0.4),
                        (0.4, 1.0, 1.0),
                    ],
                    0.15,
                ),
                3.0,
            ),
        ];
        for (i, (t, budget_cents)) in cases.iter().enumerate() {
            let costs: Vec<Money> = (0..t.n_attrs())
                .map(|a| cents(0.1 + 0.05 * a as f64))
                .collect();
            let budget = cents(*budget_cents);
            let (b_dense, obj_dense) = with_engine(SolverEngine::Dense, || {
                find_budget_distribution(t, &[1.0], budget, &costs)
            })
            .unwrap();
            let (b_inc, obj_inc) = with_engine(SolverEngine::Incremental, || {
                find_budget_distribution(t, &[1.0], budget, &costs)
            })
            .unwrap();
            assert_eq!(b_dense, b_inc, "case {i}");
            assert!(
                (obj_dense - obj_inc).abs() <= 1e-9 * obj_dense.abs().max(1.0),
                "case {i}: {obj_dense} vs {obj_inc}"
            );
        }
    }

    /// A singular statistics regime (perfectly redundant noiseless
    /// attributes) trips the incremental engine's Schur guard; the call
    /// must transparently fall back to the dense engine and return its
    /// answer.
    #[test]
    fn near_singular_trio_falls_back_to_dense() {
        let mut t = StatsTrio::new(1);
        t.push_attribute(&[0.8], &[], 1.0, 0.0).unwrap();
        t.push_attribute(&[0.8], &[1.0], 1.0, 0.0).unwrap();
        t.set_target_variance(0, 1.0).unwrap();
        let costs = [cents(0.1), cents(0.1)];
        let dense = with_engine(SolverEngine::Dense, || {
            find_budget_distribution(&t, &[1.0], cents(1.0), &costs)
        })
        .unwrap();
        let inc = with_engine(SolverEngine::Incremental, || {
            find_budget_distribution(&t, &[1.0], cents(1.0), &costs)
        })
        .unwrap();
        assert_eq!(dense, inc);
    }

    #[test]
    fn solver_reuse_matches_fresh_solver() {
        let t = correlated_trio(&[(0.8, 1.0, 0.5), (0.5, 1.2, 0.3)], 0.2);
        let costs = [cents(0.1), cents(0.1)];
        let mut solver = BudgetSolver::new();
        for budget_cents in [0.3, 1.0, 2.0, 0.5] {
            let budget = cents(budget_cents);
            let reused =
                find_budget_distribution_with(&mut solver, &t, &[1.0], budget, &costs).unwrap();
            let fresh = find_budget_distribution(&t, &[1.0], budget, &costs).unwrap();
            assert_eq!(reused.0, fresh.0, "budget {budget_cents}");
            assert_eq!(
                reused.1.to_bits(),
                fresh.1.to_bits(),
                "budget {budget_cents}"
            );
        }
    }

    #[test]
    fn with_engine_restores_on_exit() {
        let before = current_engine();
        with_engine(SolverEngine::Dense, || {
            assert_eq!(current_engine(), SolverEngine::Dense);
            with_engine(SolverEngine::Incremental, || {
                assert_eq!(current_engine(), SolverEngine::Incremental);
            });
            assert_eq!(current_engine(), SolverEngine::Dense);
        });
        assert_eq!(current_engine(), before);
    }
}
