//! `GetExamples` + `UpdateStatistics`: example sets and the inductive
//! trio construction (§3.2.2, Tables 1a/3).
//!
//! The collector owns the raw data behind Table 1a / Table 3: one example
//! set of `N₁` objects per query attribute (each example carrying the true
//! value of *its* target), and per discovered attribute the `k` worker
//! answers on every example it was *paired* with (§4's collection rule
//! decides the pairing). From that raw data it computes the trio entries:
//!
//! * `S_o[t][a] = Cov(e.a^(k), e.a_t)` over target `t`'s examples
//!   (NaN when the pair was not collected — later filled by Eq. 11),
//! * `S_a[a][a_i] = Cov(e.a^(k), e.a_i^(k))` over the examples both were
//!   asked on, with the diagonal de-biased by `S_c/k` (the `k`-sample
//!   average still carries `S_c/k` of worker noise; Eq. 2 wants the
//!   noise-free attribute variance since it re-adds noise as
//!   `Diag(S_c/b)`),
//! * `S_c[a] = E[VarEst_k(e.a^(1))]` — the mean per-object answer
//!   variance.

use crate::DisqError;
use disq_crowd::CrowdPlatform;
use disq_domain::{AttributeId, ObjectId};
use disq_stats::{streaming_covariance, streaming_variance, var_est_k, OnlineMoments, StatsTrio};

/// One collected example object.
#[derive(Debug, Clone, PartialEq)]
pub struct Example {
    /// The object a worker provided.
    pub object: ObjectId,
    /// Which query attribute's example set this row belongs to.
    pub target_idx: usize,
    /// The (trusted) true value of that query attribute.
    pub target_value: f64,
}

/// Raw statistic data and its bookkeeping.
#[derive(Debug, Clone)]
pub struct StatisticsCollector {
    targets: Vec<AttributeId>,
    examples: Vec<Example>,
    /// `answers[pool_attr][example]`: the k raw worker answers, or `None`
    /// when the (attribute, example) cell was skipped by the pairing rule.
    answers: Vec<Vec<Option<Vec<f64>>>>,
    /// `paired[pool_attr][target]`.
    paired: Vec<Vec<bool>>,
}

impl StatisticsCollector {
    /// Asks `n1` example questions per query attribute (`GetExamples`).
    pub fn collect_examples<P: CrowdPlatform>(
        platform: &mut P,
        targets: &[AttributeId],
        n1: usize,
    ) -> Result<Self, DisqError> {
        let mut examples = Vec::with_capacity(n1 * targets.len());
        for (t, &target) in targets.iter().enumerate() {
            for _ in 0..n1 {
                let (object, values) = platform.ask_example(&[target])?;
                examples.push(Example {
                    object,
                    target_idx: t,
                    target_value: values[0],
                });
            }
        }
        Ok(StatisticsCollector {
            targets: targets.to_vec(),
            examples,
            answers: Vec::new(),
            paired: Vec::new(),
        })
    }

    /// Number of query attributes.
    pub fn n_targets(&self) -> usize {
        self.targets.len()
    }

    /// The query attributes.
    pub fn targets(&self) -> &[AttributeId] {
        &self.targets
    }

    /// All collected examples (grouped by target, in collection order).
    pub fn examples(&self) -> &[Example] {
        &self.examples
    }

    /// Number of attributes with collected answers so far.
    pub fn n_attrs(&self) -> usize {
        self.answers.len()
    }

    /// Raw answers for a cell, if collected.
    pub fn answers(&self, pool_attr: usize, example: usize) -> Option<&[f64]> {
        self.answers[pool_attr][example].as_deref()
    }

    /// Whether an attribute was paired with a target.
    pub fn is_paired(&self, pool_attr: usize, target: usize) -> bool {
        self.paired[pool_attr][target]
    }

    /// Empirical variance of a target's true value over its example set.
    ///
    /// Always computed with the two-pass batch formula, *not* the
    /// streaming one the trio uses: this value escapes preprocessing as
    /// the error weights `ω_t = 1/Var(a_t)` in [`crate::PreprocessOutput`]
    /// and so reaches the experiment tables, which must stay
    /// byte-identical. The streaming co-moments agree with the batch
    /// formulas only to round-off, which is safe solely behind
    /// integerizing decisions. The example set is N₁-sized, so the
    /// two-pass scan costs nothing at population scale.
    pub fn target_variance(&self, target: usize) -> f64 {
        let values: Vec<f64> = self
            .examples
            .iter()
            .filter(|e| e.target_idx == target)
            .map(|e| e.target_value)
            .collect();
        disq_stats::sample_variance(&values)
    }

    /// Asks `k` value questions about the new attribute on every example
    /// belonging to a paired target, and records the answers. Returns the
    /// new attribute's collector index (must be called in pool order).
    pub fn add_attribute<P: CrowdPlatform>(
        &mut self,
        platform: &mut P,
        attr: AttributeId,
        paired: Vec<bool>,
        k: usize,
    ) -> Result<usize, DisqError> {
        assert_eq!(paired.len(), self.n_targets(), "paired arity mismatch");
        let mut row: Vec<Option<Vec<f64>>> = Vec::with_capacity(self.examples.len());
        let mut workers = Vec::with_capacity(k);
        for ex in &self.examples {
            if paired[ex.target_idx] {
                let mut ans = Vec::with_capacity(k);
                workers.clear();
                platform.ask_values_attributed(ex.object, attr, k, &mut ans, &mut workers)?;
                row.push(Some(ans));
            } else {
                row.push(None);
            }
        }
        self.answers.push(row);
        self.paired.push(paired);
        Ok(self.answers.len() - 1)
    }

    /// Estimates the *signal* variance of an attribute (worker noise
    /// excluded) as the average cross-example covariance between distinct
    /// answer columns: `Cov(ans_p, ans_q) = Var(a)` exactly for
    /// independent unbiased noise, with no noisy `− S_c/k` subtraction.
    /// Returns `None` with fewer than two answers per cell or two cells.
    fn signal_variance(&self, idx: usize) -> Option<f64> {
        let cells: Vec<&Vec<f64>> = self.answers[idx].iter().flatten().collect();
        let m = cells.iter().map(|c| c.len()).min()?;
        if m < 2 || cells.len() < 2 {
            return None;
        }
        let mut total = 0.0;
        let mut pairs = 0usize;
        for p in 0..m {
            for q in (p + 1)..m {
                let xs: Vec<f64> = cells.iter().map(|c| c[p]).collect();
                let ys: Vec<f64> = cells.iter().map(|c| c[q]).collect();
                total += streaming_covariance(&xs, &ys);
                pairs += 1;
            }
        }
        Some(total / pairs as f64)
    }

    /// Asks `extra_k` more value questions on every already-collected cell
    /// of an attribute (the second stage of the two-stage refinement: the
    /// fresh answers are unbiased *conditional on the attribute having
    /// been selected*, which is what defeats the winner's curse of
    /// selecting on noisy first-stage estimates).
    pub fn extend_answers<P: CrowdPlatform>(
        &mut self,
        platform: &mut P,
        pool_attr: usize,
        attr: AttributeId,
        extra_k: usize,
    ) -> Result<(), DisqError> {
        let mut workers = Vec::with_capacity(extra_k);
        for (ex, cell) in self.examples.iter().zip(&mut self.answers[pool_attr]) {
            if let Some(answers) = cell {
                // On budget exhaustion the answers asked so far stay in
                // the cell, as one question at a time would leave them.
                workers.clear();
                platform.ask_values_attributed(ex.object, attr, extra_k, answers, &mut workers)?;
            }
        }
        Ok(())
    }

    /// Recomputes every trio entry of an existing attribute from the
    /// current (possibly extended) answer sets: the `S_o` row, the `S_a`
    /// row/column against every other attribute, the de-biased own
    /// variance and `S_c`.
    pub fn refresh_trio_entry(
        &self,
        trio: &mut StatsTrio,
        idx: usize,
        bias_correction: bool,
        so_shrinkage: f64,
    ) -> Result<(), DisqError> {
        assert!(
            idx < self.n_attrs() && idx < trio.n_attrs(),
            "unknown attribute"
        );
        let avg = |cell: &Option<Vec<f64>>| -> Option<f64> {
            cell.as_ref()
                .map(|a| a.iter().sum::<f64>() / a.len() as f64)
        };

        // Own variance and S_c first — the covariance coherence clamps
        // below need the refreshed variance.
        let avgs: Vec<f64> = self.answers[idx].iter().filter_map(avg).collect();
        let raw_var = streaming_variance(&avgs);
        let cells: Vec<&Vec<f64>> = self.answers[idx].iter().flatten().collect();
        if !cells.is_empty() {
            let s_c = cells.iter().map(|a| var_est_k(a)).sum::<f64>() / cells.len() as f64;
            let mean_k = cells.iter().map(|a| a.len()).sum::<usize>() as f64 / cells.len() as f64;
            let own_var = if bias_correction {
                self.signal_variance(idx)
                    .unwrap_or(raw_var - s_c / mean_k)
                    .max(0.05 * raw_var)
                    .max(1e-12)
            } else {
                raw_var.max(1e-12)
            };
            trio.set_s_c(idx, s_c)?;
            trio.set_s_a(idx, idx, own_var)?;
        }
        let own_var = trio.s_a(idx, idx);

        for t in 0..self.n_targets() {
            if !self.paired[idx][t] {
                continue;
            }
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for (i, ex) in self.examples.iter().enumerate() {
                if ex.target_idx == t {
                    if let Some(a) = avg(&self.answers[idx][i]) {
                        xs.push(a);
                        ys.push(ex.target_value);
                    }
                }
            }
            if xs.len() >= 2 {
                let cov = streaming_covariance(&xs, &ys);
                let se = covariance_se(&xs, &ys);
                let shrunk = cov.signum() * (cov.abs() - so_shrinkage * se).max(0.0);
                trio.set_s_o(t, idx, clamp_cov(shrunk, own_var, self.target_variance(t)))?;
            }
        }
        for other in 0..self.n_attrs().min(trio.n_attrs()) {
            if other == idx {
                continue;
            }
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for e in 0..self.examples.len() {
                if let (Some(a), Some(b)) =
                    (avg(&self.answers[idx][e]), avg(&self.answers[other][e]))
                {
                    xs.push(a);
                    ys.push(b);
                }
            }
            if xs.len() >= 2 {
                let cov = streaming_covariance(&xs, &ys);
                trio.set_s_a(idx, other, clamp_cov(cov, own_var, trio.s_a(other, other)))?;
            }
        }
        Ok(())
    }

    /// Pushes the trio entries for the most recently added attribute
    /// (`UpdateStatistics`). `new_idx` must equal `trio.n_attrs()`.
    /// `bias_correction` toggles the `S_c/k` diagonal de-bias (on in the
    /// paper; exposed for ablation); `so_shrinkage` is the soft-threshold
    /// multiplier applied to `S_o` estimates (0 disables).
    pub fn update_trio(
        &self,
        trio: &mut StatsTrio,
        new_idx: usize,
        k: usize,
        bias_correction: bool,
        so_shrinkage: f64,
    ) -> Result<(), DisqError> {
        assert_eq!(new_idx, trio.n_attrs(), "trio must grow in pool order");
        assert!(new_idx < self.n_attrs(), "collect answers before updating");

        let avg = |cell: &Option<Vec<f64>>| -> Option<f64> {
            cell.as_ref()
                .map(|a| a.iter().sum::<f64>() / a.len() as f64)
        };

        // S_o per target over that target's examples. The raw sample
        // covariance is soft-thresholded by `so_shrinkage` standard
        // errors: the budget-distribution greedy *selects* the largest
        // estimates, so unshrunk noise systematically promotes weak
        // attributes (winner's curse).
        let mut s_o = Vec::with_capacity(self.n_targets());
        for t in 0..self.n_targets() {
            if !self.paired[new_idx][t] {
                s_o.push(f64::NAN);
                continue;
            }
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for (i, ex) in self.examples.iter().enumerate() {
                if ex.target_idx == t {
                    if let Some(a) = avg(&self.answers[new_idx][i]) {
                        xs.push(a);
                        ys.push(ex.target_value);
                    }
                }
            }
            if xs.len() < 2 {
                s_o.push(f64::NAN);
            } else {
                let cov = streaming_covariance(&xs, &ys);
                let se = covariance_se(&xs, &ys);
                let shrunk = cov.signum() * (cov.abs() - so_shrinkage * se).max(0.0);
                s_o.push(shrunk);
            }
        }

        // Covariance with every existing attribute over shared examples.
        let mut cov_with = Vec::with_capacity(new_idx);
        for i in 0..new_idx {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for e in 0..self.examples.len() {
                if let (Some(a), Some(b)) =
                    (avg(&self.answers[new_idx][e]), avg(&self.answers[i][e]))
                {
                    xs.push(a);
                    ys.push(b);
                }
            }
            cov_with.push(if xs.len() < 2 {
                0.0
            } else {
                streaming_covariance(&xs, &ys)
            });
        }

        // Own variance (bias-corrected) and S_c.
        let avgs: Vec<f64> = self.answers[new_idx].iter().filter_map(avg).collect();
        let raw_var = streaming_variance(&avgs);
        let var_ests: Vec<f64> = self.answers[new_idx]
            .iter()
            .filter_map(|c| c.as_ref().map(|a| var_est_k(a)))
            .collect();
        let s_c = if var_ests.is_empty() {
            0.0
        } else {
            var_ests.iter().sum::<f64>() / var_ests.len() as f64
        };
        // De-bias: Var(e.a^(k)) = Var(a) + S_c/k. The pairwise-covariance
        // estimator computes Var(a) directly without the noisy
        // subtraction; fall back to the subtraction form if unavailable.
        // Floor at 5% of the raw variance so a noisy estimate cannot
        // erase the attribute.
        let own_var = if bias_correction {
            self.signal_variance(new_idx)
                .unwrap_or(raw_var - s_c / k as f64)
                .max(0.05 * raw_var)
                .max(1e-12)
        } else {
            raw_var.max(1e-12)
        };

        // Coherence clamp: independently-estimated (covariance, variance)
        // pairs can imply correlations above 1, which the Eq. 2 objective
        // reads as "this one attribute explains more than all the
        // variance" — a recipe for absurd budget allocations.
        for (t, v) in s_o.iter_mut().enumerate() {
            if !v.is_nan() {
                *v = clamp_cov(*v, own_var, self.target_variance(t));
            }
        }
        for (i, c) in cov_with.iter_mut().enumerate() {
            *c = clamp_cov(*c, own_var, trio.s_a(i, i));
        }

        trio.push_attribute(&s_o, &cov_with, own_var, s_c)?;
        Ok(())
    }
}

/// Clamps a covariance so the implied correlation stays within ±0.98.
fn clamp_cov(cov: f64, var_a: f64, var_b: f64) -> f64 {
    let bound = 0.98 * (var_a.max(0.0) * var_b.max(0.0)).sqrt();
    cov.clamp(-bound, bound)
}

/// Standard error of the sample covariance between `xs` and `ys`:
/// `sd((x−x̄)(y−ȳ)) / √n`.
fn covariance_se(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    // One Welford pass over the products computed on the fly, without
    // materializing the product vector.
    let mut acc = OnlineMoments::new();
    for (&x, &y) in xs.iter().zip(ys) {
        acc.push((x - mx) * (y - my));
    }
    let product_var = acc.variance();
    (product_var / n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use disq_crowd::{CrowdConfig, Money, SimulatedCrowd};
    use disq_domain::{domains::pictures, Population};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn crowd() -> SimulatedCrowd {
        let spec = Arc::new(pictures::spec());
        let mut rng = StdRng::seed_from_u64(0);
        let pop = Population::sample(spec, 3_000, &mut rng).unwrap();
        SimulatedCrowd::new(pop, CrowdConfig::default(), None, 11)
    }

    #[test]
    fn example_collection_counts_and_costs() {
        let mut c = crowd();
        let spec = c.population().spec();
        let bmi = spec.id_of("Bmi").unwrap();
        let age = spec.id_of("Age").unwrap();
        let coll = StatisticsCollector::collect_examples(&mut c, &[bmi, age], 50).unwrap();
        assert_eq!(coll.examples().len(), 100);
        assert_eq!(coll.n_targets(), 2);
        assert_eq!(c.ledger().count(disq_crowd::QuestionKind::Example), 100);
        // Example cost: 100 * 5¢ = $5.
        assert_eq!(c.ledger().spent(), Money::from_dollars(5.0));
    }

    #[test]
    fn target_variance_close_to_spec() {
        let mut c = crowd();
        let spec = c.population().spec();
        let bmi = spec.id_of("Bmi").unwrap();
        let coll = StatisticsCollector::collect_examples(&mut c, &[bmi], 400).unwrap();
        let var = coll.target_variance(0);
        // Bmi sd is 4.5 → var 20.25; 400 samples keep us within ~30%.
        assert!((var - 20.25).abs() < 7.0, "var {var}");
    }

    #[test]
    fn trio_entries_recover_ground_truth() {
        let mut c = crowd();
        let spec = c.population().spec();
        let bmi = spec.id_of("Bmi").unwrap();
        let heavy = spec.id_of("Heavy").unwrap();
        let mut coll = StatisticsCollector::collect_examples(&mut c, &[bmi], 300).unwrap();
        let mut trio = StatsTrio::new(1);
        // k = 4 for tighter estimates in this test.
        let i0 = coll.add_attribute(&mut c, bmi, vec![true], 4).unwrap();
        coll.update_trio(&mut trio, i0, 4, true, 1.0).unwrap();
        let i1 = coll.add_attribute(&mut c, heavy, vec![true], 4).unwrap();
        coll.update_trio(&mut trio, i1, 4, true, 1.0).unwrap();
        trio.set_target_variance(0, coll.target_variance(0))
            .unwrap();

        // S_c estimates: Bmi ≈ 90 (see the pictures calibration note),
        // Heavy ≈ 0.14 — but Heavy answers are
        // clamped into [0,1], which shrinks the realized noise below the
        // nominal value; just check the ordering and rough scale.
        assert!(
            (trio.s_c(0) - 90.0).abs() < 20.0,
            "S_c[Bmi] {}",
            trio.s_c(0)
        );
        assert!(trio.s_c(1) < 0.2, "S_c[Heavy] {}", trio.s_c(1));
        assert!(trio.s_c(0) > 100.0 * trio.s_c(1));
        // S_o[Bmi] ≈ Var(Bmi) ≈ 20.25.
        assert!(
            (trio.s_o(0, 0) - 20.25).abs() < 8.0,
            "S_o {}",
            trio.s_o(0, 0)
        );
        // Bmi–Heavy correlation strongly positive.
        assert!(trio.attr_correlation(0, 1) > 0.5);
        // Diagonal de-biased: own variance below raw answer variance and
        // in the ballpark of the true 20.25.
        assert!(
            (trio.s_a(0, 0) - 20.25).abs() < 10.0,
            "var {}",
            trio.s_a(0, 0)
        );
    }

    #[test]
    fn unpaired_targets_get_nan_s_o() {
        let mut c = crowd();
        let spec = c.population().spec();
        let bmi = spec.id_of("Bmi").unwrap();
        let age = spec.id_of("Age").unwrap();
        let wrinkles = spec.id_of("Wrinkles").unwrap();
        let mut coll = StatisticsCollector::collect_examples(&mut c, &[bmi, age], 40).unwrap();
        let mut trio = StatsTrio::new(2);
        // Wrinkles paired only with Age.
        let i = coll
            .add_attribute(&mut c, wrinkles, vec![false, true], 2)
            .unwrap();
        coll.update_trio(&mut trio, i, 2, true, 1.0).unwrap();
        assert!(trio.s_o_missing(0, 0));
        assert!(!trio.s_o_missing(1, 0));
        assert!(coll.is_paired(0, 1));
        assert!(!coll.is_paired(0, 0));
        // Answer cells exist only for Age examples.
        let n_collected = (0..coll.examples().len())
            .filter(|&e| coll.answers(0, e).is_some())
            .count();
        assert_eq!(n_collected, 40);
    }

    #[test]
    fn pairing_saves_value_questions() {
        let mut c1 = crowd();
        let mut c2 = crowd();
        let spec = c1.population().spec();
        let bmi = spec.id_of("Bmi").unwrap();
        let age = spec.id_of("Age").unwrap();
        let heavy = spec.id_of("Heavy").unwrap();
        let mut full = StatisticsCollector::collect_examples(&mut c1, &[bmi, age], 50).unwrap();
        let mut half = StatisticsCollector::collect_examples(&mut c2, &[bmi, age], 50).unwrap();
        let before1 = c1.ledger().spent();
        let before2 = c2.ledger().spent();
        full.add_attribute(&mut c1, heavy, vec![true, true], 2)
            .unwrap();
        half.add_attribute(&mut c2, heavy, vec![true, false], 2)
            .unwrap();
        let cost_full = c1.ledger().spent() - before1;
        let cost_half = c2.ledger().spent() - before2;
        assert_eq!(cost_full.millicents(), 2 * cost_half.millicents());
    }

    #[test]
    fn cross_covariance_uses_shared_examples_only() {
        let mut c = crowd();
        let spec = c.population().spec();
        let bmi = spec.id_of("Bmi").unwrap();
        let age = spec.id_of("Age").unwrap();
        let heavy = spec.id_of("Heavy").unwrap();
        let wrinkles = spec.id_of("Wrinkles").unwrap();
        let mut coll = StatisticsCollector::collect_examples(&mut c, &[bmi, age], 60).unwrap();
        let mut trio = StatsTrio::new(2);
        // Heavy on Bmi's examples only; Wrinkles on Age's only → no shared
        // examples → covariance must fall back to 0.
        let i0 = coll
            .add_attribute(&mut c, heavy, vec![true, false], 2)
            .unwrap();
        coll.update_trio(&mut trio, i0, 2, true, 1.0).unwrap();
        let i1 = coll
            .add_attribute(&mut c, wrinkles, vec![false, true], 2)
            .unwrap();
        coll.update_trio(&mut trio, i1, 2, true, 1.0).unwrap();
        assert_eq!(trio.s_a(0, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "paired arity mismatch")]
    fn pairing_arity_checked() {
        let mut c = crowd();
        let spec = c.population().spec();
        let bmi = spec.id_of("Bmi").unwrap();
        let mut coll = StatisticsCollector::collect_examples(&mut c, &[bmi], 5).unwrap();
        let _ = coll.add_attribute(&mut c, bmi, vec![true, true], 2);
    }
}
