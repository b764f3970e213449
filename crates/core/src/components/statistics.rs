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
///
/// Preprocessing grows this once per discovered attribute and reads it on
/// every trio update, so it keeps its data flat: one answer buffer per
/// attribute instead of one heap block per (attribute, example) cell,
/// each cell's mean computed once whenever its answers change, and the
/// target variances computed once at collection.
#[derive(Debug, Clone)]
pub struct StatisticsCollector {
    targets: Vec<AttributeId>,
    examples: Vec<Example>,
    /// `Var(a_t)` per target over its example set.
    target_vars: Vec<f64>,
    /// `cells[pool_attr]`: the attribute's answers on every example.
    cells: Vec<AnswerCells>,
    /// `paired[pool_attr][target]`. Attribute `a` has a cell on example
    /// `e` iff `paired[a][examples[e].target_idx]`.
    paired: Vec<Vec<bool>>,
}

/// One attribute's raw answers, one cell per example in example order:
/// cell `e` is `values[bounds[e]..bounds[e + 1]]` (empty where the
/// pairing rule skipped the example) and `means[e]` is its `sum / len`
/// (NaN where skipped).
#[derive(Debug, Clone)]
struct AnswerCells {
    values: Vec<f64>,
    bounds: Vec<usize>,
    means: Vec<f64>,
}

impl AnswerCells {
    fn cell(&self, e: usize) -> &[f64] {
        &self.values[self.bounds[e]..self.bounds[e + 1]]
    }
}

/// The average the trio reads for one cell.
fn cell_mean(answers: &[f64]) -> f64 {
    answers.iter().sum::<f64>() / answers.len() as f64
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
        // The two-pass batch formula, *not* the streaming one the trio
        // uses: these variances escape preprocessing as the error weights
        // `ω_t = 1/Var(a_t)` in [`crate::PreprocessOutput`] and so reach
        // the experiment tables, which must stay byte-identical. The
        // streaming co-moments agree with the batch formulas only to
        // round-off, which is safe solely behind integerizing decisions.
        let mut values = Vec::with_capacity(n1);
        let target_vars = (0..targets.len())
            .map(|t| {
                values.clear();
                let own = examples.iter().filter(|e| e.target_idx == t);
                values.extend(own.map(|e| e.target_value));
                disq_stats::sample_variance(&values)
            })
            .collect();
        Ok(StatisticsCollector {
            targets: targets.to_vec(),
            examples,
            target_vars,
            cells: Vec::new(),
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
        self.cells.len()
    }

    /// Raw answers for a cell, if collected.
    pub fn answers(&self, pool_attr: usize, example: usize) -> Option<&[f64]> {
        self.has_cell(pool_attr, example)
            .then(|| self.cells[pool_attr].cell(example))
    }

    fn has_cell(&self, pool_attr: usize, example: usize) -> bool {
        self.paired[pool_attr][self.examples[example].target_idx]
    }

    /// Attribute `idx`'s collected cells as `(answers, mean)`, in example
    /// order.
    fn cells(&self, idx: usize) -> impl Iterator<Item = (&[f64], f64)> + '_ {
        let store = &self.cells[idx];
        (0..self.examples.len())
            .filter(move |&e| self.has_cell(idx, e))
            .map(move |e| (store.cell(e), store.means[e]))
    }

    /// Whether an attribute was paired with a target.
    pub fn is_paired(&self, pool_attr: usize, target: usize) -> bool {
        self.paired[pool_attr][target]
    }

    /// Empirical variance of a target's true value over its example set,
    /// computed once by [`collect_examples`](Self::collect_examples) with
    /// the two-pass batch formula.
    pub fn target_variance(&self, target: usize) -> f64 {
        self.target_vars[target]
    }

    /// Asks `k` value questions about the new attribute on every example
    /// belonging to a paired target, and records the answers. Returns the
    /// new attribute's collector index (must be called in pool order).
    /// On an error the attribute is not added.
    pub fn add_attribute<P: CrowdPlatform>(
        &mut self,
        platform: &mut P,
        attr: AttributeId,
        paired: Vec<bool>,
        k: usize,
    ) -> Result<usize, DisqError> {
        assert_eq!(paired.len(), self.n_targets(), "paired arity mismatch");
        let n = self.examples.len();
        let asked = self.examples.iter().filter(|ex| paired[ex.target_idx]);
        let mut cells = AnswerCells {
            values: Vec::with_capacity(asked.count() * k),
            bounds: Vec::with_capacity(n + 1),
            means: Vec::with_capacity(n),
        };
        cells.bounds.push(0);
        let mut workers = Vec::with_capacity(k);
        for ex in &self.examples {
            let start = cells.values.len();
            if paired[ex.target_idx] {
                workers.clear();
                platform.ask_values_attributed(
                    ex.object,
                    attr,
                    k,
                    &mut cells.values,
                    &mut workers,
                )?;
                cells.means.push(cell_mean(&cells.values[start..]));
            } else {
                cells.means.push(f64::NAN);
            }
            cells.bounds.push(cells.values.len());
        }
        self.cells.push(cells);
        self.paired.push(paired);
        Ok(self.cells.len() - 1)
    }

    /// Estimates the *signal* variance of an attribute (worker noise
    /// excluded) as the average cross-example covariance between distinct
    /// answer columns: `Cov(ans_p, ans_q) = Var(a)` exactly for
    /// independent unbiased noise, with no noisy `− S_c/k` subtraction.
    /// Returns `None` with fewer than two answers per cell or two cells.
    /// `xs`/`ys` are scratch columns.
    fn signal_variance(&self, idx: usize, xs: &mut Vec<f64>, ys: &mut Vec<f64>) -> Option<f64> {
        let m = self.cells(idx).map(|(c, _)| c.len()).min()?;
        if m < 2 || self.cells(idx).count() < 2 {
            return None;
        }
        let mut total = 0.0;
        let mut pairs = 0usize;
        for p in 0..m {
            for q in (p + 1)..m {
                xs.clear();
                ys.clear();
                for (c, _) in self.cells(idx) {
                    xs.push(c[p]);
                    ys.push(c[q]);
                }
                total += streaming_covariance(xs, ys);
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
        let paired = &self.paired[pool_attr];
        let cells = &mut self.cells[pool_attr];
        let asked = self.examples.iter().filter(|ex| paired[ex.target_idx]);
        // Cells grow in place of the old buffer: each is copied, then
        // extended by its fresh answers in example order.
        let mut values = Vec::with_capacity(cells.values.len() + asked.count() * extra_k);
        let mut workers = Vec::with_capacity(extra_k);
        let mut asking = Ok(());
        let mut old_start = 0;
        for (e, ex) in self.examples.iter().enumerate() {
            let (start, old_end) = (values.len(), cells.bounds[e + 1]);
            values.extend_from_slice(&cells.values[old_start..old_end]);
            if paired[ex.target_idx] && asking.is_ok() {
                // On budget exhaustion the answers asked so far stay in
                // the cell, as one question at a time would leave them,
                // and the cells after it keep their old answers.
                workers.clear();
                asking = platform.ask_values_attributed(
                    ex.object,
                    attr,
                    extra_k,
                    &mut values,
                    &mut workers,
                );
                cells.means[e] = cell_mean(&values[start..]);
            }
            cells.bounds[e + 1] = values.len();
            old_start = old_end;
        }
        cells.values = values;
        asking?;
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
        let n = self.examples.len();
        let (mut xs, mut ys) = (Vec::with_capacity(n), Vec::with_capacity(n));

        // Own variance and S_c first — the covariance coherence clamps
        // below need the refreshed variance.
        xs.extend(self.cells(idx).map(|(_, mean)| mean));
        let raw_var = streaming_variance(&xs);
        let n_cells = xs.len();
        if n_cells > 0 {
            let s_c = self.cells(idx).map(|(c, _)| var_est_k(c)).sum::<f64>() / n_cells as f64;
            let mean_k =
                self.cells(idx).map(|(c, _)| c.len()).sum::<usize>() as f64 / n_cells as f64;
            let own_var = if bias_correction {
                self.signal_variance(idx, &mut xs, &mut ys)
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
            self.target_columns(idx, t, &mut xs, &mut ys);
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
            self.shared_columns(idx, other, &mut xs, &mut ys);
            if xs.len() >= 2 {
                let cov = streaming_covariance(&xs, &ys);
                trio.set_s_a(idx, other, clamp_cov(cov, own_var, trio.s_a(other, other)))?;
            }
        }
        Ok(())
    }

    /// Fills `xs` with attribute `idx`'s cell means on target `t`'s
    /// examples and `ys` with their true target values (both empty when
    /// the pair was not collected).
    fn target_columns(&self, idx: usize, t: usize, xs: &mut Vec<f64>, ys: &mut Vec<f64>) {
        xs.clear();
        ys.clear();
        if !self.paired[idx][t] {
            return;
        }
        for (ex, &mean) in self.examples.iter().zip(&self.cells[idx].means) {
            if ex.target_idx == t {
                xs.push(mean);
                ys.push(ex.target_value);
            }
        }
    }

    /// Fills `xs`/`ys` with the cell means of attributes `a`/`b` on the
    /// examples both were asked on.
    fn shared_columns(&self, a: usize, b: usize, xs: &mut Vec<f64>, ys: &mut Vec<f64>) {
        xs.clear();
        ys.clear();
        for e in 0..self.examples.len() {
            if self.has_cell(a, e) && self.has_cell(b, e) {
                xs.push(self.cells[a].means[e]);
                ys.push(self.cells[b].means[e]);
            }
        }
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
        let n = self.examples.len();
        let (mut xs, mut ys) = (Vec::with_capacity(n), Vec::with_capacity(n));

        // S_o per target over that target's examples. The raw sample
        // covariance is soft-thresholded by `so_shrinkage` standard
        // errors: the budget-distribution greedy *selects* the largest
        // estimates, so unshrunk noise systematically promotes weak
        // attributes (winner's curse).
        let mut s_o = Vec::with_capacity(self.n_targets());
        for t in 0..self.n_targets() {
            self.target_columns(new_idx, t, &mut xs, &mut ys);
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
            self.shared_columns(new_idx, i, &mut xs, &mut ys);
            cov_with.push(if xs.len() < 2 {
                0.0
            } else {
                streaming_covariance(&xs, &ys)
            });
        }

        // Own variance (bias-corrected) and S_c.
        xs.clear();
        xs.extend(self.cells(new_idx).map(|(_, mean)| mean));
        let raw_var = streaming_variance(&xs);
        let s_c = if xs.is_empty() {
            0.0
        } else {
            self.cells(new_idx).map(|(c, _)| var_est_k(c)).sum::<f64>() / xs.len() as f64
        };
        // De-bias: Var(e.a^(k)) = Var(a) + S_c/k. The pairwise-covariance
        // estimator computes Var(a) directly without the noisy
        // subtraction; fall back to the subtraction form if unavailable.
        // Floor at 5% of the raw variance so a noisy estimate cannot
        // erase the attribute.
        let own_var = if bias_correction {
            self.signal_variance(new_idx, &mut xs, &mut ys)
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

    /// Every stored cell mean is `sum / len` of the cell's answers, bit
    /// for bit, and exactly the paired cells exist.
    fn assert_cells_consistent(coll: &StatisticsCollector) {
        for a in 0..coll.n_attrs() {
            for (e, ex) in coll.examples().iter().enumerate() {
                let paired = coll.is_paired(a, ex.target_idx);
                assert_eq!(coll.answers(a, e).is_some(), paired, "cell ({a}, {e})");
                if let Some(cell) = coll.answers(a, e) {
                    let want = cell.iter().sum::<f64>() / cell.len() as f64;
                    assert_eq!(coll.cells[a].means[e].to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    fn cell_means_track_every_answer_change() {
        let spec = pictures::spec();
        let (bmi, age) = (spec.id_of("Bmi").unwrap(), spec.id_of("Age").unwrap());
        let (heavy, weight) = (spec.id_of("Heavy").unwrap(), spec.id_of("Weight").unwrap());
        let setup = |c: &mut SimulatedCrowd| {
            let mut coll = StatisticsCollector::collect_examples(c, &[bmi, age], 30).unwrap();
            coll.add_attribute(c, heavy, vec![true, false], 2).unwrap();
            coll.add_attribute(c, weight, vec![true, true], 2).unwrap();
            coll
        };
        let mut c = crowd();
        let mut coll = setup(&mut c);
        assert_cells_consistent(&coll);
        coll.extend_answers(&mut c, 1, weight, 3).unwrap();
        assert_cells_consistent(&coll);
        assert!((0..60).all(|e| coll.answers(1, e).unwrap().len() == 5));

        // A cap that runs out 25 numeric answers into the extension:
        // eight cells get all three, the ninth one, the rest none.
        let spent = crowd_spend(setup);
        let cap = spent + Money::from_cents(0.4 * 25.5);
        let spec = Arc::new(pictures::spec());
        let pop = Population::sample(spec, 3_000, &mut StdRng::seed_from_u64(0)).unwrap();
        let mut capped = SimulatedCrowd::new(pop, CrowdConfig::default(), Some(cap), 11);
        let mut coll = setup(&mut capped);
        let before: Vec<Vec<f64>> = (0..60)
            .map(|e| coll.answers(1, e).unwrap().to_vec())
            .collect();
        let err = coll.extend_answers(&mut capped, 1, weight, 3).unwrap_err();
        assert!(matches!(
            err,
            DisqError::Crowd(disq_crowd::CrowdError::BudgetExhausted { .. })
        ));
        assert_cells_consistent(&coll);
        let lens: Vec<usize> = (0..60).map(|e| coll.answers(1, e).unwrap().len()).collect();
        assert_eq!(lens, [vec![5; 8], vec![3], vec![2; 51]].concat());
        for (e, old) in before.iter().enumerate() {
            assert_eq!(
                &coll.answers(1, e).unwrap()[..2],
                old.as_slice(),
                "cell {e}"
            );
        }
    }

    /// What `setup` spends on a fresh uncapped crowd.
    fn crowd_spend(setup: impl Fn(&mut SimulatedCrowd) -> StatisticsCollector) -> Money {
        let mut c = crowd();
        setup(&mut c);
        c.ledger().spent()
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
