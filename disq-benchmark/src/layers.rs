//! Layer measurements shared by the traced runs: timed plan
//! computation, budget-solver and spam-filter replays, a sink that sums
//! the daemon's own spans, and output fingerprints for the traced ≡
//! untraced check.

use crate::timed::{CrowdClock, TimedCrowd};
use disq_core::components::budget_dist::find_budget_distribution;
use disq_core::online::QueryResult;
use disq_core::{preprocess, DisqConfig, DisqError, EvaluationPlan, PreprocessOutput};
use disq_crowd::{filter_spam_into, CrowdPlatform, Money, PricingModel};
use disq_domain::{AttributeId, DomainSpec};
use disq_trace::{Counter, RunSummary, TraceEvent, TraceSink};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Runs `preprocess` with the paper's pricing and default algorithm
/// configuration — the call every workload plans with.
pub fn plan<P: CrowdPlatform>(
    crowd: &mut P,
    spec: &DomainSpec,
    targets: &[AttributeId],
    b_obj: Money,
    seed: u64,
) -> Result<PreprocessOutput, DisqError> {
    preprocess(
        crowd,
        spec,
        targets,
        b_obj,
        &DisqConfig::default(),
        &PricingModel::paper(),
        None,
        seed,
    )
}

/// Accumulated measurements of traced `preprocess` calls.
#[derive(Debug, Default)]
pub struct PlanLayer {
    /// Plans computed.
    pub plans: u64,
    /// Wall time inside `preprocess`, crowd included (ns).
    pub wall_ns: u64,
    /// Crowd time and counts inside `preprocess`.
    pub crowd: CrowdClock,
    /// Ledger spend across all plans (cents).
    pub spend_cents: f64,
    /// Budget-solver counter deltas across all plans.
    pub steps: u64,
    /// Probe-cache hits across all plans.
    pub probe_hits: u64,
    /// Dense-solver fallbacks across all plans.
    pub fallbacks: u64,
}

impl PlanLayer {
    /// Runs one traced `preprocess` on `crowd` and accumulates its time,
    /// crowd clocks, spend and solver counters.
    pub fn run<P: CrowdPlatform>(
        &mut self,
        crowd: P,
        spec: &DomainSpec,
        targets: &[AttributeId],
        b_obj: Money,
        seed: u64,
    ) -> Result<PreprocessOutput, DisqError> {
        let mut timed = TimedCrowd::new(crowd);
        let before = disq_trace::summary();
        let t = Instant::now();
        let out = plan(&mut timed, spec, targets, b_obj, seed);
        self.wall_ns += t.elapsed().as_nanos() as u64;
        let delta = disq_trace::summary().delta_since(&before);
        self.absorb_counters(&delta);
        self.plans += 1;
        self.crowd.absorb(&timed.clock);
        self.spend_cents += timed.ledger().spent().as_cents();
        out
    }

    fn absorb_counters(&mut self, delta: &RunSummary) {
        self.steps += delta.counter(Counter::BudgetSteps);
        self.probe_hits += delta.counter(Counter::ProbeCacheHits);
        self.fallbacks += delta.counter(Counter::SolverFallbacks);
    }

    /// `preprocess` self time per plan (µs), crowd time excluded.
    pub fn self_us(&self) -> f64 {
        (self.wall_ns.saturating_sub(self.crowd.total_ns())) as f64 / 1e3 / self.plans as f64
    }

    /// Records the per-plan metrics into `report`.
    pub fn report(&self, report: &mut crate::report::Report) {
        let per = |x: u64| x as f64 / self.plans as f64;
        report.set("core.preprocess.self_us", self.self_us());
        report.set("core.budget_dist.steps_per_plan", per(self.steps));
        report.set(
            "core.budget_dist.probe_cache_hits_per_plan",
            per(self.probe_hits),
        );
        report.set(
            "core.budget_dist.solver_fallbacks_per_plan",
            per(self.fallbacks),
        );
        report.set(
            "crowd.ledger.spend_cents_per_plan",
            self.spend_cents / self.plans as f64,
        );
    }
}

/// Replays `find_budget_distribution` on the final statistics of each
/// plan in `outputs` and returns the median time per solve (µs).
pub fn budget_solve_us(spec: &DomainSpec, outputs: &[&PreprocessOutput], b_obj: Money) -> f64 {
    let pricing = PricingModel::paper();
    let mut times = Vec::new();
    // Solves take microseconds; repeat the set until it has run ~20 ms.
    let started = Instant::now();
    while times.is_empty() || started.elapsed().as_millis() < 20 {
        for out in outputs {
            let costs: Vec<Money> = out
                .pool_labels
                .iter()
                .map(|l| {
                    spec.id_of(l)
                        .map(|id| pricing.value_price(spec.attr(id).kind))
                        .unwrap_or(Money::ZERO)
                })
                .collect();
            let t = Instant::now();
            let solved = find_budget_distribution(&out.trio, &out.weights, b_obj, &costs);
            times.push(t.elapsed().as_nanos() as f64 / 1e3);
            std::hint::black_box(solved.ok());
        }
    }
    crate::stats::median(&times)
}

/// Replays the spam filter over captured answer batches and returns the
/// mean time per batch (ns).
pub fn spam_filter_ns(batches: &[Vec<f64>]) -> f64 {
    let (mut scratch, mut kept) = (Vec::new(), Vec::new());
    let mut calls = 0u64;
    let started = Instant::now();
    while calls == 0 || started.elapsed().as_millis() < 20 {
        for b in batches {
            std::hint::black_box(filter_spam_into(b, &mut scratch, &mut kept));
            calls += 1;
        }
    }
    started.elapsed().as_nanos() as f64 / calls as f64
}

/// The daemon span labels [`SpanSums`] adds up, in [`Sums`] order.
pub const SPAN_LABELS: [&str; 4] = ["request", "plan_lookup", "evaluate_query", "batch_wait"];

/// Totals of one span label.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotal {
    /// Spans closed.
    pub count: u64,
    /// Wall time open (ns).
    pub dur_ns: u64,
    /// Kernel-timer time inside (ns): crowd questions, solver kernels.
    pub kernel_ns: u64,
}

/// Totals per label of [`SPAN_LABELS`].
pub type Sums = [SpanTotal; 4];

/// A trace sink that keeps no events: it matches each span's end to its
/// start and adds the durations of the [`SPAN_LABELS`] up, so a traced
/// pass of any length costs constant memory.
#[derive(Default)]
pub struct SpanSums {
    state: Mutex<(HashMap<u64, usize>, Sums)>,
}

impl SpanSums {
    /// The totals so far.
    pub fn sums(&self) -> Sums {
        self.state.lock().expect("span sums lock").1
    }
}

impl TraceSink for SpanSums {
    fn emit(&self, event: &TraceEvent) {
        match event {
            TraceEvent::SpanStart { id, label, .. } => {
                if let Some(i) = SPAN_LABELS.iter().position(|l| l == label) {
                    self.state.lock().expect("span sums lock").0.insert(*id, i);
                }
            }
            TraceEvent::SpanEnd {
                id,
                dur_ns,
                kernel_ns,
                ..
            } => {
                let mut state = self.state.lock().expect("span sums lock");
                if let Some(i) = state.0.remove(id) {
                    let t = &mut state.1[i];
                    t.count += 1;
                    t.dur_ns += dur_ns;
                    t.kernel_ns += kernel_ns;
                }
            }
            _ => {}
        }
    }
}

/// FNV-1a over 64-bit words: the fingerprint of a plan or result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds one word in.
    pub fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds in every question count and regression coefficient (bits).
    pub fn plan(mut self, plan: &EvaluationPlan) -> Self {
        for a in &plan.attributes {
            self = self.word(a.attr.0 as u64).word(u64::from(a.questions));
        }
        for r in &plan.regressions {
            self = self.word(r.intercept.to_bits());
            for c in &r.coefficients {
                self = self.word(c.to_bits());
            }
        }
        self
    }

    /// Folds in every returned row (object id and value bits).
    pub fn result(mut self, result: &QueryResult) -> Self {
        self = self.word(result.scanned as u64);
        for row in &result.rows {
            self = self.word(row.object.0 as u64);
            for v in &row.values {
                self = self.word(v.to_bits());
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_see_every_bit() {
        let a = Fingerprint::default().word(1).word(2);
        assert_eq!(a, Fingerprint::default().word(1).word(2));
        assert_ne!(a, Fingerprint::default().word(2).word(1));
        let x = 0.1f64;
        assert_ne!(
            Fingerprint::default().word(x.to_bits()),
            Fingerprint::default().word(f64::from_bits(x.to_bits() + 1).to_bits())
        );
    }

    #[test]
    fn span_sums_match_ends_to_starts() {
        let sink = SpanSums::default();
        let start = |id, label: &str| TraceEvent::SpanStart {
            id,
            parent: None,
            tid: 1,
            req: 0,
            label: label.into(),
            detail: String::new(),
        };
        let end = |id, dur_ns| TraceEvent::SpanEnd {
            id,
            tid: 1,
            dur_ns,
            alloc_bytes: 0,
            allocs: 0,
            questions: 0,
            kernel_ns: 7,
        };
        for e in [
            start(1, "request"),
            start(2, "object"),
            end(2, 5),
            start(3, "batch_wait"),
            end(3, 40),
            end(1, 100),
            end(9, 1000),
        ] {
            sink.emit(&e);
        }
        let sums = sink.sums();
        assert_eq!(
            (sums[0].count, sums[0].dur_ns, sums[0].kernel_ns),
            (1, 100, 7)
        );
        assert_eq!((sums[3].count, sums[3].dur_ns), (1, 40));
        assert_eq!(sums[1].count + sums[2].count, 0);
    }

    #[test]
    fn spam_replay_times_every_batch() {
        let batches = vec![vec![1.0, 2.0, 3.0, 50.0]; 4];
        let ns = spam_filter_ns(&batches);
        assert!(ns > 0.0 && ns.is_finite());
    }
}
