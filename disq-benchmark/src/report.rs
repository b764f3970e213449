//! The metric catalogue and the run report.
//!
//! Every workload reports every metric of the catalogue for its mode:
//! the end-to-end set untraced, the per-layer set traced. A layer a
//! workload does not exercise reads 0 (only counts, ratios and shares
//! can be absent; every per-layer time is measured on every workload).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric: name and unit.
pub type Metric = (&'static str, &'static str);

/// End-to-end metrics, reported by the untraced run of every workload.
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("throughput_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// The open-loop ladder: 50·2ᵏ requests per second, k = 0..8. The
/// first step is the reference step.
pub const LADDER: [f64; 9] = [
    50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0, 12800.0,
];

/// Per-layer metrics, reported by the traced run of every workload.
pub const PER_LAYER: &[Metric] = &[
    // Times measured on every workload.
    ("e2e.latency_tail_us", "us"),
    ("domain.population.sample_ms", "ms"),
    ("core.preprocess.self_us", "us"),
    ("core.budget_dist.solve_us", "us"),
    ("core.online.eval_us", "us"),
    ("core.online.kernel_self_ns_per_object", "ns"),
    ("crowd.sim.value_ns_per_question", "ns"),
    ("crowd.spam.filter_ns_per_batch", "ns"),
    // Shares of the traced operation's wall time (self time, disjoint).
    ("serve.http.share", "share"),
    ("serve.codec.share", "share"),
    ("serve.engine.share", "share"),
    ("core.preprocess.share", "share"),
    ("core.online.share", "share"),
    ("crowd.sim.share", "share"),
    ("core.metrics.share", "share"),
    ("trace.coverage", "share"),
    ("trace.overhead_ratio", "ratio"),
    // Work counts and useful-outcome ratios.
    ("crowd.batcher.requested_per_query", "questions"),
    ("crowd.batcher.asked_per_query", "questions"),
    ("crowd.batcher.coalesced_per_query", "batches"),
    ("crowd.batcher.saved_ratio", "ratio"),
    ("serve.plan_cache.hit_rate", "ratio"),
    ("crowd.sim.value_per_op", "questions"),
    ("crowd.sim.dismantle_per_op", "questions"),
    ("crowd.sim.verify_per_op", "questions"),
    ("crowd.sim.example_per_op", "questions"),
    ("core.budget_dist.steps_per_plan", "count"),
    ("core.budget_dist.probe_cache_hits_per_plan", "count"),
    ("core.budget_dist.solver_fallbacks_per_plan", "count"),
    ("crowd.ledger.spend_cents_per_plan", "cents"),
    ("alloc.bytes_per_object", "bytes"),
    ("alloc.calls_per_object", "count"),
    ("quality.query_error", "nmse"),
    ("quality.questions_per_op", "questions"),
    ("loadgen.open_max_qps", "req/s"),
    ("loadgen.due_p99_slo_ratio", "ratio"),
    ("loadgen.late_p99_slo_ratio", "ratio"),
    ("loadgen.r50.achieved_ratio", "ratio"),
    ("loadgen.r50.slo_met_ratio", "ratio"),
    ("loadgen.r100.achieved_ratio", "ratio"),
    ("loadgen.r100.slo_met_ratio", "ratio"),
    ("loadgen.r200.achieved_ratio", "ratio"),
    ("loadgen.r200.slo_met_ratio", "ratio"),
    ("loadgen.r400.achieved_ratio", "ratio"),
    ("loadgen.r400.slo_met_ratio", "ratio"),
    ("loadgen.r800.achieved_ratio", "ratio"),
    ("loadgen.r800.slo_met_ratio", "ratio"),
    ("loadgen.r1600.achieved_ratio", "ratio"),
    ("loadgen.r1600.slo_met_ratio", "ratio"),
    ("loadgen.r3200.achieved_ratio", "ratio"),
    ("loadgen.r3200.slo_met_ratio", "ratio"),
    ("loadgen.r6400.achieved_ratio", "ratio"),
    ("loadgen.r6400.slo_met_ratio", "ratio"),
    ("loadgen.r12800.achieved_ratio", "ratio"),
    ("loadgen.r12800.slo_met_ratio", "ratio"),
];

/// Lowest acceptable [`PER_LAYER`] `trace.coverage`.
pub const MIN_COVERAGE: f64 = 0.95;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (requests sent, plans run, blocks scanned).
    pub attempted: u64,
    /// Operations that failed (non-200, transport error, `Err`).
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool)>,
    lines: Vec<String>,
}

/// The per-layer metrics a workload without the daemon does not run.
pub const SERVE_ONLY: &[&str] = &["crowd.batcher.", "serve.", "loadgen."];

/// The catalogue's own name for `name`.
///
/// # Panics
/// When `name` is in neither catalogue: a misspelt metric is a bug here.
fn catalogued(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|&(n, _)| n)
        .find(|&n| n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

impl Report {
    /// Records metric `name`. Later values replace earlier ones.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(catalogued(name), value);
    }

    /// Records 0 for every per-layer metric whose name starts with one of
    /// `prefixes` (a full name matches itself): layers the workload does
    /// not run.
    pub fn zero(&mut self, prefixes: &[&str]) {
        for &(name, _) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.values.insert(name, 0.0);
            }
        }
    }

    /// Records a correctness check; any failed check fails the run.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Adds one human-readable line to the printed report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Verifies that `catalogue` is complete and finite, then renders
    /// the human-readable report followed, on its last line, by the
    /// result object. Returns the text and whether every check passed.
    pub fn render(mut self, catalogue: &[Metric]) -> (String, bool) {
        for &(name, _) in catalogue {
            match self.values.get(name) {
                None => self
                    .checks
                    .push((format!("metric {name} was measured"), false)),
                Some(v) if !v.is_finite() => self
                    .checks
                    .push((format!("metric {name} is finite ({v})"), false)),
                Some(_) => {}
            }
        }
        if self.attempted == 0 {
            self.checks
                .push(("at least one operation ran".into(), false));
        }
        let correct = self.checks.iter().all(|(_, ok)| *ok);
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        for (what, ok) in &self.checks {
            let _ = writeln!(out, "check {}: {what}", if *ok { "ok" } else { "FAILED" });
        }
        for &(name, unit) in catalogue {
            if let Some(v) = self.values.get(name) {
                let _ = writeln!(out, "{name:<46} {v:>16.4} {unit}");
            }
        }
        let _ = write!(
            out,
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.attempted, self.failed
        );
        let mut first = true;
        for &(name, unit) in catalogue {
            let Some(&v) = self.values.get(name).filter(|v| v.is_finite()) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            // `{v:?}` prints the shortest repr that round-trips, with all
            // its digits, and always as a JSON number for finite values.
            let _ = write!(out, "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}");
        }
        out.push_str("}}\n");
        (out, correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disq_trace::json::{self, Json};

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate {name}");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
        for rate in LADDER {
            for what in ["achieved_ratio", "slo_met_ratio"] {
                catalogued(&format!("loadgen.r{rate}.{what}"));
            }
        }
    }

    /// The catalogue and `BENCHMARK.json` at the repository root must
    /// list the same metrics with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |c: &[Metric]| -> Vec<(String, String)> {
            c.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn render_ends_with_the_result_object() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for &(name, _) in END_TO_END {
            r.set(name, 1.25);
        }
        r.check("something held", true);
        let (text, correct) = r.render(END_TO_END);
        assert!(correct);
        let last = text.lines().last().unwrap();
        let doc = json::parse(last).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));

        let mut missing = Report {
            attempted: 1,
            ..Report::default()
        };
        missing.set("setup_s", f64::NAN);
        let (text, correct) = missing.render(END_TO_END);
        assert!(!correct);
        assert!(text.contains("check FAILED: metric latency_p50_us was measured"));
        assert!(json::parse(text.lines().last().unwrap()).is_ok());
    }
}
