//! `disq-insight slow`: critical-path analysis of one slow-request
//! dump.
//!
//! The daemon's tail-latency trigger (`DISQ_SLOW_US` / rolling p99)
//! writes the offending request's causal trace slice as JSONL. This
//! module folds that slice back into its span tree (reusing the
//! [`crate::flame`] machinery) and answers the operator's question —
//! *where did the time go?* — two ways:
//!
//! * **phase attribution**: every span's *self* time is mapped by label
//!   to a named serving phase (plan lookup, plan compute on a cache
//!   miss, batcher wait on a contended crowd lock, crowd batch flush —
//!   a span only dumps from older daemons contain — estimation kernel,
//!   regression, serve overhead), so the buckets sum back to the
//!   request's wall time;
//! * **critical path**: the chain of heaviest children from the request
//!   root down, the spans to stare at first.

use crate::flame::{FlameGraph, FlameNode};
use crate::report::fmt_ns;
use disq_trace::json;
use disq_trace::{TraceEvent, TraceReader};
use std::fmt::Write as _;
use std::io::BufRead;

/// Maps one span label to its serving phase. Unknown labels fall into
/// `"other"`, which counts against the attribution coverage.
pub fn phase_of(label: &str) -> &'static str {
    match label {
        "request" => "serve overhead",
        "plan_lookup" => "plan lookup",
        "plan_compute" | "preprocess" | "examples" | "target" | "dismantle" | "dismantle_round"
        | "refine" | "refine_round" | "budget_dist" => "plan compute",
        "batch_wait" => "batcher wait",
        "batch_flush" => "crowd batch flush",
        "evaluate_query" | "estimate_objects" | "object" => "estimation kernel",
        l if l.starts_with("regression") => "regression",
        _ => "other",
    }
}

/// One analyzed slow-request dump.
#[derive(Debug)]
pub struct SlowReport {
    /// Request id the dump belongs to (from the `request` span).
    pub request_id: u64,
    /// The request span's detail (`POST /query`).
    pub route: String,
    /// Wall time of the request span.
    pub total_ns: u64,
    /// `(phase, self-ns)` buckets, heaviest first.
    pub phases: Vec<(&'static str, u64)>,
    /// Heaviest-child chain from the request root:
    /// `(depth, label, total_ns, self_ns)`.
    pub critical_path: Vec<(usize, String, u64, u64)>,
    /// Crowd questions charged inside the request span.
    pub questions: u64,
    /// `batch_flush` events in the slice: the crowd batches this request
    /// read off another query's asks. (Dumps from older daemons also list
    /// other queries' reads of this request's batches.)
    pub batch_flushes: u64,
    /// Spans opened but never closed in the dump.
    pub open_spans: usize,
    /// `span_end`s with no matching start.
    pub unmatched_ends: usize,
    /// Events parsed out of the dump.
    pub parsed: usize,
    /// Corrupt lines skipped.
    pub skipped: usize,
}

impl SlowReport {
    /// Folds a dump's event stream. Returns `None` when the stream
    /// contains no closed `request` span — the dump is not a
    /// slow-request slice (exit-code-3 territory for the CLI).
    pub fn from_reader<R: BufRead>(reader: &mut TraceReader<R>) -> Option<SlowReport> {
        let mut fg = FlameGraph::new();
        let mut request_id = 0u64;
        let mut route = String::new();
        let mut batch_flushes = 0u64;
        let mut seen_request = false;
        for event in &mut *reader {
            if let TraceEvent::SpanStart {
                req, label, detail, ..
            } = &event
            {
                if label == "request" {
                    seen_request = true;
                    request_id = *req;
                    route = detail.clone();
                }
            }
            if matches!(event, TraceEvent::BatchFlush { .. }) {
                batch_flushes += 1;
            }
            fg.add(&event);
        }
        if !seen_request {
            return None;
        }
        let root = fg.roots.iter().find(|r| r.label == "request")?;
        let mut phases: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        accumulate_phases(root, &mut phases);
        let mut phases: Vec<(&'static str, u64)> = phases.into_iter().collect();
        phases.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        let mut critical_path = Vec::new();
        let mut cursor = Some(root);
        let mut depth = 0usize;
        while let Some(node) = cursor {
            critical_path.push((depth, node.label.clone(), node.total_ns, node.self_ns()));
            cursor = node.children.iter().max_by_key(|c| c.total_ns);
            depth += 1;
        }
        Some(SlowReport {
            request_id,
            route,
            total_ns: root.total_ns,
            phases,
            critical_path,
            questions: root.questions,
            batch_flushes,
            open_spans: fg.spans.open_spans(),
            unmatched_ends: fg.spans.unmatched_ends,
            parsed: reader.parsed(),
            skipped: reader.skipped(),
        })
    }

    /// Fraction of the request's wall time attributed to a named phase
    /// (everything except the `"other"` bucket). 1.0 on an empty total.
    pub fn coverage(&self) -> f64 {
        if self.total_ns == 0 {
            return 1.0;
        }
        let other: u64 = self
            .phases
            .iter()
            .filter(|(p, _)| *p == "other")
            .map(|&(_, ns)| ns)
            .sum();
        let attributed: u64 = self.phases.iter().map(|&(_, ns)| ns).sum::<u64>() - other;
        (attributed as f64 / self.total_ns as f64).min(1.0)
    }

    /// A dump whose span accounting is internally consistent: the
    /// request span closed, nothing dangling, nothing unmatched.
    pub fn well_formed(&self) -> bool {
        self.open_spans == 0 && self.unmatched_ends == 0 && self.total_ns > 0
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "slow request {} ({}): {} wall, {} crowd questions, {} shared batches",
            self.request_id,
            self.route,
            fmt_ns(self.total_ns),
            self.questions,
            self.batch_flushes
        );
        let _ = writeln!(
            out,
            "\nphase attribution ({:.1}% of wall time):",
            self.coverage() * 100.0
        );
        for &(phase, ns) in &self.phases {
            let pct = if self.total_ns == 0 {
                0.0
            } else {
                ns as f64 / self.total_ns as f64 * 100.0
            };
            let _ = writeln!(out, "  {:<20} {:>10}  {:>5.1}%", phase, fmt_ns(ns), pct);
        }
        let _ = writeln!(out, "\ncritical path (heaviest child at each level):");
        for &(depth, ref label, total_ns, self_ns) in &self.critical_path {
            let _ = writeln!(
                out,
                "  {}{label:<24} total {:>10}  self {:>10}",
                "  ".repeat(depth),
                fmt_ns(total_ns),
                fmt_ns(self_ns)
            );
        }
        if self.open_spans > 0 {
            let _ = writeln!(
                out,
                "({} spans left open — truncated dump?)",
                self.open_spans
            );
        }
        if self.unmatched_ends > 0 {
            let _ = writeln!(out, "({} unmatched span_ends)", self.unmatched_ends);
        }
        out
    }

    /// The report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"request\":");
        let _ = write!(s, "{},\"route\":", self.request_id);
        json::write_str(&mut s, &self.route);
        let _ = write!(
            s,
            ",\"total_ns\":{},\"questions\":{},\"batch_flushes\":{},\"coverage\":",
            self.total_ns, self.questions, self.batch_flushes
        );
        json::write_f64(&mut s, self.coverage());
        s.push_str(",\"phases\":{");
        for (i, &(phase, ns)) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json::write_str(&mut s, phase);
            let _ = write!(s, ":{ns}");
        }
        s.push_str("},\"critical_path\":[");
        for (i, &(depth, ref label, total_ns, self_ns)) in self.critical_path.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"depth\":{depth},\"label\":");
            json::write_str(&mut s, label);
            let _ = write!(s, ",\"total_ns\":{total_ns},\"self_ns\":{self_ns}}}");
        }
        let _ = write!(
            s,
            "],\"open_spans\":{},\"unmatched_ends\":{},\"parsed\":{},\"skipped\":{}}}",
            self.open_spans, self.unmatched_ends, self.parsed, self.skipped
        );
        s
    }
}

/// Adds every node's *self* time to its label's phase bucket; the
/// buckets then sum to the root's total (modulo the self-time clamp on
/// pathological overlapping children).
fn accumulate_phases(node: &FlameNode, phases: &mut std::collections::BTreeMap<&'static str, u64>) {
    *phases.entry(phase_of(&node.label)).or_insert(0) += node.self_ns();
    for c in &node.children {
        accumulate_phases(c, phases);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// A synthetic dump: request → plan_lookup → plan_compute, then
    /// request → evaluate_query → object ×2, with a batch_flush event.
    fn dump() -> String {
        let lines = [
            r#"{"t_us":10,"event":"span_start","id":1,"parent":null,"tid":7,"req":42,"label":"request","detail":"POST /query"}"#,
            r#"{"t_us":11,"event":"span_start","id":2,"parent":1,"tid":7,"req":42,"label":"plan_lookup","detail":"attr=Bmi"}"#,
            r#"{"t_us":12,"event":"span_start","id":3,"parent":2,"tid":7,"req":42,"label":"plan_compute","detail":"attr=Bmi"}"#,
            r#"{"t_us":500,"event":"span_end","id":3,"tid":7,"dur_ns":480000,"alloc_bytes":0,"allocs":0,"questions":40,"kernel_ns":0}"#,
            r#"{"t_us":501,"event":"span_end","id":2,"tid":7,"dur_ns":495000,"alloc_bytes":0,"allocs":0,"questions":40,"kernel_ns":0}"#,
            r#"{"t_us":502,"event":"span_start","id":4,"parent":1,"tid":7,"req":42,"label":"evaluate_query","detail":"objects=2"}"#,
            r#"{"t_us":503,"event":"span_start","id":5,"parent":4,"tid":7,"req":42,"label":"object","detail":"o=0"}"#,
            r#"{"t_us":540,"event":"batch_flush","object":0,"attr":3,"k_max":5,"k_sum":5,"joiners":1,"reqs":[42]}"#,
            r#"{"t_us":550,"event":"span_end","id":5,"tid":7,"dur_ns":47000,"alloc_bytes":0,"allocs":0,"questions":5,"kernel_ns":1000}"#,
            r#"{"t_us":551,"event":"span_end","id":4,"tid":7,"dur_ns":49000,"alloc_bytes":0,"allocs":0,"questions":5,"kernel_ns":1000}"#,
            r#"{"t_us":560,"event":"span_end","id":1,"tid":7,"dur_ns":550000,"alloc_bytes":0,"allocs":0,"questions":45,"kernel_ns":1000}"#,
        ];
        let mut s = lines.join("\n");
        s.push('\n');
        s
    }

    fn parse(text: &str) -> Option<SlowReport> {
        let mut reader = TraceReader::new(BufReader::new(text.as_bytes()));
        SlowReport::from_reader(&mut reader)
    }

    #[test]
    fn phases_cover_the_request_wall_time() {
        let r = parse(&dump()).expect("request span present");
        assert_eq!(r.request_id, 42);
        assert_eq!(r.route, "POST /query");
        assert_eq!(r.total_ns, 550_000);
        assert!(r.well_formed());
        assert_eq!(r.questions, 45);
        assert_eq!(r.batch_flushes, 1);
        // self times: request 6k, plan_lookup 15k, plan_compute 480k,
        // evaluate_query 2k, object 47k — all named phases, zero other.
        assert!(
            r.coverage() > 0.999,
            "every label maps to a phase: {}",
            r.coverage()
        );
        assert_eq!(r.phases[0], ("plan compute", 480_000));
        let path: Vec<&str> = r.critical_path.iter().map(|p| p.1.as_str()).collect();
        assert_eq!(path, ["request", "plan_lookup", "plan_compute"]);
    }

    #[test]
    fn dump_without_a_request_span_yields_none() {
        let text = concat!(
            r#"{"t_us":1,"event":"span_start","id":1,"parent":null,"tid":1,"label":"preprocess","detail":""}"#,
            "\n",
            r#"{"t_us":2,"event":"span_end","id":1,"tid":1,"dur_ns":10,"alloc_bytes":0,"allocs":0,"questions":0,"kernel_ns":0}"#,
            "\n"
        );
        assert!(parse(text).is_none());
    }

    #[test]
    fn truncated_dump_is_not_well_formed() {
        // Drop the final line (the request span's end).
        let full = dump();
        let truncated: String = full
            .lines()
            .take(full.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        let r = parse(&truncated).expect("request span start present");
        assert!(!r.well_formed());
        assert_eq!(r.open_spans, 1);
    }

    #[test]
    fn json_rendering_parses_and_carries_the_phases() {
        let r = parse(&dump()).unwrap();
        let doc = json::parse(&r.to_json()).expect("valid JSON");
        assert_eq!(doc.get("request").and_then(json::Json::as_u64), Some(42));
        assert_eq!(
            doc.get("phases")
                .and_then(|p| p.get("plan compute"))
                .and_then(json::Json::as_u64),
            Some(480_000)
        );
        let cov = doc.get("coverage").and_then(json::Json::as_f64).unwrap();
        assert!(cov > 0.999);
        assert!(r.render().contains("critical path"));
    }

    #[test]
    fn every_serving_label_maps_to_a_named_phase() {
        for label in [
            "request",
            "plan_lookup",
            "plan_compute",
            "preprocess",
            "examples",
            "dismantle",
            "refine",
            "budget_dist",
            "batch_wait",
            "batch_flush",
            "evaluate_query",
            "estimate_objects",
            "object",
            "regression",
            "regression_fit",
        ] {
            assert_ne!(phase_of(label), "other", "{label} must be attributed");
        }
        assert_eq!(phase_of("mystery_span"), "other");
    }
}
