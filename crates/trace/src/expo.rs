//! Prometheus text exposition (format 0.0.4) of a [`RunSummary`].
//!
//! Counters become `disq_<name>_total` counter families; each kernel
//! timer becomes a `disq_kernel_<name>_seconds` histogram whose `le`
//! boundaries are the log₂ nanosecond buckets converted to seconds
//! (cumulative, with the mandatory `+Inf`, `_sum` and `_count` series).
//! The encoder is pure — the `disq-serve` daemon's `/metrics` route
//! serves its output.

use crate::metrics::{Counter, RunSummary, Timer, HIST_BUCKETS};
use std::fmt::Write as _;

/// Writes one float in a Prometheus-friendly form (shortest round-trip;
/// Prometheus accepts Rust's `Display` for finite floats).
fn write_float(out: &mut String, v: f64) {
    if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{v:.1}");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Encodes `summary` as Prometheus text exposition format 0.0.4.
///
/// Every counter is exposed (including zeros — scrapers need stable
/// families); timers with no samples are skipped, as an absent histogram
/// is the conventional encoding of "never observed".
pub fn prometheus_text(summary: &RunSummary) -> String {
    let mut out = String::new();
    for c in Counter::ALL {
        let name = format!("disq_{}_total", c.name());
        let _ = writeln!(out, "# HELP {name} {}", c.help());
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", summary.counter(c));
    }
    for t in Timer::ALL {
        let stats = summary.timer(t);
        if stats.count == 0 {
            continue;
        }
        let name = format!("disq_kernel_{}_seconds", t.name());
        let _ = writeln!(out, "# HELP {name} {}", t.help());
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, &b) in stats.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(b);
            if b == 0 && i + 1 != HIST_BUCKETS {
                // Sparse exposition: only emit boundaries that gained
                // samples (plus the terminal bucket) — Prometheus
                // histograms are cumulative, so omitted boundaries are
                // implied.
                continue;
            }
            let upper_ns = if i == 0 { 1u64 } else { 1u64 << i };
            let _ = write!(out, "{name}_bucket{{le=\"");
            write_float(&mut out, upper_ns as f64 * 1e-9);
            let _ = writeln!(out, "\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", stats.count);
        let _ = write!(out, "{name}_sum ");
        write_float(&mut out, stats.total_ns as f64 * 1e-9);
        out.push('\n');
        let _ = writeln!(out, "{name}_count {}", stats.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TimerStats;

    fn summary_with(counter: Counter, v: u64) -> RunSummary {
        let mut s = RunSummary::default();
        s.set_counter_for_test(counter, v);
        s
    }

    #[test]
    fn counters_exposed_with_families() {
        let s = summary_with(Counter::QuestionsBinary, 41);
        let text = prometheus_text(&s);
        assert!(text.contains("# TYPE disq_questions_binary_total counter"));
        assert!(text.contains("\ndisq_questions_binary_total 41\n"));
        // Zero counters are present too.
        assert!(text.contains("\ndisq_spend_millicents_total 0\n"));
        // No timer families without samples.
        assert!(!text.contains("disq_kernel_"));
    }

    #[test]
    fn histogram_is_cumulative_and_terminated() {
        let mut s = RunSummary::default();
        let mut stats = TimerStats {
            count: 100,
            total_ns: 90 * 10 + 10 * 1500,
            buckets: [0; HIST_BUCKETS],
        };
        stats.buckets[4] = 90; // ≤16ns = 1.6e-8s
        stats.buckets[11] = 10; // ≤2048ns
        s.set_timer_for_test(Timer::CholeskyFactorize, stats);
        let text = prometheus_text(&s);
        assert!(
            text.contains("disq_kernel_cholesky_factorize_seconds_bucket{le=\"0.000000016\"} 90"),
            "{text}"
        );
        assert!(
            text.contains("disq_kernel_cholesky_factorize_seconds_bucket{le=\"0.000002048\"} 100"),
            "{text}"
        );
        assert!(text.contains("disq_kernel_cholesky_factorize_seconds_bucket{le=\"+Inf\"} 100"));
        assert!(text.contains("disq_kernel_cholesky_factorize_seconds_count 100"));
        // total_ns = 15900 → 0.0000159 s.
        assert!(text.contains("disq_kernel_cholesky_factorize_seconds_sum 0.0000159"));
    }

    #[test]
    fn every_line_is_wellformed() {
        let mut s = summary_with(Counter::SprtSamples, 7);
        let mut stats = TimerStats {
            count: 3,
            total_ns: 3000,
            buckets: [0; HIST_BUCKETS],
        };
        stats.buckets[10] = 3;
        s.set_timer_for_test(Timer::CrowdQuestion, stats);
        for line in prometheus_text(&s).lines() {
            assert!(!line.is_empty());
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "{line}"
                );
            } else {
                // `name{labels} value` or `name value`.
                let (_, value) = line.rsplit_once(' ').expect(line);
                assert!(value.parse::<f64>().is_ok(), "{line}");
            }
        }
    }
}
