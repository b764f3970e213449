//! Prometheus gauges for *current-state* observability.
//!
//! Counters (see [`crate::metrics`]) only go up; a component that owns
//! a level — a route's SLO compliance, a plan cache's size — publishes
//! it as a Prometheus gauge. The owner renders its state at scrape time
//! into a local [`GaugeSet`], so updates cost nothing between scrapes,
//! and appends it to the counter/histogram body from
//! [`crate::expo::prometheus_text`], so one scrape sees everything.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One gauge family: a help string plus labelled series.
struct Family {
    help: &'static str,
    /// Encoded label set (`key="value",…`) → last value.
    series: BTreeMap<String, f64>,
}

/// A set of labelled gauge families, rendered in family-name order.
#[derive(Default)]
pub struct GaugeSet {
    families: BTreeMap<&'static str, Family>,
}

impl GaugeSet {
    /// An empty set.
    pub const fn new() -> GaugeSet {
        GaugeSet {
            families: BTreeMap::new(),
        }
    }

    /// Sets one labelled series to `value`, creating the family on
    /// first use. `family` must be a full metric name (the `disq_…`
    /// convention is the caller's job); label *names* must be valid
    /// Prometheus label identifiers, label *values* are escaped here.
    pub fn set(
        &mut self,
        family: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        value: f64,
    ) {
        self.families
            .entry(family)
            .or_insert_with(|| Family {
                help,
                series: BTreeMap::new(),
            })
            .series
            .insert(encode_labels(labels), value);
    }

    /// Renders every family as exposition text (empty string when no
    /// series was set). Non-finite values encode as `NaN`/`+Inf`/`-Inf`,
    /// which the format permits for gauges.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (labels, value) in &family.series {
                let rendered = if value.is_nan() {
                    "NaN".to_string()
                } else if value.is_infinite() {
                    (if *value > 0.0 { "+Inf" } else { "-Inf" }).to_string()
                } else {
                    format!("{value}")
                };
                if labels.is_empty() {
                    let _ = writeln!(out, "{name} {rendered}");
                } else {
                    let _ = writeln!(out, "{name}{{{labels}}} {rendered}");
                }
            }
        }
        out
    }
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
}

fn encode_labels(labels: &[(&str, &str)]) -> String {
    let mut s = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(k);
        s.push_str("=\"");
        escape_label(&mut s, v);
        s.push('"');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_then_render_roundtrips() {
        let mut set = GaugeSet::new();
        assert_eq!(set.render(), "");
        set.set(
            "disq_drift_score",
            "CUSUM score",
            &[("attr", "Weight"), ("metric", "answer_var")],
            1.25,
        );
        set.set(
            "disq_drift_score",
            "CUSUM score",
            &[("attr", "Weight"), ("metric", "spam_rate")],
            0.0,
        );
        let text = set.render();
        assert!(text.contains("# TYPE disq_drift_score gauge"), "{text}");
        assert!(
            text.contains("disq_drift_score{attr=\"Weight\",metric=\"answer_var\"} 1.25"),
            "{text}"
        );
        assert!(
            text.contains("disq_drift_score{attr=\"Weight\",metric=\"spam_rate\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn updates_overwrite_and_labels_escape() {
        let mut set = GaugeSet::new();
        set.set("disq_test_gauge", "help", &[("k", "a\"b\\c\nd")], 1.0);
        set.set("disq_test_gauge", "help", &[("k", "a\"b\\c\nd")], 2.0);
        let text = set.render();
        // One series, latest value, escaped label.
        assert_eq!(text.matches("disq_test_gauge{").count(), 1, "{text}");
        assert!(
            text.contains("disq_test_gauge{k=\"a\\\"b\\\\c\\nd\"} 2"),
            "{text}"
        );
    }

    /// Worker/attribute labels can contain every character the
    /// exposition format singles out; rendered output escapes them all.
    #[test]
    fn worker_label_escaping_covers_quotes_backslashes_newlines() {
        for (raw, escaped) in [
            ("he said \"hi\"", "he said \\\"hi\\\""),
            ("C:\\crowd\\worker", "C:\\\\crowd\\\\worker"),
            ("line1\nline2", "line1\\nline2"),
            ("mix\"of\\all\nthree", "mix\\\"of\\\\all\\nthree"),
        ] {
            let mut set = GaugeSet::new();
            set.set("disq_escape_gauge", "help", &[("worker", raw)], 1.0);
            let text = set.render();
            let want = format!("disq_escape_gauge{{worker=\"{escaped}\"}} 1");
            assert!(
                text.contains(&want),
                "raw {raw:?}: missing {want:?} in {text}"
            );
            // No rendered sample line may span multiple lines.
            for line in text.lines() {
                assert!(!line.is_empty() || text.ends_with('\n'));
            }
            assert_eq!(
                text.lines()
                    .filter(|l| l.starts_with("disq_escape_gauge{"))
                    .count(),
                1,
                "escaped newline must keep the sample on one line: {text}"
            );
        }
    }

    #[test]
    fn non_finite_values_render_spec_forms() {
        let mut set = GaugeSet::new();
        set.set("disq_nan_gauge", "help", &[], f64::NAN);
        set.set("disq_inf_gauge", "help", &[], f64::INFINITY);
        let text = set.render();
        assert!(text.contains("disq_nan_gauge NaN"), "{text}");
        assert!(text.contains("disq_inf_gauge +Inf"), "{text}");
    }
}
