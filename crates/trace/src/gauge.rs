//! Process-global Prometheus gauges for *current-state* observability.
//!
//! Counters (see [`crate::metrics`]) only go up; the drift detectors
//! need to publish levels — "how close is this attribute's answer
//! stream to alarming right now" — which is what a Prometheus gauge is
//! for. The registry is a labelled family map guarded by a mutex: gauge
//! updates happen at audit granularity (once per query target per
//! attribute), far off the per-answer hot path, so a lock is fine and
//! keeps the implementation dependency-free.
//!
//! [`render`] emits text exposition format 0.0.4; [`crate::serve`]
//! appends it to the counter/histogram body from
//! [`crate::expo::prometheus_text`] so one scrape sees everything.
//! State that a component already owns (the serving daemon's routes and
//! plan cache) is better rendered at scrape time into a local
//! [`GaugeSet`] than copied into this registry on every update.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// One gauge family: a help string plus labelled series.
struct Family {
    help: &'static str,
    /// Encoded label set (`key="value",…`) → last value.
    series: BTreeMap<String, f64>,
}

/// A set of labelled gauge families, rendered in family-name order.
/// The process-global registry is one; a component can build its own
/// at scrape time.
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

static GAUGES: Mutex<GaugeSet> = Mutex::new(GaugeSet::new());

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

/// Sets one labelled series of the process-global registry; see
/// [`GaugeSet::set`].
pub fn set(family: &'static str, help: &'static str, labels: &[(&str, &str)], value: f64) {
    GAUGES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .set(family, help, labels, value);
}

/// Renders the process-global registry; see [`GaugeSet::render`].
pub fn render() -> String {
    GAUGES.lock().unwrap_or_else(|e| e.into_inner()).render()
}

/// Clears every registered gauge (test isolation).
pub fn reset() {
    *GAUGES.lock().unwrap_or_else(|e| e.into_inner()) = GaugeSet::new();
}

/// The registry is process-global; in-crate tests that touch it (here
/// and in [`crate::serve`]) serialize on this lock.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    fn lock() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn set_then_render_roundtrips() {
        let _guard = lock();
        reset();
        set(
            "disq_drift_score",
            "CUSUM score",
            &[("attr", "Weight"), ("metric", "answer_var")],
            1.25,
        );
        set(
            "disq_drift_score",
            "CUSUM score",
            &[("attr", "Weight"), ("metric", "spam_rate")],
            0.0,
        );
        let text = render();
        assert!(text.contains("# TYPE disq_drift_score gauge"), "{text}");
        assert!(
            text.contains("disq_drift_score{attr=\"Weight\",metric=\"answer_var\"} 1.25"),
            "{text}"
        );
        assert!(
            text.contains("disq_drift_score{attr=\"Weight\",metric=\"spam_rate\"} 0"),
            "{text}"
        );
        reset();
        assert_eq!(render(), "");
    }

    #[test]
    fn updates_overwrite_and_labels_escape() {
        let _guard = lock();
        reset();
        set("disq_test_gauge", "help", &[("k", "a\"b\\c\nd")], 1.0);
        set("disq_test_gauge", "help", &[("k", "a\"b\\c\nd")], 2.0);
        let text = render();
        // One series, latest value, escaped label.
        assert_eq!(text.matches("disq_test_gauge{").count(), 1, "{text}");
        assert!(
            text.contains("disq_test_gauge{k=\"a\\\"b\\\\c\\nd\"} 2"),
            "{text}"
        );
        reset();
    }

    /// Concurrent labelled updates across many threads never corrupt the
    /// registry: every series lands with its final value and the
    /// rendered text stays well-formed.
    #[test]
    fn concurrent_labelled_updates_are_consistent() {
        let _guard = lock();
        reset();
        const THREADS: usize = 8;
        const ROUNDS: usize = 200;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    let worker = format!("w{t}");
                    for round in 0..ROUNDS {
                        // Each thread owns one series (its final write
                        // must win) and also hammers one shared series.
                        set(
                            "disq_worker_quality",
                            "help",
                            &[("worker", worker.as_str())],
                            round as f64,
                        );
                        set("disq_concurrent_shared", "help", &[], round as f64);
                    }
                });
            }
        });
        let text = render();
        for t in 0..THREADS {
            let want = format!("disq_worker_quality{{worker=\"w{t}\"}} {}", ROUNDS - 1);
            assert!(text.contains(&want), "missing {want:?} in {text}");
        }
        // The shared series holds *some* thread's final write.
        assert!(
            text.contains(&format!("disq_concurrent_shared {}", ROUNDS - 1)),
            "{text}"
        );
        // Exactly one sample line per series, one HELP/TYPE per family.
        assert_eq!(text.matches("disq_worker_quality{").count(), THREADS);
        assert_eq!(text.matches("# TYPE disq_worker_quality gauge").count(), 1);
        reset();
    }

    /// Worker/attribute labels can contain every character the
    /// exposition format singles out; rendered output escapes them all.
    #[test]
    fn worker_label_escaping_covers_quotes_backslashes_newlines() {
        let _guard = lock();
        reset();
        for (raw, escaped) in [
            ("he said \"hi\"", "he said \\\"hi\\\""),
            ("C:\\crowd\\worker", "C:\\\\crowd\\\\worker"),
            ("line1\nline2", "line1\\nline2"),
            ("mix\"of\\all\nthree", "mix\\\"of\\\\all\\nthree"),
        ] {
            set("disq_escape_gauge", "help", &[("worker", raw)], 1.0);
            let text = render();
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
            reset();
        }
    }

    #[test]
    fn non_finite_values_render_spec_forms() {
        let _guard = lock();
        reset();
        set("disq_nan_gauge", "help", &[], f64::NAN);
        set("disq_inf_gauge", "help", &[], f64::INFINITY);
        let text = render();
        assert!(text.contains("disq_nan_gauge NaN"), "{text}");
        assert!(text.contains("disq_inf_gauge +Inf"), "{text}");
        reset();
    }
}
