//! Golden exposition: the Prometheus text of a fixed summary, captured
//! from the encoder that predates the table-declared counters and
//! timers, must come out byte for byte the same — every family name,
//! help string, type line, value and bucket boundary.
//!
//! One test per binary: the counters are process-global, and the
//! summary below is the delta of this test's own increments.

use disq_trace::{count_n, prometheus_text, record_timer, summary, Counter, Timer};
use std::time::Duration;

const FIXTURE: &str = include_str!("fixtures/prometheus.txt");

/// Every counter gets a distinct value; two timers get samples spread
/// over several log₂ buckets, the rest stay empty (and unexposed).
fn fixed_exposition() -> String {
    let before = summary();
    for (i, c) in Counter::ALL.into_iter().enumerate() {
        count_n(c, 3 * i as u64 + 1);
    }
    for ns in [0, 7, 100, 100, 2_000, 1 << 20] {
        record_timer(Timer::CholeskyFactorize, Duration::from_nanos(ns));
    }
    for ns in [15, 16, 17, 5_000_000_000] {
        record_timer(Timer::CandidateScore, Duration::from_nanos(ns));
    }
    prometheus_text(&summary().delta_since(&before))
}

#[test]
fn exposition_matches_the_golden_fixture() {
    let text = fixed_exposition();
    assert_eq!(text, FIXTURE, "exposition drifted from the golden fixture");
}
