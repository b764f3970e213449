//! Seeded inputs and the open-loop ladder rule: seed derivation, the
//! Zipf attribute mix, Poisson arrival schedules, and the pass/fail
//! rule of one ladder step.

use crate::stats;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Derives an independent sub-seed from the workload seed (SplitMix64
/// finalizer over `seed ^ tag`), so every stream of a run is a pure
/// function of `--seed`.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded generator for the stream named by `tag`.
pub fn rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, tag))
}

/// Draws a rank in `0..n` with Zipf(s = 1) weights `1/(rank+1)`.
pub fn zipf(rng: &mut StdRng, n: usize) -> usize {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut u = rng.random::<f64>() * total;
    for r in 0..n {
        u -= 1.0 / (r + 1) as f64;
        if u <= 0.0 {
            return r;
        }
    }
    n - 1
}

/// Poisson arrival offsets (seconds) at `rate` per second: exactly `n`
/// arrivals when `n` is given, else every arrival before `horizon`.
pub fn poisson(rng: &mut StdRng, rate: f64, n: Option<usize>, horizon: f64) -> Vec<f64> {
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.random::<f64>()).ln() / rate;
        let done = match n {
            Some(n) => due.len() == n,
            None => t >= horizon,
        };
        if done {
            return due;
        }
        due.push(t);
    }
}

/// `n` Poisson arrivals conditioned to fall within `(0, horizon)`: the
/// gaps of `n + 1` exponential draws, scaled so that they sum to
/// `horizon`. The schedule keeps Poisson's burstiness but always spans
/// the same time, so its length does not vary with the seed.
pub fn poisson_within(rng: &mut StdRng, n: usize, horizon: f64) -> Vec<f64> {
    let mut due = poisson(rng, 1.0, Some(n + 1), 0.0);
    let scale = horizon / due.pop().expect("n + 1 arrivals");
    due.iter_mut().for_each(|t| *t *= scale);
    due
}

/// What one ladder step observed.
#[derive(Debug, Clone, Default)]
pub struct StepStats {
    /// Offered rate (requests per second).
    pub rate: f64,
    /// Nominal seconds of schedule: scheduled requests over the rate.
    pub send_s: f64,
    /// Requests the schedule held.
    pub scheduled: usize,
    /// Latency from due time (µs) of every request answered with 200.
    pub latencies_us: Vec<f64>,
    /// Round trip from send (µs) of every request answered with 200:
    /// the latency without the generator's own queueing.
    pub round_trips_us: Vec<f64>,
    /// How late each sent request left the client (µs after due).
    pub lateness_us: Vec<f64>,
    /// Lateness of the last requests the step sent (µs).
    pub late_end_us: f64,
    /// Requests never sent because the grace period ran out.
    pub abandoned: usize,
    /// Requests answered with a non-200 or lost to a transport error.
    pub failed: usize,
}

impl StepStats {
    /// Latencies with every abandoned or failed request counted as a
    /// miss of any limit (+∞), sorted.
    pub fn latencies_with_misses(&self) -> Vec<f64> {
        let mut v = self.latencies_us.clone();
        v.extend(std::iter::repeat_n(
            f64::INFINITY,
            self.abandoned + self.failed,
        ));
        stats::sorted(&v)
    }

    /// Requests answered within `slo_us` of their due time.
    pub fn within(&self, slo_us: f64) -> usize {
        self.latencies_us.iter().filter(|&&l| l <= slo_us).count()
    }

    /// Answers per second of schedule that met `slo_us`.
    pub fn goodput(&self, slo_us: f64) -> f64 {
        self.within(slo_us) as f64 / self.send_s
    }

    /// Share of the schedule that was answered at all.
    pub fn achieved_ratio(&self) -> f64 {
        self.latencies_us.len() as f64 / self.scheduled.max(1) as f64
    }

    /// The step's tail: the highest supported percentile up to p99 of
    /// the latencies with misses, as `(percentile, µs)`.
    pub fn tail(&self) -> Option<(f64, f64)> {
        stats::tail(&self.latencies_with_misses(), 0.99)
    }

    /// The ladder rule: a step passes when nothing was abandoned or
    /// failed, its tail is within `slo_us`, and the generator was no
    /// more than `slo_us` late at the end of the step (no growing
    /// backlog). A step too small to support a tail of at least p90
    /// fails.
    pub fn passes(&self, slo_us: f64) -> bool {
        self.abandoned == 0
            && self.failed == 0
            && self.late_end_us <= slo_us
            && matches!(self.tail(), Some((q, t)) if q >= 0.90 && t <= slo_us)
    }
}

/// The highest rate whose step passes, or 0 when none does.
pub fn max_passing_rate(steps: &[StepStats], slo_us: f64) -> f64 {
    steps
        .iter()
        .filter(|s| s.passes(slo_us))
        .map(|s| s.rate)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedules_repeat_and_differ_by_seed() {
        let a = poisson(&mut rng(7, 1), 100.0, Some(500), 0.0);
        let b = poisson(&mut rng(7, 1), 100.0, Some(500), 0.0);
        let c = poisson(&mut rng(8, 1), 100.0, Some(500), 0.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals increase");
        // 500 arrivals at 100/s take about 5 s.
        assert!((a[499] - 5.0).abs() < 1.0, "{}", a[499]);
        let w = poisson_within(&mut rng(7, 1), 500, 5.0);
        assert_eq!(w.len(), 500);
        assert!(w.windows(2).all(|p| p[0] < p[1]) && w[0] > 0.0 && w[499] < 5.0);
        assert_eq!(w, poisson_within(&mut rng(7, 1), 500, 5.0));
        let h = poisson(&mut rng(7, 2), 400.0, None, 2.0);
        assert!(h.iter().all(|&t| t < 2.0));
        assert!((h.len() as f64 - 800.0).abs() < 120.0, "{}", h.len());

        let draw = |seed| {
            let mut r = rng(seed, 3);
            (0..2000).map(|_| zipf(&mut r, 4)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let mut counts = [0usize; 4];
        for r in draw(5) {
            counts[r] += 1;
        }
        // Zipf(1) over 4 ranks: 48%, 24%, 16%, 12%.
        assert!(counts[0] > counts[1] && counts[1] > counts[2] && counts[2] > counts[3]);
        assert!(
            (counts[0] as f64 / 2000.0 - 0.48).abs() < 0.04,
            "{counts:?}"
        );
        assert_ne!(mix(1, 2), mix(2, 1));
    }

    fn step(latencies: Vec<f64>) -> StepStats {
        StepStats {
            rate: 100.0,
            send_s: 1.0,
            scheduled: latencies.len(),
            lateness_us: vec![0.0; latencies.len()],
            latencies_us: latencies,
            ..StepStats::default()
        }
    }

    #[test]
    fn ladder_rule_flags_slo_breach_backlog_and_misses() {
        let slo = 10_000.0;
        let fast = step(vec![500.0; 1000]);
        assert!(fast.passes(slo));

        // 2% slow: p99 lands on a slow request.
        let mut lat = vec![500.0; 980];
        lat.extend(vec![20_000.0; 20]);
        assert!(!step(lat).passes(slo), "SLO breach");

        let mut backlog = fast.clone();
        backlog.late_end_us = 15_000.0;
        assert!(!backlog.passes(slo), "growing backlog");

        let mut abandoned = fast.clone();
        abandoned.abandoned = 1;
        assert!(!abandoned.passes(slo), "abandoned requests are misses");
        // Misses count as +inf in the tail: 20 abandoned of 1000 break p99.
        let mut missing = step(vec![500.0; 980]);
        missing.scheduled = 1000;
        missing.abandoned = 20;
        assert_eq!(missing.tail(), Some((0.99, f64::INFINITY)));
        assert_eq!(missing.achieved_ratio(), 0.98);

        assert!(!step(vec![500.0; 5]).passes(slo), "too few samples");
        assert!(
            !step(vec![500.0; 60]).passes(slo),
            "a p50 tail judges nothing"
        );

        let mut fast_high = fast.clone();
        fast_high.rate = 400.0;
        let steps = [fast.clone(), fast_high, backlog];
        assert_eq!(max_passing_rate(&steps, slo), 400.0);
        assert_eq!(max_passing_rate(&steps[2..], slo), 0.0);
        assert_eq!(fast.goodput(slo), 1000.0);
    }
}
