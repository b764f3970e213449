//! Order statistics shared by every workload: medians, quartiles, the
//! "highest percentile with at least ten samples beyond it" rule, and
//! per-window rates.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when a timing's tail is reported.
pub const TAIL_CANDIDATES: [f64; 4] = [0.99, 0.95, 0.90, 0.50];

/// Sorts a copy of `xs` (total order, so NaN cannot panic the sort).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`; `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Mean of `xs`; `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// First, second and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(xs, n=4)`, which the acceptance
/// spread check uses. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n as f64 + 1.0;
    let mut out = [0.0; 3];
    for (j, q) in out.iter_mut().enumerate() {
        let pos = m * (j + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        *q = v[lo - 1] + (v[lo] - v[lo - 1]) * frac;
    }
    Some(out)
}

/// Nearest-rank percentile `q` of already sorted samples, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The tail of a timing: the highest of [`TAIL_CANDIDATES`] at or below
/// `preferred` that the sample supports, as `(percentile, value)`.
pub fn tail(sorted: &[f64], preferred: f64) -> Option<(f64, f64)> {
    TAIL_CANDIDATES
        .iter()
        .filter(|&&q| q <= preferred)
        .find_map(|&q| percentile(sorted, q).map(|v| (q, v)))
}

/// Completions per full `window`-second window: `done` holds completion
/// times in seconds since the start of a run that lasted `total`
/// seconds. A trailing partial window is dropped.
pub fn window_rates(done: &[f64], window: f64, total: f64) -> Vec<f64> {
    let full = (total / window).floor() as usize;
    let mut counts = vec![0.0; full];
    for &t in done {
        let w = (t / window).floor();
        if w >= 0.0 && (w as usize) < full {
            counts[w as usize] += 1.0;
        }
    }
    counts.iter().map(|c| c / window).collect()
}

/// `median m (quartiles q1..q3 of n)` for printing a set of rates.
pub fn spread(xs: &[f64]) -> String {
    match quartiles(xs) {
        Some([q1, q2, q3]) => format!(
            "median {q2:.1} (quartiles {q1:.1}..{q3:.1} of {})",
            xs.len()
        ),
        None => format!("{:.1} (1 sample)", median(xs)),
    }
}

/// A timing summary as printed: median, tail and sample count.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Samples behind the summary.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Percentile the tail was taken at.
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

impl Timing {
    /// Summarizes `xs` with the tail taken at `preferred` or the highest
    /// percentile below it that the sample supports. `None` when not even
    /// the median has ten samples beyond it.
    pub fn of(xs: &[f64], preferred: f64) -> Option<Timing> {
        let v = sorted(xs);
        let (tail_q, tail) = tail(&v, preferred)?;
        Some(Timing {
            n: v.len(),
            p50: median(&v),
            tail_q,
            tail,
        })
    }

    /// `p50 <v>, p<q> <v> (n=<n>)` with values in `unit`.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.1} {unit}, p{} {:.1} {unit} (n={})",
            self.p50,
            self.tail_q * 100.0,
            self.tail,
            self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs[..999], 0.99), None, "only 9 beyond");
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_steps_down_to_a_supported_percentile() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // p99 has 2 beyond and is refused; p95 has exactly 10.
        assert_eq!(tail(&xs, 0.99), Some((0.95, 190.0)));
        assert_eq!(tail(&xs, 0.90), Some((0.90, 180.0)));
        assert_eq!(tail(&xs[..5], 0.99), None);
        assert!(Timing::of(&xs[..5], 0.99).is_none());
        let t = Timing::of(&xs, 0.99).unwrap();
        assert_eq!((t.n, t.p50, t.tail_q), (200, 100.5, 0.95));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&xs), "median 5.5 (quartiles 2.8..8.2 of 10)");
    }

    #[test]
    fn window_rates_drop_the_partial_window() {
        let done = [0.1, 0.2, 0.9, 1.5, 2.2, 2.3];
        assert_eq!(window_rates(&done, 1.0, 2.5), vec![3.0, 1.0]);
        assert_eq!(window_rates(&done, 0.5, 1.0), vec![4.0, 2.0]);
        assert!(window_rates(&done, 1.0, 0.5).is_empty());
    }
}
