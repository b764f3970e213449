//! Spam filtering.
//!
//! §2: "we assume … spam filters are employed to avoid malicious workers."
//! This is the classic robust-statistics filter used by crowd platforms:
//! answers further than `k` median-absolute-deviations from the batch
//! median are discarded before averaging. For small batches (< 4 answers)
//! there is not enough signal to call anything spam, so the batch passes
//! through unchanged.

/// The filter's decision statistics for one batch: what the cut was
/// centred on and how wide it was. NaN/NaN for small batches that pass
/// through unfiltered — no statistics were computed, so none are
/// reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpamStats {
    /// Batch median the acceptance window was centred on.
    pub median: f64,
    /// Scaled (×1.4826) median absolute deviation — the robust sd
    /// estimate; 0 when a majority answered identically.
    pub mad: f64,
}

/// Acceptance half-width in scaled MADs.
const K: f64 = 3.5;
/// 1.4826 rescales MAD to estimate a Gaussian sd.
const MAD_SCALE: f64 = 1.4826;

impl SpamStats {
    /// Replays the filter's verdict on one answer of a batch of `n`:
    /// true when [`filter_spam_into`] would have kept `x` given these
    /// statistics. Lets per-answer consumers (the worker ledger's
    /// accept/reject tallies) attribute each rejection without the
    /// filter having to report indices.
    pub fn keeps(&self, n: usize, x: f64) -> bool {
        if n < 4 {
            return true; // pass-through batch: nothing was filtered
        }
        if self.mad <= 0.0 {
            return x == self.median;
        }
        (x - self.median).abs() <= K * self.mad
    }
}

/// Removes outlier answers: keeps values within `k = 3.5` scaled MADs of
/// the median. The survivors replace the contents of `kept`, in their
/// original order; `scratch` is working space for the median
/// computations. Once both buffers have grown to the batch size the call
/// performs no heap allocation — this is the online estimation kernel's
/// steady-state path, and preprocessing aggregates its training rows the
/// same way. Returns the batch's [`SpamStats`] so audit trails can
/// record the decision.
pub fn filter_spam_into(answers: &[f64], scratch: &mut Vec<f64>, kept: &mut Vec<f64>) -> SpamStats {
    kept.clear();
    if answers.len() < 4 {
        kept.extend_from_slice(answers);
        return SpamStats {
            median: f64::NAN,
            mad: f64::NAN,
        };
    }
    let med = median_via(answers.iter().copied(), scratch);
    let mad = median_via(answers.iter().map(|&x| (x - med).abs()), scratch) * MAD_SCALE;
    if mad <= 0.0 {
        // Majority answered identically; drop everything that differs.
        kept.extend(answers.iter().copied().filter(|&x| x == med));
        return SpamStats {
            median: med,
            mad: 0.0,
        };
    }
    kept.extend(
        answers
            .iter()
            .copied()
            .filter(|&x| (x - med).abs() <= K * mad),
    );
    SpamStats { median: med, mad }
}

/// Median of `xs`, sorted inside the reusable `scratch` buffer.
fn median_via(xs: impl Iterator<Item = f64>, scratch: &mut Vec<f64>) -> f64 {
    scratch.clear();
    scratch.extend(xs);
    // Unstable: in-place, no merge buffer (the stable sort allocates).
    scratch.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    let n = scratch.len();
    if n % 2 == 1 {
        scratch[n / 2]
    } else {
        0.5 * (scratch[n / 2 - 1] + scratch[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The survivors of one batch, in fresh buffers.
    fn filter_spam(answers: &[f64]) -> Vec<f64> {
        let mut kept = Vec::new();
        filter_spam_into(answers, &mut Vec::new(), &mut kept);
        kept
    }

    #[test]
    fn clean_batch_untouched() {
        let xs = vec![10.0, 11.0, 9.5, 10.5, 10.2];
        assert_eq!(filter_spam(&xs), xs);
    }

    #[test]
    fn obvious_outlier_removed() {
        let xs = vec![10.0, 11.0, 9.5, 10.5, 10.2, 500.0];
        let kept = filter_spam(&xs);
        assert_eq!(kept.len(), 5);
        assert!(!kept.contains(&500.0));
    }

    #[test]
    fn small_batches_pass_through() {
        let xs = vec![1.0, 1000.0, 2.0];
        assert_eq!(filter_spam(&xs), xs);
    }

    #[test]
    fn identical_majority_drops_dissenters() {
        let xs = vec![5.0, 5.0, 5.0, 5.0, 42.0];
        assert_eq!(filter_spam(&xs), vec![5.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn preserves_order() {
        let xs = vec![3.0, 1.0, 2.0, 2.5, 1.5];
        assert_eq!(filter_spam(&xs), xs);
    }

    #[test]
    fn empty_and_single() {
        assert!(filter_spam(&[]).is_empty());
        assert_eq!(filter_spam(&[7.0]), vec![7.0]);
    }

    #[test]
    fn two_sided_outliers() {
        let xs = vec![-100.0, 10.0, 10.5, 9.5, 10.2, 9.8, 120.0];
        let kept = filter_spam(&xs);
        assert_eq!(kept.len(), 5);
        assert!(kept.iter().all(|&x| (9.0..11.0).contains(&x)));
    }

    #[test]
    fn stats_report_the_decision_window() {
        let mut scratch = Vec::new();
        let mut kept = Vec::new();
        // Small batch: pass-through, no statistics.
        let stats = filter_spam_into(&[1.0, 1000.0, 2.0], &mut scratch, &mut kept);
        assert!(stats.median.is_nan() && stats.mad.is_nan());
        // Filtered batch: median and a positive robust sd.
        let stats = filter_spam_into(
            &[10.0, 11.0, 9.5, 10.5, 10.2, 500.0],
            &mut scratch,
            &mut kept,
        );
        assert_eq!(stats.median, 10.35);
        assert!(stats.mad > 0.0);
        assert_eq!(kept.len(), 5);
        // Identical majority: mad collapses to 0.
        let stats = filter_spam_into(&[5.0, 5.0, 5.0, 5.0, 42.0], &mut scratch, &mut kept);
        assert_eq!(stats.median, 5.0);
        assert_eq!(stats.mad, 0.0);
    }

    /// `SpamStats::keeps` replays exactly the verdicts the filter made.
    #[test]
    fn keeps_replays_filter_verdicts() {
        let mut scratch = Vec::new();
        let mut kept = Vec::new();
        for xs in [
            vec![10.0, 11.0, 9.5, 10.5, 10.2, 500.0],
            vec![5.0, 5.0, 5.0, 5.0, 42.0],
            vec![1.0, 1000.0, 2.0],
            vec![-100.0, 10.0, 10.5, 9.5, 10.2, 9.8, 120.0],
        ] {
            let stats = filter_spam_into(&xs, &mut scratch, &mut kept);
            let replayed: Vec<f64> = xs
                .iter()
                .copied()
                .filter(|&x| stats.keeps(xs.len(), x))
                .collect();
            assert_eq!(replayed, kept, "batch {xs:?}");
        }
    }

    #[test]
    fn filtering_improves_average() {
        let truth = 10.0;
        let xs = vec![9.8, 10.1, 10.2, 9.9, 10.0, 300.0];
        let raw_avg = xs.iter().sum::<f64>() / xs.len() as f64;
        let kept = filter_spam(&xs);
        let filtered_avg = kept.iter().sum::<f64>() / kept.len() as f64;
        assert!((filtered_avg - truth).abs() < (raw_avg - truth).abs());
    }
}
