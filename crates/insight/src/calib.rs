//! Err(b) calibration: how honest is the Eq. 2 error model?
//!
//! Every `query_audit` ledger the bench runner emits carries, for one
//! query target, the *predicted* plan error
//! `Err(b) = Var(a_t) − S_oᵀ(S_a + Diag(S_c/b))⁻¹S_o` beside the
//! regression's training MSE and the *realized* per-object MSE on the
//! held-out evaluation objects. This module scores the ledgers that
//! [`crate::explain`] folds: Pearson correlation between predicted and
//! realized, mean bias, and the worst-calibrated samples (the
//! attributes the model lies about most).

use crate::explain::QueryExplain;
use crate::report::fmt_f64;
use crate::table::{Align, Table};

/// Relative miss of a ledger's prediction: `(realized − predicted) /
/// realized`, the signed fraction of realized error the model failed to
/// anticipate. `None` when either side is non-finite or realized is
/// zero.
pub fn relative_miss(q: &QueryExplain) -> Option<f64> {
    if !q.predicted_mse.is_finite() || !q.realized_mse.is_finite() || q.realized_mse == 0.0 {
        return None;
    }
    Some((q.realized_mse - q.predicted_mse) / q.realized_mse)
}

/// The scored calibration report.
#[derive(Debug, Clone)]
pub struct CalibReport {
    /// Ledgers with finite predicted and realized values.
    pub scored: Vec<QueryExplain>,
    /// Ledgers dropped for non-finite values.
    pub unscored: usize,
    /// Pearson r between predicted and realized MSE.
    pub pearson_predicted: Option<f64>,
    /// Pearson r between training and realized MSE.
    pub pearson_training: Option<f64>,
    /// Mean of `realized − predicted` (positive = model optimistic).
    pub mean_bias: f64,
}

/// Worst offenders listed in the rendering.
pub const MAX_OFFENDERS: usize = 5;

impl CalibReport {
    /// Scores the ledgers of [`crate::ExplainReport::queries`].
    pub fn build(queries: &[QueryExplain]) -> CalibReport {
        let scored: Vec<QueryExplain> = queries
            .iter()
            .filter(|s| s.predicted_mse.is_finite() && s.realized_mse.is_finite())
            .cloned()
            .collect();
        let unscored = queries.len() - scored.len();
        let predicted: Vec<f64> = scored.iter().map(|s| s.predicted_mse).collect();
        let training: Vec<f64> = scored.iter().map(|s| s.training_mse).collect();
        let realized: Vec<f64> = scored.iter().map(|s| s.realized_mse).collect();
        let mean_bias = if scored.is_empty() {
            0.0
        } else {
            scored
                .iter()
                .map(|s| s.realized_mse - s.predicted_mse)
                .sum::<f64>()
                / scored.len() as f64
        };
        CalibReport {
            pearson_predicted: pearson(&predicted, &realized),
            pearson_training: pearson(&training, &realized),
            mean_bias,
            scored,
            unscored,
        }
    }

    /// The [`MAX_OFFENDERS`] scored samples with the largest absolute
    /// relative miss, worst first.
    pub fn worst_offenders(&self) -> Vec<&QueryExplain> {
        let mut with_miss: Vec<(&QueryExplain, f64)> = self
            .scored
            .iter()
            .filter_map(|s| relative_miss(s).map(|m| (s, m.abs())))
            .collect();
        with_miss.sort_by(|a, b| b.1.total_cmp(&a.1));
        with_miss
            .into_iter()
            .take(MAX_OFFENDERS)
            .map(|(s, _)| s)
            .collect()
    }

    /// Renders the calibration report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Err(b) calibration: {} scored sample(s), {} unscored (no trio)\n",
            self.scored.len(),
            self.unscored
        ));
        if self.scored.is_empty() {
            out.push_str(
                "no query_audit events found — run the bench harness \
                 with DISQ_TRACE set\n",
            );
            return out;
        }
        out.push_str(&format!(
            "pearson(predicted, realized) = {}\n",
            self.pearson_predicted.map_or("n/a".into(), fmt_f64)
        ));
        out.push_str(&format!(
            "pearson(training,  realized) = {}\n",
            self.pearson_training.map_or("n/a".into(), fmt_f64)
        ));
        out.push_str(&format!(
            "mean bias (realized - predicted) = {}\n",
            fmt_f64(self.mean_bias)
        ));

        out.push_str("\nsamples:\n");
        let mut t = Table::new(&[
            "cell",
            "seed",
            "target",
            "predicted",
            "training",
            "realized",
            "miss",
        ])
        .aligns(&[
            Align::Left,
            Align::Right,
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
        for s in &self.scored {
            t.row(vec![
                s.label.clone(),
                s.seed.to_string(),
                s.target.clone(),
                fmt_f64(s.predicted_mse),
                fmt_f64(s.training_mse),
                fmt_f64(s.realized_mse),
                relative_miss(s).map_or("n/a".into(), |m| format!("{:+.1}%", 100.0 * m)),
            ]);
        }
        out.push_str(&t.render());

        let worst = self.worst_offenders();
        if !worst.is_empty() {
            out.push_str("\nworst-calibrated targets:\n");
            let mut t = Table::new(&["cell", "target", "predicted", "realized", "miss"]).aligns(&[
                Align::Left,
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
            ]);
            for s in worst {
                t.row(vec![
                    s.label.clone(),
                    s.target.clone(),
                    fmt_f64(s.predicted_mse),
                    fmt_f64(s.realized_mse),
                    relative_miss(s).map_or("n/a".into(), |m| format!("{:+.1}%", 100.0 * m)),
                ]);
            }
            out.push_str(&t.render());
        }
        out
    }
}

/// Pearson correlation coefficient; `None` when fewer than two samples
/// or either side has zero variance.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(target: &str, predicted: f64, realized: f64) -> QueryExplain {
        QueryExplain {
            label: "pictures/Bmi/DisQ".into(),
            target: target.into(),
            n_objects: 150,
            predicted_mse: predicted,
            training_mse: predicted * 1.1,
            realized_mse: realized,
            ..QueryExplain::default()
        }
    }

    #[test]
    fn pearson_of_linear_data_is_one() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert!(pearson(&[1.0], &[2.0]).is_none());
        assert!(pearson(&[1.0, 1.0], &[2.0, 3.0]).is_none(), "zero variance");
        assert!(pearson(&[1.0, 2.0], &[5.0]).is_none(), "length mismatch");
    }

    #[test]
    fn nan_predictions_are_unscored_not_fatal() {
        let samples = vec![
            sample("Bmi", 4.0, 4.4),
            sample("Age", f64::NAN, 2.0),
            sample("Height", 1.0, 1.1),
        ];
        let report = CalibReport::build(&samples);
        assert_eq!(report.scored.len(), 2);
        assert_eq!(report.unscored, 1);
        assert!(report.pearson_predicted.is_some());
        let text = report.render();
        assert!(text.contains("2 scored sample(s), 1 unscored"), "{text}");
    }

    #[test]
    fn worst_offenders_ranked_by_relative_miss() {
        let samples = vec![
            sample("Good", 4.0, 4.1),   // ~2% miss
            sample("Bad", 1.0, 10.0),   // 90% miss
            sample("Worse", 20.0, 2.0), // -900% miss
        ];
        let report = CalibReport::build(&samples);
        let worst = report.worst_offenders();
        assert_eq!(worst[0].target, "Worse");
        assert_eq!(worst[1].target, "Bad");
        assert_eq!(worst[2].target, "Good");
    }

    #[test]
    fn empty_input_renders_hint() {
        let report = CalibReport::build(&[]);
        assert!(report.render().contains("DISQ_TRACE"));
    }
}
