//! Unsupervised anomaly detection — the Tang et al. style detector the
//! paper's related work discusses (§9.1): model *normal* program behaviour
//! only, and flag deviations from the baseline execution model.

use crate::metrics::operating_threshold;
use crate::model::{Classifier, Dataset};
use serde::{Deserialize, Serialize};

/// Training hyperparameters for [`GaussianAnomaly`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnomalyConfig {
    /// Fraction of the benign training windows allowed to score above the
    /// operating threshold (the detector's design false-positive budget).
    pub fp_budget: f64,
    /// Variance floor, guarding constant dimensions.
    pub var_floor: f64,
}

impl Default for AnomalyConfig {
    fn default() -> AnomalyConfig {
        AnomalyConfig {
            fp_budget: 0.10,
            var_floor: 1e-9,
        }
    }
}

/// A diagonal-Gaussian one-class detector: scores are mean squared
/// standardized deviations from the benign profile, thresholded at the
/// benign quantile implied by the false-positive budget.
///
/// # Examples
///
/// ```
/// use rhmd_ml::anomaly::{AnomalyConfig, GaussianAnomaly};
/// use rhmd_ml::model::Classifier;
///
/// let benign: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i % 10) / 10.0]).collect();
/// let detector = GaussianAnomaly::fit(&AnomalyConfig::default(), &benign);
/// assert!(detector.predict(&[25.0])); // far outside the benign range
/// assert!(!detector.predict(&[0.5]));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaussianAnomaly {
    mean: Vec<f64>,
    inv_var: Vec<f64>,
    threshold: f64,
}

impl GaussianAnomaly {
    /// Fits the benign profile on normal-program windows only.
    ///
    /// # Panics
    ///
    /// Panics if `benign_rows` is empty or ragged.
    pub fn fit(config: &AnomalyConfig, benign_rows: &[Vec<f64>]) -> GaussianAnomaly {
        assert!(!benign_rows.is_empty(), "need benign training windows");
        let dims = benign_rows[0].len();
        assert!(
            benign_rows.iter().all(|r| r.len() == dims),
            "rows must share dimensionality"
        );
        let n = benign_rows.len() as f64;
        let mut mean = vec![0.0; dims];
        for row in benign_rows {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; dims];
        for row in benign_rows {
            for ((s, &v), &m) in var.iter_mut().zip(row).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        let inv_var: Vec<f64> = var
            .into_iter()
            .map(|s| 1.0 / (s / n).max(config.var_floor))
            .collect();

        let mut model = GaussianAnomaly {
            mean,
            inv_var,
            threshold: 0.0,
        };
        // Threshold at the (1 - fp_budget) benign quantile.
        let mut scores: Vec<f64> = benign_rows.iter().map(|r| model.score(r)).collect();
        scores.sort_by(|a, b| a.total_cmp(b));
        let idx = (((1.0 - config.fp_budget) * scores.len() as f64) as usize)
            .min(scores.len() - 1);
        model.threshold = scores[idx];
        model
    }

    /// Re-thresholds the detector on labelled validation scores, matching
    /// the supervised detectors' accuracy-maximizing operating point.
    pub fn calibrate(&mut self, validation: &Dataset) {
        let mut scores = vec![0.0; validation.len()];
        self.score_batch(validation.matrix(), &mut scores);
        self.threshold = operating_threshold(&scores, validation.labels());
    }
}

impl Classifier for GaussianAnomaly {
    fn score(&self, x: &[f64]) -> f64 {
        let d = self.mean.len() as f64;
        self.mean
            .iter()
            .zip(&self.inv_var)
            .zip(x)
            .map(|((m, iv), v)| (v - m) * (v - m) * iv)
            .sum::<f64>()
            / d
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn algorithm(&self) -> &'static str {
        "ANOM"
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn benign_cluster(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| vec![rng.gen::<f64>(), 5.0 + rng.gen::<f64>()])
            .collect()
    }

    #[test]
    fn benign_scores_low_anomalies_high() {
        let benign = benign_cluster(500, 1);
        let d = GaussianAnomaly::fit(&AnomalyConfig::default(), &benign);
        assert!(d.score(&[0.5, 5.5]) < d.score(&[10.0, -3.0]));
        assert!(d.predict(&[10.0, -3.0]));
    }

    #[test]
    fn fp_budget_is_respected_on_training_data() {
        let benign = benign_cluster(1000, 2);
        let config = AnomalyConfig {
            fp_budget: 0.05,
            ..AnomalyConfig::default()
        };
        let d = GaussianAnomaly::fit(&config, &benign);
        let fp = benign.iter().filter(|r| d.predict(r)).count() as f64 / benign.len() as f64;
        assert!(fp <= 0.06, "fp rate {fp}");
    }

    #[test]
    fn calibration_moves_threshold() {
        let benign = benign_cluster(200, 3);
        let mut d = GaussianAnomaly::fit(&AnomalyConfig::default(), &benign);
        let mut validation = Dataset::new(2);
        for r in benign_cluster(50, 4) {
            validation.push(r, false);
        }
        for _ in 0..50 {
            validation.push(vec![20.0, 20.0], true);
        }
        d.calibrate(&validation);
        let correct = validation
            .iter()
            .filter(|(r, l)| d.predict(r) == *l)
            .count();
        assert!(correct as f64 / validation.len() as f64 > 0.9);
    }

    #[test]
    fn constant_dimension_does_not_explode() {
        let benign: Vec<Vec<f64>> = (0..100).map(|i| vec![1.0, f64::from(i)]).collect();
        let d = GaussianAnomaly::fit(&AnomalyConfig::default(), &benign);
        assert!(d.score(&[1.0, 50.0]).is_finite());
    }

    #[test]
    #[should_panic(expected = "benign training windows")]
    fn fit_requires_rows() {
        let _ = GaussianAnomaly::fit(&AnomalyConfig::default(), &[]);
    }
}
