//! Logistic regression — the paper's low-complexity, hardware-friendly
//! baseline detector (§4).

use crate::kernel;
use crate::matrix::FeatureMatrix;
use crate::metrics::operating_threshold;
use crate::model::{Classifier, Dataset};
use crate::scale::Standardizer;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training hyperparameters for [`LogisticRegression`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LrConfig {
    /// Passes over the training set.
    pub epochs: u32,
    /// Initial SGD step size (decays as 1/(1 + epoch)).
    pub learning_rate: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Shuffling seed.
    pub seed: u64,
    /// Reweight samples inversely to class frequency.
    pub balance_classes: bool,
}

impl Default for LrConfig {
    fn default() -> LrConfig {
        LrConfig {
            epochs: 60,
            learning_rate: 0.1,
            l2: 1e-4,
            seed: 0x1e57,
            balance_classes: true,
        }
    }
}

/// A trained logistic-regression detector.
///
/// Scores are probabilities in `[0, 1]`; the operating threshold maximizes
/// training accuracy. Standardization is baked in: callers always pass raw
/// feature vectors.
///
/// # Examples
///
/// ```
/// use rhmd_ml::linear::{LogisticRegression, LrConfig};
/// use rhmd_ml::model::{Classifier, Dataset};
///
/// let data = Dataset::from_flat(
///     1,
///     vec![0.0, 0.1, 0.9, 1.0],
///     vec![false, false, true, true],
/// );
/// let lr = LogisticRegression::fit(&LrConfig::default(), &data);
/// assert!(lr.predict(&[0.95]));
/// assert!(!lr.predict(&[0.05]));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegression {
    scaler: Standardizer,
    weights: Vec<f64>,
    bias: f64,
    threshold: f64,
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl LogisticRegression {
    /// Trains with SGD on the log-loss.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(config: &LrConfig, data: &Dataset) -> LogisticRegression {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let scaler = Standardizer::fit(data);
        let scaled = scaler.transform_dataset(data);
        let dims = scaled.dims();
        let n = scaled.len();
        let (pos, neg) = (scaled.positives().max(1), scaled.negatives().max(1));
        let (w_pos, w_neg) = if config.balance_classes {
            (n as f64 / (2.0 * pos as f64), n as f64 / (2.0 * neg as f64))
        } else {
            (1.0, 1.0)
        };

        let mut weights = vec![0.0; dims];
        let mut bias = 0.0;
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        for epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            let lr = config.learning_rate / (1.0 + 0.05 * f64::from(epoch));
            for &i in &order {
                let row = scaled.row(i);
                let y = f64::from(u8::from(scaled.labels()[i]));
                let sample_weight = if scaled.labels()[i] { w_pos } else { w_neg };
                let z: f64 = bias + weights.iter().zip(row).map(|(w, x)| w * x).sum::<f64>();
                let err = (sigmoid(z) - y) * sample_weight;
                for (w, &x) in weights.iter_mut().zip(row) {
                    *w -= lr * (err * x + config.l2 * *w);
                }
                bias -= lr * err;
            }
        }

        let mut model = LogisticRegression {
            scaler,
            weights,
            bias,
            threshold: 0.5,
        };
        let mut scores = vec![0.0; data.len()];
        model.score_batch(data.matrix(), &mut scores);
        model.threshold = operating_threshold(&scores, data.labels());
        model
    }

    /// The decision weights in *raw feature space*, as `(weights, bias)`.
    ///
    /// This is the vector θ the paper's evasion strategies read: feature `i`
    /// with a negative weight pushes the score toward "benign", so injecting
    /// instructions that raise feature `i` moves malware across the boundary
    /// (paper §5).
    pub fn input_space_weights(&self) -> (Vec<f64>, f64) {
        let mut raw = Vec::with_capacity(self.weights.len());
        let mut bias = self.bias;
        for ((&w, &m), &s) in self
            .weights
            .iter()
            .zip(self.scaler.mean())
            .zip(self.scaler.std())
        {
            raw.push(w / s);
            bias -= w * m / s;
        }
        (raw, bias)
    }

    /// Internal parts for post-training quantization:
    /// `(scaler, weights, bias)`.
    pub(crate) fn parts(&self) -> (&Standardizer, &[f64], f64) {
        (&self.scaler, &self.weights, self.bias)
    }
}

impl Classifier for LogisticRegression {
    fn score(&self, x: &[f64]) -> f64 {
        let dot = kernel::dot_standardized(&self.weights, x, self.scaler.mean(), self.scaler.std());
        sigmoid(self.bias + dot)
    }

    fn score_batch(&self, xs: &FeatureMatrix, out: &mut [f64]) {
        // One fused standardize-and-dot sweep per row over the flat matrix:
        // no scratch vector, no per-row virtual dispatch. Same kernel as
        // `score`, so the two paths are bit-identical.
        assert_eq!(xs.len(), out.len(), "output length must match row count");
        let (mean, std) = (self.scaler.mean(), self.scaler.std());
        for (slot, row) in out.iter_mut().zip(xs.rows()) {
            *slot = sigmoid(self.bias + kernel::dot_standardized(&self.weights, row, mean, std));
        }
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn algorithm(&self) -> &'static str {
        "LR"
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
    use rand::Rng;

    fn gaussian_blobs(n: usize, sep: f64, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut d = Dataset::new(2);
        for i in 0..n {
            let malware = i % 2 == 0;
            let center = if malware { sep } else { -sep };
            let x = center + rng.gen::<f64>() - 0.5;
            let y = center + rng.gen::<f64>() - 0.5;
            d.push(vec![x, y], malware);
        }
        d
    }

    #[test]
    fn separable_blobs_are_learned() {
        let data = gaussian_blobs(200, 1.0, 1);
        let lr = LogisticRegression::fit(&LrConfig::default(), &data);
        let correct = data
            .iter()
            .filter(|(row, label)| lr.predict(row) == *label)
            .count();
        assert!(correct as f64 / data.len() as f64 > 0.98);
    }

    #[test]
    fn overlapping_blobs_are_imperfect_but_better_than_chance() {
        let data = gaussian_blobs(400, 0.15, 2);
        let lr = LogisticRegression::fit(&LrConfig::default(), &data);
        let acc = data
            .iter()
            .filter(|(row, label)| lr.predict(row) == *label)
            .count() as f64
            / data.len() as f64;
        assert!(acc > 0.6 && acc < 1.0, "acc {acc}");
    }

    #[test]
    fn scores_are_probabilities() {
        let data = gaussian_blobs(100, 1.0, 3);
        let lr = LogisticRegression::fit(&LrConfig::default(), &data);
        for (row, _) in data.iter() {
            let s = lr.score(row);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn input_space_weights_reproduce_scores() {
        let data = gaussian_blobs(100, 0.8, 4);
        let lr = LogisticRegression::fit(&LrConfig::default(), &data);
        let (w, b) = lr.input_space_weights();
        for (row, _) in data.iter() {
            let logit: f64 = b + w.iter().zip(row).map(|(wi, xi)| wi * xi).sum::<f64>();
            assert!((sigmoid(logit) - lr.score(row)).abs() < 1e-9);
        }
    }

    #[test]
    fn training_is_deterministic() {
        let data = gaussian_blobs(100, 0.5, 5);
        let a = LogisticRegression::fit(&LrConfig::default(), &data);
        let b = LogisticRegression::fit(&LrConfig::default(), &data);
        assert_eq!(a, b);
    }

    #[test]
    fn class_imbalance_is_handled() {
        // 90% benign: an unbalanced fit would predict everything benign.
        let mut rng = SmallRng::seed_from_u64(6);
        let mut d = Dataset::new(1);
        for i in 0..300 {
            let malware = i % 10 == 0;
            let x = if malware { 0.7 } else { 0.0 } + rng.gen::<f64>() * 0.5;
            d.push(vec![x], malware);
        }
        let lr = LogisticRegression::fit(&LrConfig::default(), &d);
        let c = crate::metrics::Confusion::from_predictions(
            &crate::model::predict_all(&lr, &d),
            d.labels(),
        );
        assert!(c.sensitivity() > 0.7, "sensitivity {}", c.sensitivity());
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(sigmoid(1000.0), 1.0);
        assert_eq!(sigmoid(-1000.0), 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }
}
