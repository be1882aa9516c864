//! Linear support vector machine trained with Pegasos-style stochastic
//! subgradient descent on the hinge loss — the third surrogate family the
//! paper's attacker uses (§4).

use crate::kernel;
use crate::matrix::FeatureMatrix;
use crate::metrics::operating_threshold;
use crate::model::{Classifier, Dataset};
use crate::scale::Standardizer;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training hyperparameters for [`LinearSvm`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvmConfig {
    /// Passes over the training set.
    pub epochs: u32,
    /// Regularization strength λ (Pegasos step sizes are 1/(λ·t)).
    pub lambda: f64,
    /// Shuffling seed.
    pub seed: u64,
    /// Reweight samples inversely to class frequency.
    pub balance_classes: bool,
}

impl Default for SvmConfig {
    fn default() -> SvmConfig {
        SvmConfig {
            epochs: 60,
            lambda: 1e-4,
            seed: 0x5f3c,
            balance_classes: true,
        }
    }
}

/// A trained linear SVM.
///
/// Scores are signed margins; the operating threshold maximizes training
/// accuracy.
///
/// # Examples
///
/// ```
/// use rhmd_ml::svm::{LinearSvm, SvmConfig};
/// use rhmd_ml::model::{Classifier, Dataset};
///
/// let data = Dataset::from_flat(
///     1,
///     vec![-1.0, -0.8, 0.8, 1.0],
///     vec![false, false, true, true],
/// );
/// let svm = LinearSvm::fit(&SvmConfig::default(), &data);
/// assert!(svm.predict(&[0.9]));
/// assert!(!svm.predict(&[-0.9]));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearSvm {
    scaler: Standardizer,
    weights: Vec<f64>,
    bias: f64,
    threshold: f64,
}

impl LinearSvm {
    /// Trains with the Pegasos subgradient method.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(config: &SvmConfig, data: &Dataset) -> LinearSvm {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let scaler = Standardizer::fit(data);
        let scaled = scaler.transform_dataset(data);
        let dims = scaled.dims();
        let n = scaled.len();
        let (pos, neg) = (scaled.positives().max(1), scaled.negatives().max(1));
        let (wt_pos, wt_neg) = if config.balance_classes {
            (n as f64 / (2.0 * pos as f64), n as f64 / (2.0 * neg as f64))
        } else {
            (1.0, 1.0)
        };

        let mut weights = vec![0.0; dims];
        let mut bias = 0.0;
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut t = 0u64;
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                t += 1;
                let eta = 1.0 / (config.lambda * t as f64);
                let row = scaled.row(i);
                let y = if scaled.labels()[i] { 1.0 } else { -1.0 };
                let sample_weight = if scaled.labels()[i] { wt_pos } else { wt_neg };
                let margin: f64 =
                    y * (bias + weights.iter().zip(row).map(|(w, x)| w * x).sum::<f64>());
                // Regularization shrink.
                let shrink = 1.0 - (eta * config.lambda).min(0.999);
                for w in &mut weights {
                    *w *= shrink;
                }
                if margin < 1.0 {
                    let step = eta * y * sample_weight;
                    for (w, &x) in weights.iter_mut().zip(row) {
                        *w += step * x;
                    }
                    bias += step * 0.1; // unregularized bias, damped
                }
            }
        }

        let mut model = LinearSvm {
            scaler,
            weights,
            bias,
            threshold: 0.0,
        };
        let mut scores = vec![0.0; data.len()];
        model.score_batch(data.matrix(), &mut scores);
        model.threshold = operating_threshold(&scores, data.labels());
        model
    }

    /// Internal parts for post-training quantization:
    /// `(scaler, weights, bias)`.
    pub(crate) fn parts(&self) -> (&Standardizer, &[f64], f64) {
        (&self.scaler, &self.weights, self.bias)
    }

    /// The decision weights in raw feature space, as `(weights, bias)` —
    /// directly analogous to [`crate::linear::LogisticRegression::input_space_weights`].
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
}

impl Classifier for LinearSvm {
    fn score(&self, x: &[f64]) -> f64 {
        self.bias + kernel::dot_standardized(&self.weights, x, self.scaler.mean(), self.scaler.std())
    }

    fn score_batch(&self, xs: &FeatureMatrix, out: &mut [f64]) {
        // Fused standardize-and-margin sweep, same kernel as `score`.
        assert_eq!(xs.len(), out.len(), "output length must match row count");
        let (mean, std) = (self.scaler.mean(), self.scaler.std());
        for (slot, row) in out.iter_mut().zip(xs.rows()) {
            *slot = self.bias + kernel::dot_standardized(&self.weights, row, mean, std);
        }
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn algorithm(&self) -> &'static str {
        "SVM"
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

    fn blobs(n: usize, sep: f64, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut d = Dataset::new(2);
        for i in 0..n {
            let malware = i % 2 == 0;
            let c = if malware { sep } else { -sep };
            d.push(
                vec![c + rng.gen::<f64>() - 0.5, c + rng.gen::<f64>() - 0.5],
                malware,
            );
        }
        d
    }

    #[test]
    fn separable_data_is_learned() {
        let data = blobs(200, 1.0, 1);
        let svm = LinearSvm::fit(&SvmConfig::default(), &data);
        let acc = data
            .iter()
            .filter(|(row, label)| svm.predict(row) == *label)
            .count() as f64
            / data.len() as f64;
        assert!(acc > 0.98, "acc {acc}");
    }

    #[test]
    fn margins_have_correct_sign() {
        let data = blobs(200, 1.5, 2);
        let svm = LinearSvm::fit(&SvmConfig::default(), &data);
        assert!(svm.score(&[2.0, 2.0]) > svm.score(&[-2.0, -2.0]));
    }

    #[test]
    fn training_is_deterministic() {
        let data = blobs(100, 0.5, 3);
        assert_eq!(
            LinearSvm::fit(&SvmConfig::default(), &data),
            LinearSvm::fit(&SvmConfig::default(), &data)
        );
    }

    #[test]
    fn input_space_weights_reproduce_scores() {
        let data = blobs(100, 0.8, 4);
        let svm = LinearSvm::fit(&SvmConfig::default(), &data);
        let (w, b) = svm.input_space_weights();
        for (row, _) in data.iter() {
            let margin: f64 = b + w.iter().zip(row).map(|(wi, xi)| wi * xi).sum::<f64>();
            assert!((margin - svm.score(row)).abs() < 1e-9);
        }
    }
}
