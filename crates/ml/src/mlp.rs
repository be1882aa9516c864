//! Multi-layer perceptron — the paper's non-linear detector (§4): one hidden
//! layer with as many neurons as input features, `tanh` activations, sigmoid
//! output.

use crate::kernel;
use crate::matrix::FeatureMatrix;
use crate::metrics::operating_threshold;
use crate::model::{Classifier, Dataset};
use crate::scale::Standardizer;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Borrowed internals handed to the quantizer: `(scaler, w1, b1, w2, b2)`.
pub(crate) type MlpParts<'a> = (&'a Standardizer, &'a [Vec<f64>], &'a [f64], &'a [f64], f64);

/// Training hyperparameters for [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Passes over the training set.
    pub epochs: u32,
    /// Initial SGD step size (decays as 1/(1 + epoch)).
    pub learning_rate: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Weight-initialization and shuffling seed.
    pub seed: u64,
    /// Reweight samples inversely to class frequency.
    pub balance_classes: bool,
    /// Hidden-layer width override; `None` = number of input features
    /// (the paper's architecture).
    pub hidden: Option<usize>,
}

impl Default for MlpConfig {
    fn default() -> MlpConfig {
        MlpConfig {
            epochs: 300,
            learning_rate: 0.08,
            momentum: 0.95,
            l2: 1e-4,
            seed: 0x0de1,
            balance_classes: true,
            hidden: None,
        }
    }
}

/// A trained one-hidden-layer perceptron detector.
///
/// # Examples
///
/// ```
/// use rhmd_ml::mlp::{Mlp, MlpConfig};
/// use rhmd_ml::model::{Classifier, Dataset};
///
/// // XOR-like data that no linear model can fit.
/// let data = Dataset::from_flat(
///     2,
///     vec![0., 0., 1., 1., 0., 1., 1., 0.],
///     vec![false, false, true, true],
/// );
/// let nn = Mlp::fit(&MlpConfig { epochs: 400, ..MlpConfig::default() }, &data);
/// assert!(nn.predict(&[0.9, 0.1]));
/// assert!(!nn.predict(&[0.95, 0.9]));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    scaler: Standardizer,
    /// `hidden × input` weights.
    w1: Vec<Vec<f64>>,
    b1: Vec<f64>,
    /// `hidden` output weights.
    w2: Vec<f64>,
    b2: f64,
    threshold: f64,
}

/// Per-class sample weights: inverse class frequency when
/// `balance_classes` is on, else 1.
fn class_weights(config: &MlpConfig, data: &Dataset) -> (f64, f64) {
    let n = data.len() as f64;
    let (pos, neg) = (data.positives().max(1), data.negatives().max(1));
    if config.balance_classes {
        (n / (2.0 * pos as f64), n / (2.0 * neg as f64))
    } else {
        (1.0, 1.0)
    }
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

/// Trained weights, nested as [`Mlp`] stores them: `(w1, b1, w2, b2)`.
type Layers = (Vec<Vec<f64>>, Vec<f64>, Vec<f64>, f64);

/// Per-sample SGD with momentum over already-standardized rows.
///
/// Runs [`train_portable`] built for AVX2 when the CPU has it, and the
/// baseline build otherwise. Both builds compile the same source, so their
/// weights are bit-identical: see `train_avx2`.
fn train(config: &MlpConfig, scaled: &Dataset) -> Layers {
    #[cfg(target_arch = "x86_64")]
    {
        if kernel::simd::avx2_active() {
            // SAFETY: AVX2 support was just checked.
            return unsafe { train_avx2(config, scaled) };
        }
    }
    train_portable(config, scaled)
}

/// [`train_portable`] compiled with AVX2 enabled, so its element-wise loops
/// over hidden units run four `f64` lanes wide instead of SSE2's two.
///
/// Only `avx2` is enabled, never `fma`, and Rust never contracts a multiply
/// and an add into one, so every lane performs the same IEEE operations in
/// the same order as the baseline build; the `sum` reductions stay
/// sequential. No intrinsics are involved.
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn train_avx2(config: &MlpConfig, scaled: &Dataset) -> Layers {
    train_portable(config, scaled)
}

/// The trainer body behind [`train`], inlined into each build of it.
///
/// Training runs on flat, input-major copies of the hidden layer:
/// `w1t[d * hidden + h]` holds `w1[h][d]`, with a momentum buffer of the
/// same shape. The forward pass sweeps inputs in order and accumulates every
/// hidden unit at once, and the backward pass updates one contiguous row per
/// input, so both loops vectorise across hidden units. Each unit still sums
/// its inputs in input order and no reduction is reordered, so the weights
/// are bit-identical to a per-unit nested loop; the nested `w1` is rebuilt
/// once after the last epoch.
#[inline(always)]
fn train_portable(config: &MlpConfig, scaled: &Dataset) -> Layers {
    let dims = scaled.dims();
    let hidden = config.hidden.unwrap_or(dims).max(2);
    let (wt_pos, wt_neg) = class_weights(config, scaled);

    let mut rng = SmallRng::seed_from_u64(config.seed);
    // Drawn unit by unit (`h` then `d`), the order the nested layout
    // consumes the stream in.
    let xavier = (1.0 / dims.max(1) as f64).sqrt();
    let mut w1t = vec![0.0; dims * hidden];
    for h in 0..hidden {
        for d in 0..dims {
            w1t[d * hidden + h] = (rng.gen::<f64>() - 0.5) * 2.0 * xavier;
        }
    }
    let mut b1 = vec![0.0; hidden];
    let hx = (1.0 / hidden as f64).sqrt();
    let mut w2: Vec<f64> = (0..hidden).map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * hx).collect();
    let mut b2 = 0.0;

    // Momentum buffers.
    let mut v1t = vec![0.0; dims * hidden];
    let mut vb1 = vec![0.0; hidden];
    let mut v2 = vec![0.0; hidden];
    let mut vb2 = 0.0;

    let (momentum, l2) = (config.momentum, config.l2);
    let mut order: Vec<usize> = (0..scaled.len()).collect();
    let mut act = vec![0.0; hidden];
    let mut delta = vec![0.0; hidden];
    for epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let lr = config.learning_rate / (1.0 + 0.02 * f64::from(epoch));
        for &i in &order {
            let row = scaled.row(i);
            let y = f64::from(u8::from(scaled.labels()[i]));
            let sample_weight = if scaled.labels()[i] { wt_pos } else { wt_neg };

            // Forward. `Iterator::sum::<f64>` starts from -0.0, so the
            // per-unit accumulators do too.
            act.fill(-0.0);
            for (&x, w_row) in row.iter().zip(w1t.chunks_exact(hidden)) {
                for (a, &w) in act.iter_mut().zip(w_row) {
                    *a += w * x;
                }
            }
            for (a, &b) in act.iter_mut().zip(&b1) {
                *a = (b + *a).tanh();
            }
            let out = sigmoid(b2 + w2.iter().zip(&act).map(|(w, a)| w * a).sum::<f64>());

            // Backward: every hidden delta reads `w2` before it moves.
            let delta_out = (out - y) * sample_weight;
            for (((dh, w), v), &a) in delta.iter_mut().zip(&mut w2).zip(&mut v2).zip(&act) {
                *dh = delta_out * *w * (1.0 - a * a);
                *v = momentum * *v - lr * (delta_out * a + l2 * *w);
                *w += *v;
            }
            for (&x, (w_row, v_row)) in
                row.iter().zip(w1t.chunks_exact_mut(hidden).zip(v1t.chunks_exact_mut(hidden)))
            {
                for ((w, v), &dh) in w_row.iter_mut().zip(v_row.iter_mut()).zip(&delta) {
                    *v = momentum * *v - lr * (dh * x + l2 * *w);
                    *w += *v;
                }
            }
            for ((b, v), &dh) in b1.iter_mut().zip(&mut vb1).zip(&delta) {
                *v = momentum * *v - lr * dh;
                *b += *v;
            }
            vb2 = momentum * vb2 - lr * delta_out;
            b2 += vb2;
        }
    }

    let w1 = (0..hidden)
        .map(|h| (0..dims).map(|d| w1t[d * hidden + h]).collect())
        .collect();
    (w1, b1, w2, b2)
}

impl Mlp {
    /// Trains with backpropagation (SGD + momentum).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(config: &MlpConfig, data: &Dataset) -> Mlp {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let scaler = Standardizer::fit(data);
        let (w1, b1, w2, b2) = train(config, &scaler.transform_dataset(data));
        Mlp::with_operating_threshold(scaler, w1, b1, w2, b2, data)
    }

    /// Assembles a trained network and picks its operating threshold on the
    /// (raw) training data.
    fn with_operating_threshold(
        scaler: Standardizer,
        w1: Vec<Vec<f64>>,
        b1: Vec<f64>,
        w2: Vec<f64>,
        b2: f64,
        data: &Dataset,
    ) -> Mlp {
        let mut model = Mlp {
            scaler,
            w1,
            b1,
            w2,
            b2,
            threshold: 0.0, // picked on the training scores below
        };
        let mut scores = vec![0.0; data.len()];
        model.score_batch(data.matrix(), &mut scores);
        model.threshold = operating_threshold(&scores, data.labels());
        model
    }

    /// Hidden-layer width.
    pub fn hidden_units(&self) -> usize {
        self.w2.len()
    }

    /// The gradient of the network's score with respect to the *raw* input
    /// features, evaluated at `x`.
    ///
    /// This is the local, exact version of the paper's weight-collapsing
    /// heuristic: collapsing sums `w1·w2` ignoring each hidden unit's
    /// activation regime, while the gradient weights unit `h` by its local
    /// slope `1 - tanh²(z_h)`. Evasion payloads built from the gradient at a
    /// malware centroid transfer much better against non-linear victims.
    pub fn input_gradient(&self, x: &[f64]) -> Vec<f64> {
        let z = self.scaler.transform(x);
        let dims = self.scaler.dims();
        let mut grad = vec![0.0; dims];
        for ((w, b), &wout) in self.w1.iter().zip(&self.b1).zip(&self.w2) {
            let pre: f64 = b + w.iter().zip(&z).map(|(wi, xi)| wi * xi).sum::<f64>();
            let slope = 1.0 - pre.tanh() * pre.tanh();
            for (g, &wi) in grad.iter_mut().zip(w) {
                *g += wout * slope * wi;
            }
        }
        for (g, &s) in grad.iter_mut().zip(self.scaler.std()) {
            *g /= s;
        }
        grad
    }

    /// Collapses the network into one per-input weight vector using the
    /// paper's heuristic (§5): the weight of input `j` is
    /// `Σ_i w1[i][j] · w2[i]`, summed over all hidden neurons. Returned in
    /// *raw feature space* (scaling folded in), so evasion strategies can
    /// treat it exactly like an LR weight vector — approximately, since the
    /// true surface is non-linear.
    pub fn collapsed_input_weights(&self) -> Vec<f64> {
        let dims = self.scaler.dims();
        let mut w = vec![0.0; dims];
        for (row, &wout) in self.w1.iter().zip(&self.w2) {
            for (acc, &wi) in w.iter_mut().zip(row) {
                *acc += wi * wout;
            }
        }
        for (acc, &s) in w.iter_mut().zip(self.scaler.std()) {
            *acc /= s;
        }
        w
    }

    /// Internal parts for post-training quantization:
    /// `(scaler, w1, b1, w2, b2)`.
    pub(crate) fn parts(&self) -> MlpParts<'_> {
        (&self.scaler, &self.w1, &self.b1, &self.w2, self.b2)
    }

    /// Forward pass on an already-standardized row: hidden `tanh` layer
    /// then sigmoid output. Both `score` and `score_batch` funnel through
    /// here, so the two are bit-identical.
    fn score_standardized(&self, z: &[f64]) -> f64 {
        let mut sum = self.b2;
        for ((w, b), &wout) in self.w1.iter().zip(&self.b1).zip(&self.w2) {
            let a = b + kernel::dot(w, z);
            sum += wout * a.tanh();
        }
        sigmoid(sum)
    }
}

impl Classifier for Mlp {
    fn score(&self, x: &[f64]) -> f64 {
        let mut z = Vec::with_capacity(x.len());
        self.scaler.transform_into(x, &mut z);
        self.score_standardized(&z)
    }

    fn score_batch(&self, xs: &FeatureMatrix, out: &mut [f64]) {
        // Batched hidden-layer GEMV: one scratch standardization buffer
        // reused across every row instead of an allocation per row.
        assert_eq!(xs.len(), out.len(), "output length must match row count");
        let mut z = Vec::with_capacity(xs.dims());
        for (slot, row) in out.iter_mut().zip(xs.rows()) {
            self.scaler.transform_into(row, &mut z);
            *slot = self.score_standardized(&z);
        }
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn algorithm(&self) -> &'static str {
        "NN"
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

    /// The trainer before the flat rewrite, kept as the differential
    /// oracle for [`train`]: per-sample SGD over nested `hidden × input`
    /// weights, one hidden unit at a time, each unit's forward sum an
    /// `Iterator::sum`.
    fn train_nested(config: &MlpConfig, scaled: &Dataset) -> Layers {
        let dims = scaled.dims();
        let hidden = config.hidden.unwrap_or(dims).max(2);
        let (wt_pos, wt_neg) = class_weights(config, scaled);

        let mut rng = SmallRng::seed_from_u64(config.seed);
        let xavier = (1.0 / dims.max(1) as f64).sqrt();
        let mut w1: Vec<Vec<f64>> = (0..hidden)
            .map(|_| (0..dims).map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * xavier).collect())
            .collect();
        let mut b1 = vec![0.0; hidden];
        let hx = (1.0 / hidden as f64).sqrt();
        let mut w2: Vec<f64> = (0..hidden).map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * hx).collect();
        let mut b2 = 0.0;

        let mut v1 = vec![vec![0.0; dims]; hidden];
        let mut vb1 = vec![0.0; hidden];
        let mut v2 = vec![0.0; hidden];
        let mut vb2 = 0.0;

        let mut order: Vec<usize> = (0..scaled.len()).collect();
        let mut act = vec![0.0; hidden];
        for epoch in 0..config.epochs {
            order.shuffle(&mut rng);
            let lr = config.learning_rate / (1.0 + 0.02 * f64::from(epoch));
            for &i in &order {
                let row = scaled.row(i);
                let y = f64::from(u8::from(scaled.labels()[i]));
                let sample_weight = if scaled.labels()[i] { wt_pos } else { wt_neg };

                for (a, (w, b)) in act.iter_mut().zip(w1.iter().zip(&b1)) {
                    let z: f64 = b + w.iter().zip(row).map(|(wi, xi)| wi * xi).sum::<f64>();
                    *a = z.tanh();
                }
                let out = sigmoid(b2 + w2.iter().zip(&act).map(|(w, a)| w * a).sum::<f64>());

                let delta_out = (out - y) * sample_weight;
                for h in 0..hidden {
                    let grad2 = delta_out * act[h] + config.l2 * w2[h];
                    v2[h] = config.momentum * v2[h] - lr * grad2;
                    let delta_h = delta_out * w2[h] * (1.0 - act[h] * act[h]);
                    for d in 0..dims {
                        let grad1 = delta_h * row[d] + config.l2 * w1[h][d];
                        v1[h][d] = config.momentum * v1[h][d] - lr * grad1;
                        w1[h][d] += v1[h][d];
                    }
                    vb1[h] = config.momentum * vb1[h] - lr * delta_h;
                    b1[h] += vb1[h];
                    w2[h] += v2[h];
                }
                vb2 = config.momentum * vb2 - lr * delta_out;
                b2 += vb2;
            }
        }
        (w1, b1, w2, b2)
    }

    type Trainer = fn(&MlpConfig, &Dataset) -> Layers;

    /// `Mlp::fit` with the SGD step and the standardizer swapped in.
    fn fit_with(
        train: Trainer,
        scaler: Standardizer,
        config: &MlpConfig,
        data: &Dataset,
    ) -> Mlp {
        let (w1, b1, w2, b2) = train(config, &scaler.transform_dataset(data));
        Mlp::with_operating_threshold(scaler, w1, b1, w2, b2, data)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn assert_bit_identical(flat: &Mlp, nested: &Mlp, case: &str) {
        assert_eq!(flat.w1.len(), nested.w1.len(), "{case}: hidden width");
        for (h, (a, b)) in flat.w1.iter().zip(&nested.w1).enumerate() {
            assert_eq!(bits(a), bits(b), "{case}: w1[{h}]");
        }
        assert_eq!(bits(&flat.b1), bits(&nested.b1), "{case}: b1");
        assert_eq!(bits(&flat.w2), bits(&nested.w2), "{case}: w2");
        assert_eq!(flat.b2.to_bits(), nested.b2.to_bits(), "{case}: b2");
        assert_eq!(flat.threshold.to_bits(), nested.threshold.to_bits(), "{case}: threshold");
    }

    /// The shapes of training data the differential test covers.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// Informative first column, roughly balanced classes.
        Balanced,
        /// One malware row among `n`.
        OneMalware,
        /// As `Balanced`, with the last column constant.
        ConstantColumn,
        /// As `Balanced`, with the last column at or past
        /// ±[`Standardizer::CLAMP`] in every row. A fitted standardizer
        /// never puts finite training data there (|z| ≤ √n), so this shape
        /// trains behind the identity standardizer, whose transform clamps.
        Clamped,
    }

    fn shaped_data(shape: Shape, dims: usize, n: usize, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut d = Dataset::new(dims);
        for i in 0..n {
            let malware = match shape {
                Shape::OneMalware => i == n / 2,
                _ => rng.gen::<bool>(),
            };
            let mut row: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>() * 10.0).collect();
            row[0] += if malware { 4.0 } else { 0.0 };
            match shape {
                Shape::ConstantColumn => row[dims - 1] = 3.25,
                Shape::Clamped => {
                    let magnitude = [1.0, 10.0, 1e200][i % 3] * Standardizer::CLAMP;
                    row[dims - 1] = if rng.gen::<bool>() { magnitude } else { -magnitude };
                }
                _ => {}
            }
            d.push(row, malware);
        }
        d
    }

    /// Every build of the flat trainer this CPU can run equals the nested
    /// oracle bit for bit, and the dispatching `train` equals the portable
    /// build.
    #[test]
    fn flat_trainer_matches_nested_oracle_bit_for_bit() {
        let shapes = [Shape::Balanced, Shape::OneMalware, Shape::ConstantColumn, Shape::Clamped];
        for dims in [1, 2, 3, 5, 16, 17] {
            for hidden in [None, Some(1), Some(7), Some(33)] {
                for balance_classes in [true, false] {
                    for (k, shape) in shapes.into_iter().enumerate() {
                        let data = shaped_data(shape, dims, 40, (dims * 131 + k) as u64);
                        let config = MlpConfig {
                            epochs: 6,
                            hidden,
                            balance_classes,
                            seed: dims as u64 ^ 0x5eed,
                            ..MlpConfig::default()
                        };
                        let case = format!(
                            "dims {dims}, hidden {hidden:?}, balance {balance_classes}, {shape:?}"
                        );
                        let scaler = match shape {
                            Shape::Clamped => Standardizer::identity(dims),
                            _ => Standardizer::fit(&data),
                        };
                        let fit = |train: Trainer| fit_with(train, scaler.clone(), &config, &data);
                        let nested = fit(train_nested);
                        let portable = fit(train_portable);
                        assert_bit_identical(&portable, &nested, &format!("portable, {case}"));
                        #[cfg(target_arch = "x86_64")]
                        if kernel::simd::avx2_active() {
                            // SAFETY: AVX2 support was just checked.
                            let avx2 = fit(|c, d| unsafe { train_avx2(c, d) });
                            assert_bit_identical(&avx2, &nested, &format!("avx2, {case}"));
                        }
                        assert_bit_identical(&fit(train), &portable, &format!("dispatch, {case}"));
                        if !matches!(shape, Shape::Clamped) {
                            let fitted = Mlp::fit(&config, &data);
                            assert_bit_identical(&fitted, &nested, &format!("fit, {case}"));
                        }
                    }
                }
            }
        }
    }

    fn xor_data(n: usize, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut d = Dataset::new(2);
        for _ in 0..n {
            let a = rng.gen::<bool>();
            let b = rng.gen::<bool>();
            let x = f64::from(u8::from(a)) + (rng.gen::<f64>() - 0.5) * 0.3;
            let y = f64::from(u8::from(b)) + (rng.gen::<f64>() - 0.5) * 0.3;
            d.push(vec![x, y], a != b);
        }
        d
    }

    #[test]
    fn learns_nonlinear_boundary() {
        let data = xor_data(400, 1);
        let nn = Mlp::fit(
            &MlpConfig {
                epochs: 200,
                hidden: Some(8),
                ..MlpConfig::default()
            },
            &data,
        );
        let acc = data
            .iter()
            .filter(|(row, label)| nn.predict(row) == *label)
            .count() as f64
            / data.len() as f64;
        assert!(acc > 0.95, "acc {acc}");
    }

    #[test]
    fn default_hidden_width_equals_input_dims() {
        let data = xor_data(50, 2);
        let nn = Mlp::fit(&MlpConfig { epochs: 5, ..MlpConfig::default() }, &data);
        assert_eq!(nn.hidden_units(), 2);
    }

    #[test]
    fn training_is_deterministic() {
        let data = xor_data(100, 3);
        let cfg = MlpConfig { epochs: 20, ..MlpConfig::default() };
        assert_eq!(Mlp::fit(&cfg, &data), Mlp::fit(&cfg, &data));
    }

    #[test]
    fn scores_are_probabilities() {
        let data = xor_data(100, 4);
        let nn = Mlp::fit(&MlpConfig { epochs: 20, ..MlpConfig::default() }, &data);
        for (row, _) in data.iter() {
            let s = nn.score(row);
            assert!((0.0..=1.0).contains(&s), "score {s}");
        }
    }

    #[test]
    fn collapsed_weights_have_input_dims() {
        let data = xor_data(100, 5);
        let nn = Mlp::fit(&MlpConfig { epochs: 10, ..MlpConfig::default() }, &data);
        assert_eq!(nn.collapsed_input_weights().len(), 2);
    }

    #[test]
    fn collapsed_weights_track_linear_signal() {
        // One informative dimension: collapsed weight should be positive for
        // the malware-increasing feature.
        let mut rng = SmallRng::seed_from_u64(6);
        let mut d = Dataset::new(2);
        for _ in 0..300 {
            let malware = rng.gen::<bool>();
            let x = if malware { 1.0 } else { 0.0 } + (rng.gen::<f64>() - 0.5) * 0.4;
            let noise = rng.gen::<f64>();
            d.push(vec![x, noise], malware);
        }
        let nn = Mlp::fit(&MlpConfig { epochs: 60, ..MlpConfig::default() }, &d);
        let w = nn.collapsed_input_weights();
        assert!(
            w[0] > w[1].abs(),
            "informative weight {} vs noise {}",
            w[0],
            w[1]
        );
    }
}
