//! Quantized scoring kernels with optional seeded stochastic rounding.
//!
//! Weights quantize to `int4`/`int8`/`int16` with one scale per tensor (per hidden
//! row for the MLP's first layer); standardized inputs quantize at inference
//! time with *per-feature* scales calibrated on the training data
//! (`s_x[j] = max|z_j| / qmax`). The accumulation runs in the same
//! four-accumulator order as every other kernel ([`crate::kernel::dot_i16`]),
//! so per-row and batched scoring stay bit-identical.
//!
//! Rounding is the defense axis: [`Rounding::Nearest`] is the plain
//! quantized detector, while [`Rounding::Stochastic`] reproduces the
//! Stochastic-HMDs hardening result in software — each input quantization
//! step rounds up or down with probability equal to the fractional part,
//! driven by a generator seeded from `(seed, row contents, feature index)`.
//! That derivation makes stochastic scores *byte-reproducible*: they depend
//! only on the row and the seed, never on scoring order or thread count,
//! so checkpoint resume and the thread-determinism CI diff hold unchanged.
//! To an attacker who cannot read the seed, however, the decision boundary
//! jitters per input — the paper-style reverse-engineering game measurably
//! degrades (see the "Stochastic defense" table in EXPERIMENTS.md).

use crate::kernel;
use crate::linear::LogisticRegression;
use crate::matrix::FeatureMatrix;
use crate::metrics::operating_threshold;
use crate::mlp::Mlp;
use crate::model::{Classifier, Dataset};
use crate::scale::Standardizer;
use crate::svm::LinearSvm;
use crate::trainer::Algorithm;
use serde::{Deserialize, Serialize};

/// Quantization width for weights and inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuantBits {
    /// 4-bit: levels in `[-7, 7]`. Deliberately coarse: with 15 levels per
    /// feature, stochastic rounding moves inputs by whole percents of their
    /// range, which is what makes the rounding a *defense* — finer widths
    /// quantize so tightly that no decision ever flips.
    Int4,
    /// 8-bit: levels in `[-127, 127]`.
    Int8,
    /// 16-bit: levels in `[-32767, 32767]`.
    Int16,
}

impl QuantBits {
    /// Largest representable level (symmetric range).
    pub fn qmax(self) -> f64 {
        match self {
            QuantBits::Int4 => 7.0,
            QuantBits::Int8 => 127.0,
            QuantBits::Int16 => 32767.0,
        }
    }

    /// Short display name (`"int4"` / `"int8"` / `"int16"`).
    pub fn name(self) -> &'static str {
        match self {
            QuantBits::Int4 => "int4",
            QuantBits::Int8 => "int8",
            QuantBits::Int16 => "int16",
        }
    }
}

/// How inference-time input quantization rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Rounding {
    /// Deterministic round-to-nearest (error ≤ half a step per feature).
    Nearest,
    /// Seeded stochastic rounding (error < one step per feature): round up
    /// with probability equal to the fractional part. Deterministic given
    /// the seed and the row — scoring order and thread count never matter.
    Stochastic {
        /// Defender-private seed; an attacker who cannot read it sees a
        /// jittering decision boundary.
        seed: u64,
    },
}

impl Rounding {
    /// Worst-case rounding error in quantization steps (0.5 or 1.0).
    pub fn step_error(self) -> f64 {
        match self {
            Rounding::Nearest => 0.5,
            Rounding::Stochastic { .. } => 1.0,
        }
    }

    /// Short display name (`"nearest"` / `"stochastic"`).
    pub fn name(self) -> &'static str {
        match self {
            Rounding::Nearest => "nearest",
            Rounding::Stochastic { .. } => "stochastic",
        }
    }
}

/// Post-training quantization settings, carried by
/// [`crate::trainer::TrainerConfig::quant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuantConfig {
    /// Weight/input width.
    pub bits: QuantBits,
    /// Inference-time input rounding.
    pub rounding: Rounding,
}

impl QuantConfig {
    /// Nearest-rounded config at the given width.
    pub fn nearest(bits: QuantBits) -> QuantConfig {
        QuantConfig {
            bits,
            rounding: Rounding::Nearest,
        }
    }

    /// Stochastically-rounded config at the given width.
    pub fn stochastic(bits: QuantBits, seed: u64) -> QuantConfig {
        QuantConfig {
            bits,
            rounding: Rounding::Stochastic { seed },
        }
    }
}

/// splitmix64 finalizer — the repo's standard seed mixer.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes a raw feature row with the defender seed. This is the *only*
/// source of stochastic-rounding randomness, so rounding decisions are a
/// pure function of `(seed, row, feature index)`.
#[inline]
fn row_hash(seed: u64, x: &[f64]) -> u64 {
    let mut h = mix(seed);
    for &v in x {
        h = mix(h ^ v.to_bits());
    }
    h
}

/// Uniform draw in `[0, 1)` from 53 hash bits.
#[inline]
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
}

/// Stochastic rounding of an already-clamped level `t`: up with probability
/// `frac(t)`. Integer `t` (including the saturation levels ±qmax) always
/// maps to itself.
#[inline]
fn stochastic_round(t: f64, hash: u64, feature: usize) -> f64 {
    let floor = t.floor();
    let frac = t - floor;
    let u = unit(mix(hash ^ (feature as u64).wrapping_mul(0xa076_1d64_78bd_642f)));
    if frac > u {
        floor + 1.0
    } else {
        floor
    }
}

/// Per-tensor symmetric quantization of a weight vector (round-to-nearest;
/// the stochastic axis lives in inference-time input rounding, matching
/// Stochastic-HMDs' computation-level randomness).
fn quantize_tensor(w: &[f64], qmax: f64) -> (Vec<i16>, f64) {
    let max = w.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    if max == 0.0 || !max.is_finite() {
        return (vec![0; w.len()], 1.0);
    }
    let scale = max / qmax;
    let q = w
        .iter()
        .map(|&v| (v / scale).round().clamp(-qmax, qmax) as i16)
        .collect();
    (q, scale)
}

/// Per-feature input scales from the calibration set: `max|z_j| / qmax`,
/// so every training row quantizes without saturation. Constant features
/// (always `z = 0`) get a nominal scale.
fn calibrate_input_scales(scaler: &Standardizer, data: &Dataset, qmax: f64) -> Vec<f64> {
    let dims = scaler.dims();
    let mut max_abs = vec![0.0f64; dims];
    let mut z = Vec::with_capacity(dims);
    for row in data.rows() {
        scaler.transform_into(row, &mut z);
        for (m, &v) in max_abs.iter_mut().zip(&z) {
            *m = m.max(v.abs());
        }
    }
    max_abs
        .into_iter()
        .map(|m| if m > 0.0 { m / qmax } else { 1.0 / qmax })
        .collect()
}

/// Standardizes, quantizes, and dequantizes one raw row into `out`:
/// `out[j] = q_j · s_x[j]` with `q_j` the (possibly stochastic) rounding of
/// `clamp(z_j / s_x[j], ±qmax)`. Shared by the per-row and batch paths, so
/// the two are bit-identical.
fn dequantize_row(
    scaler: &Standardizer,
    x_scales: &[f64],
    config: QuantConfig,
    x: &[f64],
    out: &mut Vec<f64>,
) {
    assert_eq!(x.len(), scaler.dims(), "dimensionality mismatch");
    let qmax = config.bits.qmax();
    let hash = match config.rounding {
        Rounding::Nearest => None,
        Rounding::Stochastic { seed } => Some(row_hash(seed, x)),
    };
    out.clear();
    for (j, (((&v, &m), &s), &sx)) in x
        .iter()
        .zip(scaler.mean())
        .zip(scaler.std())
        .zip(x_scales)
        .enumerate()
    {
        let z = kernel::scalar::standardize_one(v, m, s);
        let t = (z / sx).clamp(-qmax, qmax);
        let q = match hash {
            None => t.round(),
            Some(h) => stochastic_round(t, h, j),
        };
        out.push(q * sx);
    }
}

/// Rigorous bound on `|z_j − ẑ_j|` for one feature: a rounding step while
/// the level is in range, the exact saturation overshoot beyond it.
#[inline]
fn input_error_bound(z: f64, sx: f64, qmax: f64, step_error: f64) -> f64 {
    let limit = qmax * sx;
    if z.abs() <= limit {
        sx * step_error
    } else {
        z.abs() - limit
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

/// A quantized linear detector (logistic regression or linear SVM).
///
/// Built post-training from an exact model plus a calibration set; the
/// operating threshold is re-picked on the calibration data so the
/// quantized score distribution keeps an accuracy-maximizing operating
/// point.
///
/// # Examples
///
/// ```
/// use rhmd_ml::linear::{LogisticRegression, LrConfig};
/// use rhmd_ml::model::{Classifier, Dataset};
/// use rhmd_ml::quant::{QuantBits, QuantConfig, QuantizedLinear};
///
/// let data = Dataset::from_flat(
///     1,
///     vec![0.0, 0.1, 0.9, 1.0],
///     vec![false, false, true, true],
/// );
/// let exact = LogisticRegression::fit(&LrConfig::default(), &data);
/// let quant = QuantizedLinear::from_lr(&exact, QuantConfig::nearest(QuantBits::Int16), &data);
/// let x = [0.95];
/// assert!((quant.score(&x) - exact.score(&x)).abs() <= quant.score_error_bound(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedLinear {
    scaler: Standardizer,
    qweights: Vec<i16>,
    w_scale: f64,
    x_scales: Vec<f64>,
    bias: f64,
    threshold: f64,
    config: QuantConfig,
    /// `true` for the LR family (sigmoid output), `false` for SVM margins.
    sigmoid: bool,
}

impl QuantizedLinear {
    fn build(
        scaler: Standardizer,
        weights: &[f64],
        bias: f64,
        sigmoid_output: bool,
        config: QuantConfig,
        calibration: &Dataset,
    ) -> QuantizedLinear {
        let qmax = config.bits.qmax();
        let (qweights, w_scale) = quantize_tensor(weights, qmax);
        let x_scales = calibrate_input_scales(&scaler, calibration, qmax);
        let mut model = QuantizedLinear {
            scaler,
            qweights,
            w_scale,
            x_scales,
            bias,
            threshold: 0.0, // picked on the calibration scores below
            config,
            sigmoid: sigmoid_output,
        };
        let mut scores = vec![0.0; calibration.len()];
        model.score_batch(calibration.matrix(), &mut scores);
        model.threshold = operating_threshold(&scores, calibration.labels());
        model
    }

    /// Quantizes a trained logistic regression, calibrating input scales
    /// and the threshold on `calibration` (normally the training set).
    pub fn from_lr(
        lr: &LogisticRegression,
        config: QuantConfig,
        calibration: &Dataset,
    ) -> QuantizedLinear {
        let (scaler, weights, bias) = lr.parts();
        QuantizedLinear::build(scaler.clone(), weights, bias, true, config, calibration)
    }

    /// Quantizes a trained linear SVM.
    pub fn from_svm(
        svm: &LinearSvm,
        config: QuantConfig,
        calibration: &Dataset,
    ) -> QuantizedLinear {
        let (scaler, weights, bias) = svm.parts();
        QuantizedLinear::build(scaler.clone(), weights, bias, false, config, calibration)
    }

    /// The quantization settings.
    pub fn config(&self) -> QuantConfig {
        self.config
    }

    /// The base family this model quantizes.
    pub fn base_algorithm(&self) -> Algorithm {
        if self.sigmoid {
            Algorithm::Lr
        } else {
            Algorithm::Svm
        }
    }

    /// Calibrated per-feature input scales.
    pub fn input_scales(&self) -> &[f64] {
        &self.x_scales
    }

    /// The standardize→quantize→dequantize image of a raw row (`ẑ`), for
    /// round-trip-error tests.
    pub fn dequantized_inputs(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(x.len());
        dequantize_row(&self.scaler, &self.x_scales, self.config, x, &mut out);
        out
    }

    fn margin(&self, x: &[f64], zq: &mut Vec<f64>) -> f64 {
        dequantize_row(&self.scaler, &self.x_scales, self.config, x, zq);
        self.bias + self.w_scale * kernel::dot_i16(&self.qweights, zq)
    }

    fn score_row(&self, x: &[f64], zq: &mut Vec<f64>) -> f64 {
        let m = self.margin(x, zq);
        if self.sigmoid {
            sigmoid(m)
        } else {
            m
        }
    }

    /// Rigorous (real-arithmetic) bound on the margin error vs the exact
    /// model: `Σ_j (|w̃_j| + s_w/2)·err_z(j) + |ẑ_j|·s_w/2`, where the
    /// input error per feature is a rounding step in range and the exact
    /// saturation overshoot beyond the calibration range.
    pub fn margin_error_bound(&self, x: &[f64]) -> f64 {
        let qmax = self.config.bits.qmax();
        let step = self.config.rounding.step_error();
        let half_sw = 0.5 * self.w_scale;
        let mut bound = 0.0f64;
        for (((&q, (&v, &m)), &s), &sx) in self
            .qweights
            .iter()
            .zip(x.iter().zip(self.scaler.mean()))
            .zip(self.scaler.std())
            .zip(&self.x_scales)
        {
            let z = kernel::scalar::standardize_one(v, m, s);
            let w_deq = self.w_scale * f64::from(q);
            let z_err = input_error_bound(z, sx, qmax, step);
            let z_deq_abs = z.abs().min(qmax * sx) + sx * step;
            bound += (w_deq.abs() + half_sw) * z_err + z_deq_abs * half_sw;
        }
        bound
    }

    /// Guaranteed bound on `|score(x) − exact.score(x)|`: the margin bound,
    /// through the sigmoid's 1/4 Lipschitz constant for the LR family.
    pub fn score_error_bound(&self, x: &[f64]) -> f64 {
        let bound = self.margin_error_bound(x);
        if self.sigmoid {
            0.25 * bound
        } else {
            bound
        }
    }
}

impl Classifier for QuantizedLinear {
    fn score(&self, x: &[f64]) -> f64 {
        let mut zq = Vec::with_capacity(x.len());
        self.score_row(x, &mut zq)
    }

    fn score_batch(&self, xs: &FeatureMatrix, out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "output length must match row count");
        let mut zq = Vec::with_capacity(xs.dims());
        for (slot, row) in out.iter_mut().zip(xs.rows()) {
            *slot = self.score_row(row, &mut zq);
        }
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn algorithm(&self) -> &'static str {
        if self.sigmoid {
            "LR"
        } else {
            "SVM"
        }
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A quantized one-hidden-layer perceptron: first-layer weights quantize
/// with one scale per hidden row (the dominant GEMV), inputs quantize with
/// the shared per-feature scales; the small second layer stays `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedMlp {
    scaler: Standardizer,
    q_w1: Vec<Vec<i16>>,
    w1_scales: Vec<f64>,
    b1: Vec<f64>,
    w2: Vec<f64>,
    b2: f64,
    x_scales: Vec<f64>,
    threshold: f64,
    config: QuantConfig,
}

impl QuantizedMlp {
    /// Quantizes a trained MLP, calibrating input scales and the threshold
    /// on `calibration` (normally the training set).
    pub fn from_mlp(nn: &Mlp, config: QuantConfig, calibration: &Dataset) -> QuantizedMlp {
        let (scaler, w1, b1, w2, b2) = nn.parts();
        let qmax = config.bits.qmax();
        let mut q_w1 = Vec::with_capacity(w1.len());
        let mut w1_scales = Vec::with_capacity(w1.len());
        for row in w1 {
            let (q, scale) = quantize_tensor(row, qmax);
            q_w1.push(q);
            w1_scales.push(scale);
        }
        let x_scales = calibrate_input_scales(scaler, calibration, qmax);
        let mut model = QuantizedMlp {
            scaler: scaler.clone(),
            q_w1,
            w1_scales,
            b1: b1.to_vec(),
            w2: w2.to_vec(),
            b2,
            x_scales,
            threshold: 0.0, // picked on the calibration scores below
            config,
        };
        let mut scores = vec![0.0; calibration.len()];
        model.score_batch(calibration.matrix(), &mut scores);
        model.threshold = operating_threshold(&scores, calibration.labels());
        model
    }

    /// The quantization settings.
    pub fn config(&self) -> QuantConfig {
        self.config
    }

    /// Calibrated per-feature input scales.
    pub fn input_scales(&self) -> &[f64] {
        &self.x_scales
    }

    fn score_row(&self, x: &[f64], zq: &mut Vec<f64>) -> f64 {
        dequantize_row(&self.scaler, &self.x_scales, self.config, x, zq);
        let mut sum = self.b2;
        for ((qw, &sw), (&b, &wout)) in self
            .q_w1
            .iter()
            .zip(&self.w1_scales)
            .zip(self.b1.iter().zip(&self.w2))
        {
            let a = b + sw * kernel::dot_i16(qw, zq);
            sum += wout * a.tanh();
        }
        sigmoid(sum)
    }

    /// Guaranteed bound on `|score(x) − exact.score(x)|`: per-hidden-unit
    /// pre-activation bounds through `tanh`'s unit Lipschitz constant, the
    /// output combination, and the sigmoid's 1/4.
    pub fn score_error_bound(&self, x: &[f64]) -> f64 {
        let qmax = self.config.bits.qmax();
        let step = self.config.rounding.step_error();
        let mut out_bound = 0.0f64;
        for ((qw, &sw), &wout) in self.q_w1.iter().zip(&self.w1_scales).zip(&self.w2) {
            let half_sw = 0.5 * sw;
            let mut hidden_bound = 0.0f64;
            for (((&q, (&v, &m)), &s), &sx) in qw
                .iter()
                .zip(x.iter().zip(self.scaler.mean()))
                .zip(self.scaler.std())
                .zip(&self.x_scales)
            {
                let z = kernel::scalar::standardize_one(v, m, s);
                let w_deq = sw * f64::from(q);
                let z_err = input_error_bound(z, sx, qmax, step);
                let z_deq_abs = z.abs().min(qmax * sx) + sx * step;
                hidden_bound += (w_deq.abs() + half_sw) * z_err + z_deq_abs * half_sw;
            }
            out_bound += wout.abs() * hidden_bound;
        }
        0.25 * out_bound
    }
}

impl Classifier for QuantizedMlp {
    fn score(&self, x: &[f64]) -> f64 {
        let mut zq = Vec::with_capacity(x.len());
        self.score_row(x, &mut zq)
    }

    fn score_batch(&self, xs: &FeatureMatrix, out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "output length must match row count");
        let mut zq = Vec::with_capacity(xs.dims());
        for (slot, row) in out.iter_mut().zip(xs.rows()) {
            *slot = self.score_row(row, &mut zq);
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
    use crate::linear::LrConfig;
    use crate::metrics::auc;
    use crate::mlp::MlpConfig;
    use crate::model::score_all;
    use crate::svm::SvmConfig;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn blobs(n: usize, sep: f64, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut d = Dataset::new(3);
        for i in 0..n {
            let malware = i % 2 == 0;
            let c = if malware { sep } else { -sep };
            d.push(
                vec![
                    c + rng.gen::<f64>() - 0.5,
                    c * 0.5 + rng.gen::<f64>() - 0.5,
                    rng.gen::<f64>(),
                ],
                malware,
            );
        }
        d
    }

    fn all_configs() -> Vec<QuantConfig> {
        vec![
            QuantConfig::nearest(QuantBits::Int4),
            QuantConfig::nearest(QuantBits::Int8),
            QuantConfig::nearest(QuantBits::Int16),
            QuantConfig::stochastic(QuantBits::Int4, 7),
            QuantConfig::stochastic(QuantBits::Int8, 7),
            QuantConfig::stochastic(QuantBits::Int16, 7),
        ]
    }

    #[test]
    fn round_trip_error_respects_per_feature_scale() {
        let data = blobs(200, 1.0, 1);
        let exact = LogisticRegression::fit(&LrConfig::default(), &data);
        for config in all_configs() {
            let q = QuantizedLinear::from_lr(&exact, config, &data);
            let step = config.rounding.step_error();
            let qmax = config.bits.qmax();
            for (row, _) in data.iter() {
                let z = q.scaler.transform(row);
                let zq = q.dequantized_inputs(row);
                for (j, ((&zj, &zqj), &sx)) in
                    z.iter().zip(&zq).zip(q.input_scales()).enumerate()
                {
                    let bound = input_error_bound(zj, sx, qmax, step);
                    assert!(
                        (zj - zqj).abs() <= bound + 1e-12,
                        "{:?} feature {j}: |{zj} - {zqj}| > {bound}",
                        config
                    );
                }
            }
        }
    }

    #[test]
    fn saturation_clamps_to_calibration_range() {
        let data = blobs(100, 1.0, 2);
        let q = QuantizedLinear::from_lr(
            &LogisticRegression::fit(&LrConfig::default(), &data),
            QuantConfig::nearest(QuantBits::Int8),
            &data,
        );
        // Far outside the calibration range in every feature.
        let ood = [1e9, -1e9, 1e9];
        let z = q.scaler.transform(&ood);
        let zq = q.dequantized_inputs(&ood);
        let qmax = QuantBits::Int8.qmax();
        for ((&zj, &zqj), &sx) in z.iter().zip(&zq).zip(q.input_scales()) {
            assert!(zj.abs() > qmax * sx, "input must actually saturate");
            assert_eq!(zqj.abs(), qmax * sx, "saturated level is exactly ±qmax·s_x");
            assert_eq!(zqj.signum(), zj.signum());
        }
    }

    #[test]
    fn linear_scores_stay_inside_the_error_envelope() {
        let data = blobs(200, 0.8, 3);
        let lr = LogisticRegression::fit(&LrConfig::default(), &data);
        let svm = LinearSvm::fit(&SvmConfig::default(), &data);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut queries: Vec<Vec<f64>> = data.rows().iter().map(<[f64]>::to_vec).collect();
        // Out-of-calibration queries exercise the saturation arm too.
        for _ in 0..50 {
            queries.push(vec![
                (rng.gen::<f64>() - 0.5) * 100.0,
                (rng.gen::<f64>() - 0.5) * 100.0,
                (rng.gen::<f64>() - 0.5) * 100.0,
            ]);
        }
        for config in all_configs() {
            let qlr = QuantizedLinear::from_lr(&lr, config, &data);
            let qsvm = QuantizedLinear::from_svm(&svm, config, &data);
            for x in &queries {
                let d_lr = (qlr.score(x) - lr.score(x)).abs();
                let b_lr = qlr.score_error_bound(x);
                assert!(d_lr <= b_lr + 1e-9, "{config:?} LR: {d_lr} > {b_lr}");
                let d_svm = (qsvm.score(x) - svm.score(x)).abs();
                let b_svm = qsvm.score_error_bound(x);
                assert!(d_svm <= b_svm + 1e-9, "{config:?} SVM: {d_svm} > {b_svm}");
            }
        }
    }

    #[test]
    fn mlp_scores_stay_inside_the_error_envelope() {
        let data = blobs(150, 0.8, 4);
        let nn = Mlp::fit(&MlpConfig { epochs: 30, ..MlpConfig::default() }, &data);
        for config in all_configs() {
            let qnn = QuantizedMlp::from_mlp(&nn, config, &data);
            for (row, _) in data.iter() {
                let d = (qnn.score(row) - nn.score(row)).abs();
                let b = qnn.score_error_bound(row);
                assert!(d <= b + 1e-9, "{config:?} NN: {d} > {b}");
            }
        }
    }

    #[test]
    fn narrower_widths_mean_coarser_grids() {
        let data = blobs(200, 0.8, 5);
        let lr = LogisticRegression::fit(&LrConfig::default(), &data);
        let err = |bits: QuantBits| -> f64 {
            let q = QuantizedLinear::from_lr(&lr, QuantConfig::nearest(bits), &data);
            data.iter().map(|(r, _)| (q.score(r) - lr.score(r)).abs()).sum()
        };
        let (e4, e8, e16) = (err(QuantBits::Int4), err(QuantBits::Int8), err(QuantBits::Int16));
        assert!(e16 < e8, "int16 {e16} vs int8 {e8}");
        assert!(e8 < e4, "int8 {e8} vs int4 {e4}");
    }

    #[test]
    fn stochastic_rounding_is_reproducible_and_order_independent() {
        let data = blobs(120, 0.8, 6);
        let lr = LogisticRegression::fit(&LrConfig::default(), &data);
        let q = QuantizedLinear::from_lr(
            &lr,
            QuantConfig::stochastic(QuantBits::Int8, 0xfeed),
            &data,
        );
        let forward = score_all(&q, &data);
        // Same rows scored in reverse order, one at a time: rounding depends
        // only on (seed, row, feature), never on scoring order.
        for i in (0..data.len()).rev() {
            assert_eq!(
                q.score(data.row(i)).to_bits(),
                forward[i].to_bits(),
                "row {i} drifted with scoring order"
            );
        }
        // And byte-stable across repeated batch passes.
        let again = score_all(&q, &data);
        assert!(forward.iter().zip(&again).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn different_seeds_round_differently_but_auc_holds() {
        let data = blobs(300, 0.8, 7);
        let test = blobs(300, 0.8, 8);
        let lr = LogisticRegression::fit(&LrConfig::default(), &data);
        let exact_auc = auc(&score_all(&lr, &test), test.labels());
        let mut distinct = false;
        let mut reference: Option<Vec<u64>> = None;
        for seed in [1u64, 2, 3] {
            let q = QuantizedLinear::from_lr(
                &lr,
                QuantConfig::stochastic(QuantBits::Int16, seed),
                &data,
            );
            let scores = score_all(&q, &test);
            let q_auc = auc(&scores, test.labels());
            assert!(
                (q_auc - exact_auc).abs() < 0.02,
                "seed {seed}: AUC {q_auc} vs exact {exact_auc}"
            );
            let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => distinct |= r != &bits,
            }
        }
        assert!(distinct, "different seeds must perturb at least one score");
    }

    #[test]
    fn quantized_models_round_trip_through_serde() {
        let data = blobs(100, 1.0, 10);
        let lr = LogisticRegression::fit(&LrConfig::default(), &data);
        let q = QuantizedLinear::from_lr(
            &lr,
            QuantConfig::stochastic(QuantBits::Int8, 42),
            &data,
        );
        let json = serde_json::to_string(&q).unwrap();
        let back: QuantizedLinear = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);
        for (row, _) in data.iter() {
            assert_eq!(q.score(row).to_bits(), back.score(row).to_bits());
        }
    }

    #[test]
    fn quantized_detectors_still_detect() {
        let data = blobs(300, 1.0, 11);
        for config in all_configs() {
            let q = QuantizedLinear::from_lr(
                &LogisticRegression::fit(&LrConfig::default(), &data),
                config,
                &data,
            );
            let acc = data.iter().filter(|(r, l)| q.predict(r) == *l).count() as f64
                / data.len() as f64;
            assert!(acc > 0.95, "{config:?}: accuracy {acc}");
        }
    }
}
