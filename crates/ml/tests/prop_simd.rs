//! Property-based proof of the SIMD-dispatch contract: the kernels in
//! [`rhmd_ml::kernel`], which pick the AVX2 lanes at run time when the CPU
//! has them, are **bit-identical** to the scalar reference on arbitrary
//! inputs — including NaN/Inf/subnormal values, non-lane-multiple
//! dimensionalities, and empty operands — and every classifier family's
//! batch scoring stays bit-identical to per-row scoring on top of them.
//! On a CPU without AVX2 both sides run the scalar kernels and the
//! comparison is trivially exact; the lanes may only change throughput,
//! never a single bit of output.

use proptest::prelude::*;
use rhmd_ml::kernel;
use rhmd_ml::matrix::FeatureMatrix;
use rhmd_ml::model::{Classifier, Dataset};
use rhmd_ml::quant::{QuantBits, QuantConfig, QuantizedLinear, QuantizedMlp};
use rhmd_ml::trainer::{train, Algorithm, TrainerConfig};

/// Finite-or-adversarial f64: mostly ordinary magnitudes, with NaN, the
/// infinities, huge counters, and subnormals mixed in — the value classes
/// the fused kernel's finite-guard and clamp have to route exactly like
/// [`kernel::scalar::standardize_one`].
fn any_value() -> impl Strategy<Value = f64> {
    // The vendored proptest has no `prop_oneof!`; pair an ordinary draw
    // with a selector and map indices 8..=15 onto the adversarial constants
    // (a 50/50 ordinary/adversarial mix).
    (0u8..=15, -1e4f64..1e4).prop_map(|(sel, v)| match sel {
        8 => f64::NAN,
        9 => f64::INFINITY,
        10 => f64::NEG_INFINITY,
        11 => 1e13,
        12 => -1e13,
        13 => 1e-310,
        14 => 0.0,
        15 => -0.0,
        _ => v,
    })
}

/// Finite-but-nasty f64 for the raw `dot` contract: huge counters,
/// subnormals, signed zeros. Non-finite values are excluded *by contract*:
/// raw `dot` only ever sees standardizer/dequantizer output in production
/// (both guarantee finiteness), and `-inf + inf` manufactures a fresh NaN
/// whose payload bits are an ISA detail of operand order that no summation
/// discipline can pin down.
fn finite_value() -> impl Strategy<Value = f64> {
    (0u8..=15, -1e4f64..1e4).prop_map(|(sel, v)| match sel {
        8 => 1e13,
        9 => -1e13,
        10 => 1e-310,
        11 => -1e-310,
        12 => 1e300,
        13 => -1e300,
        14 => 0.0,
        15 => -0.0,
        _ => v,
    })
}

/// Maximum dimensionality sampled below: the vendored proptest has no
/// `prop_flat_map` for dims-dependent shapes, so vectors are generated at
/// this fixed width and truncated to the sampled `dims`.
const MAX_DIMS: usize = 19;

/// Model parameters are always finite (fitters never emit NaN weights and
/// the standardizer floors its std), so `w`/`mean` stay ordinary and `std`
/// stays strictly positive.
fn kernel_operands(
    x_value: impl Strategy<Value = f64>,
) -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>)> {
    // dims covers 0, 1, lane-sized, lane+tail, and larger non-multiples of 4.
    (
        0usize..=MAX_DIMS,
        prop::collection::vec(-10.0f64..10.0, MAX_DIMS),
        prop::collection::vec(x_value, MAX_DIMS),
        prop::collection::vec(-100.0f64..100.0, MAX_DIMS),
        prop::collection::vec(0.5f64..50.0, MAX_DIMS),
    )
        .prop_map(|(dims, mut w, mut x, mut mean, mut std)| {
            w.truncate(dims);
            x.truncate(dims);
            mean.truncate(dims);
            std.truncate(dims);
            (w, x, mean, std)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dispatched `dot` is bit-identical to the scalar four-accumulator
    /// reference for every length, including the empty product, over its
    /// full production domain (finite inputs — see [`finite_value`]).
    #[test]
    fn dot_dispatch_is_bit_identical((w, x, _, _) in kernel_operands(finite_value())) {
        let a = kernel::scalar::dot(&w, &x);
        let b = kernel::dot(&w, &x);
        prop_assert_eq!(a.to_bits(), b.to_bits(), "scalar {a} vs dispatched {b}");
    }

    /// The dispatched fused standardize+dot is bit-identical to the scalar
    /// reference — NaN/Inf guards, OOD clamping, and summation order all
    /// preserved lane-for-lane.
    #[test]
    fn fused_dispatch_is_bit_identical((w, x, mean, std) in kernel_operands(any_value())) {
        let a = kernel::scalar::dot_standardized(&w, &x, &mean, &std);
        let b = kernel::dot_standardized(&w, &x, &mean, &std);
        prop_assert_eq!(a.to_bits(), b.to_bits(), "scalar {a} vs dispatched {b}");
    }

    /// Adversarial rows through every exact classifier family: batch
    /// scoring equals per-row scoring to the bit under whichever kernels
    /// this build dispatches to, including empty and single-row matrices.
    #[test]
    fn families_batch_bit_identical_on_adversarial_rows(
        dims in 1usize..=9,
        raw_rows in prop::collection::vec(prop::collection::vec(any_value(), 9), 0..6),
    ) {
        let data = training_set(dims);
        let mut xs = FeatureMatrix::new(dims);
        let rows: Vec<Vec<f64>> = raw_rows
            .into_iter()
            .map(|mut r| {
                r.truncate(dims);
                r
            })
            .collect();
        for r in &rows {
            xs.push_row(r);
        }
        let trainer = TrainerConfig::default();
        for algorithm in Algorithm::ALL {
            let model = train(algorithm, &trainer, &data);
            let mut batch = vec![0.0; xs.len()];
            model.score_batch(&xs, &mut batch);
            for (i, (row, b)) in rows.iter().zip(&batch).enumerate() {
                let one = model.score(row);
                prop_assert_eq!(
                    one.to_bits(),
                    b.to_bits(),
                    "{} row {i}: per-row {one} vs batch {b}",
                    algorithm.name()
                );
            }
        }
    }

    /// The quantized families hold the same batch-equals-per-row bit
    /// contract at every width and rounding mode — stochastic rounding is a
    /// pure function of (seed, row, feature), so batching cannot move it.
    #[test]
    fn quantized_batch_bit_identical(
        dims in 1usize..=6,
        seed in any::<u64>(),
        raw_rows in prop::collection::vec(prop::collection::vec(any_value(), 6), 1..5),
    ) {
        let data = training_set(dims);
        let mut xs = FeatureMatrix::new(dims);
        let rows: Vec<Vec<f64>> = raw_rows
            .into_iter()
            .map(|mut r| {
                r.truncate(dims);
                r
            })
            .collect();
        for r in &rows {
            xs.push_row(r);
        }
        for config in [
            QuantConfig::nearest(QuantBits::Int8),
            QuantConfig::nearest(QuantBits::Int16),
            QuantConfig::stochastic(QuantBits::Int4, seed),
            QuantConfig::stochastic(QuantBits::Int16, seed),
        ] {
            let trainer = TrainerConfig {
                quant: Some(config),
                ..TrainerConfig::default()
            };
            for algorithm in [Algorithm::Lr, Algorithm::Svm, Algorithm::Nn] {
                let model = train(algorithm, &trainer, &data);
                let mut batch = vec![0.0; xs.len()];
                model.score_batch(&xs, &mut batch);
                for (i, (row, b)) in rows.iter().zip(&batch).enumerate() {
                    let one = model.score(row);
                    prop_assert_eq!(
                        one.to_bits(),
                        b.to_bits(),
                        "{} {}/{} row {i}: per-row {one} vs batch {b}",
                        algorithm.name(),
                        config.bits.name(),
                        config.rounding.name()
                    );
                }
            }
        }
    }

    /// Quantized scores stay inside the analytic error envelope of their
    /// exact counterparts on in-range *and* out-of-distribution rows, for
    /// every width and both rounding modes.
    #[test]
    fn quantized_error_stays_in_envelope(
        dims in 1usize..=6,
        seed in any::<u64>(),
        raw_rows in prop::collection::vec(prop::collection::vec(-1e6f64..1e6, 6), 1..5),
    ) {
        let data = training_set(dims);
        let rows: Vec<Vec<f64>> = raw_rows
            .into_iter()
            .map(|mut r| {
                r.truncate(dims);
                r
            })
            .collect();
        let exact_lr = train(Algorithm::Lr, &TrainerConfig::default(), &data);
        let exact_svm = train(Algorithm::Svm, &TrainerConfig::default(), &data);
        let exact_nn = train(Algorithm::Nn, &TrainerConfig::default(), &data);
        for config in [
            QuantConfig::nearest(QuantBits::Int4),
            QuantConfig::nearest(QuantBits::Int16),
            QuantConfig::stochastic(QuantBits::Int8, seed),
        ] {
            let lr = exact_lr
                .as_any()
                .downcast_ref::<rhmd_ml::linear::LogisticRegression>()
                .expect("exact LR");
            let svm = exact_svm
                .as_any()
                .downcast_ref::<rhmd_ml::svm::LinearSvm>()
                .expect("exact SVM");
            let nn = exact_nn
                .as_any()
                .downcast_ref::<rhmd_ml::mlp::Mlp>()
                .expect("exact NN");
            let qlr = QuantizedLinear::from_lr(lr, config, &data);
            let qsvm = QuantizedLinear::from_svm(svm, config, &data);
            let qnn = QuantizedMlp::from_mlp(nn, config, &data);
            for (i, row) in rows.iter().enumerate() {
                let cases: [(&str, f64, f64, f64); 3] = [
                    ("LR", exact_lr.score(row), qlr.score(row), qlr.score_error_bound(row)),
                    ("SVM", exact_svm.score(row), qsvm.score(row), qsvm.score_error_bound(row)),
                    ("NN", exact_nn.score(row), qnn.score(row), qnn.score_error_bound(row)),
                ];
                for (family, exact, quant, bound) in cases {
                    prop_assert!(
                        (exact - quant).abs() <= bound + 1e-9,
                        "{family} {}/{} row {i}: |{exact} - {quant}| > {bound}",
                        config.bits.name(),
                        config.rounding.name()
                    );
                }
            }
        }
    }
}

/// A small fixed-shape training set with both classes and per-dimension
/// signal, so every family (including the RF/DT splitters) fits something.
fn training_set(dims: usize) -> Dataset {
    let mut flat = Vec::with_capacity(24 * dims);
    let mut labels = Vec::with_capacity(24);
    for i in 0..24 {
        let label = i % 2 == 0;
        let base = if label { 1.0 } else { -1.0 };
        flat.extend((0..dims).map(|j| base * (1.0 + j as f64) + f64::from(i) * 0.03));
        labels.push(label);
    }
    Dataset::from_flat(dims, flat, labels)
}
