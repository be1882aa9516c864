//! Property-based tests of the ML stack's invariants.

use proptest::prelude::*;
use rhmd_ml::metrics::{agreement, auc, best_accuracy_threshold, roc_curve, Confusion};
use rhmd_ml::model::{score_all, Classifier, Dataset};
use rhmd_ml::scale::Standardizer;
use rhmd_ml::split::stratified_split;
use rhmd_ml::{LinearSvm, LogisticRegression, LrConfig, Mlp, MlpConfig, SvmConfig};

fn scores_and_labels() -> impl Strategy<Value = (Vec<f64>, Vec<bool>)> {
    prop::collection::vec((-1e3f64..1e3, any::<bool>()), 2..200)
        .prop_map(|v| v.into_iter().unzip())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// AUC is always a probability.
    #[test]
    fn auc_in_unit_interval((scores, labels) in scores_and_labels()) {
        let a = auc(&scores, &labels);
        prop_assert!((0.0..=1.0).contains(&a), "auc {a}");
    }

    /// AUC is invariant under strictly monotone transforms of the scores.
    #[test]
    fn auc_is_rank_statistic((scores, labels) in scores_and_labels()) {
        let transformed: Vec<f64> = scores.iter().map(|s| (s / 250.0).tanh() * 3.0 + 7.0).collect();
        let a = auc(&scores, &labels);
        let b = auc(&transformed, &labels);
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    /// Negating scores flips the AUC around 1/2 (when both classes exist).
    #[test]
    fn auc_negation_symmetry((scores, labels) in scores_and_labels()) {
        let pos = labels.iter().filter(|&&l| l).count();
        prop_assume!(pos > 0 && pos < labels.len());
        let negated: Vec<f64> = scores.iter().map(|s| -s).collect();
        let a = auc(&scores, &labels);
        let b = auc(&negated, &labels);
        prop_assert!((a + b - 1.0).abs() < 1e-9, "{a} + {b} != 1");
    }

    /// The ROC curve is monotone and spans (0,0) → (1,1).
    #[test]
    fn roc_is_monotone((scores, labels) in scores_and_labels()) {
        let pos = labels.iter().filter(|&&l| l).count();
        prop_assume!(pos > 0 && pos < labels.len());
        let roc = roc_curve(&scores, &labels);
        prop_assert_eq!((roc[0].fpr, roc[0].tpr), (0.0, 0.0));
        let last = roc.last().unwrap();
        prop_assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
        for pair in roc.windows(2) {
            prop_assert!(pair[1].fpr >= pair[0].fpr);
            prop_assert!(pair[1].tpr >= pair[0].tpr);
        }
    }

    /// The best-accuracy threshold is at least as good as always answering
    /// with the majority class.
    #[test]
    fn best_threshold_beats_majority((scores, labels) in scores_and_labels()) {
        let (_, acc) = best_accuracy_threshold(&scores, &labels);
        let pos = labels.iter().filter(|&&l| l).count();
        let majority = pos.max(labels.len() - pos) as f64 / labels.len() as f64;
        prop_assert!(acc + 1e-9 >= majority, "acc {acc} < majority {majority}");
    }

    /// Confusion counts partition the samples, and derived rates are
    /// consistent.
    #[test]
    fn confusion_is_a_partition(
        (preds, labels) in prop::collection::vec((any::<bool>(), any::<bool>()), 1..100)
            .prop_map(|v| v.into_iter().unzip::<bool, bool, Vec<bool>, Vec<bool>>())
    ) {
        let c = Confusion::from_predictions(&preds, &labels);
        prop_assert_eq!(c.total() as usize, preds.len());
        let acc = c.accuracy();
        prop_assert!((0.0..=1.0).contains(&acc));
        prop_assert!((c.fpr() + c.specificity() - 1.0).abs() < 1e-12);
    }

    /// Self-agreement is perfect; agreement is symmetric.
    #[test]
    fn agreement_properties(a in prop::collection::vec(any::<bool>(), 1..100), flips in any::<u64>()) {
        prop_assert_eq!(agreement(&a, &a), 1.0);
        let b: Vec<bool> = a.iter().enumerate().map(|(i, &x)| x ^ ((flips >> (i % 64)) & 1 == 1)).collect();
        prop_assert!((agreement(&a, &b) - agreement(&b, &a)).abs() < 1e-12);
    }

    /// Stratified splitting partitions the index space exactly.
    #[test]
    fn split_is_a_partition(strata in prop::collection::vec(0u32..5, 3..200), seed in any::<u64>()) {
        let groups = stratified_split(&strata, &[0.6, 0.2, 0.2], seed);
        let mut all: Vec<usize> = groups.concat();
        all.sort_unstable();
        prop_assert_eq!(all, (0..strata.len()).collect::<Vec<_>>());
    }

    /// Standardization then inspection: transformed training data has ~zero
    /// mean in every dimension.
    #[test]
    fn standardizer_centers(rows in prop::collection::vec(
        prop::collection::vec(-1e4f64..1e4, 3), 2..50)) {
        let n = rows.len();
        let data = Dataset::from_flat(3, rows.concat(), vec![false; n]);
        let s = Standardizer::fit(&data);
        let t = s.transform_dataset(&data);
        for d in 0..3 {
            let mean: f64 = t.rows().iter().map(|r| r[d]).sum::<f64>() / n as f64;
            prop_assert!(mean.abs() < 1e-6, "dim {d} mean {mean}");
        }
    }
}

/// The SGD-trained families whose run-to-run behaviour the trainer
/// properties pin down.
#[derive(Debug, Clone, Copy)]
enum Sgd {
    Lr,
    Svm,
    Nn,
}

/// What a property needs from one fit.
struct Fit {
    /// The serialized model: equal strings mean equal parameter bits.
    json: String,
    /// Input-space weights (LR/SVM: weights then bias; NN: the collapsed
    /// per-input weights).
    weights: Vec<f64>,
    threshold: f64,
    /// Scores on the training rows.
    scores: Vec<f64>,
}

impl Sgd {
    const ALL: [Sgd; 3] = [Sgd::Lr, Sgd::Svm, Sgd::Nn];

    fn fit(self, seed: u64, data: &Dataset) -> Fit {
        fn finish<M: Classifier + serde::Serialize>(model: M, weights: Vec<f64>, data: &Dataset) -> Fit {
            Fit {
                json: serde_json::to_string(&model).unwrap(),
                weights,
                threshold: model.threshold(),
                scores: score_all(&model, data),
            }
        }
        let epochs = 8;
        match self {
            Sgd::Lr => {
                let m = LogisticRegression::fit(&LrConfig { epochs, seed, ..LrConfig::default() }, data);
                let (mut w, b) = m.input_space_weights();
                w.push(b);
                finish(m, w, data)
            }
            Sgd::Svm => {
                let m = LinearSvm::fit(&SvmConfig { epochs, seed, ..SvmConfig::default() }, data);
                let (mut w, b) = m.input_space_weights();
                w.push(b);
                finish(m, w, data)
            }
            Sgd::Nn => {
                let m = Mlp::fit(&MlpConfig { epochs, seed, ..MlpConfig::default() }, data);
                let w = m.collapsed_input_weights();
                finish(m, w, data)
            }
        }
    }
}

/// Three-feature rows over a wide range, with `positives` malware rows
/// first; `constant` pins the last column to one value.
fn trainer_data(rows: Vec<[f64; 3]>, positives: usize, constant: bool) -> Dataset {
    let mut data = Dataset::new(3);
    for (i, mut row) in rows.into_iter().enumerate() {
        if constant {
            row[2] = 7.5;
        }
        data.push(row.to_vec(), i < positives);
    }
    data
}

fn trainer_rows() -> impl Strategy<Value = Vec<[f64; 3]>> {
    prop::collection::vec((-1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6), 8..60)
        .prop_map(|rows| rows.into_iter().map(|(a, b, c)| [a, b, c]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same config and data, same bits: nothing but the seed varies a run.
    #[test]
    fn sgd_trainers_are_deterministic(
        rows in trainer_rows(),
        positives in 1usize..8,
        seed in any::<u64>(),
    ) {
        let data = trainer_data(rows, positives, false);
        for family in Sgd::ALL {
            let (a, b) = (family.fit(seed, &data), family.fit(seed, &data));
            prop_assert_eq!(&a.json, &b.json, "{:?}", family);
        }
    }

    /// Changing only the seed (LR/SVM: the shuffle order; NN: the shuffle
    /// and the initial weights) changes the learned weights.
    #[test]
    fn sgd_trainer_weights_depend_on_the_seed(
        rows in trainer_rows(),
        positives in 1usize..8,
        seed in any::<u64>(),
    ) {
        let data = trainer_data(rows, positives, false);
        for family in Sgd::ALL {
            let a = family.fit(seed, &data).weights;
            let b = family.fit(seed ^ 0x9e37_79b9, &data).weights;
            prop_assert!(
                a.iter().zip(&b).any(|(x, y)| x.to_bits() != y.to_bits()),
                "{:?}: seeds {} and {} learned the same weights", family, seed, seed ^ 0x9e37_79b9
            );
        }
    }

    /// Weights, thresholds and scores stay finite under extreme class
    /// imbalance (down to one class) and with a constant feature column.
    #[test]
    fn sgd_trainers_stay_finite_on_degenerate_data(
        rows in trainer_rows(),
        imbalance in 0usize..4,
        constant in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = rows.len();
        let positives = [0, 1, n - 1, n][imbalance];
        let data = trainer_data(rows, positives, constant);
        for family in Sgd::ALL {
            let fit = family.fit(seed, &data);
            prop_assert!(fit.weights.iter().all(|w| w.is_finite()), "{:?}: {:?}", family, fit.weights);
            prop_assert!(fit.threshold.is_finite(), "{:?}: threshold {}", family, fit.threshold);
            prop_assert!(fit.scores.iter().all(|s| s.is_finite()), "{:?}", family);
        }
    }
}
