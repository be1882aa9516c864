//! Edge-case contracts of the evaluation metrics: degenerate label sets,
//! empty window sets, tie-heavy score distributions, and all-abstain
//! quorums. These are the inputs the fault-injection pipeline actually
//! produces at high intensities, so "never panic, degrade to a defined
//! value" is load-bearing, not defensive.

use rhmd_core::hmd::{ProgramVerdict, QuorumVerdict};
use rhmd_ml::metrics::{
    agreement, auc, best_accuracy_threshold, operating_threshold, roc_curve, Confusion, RocPoint,
};
use rhmd_ml::model::{predict_all, Classifier, Dataset};
use rhmd_ml::trainer::{train, Algorithm, TrainerConfig};
use rhmd_ml::{Mlp, QuantBits, QuantConfig, QuantizedLinear, QuantizedMlp};

// ---------------------------------------------------------------- ROC / AUC

#[test]
fn auc_on_single_class_labels_is_chance() {
    // A detector evaluated on an all-malware (or all-benign) split has no
    // ranking task; the defined answer is chance, not a panic or NaN.
    assert_eq!(auc(&[0.1, 0.5, 0.9], &[true, true, true]), 0.5);
    assert_eq!(auc(&[0.1, 0.5, 0.9], &[false, false, false]), 0.5);
    assert_eq!(auc(&[0.7], &[true]), 0.5);
}

#[test]
fn auc_on_empty_input_is_chance() {
    assert_eq!(auc(&[], &[]), 0.5);
}

#[test]
fn roc_curve_on_empty_input_is_the_origin() {
    let roc = roc_curve(&[], &[]);
    assert_eq!(
        roc,
        vec![RocPoint {
            threshold: f64::INFINITY,
            fpr: 0.0,
            tpr: 0.0
        }]
    );
}

#[test]
fn roc_curve_groups_ties_into_one_point() {
    // All scores identical: the whole set moves as one group, so the curve
    // is origin -> (1, 1) with no intermediate (unachievable) points.
    let roc = roc_curve(&[0.5, 0.5, 0.5, 0.5], &[true, false, true, false]);
    assert_eq!(roc.len(), 2);
    assert_eq!((roc[1].fpr, roc[1].tpr), (1.0, 1.0));
}

#[test]
fn roc_curve_single_class_pins_the_degenerate_axis() {
    // No negatives: fpr has no denominator and stays 0 by definition.
    let roc = roc_curve(&[0.9, 0.1], &[true, true]);
    assert!(roc.iter().all(|p| p.fpr == 0.0));
    assert_eq!(roc.last().unwrap().tpr, 1.0);
    // No positives: mirrored.
    let roc = roc_curve(&[0.9, 0.1], &[false, false]);
    assert!(roc.iter().all(|p| p.tpr == 0.0));
    assert_eq!(roc.last().unwrap().fpr, 1.0);
}

#[test]
fn auc_handles_infinite_scores() {
    // Saturating-counter faults can push scores to the extremes; infinities
    // are orderable and must rank like any other score.
    let scores = [f64::INFINITY, f64::NEG_INFINITY];
    let labels = [true, false];
    assert_eq!(auc(&scores, &labels), 1.0);
}

#[test]
#[should_panic(expected = "NaN")]
fn roc_curve_rejects_nan_scores() {
    roc_curve(&[0.5, f64::NAN], &[true, false]);
}

#[test]
#[should_panic(expected = "length mismatch")]
fn roc_curve_rejects_length_mismatch() {
    roc_curve(&[0.5], &[true, false]);
}

// ------------------------------------------------- operating-point search

#[test]
fn best_threshold_on_empty_window_set_is_defined() {
    // A fully-dropped stream yields zero scored windows; the search returns
    // the (0.0, 0.0) sentinel instead of indexing into nothing.
    assert_eq!(best_accuracy_threshold(&[], &[]), (0.0, 0.0));
}

#[test]
fn best_threshold_on_single_class_predicts_that_class() {
    // All benign: the all-benign operating point is already perfect, and it
    // is reported via the +inf threshold (classify nothing as malware).
    let (t, acc) = best_accuracy_threshold(&[0.2, 0.8], &[false, false]);
    assert_eq!(acc, 1.0);
    assert!(t.is_infinite());
    // All malware: the most permissive finite threshold flags everything.
    let (t, acc) = best_accuracy_threshold(&[0.2, 0.8], &[true, true]);
    assert_eq!(acc, 1.0);
    assert!(t.is_finite());
}

#[test]
fn operating_threshold_flags_nothing_at_the_all_benign_optimum() {
    let scores = [0.2, 0.8, 0.5];
    let t = operating_threshold(&scores, &[false, false, false]);
    assert_eq!(t, 0.8f64.next_up());
    assert!(scores.iter().all(|&s| s < t));
    // A finite optimum passes through untouched.
    let labels = [false, true, false];
    assert_eq!(operating_threshold(&scores, &labels), best_accuracy_threshold(&scores, &labels).0);
    // No finite float sits above an infinite score.
    assert_eq!(operating_threshold(&[f64::INFINITY], &[false]), f64::MAX);
    assert_eq!(operating_threshold(&[], &[]), 0.0);
}

/// 500 rows, one of them malware whose features duplicate a benign row's:
/// no threshold separates the pair, so flagging nothing is the
/// accuracy-maximizing operating point for every model.
fn one_malware_in_500() -> Dataset {
    let mut state = 0x1234_5678_u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut data = Dataset::new(2);
    for _ in 0..499 {
        data.push(vec![next() * 100.0, next() * 100.0], false);
    }
    let twin = data.row(17).to_vec();
    data.push(twin, true);
    data
}

#[test]
fn fitted_models_at_the_all_benign_optimum_flag_no_training_row() {
    let data = one_malware_in_500();
    let config = TrainerConfig::default();
    for algorithm in [Algorithm::Lr, Algorithm::Svm, Algorithm::Nn, Algorithm::Rf] {
        let model = train(algorithm, &config, &data);
        assert!(model.threshold().is_finite(), "{algorithm:?}");
        let flagged = predict_all(model.as_ref(), &data).iter().filter(|&&p| p).count();
        assert_eq!(flagged, 0, "{algorithm:?} flags {flagged} of 500 training rows");
    }

    let nn = Mlp::fit(&config.mlp, &data);
    let saved: Mlp = serde_json::from_str(&serde_json::to_string(&nn).unwrap()).unwrap();
    assert_eq!(saved.threshold().to_bits(), nn.threshold().to_bits());
    assert!(!predict_all(&saved, &data).contains(&true));

    // The quantizers re-pick the threshold on the same calibration rows.
    let quant = QuantConfig::nearest(QuantBits::Int8);
    let lr = rhmd_ml::LogisticRegression::fit(&config.lr, &data);
    let quantized: [Box<dyn Classifier>; 2] = [
        Box::new(QuantizedLinear::from_lr(&lr, quant, &data)),
        Box::new(QuantizedMlp::from_mlp(&nn, quant, &data)),
    ];
    for q in &quantized {
        assert!(!predict_all(q.as_ref(), &data).contains(&true), "{}", q.algorithm());
    }
}

// ------------------------------------------------------- confusion counts

#[test]
fn empty_confusion_degrades_to_zero_not_nan() {
    let c = Confusion::from_predictions(&[], &[]);
    assert_eq!(c.total(), 0);
    for value in [
        c.accuracy(),
        c.sensitivity(),
        c.specificity(),
        c.precision(),
        c.f1(),
        c.balanced_accuracy(),
        c.mcc(),
    ] {
        assert_eq!(value, 0.0);
    }
    // fpr is 1 - specificity, and specificity's degenerate value is 0.
    assert_eq!(c.fpr(), 1.0);
}

#[test]
fn single_class_confusion_keeps_the_undefined_rate_at_zero() {
    // Only malware present: specificity has no denominator and reports 0,
    // while sensitivity is still meaningful.
    let c = Confusion::from_predictions(&[true, false], &[true, true]);
    assert_eq!(c.sensitivity(), 0.5);
    assert_eq!(c.specificity(), 0.0);
}

#[test]
#[should_panic(expected = "undefined")]
fn agreement_rejects_empty_streams() {
    agreement(&[], &[]);
}

// ------------------------------------------------------- abstaining quorum

#[test]
fn all_abstain_quorum_has_zero_coverage_and_votes_benign() {
    // Every window abstained (e.g. intensity-1.0 dropping faults): coverage
    // collapses to 0 so the verdict policy can refuse it, and the majority
    // vote over zero voters must NOT default to "malware".
    let q = QuorumVerdict::from_votes(&[None, None, None]);
    assert_eq!((q.flagged, q.voted, q.abstained), (0, 0, 3));
    assert_eq!(q.coverage(), 0.0);
    assert_eq!(q.flag_rate(), 0.0);
    assert!(!q.is_malware());
}

#[test]
fn empty_quorum_counts_as_fully_covered() {
    // Zero windows examined means nothing was degraded: coverage 1.0, and
    // the benign default again.
    let q = QuorumVerdict::from_votes(&[]);
    assert_eq!(q.total(), 0);
    assert_eq!(q.coverage(), 1.0);
    assert!(!q.is_malware());
}

#[test]
fn quorum_majority_ignores_abstentions() {
    // 2 flagged of 3 voters is a majority even with 5 abstentions diluting
    // the raw stream — abstentions affect coverage, never the vote.
    let votes = [
        Some(true),
        None,
        Some(true),
        None,
        None,
        Some(false),
        None,
        None,
    ];
    let q = QuorumVerdict::from_votes(&votes);
    assert_eq!((q.flagged, q.voted, q.abstained), (2, 3, 5));
    assert!(q.is_malware());
    assert_eq!(q.coverage(), 3.0 / 8.0);
    // Collapsing to a plain program verdict keeps the voting-window view.
    assert_eq!(
        q.to_program_verdict(),
        ProgramVerdict {
            flagged: 2,
            total: 3
        }
    );
}

#[test]
fn quorum_exact_tie_flags_malware() {
    // 1-of-2 is the paper's conservative tie-break: a split vote flags.
    let q = QuorumVerdict::from_votes(&[Some(true), Some(false)]);
    assert!(q.is_malware());
}
