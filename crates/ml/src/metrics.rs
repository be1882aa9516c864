//! Evaluation metrics: confusion counts, ROC / AUC, best-accuracy operating
//! points, and inter-detector agreement.

use serde::{Deserialize, Serialize};

/// Binary confusion counts (positive = malware).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Confusion {
    /// Malware classified as malware.
    pub tp: u64,
    /// Benign classified as malware.
    pub fp: u64,
    /// Benign classified as benign.
    pub tn: u64,
    /// Malware classified as benign.
    pub fn_: u64,
}

impl Confusion {
    /// Tallies predictions against ground truth.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn from_predictions(predictions: &[bool], labels: &[bool]) -> Confusion {
        assert_eq!(predictions.len(), labels.len(), "length mismatch");
        let mut c = Confusion::default();
        for (&p, &l) in predictions.iter().zip(labels) {
            match (p, l) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, false) => c.tn += 1,
                (false, true) => c.fn_ += 1,
            }
        }
        c
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Fraction of correct decisions.
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / self.total() as f64
        }
    }

    /// True-positive rate (malware detected), a.k.a. recall.
    pub fn sensitivity(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// True-negative rate (benign passed).
    pub fn specificity(&self) -> f64 {
        if self.tn + self.fp == 0 {
            0.0
        } else {
            self.tn as f64 / (self.tn + self.fp) as f64
        }
    }

    /// False-positive rate.
    pub fn fpr(&self) -> f64 {
        1.0 - self.specificity()
    }

    /// Precision: flagged samples that really were malware.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// F1 score: harmonic mean of precision and sensitivity.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.sensitivity();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Balanced accuracy: mean of sensitivity and specificity, robust to
    /// class imbalance.
    pub fn balanced_accuracy(&self) -> f64 {
        (self.sensitivity() + self.specificity()) / 2.0
    }

    /// Matthews correlation coefficient in `[-1, 1]` (0 for degenerate
    /// denominators).
    pub fn mcc(&self) -> f64 {
        let (tp, fp, tn, fn_) = (
            self.tp as f64,
            self.fp as f64,
            self.tn as f64,
            self.fn_ as f64,
        );
        let denom = ((tp + fp) * (tp + fn_) * (tn + fp) * (tn + fn_)).sqrt();
        if denom == 0.0 {
            0.0
        } else {
            (tp * tn - fp * fn_) / denom
        }
    }
}

/// One ROC operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    /// Decision threshold producing this point.
    pub threshold: f64,
    /// False-positive rate at the threshold.
    pub fpr: f64,
    /// True-positive rate at the threshold.
    pub tpr: f64,
}

/// Computes the ROC curve from scores and labels, sorted by descending
/// threshold (conservative → permissive).
///
/// # Panics
///
/// Panics if lengths differ or any score is NaN.
pub fn roc_curve(scores: &[f64], labels: &[bool]) -> Vec<RocPoint> {
    assert_eq!(scores.len(), labels.len(), "length mismatch");
    assert!(scores.iter().all(|s| !s.is_nan()), "scores must not be NaN");
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    let positives = labels.iter().filter(|&&l| l).count() as f64;
    let negatives = labels.len() as f64 - positives;
    let mut points = vec![RocPoint {
        threshold: f64::INFINITY,
        fpr: 0.0,
        tpr: 0.0,
    }];
    let (mut tp, mut fp) = (0u64, 0u64);
    let mut i = 0;
    while i < order.len() {
        // Advance over ties as a group so the curve is well-defined.
        let t = scores[order[i]];
        while i < order.len() && scores[order[i]] == t {
            if labels[order[i]] {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        points.push(RocPoint {
            threshold: t,
            fpr: if negatives > 0.0 { fp as f64 / negatives } else { 0.0 },
            tpr: if positives > 0.0 { tp as f64 / positives } else { 0.0 },
        });
    }
    points
}

/// Area under the ROC curve via trapezoidal integration.
///
/// Returns 0.5 for degenerate inputs (single-class labels).
pub fn auc(scores: &[f64], labels: &[bool]) -> f64 {
    let positives = labels.iter().filter(|&&l| l).count();
    if positives == 0 || positives == labels.len() {
        return 0.5;
    }
    let roc = roc_curve(scores, labels);
    let mut area = 0.0;
    for pair in roc.windows(2) {
        area += (pair[1].fpr - pair[0].fpr) * (pair[1].tpr + pair[0].tpr) / 2.0;
    }
    area
}

/// Finds the threshold maximizing accuracy — the paper's reported operating
/// point ("the point on the ROC which maximizes the accuracy").
///
/// Returns `(threshold, accuracy)`. For empty input returns `(0.0, 0.0)`.
pub fn best_accuracy_threshold(scores: &[f64], labels: &[bool]) -> (f64, f64) {
    if scores.is_empty() {
        return (0.0, 0.0);
    }
    let positives = labels.iter().filter(|&&l| l).count() as f64;
    let negatives = labels.len() as f64 - positives;
    let n = labels.len() as f64;
    let mut best = (f64::INFINITY, negatives / n); // predict all benign
    for p in roc_curve(scores, labels) {
        if p.threshold.is_infinite() {
            continue;
        }
        let acc = (p.tpr * positives + (1.0 - p.fpr) * negatives) / n;
        if acc > best.1 {
            best = (p.threshold, acc);
        }
    }
    best
}

/// The finite decision threshold a fitted model ships with: the
/// accuracy-maximizing point of [`best_accuracy_threshold`], except that
/// the all-benign optimum (its `+∞` sentinel) becomes the next float above
/// the highest score, so the model still flags nothing and the threshold
/// still serializes.
pub fn operating_threshold(scores: &[f64], labels: &[bool]) -> f64 {
    let (threshold, _) = best_accuracy_threshold(scores, labels);
    if threshold.is_finite() {
        threshold
    } else {
        // An infinite top score has no finite threshold above it; `MAX`
        // then flags only the infinite scores.
        scores
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            .next_up()
            .min(f64::MAX)
    }
}

/// Fraction of identical decisions between two prediction vectors — the
/// attacker's reverse-engineering success metric (paper Fig 1b).
///
/// # Panics
///
/// Panics if lengths differ or the slices are empty.
pub fn agreement(a: &[bool], b: &[bool]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    assert!(!a.is_empty(), "agreement over no samples is undefined");
    let same = a.iter().zip(b).filter(|(x, y)| x == y).count();
    same as f64 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_counts() {
        let c = Confusion::from_predictions(
            &[true, true, false, false],
            &[true, false, true, false],
        );
        assert_eq!((c.tp, c.fp, c.fn_, c.tn), (1, 1, 1, 1));
        assert_eq!(c.accuracy(), 0.5);
        assert_eq!(c.sensitivity(), 0.5);
        assert_eq!(c.specificity(), 0.5);
        assert_eq!(c.fpr(), 0.5);
        assert_eq!(c.precision(), 0.5);
        assert_eq!(c.f1(), 0.5);
        assert_eq!(c.balanced_accuracy(), 0.5);
        assert_eq!(c.mcc(), 0.0);
    }

    #[test]
    fn perfect_predictions_max_out_derived_metrics() {
        let c = Confusion::from_predictions(&[true, false, true], &[true, false, true]);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.f1(), 1.0);
        assert_eq!(c.balanced_accuracy(), 1.0);
        assert_eq!(c.mcc(), 1.0);
    }

    #[test]
    fn inverted_predictions_give_negative_mcc() {
        let c = Confusion::from_predictions(&[false, true], &[true, false]);
        assert_eq!(c.mcc(), -1.0);
        assert_eq!(c.f1(), 0.0);
    }

    #[test]
    fn degenerate_cases_do_not_divide_by_zero() {
        let all_benign = Confusion::from_predictions(&[false, false], &[false, false]);
        assert_eq!(all_benign.precision(), 0.0);
        assert_eq!(all_benign.f1(), 0.0);
        assert_eq!(all_benign.mcc(), 0.0);
    }

    #[test]
    fn perfect_separation_gives_auc_one() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        assert!((auc(&scores, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reversed_separation_gives_auc_zero() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [true, true, false, false];
        assert!(auc(&scores, &labels) < 1e-12);
    }

    #[test]
    fn random_scores_give_auc_half() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [true, false, true, false];
        assert!((auc(&scores, &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_class_is_degenerate() {
        assert_eq!(auc(&[0.1, 0.9], &[true, true]), 0.5);
    }

    #[test]
    fn roc_is_monotonic() {
        let scores = [0.9, 0.1, 0.7, 0.3, 0.5];
        let labels = [true, false, false, true, true];
        let roc = roc_curve(&scores, &labels);
        for pair in roc.windows(2) {
            assert!(pair[1].fpr >= pair[0].fpr);
            assert!(pair[1].tpr >= pair[0].tpr);
        }
        let last = roc.last().unwrap();
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
    }

    #[test]
    fn best_threshold_separates_cleanly() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        let (t, acc) = best_accuracy_threshold(&scores, &labels);
        assert_eq!(acc, 1.0);
        assert!(t <= 0.8 && t > 0.2);
    }

    #[test]
    fn best_threshold_handles_all_benign_optimum() {
        // Scores uninformative and mostly benign: predicting all-benign wins.
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [false, false, false, true];
        let (_, acc) = best_accuracy_threshold(&scores, &labels);
        assert!(acc >= 0.75);
    }

    #[test]
    fn agreement_counts_matches() {
        assert_eq!(agreement(&[true, false], &[true, true]), 0.5);
        assert_eq!(agreement(&[true], &[true]), 1.0);
    }
}
