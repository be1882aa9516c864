//! Baseline hardware malware detectors (HMDs) and the black-box query
//! interface attackers see.

use crate::RhmdError;
use rhmd_data::TracedCorpus;
use rhmd_features::vector::FeatureSpec;
use rhmd_features::window::{aggregate, aggregate_with_gaps, RawWindow, SUBWINDOW};
use rhmd_ml::matrix::FeatureMatrix;
use rhmd_ml::model::{Classifier, Dataset};
use rhmd_ml::trainer::{train, Algorithm, TrainerConfig};
use std::fmt;

/// Largest plausible magnitude for any healthy feature component. Every
/// projection is a frequency, normalized histogram mass, or per-instruction
/// rate, all of order one; values beyond this bound only arise from
/// corrupted counters, and a detector abstains rather than vote on them.
pub const ABSTAIN_BOUND: f64 = 1e3;

/// Checks that `period` is a usable collection period: a positive multiple
/// of [`SUBWINDOW`], the contract every window aggregator asserts.
///
/// # Errors
///
/// Returns [`RhmdError::Parse`] naming `what` (a flag or a model file)
/// otherwise.
pub fn check_period(what: &str, period: u32) -> Result<u32, RhmdError> {
    if period > 0 && period.is_multiple_of(SUBWINDOW) {
        Ok(period)
    } else {
        Err(RhmdError::parse(
            what,
            format!("period {period} is not a positive multiple of {SUBWINDOW}"),
        ))
    }
}

/// The black-box interface the attacker can query (paper §2: "the attacker
/// has access to a machine with a similar detector"). Every detector
/// family answers queries through it.
///
/// A detector consumes a program's trace and emits a stream of binary
/// decisions, reported at [`SUBWINDOW`] granularity so detectors with
/// different (or randomized) collection periods are comparable: a decision
/// made over one collection window is replicated across all the subwindows
/// it covers. The stream is truncated at the last complete collection
/// window.
///
/// Decisions are label-only: no confidence is exposed, matching the paper's
/// threat model (§9.2).
pub trait BlackBox {
    /// Per-subwindow decision stream for one traced program.
    ///
    /// Takes `&mut self` because randomized detectors consume RNG state.
    fn label_subwindows(&mut self, subwindows: &[RawWindow]) -> Vec<bool>;

    /// One decision per detection epoch (collection window), without
    /// subwindow expansion — the granularity at which the attacker actually
    /// observes the detector's output.
    fn decisions(&mut self, subwindows: &[RawWindow]) -> Vec<bool>;

    /// Short description for reports.
    fn describe(&self) -> String;
}

/// Program-level verdict from a decision stream: the paper raises
/// window-level accuracy "by averaging the decisions across multiple
/// intervals" (§8.2), i.e. majority vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ProgramVerdict {
    /// Decisions that flagged malware.
    pub flagged: usize,
    /// Total decisions.
    pub total: usize,
}

impl ProgramVerdict {
    /// Builds a verdict from a decision stream.
    pub fn from_decisions(decisions: &[bool]) -> ProgramVerdict {
        ProgramVerdict {
            flagged: decisions.iter().filter(|&&d| d).count(),
            total: decisions.len(),
        }
    }

    /// Fraction of windows flagged (0.0 for empty streams).
    pub fn flag_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.flagged as f64 / self.total as f64
        }
    }

    /// Majority-vote malware verdict.
    pub fn is_malware(&self) -> bool {
        2 * self.flagged >= self.total.max(1)
    }
}

/// Program-level verdict over a vote stream that may contain abstentions:
/// windows a detector declined to judge (corrupted features, empty windows)
/// count toward coverage but never toward the vote, so a degraded stream
/// cannot silently mis-vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct QuorumVerdict {
    /// Votes that flagged malware.
    pub flagged: usize,
    /// Windows that produced a vote (flagged or clean).
    pub voted: usize,
    /// Windows the detector abstained on.
    pub abstained: usize,
}

impl QuorumVerdict {
    /// Builds a quorum verdict from per-window votes (`None` = abstain).
    pub fn from_votes(votes: &[Option<bool>]) -> QuorumVerdict {
        let mut v = QuorumVerdict {
            flagged: 0,
            voted: 0,
            abstained: 0,
        };
        for vote in votes {
            match vote {
                Some(true) => {
                    v.flagged += 1;
                    v.voted += 1;
                }
                Some(false) => v.voted += 1,
                None => v.abstained += 1,
            }
        }
        rhmd_obs::add("core.windows.voted", v.voted as u64);
        rhmd_obs::add("core.windows.abstained", v.abstained as u64);
        v
    }

    /// Total windows examined (voted + abstained).
    pub fn total(&self) -> usize {
        self.voted + self.abstained
    }

    /// Fraction of examined windows that produced a vote (1.0 for empty
    /// streams — nothing was degraded).
    pub fn coverage(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.voted as f64 / self.total() as f64
        }
    }

    /// Fraction of *voting* windows that flagged (0.0 with no votes).
    pub fn flag_rate(&self) -> f64 {
        if self.voted == 0 {
            0.0
        } else {
            self.flagged as f64 / self.voted as f64
        }
    }

    /// Majority vote over the voting windows only.
    pub fn is_malware(&self) -> bool {
        2 * self.flagged >= self.voted.max(1)
    }

    /// Collapses to a plain [`ProgramVerdict`] over the voting windows.
    pub fn to_program_verdict(&self) -> ProgramVerdict {
        ProgramVerdict {
            flagged: self.flagged,
            total: self.voted,
        }
    }
}

/// A trained baseline HMD: one feature spec + one classifier.
///
/// # Examples
///
/// ```no_run
/// use rhmd_core::hmd::Hmd;
/// use rhmd_data::{Corpus, CorpusConfig, Splits, TracedCorpus};
/// use rhmd_features::{FeatureKind, FeatureSpec};
/// use rhmd_ml::{Algorithm, TrainerConfig};
/// use rhmd_uarch::CoreConfig;
///
/// let config = CorpusConfig::tiny();
/// let corpus = Corpus::build(&config);
/// let splits = Splits::new(&corpus, config.seed);
/// let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
/// let spec = FeatureSpec::new(FeatureKind::Architectural, 10_000, vec![]);
/// let hmd = Hmd::train(
///     Algorithm::Lr,
///     spec,
///     &TrainerConfig::default(),
///     &traced,
///     &splits.victim_train,
/// );
/// let verdict = hmd.verdict(traced.subwindows(0));
/// println!("{}", verdict.flag_rate());
/// ```
#[derive(Clone)]
pub struct Hmd {
    spec: FeatureSpec,
    algorithm: Algorithm,
    model: Box<dyn Classifier>,
}

impl Hmd {
    /// Trains an HMD on the window dataset of `indices` in `traced`.
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty.
    pub fn train(
        algorithm: Algorithm,
        spec: FeatureSpec,
        trainer: &TrainerConfig,
        traced: &TracedCorpus,
        indices: &[usize],
    ) -> Hmd {
        let data = traced.window_dataset(indices, &spec);
        Hmd::train_on_dataset(algorithm, spec, trainer, &data)
    }

    /// Trains an HMD on an already-projected dataset (used by retraining
    /// experiments that mix in evasive windows).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or its dimensionality mismatches `spec`.
    pub fn train_on_dataset(
        algorithm: Algorithm,
        spec: FeatureSpec,
        trainer: &TrainerConfig,
        data: &Dataset,
    ) -> Hmd {
        assert_eq!(data.dims(), spec.dims(), "dataset does not match spec");
        let model = train(algorithm, trainer, data);
        Hmd {
            spec,
            algorithm,
            model,
        }
    }

    /// Assembles an HMD from an already-trained classifier (used by model
    /// persistence and by custom detector constructions).
    ///
    /// # Panics
    ///
    /// Panics if nothing guarantees the model matches the spec — callers are
    /// trusted; prefer [`Hmd::train`] where possible.
    pub fn from_parts(
        spec: FeatureSpec,
        algorithm: Algorithm,
        model: Box<dyn Classifier>,
    ) -> Hmd {
        Hmd {
            spec,
            algorithm,
            model,
        }
    }

    /// The feature spec this detector observes.
    pub fn spec(&self) -> &FeatureSpec {
        &self.spec
    }

    /// The training algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The underlying classifier (for weight extraction by evasion code).
    pub fn model(&self) -> &dyn Classifier {
        self.model.as_ref()
    }

    /// Decision for one already-aggregated collection window.
    pub fn classify_window(&self, window: &RawWindow) -> bool {
        self.model.predict(&self.spec.project(window))
    }

    /// Decision with abstention: `None` when the window is empty or its
    /// projection carries a component beyond [`ABSTAIN_BOUND`] — the
    /// signature of corrupted counters — so callers can skip this detector's
    /// vote instead of recording a meaningless one.
    pub fn classify_window_checked(&self, window: &RawWindow) -> Option<bool> {
        if window.instructions == 0 {
            return None;
        }
        let v = self.spec.project(window);
        if v.iter().any(|x| !x.is_finite() || x.abs() > ABSTAIN_BOUND) {
            return None;
        }
        Some(self.model.predict(&v))
    }

    /// Batch decisions for a slice of already-aggregated collection
    /// windows: all windows are projected into one flat [`FeatureMatrix`]
    /// and scored through [`Classifier::score_batch`], bit-identically to
    /// calling [`Hmd::classify_window`] per window.
    pub fn classify_windows(&self, windows: &[RawWindow]) -> Vec<bool> {
        let dims = self.spec.dims();
        if dims == 0 {
            return windows.iter().map(|w| self.classify_window(w)).collect();
        }
        let mut flat = Vec::with_capacity(windows.len() * dims);
        for w in windows {
            self.spec.project_into(w, &mut flat);
        }
        let xs = FeatureMatrix::from_flat(dims, flat);
        let mut scores = vec![0.0; xs.len()];
        self.model.score_batch(&xs, &mut scores);
        let threshold = self.model.threshold();
        scores.into_iter().map(|s| s >= threshold).collect()
    }

    /// Batch counterpart of [`Hmd::classify_window_checked`]: abstaining
    /// windows are filtered out first, the rest score through one flat
    /// matrix, and votes are scattered back in window order.
    pub fn classify_windows_checked(&self, windows: &[RawWindow]) -> Vec<Option<bool>> {
        let dims = self.spec.dims();
        let mut votes: Vec<Option<bool>> = vec![None; windows.len()];
        if dims == 0 {
            for (vote, w) in votes.iter_mut().zip(windows) {
                *vote = self.classify_window_checked(w);
            }
            return votes;
        }
        let mut flat = Vec::with_capacity(windows.len() * dims);
        let mut voters = Vec::with_capacity(windows.len());
        let mut row = Vec::with_capacity(dims);
        for (i, w) in windows.iter().enumerate() {
            if w.instructions == 0 {
                continue;
            }
            row.clear();
            self.spec.project_into(w, &mut row);
            if row.iter().any(|x| !x.is_finite() || x.abs() > ABSTAIN_BOUND) {
                continue;
            }
            flat.extend_from_slice(&row);
            voters.push(i);
        }
        let xs = FeatureMatrix::from_flat(dims, flat);
        let mut scores = vec![0.0; xs.len()];
        self.model.score_batch(&xs, &mut scores);
        let threshold = self.model.threshold();
        for (&i, s) in voters.iter().zip(scores) {
            votes[i] = Some(s >= threshold);
        }
        votes
    }

    /// Per-collection-window votes over a possibly degraded trace:
    /// aggregation tolerates dropped/coalesced subwindows down to
    /// `min_fill` of the period, and corrupted windows abstain.
    pub fn decide_windows_checked(
        &self,
        subwindows: &[RawWindow],
        min_fill: f64,
    ) -> Vec<Option<bool>> {
        let windows = aggregate_with_gaps(subwindows, self.spec.period, min_fill);
        self.classify_windows_checked(&windows)
    }

    /// Program-level quorum verdict over a possibly degraded trace.
    pub fn quorum_verdict(&self, subwindows: &[RawWindow], min_fill: f64) -> QuorumVerdict {
        QuorumVerdict::from_votes(&self.decide_windows_checked(subwindows, min_fill))
    }

    /// Per-collection-window decisions for a program trace, scored through
    /// the batch path.
    pub fn decide_windows(&self, subwindows: &[RawWindow]) -> Vec<bool> {
        let windows = aggregate(subwindows, self.spec.period);
        self.classify_windows(&windows)
    }

    /// Program-level verdict by majority vote over collection windows.
    pub fn verdict(&self, subwindows: &[RawWindow]) -> ProgramVerdict {
        ProgramVerdict::from_decisions(&self.decide_windows(subwindows))
    }
}

impl BlackBox for Hmd {
    fn label_subwindows(&mut self, subwindows: &[RawWindow]) -> Vec<bool> {
        let per = (self.spec.period / SUBWINDOW) as usize;
        let mut out = Vec::with_capacity(subwindows.len());
        for decision in Hmd::decide_windows(self, subwindows) {
            out.extend(std::iter::repeat_n(decision, per));
        }
        out
    }

    fn decisions(&mut self, subwindows: &[RawWindow]) -> Vec<bool> {
        Hmd::decide_windows(self, subwindows)
    }

    fn describe(&self) -> String {
        format!("{}[{}]", self.algorithm, self.spec.label())
    }
}

impl fmt::Debug for Hmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hmd")
            .field("spec", &self.spec.label())
            .field("algorithm", &self.algorithm)
            .finish_non_exhaustive()
    }
}

/// Labels an attacker's windows (at `attacker_period`) with a victim's
/// decision stream, by majority over the covered subwindows — how the
/// attacker transfers black-box query results onto its own training rows
/// (paper Fig 1a).
///
/// Windows extending beyond the victim's decision coverage are dropped;
/// returns one label per *complete* attacker window.
///
/// # Panics
///
/// Panics if `attacker_period` is not a positive multiple of [`SUBWINDOW`].
pub fn transfer_labels(victim_stream: &[bool], attacker_period: u32) -> Vec<bool> {
    assert!(
        attacker_period > 0 && attacker_period.is_multiple_of(SUBWINDOW),
        "attacker period must be a positive multiple of {SUBWINDOW}"
    );
    let per = (attacker_period / SUBWINDOW) as usize;
    victim_stream
        .chunks(per)
        .filter(|c| c.len() == per)
        .map(|c| 2 * c.iter().filter(|&&d| d).count() >= per)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhmd_data::{Corpus, CorpusConfig, Splits};
    use rhmd_features::vector::FeatureKind;
    use rhmd_uarch::CoreConfig;

    fn fixture() -> (TracedCorpus, Splits) {
        let config = CorpusConfig::tiny();
        let corpus = Corpus::build(&config);
        let splits = Splits::new(&corpus, config.seed);
        let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
        (traced, splits)
    }

    fn arch_spec() -> FeatureSpec {
        FeatureSpec::new(FeatureKind::Architectural, 5_000, vec![])
    }

    #[test]
    fn trained_hmd_beats_chance() {
        let (traced, splits) = fixture();
        let hmd = Hmd::train(
            Algorithm::Lr,
            arch_spec(),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let mut correct = 0usize;
        let mut total = 0usize;
        for &i in &splits.attacker_test {
            let verdict = hmd.verdict(traced.subwindows(i));
            if verdict.is_malware() == traced.corpus().program(i).class.label() {
                correct += 1;
            }
            total += 1;
        }
        assert!(
            correct as f64 / total as f64 > 0.65,
            "program accuracy {correct}/{total}"
        );
    }

    #[test]
    fn subwindow_labels_cover_complete_windows() {
        let (traced, splits) = fixture();
        let mut hmd = Hmd::train(
            Algorithm::Lr,
            arch_spec(),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let subs = traced.subwindows(0);
        let labels = hmd.label_subwindows(subs);
        let per = (5_000 / SUBWINDOW) as usize;
        assert_eq!(labels.len() % per, 0);
        assert!(labels.len() <= subs.len());
        // Replication: each window's subwindow labels agree.
        for chunk in labels.chunks(per) {
            assert!(chunk.iter().all(|&d| d == chunk[0]));
        }
    }

    #[test]
    fn verdict_majority_logic() {
        let v = ProgramVerdict::from_decisions(&[true, true, false]);
        assert!(v.is_malware());
        assert!((v.flag_rate() - 2.0 / 3.0).abs() < 1e-12);
        let v2 = ProgramVerdict::from_decisions(&[true, false, false]);
        assert!(!v2.is_malware());
        assert!(!ProgramVerdict::from_decisions(&[]).is_malware());
    }

    #[test]
    fn quorum_verdict_ignores_abstentions() {
        let q = QuorumVerdict::from_votes(&[Some(true), None, Some(true), Some(false), None]);
        assert_eq!(q.flagged, 2);
        assert_eq!(q.voted, 3);
        assert_eq!(q.abstained, 2);
        assert!((q.coverage() - 0.6).abs() < 1e-12);
        assert!((q.flag_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!(q.is_malware());
        assert_eq!(q.to_program_verdict().total, 3);
        // All-abstained stream: no vote, full degradation visible.
        let empty = QuorumVerdict::from_votes(&[None, None]);
        assert_eq!(empty.coverage(), 0.0);
        assert!(!empty.is_malware());
    }

    #[test]
    fn checked_classification_abstains_on_corruption() {
        let (traced, splits) = fixture();
        let hmd = Hmd::train(
            Algorithm::Lr,
            arch_spec(),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        // Clean windows vote identically to the unchecked path.
        let windows = aggregate(traced.subwindows(0), 5_000);
        for w in &windows {
            assert_eq!(hmd.classify_window_checked(w), Some(hmd.classify_window(w)));
        }
        // An empty window abstains.
        assert_eq!(hmd.classify_window_checked(&RawWindow::default()), None);
        // A wildly out-of-range rate abstains.
        let mut corrupt = windows[0].clone();
        corrupt.counters.instructions = 1;
        corrupt.counters.l2_misses = u64::MAX / 2;
        assert_eq!(hmd.classify_window_checked(&corrupt), None);
    }

    #[test]
    fn checked_decisions_match_plain_on_clean_traces() {
        let (traced, splits) = fixture();
        let hmd = Hmd::train(
            Algorithm::Lr,
            arch_spec(),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let subs = traced.subwindows(2);
        let plain = hmd.decide_windows(subs);
        let checked: Vec<bool> = hmd
            .decide_windows_checked(subs, 1.0)
            .into_iter()
            .map(|v| v.expect("clean trace must not abstain"))
            .collect();
        assert_eq!(plain, checked);
    }

    #[test]
    fn transfer_labels_majority() {
        // Victim stream at 1K granularity; attacker at 2K: pairs.
        let stream = [true, true, false, true, false, false, true];
        let labels = transfer_labels(&stream, 2_000);
        assert_eq!(labels, vec![true, true, false]); // trailing odd element dropped
    }

    #[test]
    fn describe_mentions_spec() {
        let (traced, splits) = fixture();
        let hmd = Hmd::train(
            Algorithm::Nn,
            arch_spec(),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train[..4],
        );
        assert_eq!(hmd.describe(), "NN[Architectural@5k]");
    }
}
