//! Resilient HMDs (paper §7): a pool of diverse base detectors with
//! stochastic, unpredictable switching between them.

use crate::hmd::{BlackBox, Hmd, QuorumVerdict};
use rhmd_data::TracedCorpus;
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_features::window::{aggregate_with_gaps, RawWindow, SUBWINDOW};
use rhmd_ml::trainer::{Algorithm, TrainerConfig};
use rhmd_trace::isa::Opcode;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A randomized ensemble of base detectors.
///
/// At every detection epoch the RHMD draws one base detector (uniformly, or
/// by the configured probabilities), collects features over *that*
/// detector's period, and emits its decision. The attacker observing the
/// decision stream cannot tell which detector produced which decision, which
/// is what makes reverse-engineering provably lossy (paper §8, Theorem 1).
///
/// # Examples
///
/// ```no_run
/// use rhmd_core::hmd::BlackBox;
/// use rhmd_core::rhmd::ResilientHmd;
/// # fn doc(detectors: Vec<rhmd_core::hmd::Hmd>, subs: &[rhmd_features::RawWindow]) {
/// let mut rhmd = ResilientHmd::new(detectors, 42);
/// let decisions = rhmd.label_subwindows(subs);
/// # }
/// ```
pub struct ResilientHmd {
    detectors: Vec<Hmd>,
    probabilities: Vec<f64>,
    rng: SmallRng,
    seed: u64,
}

impl ResilientHmd {
    /// Creates an RHMD switching uniformly among `detectors`.
    ///
    /// # Panics
    ///
    /// Panics if `detectors` is empty.
    pub fn new(detectors: Vec<Hmd>, seed: u64) -> ResilientHmd {
        let n = detectors.len();
        ResilientHmd::with_probabilities(detectors, vec![1.0 / n as f64; n], seed)
    }

    /// Creates an RHMD with explicit selection probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `detectors` is empty, lengths differ, or probabilities are
    /// not a distribution.
    pub fn with_probabilities(
        detectors: Vec<Hmd>,
        probabilities: Vec<f64>,
        seed: u64,
    ) -> ResilientHmd {
        assert!(!detectors.is_empty(), "RHMD needs at least one detector");
        assert_eq!(
            detectors.len(),
            probabilities.len(),
            "one probability per detector"
        );
        assert!(
            probabilities.iter().all(|&p| p >= 0.0)
                && (probabilities.iter().sum::<f64>() - 1.0).abs() < 1e-9,
            "probabilities must form a distribution"
        );
        ResilientHmd {
            detectors,
            probabilities,
            rng: SmallRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The base detectors.
    pub fn detectors(&self) -> &[Hmd] {
        &self.detectors
    }

    /// The selection probabilities.
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Restarts the switching RNG so a fresh query sequence is reproducible.
    pub fn reset(&mut self) {
        self.rng = SmallRng::seed_from_u64(self.seed);
    }

    fn draw_from(probabilities: &[f64], rng: &mut SmallRng) -> usize {
        let mut u = rng.gen::<f64>();
        for (i, &p) in probabilities.iter().enumerate() {
            if u < p {
                return i;
            }
            u -= p;
        }
        probabilities.len() - 1
    }
}

impl ResilientHmd {
    /// Walks a trace on the pool's own switching RNG, stopping at the
    /// last complete epoch.
    fn walk(&mut self, subwindows: &[RawWindow]) -> Vec<(Option<bool>, usize)> {
        Self::walk_with(
            &self.detectors,
            &self.probabilities,
            &mut self.rng,
            subwindows,
            1.0,
            false,
        )
    }

    /// Walks a trace emitting `(vote, subwindows_consumed)` pairs, drawing
    /// the switching stream from `rng`.
    ///
    /// A vote of `None` marks an epoch whose window was truncated by a gap
    /// or whose features failed the sanity check. With `skip_gaps` the
    /// epoch is *skipped* (the cursor still advances) rather than aborting
    /// the walk, so one corrupted window in the middle of a trace does not
    /// silence every detector downstream of it.
    ///
    /// `min_fill` is the minimum fraction of the detector's period an
    /// epoch's window must cover to vote. `1.0` reproduces the strict
    /// behavior on clean streams while still accepting the *over*-full
    /// windows an interrupt-coalescing fault produces (dropped reads merge
    /// into the next surviving one, so those windows span extra
    /// instructions and their rate features renormalize).
    fn walk_with(
        detectors: &[Hmd],
        probabilities: &[f64],
        rng: &mut SmallRng,
        subwindows: &[RawWindow],
        min_fill: f64,
        skip_gaps: bool,
    ) -> Vec<(Option<bool>, usize)> {
        // Pass 1: draw the switching stream and aggregate each epoch's
        // window. Detector draws, the cursor, and every break condition
        // depend only on the RNG and window fill — never on scores — so
        // scoring can be deferred and batched per detector.
        let mut meta: Vec<(usize, bool, usize)> = Vec::new();
        let mut pending: Vec<Vec<RawWindow>> = vec![Vec::new(); detectors.len()];
        let mut cursor = 0usize;
        loop {
            let idx = Self::draw_from(probabilities, rng);
            let detector = &detectors[idx];
            let per = (detector.spec().period / SUBWINDOW) as usize;
            if cursor + per > subwindows.len() {
                break;
            }
            let chunk = &subwindows[cursor..cursor + per];
            let mut windows = aggregate_with_gaps(chunk, detector.spec().period, min_fill);
            if windows.len() != 1 && !skip_gaps {
                break; // truncated tail of a clean stream: end of usable trace
            }
            if windows.len() == 1 {
                pending[idx].push(windows.pop().expect("exactly one window"));
                meta.push((idx, true, per));
            } else {
                meta.push((idx, false, per)); // below the fill floor: abstain
            }
            cursor += per;
        }
        // Pass 2: each detector scores its epochs through the flat batch
        // path; votes are reassembled in epoch order.
        batch_walk_votes(detectors, &meta, &pending)
    }

    /// Per-subwindow decision stream with the switching stream drawn from a
    /// fresh RNG seeded with `stream_seed`. Takes `&self`, so threads can
    /// judge different programs concurrently, and the result depends only
    /// on `(subwindows, stream_seed)` — never on which programs were judged
    /// before. Seeded with [`ResilientHmd::seed`], it replays what
    /// [`BlackBox::label_subwindows`] returns right after a
    /// [`ResilientHmd::reset`].
    pub fn label_stream(&self, subwindows: &[RawWindow], stream_seed: u64) -> Vec<bool> {
        let mut rng = SmallRng::seed_from_u64(stream_seed);
        let walk = Self::walk_with(
            &self.detectors,
            &self.probabilities,
            &mut rng,
            subwindows,
            1.0,
            false,
        );
        expand_votes(walk, subwindows.len())
    }

    /// Pools every epoch of a seeded walk (see [`ResilientHmd::label_stream`])
    /// into a [`QuorumVerdict`], counting corrupted epochs as abstentions
    /// instead of votes. Epochs whose window covers less than `min_fill` of
    /// the drawn detector's period abstain.
    pub fn quorum(
        &self,
        subwindows: &[RawWindow],
        min_fill: f64,
        stream_seed: u64,
    ) -> QuorumVerdict {
        let mut rng = SmallRng::seed_from_u64(stream_seed);
        let votes: Vec<Option<bool>> = Self::walk_with(
            &self.detectors,
            &self.probabilities,
            &mut rng,
            subwindows,
            min_fill,
            true,
        )
        .into_iter()
        .map(|(v, _)| v)
        .collect();
        QuorumVerdict::from_votes(&votes)
    }
}

impl BlackBox for ResilientHmd {
    fn label_subwindows(&mut self, subwindows: &[RawWindow]) -> Vec<bool> {
        expand_votes(self.walk(subwindows), subwindows.len())
    }

    fn decisions(&mut self, subwindows: &[RawWindow]) -> Vec<bool> {
        self.walk(subwindows)
            .into_iter()
            .filter_map(|(d, _)| d)
            .collect()
    }

    fn describe(&self) -> String {
        let parts: Vec<String> = self.detectors.iter().map(|d| d.describe()).collect();
        format!("RHMD{{{}}}", parts.join(", "))
    }
}

impl fmt::Debug for ResilientHmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResilientHmd")
            .field("detectors", &self.describe())
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// Builds the feature specs for a pool of `kinds` × `periods` base
/// detectors (paper §7's construction: two or three features, optionally at
/// 10K and 5K periods).
pub fn pool_specs(kinds: &[FeatureKind], periods: &[u32], opcodes: &[Opcode]) -> Vec<FeatureSpec> {
    let mut specs = Vec::with_capacity(kinds.len() * periods.len());
    for &period in periods {
        for &kind in kinds {
            specs.push(FeatureSpec::new(kind, period, opcodes.to_vec()));
        }
    }
    specs
}

/// Trains one base detector per spec and assembles an RHMD.
///
/// # Panics
///
/// Panics if `specs` is empty.
pub fn build_pool(
    algorithm: Algorithm,
    specs: Vec<FeatureSpec>,
    trainer: &TrainerConfig,
    traced: &TracedCorpus,
    train_indices: &[usize],
    seed: u64,
) -> ResilientHmd {
    assert!(!specs.is_empty(), "pool needs at least one spec");
    let detectors = specs
        .into_iter()
        .map(|spec| Hmd::train(algorithm, spec, trainer, traced, train_indices))
        .collect();
    ResilientHmd::new(detectors, seed)
}

/// Trains a *stochastic* defender pool: the same construction as
/// [`build_pool`], but every base detector's LR/SVM/NN model is quantized
/// with the given config — normally [`rhmd_ml::Rounding::Stochastic`], which
/// reproduces Stochastic-HMDs' computation-level randomness in software.
/// The rounding seed is defender-private: scores stay byte-reproducible for
/// the defender (rounding is a pure function of seed, row, and feature), but
/// an attacker querying the pool sees a decision boundary that jitters per
/// input on top of the detector switching, making the reverse-engineered
/// surrogate strictly noisier than against a deterministic pool.
///
/// # Panics
///
/// Panics if `specs` is empty.
pub fn build_stochastic_pool(
    algorithm: Algorithm,
    specs: Vec<FeatureSpec>,
    trainer: &TrainerConfig,
    quant: rhmd_ml::QuantConfig,
    traced: &TracedCorpus,
    train_indices: &[usize],
    seed: u64,
) -> ResilientHmd {
    let trainer = TrainerConfig {
        quant: Some(quant),
        ..*trainer
    };
    build_pool(algorithm, specs, &trainer, traced, train_indices, seed)
}

/// Non-stationary RHMD (paper §8.3, future work): a large candidate pool of
/// detectors of which only a random *subset* is active at any time; the
/// active subset is re-drawn periodically. Even an attacker who knows the
/// full candidate set cannot iteratively evade the active detectors, because
/// the decision boundary itself moves.
pub struct NonStationaryRhmd {
    candidates: Vec<Hmd>,
    active: Vec<usize>,
    active_size: usize,
    /// Number of detection epochs between subset re-draws.
    redraw_every: u32,
    epochs_since_redraw: u32,
    rng: SmallRng,
    seed: u64,
}

impl NonStationaryRhmd {
    /// Creates a non-stationary pool.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty, `active_size` is zero or exceeds the
    /// candidate count, or `redraw_every` is zero.
    pub fn new(
        candidates: Vec<Hmd>,
        active_size: usize,
        redraw_every: u32,
        seed: u64,
    ) -> NonStationaryRhmd {
        assert!(!candidates.is_empty(), "need at least one candidate");
        assert!(
            active_size >= 1 && active_size <= candidates.len(),
            "active subset size out of range"
        );
        assert!(redraw_every > 0, "redraw interval must be positive");
        let mut pool = NonStationaryRhmd {
            candidates,
            active: Vec::new(),
            active_size,
            redraw_every,
            epochs_since_redraw: 0,
            rng: SmallRng::seed_from_u64(seed),
            seed,
        };
        pool.redraw();
        pool
    }

    /// The full candidate pool.
    pub fn candidates(&self) -> &[Hmd] {
        &self.candidates
    }

    /// Indices of the currently active subset.
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// Restarts the RNG and re-draws the initial subset.
    pub fn reset(&mut self) {
        self.rng = SmallRng::seed_from_u64(self.seed);
        self.epochs_since_redraw = 0;
        self.redraw();
    }

    /// Draws a fresh active subset: a partial Fisher-Yates over candidate
    /// indices.
    fn redraw(&mut self) {
        let mut indices: Vec<usize> = (0..self.candidates.len()).collect();
        for i in 0..self.active_size {
            let j = self.rng.gen_range(i..indices.len());
            indices.swap(i, j);
        }
        indices.truncate(self.active_size);
        self.active = indices;
    }

    /// Walks a trace on the pool's own switching state, emitting
    /// `(vote, subwindows_consumed)` pairs up to the last complete epoch.
    /// The RNG, the active subset and the redraw clock carry over to the
    /// next call.
    fn walk(&mut self, subwindows: &[RawWindow]) -> Vec<(Option<bool>, usize)> {
        // Pass 1: draw the subset/switching stream and collect each epoch's
        // window. The redraw clock advances on every complete epoch — a
        // fact known before scoring — so draws never depend on scores and
        // scoring can be batched per candidate.
        let mut meta: Vec<(usize, bool, usize)> = Vec::new();
        let mut pending: Vec<Vec<RawWindow>> = vec![Vec::new(); self.candidates.len()];
        let mut cursor = 0usize;
        loop {
            if self.epochs_since_redraw >= self.redraw_every {
                self.redraw();
                self.epochs_since_redraw = 0;
            }
            let pick = self.active[self.rng.gen_range(0..self.active.len())];
            let period = self.candidates[pick].spec().period;
            let per = (period / SUBWINDOW) as usize;
            if cursor + per > subwindows.len() {
                break;
            }
            let mut windows = aggregate_with_gaps(&subwindows[cursor..cursor + per], period, 1.0);
            if windows.len() != 1 {
                break; // truncated tail of a clean stream
            }
            self.epochs_since_redraw += 1;
            pending[pick].push(windows.pop().expect("exactly one window"));
            meta.push((pick, true, per));
            cursor += per;
        }
        // Pass 2: batch-score per candidate, reassemble in epoch order.
        batch_walk_votes(&self.candidates, &meta, &pending)
    }
}

impl BlackBox for NonStationaryRhmd {
    fn label_subwindows(&mut self, subwindows: &[RawWindow]) -> Vec<bool> {
        expand_votes(self.walk(subwindows), subwindows.len())
    }

    fn decisions(&mut self, subwindows: &[RawWindow]) -> Vec<bool> {
        self.walk(subwindows)
            .into_iter()
            .filter_map(|(d, _)| d)
            .collect()
    }

    fn describe(&self) -> String {
        format!(
            "NonStationaryRHMD{{{} of {} candidates, redraw every {} epochs}}",
            self.active_size,
            self.candidates.len(),
            self.redraw_every
        )
    }
}

/// Replicates each epoch's vote across the subwindows it consumed;
/// abstaining epochs contribute nothing.
fn expand_votes(walk: Vec<(Option<bool>, usize)>, capacity: usize) -> Vec<bool> {
    let mut out = Vec::with_capacity(capacity);
    for (vote, per) in walk {
        if let Some(decision) = vote {
            out.extend(std::iter::repeat_n(decision, per));
        }
    }
    out
}

/// Scores a drawn epoch stream through each detector's flat batch path and
/// reassembles `(vote, subwindows_consumed)` pairs in epoch order.
///
/// `meta` carries one `(detector index, has_window, subwindows_consumed)`
/// triple per epoch; `pending[d]` holds detector `d`'s windows in epoch
/// order. Epochs without a window abstain. Votes are bit-identical to
/// scoring each epoch inline because the batch path shares the per-row
/// kernels.
fn batch_walk_votes(
    detectors: &[Hmd],
    meta: &[(usize, bool, usize)],
    pending: &[Vec<RawWindow>],
) -> Vec<(Option<bool>, usize)> {
    let mut votes: Vec<std::vec::IntoIter<Option<bool>>> = pending
        .iter()
        .zip(detectors)
        .map(|(windows, d)| d.classify_windows_checked(windows).into_iter())
        .collect();
    meta.iter()
        .map(|&(idx, has_window, per)| {
            let vote = if has_window {
                votes[idx].next().expect("one vote per batched window")
            } else {
                None
            };
            (vote, per)
        })
        .collect()
}

impl fmt::Debug for NonStationaryRhmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NonStationaryRhmd")
            .field("pool", &self.describe())
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmd::ProgramVerdict;
    use rhmd_data::{Corpus, CorpusConfig, Splits};
    use rhmd_uarch::CoreConfig;

    fn fixture() -> (TracedCorpus, Splits) {
        let config = CorpusConfig::tiny();
        let corpus = Corpus::build(&config);
        let splits = Splits::new(&corpus, config.seed);
        let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
        (traced, splits)
    }

    fn two_detector_pool(traced: &TracedCorpus, train: &[usize], seed: u64) -> ResilientHmd {
        let specs = pool_specs(
            &[FeatureKind::Memory, FeatureKind::Architectural],
            &[5_000],
            &[],
        );
        build_pool(
            Algorithm::Lr,
            specs,
            &TrainerConfig::default(),
            traced,
            train,
            seed,
        )
    }

    #[test]
    fn pool_specs_cross_product() {
        let specs = pool_specs(
            &[FeatureKind::Memory, FeatureKind::Instructions],
            &[5_000, 10_000],
            &[Opcode::Xor],
        );
        assert_eq!(specs.len(), 4);
        let labels: Vec<String> = specs.iter().map(FeatureSpec::label).collect();
        assert!(labels.contains(&"Memory@5k".to_owned()));
        assert!(labels.contains(&"Instructions@10k".to_owned()));
    }

    #[test]
    fn label_stream_covers_complete_epochs() {
        let (traced, splits) = fixture();
        let mut rhmd = two_detector_pool(&traced, &splits.victim_train, 1);
        let subs = traced.subwindows(0);
        let stream = rhmd.label_subwindows(subs);
        assert!(!stream.is_empty());
        assert!(stream.len() <= subs.len());
    }

    #[test]
    fn switching_is_stochastic_but_seed_deterministic() {
        let (traced, splits) = fixture();
        let subs = traced.subwindows(0);
        let mut a = two_detector_pool(&traced, &splits.victim_train, 7);
        let mut b = two_detector_pool(&traced, &splits.victim_train, 7);
        assert_eq!(a.label_subwindows(subs), b.label_subwindows(subs));
        // Reset restores the stream.
        let first = {
            a.reset();
            a.label_subwindows(subs)
        };
        a.reset();
        assert_eq!(a.label_subwindows(subs), first);
    }

    #[test]
    fn seeded_walks_match_fresh_serial_walks() {
        let (traced, splits) = fixture();
        let kinds = [FeatureKind::Memory, FeatureKind::Architectural];
        let detectors: Vec<Hmd> = pool_specs(&kinds, &[5_000, 10_000], &[])
            .into_iter()
            .map(|spec| {
                Hmd::train(
                    Algorithm::Lr,
                    spec,
                    &TrainerConfig::default(),
                    &traced,
                    &splits.victim_train,
                )
            })
            .collect();
        for seed in [1u64, 42, 0x5eed] {
            let mut rhmd = ResilientHmd::new(detectors.clone(), seed);
            for i in 0..3 {
                let subs = traced.subwindows(i);
                // Seeded with the construction seed, the seeded walks replay
                // exactly what the pool's own RNG produces after a reset.
                rhmd.reset();
                let serial_labels = rhmd.label_subwindows(subs);
                assert_eq!(
                    rhmd.label_stream(subs, seed),
                    serial_labels,
                    "seed {seed}, program {i}"
                );
                rhmd.reset();
                let votes: Vec<Option<bool>> = ResilientHmd::walk_with(
                    &rhmd.detectors,
                    &rhmd.probabilities,
                    &mut rhmd.rng,
                    subs,
                    1.0,
                    true,
                )
                .into_iter()
                .map(|(v, _)| v)
                .collect();
                let serial_quorum = QuorumVerdict::from_votes(&votes);
                assert_eq!(
                    rhmd.quorum(subs, 1.0, seed),
                    serial_quorum,
                    "seed {seed}, program {i}"
                );
                // And they are order-free: judging another program first,
                // seeded or on the pool's own RNG, changes nothing.
                let other = traced.subwindows(i + 1);
                let _ = rhmd.quorum(other, 1.0, 7);
                let _ = rhmd.label_subwindows(other);
                assert_eq!(rhmd.label_stream(subs, seed), serial_labels);
                assert_eq!(rhmd.quorum(subs, 1.0, seed), serial_quorum);
            }
        }
    }

    /// The per-epoch, unbatched walk: one subset check, one draw, one
    /// aggregation and one inline score per epoch, over the pool's own
    /// switching state. Returns `(decision, subwindows_consumed)` per
    /// voting epoch.
    fn step_walk(pool: &mut NonStationaryRhmd, subwindows: &[RawWindow]) -> Vec<(bool, usize)> {
        let mut out = Vec::new();
        let mut cursor = 0usize;
        loop {
            if pool.epochs_since_redraw >= pool.redraw_every {
                pool.redraw();
                pool.epochs_since_redraw = 0;
            }
            let pick = pool.active[pool.rng.gen_range(0..pool.active.len())];
            let detector = &pool.candidates[pick];
            let per = (detector.spec().period / SUBWINDOW) as usize;
            if cursor + per > subwindows.len() {
                break;
            }
            let windows = aggregate_with_gaps(
                &subwindows[cursor..cursor + per],
                detector.spec().period,
                1.0,
            );
            if windows.len() != 1 {
                break;
            }
            pool.epochs_since_redraw += 1;
            if let Some(decision) = detector.classify_window_checked(&windows[0]) {
                out.push((decision, per));
            }
            cursor += per;
        }
        out
    }

    #[test]
    fn non_stationary_state_carries_across_calls_like_step_walk() {
        let (traced, splits) = fixture();
        let kinds = [FeatureKind::Memory, FeatureKind::Architectural];
        let candidates: Vec<Hmd> = pool_specs(&kinds, &[5_000, 10_000], &[])
            .into_iter()
            .map(|spec| {
                Hmd::train(
                    Algorithm::Lr,
                    spec,
                    &TrainerConfig::default(),
                    &traced,
                    &splits.victim_train,
                )
            })
            .collect();
        for seed in [1u64, 42, 0x5eed] {
            // No reset anywhere: the active subset, the redraw clock and
            // the RNG carry from one call (and one program) to the next.
            let mut pool = NonStationaryRhmd::new(candidates.clone(), 2, 3, seed);
            let mut oracle = NonStationaryRhmd::new(candidates.clone(), 2, 3, seed);
            for i in 0..3 {
                let subs = traced.subwindows(i);
                let expected: Vec<bool> = step_walk(&mut oracle, subs)
                    .into_iter()
                    .flat_map(|(d, per)| std::iter::repeat_n(d, per))
                    .collect();
                assert_eq!(
                    pool.label_subwindows(subs),
                    expected,
                    "seed {seed}, program {i}"
                );
                let expected: Vec<bool> = step_walk(&mut oracle, subs)
                    .into_iter()
                    .map(|(d, _)| d)
                    .collect();
                assert_eq!(pool.decisions(subs), expected, "seed {seed}, program {i}");
                assert_eq!(pool.active(), oracle.active(), "seed {seed}, program {i}");
                assert_eq!(pool.epochs_since_redraw, oracle.epochs_since_redraw);
            }
        }
    }

    #[test]
    fn stochastic_pool_is_seed_deterministic_and_detects() {
        let (traced, splits) = fixture();
        let specs = || {
            pool_specs(
                &[FeatureKind::Memory, FeatureKind::Architectural],
                &[5_000],
                &[],
            )
        };
        let quant = rhmd_ml::QuantConfig::stochastic(rhmd_ml::QuantBits::Int16, 0xd1ce);
        let build = || {
            build_stochastic_pool(
                Algorithm::Lr,
                specs(),
                &TrainerConfig::default(),
                quant,
                &traced,
                &splits.victim_train,
                9,
            )
        };
        let subs = traced.subwindows(0);
        let mut a = build();
        let mut b = build();
        // Stochastic rounding is seeded: two identically built pools emit
        // byte-identical decision streams.
        assert_eq!(a.label_subwindows(subs), b.label_subwindows(subs));
        // And the pool still detects: program accuracy beats chance.
        let labels = traced.corpus().labels();
        a.reset();
        let mut correct = 0usize;
        let mut total = 0usize;
        for &i in &splits.attacker_test {
            let stream = a.label_subwindows(traced.subwindows(i));
            let verdict = ProgramVerdict::from_decisions(&stream);
            if verdict.is_malware() == labels[i] {
                correct += 1;
            }
            total += 1;
        }
        assert!(
            correct as f64 / total as f64 > 0.6,
            "stochastic pool program accuracy {correct}/{total}"
        );
    }

    #[test]
    fn rhmd_detection_beats_chance() {
        let (traced, splits) = fixture();
        let mut rhmd = two_detector_pool(&traced, &splits.victim_train, 3);
        let labels = traced.corpus().labels();
        let mut correct = 0usize;
        let mut total = 0usize;
        for &i in &splits.attacker_test {
            let stream = rhmd.label_subwindows(traced.subwindows(i));
            let verdict = ProgramVerdict::from_decisions(&stream);
            if verdict.is_malware() == labels[i] {
                correct += 1;
            }
            total += 1;
        }
        assert!(
            correct as f64 / total as f64 > 0.6,
            "program accuracy {correct}/{total}"
        );
    }

    #[test]
    fn mixed_periods_consume_variable_epochs() {
        let (traced, splits) = fixture();
        let specs = pool_specs(
            &[FeatureKind::Memory, FeatureKind::Architectural],
            &[5_000, 10_000],
            &[],
        );
        let mut rhmd = build_pool(
            Algorithm::Lr,
            specs,
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
            5,
        );
        assert_eq!(rhmd.detectors().len(), 4);
        let stream = rhmd.label_subwindows(traced.subwindows(1));
        assert!(!stream.is_empty());
    }

    #[test]
    fn non_stationary_pool_runs_and_redraws() {
        let (traced, splits) = fixture();
        let kinds = [FeatureKind::Memory, FeatureKind::Architectural, FeatureKind::Instructions];
        let candidates: Vec<Hmd> = pool_specs(&kinds, &[5_000, 10_000], &[Opcode::Xor, Opcode::Fpu])
            .into_iter()
            .map(|spec| {
                Hmd::train(
                    Algorithm::Lr,
                    spec,
                    &TrainerConfig::default(),
                    &traced,
                    &splits.victim_train,
                )
            })
            .collect();
        let mut pool = NonStationaryRhmd::new(candidates, 3, 2, 42);
        assert_eq!(pool.active().len(), 3);
        let first_active = pool.active().to_vec();
        let subs = traced.subwindows(0);
        let stream = pool.label_subwindows(subs);
        assert!(!stream.is_empty());
        // After several epochs the active subset should have been re-drawn.
        assert!(
            pool.active() != first_active.as_slice() || {
                // Redraw can coincidentally pick the same subset; force more
                // epochs and check the RNG advanced.
                let more = pool.decisions(subs);
                !more.is_empty()
            }
        );
        // Determinism via reset.
        pool.reset();
        let replay = pool.label_subwindows(subs);
        pool.reset();
        assert_eq!(pool.label_subwindows(subs), replay);
    }

    #[test]
    fn corrupted_epochs_are_skipped_not_fatal() {
        use rhmd_features::window::apply_faults;
        use rhmd_uarch::faults::{FaultConfig, FaultModel};

        let (traced, splits) = fixture();
        let subs = traced.subwindows(0).to_vec();
        let mut rhmd = two_detector_pool(&traced, &splits.victim_train, 11);

        // Dropped reads coalesce into over-full windows: shorter stream,
        // but the surviving epochs still vote.
        let drops = FaultModel::new(FaultConfig::dropping(0.3), 0xfa17);
        let dropped = apply_faults(&subs, &drops);
        assert!(dropped.len() < subs.len(), "drops must coalesce reads");
        let q = rhmd.quorum(&dropped, 1.0, rhmd.seed());
        assert!(q.voted > 0, "walk must vote on coalesced windows");

        // A lost mid-stream window drags its epoch below the fill floor:
        // that epoch abstains, epochs on either side keep voting.
        let mut corrupted = subs.clone();
        let mid = corrupted.len() / 2;
        corrupted[mid] = rhmd_features::window::RawWindow::default();
        let q = rhmd.quorum(&corrupted, 1.0, rhmd.seed());
        assert!(q.abstained > 0, "garbage windows should force abstentions");
        assert!(q.voted > 0, "walk must continue past corrupted epochs");

        // A clean stream matches decisions().
        let clean = rhmd.quorum(&subs, 1.0, rhmd.seed());
        let plain = rhmd.decisions(&subs);
        assert_eq!(clean.voted, plain.len());
    }

    #[test]
    #[should_panic(expected = "active subset size")]
    fn non_stationary_validates_subset_size() {
        let (traced, splits) = fixture();
        let pool = two_detector_pool(&traced, &splits.victim_train, 1);
        let _ = NonStationaryRhmd::new(pool.detectors().to_vec(), 5, 1, 0);
    }

    #[test]
    #[should_panic(expected = "at least one detector")]
    fn empty_pool_rejected() {
        let _ = ResilientHmd::new(vec![], 0);
    }

    #[test]
    #[should_panic(expected = "distribution")]
    fn bad_probabilities_rejected() {
        let (traced, splits) = fixture();
        let pool = two_detector_pool(&traced, &splits.victim_train, 1);
        let detectors = pool.detectors().to_vec();
        let _ = ResilientHmd::with_probabilities(detectors, vec![0.9, 0.9], 0);
    }
}
