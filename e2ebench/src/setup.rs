//! Set-up shared by every workload: build the corpus, trace it through the
//! core model, split it, and select the opcode table — the same steps the
//! paper's experiments start from.

use crate::spans::Tracer;
use crate::stats::median;
use rhmd_data::{Corpus, CorpusConfig, Splits, TracedCorpus};
use rhmd_features::select::select_top_delta_opcodes;
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_ml::trainer::TrainerConfig;
use rhmd_trace::isa::Opcode;
use rhmd_uarch::CoreConfig;
use std::collections::BTreeMap;
use std::time::Instant;

/// The traced corpus and everything derived from it before a timed phase.
#[derive(Debug)]
pub struct Setup {
    /// Every program traced once.
    pub traced: TracedCorpus,
    /// Victim / attacker-train / attacker-test split.
    pub splits: Splits,
    /// Top-delta opcodes selected on the victim training set.
    pub opcodes: Vec<Opcode>,
    /// Shared training hyperparameters.
    pub trainer: TrainerConfig,
}

impl Setup {
    /// Builds the set-up, recording one span per layer call.
    pub fn build(config: CorpusConfig, tr: &mut Tracer) -> Setup {
        let corpus = tr.time("data.corpus_build", || Corpus::build(&config));
        let splits = Splits::new(&corpus, config.seed);
        let traced = tr.time("data.trace", || {
            TracedCorpus::trace(corpus, config.limits(), CoreConfig::default())
        });
        let opcodes = tr.time("features.select", || {
            let labels = traced.corpus().labels();
            let collect = |want: bool| -> Vec<_> {
                splits
                    .victim_train
                    .iter()
                    .filter(|&&i| labels[i] == want)
                    .flat_map(|&i| traced.subwindows(i).to_vec())
                    .collect()
            };
            select_top_delta_opcodes(&collect(true), &collect(false), 16)
        });
        let setup = Setup {
            traced,
            splits,
            opcodes,
            trainer: TrainerConfig::with_seed(config.seed ^ 0x7a61),
        };
        if tr.enabled() {
            let (instructions, windows) = setup.simulated();
            tr.count("data.sim_minstr", instructions as f64 * 1e-6);
            tr.count("data.windows", windows as f64);
        }
        setup
    }

    /// Simulated instructions and subwindows over the whole traced corpus.
    pub fn simulated(&self) -> (u64, usize) {
        (0..self.traced.corpus().len())
            .map(|i| self.traced.subwindows(i))
            .fold((0, 0), |(n, w), subs| {
                (
                    n + subs.iter().map(|s| s.instructions).sum::<u64>(),
                    w + subs.len(),
                )
            })
    }

    /// A single-kind feature spec over the selected opcodes.
    pub fn spec(&self, kind: FeatureKind, period: u32) -> FeatureSpec {
        FeatureSpec::new(kind, period, self.opcodes.clone())
    }

    /// Program indices of `indices` with the given label.
    pub fn with_label(&self, indices: &[usize], malware: bool) -> Vec<usize> {
        let labels = self.traced.corpus().labels();
        indices
            .iter()
            .copied()
            .filter(|&i| labels[i] == malware)
            .collect()
    }

    /// Malware of the attacker-test split.
    pub fn test_malware(&self) -> Vec<usize> {
        self.with_label(&self.splits.attacker_test, true)
    }
}

/// A workload's set-up as measured: the last built value plus the median
/// wall clock and the median per-layer self times over all repetitions.
#[derive(Debug)]
pub struct Measured<T> {
    /// The set-up built by the final repetition.
    pub value: T,
    /// Median wall clock of one set-up, seconds.
    pub median_s: f64,
    /// Median self seconds per span name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Counts recorded by the final repetition (traced runs only).
    pub counts: BTreeMap<&'static str, f64>,
}

/// Runs `build` `reps` times (at least once), timing each repetition and
/// dropping every value but the last, so the set-up time is a median and
/// the resident peak reflects one set-up.
pub fn measure<T>(reps: usize, traced: bool, build: impl Fn(&mut Tracer) -> T) -> Measured<T> {
    let mut times = Vec::new();
    let mut per_layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last = None;
    let mut counts = BTreeMap::new();
    for _ in 0..reps.max(1) {
        drop(last.take());
        let mut tr = Tracer::new(traced);
        let start = Instant::now();
        let root = tr.enter("setup");
        let value = build(&mut tr);
        tr.exit(root);
        times.push(start.elapsed().as_secs_f64());
        for (name, s) in tr.self_seconds("setup") {
            per_layer.entry(name).or_default().push(s);
        }
        counts = tr.counts().clone();
        last = Some(value);
    }
    Measured {
        value: last.expect("at least one repetition"),
        median_s: median(&times),
        layers: per_layer
            .into_iter()
            .map(|(k, v)| (k, median(&v)))
            .collect(),
        counts,
    }
}
