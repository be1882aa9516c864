//! The `evade_retrain` workload: the paper's Fig 13 evade–retrain game.
//!
//! The untraced run plays it through `rhmd_core::retrain::evade_retrain_game`.
//! The traced run plays the same generations through the public calls that
//! function is built from, with a span around each, and must reproduce the
//! untraced records bit for bit.

use crate::setup::Setup;
use crate::spans::Tracer;
use crate::stats::{is_rate, Digest};
use rhmd_core::evasion::{plan_evasion, EvasionConfig};
use rhmd_core::hmd::Hmd;
use rhmd_core::retrain::{
    detection_quality, evade_retrain_game, evasive_sensitivity, trace_evasive_variants, GameConfig,
    GenerationRecord,
};
use rhmd_core::reveng;
use rhmd_features::vector::FeatureKind;
use rhmd_features::window::{aggregate, RawWindow};
use rhmd_ml::model::Dataset;
use rhmd_ml::trainer::{Algorithm, TrainerConfig};

/// Generations per game: the run length of one repetition.
pub const GENERATIONS: u32 = 4;

/// The Fig 13 game configuration (NN victim, NN surrogate, payload 2,
/// Instructions@10k) with its seed derived from the benchmark seed.
pub fn config(setup: &Setup, seed: u64) -> GameConfig {
    GameConfig {
        algorithm: Algorithm::Nn,
        spec: setup.spec(FeatureKind::Instructions, 10_000),
        surrogate: Algorithm::Nn,
        payload: 2,
        generations: GENERATIONS,
        trainer: setup.trainer,
        seed: seed ^ 0x13,
    }
}

/// Plays the game through the library entry point.
pub fn play(setup: &Setup, config: &GameConfig) -> Vec<GenerationRecord> {
    evade_retrain_game(
        config,
        &setup.traced,
        &setup.splits.victim_train,
        &setup.splits.attacker_train,
        &setup.splits.attacker_test,
    )
}

fn simulated_instructions(traces: &[Vec<RawWindow>]) -> u64 {
    traces.iter().flatten().map(|w| w.instructions).sum()
}

/// Plays the game generation by generation through the public calls
/// `evade_retrain_game` is built from, recording spans and counts.
pub fn play_traced(setup: &Setup, config: &GameConfig, tr: &mut Tracer) -> Vec<GenerationRecord> {
    let traced = &setup.traced;
    let splits = &setup.splits;
    let train_malware = setup.with_label(&splits.victim_train, true);
    let test_malware = setup.test_malware();
    let spec = &config.spec;

    let mut training_data = traced.window_dataset(&splits.victim_train, spec);
    let fit = |tr: &mut Tracer, algorithm: Algorithm, trainer: &TrainerConfig, data: &Dataset| {
        tr.count("ml.train_calls", 1.0);
        tr.count("ml.train_rows", data.len() as f64);
        tr.time("ml.train", || {
            Hmd::train_on_dataset(algorithm, spec.clone(), trainer, data)
        })
    };
    let mut victim = fit(tr, config.algorithm, &config.trainer, &training_data);
    let mut previous_evasive_test: Vec<Vec<RawWindow>> = Vec::new();
    let mut records = Vec::with_capacity(config.generations as usize);

    for generation in 1..=config.generations {
        let span = tr.enter("core.retrain.generation");
        let queried = tr.time("core.reveng.query", || {
            reveng::query_dataset(&mut victim, traced, &splits.attacker_train, spec)
        });
        tr.count("core.reveng.query_rows", queried.len() as f64);
        let surrogate = fit(
            tr,
            config.surrogate,
            &TrainerConfig::with_seed(config.seed ^ u64::from(generation)),
            &queried,
        );
        let plan = tr.time("core.evasion.plan", || {
            plan_evasion(
                &surrogate,
                &EvasionConfig {
                    seed: config.seed ^ (u64::from(generation) << 8),
                    ..EvasionConfig::least_weight(config.payload)
                },
            )
        });
        let (evasive_train, evasive_test) = tr.time("core.retrain.retrace", || {
            (
                trace_evasive_variants(traced, &train_malware, &plan),
                trace_evasive_variants(traced, &test_malware, &plan),
            )
        });
        tr.count(
            "core.retrain.retrace_programs",
            (evasive_train.len() + evasive_test.len()) as f64,
        );
        tr.count(
            "core.retrain.retrace_sim_minstr",
            (simulated_instructions(&evasive_train) + simulated_instructions(&evasive_test)) as f64
                * 1e-6,
        );
        let record = tr.time("core.retrain.judge", || {
            let quality = detection_quality(&mut victim, traced, &splits.attacker_test);
            GenerationRecord {
                generation,
                specificity: quality.specificity,
                sensitivity_unmodified: quality.sensitivity_unmodified,
                sensitivity_current_evasive: evasive_sensitivity(&mut victim, &evasive_test),
                sensitivity_previous_evasive: if previous_evasive_test.is_empty() {
                    quality.sensitivity_unmodified
                } else {
                    evasive_sensitivity(&mut victim, &previous_evasive_test)
                },
            }
        });
        records.push(record);
        tr.time("features.project", || {
            for subs in &evasive_train {
                for w in aggregate(subs, spec.period) {
                    training_data.push(spec.project(&w), true);
                }
            }
        });
        victim = fit(tr, config.algorithm, &config.trainer, &training_data);
        previous_evasive_test = evasive_test;
        tr.exit(span);
    }
    records
}

/// Generations that fail their output check — a rate that is not finite
/// or outside `[0, 1]`, a generation number out of order, or a missing
/// generation.
pub fn failed_generations(records: &[GenerationRecord]) -> u64 {
    let bad = records
        .iter()
        .enumerate()
        .filter(|(i, r)| {
            r.generation as usize != i + 1
                || ![
                    r.specificity,
                    r.sensitivity_unmodified,
                    r.sensitivity_current_evasive,
                    r.sensitivity_previous_evasive,
                ]
                .into_iter()
                .all(is_rate)
        })
        .count();
    (bad + (GENERATIONS as usize).saturating_sub(records.len())) as u64
}

/// Logs every generation's rates.
pub fn describe(records: &[GenerationRecord]) {
    for r in records {
        eprintln!(
            "[e2ebench] generation {}: specificity {:.4} sensitivity {:.4} \
             current-evasive {:.4} previous-evasive {:.4}",
            r.generation,
            r.specificity,
            r.sensitivity_unmodified,
            r.sensitivity_current_evasive,
            r.sensitivity_previous_evasive
        );
    }
}

/// Digest over every field of every record.
pub fn digest(records: &[GenerationRecord]) -> u64 {
    let mut d = Digest::default();
    for r in records {
        d.word(u64::from(r.generation));
        d.f64(r.specificity);
        d.f64(r.sensitivity_unmodified);
        d.f64(r.sensitivity_current_evasive);
        d.f64(r.sensitivity_previous_evasive);
    }
    d.value()
}
