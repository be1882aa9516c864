//! The `evasion_campaign` workload: reverse-engineer → inject → re-judge
//! (paper §4–5, §7; Figs 8, 9 and 16), against a single LR HMD and against
//! a three-feature, two-period RHMD pool.
//!
//! Each target is reverse-engineered with an LR surrogate; least-weight
//! block-level plans at every payload in [`PAYLOADS`] are run through
//! `evade_corpus` on every malware program outside the victim's training
//! split (attacker-train and attacker-test), and `measure_overhead` prices
//! each single-HMD plan on the test malware, one program at a time as
//! Fig 9 does. One (target, payload) pair on one corpus is one trial; a
//! campaign covers [`CORPORA`] corpora.

use crate::setup::Setup;
use crate::spans::Tracer;
use crate::stats::{is_rate, Digest};
use rhmd_core::evasion::{
    evade_corpus, measure_overhead, plan_evasion, EvasionConfig, EvasionTrial, OverheadReport,
};
use rhmd_core::hmd::{BlackBox, Hmd, ProgramVerdict};
use rhmd_core::reveng;
use rhmd_core::rhmd::{build_pool, pool_specs, ResilientHmd};
use rhmd_data::parallel_map;
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_ml::model::Dataset;
use rhmd_ml::trainer::{Algorithm, TrainerConfig};
use rhmd_trace::exec::{CountingSink, ExecLimits};
use rhmd_trace::inject::{apply, InjectionPlan};

/// Instructions injected per basic block, one trial each.
pub const PAYLOADS: [usize; 4] = [1, 2, 5, 10];
/// Trials per corpus: every payload against both targets.
pub const TRIALS: usize = 2 * PAYLOADS.len();
/// Independently generated corpora one campaign attacks. Which opcodes the
/// surrogates pick, and so what the rewritten programs cost to simulate,
/// depends on the corpus; summing over three corpora keeps one seed's
/// picks from setting the run time.
pub const CORPORA: usize = 3;

const POOL_KINDS: [FeatureKind; 3] = [
    FeatureKind::Memory,
    FeatureKind::Instructions,
    FeatureKind::Architectural,
];
const POOL_PERIODS: [u32; 2] = [10_000, 5_000];

/// The attacked feature spec: Instructions@10k, as in the paper's evasion
/// experiments.
fn spec(setup: &Setup) -> FeatureSpec {
    setup.spec(FeatureKind::Instructions, 10_000)
}

/// The attacked programs: every malware program outside the victim's
/// training split.
fn attacked(setup: &Setup) -> Vec<usize> {
    let mut programs = setup.with_label(&setup.splits.attacker_train, true);
    programs.extend(setup.test_malware());
    programs.sort_unstable();
    programs
}

/// The single-HMD victim's training set (Instructions@10k windows of the
/// victim-training programs).
fn victim_data(setup: &Setup) -> Dataset {
    setup
        .traced
        .window_dataset(&setup.splits.victim_train, &spec(setup))
}

/// Trains the single-HMD victim (LR) — `Hmd::train` split in two so the
/// traced run can count its rows.
fn victim(setup: &Setup, data: &Dataset) -> Hmd {
    Hmd::train_on_dataset(Algorithm::Lr, spec(setup), &setup.trainer, data)
}

/// The RHMD target: LR detectors over every pool kind and period.
fn pool(setup: &Setup, seed: u64) -> ResilientHmd {
    build_pool(
        Algorithm::Lr,
        pool_specs(&POOL_KINDS, &POOL_PERIODS, &setup.opcodes),
        &setup.trainer,
        &setup.traced,
        &setup.splits.victim_train,
        seed ^ 0x5eed,
    )
}

/// One trial's outputs.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Programs attacked (the denominator of `initially_detected`).
    pub attacked: usize,
    /// Programs priced by `measure_overhead` (single-HMD trials).
    pub priced: usize,
    /// 0 = single HMD, 1 = RHMD pool.
    pub target: usize,
    /// Instructions injected per block.
    pub payload: usize,
    /// The plan the surrogate produced.
    pub plan: InjectionPlan,
    /// Detection before and after injection.
    pub evasion: EvasionTrial,
    /// Overhead of the plan on every test malware program (single-HMD
    /// trials only).
    pub overheads: Vec<OverheadReport>,
}

impl Trial {
    /// Output check: detection rate and overheads finite and in range.
    pub fn ok(&self) -> bool {
        let e = &self.evasion;
        let finite_nonneg = |x: f64| x.is_finite() && x >= 0.0;
        e.initially_detected <= self.attacked
            && e.detected_after <= e.initially_detected
            && is_rate(e.detection_rate())
            && finite_nonneg(e.mean_static_overhead)
            && finite_nonneg(e.mean_dynamic_overhead)
            && self.overheads.len() == if self.target == 0 { self.priced } else { 0 }
            && self.overheads.iter().all(|o| {
                finite_nonneg(o.static_overhead)
                    && finite_nonneg(o.dynamic_overhead)
                    && o.time_overhead.is_finite()
            })
    }
}

/// Runs the campaign, training the victim, building the RHMD pool and
/// reverse-engineering both inside the timed phase.
pub fn run(setup: &Setup, seed: u64, tr: &mut Tracer) -> Vec<Trial> {
    let data = victim_data(setup);
    tr.count("ml.train_calls", 1.0);
    tr.count("ml.train_rows", data.len() as f64);
    let mut single = tr.time("ml.train", || victim(setup, &data));
    let mut pool = tr.time("core.rhmd.pool_build", || pool(setup, seed));
    let mut trials = attack(setup, &mut single, |_| {}, 0, seed, tr);
    trials.extend(attack(setup, &mut pool, ResilientHmd::reset, 1, seed, tr));
    trials
}

fn attack<T: BlackBox>(
    setup: &Setup,
    target: &mut T,
    reset: impl Fn(&mut T),
    index: usize,
    seed: u64,
    tr: &mut Tracer,
) -> Vec<Trial> {
    let spec = spec(setup);
    let malware = attacked(setup);
    reset(target);
    let queried = tr.time("core.reveng.query", || {
        reveng::query_dataset(target, &setup.traced, &setup.splits.attacker_train, &spec)
    });
    tr.count("core.reveng.query_rows", queried.len() as f64);
    tr.count("ml.train_calls", 1.0);
    tr.count("ml.train_rows", queried.len() as f64);
    let surrogate = tr.time("ml.train", || {
        Hmd::train_on_dataset(
            Algorithm::Lr,
            spec.clone(),
            &TrainerConfig::with_seed(seed ^ (0x16 + index as u64)),
            &queried,
        )
    });
    PAYLOADS
        .iter()
        .map(|&payload| {
            let plan = tr.time("core.evasion.plan", || {
                plan_evasion(
                    &surrogate,
                    &EvasionConfig {
                        seed: seed ^ ((payload as u64) << 8) ^ index as u64,
                        ..EvasionConfig::least_weight(payload)
                    },
                )
            });
            reset(target);
            let evasion = tr.time("core.evasion.evade", || {
                evade_corpus(target, &setup.traced, &malware, &plan)
            });
            tr.count("core.evasion.programs", evasion.initially_detected as f64);
            let overheads = if index == 0 {
                tr.time("core.evasion.overhead", || {
                    setup
                        .test_malware()
                        .iter()
                        .map(|&i| {
                            measure_overhead(
                                setup.traced.corpus().program(i),
                                &plan,
                                setup.traced.limits(),
                            )
                        })
                        .collect()
                })
            } else {
                Vec::new()
            };
            Trial {
                attacked: malware.len(),
                priced: setup.test_malware().len(),
                target: index,
                payload,
                plan,
                evasion,
                overheads,
            }
        })
        .collect()
}

/// Exact simulated instructions behind a campaign, recomputed after the
/// timed phase by functional execution (the instruction stream does not
/// depend on the core model): `(evade_corpus re-traces, measure_overhead
/// runs)`. The programs `evade_corpus` re-traced are found by replaying its
/// first step against a reset target; `None` if the replay disagrees with
/// a trial's `initially_detected`.
pub fn simulated_instructions(setup: &Setup, seed: u64, trials: &[Trial]) -> Option<(u64, u64)> {
    let malware = attacked(setup);
    let test = setup.test_malware();
    let limits = setup.traced.limits();
    let mut single = victim(setup, &victim_data(setup));
    let mut pool = pool(setup, seed);
    let run = |p: &rhmd_trace::Program, limits: ExecLimits| {
        p.execute(limits, &mut CountingSink::default()).instructions
    };
    let (mut retrace, mut overhead) = (0u64, 0u64);
    for trial in trials {
        let detected: Vec<usize> = if trial.target == 0 {
            detected(&mut single, setup, &malware)
        } else {
            pool.reset();
            detected(&mut pool, setup, &malware)
        };
        if detected.len() != trial.evasion.initially_detected {
            return None;
        }
        let programs: Vec<_> = malware
            .iter()
            .map(|&i| setup.traced.corpus().program(i))
            .collect();
        let counts = parallel_map(&programs, |p| {
            let (modified, st) = apply(p, &trial.plan);
            let bounded = ExecLimits::original_instructions(limits.max_instructions.min(1 << 40));
            let rewritten = ExecLimits {
                max_instructions: (limits.max_instructions as f64 * (1.05 + st.ratio())) as u64,
                ..limits
            };
            (
                run(&modified, rewritten),
                run(p, bounded) + run(&modified, bounded),
            )
        });
        for (k, (re, ov)) in counts.into_iter().enumerate() {
            if detected.contains(&malware[k]) {
                retrace += re;
            }
            if trial.target == 0 && test.contains(&malware[k]) {
                overhead += ov;
            }
        }
    }
    Some((retrace, overhead))
}

fn detected(target: &mut dyn BlackBox, setup: &Setup, malware: &[usize]) -> Vec<usize> {
    malware
        .iter()
        .copied()
        .filter(|&i| {
            let stream = target.label_subwindows(setup.traced.subwindows(i));
            ProgramVerdict::from_decisions(&stream).is_malware()
        })
        .collect()
}

/// Trials that fail their output check.
pub fn failed_trials(trials: &[Trial]) -> u64 {
    trials.iter().filter(|t| !t.ok()).count() as u64
}

/// Logs every trial's detection before and after injection.
pub fn describe(trials: &[Trial]) {
    for t in trials {
        eprintln!(
            "[e2ebench] {} payload {:>2}: detected {} -> {} (rate {:.4}), mean static overhead {:.4}",
            ["hmd", "rhmd"][t.target],
            t.payload,
            t.evasion.initially_detected,
            t.evasion.detected_after,
            t.evasion.detection_rate(),
            t.evasion.mean_static_overhead
        );
    }
}

/// Digest over every trial's outputs.
pub fn digest(trials: &[Trial]) -> u64 {
    let mut d = Digest::default();
    for t in trials {
        d.word(t.target as u64);
        d.word(t.payload as u64);
        d.word(t.evasion.initially_detected as u64);
        d.word(t.evasion.detected_after as u64);
        d.f64(t.evasion.mean_static_overhead);
        d.f64(t.evasion.mean_dynamic_overhead);
        for o in &t.overheads {
            d.f64(o.static_overhead);
            d.f64(o.dynamic_overhead);
            d.f64(o.time_overhead);
        }
    }
    d.value()
}
