//! Developing evasive malware (paper §5): turning a (reverse-engineered)
//! detector model into an instruction-injection plan, and measuring how well
//! the rewritten malware hides.

use crate::hmd::{BlackBox, Hmd, ProgramVerdict};
use rhmd_data::{parallel_map, TracedCorpus};
use rhmd_features::stream::collect_subwindows;
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_features::window::{RawWindow, MEM_BINS};
use rhmd_ml::linear::LogisticRegression;
use rhmd_ml::mlp::Mlp;
use rhmd_ml::svm::LinearSvm;
use rhmd_trace::exec::{ExecLimits, ExecSummary};
use rhmd_trace::inject::{apply, InjectionPlan, Placement, StaticOverhead};
use rhmd_trace::isa::Opcode;
use rhmd_trace::Program;
use rhmd_uarch::events::CounterSet;
use rhmd_uarch::timing::TimingModel;
use rhmd_uarch::CoreConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How the payload instructions are chosen (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Uniformly random injectable opcodes — the control experiment (Fig 6).
    Random,
    /// Repeat the single most negative-weight feature's instruction
    /// (Figs 8a/8b).
    LeastWeight,
    /// Sample among all negative-weight instructions with probability
    /// proportional to |weight| (Fig 10).
    Weighted,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Random => f.write_str("random"),
            Strategy::LeastWeight => f.write_str("least-weight"),
            Strategy::Weighted => f.write_str("weighted"),
        }
    }
}

/// Per-dimension linear(ized) weights of a detector model, in raw feature
/// space.
///
/// `None` when the model exposes no usable weight structure (e.g. a decision
/// tree).
pub fn extract_weights(hmd: &Hmd) -> Option<Vec<f64>> {
    extract_weights_at(hmd, None)
}

/// Like [`extract_weights`], but linearizes non-linear models *around a
/// reference point* (typically the attacker's malware centroid) instead of
/// using the paper's global weight-collapsing heuristic. The local gradient
/// gives a far better evasive direction against NN victims, whose decision
/// surfaces are non-monotone.
pub fn extract_weights_at(hmd: &Hmd, reference: Option<&[f64]>) -> Option<Vec<f64>> {
    let any = hmd.model().as_any();
    if let Some(lr) = any.downcast_ref::<LogisticRegression>() {
        return Some(lr.input_space_weights().0);
    }
    if let Some(svm) = any.downcast_ref::<LinearSvm>() {
        return Some(svm.input_space_weights().0);
    }
    if let Some(nn) = any.downcast_ref::<Mlp>() {
        return Some(match reference {
            // Local linearization at the malware centroid.
            Some(point) => nn.input_gradient(point),
            // The paper's heuristic: collapse the network into one weight
            // per input by summing products along all paths (§5).
            None => nn.collapsed_input_weights(),
        });
    }
    None
}

/// The weights of a spec's components, split per feature kind.
///
/// Multi-kind (combined) specs concatenate dimensions; this view recovers
/// which slice belongs to which kind so a strategy can target each.
#[derive(Debug, Clone)]
pub struct WeightView<'a> {
    spec: &'a FeatureSpec,
    weights: &'a [f64],
}

impl<'a> WeightView<'a> {
    /// Creates a view.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not match the spec's dimensionality.
    pub fn new(spec: &'a FeatureSpec, weights: &'a [f64]) -> WeightView<'a> {
        assert_eq!(weights.len(), spec.dims(), "weights do not match spec dims");
        WeightView { spec, weights }
    }

    fn kind_slice(&self, wanted: FeatureKind) -> Option<&'a [f64]> {
        let mut offset = 0usize;
        for kind in &self.spec.kinds {
            let len = match kind {
                FeatureKind::Instructions => self.spec.opcodes.len(),
                FeatureKind::Memory => MEM_BINS,
                FeatureKind::Architectural => rhmd_uarch::events::COUNTER_DIMS,
            };
            if *kind == wanted {
                return Some(&self.weights[offset..offset + len]);
            }
            offset += len;
        }
        None
    }

    /// `(opcode, weight)` pairs of the Instructions component, if present.
    pub fn opcode_weights(&self) -> Option<Vec<(Opcode, f64)>> {
        let slice = self.kind_slice(FeatureKind::Instructions)?;
        Some(
            self.spec
                .opcodes
                .iter()
                .copied()
                .zip(slice.iter().copied())
                .collect(),
        )
    }

    /// `(delta_bin, weight)` pairs of the Memory component, if present.
    pub fn memory_bin_weights(&self) -> Option<Vec<(usize, f64)>> {
        let slice = self.kind_slice(FeatureKind::Memory)?;
        Some(slice.iter().copied().enumerate().collect())
    }
}

/// Everything needed to build payloads against one detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvasionConfig {
    /// Payload-selection strategy.
    pub strategy: Strategy,
    /// Instructions injected per site.
    pub count: usize,
    /// Block-level or function-level placement.
    pub placement: Placement,
    /// RNG seed (random / weighted strategies).
    pub seed: u64,
}

impl EvasionConfig {
    /// Least-weight block-level injection of `count` instructions — the
    /// paper's headline attack.
    pub fn least_weight(count: usize) -> EvasionConfig {
        EvasionConfig {
            strategy: Strategy::LeastWeight,
            count,
            placement: Placement::EveryBlock,
            seed: 0xe7a5,
        }
    }
}

/// Builds an injection plan against `model_hmd` (usually the attacker's
/// reverse-engineered surrogate).
///
/// The payload targets whatever feature kinds the surrogate observes:
///
/// * **Instructions** — inject negative-weight opcodes;
/// * **Memory** — inject loads/stores whose scratch stride lands in the most
///   negative-weight delta bin;
/// * **Architectural** — fall back to `nop` dilution (the paper notes these
///   effects "may not be directly controllable").
///
/// With no usable weights (decision-tree model) or the `Random` strategy,
/// payloads are uniformly random injectable opcodes.
pub fn plan_evasion(model_hmd: &Hmd, config: &EvasionConfig) -> InjectionPlan {
    plan_evasion_at(model_hmd, config, None)
}

/// Like [`plan_evasion`], linearizing non-linear surrogates around
/// `reference` (see [`extract_weights_at`]).
pub fn plan_evasion_at(
    model_hmd: &Hmd,
    config: &EvasionConfig,
    reference: Option<&[f64]>,
) -> InjectionPlan {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let weights = extract_weights_at(model_hmd, reference);
    let spec = model_hmd.spec();

    let mut payload: Vec<Opcode> = Vec::with_capacity(config.count);
    let mut mem_delta = 64u32;

    let injectable: Vec<Opcode> = Opcode::ALL
        .iter()
        .copied()
        .filter(|op| op.is_injectable())
        .collect();

    match (&weights, config.strategy) {
        (Some(w), Strategy::LeastWeight | Strategy::Weighted) => {
            let view = WeightView::new(spec, w);
            // Memory component: steer the scratch stride into the most
            // negative bin. Bin b >= 1 covers [2^(b-1), 2^b).
            if let Some(bins) = view.memory_bin_weights() {
                if let Some(&(bin, w)) = bins
                    .iter()
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                {
                    if w < 0.0 {
                        mem_delta = if bin == 0 { 0 } else { 1u32 << (bin - 1).min(30) };
                    }
                }
            }
            if let Some(op_weights) = view.opcode_weights() {
                let negatives: Vec<(Opcode, f64)> = op_weights
                    .iter()
                    .copied()
                    .filter(|&(op, w)| w < 0.0 && op.is_injectable())
                    .collect();
                if negatives.is_empty() {
                    // Nothing pulls toward benign: dilute with nops.
                    payload.extend(std::iter::repeat_n(Opcode::Nop, config.count));
                } else {
                    match config.strategy {
                        Strategy::LeastWeight => {
                            let (op, _) = negatives
                                .iter()
                                .copied()
                                .min_by(|a, b| a.1.total_cmp(&b.1))
                                .expect("non-empty");
                            payload.extend(std::iter::repeat_n(op, config.count));
                        }
                        Strategy::Weighted => {
                            let total: f64 = negatives.iter().map(|(_, w)| w.abs()).sum();
                            for _ in 0..config.count {
                                let mut u = rng.gen::<f64>() * total;
                                let mut chosen = negatives[0].0;
                                for &(op, w) in &negatives {
                                    if u < w.abs() {
                                        chosen = op;
                                        break;
                                    }
                                    u -= w.abs();
                                }
                                payload.push(chosen);
                            }
                        }
                        Strategy::Random => unreachable!(),
                    }
                }
            } else if view.memory_bin_weights().is_some() {
                // Memory-only detector: payload is loads into the steered
                // scratch stride.
                payload.extend(std::iter::repeat_n(Opcode::Load, config.count));
            } else {
                // Architectural-only detector: dilute event rates.
                payload.extend(std::iter::repeat_n(Opcode::Nop, config.count));
            }
        }
        _ => {
            // Random strategy or opaque model: fresh random opcodes at every
            // site (the paper's Fig 6 control).
            let _ = &mut rng;
            return InjectionPlan::random(
                injectable,
                config.count,
                config.placement,
                config.seed,
            )
            .with_mem_delta(mem_delta);
        }
    }

    InjectionPlan::new(payload, config.placement).with_mem_delta(mem_delta)
}

/// Static, dynamic, and time cost of applying a plan to a program
/// (paper Fig 9; the paper's overheads are execution-time based, which the
/// `time_overhead` field models through [`rhmd_uarch::timing::TimingModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadReport {
    /// Text growth relative to the original binary.
    pub static_overhead: f64,
    /// Executed-instruction growth relative to the original stream.
    pub dynamic_overhead: f64,
    /// Estimated execution-time growth (cycle model over the event
    /// counters).
    pub time_overhead: f64,
}

/// Rewrites `program` and measures all three overheads by executing both
/// versions to the same amount of *original* work through the core model.
pub fn measure_overhead(
    program: &Program,
    plan: &InjectionPlan,
    limits: ExecLimits,
) -> OverheadReport {
    let (modified, static_overhead) = apply(program, plan);
    let budget = limits.max_instructions.min(1 << 40);
    let bounded = ExecLimits::original_instructions(budget);

    // Whole-run counters are the sum of the subwindow drains (integer adds).
    // The two runs are independent, each on a fresh core model, so they run
    // concurrently.
    let runs = parallel_map(&[program, &modified], |p| {
        let (windows, summary) = collect_subwindows(p, bounded, CoreConfig::default());
        let mut counters = CounterSet::default();
        for w in &windows {
            counters += w.counters;
        }
        (summary, counters)
    });
    let [(_, base_counters), (summary, mod_counters)]: [_; 2] =
        runs.try_into().expect("one run per program");
    OverheadReport {
        static_overhead: static_overhead.ratio(),
        dynamic_overhead: summary.dynamic_overhead(),
        time_overhead: TimingModel::default().time_overhead(&base_counters, &mod_counters),
    }
}

/// Rewrites `program` with `plan` and re-traces it with `traced`'s limits
/// and core, the instruction budget scaled by the plan's static inflation
/// (plus 5% slack) so the malware still executes (at least) its original
/// workload.
pub(crate) fn trace_rewritten(
    traced: &TracedCorpus,
    program: &Program,
    plan: &InjectionPlan,
) -> (Vec<RawWindow>, ExecSummary, StaticOverhead) {
    let (modified, overhead) = apply(program, plan);
    let (subwindows, summary) = traced.trace_program(&modified, 1.05 + overhead.ratio());
    (subwindows, summary, overhead)
}

/// Outcome of an evasion campaign over the initially-detected malware.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvasionTrial {
    /// Malware programs the victim detected before modification (the
    /// denominator; the paper evaluates evasion on exactly this set).
    pub initially_detected: usize,
    /// Of those, how many the victim still detects after injection.
    pub detected_after: usize,
    /// Mean static overhead across rewritten programs.
    pub mean_static_overhead: f64,
    /// Mean dynamic overhead across rewritten programs.
    pub mean_dynamic_overhead: f64,
}

impl EvasionTrial {
    /// Post-injection detection rate over the initially-detected set
    /// (1.0 when nothing was initially detected — nothing to evade).
    pub fn detection_rate(&self) -> f64 {
        if self.initially_detected == 0 {
            1.0
        } else {
            self.detected_after as f64 / self.initially_detected as f64
        }
    }
}

/// Rewrites every initially-detected malware program in `malware_indices`
/// with `plan` and re-queries `victim` (paper Figs 6, 8, 10, 16).
///
/// Modified programs are re-traced with an instruction budget scaled by the
/// plan's static inflation, so the malware still executes (at least) its
/// original workload.
pub fn evade_corpus(
    victim: &mut dyn BlackBox,
    traced: &TracedCorpus,
    malware_indices: &[usize],
    plan: &InjectionPlan,
) -> EvasionTrial {
    // 1. Which malware does the victim detect unmodified?
    let detected: Vec<usize> = malware_indices
        .iter()
        .copied()
        .filter(|&i| {
            let stream = victim.label_subwindows(traced.subwindows(i));
            ProgramVerdict::from_decisions(&stream).is_malware()
        })
        .collect();

    if detected.is_empty() {
        return EvasionTrial {
            initially_detected: 0,
            detected_after: 0,
            mean_static_overhead: 0.0,
            mean_dynamic_overhead: 0.0,
        };
    }

    // 2. Rewrite and re-trace them (parallel: tracing dominates).
    let programs: Vec<&Program> = detected.iter().map(|&i| traced.corpus().program(i)).collect();
    let rewritten = parallel_map(&programs, |p| trace_rewritten(traced, p, plan));

    // 3. Re-query the victim.
    let mut detected_after = 0usize;
    let mut static_sum = 0.0;
    let mut dynamic_sum = 0.0;
    for (subs, summary, overhead) in &rewritten {
        let stream = victim.label_subwindows(subs);
        if ProgramVerdict::from_decisions(&stream).is_malware() {
            detected_after += 1;
        }
        static_sum += overhead.ratio();
        dynamic_sum += summary.dynamic_overhead();
    }
    let n = rewritten.len() as f64;
    EvasionTrial {
        initially_detected: detected.len(),
        detected_after,
        mean_static_overhead: static_sum / n,
        mean_dynamic_overhead: dynamic_sum / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhmd_data::{Corpus, CorpusConfig, Splits};
    use rhmd_ml::trainer::{Algorithm, TrainerConfig};

    fn fixture() -> (TracedCorpus, Splits, Vec<Opcode>) {
        let config = CorpusConfig::tiny();
        let corpus = Corpus::build(&config);
        let splits = Splits::new(&corpus, config.seed);
        let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
        let labels = traced.corpus().labels();
        let mal: Vec<_> = splits
            .victim_train
            .iter()
            .filter(|&&i| labels[i])
            .flat_map(|&i| traced.subwindows(i).to_vec())
            .collect();
        let ben: Vec<_> = splits
            .victim_train
            .iter()
            .filter(|&&i| !labels[i])
            .flat_map(|&i| traced.subwindows(i).to_vec())
            .collect();
        let opcodes = rhmd_features::select::select_top_delta_opcodes(&mal, &ben, 12);
        (traced, splits, opcodes)
    }

    fn instr_spec(opcodes: &[Opcode]) -> FeatureSpec {
        FeatureSpec::new(FeatureKind::Instructions, 5_000, opcodes.to_vec())
    }

    #[test]
    fn weights_extracted_for_linear_models() {
        let (traced, splits, opcodes) = fixture();
        let spec = instr_spec(&opcodes);
        for algo in [Algorithm::Lr, Algorithm::Svm, Algorithm::Nn] {
            let hmd = Hmd::train(
                algo,
                spec.clone(),
                &TrainerConfig::default(),
                &traced,
                &splits.victim_train,
            );
            let w = extract_weights(&hmd).expect("weights for linear-ish model");
            assert_eq!(w.len(), spec.dims());
        }
        let dt = Hmd::train(
            Algorithm::Dt,
            spec,
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        assert!(extract_weights(&dt).is_none());
    }

    #[test]
    fn least_weight_payload_repeats_one_opcode() {
        let (traced, splits, opcodes) = fixture();
        let hmd = Hmd::train(
            Algorithm::Lr,
            instr_spec(&opcodes),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let plan = plan_evasion(&hmd, &EvasionConfig::least_weight(3));
        assert_eq!(plan.payload_len(), 3);
        assert!(plan.payload().windows(2).all(|w| w[0] == w[1]));
        // The chosen opcode must carry negative weight.
        let w = extract_weights(&hmd).unwrap();
        let view = WeightView::new(hmd.spec(), &w);
        let op_weights = view.opcode_weights().unwrap();
        let chosen = plan.payload()[0];
        let weight = op_weights
            .iter()
            .find(|(op, _)| *op == chosen)
            .map(|(_, w)| *w);
        if let Some(weight) = weight {
            assert!(weight < 0.0, "chosen opcode weight {weight}");
        }
    }

    #[test]
    fn evasion_reduces_detection_against_lr() {
        let (traced, splits, opcodes) = fixture();
        let spec = instr_spec(&opcodes);
        let mut victim = Hmd::train(
            Algorithm::Lr,
            spec,
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let labels = traced.corpus().labels();
        let malware: Vec<usize> = splits
            .attacker_test
            .iter()
            .copied()
            .filter(|&i| labels[i])
            .collect();
        let plan = {
            let hmd_clone = victim.clone();
            plan_evasion(&hmd_clone, &EvasionConfig::least_weight(3))
        };
        let trial = evade_corpus(&mut victim, &traced, &malware, &plan);
        assert!(trial.initially_detected > 0, "victim detects nothing");
        assert!(
            trial.detection_rate() < 0.8,
            "evasion did not help: {:?}",
            trial
        );
        assert!(trial.mean_dynamic_overhead > 0.0);
    }

    #[test]
    fn random_payload_is_diverse_and_harmless() {
        let (traced, splits, opcodes) = fixture();
        let mut victim = Hmd::train(
            Algorithm::Lr,
            instr_spec(&opcodes),
            &TrainerConfig::default(),
            &traced,
            &splits.victim_train,
        );
        let labels = traced.corpus().labels();
        let malware: Vec<usize> = splits
            .attacker_test
            .iter()
            .copied()
            .filter(|&i| labels[i])
            .collect();
        // Paper Fig 6: random injection is the weak control. A single
        // seed's outcome over 4 malware samples is a coin flip, so
        // average over a seed sweep and compare against the targeted
        // least-weight attack, which reliably evades this victim.
        let seeds = [0u64, 1, 2, 3, 4, 5, 6, 7];
        let mut total_rate = 0.0;
        for &seed in &seeds {
            let plan = plan_evasion(
                &victim.clone(),
                &EvasionConfig {
                    strategy: Strategy::Random,
                    count: 2,
                    placement: Placement::EveryBlock,
                    seed,
                },
            );
            let trial = evade_corpus(&mut victim, &traced, &malware, &plan);
            assert!(trial.mean_static_overhead > 0.0);
            assert!(trial.mean_dynamic_overhead > 0.0);
            total_rate += trial.detection_rate();
        }
        let random_rate = total_rate / seeds.len() as f64;
        let targeted_plan = plan_evasion(&victim.clone(), &EvasionConfig::least_weight(2));
        let targeted = evade_corpus(&mut victim, &traced, &malware, &targeted_plan);
        assert!(
            random_rate > targeted.detection_rate() + 0.2,
            "random injection should evade far less than targeted: \
             random {random_rate}, targeted {}",
            targeted.detection_rate()
        );
    }

    /// `measure_overhead` on the batched engine reproduces the frozen
    /// oracle to the bit: counters summed over `trace_subwindows_reference`
    /// and the reference interpreter's summary, at block and function level.
    #[test]
    fn overhead_matches_frozen_reference() {
        use rhmd_features::pipeline::trace_subwindows_reference;
        use rhmd_trace::exec::{CountingSink, Executor};
        use rhmd_trace::generate::{malware_profile, MalwareFamily, ProgramGenerator};

        let program = ProgramGenerator::new(malware_profile(MalwareFamily::Spambot)).generate(4);
        let limits = ExecLimits::instructions(30_000);
        let bounded = ExecLimits::original_instructions(limits.max_instructions);
        let injectable: Vec<Opcode> = Opcode::ALL
            .iter()
            .copied()
            .filter(|op| op.is_injectable())
            .collect();
        for plan in [
            InjectionPlan::new(vec![Opcode::Load, Opcode::Fpu], Placement::EveryBlock)
                .with_mem_delta(256),
            InjectionPlan::new(vec![Opcode::Store; 3], Placement::BeforeReturn).with_mem_delta(8),
            InjectionPlan::random(injectable, 2, Placement::EveryBlock, 9),
        ] {
            let got = measure_overhead(&program, &plan, limits);

            let (modified, static_overhead) = apply(&program, &plan);
            let counters = |p: &Program| {
                let mut sum = CounterSet::default();
                for w in trace_subwindows_reference(p, bounded, CoreConfig::default()) {
                    sum += w.counters;
                }
                sum
            };
            let summary =
                Executor::new(&modified, bounded).run_reference(&mut CountingSink::default());
            let want = OverheadReport {
                static_overhead: static_overhead.ratio(),
                dynamic_overhead: summary.dynamic_overhead(),
                time_overhead: TimingModel::default()
                    .time_overhead(&counters(&program), &counters(&modified)),
            };
            assert!(
                want.dynamic_overhead > 0.0 && want.time_overhead != 0.0,
                "{plan:?} {want:?}"
            );
            for (g, w) in [
                (got.static_overhead, want.static_overhead),
                (got.dynamic_overhead, want.dynamic_overhead),
                (got.time_overhead, want.time_overhead),
            ] {
                assert_eq!(g.to_bits(), w.to_bits(), "{plan:?}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn overhead_grows_with_payload() {
        let (traced, _, opcodes) = fixture();
        let program = traced.corpus().program(0);
        let spec = instr_spec(&opcodes);
        let _ = spec;
        let plan1 = InjectionPlan::new(vec![Opcode::Nop], Placement::EveryBlock);
        let plan5 = InjectionPlan::new(vec![Opcode::Nop; 5], Placement::EveryBlock);
        let o1 = measure_overhead(program, &plan1, traced.limits());
        let o5 = measure_overhead(program, &plan5, traced.limits());
        assert!(o5.static_overhead > o1.static_overhead);
        assert!(o5.dynamic_overhead > o1.dynamic_overhead);
        assert!(o1.static_overhead > 0.05 && o1.static_overhead < 0.6);
    }
}
