//! Property-based tests pinning the streaming trace→features hot path to
//! the two-phase reference pipeline, bit for bit.
//!
//! The streaming path (flat IR, batched µarch simulation, incremental
//! lanes) claims to be a pure optimization of the seed-era per-event
//! pipeline. These properties check that claim across random programs
//! (as generated, and rewritten by the evasion framework's injection),
//! execution budgets, collection periods, fill thresholds, and fault
//! plans — the full cross product the experiments exercise.

use proptest::prelude::*;
use rhmd_features::pipeline::trace_subwindows_reference;
use rhmd_features::stream::{
    collect_subwindows, stream_features_into, LaneSpec,
};
use rhmd_features::vector::{FeatureKind, FeatureSpec};
use rhmd_features::window::{aggregate_with_gaps, apply_faults};
use rhmd_trace::exec::{CountingSink, ExecLimits, Executor};
use rhmd_trace::generate::{benign_profile, malware_profile, BenignClass, MalwareFamily,
                           ProgramGenerator};
use rhmd_trace::inject::{apply, InjectionPlan, Placement};
use rhmd_trace::isa::Opcode;
use rhmd_trace::Program;
use rhmd_uarch::faults::{FaultConfig, FaultModel};
use rhmd_uarch::CoreConfig;

fn any_profile_seeded() -> impl Strategy<Value = Program> {
    (0usize..14, 0u64..1000).prop_map(|(class, seed)| {
        if class < 6 {
            ProgramGenerator::new(malware_profile(MalwareFamily::ALL[class])).generate(seed)
        } else {
            ProgramGenerator::new(benign_profile(BenignClass::ALL[class - 6])).generate(seed)
        }
    })
}

/// An evasion rewrite: fixed or per-site random payload, block or function
/// level, memory payloads striding the scratch stream by `mem_delta`.
fn any_plan() -> impl Strategy<Value = InjectionPlan> {
    let injectable: Vec<Opcode> = Opcode::ALL
        .iter()
        .copied()
        .filter(|op| op.is_injectable())
        .collect();
    (
        prop::collection::vec(prop::sample::select(injectable.clone()), 1..6),
        prop::sample::select(vec![None, Some(Opcode::Load), Some(Opcode::Store)]),
        any::<bool>(),
        any::<bool>(),
        prop::sample::select(vec![0u32, 1, 8, 64, 4_096, 1 << 20]),
        any::<u64>(),
    )
        .prop_map(
            move |(mut payload, mem_op, random, every_block, mem_delta, seed)| {
                payload.extend(mem_op);
                let placement = if every_block {
                    Placement::EveryBlock
                } else {
                    Placement::BeforeReturn
                };
                let plan = if random {
                    InjectionPlan::random(injectable.clone(), payload.len(), placement, seed)
                } else {
                    InjectionPlan::new(payload, placement)
                };
                plan.with_mem_delta(mem_delta)
            },
        )
}

/// A generated program, either as is or rewritten under a random plan —
/// the inputs evasion re-tracing and overhead measurement run.
fn any_maybe_rewritten() -> impl Strategy<Value = Program> {
    (any_profile_seeded(), any::<bool>(), any_plan()).prop_map(|(program, rewrite, plan)| {
        if rewrite {
            apply(&program, &plan).0
        } else {
            program
        }
    })
}

/// A total-instruction budget, or an original-work budget (the bound
/// `measure_overhead` runs rewritten programs under).
fn any_limits() -> impl Strategy<Value = ExecLimits> {
    (1_000u64..30_000, any::<bool>()).prop_map(|(n, original)| {
        if original {
            ExecLimits::original_instructions(n)
        } else {
            ExecLimits::instructions(n)
        }
    })
}

fn any_kind() -> impl Strategy<Value = FeatureKind> {
    prop::sample::select(FeatureKind::ALL.to_vec())
}

/// A period that is a positive multiple of the subwindow size.
fn any_period() -> impl Strategy<Value = u32> {
    (1u32..12).prop_map(|k| k * 1_000)
}

fn any_spec() -> impl Strategy<Value = FeatureSpec> {
    (any_kind(), any_period()).prop_map(|(kind, period)| FeatureSpec::new(kind, period, vec![]))
}

fn any_fault() -> impl Strategy<Value = FaultConfig> {
    (0usize..7, 0.05f64..0.5, 8u32..24).prop_map(|(kind, rate, bits)| match kind {
        0 => FaultConfig::noise(rate),
        1 => FaultConfig::dropping(rate),
        2 => FaultConfig::multiplexed(rate),
        3 => FaultConfig::bursty(rate / 2.0, 4),
        4 => FaultConfig::saturating(bits),
        5 => FaultConfig::wrapping(bits),
        _ => FaultConfig::none(),
    })
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The batched flat-IR walk seals exactly the subwindows the per-event
    /// reference accumulator produces, and reports the reference
    /// interpreter's summary, on any program (plain or rewritten) and
    /// budget.
    #[test]
    fn batched_subwindows_match_reference(
        program in any_maybe_rewritten(),
        limits in any_limits(),
    ) {
        let reference = trace_subwindows_reference(&program, limits, CoreConfig::default());
        let (batched, summary) = collect_subwindows(&program, limits, CoreConfig::default());
        prop_assert_eq!(&batched, &reference);
        prop_assert_eq!(
            summary,
            Executor::new(&program, limits).run_reference(&mut CountingSink::default())
        );
        prop_assert_eq!(
            summary.instructions,
            batched.iter().map(|w| w.instructions).sum::<u64>()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A clean streaming lane reproduces trace → aggregate → project
    /// bit-for-bit, for any spec kind, period, and fill threshold.
    #[test]
    fn clean_lane_matches_two_phase(
        program in any_profile_seeded(),
        budget in 1_000u64..30_000,
        kind in any_kind(),
        period in any_period(),
        min_fill in prop::sample::select(vec![0.0f64, 0.5, 1.0]),
    ) {
        let limits = ExecLimits::instructions(budget);
        let spec = FeatureSpec::new(kind, period, vec![]);
        let lanes = [LaneSpec { spec: &spec, min_fill, fault: None }];
        let mut out = Vec::new();
        let outcome =
            stream_features_into(&program, limits, CoreConfig::default(), &lanes, &mut [&mut out]);

        let reference = trace_subwindows_reference(&program, limits, CoreConfig::default());
        let windows = aggregate_with_gaps(&reference, period, min_fill);
        let mut expect = Vec::new();
        for w in &windows {
            spec.project_into(w, &mut expect);
        }
        prop_assert_eq!(outcome.rows, vec![windows.len()]);
        prop_assert!(bits_equal(&out, &expect));
    }

    /// A faulted lane reproduces trace → apply_faults → aggregate →
    /// project bit-for-bit, for any fault plan and seed.
    #[test]
    fn faulted_lane_matches_two_phase(
        program in any_profile_seeded(),
        budget in 1_000u64..30_000,
        spec in any_spec(),
        config in any_fault(),
        seed in any::<u64>(),
        min_fill in prop::sample::select(vec![0.0f64, 0.5]),
    ) {
        let limits = ExecLimits::instructions(budget);
        let period = spec.period;
        let model = FaultModel::new(config, seed);
        let lanes = [LaneSpec { spec: &spec, min_fill, fault: Some(&model) }];
        let mut out = Vec::new();
        let outcome =
            stream_features_into(&program, limits, CoreConfig::default(), &lanes, &mut [&mut out]);

        let reference = trace_subwindows_reference(&program, limits, CoreConfig::default());
        let faulted = apply_faults(&reference, &model);
        let windows = aggregate_with_gaps(&faulted, period, min_fill);
        let mut expect = Vec::new();
        for w in &windows {
            spec.project_into(w, &mut expect);
        }
        prop_assert_eq!(outcome.rows, vec![windows.len()]);
        prop_assert!(bits_equal(&out, &expect));
    }

    /// Lanes are independent: a multi-lane pass (mixed kinds, periods, and
    /// fault plans) produces exactly what each lane would alone.
    #[test]
    fn lanes_are_independent(
        program in any_profile_seeded(),
        budget in 5_000u64..25_000,
        periods in prop::collection::vec(any_period(), 2..4),
        config in any_fault(),
        seed in any::<u64>(),
    ) {
        let limits = ExecLimits::instructions(budget);
        let model = FaultModel::new(config, seed);
        let specs: Vec<FeatureSpec> = periods
            .iter()
            .zip(FeatureKind::ALL.iter().cycle())
            .map(|(&p, &k)| FeatureSpec::new(k, p, vec![]))
            .collect();
        let lanes: Vec<LaneSpec> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| LaneSpec {
                spec,
                min_fill: 0.5,
                fault: (i % 2 == 1).then_some(&model),
            })
            .collect();
        let mut bufs: Vec<Vec<f64>> = vec![Vec::new(); lanes.len()];
        let mut outs: Vec<&mut Vec<f64>> = bufs.iter_mut().collect();
        let joint =
            stream_features_into(&program, limits, CoreConfig::default(), &lanes, &mut outs);

        for (i, lane) in lanes.iter().enumerate() {
            let mut solo = Vec::new();
            let alone = stream_features_into(
                &program,
                limits,
                CoreConfig::default(),
                &[*lane],
                &mut [&mut solo],
            );
            prop_assert_eq!(joint.rows[i], alone.rows[0]);
            prop_assert!(bits_equal(&bufs[i], &solo), "lane {} diverged", i);
        }
    }
}
