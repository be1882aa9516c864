//! # RHMD — Evasion-Resilient Hardware Malware Detectors
//!
//! A comprehensive Rust reproduction of *Khasawneh, Abu-Ghazaleh, Ponomarev,
//! Yu — "RHMD: Evasion-Resilient Hardware Malware Detectors", MICRO-50
//! (2017)*, including every substrate the paper's evaluation depends on:
//!
//! | Crate | Role |
//! |---|---|
//! | [`trace`] | Synthetic program substrate: opcode-class ISA, dynamic control-flow graphs, deterministic execution, instruction-injection rewriting (the paper's Pin-based framework) |
//! | [`uarch`] | Microarchitecture simulation: caches, branch prediction, BTB, event counters (the paper's performance-monitoring hardware) |
//! | [`features`] | The three windowed feature vectors: Instructions, Memory, Architectural |
//! | [`ml`] | From-scratch LR / NN / DT / SVM, ROC/AUC metrics, stratified splits |
//! | [`data`] | Corpus builder (6 malware families, 8 benign classes) and the 60/20/20 victim/attacker split |
//! | [`core`] | The paper's contribution: baseline HMDs, reverse-engineering, evasion, retraining games, resilient randomized detectors (RHMD), PAC bounds, FPGA cost model |
//!
//! # Quickstart
//!
//! ```no_run
//! use rhmd::prelude::*;
//!
//! // Build and trace a corpus.
//! let config = CorpusConfig::small();
//! let corpus = Corpus::build(&config);
//! let splits = Splits::new(&corpus, config.seed);
//! let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
//!
//! // Train a baseline detector and take a verdict.
//! let spec = FeatureSpec::new(FeatureKind::Architectural, 10_000, vec![]);
//! let hmd = Hmd::train(Algorithm::Lr, spec, &TrainerConfig::default(),
//!                      &traced, &splits.victim_train);
//! let verdict = hmd.verdict(traced.subwindows(0));
//! println!("windows flagged: {:.0}%", 100.0 * verdict.flag_rate());
//! ```
//!
//! See `examples/` for full attacker/defender campaigns and `DESIGN.md` for
//! the experiment-by-experiment reproduction index.

pub use rhmd_core as core;
pub use rhmd_data as data;
pub use rhmd_obs as obs;
pub use rhmd_features as features;
pub use rhmd_ml as ml;
pub use rhmd_trace as trace;
pub use rhmd_uarch as uarch;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use rhmd_core::evasion::{evade_corpus, plan_evasion, EvasionConfig, Strategy};
    pub use rhmd_core::hmd::{BlackBox, Hmd, ProgramVerdict};
    pub use rhmd_core::retrain::{evade_retrain_game, GameConfig};
    pub use rhmd_core::reveng;
    pub use rhmd_core::rhmd::{build_pool, pool_specs, ResilientHmd};
    pub use rhmd_data::{Corpus, CorpusConfig, Splits, TracedCorpus};
    pub use rhmd_features::{select_top_delta_opcodes, FeatureKind, FeatureSpec};
    pub use rhmd_ml::{Algorithm, TrainerConfig};
    pub use rhmd_trace::inject::Placement;
    pub use rhmd_trace::{ExecLimits, Opcode, Program, ProgramClass};
    pub use rhmd_uarch::{CoreConfig, CoreModel};
}

/// Selects the top-delta opcodes on the victim training split — the shared
/// first step of nearly every experiment (paper §3).
pub fn select_victim_opcodes(
    traced: &rhmd_data::TracedCorpus,
    victim_train: &[usize],
    k: usize,
) -> Vec<rhmd_trace::Opcode> {
    let labels = traced.corpus().labels();
    let malware: Vec<_> = victim_train
        .iter()
        .filter(|&&i| labels[i])
        .flat_map(|&i| traced.subwindows(i).to_vec())
        .collect();
    let benign: Vec<_> = victim_train
        .iter()
        .filter(|&&i| !labels[i])
        .flat_map(|&i| traced.subwindows(i).to_vec())
        .collect();
    rhmd_features::select_top_delta_opcodes(&malware, &benign, k)
}
