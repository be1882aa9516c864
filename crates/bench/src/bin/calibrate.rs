//! Quick calibration probe: baseline detector accuracy/AUC per feature.

use rhmd_data::{Corpus, Splits, TracedCorpus};
use rhmd_features::{select_top_delta_opcodes, FeatureKind, FeatureSpec};
use rhmd_ml::{auc, best_accuracy_threshold, score_all, train, Algorithm, TrainerConfig};
use rhmd_uarch::CoreConfig;

fn main() {
    let config = rhmd_bench::Experiment::config_from_env();
    eprintln!("building corpus: {} programs ...", config.total_programs());
    let t0 = std::time::Instant::now();
    let corpus = Corpus::build(&config);
    let splits = Splits::new(&corpus, config.seed);
    let traced = TracedCorpus::trace(corpus, config.limits(), CoreConfig::default());
    eprintln!("traced in {:?}", t0.elapsed());

    // Select top-delta opcodes on the victim training set.
    let victim = &splits.victim_train;
    let labels: Vec<bool> = traced.corpus().labels();
    let mal_windows: Vec<_> = victim
        .iter()
        .filter(|&&i| labels[i])
        .flat_map(|&i| traced.subwindows(i).to_vec())
        .collect();
    let ben_windows: Vec<_> = victim
        .iter()
        .filter(|&&i| !labels[i])
        .flat_map(|&i| traced.subwindows(i).to_vec())
        .collect();
    let opcodes = select_top_delta_opcodes(&mal_windows, &ben_windows, 16);
    eprintln!("top opcodes: {opcodes:?}");

    if std::env::var("RHMD_MLP_SWEEP").is_ok() {
        let spec = FeatureSpec::new(FeatureKind::Instructions, 10_000, opcodes.clone());
        let train_data = traced.window_dataset(victim, &spec);
        let test_data = traced.window_dataset(&splits.attacker_test, &spec);
        for (epochs, lr, momentum, l2, hidden) in [
            (120u32, 0.04, 0.9, 1e-5, None),
            (200, 0.08, 0.9, 1e-4, None),
            (300, 0.08, 0.95, 1e-4, None),
            (200, 0.15, 0.8, 1e-4, None),
            (200, 0.08, 0.9, 1e-3, None),
            (200, 0.08, 0.9, 1e-4, Some(32usize)),
            (400, 0.05, 0.9, 3e-4, Some(24)),
        ] {
            let cfg = rhmd_ml::MlpConfig {
                epochs,
                learning_rate: lr,
                momentum,
                l2,
                hidden,
                ..rhmd_ml::MlpConfig::default()
            };
            let model = rhmd_ml::Mlp::fit(&cfg, &train_data);
            let scores = rhmd_ml::model::score_all(&model, &test_data);
            let a = auc(&scores, test_data.labels());
            let (_, acc) = best_accuracy_threshold(&scores, test_data.labels());
            println!(
                "mlp e={epochs} lr={lr} m={momentum} l2={l2} h={hidden:?}: AUC {a:.3} acc {acc:.3}"
            );
        }
        return;
    }

    for kind in FeatureKind::ALL {
        let spec = FeatureSpec::new(kind, 10_000, opcodes.clone());
        let train_data = traced.window_dataset(victim, &spec);
        let test_data = traced.window_dataset(&splits.attacker_test, &spec);
        for algo in [Algorithm::Lr, Algorithm::Nn] {
            let t = std::time::Instant::now();
            let model = train(algo, &TrainerConfig::with_seed(7), &train_data);
            let scores = score_all(model.as_ref(), &test_data);
            let a = auc(&scores, test_data.labels());
            let (_, acc) = best_accuracy_threshold(&scores, test_data.labels());
            println!(
                "{kind:>14} {algo}: AUC {a:.3} acc {acc:.3}  (train {} wins, {:?})",
                train_data.len(),
                t.elapsed()
            );
        }
    }
}
