//! `e2ebench` — end-to-end and per-layer benchmark of the RHMD pipeline.
//!
//! ```text
//! e2ebench --workload <evade_retrain|evasion_campaign|serve_stream>
//!          --seed <n> --seconds <s> --trace <0|1> [--scale tiny|small]
//! ```
//!
//! Every workload sets up a traced corpus, then repeats its unit of work —
//! one evade–retrain game, one evasion campaign, or one serve round —
//! for `--seconds`. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! from spans recorded around the library calls. The full report (with
//! provenance, counts, digests and spans) is written under `.bench_out/`.
//! The process exits non-zero when any output check fails.

mod campaign;
mod game;
mod serve;
mod setup;
mod spans;
mod stats;

use crate::serve::Deployment;
use crate::setup::{Measured, Setup};
use crate::spans::Tracer;
use crate::stats::{median, peak_rss_mib, percentile};
use rhmd_core::hmd::Hmd;
use rhmd_core::retrain::GenerationRecord;
use rhmd_data::CorpusConfig;
use rhmd_features::vector::FeatureKind;
use rhmd_ml::trainer::Algorithm;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: e2ebench --workload <evade_retrain|evasion_campaign|serve_stream> \
--seed <n> --seconds <s> --trace <0|1> [--scale tiny|small] [--out-dir <dir>]";

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics, printed by every traced run (0 where a workload does
/// not exercise the layer).
pub const PER_LAYER: [(&str, &str); 42] = [
    ("data.corpus_build_s", "s"),
    ("data.trace_s", "s"),
    ("data.sim_minstr", "Minstr"),
    ("data.sim_minstr_per_s", "Minstr/s"),
    ("data.windows", "count"),
    ("features.select_s", "s"),
    ("ml.train_s", "s"),
    ("ml.train_calls", "count"),
    ("ml.train_rows", "count"),
    ("core.reveng.query_s", "s"),
    ("core.reveng.query_rows", "count"),
    ("core.evasion.plan_s", "s"),
    ("core.retrain.retrace_s", "s"),
    ("core.retrain.retrace_programs", "count"),
    ("core.retrain.retrace_sim_minstr", "Minstr"),
    ("core.retrain.judge_s", "s"),
    ("features.project_s", "s"),
    ("core.rhmd.pool_build_s", "s"),
    ("core.evasion.evade_s", "s"),
    ("core.evasion.programs", "count"),
    ("core.evasion.retrace_sim_minstr", "Minstr"),
    ("core.evasion.overhead_s", "s"),
    ("core.evasion.overhead_sim_minstr", "Minstr"),
    ("unattributed_s", "s"),
    ("traced_run_s", "s"),
    ("tracing_overhead_s", "s"),
    ("serve.sat_sps", "1/s"),
    ("serve.low_p50_ms", "ms"),
    ("serve.low_p99_ms", "ms"),
    ("serve.high_p50_ms", "ms"),
    ("serve.high_p99_ms", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.shed_sessions", "count"),
    ("serve.shed_events", "count"),
    ("serve.abstained", "count"),
    ("serve.drain_s", "s"),
    ("serve.sessions", "count"),
    ("serve.events", "count"),
    ("ml.score_rows", "count"),
    ("ml.score_rows_per_s", "rows/s"),
    ("loadgen.lag_ms_p99", "ms"),
];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy)]
enum Workload {
    EvadeRetrain,
    EvasionCampaign,
    ServeStream,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::EvadeRetrain => "evade_retrain",
            Workload::EvasionCampaign => "evasion_campaign",
            Workload::ServeStream => "serve_stream",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: String,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = "small".to_owned();
    let mut out_dir = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "evade_retrain" => Workload::EvadeRetrain,
                    "evasion_campaign" => Workload::EvasionCampaign,
                    "serve_stream" => Workload::ServeStream,
                    other => return Err(format!("unknown workload '{other}'")),
                });
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                });
            }
            "--scale" => scale = value()?,
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !matches!(scale.as_str(), "tiny" | "small") {
        return Err(format!("--scale must be tiny or small, got '{scale}'"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        out_dir,
    })
}

/// Everything a run reports.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    check_failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    counts: BTreeMap<String, f64>,
    runs: BTreeMap<&'static str, usize>,
    /// Wall clock of every repetition of the unit of work, seconds.
    unit_s: Vec<f64>,
    digest: Option<u64>,
    spans_json: Option<String>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let preset = if args.scale == "tiny" {
        CorpusConfig::tiny()
    } else {
        CorpusConfig::small()
    };
    eprintln!(
        "[e2ebench] {} seed {} scale {} for {}s, trace {}",
        args.workload.name(),
        args.seed,
        args.scale,
        args.seconds,
        u8::from(args.trace)
    );
    let mut out = match args.workload {
        Workload::EvadeRetrain => evade_retrain(&args, preset),
        Workload::EvasionCampaign => evasion_campaign(&args, preset),
        Workload::ServeStream => serve_stream(&args, preset),
    };
    out.metrics.insert("peak_rss_mib", peak_rss_mib());
    if !args.trace {
        let ok = out.attempted.saturating_sub(out.failed);
        out.metrics
            .insert("success_rate", ok as f64 / out.attempted.max(1) as f64);
    }
    finish(&args, out);
}

/// The corpus seed for a benchmark seed. The corpus derives program `i`
/// of each family from `seed ^ i`, so nearby raw seeds would share most
/// programs; SplitMix64 spreads them apart.
fn corpus_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of corpus `k` of `corpora` built for benchmark seed `seed`:
/// distinct across seeds and corpora.
fn sub_seed(seed: u64, corpora: usize, k: usize) -> u64 {
    seed.wrapping_mul(corpora as u64).wrapping_add(k as u64)
}

/// Measures the workload's set-up: `corpora` traced corpora, each with
/// whatever `extra` builds from it before the timed phase.
fn measure_setup<T>(
    args: &Args,
    preset: CorpusConfig,
    corpora: usize,
    extra: impl Fn(&Setup, &mut Tracer) -> T,
) -> Measured<Vec<(Setup, T)>> {
    setup::measure(SETUP_REPS, args.trace, |tr| {
        (0..corpora)
            .map(|k| {
                let seed = corpus_seed(sub_seed(args.seed, corpora, k));
                let s = Setup::build(CorpusConfig { seed, ..preset }, tr);
                let t = extra(&s, tr);
                (s, t)
            })
            .collect()
    })
}

fn record_setup<T>(out: &mut Outcome, m: &Measured<Vec<(Setup, T)>>) {
    out.metrics.insert("setup_s", m.median_s);
    out.runs.insert("setup", SETUP_REPS);
    out.runs.insert("corpora", m.value.len());
    let (mut instructions, mut windows, mut programs) = (0, 0, 0);
    for (s, _) in &m.value {
        let (i, w) = s.simulated();
        instructions += i;
        windows += w;
        programs += s.traced.corpus().len();
    }
    out.counts
        .insert("data.sim_minstr".into(), instructions as f64 * 1e-6);
    out.counts.insert("data.windows".into(), windows as f64);
    out.counts.insert("data.programs".into(), programs as f64);
    for (name, s) in &m.layers {
        if *name != "setup" {
            out.metrics.insert(layer_metric(name), *s);
        }
    }
    if let (Some(minstr), Some(trace_s)) =
        (m.counts.get("data.sim_minstr"), m.layers.get("data.trace"))
    {
        out.metrics.insert("data.sim_minstr", *minstr);
        out.metrics
            .insert("data.sim_minstr_per_s", minstr / trace_s);
        out.metrics.insert("data.windows", m.counts["data.windows"]);
    }
}

/// The per-layer metric name for a span name (`<span>_s`).
fn layer_metric(span: &str) -> &'static str {
    let name = format!("{span}_s");
    PER_LAYER.iter().find(|(n, _)| *n == name).map_or_else(
        || panic!("span {span} has no per-layer metric"),
        |(n, _)| *n,
    )
}

/// Repeats `unit` until `budget_s` would be exceeded by one more repetition
/// (at least once), returning each repetition's wall clock and result.
fn repeat<T>(budget_s: f64, mut unit: impl FnMut() -> T) -> (Vec<f64>, Vec<T>) {
    let start = Instant::now();
    let (mut times, mut results) = (Vec::new(), Vec::new());
    loop {
        let t = Instant::now();
        results.push(unit());
        times.push(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + times[times.len() - 1] > budget_s {
            return (times, results);
        }
    }
}

/// Splits a traced batch run into per-layer self times: named layer spans
/// map to their metrics, structural spans to `unattributed_s`.
fn record_layers(out: &mut Outcome, tr: &Tracer, structural: &[&str]) {
    let run_s = tr.duration_s("run").unwrap_or(0.0);
    let mut sum = 0.0;
    let mut unattributed = 0.0;
    for (name, s) in tr.self_seconds("run") {
        sum += s;
        if name == "run" || structural.contains(&name) {
            unattributed += s;
        } else {
            *out.metrics.entry(layer_metric(name)).or_insert(0.0) += s;
        }
    }
    out.metrics.insert("unattributed_s", unattributed);
    out.metrics.insert("traced_run_s", run_s);
    out.check((sum - run_s).abs() < 1e-6, || {
        format!("per-layer self times sum to {sum} s, traced run took {run_s} s")
    });
    for (name, v) in tr.counts() {
        out.metrics.insert(
            PER_LAYER.iter().find(|(n, _)| n == name).map_or_else(
                || panic!("count {name} is not a per-layer metric"),
                |(n, _)| *n,
            ),
            *v,
        );
    }
    out.spans_json = Some(tr.spans_json());
}

/// One batch workload: its unit of work, untraced and traced, and how its
/// outputs are checked.
struct Batch<R, U, T> {
    /// Attempts (generations or trials) per unit.
    attempts: u64,
    /// Plays the unit through the library entry points.
    untraced: U,
    /// Plays the unit with spans around each layer call.
    traced: T,
    /// Attempts of one unit's output that fail their checks.
    bad: fn(&R) -> u64,
    /// Digest over every output bit.
    digest: fn(&R) -> u64,
    /// Logs one unit's outputs.
    describe: fn(&R),
    /// Spans that group layer calls without being a layer themselves.
    structural: &'static [&'static str],
}

/// Repeats a batch unit for `--seconds` (untraced: `run_s` is the median
/// wall clock) or, when tracing, plays it once untraced and once traced.
/// Every repetition must pass its checks and match the first bit for bit.
fn run_batch<R, U, T>(args: &Args, out: &mut Outcome, batch: Batch<R, U, T>) -> Option<R>
where
    U: Fn() -> R,
    T: Fn(&mut Tracer) -> R,
{
    let budget = if args.trace { 0.0 } else { args.seconds };
    let (times, results) = repeat(budget, || catch_unwind(AssertUnwindSafe(&batch.untraced)));
    out.runs.insert("units", results.len());
    out.unit_s.clone_from(&times);
    out.metrics.insert("run_s", median(&times));
    let mut reference = None;
    for (rep, result) in results.iter().enumerate() {
        out.attempted += batch.attempts;
        let Ok(r) = result else {
            out.failed += batch.attempts;
            out.check(false, || format!("unit {rep} panicked"));
            continue;
        };
        let bad = (batch.bad)(r);
        out.failed += bad;
        out.check(bad == 0, || {
            format!("unit {rep}: {bad} attempt(s) failed their output check")
        });
        let digest = (batch.digest)(r);
        if reference.is_none() {
            (batch.describe)(r);
        }
        let first = *reference.get_or_insert(digest);
        out.check(first == digest, || {
            format!("unit {rep} differs from unit 0: not deterministic")
        });
    }
    out.digest = reference;
    if !args.trace {
        return None;
    }
    let mut tr = Tracer::new(true);
    let root = tr.enter("run");
    let traced = catch_unwind(AssertUnwindSafe(|| (batch.traced)(&mut tr)));
    tr.exit(root);
    let traced = match traced {
        Ok(r) => {
            out.check(Some((batch.digest)(&r)) == reference, || {
                "the traced unit differs from the untraced one".into()
            });
            Some(r)
        }
        Err(_) => {
            out.check(false, || "the traced unit panicked".into());
            None
        }
    };
    record_layers(out, &tr, batch.structural);
    out.metrics.insert(
        "tracing_overhead_s",
        tr.duration_s("run").unwrap_or(0.0) - times[0],
    );
    traced
}

fn evade_retrain(args: &Args, preset: CorpusConfig) -> Outcome {
    let mut out = Outcome::default();
    let m = measure_setup(args, preset, 1, |_, _| ());
    record_setup(&mut out, &m);
    let s = &m.value[0].0;
    let cfg = game::config(s, args.seed);
    run_batch::<Vec<GenerationRecord>, _, _>(
        args,
        &mut out,
        Batch {
            attempts: u64::from(cfg.generations),
            untraced: || game::play(s, &cfg),
            traced: |tr: &mut Tracer| game::play_traced(s, &cfg, tr),
            bad: |records| game::failed_generations(records),
            digest: |records| game::digest(records),
            describe: |records| game::describe(records),
            structural: &["core.retrain.generation"],
        },
    );
    out
}

fn evasion_campaign(args: &Args, preset: CorpusConfig) -> Outcome {
    let mut out = Outcome::default();
    let m = measure_setup(args, preset, campaign::CORPORA, |_, _| ());
    record_setup(&mut out, &m);
    let setups: Vec<&Setup> = m.value.iter().map(|(s, _)| s).collect();
    let seed = |k| sub_seed(args.seed, campaign::CORPORA, k);
    let all = |tr: &mut Tracer| -> Vec<campaign::Trial> {
        let mut trials = Vec::new();
        for (k, s) in setups.iter().enumerate() {
            trials.extend(campaign::run(s, seed(k), tr));
        }
        trials
    };
    let traced = run_batch::<Vec<campaign::Trial>, _, _>(
        args,
        &mut out,
        Batch {
            attempts: (campaign::CORPORA * campaign::TRIALS) as u64,
            untraced: || all(&mut Tracer::new(false)),
            traced: all,
            bad: |trials| campaign::failed_trials(trials),
            digest: |trials| campaign::digest(trials),
            describe: |trials| campaign::describe(trials),
            structural: &[],
        },
    );
    if let Some(trials) = traced {
        // Exact simulated work, recomputed outside the timed spans.
        let (mut retrace, mut overhead) = (0, 0);
        for (k, (s, chunk)) in setups
            .iter()
            .zip(trials.chunks(campaign::TRIALS))
            .enumerate()
        {
            match campaign::simulated_instructions(s, seed(k), chunk) {
                Some((r, o)) => {
                    retrace += r;
                    overhead += o;
                }
                None => out.check(false, || {
                    format!(
                        "corpus {k}: replaying evade_corpus's detections disagrees with its trials"
                    )
                }),
            }
        }
        out.metrics
            .insert("core.evasion.retrace_sim_minstr", retrace as f64 * 1e-6);
        out.metrics
            .insert("core.evasion.overhead_sim_minstr", overhead as f64 * 1e-6);
    }
    out
}

fn serve_stream(args: &Args, preset: CorpusConfig) -> Outcome {
    let mut out = Outcome::default();
    let m = measure_setup(args, preset, 1, |s, tr| {
        tr.time("ml.train", || {
            Hmd::train(
                Algorithm::Lr,
                s.spec(FeatureKind::Architectural, 5_000),
                &s.trainer,
                &s.traced,
                &s.splits.victim_train,
            )
        })
    });
    record_setup(&mut out, &m);
    let (s, hmd) = &m.value[0];
    let deployment = Deployment::new(hmd, s);
    let totals = deployment.rounds(
        args.seed ^ 0x5e7e,
        Duration::from_secs_f64(args.seconds),
        args.trace,
    );
    out.runs.insert("serve_rounds", totals.rounds);
    out.attempted += totals.sessions;
    out.failed += totals.failed;
    out.check_failures
        .extend(totals.check_failures.iter().cloned());
    out.counts
        .insert("serve.sessions".into(), totals.sessions as f64);
    out.counts
        .insert("serve.events".into(), totals.events as f64);
    // The serve stream's unit of work is one closed-loop flood.
    out.metrics.insert("run_s", median(&totals.flood_s));
    out.unit_s.clone_from(&totals.flood_s);
    let mut serve = vec![
        ("serve.sat_sps", median(&totals.flood_sps)),
        ("serve.low_p50_ms", median(&totals.low_p50)),
        ("serve.low_p99_ms", median(&totals.low_p99)),
        ("serve.high_p50_ms", median(&totals.high_p50)),
        ("serve.high_p99_ms", median(&totals.high_p99)),
    ];
    if args.trace {
        let (rows, rate) = deployment.score_rate();
        let mut submit_us: Vec<f64> = totals
            .submit_ns
            .iter()
            .map(|&ns| f64::from(ns) * 1e-3)
            .collect();
        submit_us.sort_by(f64::total_cmp);
        let mut lag = totals.lag_ms.clone();
        lag.sort_by(f64::total_cmp);
        serve.extend([
            ("serve.submit_us_p50", percentile(&submit_us, 0.50)),
            ("serve.submit_us_p99", percentile(&submit_us, 0.99)),
            ("serve.shed_sessions", totals.shed_sessions as f64),
            ("serve.shed_events", totals.shed_events as f64),
            ("serve.abstained", totals.abstained as f64),
            ("serve.drain_s", median(&totals.drain_s)),
            ("serve.sessions", totals.sessions as f64),
            ("serve.events", totals.events as f64),
            ("ml.score_rows", rows as f64),
            ("ml.score_rows_per_s", rate),
            ("loadgen.lag_ms_p99", percentile(&lag, 0.99)),
        ]);
    }
    for (name, v) in serve {
        if args.trace {
            out.metrics.insert(name, v);
        } else {
            // Too noisy on a shared host to gate on; kept in the report.
            out.counts.insert(name.to_owned(), v);
        }
    }
    out
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it (a benchmark checkout usually has no `.git`).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).ok()?,
        None => head.to_owned(),
    };
    let rev = rev.trim();
    rev.chars()
        .all(|c| c.is_ascii_hexdigit())
        .then(|| rev.to_owned())
}

/// The run's provenance as a JSON object.
fn provenance(args: &Args, out: &Outcome) -> String {
    let git_rev = git_rev().unwrap_or_else(|| "unknown".to_owned());
    let avx2 = rhmd_ml::kernel::simd::avx2_active();
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut runs = String::new();
    for (i, (k, v)) in out.runs.iter().enumerate() {
        let _ = write!(runs, "{}\"{k}\":{v}", if i > 0 { "," } else { "" });
    }
    format!(
        "{{\"git_rev\":\"{git_rev}\",\"features\":{{\"simd_compiled\":{},\"avx2_detected\":{avx2}}},\
         \"scale\":\"{}\",\"seed\":{},\"workload\":\"{}\",\"trace\":{},\"seconds\":{},\
         \"available_parallelism\":{threads},\"runs\":{{{runs}}}}}",
        cfg!(feature = "simd"),
        args.scale,
        args.seed,
        args.workload.name(),
        args.trace,
        args.seconds,
    )
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

fn finish(args: &Args, mut out: Outcome) {
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            out.check_failures
                .push(format!("metric {name} is not finite"));
        }
        let _ = write!(
            metrics,
            "{}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            if i > 0 { "," } else { "" },
            json_number(value)
        );
    }
    let correct = out.check_failures.is_empty();
    for failure in &out.check_failures {
        eprintln!("[e2ebench] CHECK FAILED: {failure}");
    }
    let mut counts = String::new();
    for (i, (k, v)) in out.counts.iter().enumerate() {
        let _ = write!(
            counts,
            "{}\"{k}\":{}",
            if i > 0 { "," } else { "" },
            json_number(*v)
        );
    }
    let digest = out
        .digest
        .map_or("null".to_owned(), |d| format!("\"{d:016x}\""));
    let provenance = provenance(args, &out);
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    let units: Vec<String> = out.unit_s.iter().map(|&s| json_number(s)).collect();
    let report = format!(
        "{{\"provenance\":{provenance},\"digest\":{digest},\"counts\":{{{counts}}},\"unit_s\":[{}],\"result\":{result},\"spans\":{}}}\n",
        units.join(","),
        out.spans_json.as_deref().unwrap_or("null")
    );
    let path = args.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, report))
    {
        eprintln!("[e2ebench] could not write {}: {e}", path.display());
    }
    println!("provenance {provenance}");
    println!("digest {digest}");
    println!("counts {{{counts}}}");
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
