//! Self-test of the benchmark at `tiny` scale: one short untraced and one
//! short traced run per workload named in `BENCHMARK.json`. Every run must
//! pass its own output checks (for `evade_retrain` that includes the traced
//! game reproducing `evade_retrain_game` bit for bit) and print exactly the
//! metrics `BENCHMARK.json` lists, each with its unit.
//!
//! Run with `cargo test --release --offline --manifest-path e2ebench/Cargo.toml`.

use serde::{Deserialize, Value};
use std::path::PathBuf;
use std::process::Command;

/// A JSON value kept as the vendored `serde::Value` tree.
struct Json(Value);

impl Deserialize for Json {
    fn deserialize(value: &Value) -> Result<Json, serde::Error> {
        Ok(Json(value.clone()))
    }
}

fn parse(text: &str) -> Value {
    serde_json::from_str::<Json>(text).expect("valid JSON").0
}

fn string(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, found {}", other.kind()),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(x) => *x,
        other => panic!("expected a number, found {}", other.kind()),
    }
}

fn benchmark() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn listed(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.field(key)
        .unwrap()
        .seq()
        .unwrap()
        .iter()
        .map(|m| {
            (
                string(m.field("name").unwrap()).to_owned(),
                string(m.field("unit").unwrap()).to_owned(),
            )
        })
        .collect()
}

/// Runs one workload at tiny scale; returns the parsed result line.
fn run(workload: &str, trace: bool) -> Value {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("selftest");
    let output = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--scale",
            "tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("benchmark binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line");
    parse(last)
}

fn check_workload(workload: &str) {
    let spec = benchmark();
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let result = run(workload, trace);
        assert_eq!(
            result.field("correct").unwrap(),
            &Value::Bool(true),
            "{workload}"
        );
        assert!(number(result.field("attempted").unwrap()) >= 1.0);
        assert_eq!(number(result.field("failed").unwrap()), 0.0, "{workload}");
        let metrics = result.field("metrics").unwrap().map().unwrap();
        let want = listed(&spec, key);
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            printed, names,
            "{workload} {key}: printed metrics differ from BENCHMARK.json"
        );
        for ((name, unit), (_, m)) in want.iter().zip(metrics) {
            assert_eq!(string(m.field("unit").unwrap()), unit, "{workload} {name}");
            let value = number(m.field("value").unwrap());
            assert!(value.is_finite(), "{workload} {name} = {value}");
            if !trace {
                assert!(
                    value > 0.0,
                    "{workload} {name} = {value}: end-to-end metrics are never 0"
                );
            }
        }
    }
}

#[test]
fn benchmark_json_names_every_workload() {
    let spec = benchmark();
    let names: Vec<String> = spec
        .field("workloads")
        .unwrap()
        .seq()
        .unwrap()
        .iter()
        .map(|w| string(w.field("name").unwrap()).to_owned())
        .collect();
    assert_eq!(names, ["evade_retrain", "evasion_campaign", "serve_stream"]);
}

#[test]
fn evade_retrain_prints_every_metric_and_traced_game_matches() {
    check_workload("evade_retrain");
}

#[test]
fn evasion_campaign_prints_every_metric() {
    check_workload("evasion_campaign");
}

#[test]
fn serve_stream_prints_every_metric() {
    check_workload("serve_stream");
}
