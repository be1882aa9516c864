//! Error-path integration tests: every malformed invocation must exit with
//! code 2 and print an actionable message to stderr — naming the flag or
//! file at fault — before any expensive corpus tracing starts.
//!
//! These run the real binary via `CARGO_BIN_EXE_rhmd`, so they cover the
//! full path: argument parsing, flag validation order, error rendering,
//! and the process exit code.

use std::process::{Command, Output};

fn rhmd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rhmd"))
        .args(args)
        .output()
        .expect("spawn rhmd binary")
}

/// Asserts exit code 2 and returns stderr for message checks.
fn expect_failure(args: &[&str]) -> String {
    let out = rhmd(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(2),
        "`rhmd {}` should exit 2; stderr:\n{stderr}",
        args.join(" ")
    );
    assert!(
        stderr.contains("error:"),
        "stderr should lead with an error line:\n{stderr}"
    );
    assert!(
        stderr.contains("USAGE:"),
        "stderr should include usage after the error:\n{stderr}"
    );
    stderr
}

#[test]
fn unknown_command_exits_2_and_names_it() {
    let stderr = expect_failure(&["frobnicate"]);
    assert!(stderr.contains("unknown command 'frobnicate'"), "{stderr}");
}

#[test]
fn no_command_exits_2() {
    let stderr = expect_failure(&[]);
    assert!(stderr.contains("no command given"), "{stderr}");
}

#[test]
fn flag_without_value_exits_2_and_names_the_flag() {
    let stderr = expect_failure(&["train", "--algo"]);
    assert!(stderr.contains("flag --algo needs a value"), "{stderr}");
}

#[test]
fn stray_positional_exits_2() {
    let stderr = expect_failure(&["train", "lr"]);
    assert!(stderr.contains("unexpected positional argument 'lr'"), "{stderr}");
}

#[test]
fn evaluate_without_model_exits_2() {
    let stderr = expect_failure(&["evaluate"]);
    assert!(stderr.contains("evaluate needs --model"), "{stderr}");
}

// --fault validation happens before the model file is even opened, so these
// run in milliseconds and need no fixture file.

#[test]
fn unknown_fault_kind_exits_2_and_lists_the_valid_kinds() {
    let stderr = expect_failure(&["evaluate", "--model", "x.json", "--fault", "gamma:0.1"]);
    assert!(stderr.contains("cannot parse --fault"), "{stderr}");
    assert!(stderr.contains("unknown fault kind 'gamma'"), "{stderr}");
    assert!(
        stderr.contains("noise|drop|multiplex|burst|saturate|wrap"),
        "the message should list what IS accepted:\n{stderr}"
    );
}

#[test]
fn fault_without_intensity_exits_2() {
    let stderr = expect_failure(&["evaluate", "--model", "x.json", "--fault", "noise"]);
    assert!(stderr.contains("expected kind:intensity"), "{stderr}");
}

#[test]
fn non_numeric_fault_intensity_exits_2() {
    let stderr = expect_failure(&["evaluate", "--model", "x.json", "--fault", "noise:loud"]);
    assert!(stderr.contains("noise sigma must be a number, got 'loud'"), "{stderr}");
}

#[test]
fn out_of_range_fault_rate_exits_2() {
    let stderr = expect_failure(&["evaluate", "--model", "x.json", "--fault", "drop:2.5"]);
    assert!(stderr.contains("drop rate must be in [0, 1], got 2.5"), "{stderr}");
}

#[test]
fn out_of_range_counter_width_exits_2() {
    let stderr = expect_failure(&["evaluate", "--model", "x.json", "--fault", "wrap:80"]);
    assert!(stderr.contains("counter width must be 1..=64 bits, got 80"), "{stderr}");
}

#[test]
fn missing_model_file_exits_2_and_names_the_path() {
    let stderr = expect_failure(&["evaluate", "--model", "/nonexistent/model.json"]);
    assert!(stderr.contains("/nonexistent/model.json"), "{stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn malformed_model_file_exits_2_as_a_parse_error() {
    let dir = std::env::temp_dir().join("rhmd-cli-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.json");
    std::fs::write(&path, "{ \"version\": 1, \"spec\": ").unwrap();
    let stderr = expect_failure(&["evaluate", "--model", path.to_str().unwrap()]);
    assert!(stderr.contains("cannot parse"), "{stderr}");
    assert!(stderr.contains("garbage.json"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn wrong_shape_model_file_exits_2() {
    // Valid JSON, wrong schema: still a parse error naming the file, never
    // a panic or a silent default.
    let dir = std::env::temp_dir().join("rhmd-cli-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wrong-shape.json");
    std::fs::write(&path, "{\"kind\": \"not-a-model\"}").unwrap();
    let stderr = expect_failure(&["evaluate", "--model", path.to_str().unwrap()]);
    assert!(stderr.contains("cannot parse"), "{stderr}");
    assert!(stderr.contains("wrong-shape.json"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn model_with_a_bad_period_exits_2_before_any_session_runs() {
    // A saved spec whose period the window aggregators would reject: every
    // command that loads a model refuses it with a parse error naming the
    // file, instead of panicking in the scoring path.
    let dir = std::env::temp_dir().join(format!("rhmd-cli-errors-period-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("model.json");
    let out = rhmd(&["train", "--scale", "tiny", "--out", good.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&good).unwrap();
    assert_eq!(json.matches("\"period\": 10000").count(), 1, "{json}");
    let bad = dir.join("bad-period.json");
    std::fs::write(&bad, json.replace("\"period\": 10000", "\"period\": 2500")).unwrap();
    for command in ["evaluate", "serve"] {
        let stderr = expect_failure(&[command, "--model", bad.to_str().unwrap()]);
        assert!(stderr.contains("bad-period.json"), "{command}: {stderr}");
        assert!(
            stderr.contains("period 2500 is not a positive multiple of 1000"),
            "{command}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

// Periods are validated before tracing: a bad one would otherwise panic in
// a pool worker after the whole corpus was simulated.

#[test]
fn period_not_a_positive_multiple_of_the_subwindow_exits_2() {
    let store = std::env::temp_dir().join("rhmd-cli-errors-unbuilt-store");
    let store = store.to_str().unwrap();
    let cases: [(&[&str], &str, u32); 5] = [
        (&["train", "--period", "2500"], "--period", 2500),
        (&["train", "--period", "0"], "--period", 0),
        (&["sweep", "--periods", "10000,2500"], "--periods", 2500),
        (&["defend", "--periods", "10000,2500"], "--periods", 2500),
        (&["corpus", "build", "--store", store, "--periods", "0"], "--periods", 0),
    ];
    for (args, flag, period) in cases {
        let stderr = expect_failure(args);
        assert!(stderr.contains(&format!("cannot parse {flag}")), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("period {period} is not a positive multiple of 1000")),
            "{args:?}: {stderr}"
        );
    }
}

// --threads is validated before tracing starts in every command that
// builds a workbench.

#[test]
fn zero_threads_exits_2() {
    let stderr = expect_failure(&["train", "--threads", "0"]);
    assert!(stderr.contains("cannot parse --threads"), "{stderr}");
    assert!(stderr.contains("at least 1"), "{stderr}");
}

#[test]
fn non_numeric_threads_exits_2() {
    let stderr = expect_failure(&["train", "--threads", "many"]);
    assert!(stderr.contains("invalid value 'many' (want a positive integer)"), "{stderr}");
}

#[test]
fn unknown_scale_exits_2() {
    let stderr = expect_failure(&["corpus", "--scale", "gigantic"]);
    assert!(stderr.contains("invalid configuration"), "{stderr}");
}

#[test]
fn unknown_feature_exits_2_and_lists_the_valid_ones() {
    let stderr = expect_failure(&["train", "--feature", "thermal"]);
    assert!(stderr.contains("thermal"), "{stderr}");
}

/// The success path really does exit 0 (anchors the code-2 assertions).
#[test]
fn corpus_tiny_exits_0() {
    let out = rhmd(&["corpus", "--scale", "tiny"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("family"));
}
