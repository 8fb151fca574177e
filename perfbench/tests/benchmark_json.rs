//! `BENCHMARK.json` at the repository root and what the benchmark prints
//! must agree: the metric tables match the file, and a run of every
//! workload, untraced and traced, prints exactly the metrics the file names
//! for that mode, with their units, and passes its output check.

use std::path::Path;
use std::process::Command;

use charllm_perfbench::{is_valid_name, is_valid_unit, END_TO_END, PER_LAYER};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_units(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let b = benchmark_json();
    assert_eq!(names_units(b.get("end_to_end").unwrap()), table(END_TO_END));
    assert_eq!(names_units(b.get("per_layer").unwrap()), table(PER_LAYER));
    let workloads = b.get("workloads").and_then(Value::as_array).unwrap();
    for w in workloads {
        assert!(is_valid_name(
            w.get("name").and_then(Value::as_str).unwrap()
        ));
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(is_valid_name(name) && is_valid_unit(unit), "{name} {unit}");
    }
}

/// The result line of one run, after checking its shape.
fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    let keys: Vec<&String> = result.as_object().unwrap().iter().map(|(k, _)| k).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    result
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let b = benchmark_json();
    for w in b.get("workloads").and_then(Value::as_array).unwrap() {
        let workload = w.get("name").and_then(Value::as_str).unwrap();
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(workload, trace);
            let printed: Vec<(String, String)> = result
                .get("metrics")
                .and_then(Value::as_object)
                .unwrap()
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                    let unit = m.get("unit").and_then(Value::as_str).unwrap();
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(
                printed,
                names_units(b.get(key).unwrap()),
                "{workload} {key}"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
