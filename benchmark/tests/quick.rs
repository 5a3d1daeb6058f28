//! Runs every workload of `BENCHMARK.json` at 1/20 scale, plain and traced,
//! through the real command line and checks the result line against it.

use pilot_miniapp::json::{self, Value};
use std::process::Command;

/// The `name` of every entry of one of `BENCHMARK.json`'s lists.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let list = doc.get(key).and_then(Value::as_arr).expect("a list");
    list.iter()
        .map(|e| e.get("name").and_then(Value::as_str).expect("a name"))
        .map(str::to_string)
        .collect()
}

fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_pilot-benchmark"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "10"])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    let result =
        json::parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e:?}): {last}"));
    match &result {
        Value::Obj(pairs) => {
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
        other => panic!("result is not an object: {other:?}"),
    }
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload} --trace {trace}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_u64)
            .expect("attempted")
            >= 1
    );
    result
}

/// `(name, value)` of every reported metric; every value finite, every
/// metric with a unit.
fn metrics(result: &Value) -> Vec<(String, f64)> {
    let Some(Value::Obj(pairs)) = result.get("metrics") else {
        panic!("metrics is not an object: {result:?}");
    };
    pairs
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(Value::as_f64).expect("a value");
            assert!(v.is_finite(), "{name} = {v}");
            assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name}");
            (name.clone(), v)
        })
        .collect()
}

// One test, one process at a time: the workloads time themselves and must
// not compete with each other for the cores.
#[test]
fn every_workload_reports_what_benchmark_json_declares() {
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    for workload in declared("workloads") {
        let plain = metrics(&run(&workload, "0"));
        let names: Vec<&String> = plain.iter().map(|m| &m.0).collect();
        assert_eq!(names, end_to_end.iter().collect::<Vec<_>>(), "{workload}");
        for (name, v) in &plain {
            assert!(
                *v > 0.0,
                "{workload}: end-to-end metric {name} must never be 0"
            );
        }
        let traced = metrics(&run(&workload, "1"));
        let names: Vec<&String> = traced.iter().map(|m| &m.0).collect();
        assert_eq!(names, per_layer.iter().collect::<Vec<_>>(), "{workload}");
    }
}

#[test]
fn a_bad_command_line_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_pilot-benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("run the benchmark");
    assert_eq!(out.status.code(), Some(2));
}
