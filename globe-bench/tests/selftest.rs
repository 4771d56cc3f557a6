//! Harness self-test: `BENCHMARK.json` and the harness agree on every
//! name, and every workload — at `--tiny` scale, through the real
//! binary — prints every metric the contract names, once, with its unit
//! and a finite value. (That the correctness checks bite is unit-tested
//! beside them, in `src/harness/checks.rs`.)

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use globe_bench_suite::harness::json::Json;
use globe_bench_suite::harness::spec::{self, MetricDef};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string {key:?} in {v}"))
}

fn assert_same_metrics(listed: &Json, defs: &[MetricDef], bounded: bool) {
    let listed = listed.as_array().expect("a metric list");
    assert_eq!(listed.len(), defs.len(), "metric count");
    for (entry, def) in listed.iter().zip(defs) {
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(entry, "better"), def.better.name(), "{}", def.name);
        let bound = entry.get("bound").and_then(Json::as_f64);
        if bounded {
            assert_eq!(bound, Some(def.bound), "{}", def.name);
            assert!(
                def.bound <= 0.25,
                "{}: the contract caps bounds at 0.25",
                def.name
            );
        } else {
            assert_eq!(
                bound, None,
                "{}: per-layer metrics carry no bound",
                def.name
            );
        }
    }
}

#[test]
fn benchmark_json_names_what_the_harness_prints() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, spec::WORKLOADS);
    assert_same_metrics(
        doc.get("end_to_end").expect("end_to_end"),
        spec::END_TO_END,
        true,
    );
    assert_same_metrics(
        doc.get("per_layer").expect("per_layer"),
        spec::PER_LAYER,
        false,
    );
    assert!(
        spec::END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"),
        "the contract requires setup_s"
    );
    let names: BTreeSet<&str> = spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER)
        .map(|m| m.name)
        .collect();
    assert_eq!(
        names.len(),
        spec::END_TO_END.len() + spec::PER_LAYER.len(),
        "every metric name is used once"
    );
}

/// Runs the real binary and returns its standard output.
fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_globe-bench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn globe-bench");
    assert!(
        out.status.success(),
        "globe-bench {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

fn assert_prints_exactly(stdout: &str, defs: &[MetricDef]) {
    // The human-readable table names each metric once …
    for def in defs {
        let rows = stdout
            .lines()
            .filter(|l| l.split_whitespace().next() == Some(def.name))
            .count();
        assert_eq!(rows, 1, "{} appears in {rows} table rows", def.name);
    }
    // … and the last line is the contract's result object.
    let last = stdout.lines().last().expect("some output");
    let result = Json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    let attempted = result
        .get("attempted")
        .and_then(Json::as_f64)
        .expect("attempted");
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "the workloads are chosen so that no operation fails"
    );
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(
        printed, expected,
        "exactly the listed metrics, each once, in order"
    );
    for ((name, metric), def) in metrics.iter().zip(defs) {
        assert_eq!(text(metric, "unit"), def.unit, "{name}");
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
    }
}

/// One test, one process at a time: two benchmark processes sharing two
/// cores would time each other.
#[test]
#[cfg(target_os = "linux")] // elsewhere the proc.* metrics are absent by design
fn every_workload_prints_every_metric_at_tiny_scale() {
    for workload in spec::WORKLOADS {
        let end_to_end = run(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--tiny",
            "--trace",
            "0",
        ]);
        assert_prints_exactly(&end_to_end, spec::END_TO_END);
        let per_layer = run(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--tiny",
            "--trace",
            "1",
        ]);
        assert_prints_exactly(&per_layer, spec::PER_LAYER);
    }
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_globe-bench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("spawn globe-bench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line on failure");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}
