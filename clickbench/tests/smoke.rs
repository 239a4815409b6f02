//! End-to-end proof of the plumbing: the `--smoke` size (20 k rows, 12
//! clicks) through all four workloads, untraced and traced, checked
//! against the contract in `BENCHMARK.json`. Smoke numbers are
//! never reported; only their presence and shape are asserted.

use std::path::Path;
use std::process::Command;

/// The quoted `"name": "..."` values inside the JSON array called `key`
/// of `BENCHMARK.json` (flat objects, so no parser is needed).
fn declared(key: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no `{key}`"));
    let section = &text[start..];
    let section = &section[..section.find(']').expect("array end")];
    section
        .split("\"name\":")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_owned())
        .collect()
}

/// Run the bench binary; returns its standard output.
fn run(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_clickbench"))
        .args(args)
        .output()
        .expect("the bench binary starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "clickbench {args:?} failed with {}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

/// The metric names of a result object, in order.
fn metric_names(result: &str) -> Vec<String> {
    let metrics = result.split("\"metrics\": {").nth(1).expect("metrics object");
    metrics
        .split("\": {\"value\":")
        .filter_map(|part| part.rsplit('"').next())
        .filter(|name| !name.is_empty() && !name.contains('}'))
        .map(str::to_owned)
        .collect()
}

/// Runs one workload and returns its answer fingerprint.
fn check_run(workload: &str, trace: &str, expected: &[String]) -> String {
    let stdout = run(&["--workload", workload, "--seed", "3", "--trace", trace, "--smoke"]);
    let result = stdout.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": ") && result.ends_with("}}}"),
        "{workload} --trace {trace}: {result}"
    );
    assert!(result.contains("\"failed\": 0, \"metrics\": {"), "{result}");
    assert_eq!(metric_names(result), expected, "{workload} --trace {trace}");
    // Every metric is also printed by name with its unit, on a stamped line.
    for name in expected {
        let line = stdout
            .lines()
            .find(|l| l.contains(&format!("] {name} = ")))
            .unwrap_or_else(|| panic!("{workload}: no line for {name}"));
        assert!(line.starts_with(&format!("[clickbench {workload} smoke")), "{line}");
        assert!(line.contains(" seed=3 rows=20000 clicks=12 nproc="), "{line}");
    }
    let answers = stdout.lines().find_map(|l| l.split_once("] answers ")).expect("an answers line");
    answers.1.to_owned()
}

#[test]
fn smoke_drives_every_workload_untraced_and_traced() {
    let workloads = declared("workloads");
    assert_eq!(workloads, ["scan_cold", "drill_local", "drill_tree", "ingest_serve"]);
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.contains(&"setup_s".to_owned()));
    let mut answers = Vec::new();
    for workload in &workloads {
        answers.push(check_run(workload, "0", &end_to_end));
        assert_eq!(check_run(workload, "1", &per_layer), answers[answers.len() - 1]);
        let trace =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace-{workload}.jsonl"));
        let spans = std::fs::read_to_string(&trace).expect("the traced run wrote its spans");
        let clicks = spans.lines().filter(|l| l.contains("\"name\":\"click\"")).count();
        let queries = spans.lines().filter(|l| l.contains("\"name\":\"query\"")).count();
        assert_eq!((clicks, queries), (12, 240), "{workload}");
        assert!(spans.lines().all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
    }
    assert_eq!(answers[1], answers[2], "drill_tree replays drill_local's inputs byte for byte");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_clickbench"))
        .args(["--workload", "nope"])
        .output()
        .expect("the bench binary starts");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
