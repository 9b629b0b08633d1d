//! Runs the benchmark binary on held-out seeds and checks its output
//! against the metric list in the repository's `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path hostbench/Cargo.toml`:
//! each case runs the simulator for a few seconds.

use std::collections::BTreeMap;
use std::process::Command;

/// A workload seed and a fault seed used nowhere else.
const HELD_OUT_SEED: &str = "9001";
const HELD_OUT_FAULT_SEED: &str = "47";

/// `(name, unit)` pairs listed under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("list closes")];
    let mut out = Vec::new();
    for entry in section.split('{').skip(1) {
        let field = |f: &str| {
            let from = entry
                .find(&format!("\"{f}\": \""))
                .map(|i| i + f.len() + 5)?;
            let len = entry[from..].find('"')?;
            Some(entry[from..from + len].to_string())
        };
        let name = field("name").expect("every entry is named");
        out.push((name, field("unit").unwrap_or_default()));
    }
    out
}

/// Parsed result line: top-level fields and `name -> (value, unit)`.
struct Output {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
}

fn run(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_hostbench"))
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
    let top = |key: &str| -> u64 {
        let from =
            line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
        let len = line[from..].find(',').expect("field ends");
        line[from..from + len].parse().expect("whole number")
    };
    let mut metrics = BTreeMap::new();
    let body = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
    for item in body.split("}, ") {
        let (name, rest) =
            item.split_once(": {\"value\": ").expect("metric shape");
        let (value, unit) = rest.split_once(", \"unit\": \"").expect("unit");
        let unit = unit.split('"').next().expect("unit closes");
        metrics.insert(
            name.trim_matches('"').to_string(),
            (value.parse().expect("number"), unit.to_string()),
        );
    }
    Output {
        attempted: top("attempted"),
        failed: top("failed"),
        metrics,
    }
}

fn held_out(workload: &str, trace: &str) -> Output {
    run(&[
        "--workload",
        workload,
        "--seed",
        HELD_OUT_SEED,
        "--fault-seed",
        HELD_OUT_FAULT_SEED,
        "--seconds",
        "1",
        "--trace",
        trace,
    ])
}

fn assert_declared(out: &Output, key: &str) {
    let printed: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|(name, (_, unit))| (name.clone(), unit.clone()))
        .collect();
    let mut want = declared(key);
    want.sort();
    assert_eq!(printed, want, "{key} metrics");
}

/// Host-clock metrics; every other metric is an exact count.
fn is_host_clock(name: &str) -> bool {
    name.ends_with(".host_us")
        || matches!(
            name,
            "units_per_s" | "setup_s" | "peak_rss_mb" | "trace.overhead_pct"
        )
}

fn check_workload(workload: &str) {
    let a = held_out(workload, "0");
    let b = held_out(workload, "0");
    assert_declared(&a, "end_to_end");
    assert!(a.attempted > 0);
    assert_eq!(
        a.metrics["virtual_us_per_unit"], b.metrics["virtual_us_per_unit"],
        "virtual time repeats"
    );

    let a = held_out(workload, "1");
    let b = held_out(workload, "1");
    assert_declared(&a, "per_layer");
    for (name, value) in &a.metrics {
        if !is_host_clock(name) {
            assert_eq!(value, &b.metrics[name], "{workload}: {name} repeats");
        }
    }
}

#[test]
fn trap_mix_prints_every_metric_and_repeats_counts() {
    check_workload("trap_mix");
}

#[test]
fn launch_mix_prints_every_metric_and_repeats_counts() {
    check_workload("launch_mix");
}

#[test]
fn heal_churn_prints_every_metric_and_repeats_counts() {
    check_workload("heal_churn");
}

#[test]
fn no_unit_fails_at_the_default_seed() {
    for workload in ["trap_mix", "launch_mix"] {
        let out =
            run(&["--workload", workload, "--seconds", "1", "--trace", "1"]);
        assert_eq!(out.failed, 0, "{workload}");
        assert_eq!(out.metrics["unit_fail_ratio"].0, 0.0, "{workload}");
    }
}

#[test]
fn unknown_flags_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_hostbench"))
        .args(["--workload", "trap_mix", "--bogus", "1"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
