//! Tiny-scale smoke check of the benchmark: each workload runs briefly,
//! untraced and traced, and its last line must name every metric that
//! `BENCHMARK.json` lists for that mode, with the listed unit, and report
//! that every output check passed.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["kv_wire", "ingest_heap", "durable_file"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn catalogue(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("run e2ebench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn check(workload: &str, trace: bool, section: &str) {
    let stdout = run(workload, trace);
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0, "),
        "{workload} trace={trace}: output checks failed:\n{stdout}"
    );
    let metrics = catalogue(section);
    assert!(!metrics.is_empty());
    for (name, unit) in &metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&key)
            .unwrap_or_else(|| panic!("{workload} trace={trace}: {name} missing:\n{last}"));
        let rest = &last[at + key.len()..];
        let (value, tail) = rest.split_once(", ").expect("value then unit");
        value
            .parse::<f64>()
            .unwrap_or_else(|e| panic!("{name} value {value}: {e}"));
        assert!(
            tail.starts_with(&format!("\"unit\": \"{unit}\"}}")),
            "{workload}: {name} has the wrong unit: {tail}"
        );
    }
    assert_eq!(
        last.matches("\"value\": ").count(),
        metrics.len(),
        "{workload} trace={trace}: metrics outside BENCHMARK.json"
    );
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    for w in WORKLOADS {
        check(w, false, "end_to_end");
        check(w, true, "per_layer");
    }
}
