//! The benchmark's own checks, on `--size tiny` inputs: every metric is
//! printed with its unit, a seed never used while tuning passes every
//! gate, and a corrupted oracle is reported as a failure, not a number.

use std::path::PathBuf;
use std::process::Command;

use xicbench::json::{parse, Value};
use xicbench::{END_TO_END, PER_LAYER, WORKLOADS};

/// A seed no run used while the benchmark was written.
const HELD_OUT_SEED: &str = "987654321";

struct Run {
    code: i32,
    result: Value,
    stderr: String,
}

fn run(test: &str, workload: &str, seed: &str, trace: &str, extra: &[&str]) -> Run {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_xicbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "1"])
        .args(["--trace", trace, "--size", "tiny"])
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = parse(last).unwrap_or_else(|e| panic!("{workload}: last line `{last}`: {e}"));
    assert!(
        !dir.join(".xicbench-tmp").exists(),
        "{workload}: scratch directory left behind"
    );
    Run {
        code: output.status.code().unwrap_or(-1),
        result,
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    }
}

fn number(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("`{key}` missing"))
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(benchmark: &Value, list: &str) -> Vec<(String, String)> {
    benchmark
        .get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}`"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let benchmark = parse(&text).expect("BENCHMARK.json parses");
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&benchmark, "end_to_end"), own(END_TO_END));
    assert_eq!(declared(&benchmark, "per_layer"), own(PER_LAYER));
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_metric_is_printed_with_its_unit_for_every_workload() {
    for workload in WORKLOADS {
        for (trace, table) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let run = run("metrics", workload, "1", trace, &[]);
            assert_eq!(run.code, 0, "{workload} trace {trace}: {}", run.stderr);
            let r = &run.result;
            assert_eq!(r.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(number(r, "failed"), 0.0);
            assert!(number(r, "attempted") >= 1.0);
            let metrics = r
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics object");
            let printed: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value").and_then(Value::as_f64).is_some(),
                        "{workload}: {name} has no value"
                    );
                    (
                        name.as_str(),
                        m.get("unit").and_then(Value::as_str).unwrap_or_default(),
                    )
                })
                .collect();
            assert_eq!(printed, table, "{workload} trace {trace}");
            if trace == "0" {
                for (name, m) in metrics {
                    assert!(number(m, "value") > 0.0, "{workload}: {name} is 0");
                }
            }
        }
    }
}

#[test]
fn held_out_seed_passes_every_gate() {
    for workload in WORKLOADS {
        let run = run("heldout", workload, HELD_OUT_SEED, "0", &[]);
        assert_eq!(run.code, 0, "{workload}: {}", run.stderr);
        assert_eq!(
            run.result.get("correct").and_then(Value::as_bool),
            Some(true)
        );
        assert_eq!(number(&run.result, "failed"), 0.0);
    }
}

#[test]
fn corrupted_oracle_is_a_failure_not_a_number() {
    for workload in WORKLOADS {
        let run = run("corrupt", workload, "2", "0", &["--corrupt-oracle"]);
        assert_ne!(run.code, 0, "{workload} exited 0 with a corrupted oracle");
        let r = &run.result;
        assert_eq!(r.get("correct").and_then(Value::as_bool), Some(false));
        assert!(number(r, "failed") >= 1.0);
        assert_eq!(
            r.get("metrics").and_then(Value::as_object).map(<[_]>::len),
            Some(0),
            "{workload}: a failed run printed numbers"
        );
        assert!(run.stderr.contains("FAILED"), "{workload}: {}", run.stderr);
    }
}
