//! Schema drift check: runs the whole benchmark in `--smoke` mode and
//! asserts that the workload and metric names in `results.json`, in
//! `BENCHMARK.json` and in `schema.rs` are the same sets, each metric with
//! its unit and direction. Fails on drift, never on timing.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use hydra_benchmark::json::Json;
use hydra_benchmark::schema::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read_json(path: &std::path::Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// name -> (unit, better, bound) of a metric list in `BENCHMARK.json`.
fn declared(benchmark: &Json, key: &str) -> BTreeMap<String, (String, String, Option<f64>)> {
    benchmark
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
            (
                field("name"),
                (
                    field("unit"),
                    field("better"),
                    m.get("bound").and_then(Json::as_f64),
                ),
            )
        })
        .collect()
}

fn defined(defs: &[MetricDef]) -> BTreeMap<String, (String, String, Option<f64>)> {
    defs.iter()
        .map(|d| {
            (
                d.name.to_string(),
                (d.unit.to_string(), d.better.name().to_string(), d.bound),
            )
        })
        .collect()
}

/// name -> (unit, better) of one metric object of `results.json`.
fn reported(metrics: &Json) -> BTreeMap<String, (String, String)> {
    metrics
        .as_obj()
        .expect("a metric object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no value"
            );
            let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
            (name.clone(), (field("unit"), field("better")))
        })
        .collect()
}

fn without_bound(
    metrics: &BTreeMap<String, (String, String, Option<f64>)>,
) -> BTreeMap<String, (String, String)> {
    metrics
        .iter()
        .map(|(name, (unit, better, _))| (name.clone(), (unit.clone(), better.clone())))
        .collect()
}

#[test]
fn benchmark_json_schema_rs_and_a_smoke_run_name_the_same_things() {
    let benchmark = read_json(&manifest_dir().join("../BENCHMARK.json"));

    // BENCHMARK.json against schema.rs: names, units, directions, bounds.
    let workloads: Vec<(String, String)> = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            let field = |f: &str| w.get(f).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("why"))
        })
        .collect();
    let expected: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    assert_eq!(workloads, expected);
    assert_eq!(declared(&benchmark, "end_to_end"), defined(&END_TO_END));
    assert_eq!(declared(&benchmark, "per_layer"), defined(&PER_LAYER));
    let paths: Vec<&str> = benchmark
        .get("paths")
        .and_then(Json::as_arr)
        .expect("paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);

    // A smoke run against both.
    let out = manifest_dir()
        .join("out")
        .join(format!("schema-test-{}", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_hydra-benchmark"))
        .args(["--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("the benchmark binary runs");
    assert!(
        status.success(),
        "the smoke run failed operations or crashed"
    );
    let results = read_json(&out.join("results.json"));
    std::fs::remove_dir_all(&out).ok();

    let ran: Vec<&str> = results
        .get("workloads")
        .and_then(Json::as_obj)
        .expect("workloads")
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(ran, WORKLOADS.map(|(name, _)| name));
    for (name, entry) in results.get("workloads").and_then(Json::as_obj).unwrap() {
        assert_eq!(
            reported(entry.get("end_to_end").unwrap()),
            without_bound(&defined(&END_TO_END)),
            "{name}: end-to-end metrics drifted"
        );
        assert_eq!(
            reported(entry.get("per_layer").unwrap()),
            without_bound(&defined(&PER_LAYER)),
            "{name}: per-layer metrics drifted"
        );
        assert!(entry.get("ops_attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        assert_eq!(
            entry.get("ops_failed").and_then(Json::as_f64),
            Some(0.0),
            "{name}"
        );
    }
}
