//! `BENCHMARK.json` at the repository root agrees with the code: the same
//! workloads, the gated end-to-end metrics with the code's units,
//! directions and bounds, and exactly the per-layer metrics the traced
//! time-boxed run reports.

use std::path::Path;

use fadr_benchmark::json::Json;
use fadr_benchmark::layers::{layer_better, layer_names, layer_unit};
use fadr_benchmark::workloads::{Scale, NAMES};
use fadr_benchmark::{metric, GATED};

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<&str> {
    list.items()
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect()
}

#[test]
fn workloads_match() {
    let m = manifest();
    assert_eq!(names(m.get("workloads").expect("workloads")), NAMES);
}

#[test]
fn end_to_end_metrics_match_the_definitions() {
    let m = manifest();
    let list = m.get("end_to_end").expect("end_to_end");
    assert_eq!(names(list), GATED);
    for e in list.items() {
        let name = e.get("name").and_then(Json::as_str).expect("name");
        let def = metric(name).expect("defined");
        assert_eq!(
            e.get("unit").and_then(Json::as_str),
            Some(def.unit),
            "{name}"
        );
        assert_eq!(
            e.get("better").and_then(Json::as_str),
            Some(def.better.as_str()),
            "{name}"
        );
        assert_eq!(
            e.get("bound").and_then(Json::as_f64),
            Some(def.bound),
            "{name}"
        );
    }
}

#[test]
fn per_layer_metrics_are_the_timed_trace_names() {
    let m = manifest();
    let list = m.get("per_layer").expect("per_layer");
    let want = layer_names(Scale::Timed);
    assert_eq!(
        names(list),
        want.iter().map(String::as_str).collect::<Vec<_>>()
    );
    for e in list.items() {
        let name = e.get("name").and_then(Json::as_str).expect("name");
        assert_eq!(
            e.get("unit").and_then(Json::as_str),
            Some(layer_unit(name)),
            "{name}"
        );
        assert_eq!(
            e.get("better").and_then(Json::as_str),
            Some(layer_better(name).as_str()),
            "{name}"
        );
    }
}
