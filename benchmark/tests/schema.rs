//! Result files round-trip and are validated; the metric tables respect
//! the driver's limits and agree with `BENCHMARK.json`.

use std::collections::HashSet;

use netpart_benchmark::json::{parse, Json};
use netpart_benchmark::schema::{
    limits, valid_name, valid_unit, Machine, MetricValues, ResultFile, WorkloadResult, END_TO_END,
    PER_LAYER, WORKLOADS,
};

fn metric(name: &str, unit: &str, values: &[f64]) -> MetricValues {
    MetricValues {
        name: name.into(),
        unit: unit.into(),
        values: values.to_vec(),
    }
}

fn workload(name: &str) -> WorkloadResult {
    WorkloadResult {
        name: name.into(),
        correct: true,
        attempted: 42,
        failed: 0,
        end_to_end: vec![
            metric("op_ms", "ms", &[1.25, 1.5, 0.1 + 0.2]),
            metric("ops_per_s", "1/s", &[800.0, 790.5, 1e-7]),
        ],
        per_layer: vec![metric("sim.events", "count", &[1_656_824.0])],
    }
}

fn sample(workloads: Vec<WorkloadResult>) -> ResultFile {
    ResultFile {
        machine: Machine {
            nproc: 2,
            rustc: "rustc 1.95.0 (59807616e 2026-04-14)".into(),
            commit: "unknown".into(),
            sweep_threads: 2,
        },
        seed: 1994,
        seconds: 10.0,
        runs: 3,
        workloads,
    }
}

#[test]
fn result_file_round_trips_bit_for_bit() {
    let file = sample(vec![workload("paper12"), workload("flood")]);
    for text in [file.to_json().to_pretty(), file.to_json().to_line()] {
        let back = ResultFile::from_json(&parse(&text).expect("parses")).expect("validates");
        assert_eq!(back, file);
    }
}

#[test]
fn names_outside_the_charset_are_refused() {
    for bad in ["op ms", "op/ms", "", "µs", ".hidden", "-x", &"a".repeat(65)] {
        assert!(!valid_name(bad), "`{bad}` must be refused");
    }
    for good in [
        "op_ms",
        "serve.p99_ms.r2500",
        "a-b",
        "9lives",
        &"a".repeat(64),
    ] {
        assert!(valid_name(good), "`{good}` must be accepted");
    }
    let mut w = workload("paper12");
    w.end_to_end.push(metric("op ms", "ms", &[1.0]));
    let text = sample(vec![w, workload("flood")]).to_json().to_line();
    let err = ResultFile::from_json(&parse(&text).expect("parses")).expect_err("bad name");
    assert!(err.contains("op ms"), "{err}");

    let text = sample(vec![workload("paper 12"), workload("flood")])
        .to_json()
        .to_line();
    assert!(ResultFile::from_json(&parse(&text).expect("parses")).is_err());
}

#[test]
fn units_outside_the_charset_are_refused() {
    for bad in ["", "per second", "µs", &"m".repeat(17)] {
        assert!(!valid_unit(bad), "`{bad}` must be refused");
    }
    for good in ["ms", "1/s", "%", "count", "MB", "ns/op"] {
        assert!(valid_unit(good), "`{good}` must be accepted");
    }
}

#[test]
fn workload_and_metric_counts_are_bounded() {
    let parse_file =
        |f: &ResultFile| ResultFile::from_json(&parse(&f.to_json().to_line()).expect("parses"));
    assert!(
        parse_file(&sample(vec![workload("only")])).is_err(),
        "one workload"
    );
    let nine: Vec<WorkloadResult> = (0..9).map(|i| workload(&format!("w{i}"))).collect();
    assert!(parse_file(&sample(nine)).is_err(), "nine workloads");
    let eight: Vec<WorkloadResult> = (0..8).map(|i| workload(&format!("w{i}"))).collect();
    assert!(parse_file(&sample(eight)).is_ok(), "eight workloads");
    assert!(
        parse_file(&sample(vec![workload("twice"), workload("twice")])).is_err(),
        "a workload listed twice"
    );

    let mut w = workload("paper12");
    w.end_to_end = (0..17)
        .map(|i| metric(&format!("m{i}"), "ms", &[1.0]))
        .collect();
    assert!(
        parse_file(&sample(vec![w, workload("flood")])).is_err(),
        "17 end-to-end"
    );
    let mut w = workload("paper12");
    w.per_layer = (0..129)
        .map(|i| metric(&format!("l.m{i}"), "ms", &[1.0]))
        .collect();
    assert!(
        parse_file(&sample(vec![w, workload("flood")])).is_err(),
        "129 per-layer"
    );
    let mut w = workload("paper12");
    w.end_to_end = (0..16)
        .map(|i| metric(&format!("m{i}"), "ms", &[1.0]))
        .collect();
    w.per_layer = (0..128)
        .map(|i| metric(&format!("l.m{i}"), "ms", &[1.0]))
        .collect();
    assert!(
        parse_file(&sample(vec![w, workload("flood")])).is_ok(),
        "at the limits"
    );
}

#[test]
fn anything_else_is_not_a_result_file() {
    for text in ["{}", "[]", r#"{"schema": "something-else/1"}"#] {
        assert!(ResultFile::from_json(&parse(text).expect("parses")).is_err());
    }
    for broken in [
        "",
        "{",
        r#"{"a": 1,}"#,
        r#"{"a": 1} x"#,
        r#"{"a": 1, "a": 2}"#,
    ] {
        assert!(parse(broken).is_err(), "`{broken}` must not parse");
    }
}

#[test]
fn the_tables_respect_the_drivers_limits() {
    assert!((limits::MIN_WORKLOADS..=limits::MAX_WORKLOADS).contains(&WORKLOADS.len()));
    assert!((1..=limits::MAX_END_TO_END).contains(&END_TO_END.len()));
    assert!((1..=limits::MAX_PER_LAYER).contains(&PER_LAYER.len()));
    let mut seen = HashSet::new();
    for (name, why) in WORKLOADS {
        assert!(valid_name(name), "{name}");
        assert!(
            why.chars().count() <= 200 && !why.contains('\n'),
            "{name}: why"
        );
        assert!(seen.insert(*name), "{name} used twice");
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name), "{}", m.name);
        assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
        assert!(seen.insert(m.name), "{} used twice", m.name);
    }
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics are bounded");
        assert!(bound > 0.0 && bound <= limits::MAX_BOUND, "{}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!(setup.unit, "s");
    assert_eq!(setup.better.as_str(), "lower");
    let largest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
}

/// `BENCHMARK.json` is what the driver reads; the tables are what the
/// program prints. They must say the same thing.
#[test]
fn benchmark_json_agrees_with_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    let j = parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = j
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let strings = |key: &str| -> Vec<String> {
        j.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|s| s.as_str().expect("string").to_string())
            .collect()
    };
    assert_eq!(strings("paths"), ["benchmark"]);
    let command = strings("command");
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert!(command
        .iter()
        .all(|c| !c.starts_with('/') && !c.contains("..")));
    let secs = j
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));

    let listed = |key: &str| -> Vec<Vec<(String, Json)>> {
        j.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|o| o.as_obj().expect("object").to_vec())
            .collect()
    };
    let field = |o: &[(String, Json)], k: &str| -> Json {
        o.iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.clone())
            .unwrap_or(Json::Null)
    };
    let workloads = listed("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (o, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(o.len(), 2, "exactly name and why");
        assert_eq!(field(o, "name"), Json::Str(name.to_string()));
        assert_eq!(field(o, "why"), Json::Str(why.to_string()));
    }
    for (key, table, bounded) in [
        ("end_to_end", END_TO_END, true),
        ("per_layer", PER_LAYER, false),
    ] {
        let metrics = listed(key);
        assert_eq!(metrics.len(), table.len(), "{key}");
        for (o, def) in metrics.iter().zip(table) {
            assert_eq!(o.len(), if bounded { 4 } else { 3 }, "{}", def.name);
            assert_eq!(field(o, "name"), Json::Str(def.name.into()));
            assert_eq!(field(o, "unit"), Json::Str(def.unit.into()));
            assert_eq!(field(o, "better"), Json::Str(def.better.as_str().into()));
            if bounded {
                assert_eq!(field(o, "bound").as_f64(), def.bound, "{}", def.name);
            }
        }
    }
}
