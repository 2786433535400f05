//! The built program, end to end: `run --quick`, the result file it
//! writes, and `compare` on that file against itself.

use std::path::PathBuf;
use std::process::Command;

use netpart_benchmark::json::parse;
use netpart_benchmark::schema::{ResultFile, END_TO_END, PER_LAYER, WORKLOADS};

const EXE: &str = env!("CARGO_BIN_EXE_netpart-benchmark");

fn out_file(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

/// Workloads cheap enough for an unoptimized test build; with
/// `cargo test --release` the whole suite runs.
fn workloads_to_run() -> Vec<&'static str> {
    if cfg!(debug_assertions) {
        vec!["plan_scale", "recover"]
    } else {
        WORKLOADS.iter().map(|(n, _)| *n).collect()
    }
}

#[test]
fn quick_run_writes_a_valid_result_file_and_compares_equal_to_itself() {
    let path = out_file("quick-result.json");
    let names = workloads_to_run();
    let out = Command::new(EXE)
        .args(["run", "--quick", "--traced", "--seed", "5", "--only"])
        .arg(names.join(","))
        .arg("--out")
        .arg(&path)
        .output()
        .expect("spawn");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(!stdout.contains("FAILED"), "{stdout}");

    let text = std::fs::read_to_string(&path).expect("result file");
    let file = ResultFile::from_json(&parse(&text).expect("parses")).expect("validates");
    assert_eq!(file.seed, 5);
    let listed: Vec<&str> = file.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(listed, names);
    for w in &file.workloads {
        assert!(w.correct && w.failed == 0 && w.attempted >= 1, "{}", w.name);
        assert_eq!(w.end_to_end.len(), END_TO_END.len(), "{}", w.name);
        assert_eq!(w.per_layer.len(), PER_LAYER.len(), "{}", w.name);
        for m in &w.end_to_end {
            // End-to-end metrics are never zero.
            assert!(
                m.values.len() == 1 && m.values[0] > 0.0 && m.values[0].is_finite(),
                "{}: {} = {:?}",
                w.name,
                m.name,
                m.values
            );
        }
    }

    let out = Command::new(EXE)
        .arg("compare")
        .arg(&path)
        .arg(&path)
        .output()
        .expect("spawn");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("PASS") && !stdout.contains("regressed"),
        "{stdout}"
    );
    assert!(stdout.contains("all exactly equal"), "{stdout}");
}

#[test]
fn a_regression_fails_compare() {
    use netpart_benchmark::compare::{judge, Verdict};
    use netpart_benchmark::schema::Better;
    let a = [100.0, 101.0, 99.0, 100.5, 99.5];
    let worse: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
    let better: Vec<f64> = a.iter().map(|v| v * 0.8).collect();
    assert_eq!(judge(&a, &worse, Better::Lower, 0.10), Verdict::Regressed);
    assert_eq!(judge(&a, &better, Better::Lower, 0.10), Verdict::Improved);
    assert_eq!(judge(&a, &a, Better::Lower, 0.10), Verdict::Unchanged);
    assert_eq!(judge(&a, &worse, Better::Higher, 0.10), Verdict::Improved);
    assert_eq!(judge(&a, &better, Better::Higher, 0.10), Verdict::Regressed);
    // A spread wider than the bound settles nothing.
    let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
    assert_eq!(
        judge(&noisy, &worse, Better::Lower, 0.10),
        Verdict::Unresolved
    );
    // One run each: no spread known, the bound alone decides.
    assert_eq!(
        judge(&[100.0], &[111.0], Better::Lower, 0.10),
        Verdict::Regressed
    );
    assert_eq!(
        judge(&[100.0], &[105.0], Better::Lower, 0.10),
        Verdict::Unchanged
    );
}

#[test]
fn the_driver_protocol_rejects_bad_arguments_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--seed", "1"],
        vec!["--workload", "flood", "--trace", "2"],
        vec!["--workload", "flood", "--bogus", "1"],
    ] {
        let out = Command::new(EXE).args(&args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
