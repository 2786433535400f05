//! Every `BENCH_*.json` emitter, run on a real report: the one writer in
//! `report.rs` must hand back a well-formed document whatever free text
//! (typed errors, `Debug`-printed fault events) the report carries.

use netpart_bench::*;

/// Brackets balance outside strings, strings close, and no control byte
/// other than the layout's own newlines appears anywhere.
fn assert_well_formed(name: &str, doc: &str) {
    let mut open = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    for c in doc.chars() {
        assert!(c >= ' ' || c == '\n', "{name}: raw control byte {c:?}");
        if in_string {
            assert!(c != '\n', "{name}: newline inside a string");
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => open.push(c),
            '}' => assert_eq!(open.pop(), Some('{'), "{name}: unbalanced brace"),
            ']' => assert_eq!(open.pop(), Some('['), "{name}: unbalanced bracket"),
            _ => {}
        }
    }
    assert!(!in_string && open.is_empty(), "{name}: document ends open");
    assert!(doc.starts_with('{') && doc.ends_with("}\n"), "{name}");
}

fn model() -> netpart_calibrate::CalibratedCostModel {
    paper_calibration().expect("paper calibration")
}

#[test]
fn faults_json_is_well_formed() {
    let rows = faults_table(&model()).expect("faults table");
    let chaos = chaos_run(11, &model()).expect("chaos run");
    assert_well_formed("faults", &faults_json(&rows, &chaos));
}

#[test]
fn drift_json_is_well_formed() {
    let rows = drift_table(&model()).expect("drift table");
    let chaos = drift_chaos_run(11, &model()).expect("drift chaos run");
    assert_well_formed("drift", &drift_json(&rows, &chaos));
}

#[test]
fn congestion_json_is_well_formed() {
    let report = congestion_report(&model(), 120, 10).expect("congestion report");
    assert_well_formed("congestion", &congestion_json(&report));
}

#[test]
fn chaos_fuzz_json_is_well_formed() {
    // Seeds 18 and 56 force replans and a typed error: free text in
    // `detail`. The planted-bug repro adds `Debug`-printed fault events.
    let mut report = chaos_fuzz(&model(), &[18, 56]).expect("chaos fuzz");
    assert_eq!(report.violations(), Vec::<String>::new());
    let planted = planted_bug_repro(&model(), 64).expect("fuzz scan");
    report.repros.extend(planted);
    assert_eq!(report.violations().len(), 1);
    let doc = chaos_fuzz_json(&report);
    assert!(doc.contains("\"minimized_repros\": [\n"), "{doc}");
    assert_well_formed("chaos-fuzz", &doc);
}

/// Also tier-1's one run through a 256-node fat-tree: the smoke cells
/// and the directed spine outage must hold the invariant.
#[test]
fn chaos_fabric_json_is_well_formed() {
    let report = chaos_fabric_smoke().expect("fabric chaos smoke");
    assert_eq!(report.violations(), Vec::<String>::new());
    assert_well_formed("chaos-fabric", &chaos_fabric_json(&report));
}
