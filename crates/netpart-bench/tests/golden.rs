//! Golden-output parity: the pipeline-backed experiment harness must
//! reproduce the pre-refactor Table 1, Table 2, and Fig. 3 text **byte
//! for byte**. The fixture is the captured stdout of
//! `experiments -- table1 table2 fig3` from before cycle execution moved
//! behind the engine and the experiments moved onto Scenario → plan →
//! run; this test rebuilds the same bytes through the refactored stack.
//!
//! If this test fails, the refactor changed an experiment's *result*,
//! not just its plumbing — regenerate the fixture only when that is
//! deliberate:
//!
//! ```text
//! cargo run --release -p netpart-bench --bin experiments -- table1 table2 fig3 \
//!   2>/dev/null > crates/netpart-bench/tests/fixtures/golden_t1t2f3.txt
//! ```

use std::sync::OnceLock;

use netpart_apps::stencil::StencilVariant;
use netpart_bench::*;
use netpart_calibrate::CalibratedCostModel;

fn model() -> &'static CalibratedCostModel {
    static MODEL: OnceLock<CalibratedCostModel> = OnceLock::new();
    MODEL.get_or_init(|| paper_calibration().expect("paper calibration"))
}

#[test]
fn pipeline_output_matches_pre_refactor_fixture() {
    // Compose exactly what the binary prints for
    // `experiments -- table1 table2 fig3`: each command's segment
    // followed by the blank separator line `main` emits after it.
    let mut out = String::new();
    out.push_str(&render_table1(&table1().expect("table1")));
    out.push('\n');
    out.push_str(&render_table2(
        &table2(model(), &PAPER_SIZES, PAPER_ITERS).expect("table2"),
    ));
    out.push('\n');
    for (n, variant) in [
        (60u64, StencilVariant::Sten1),
        (600, StencilVariant::Sten1),
        (600, StencilVariant::Sten2),
    ] {
        let points = fig3(model(), n, variant, PAPER_ITERS).expect("fig3");
        out.push_str(&render_fig3(n, variant, &points));
    }
    out.push('\n');

    let golden = include_str!("fixtures/golden_t1t2f3.txt");
    if out != golden {
        // Byte diffs in a wall of table text are unreadable; point at the
        // first differing line instead.
        for (i, (got, want)) in out.lines().zip(golden.lines()).enumerate() {
            assert_eq!(got, want, "first divergence at line {}", i + 1);
        }
        assert_eq!(out.len(), golden.len(), "outputs differ only in length");
        unreachable!("strings differ but no line diff found");
    }
}

/// The paper testbed now reaches the simulator through the generic
/// [`Fabric`](netpart_calibrate::Fabric) builder. The golden byte-parity
/// above proves the *results* did not move; this pins the *shape* the
/// builder produces, so a generator regression cannot hide behind a
/// cost model that happens to mask it.
#[test]
fn paper_testbed_lowers_to_the_paper_fabric() {
    use netpart_calibrate::Testbed;

    let tb = Testbed::paper();
    let fabric = tb.fabric();
    // Fig. 1: two cluster segments joined by one router — a star.
    assert_eq!(fabric.num_segments(), 2);
    assert_eq!(fabric.num_routers(), 1);
    fabric.validate().expect("the paper fabric is valid");
    // Every cluster pair sits one router hop apart, exactly the flat
    // one-hop world the pre-fabric testbed hard-coded.
    let hops = tb.cluster_hops().expect("paper fabric connects");
    assert_eq!(hops, vec![vec![0, 1], vec![1, 0]]);
    // And the built network routes between the clusters in one hop.
    let net = fabric.build().expect("paper fabric builds");
    let a = net.nodes_on_segment(netpart_sim::SegmentId(0))[0];
    let b = net.nodes_on_segment(netpart_sim::SegmentId(1))[0];
    assert!(net.route_exists(a, b));
    assert_eq!(net.hop_count(a, b), Some(1));
}

/// EXPERIMENTS.md's §6 table restates the `experiments -- gauss` block of
/// `experiments_all.txt`: for each N, the predicted configuration and its
/// time, the fastest probe and its configuration, and the gap between
/// them. A fixture regenerated without the table fails here.
#[test]
fn experiments_md_gauss_table_matches_the_fixture() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let section = doc
        .split("\n## ")
        .find(|s| s.starts_with("§6 — Gaussian elimination"))
        .expect("EXPERIMENTS.md has a §6 Gaussian elimination section");
    let table: Vec<Vec<String>> = section
        .lines()
        .filter(|l| l.starts_with("| ") && l.as_bytes()[2].is_ascii_digit())
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_owned())
                .collect()
        })
        .collect();

    let all = include_str!("fixtures/experiments_all.txt");
    let block = all
        .split("\n\n")
        .find(|b| b.starts_with("§6 — Gaussian elimination"))
        .expect("the fixture has the gauss block");
    // "N= 128: predicted (2,0) → 719.7 ms (residual …)", its probes
    // "probe (1,0) → 431.7 ms", then "predicted within 66.7% of best probe".
    fn ms_of(line: &str) -> Option<&str> {
        line.split("→ ").nth(1)?.split(" ms").next()
    }
    let mut want: Vec<Vec<String>> = Vec::new();
    let mut best: Option<(f64, String)> = None;
    for line in block.lines().skip(1).map(str::trim) {
        if let Some(head) = line.strip_prefix("N=") {
            let (n, rest) = head.split_once(':').expect("N=…: …");
            let config = rest.split_whitespace().nth(1).expect("a configuration");
            let ms = ms_of(line).expect("a predicted time");
            want.push(vec![n.trim().into(), config.into(), ms.into()]);
            best = None;
        } else if let Some(probe) = line.strip_prefix("probe ") {
            let ms = ms_of(line).expect("a probe time");
            let config = probe.split_whitespace().next().expect("a configuration");
            let value: f64 = ms.parse().expect("a number");
            if best.as_ref().is_none_or(|(b, _)| value < *b) {
                best = Some((value, format!("{ms} {config}")));
            }
        } else if let Some(gap) = line.strip_prefix("predicted within ") {
            let gap: f64 = gap
                .split('%')
                .next()
                .and_then(|g| g.parse().ok())
                .expect("a gap");
            let row = want.last_mut().expect("a row before its gap");
            row.push(best.take().expect("probes before the gap").1);
            row.push(format!("{}{gap:.1}%", if gap > 0.0 { "+" } else { "" }));
        }
    }
    assert_eq!(want.len(), 3, "the fixture's gauss block has three sizes");
    assert_eq!(table, want, "EXPERIMENTS.md §6 against experiments_all.txt");
}
