//! Drift harness tests: the gray-slowdown table rows and the seeded
//! transient-fault chaos cases from `experiments -- drift`, asserted as
//! invariants rather than golden numbers.
//!
//! The table rows carry the headline claims — a 4×-slowed node is
//! detected within bounded cycles, the adaptive run repartitions exactly
//! once and beats staying put, and a `min_gain = ∞` gate provably
//! declines — all while finishing bit-identical to the sequential
//! reference. The chaos seeds mirror `experiments -- drift` and the CI
//! job: schedules are deterministic per seed, so a failure here
//! reproduces exactly.

use std::sync::OnceLock;

use netpart_bench::*;
use netpart_calibrate::CalibratedCostModel;

fn model() -> &'static CalibratedCostModel {
    static MODEL: OnceLock<CalibratedCostModel> = OnceLock::new();
    MODEL.get_or_init(|| paper_calibration().expect("paper calibration"))
}

fn table() -> &'static Vec<DriftRow> {
    static TABLE: OnceLock<Vec<DriftRow>> = OnceLock::new();
    TABLE.get_or_init(|| drift_table(model()).expect("drift table"))
}

#[test]
fn open_gate_rows_repartition_once_and_beat_staying_put() {
    for r in table().iter().filter(|r| r.min_gain_ms.is_finite()) {
        let (rec, adaptive_ms) = (r.adaptive.rec(), r.adaptive.elapsed_ms());
        assert_eq!(
            rec.repartitions, 1,
            "{}: expected exactly one accepted repartition",
            r.app
        );
        assert!(
            adaptive_ms < r.stay_ms,
            "{}: adaptive {:.3} ms must beat staying put {:.3} ms",
            r.app,
            adaptive_ms,
            r.stay_ms
        );
        assert!(
            rec.drift_gain_ms > 0.0,
            "{}: accepted repartition must project a positive net gain",
            r.app
        );
    }
}

#[test]
fn detection_latency_is_bounded() {
    for r in table() {
        let rec = r.adaptive.rec();
        assert!(
            rec.drift_detections >= 1,
            "{}: slowdown never detected",
            r.app
        );
        assert_eq!(
            rec.recalibrations, rec.drift_detections,
            "{}: every confirmation recalibrates",
            r.app
        );
        let per_detection = rec.cycles_to_detect / u64::from(rec.drift_detections);
        assert!(
            (1..=8).contains(&per_detection),
            "{}: detection took {} cycles per confirmation",
            r.app,
            per_detection
        );
    }
}

#[test]
fn infinite_min_gain_provably_declines() {
    let inf: Vec<_> = table()
        .iter()
        .filter(|r| !r.min_gain_ms.is_finite())
        .collect();
    assert!(!inf.is_empty(), "table must carry a forced-decline row");
    for r in inf {
        let rec = r.adaptive.rec();
        assert_eq!(rec.repartitions, 0, "{}: gate must decline at ∞", r.app);
        assert!(
            rec.repartitions_declined >= 1,
            "{}: decline must be recorded",
            r.app
        );
        assert_eq!(
            rec.drift_gain_ms, 0.0,
            "{}: declined rounds bank no gain",
            r.app
        );
    }
}

#[test]
fn every_row_is_bit_identical() {
    for r in table() {
        assert!(
            r.adaptive.verdict.is_identical(),
            "{} (min_gain {}): adaptive answer diverged from the sequential reference",
            r.app,
            r.min_gain_ms
        );
    }
}

fn assert_drift_chaos_seed(seed: u64) {
    let cases = drift_chaos_run(seed, model()).expect("drift chaos run");
    assert_eq!(cases.len(), 2, "one case per stencil variant");
    let mut detections = 0u32;
    for c in &cases {
        assert!(
            !c.faults.is_empty(),
            "seed {seed}: {} drew an empty schedule",
            c.app
        );
        assert!(
            c.adaptive.verdict.is_identical(),
            "seed {seed}: {} adaptive answer diverged under schedule {:?}",
            c.app,
            c.faults
        );
        detections += c.adaptive.rec().drift_detections;
    }
    assert!(
        detections >= 1,
        "seed {seed}: no schedule ever tripped the drift monitor — the seed tests nothing"
    );
}

#[test]
fn drift_chaos_seed_11_stays_bit_identical() {
    assert_drift_chaos_seed(11);
}

#[test]
fn drift_chaos_seed_23_stays_bit_identical() {
    assert_drift_chaos_seed(23);
}

#[test]
fn drift_chaos_seed_1994_stays_bit_identical() {
    assert_drift_chaos_seed(1994);
}

#[test]
fn drift_chaos_is_deterministic_per_seed() {
    let a = drift_chaos_run(23, model()).expect("first run");
    let b = drift_chaos_run(23, model()).expect("second run");
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.faults, y.faults,
            "{}: schedule must be seed-determined",
            x.app
        );
        assert_eq!(
            x.adaptive.rec(),
            y.adaptive.rec(),
            "{}: adaptive trace diverged",
            x.app
        );
        assert_eq!(
            x.adaptive.elapsed_ms().to_bits(),
            y.adaptive.elapsed_ms().to_bits(),
            "{}: adaptive elapsed time diverged",
            x.app
        );
    }
}
