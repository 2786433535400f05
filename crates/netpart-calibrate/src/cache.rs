//! In-process calibration memo.
//!
//! The full offline procedure of [`calibrate_testbed`](crate::calibrate_testbed) simulates hundreds
//! of communication-cycle benchmarks; its output depends only on the
//! testbed description, the topology list, and the sweep configuration.
//! [`calibrate_testbed_cached`] therefore keys the result by a fingerprint
//! of those inputs and keeps it in a `OnceLock`-guarded map, so one
//! process never calibrates the same inputs twice (not even from
//! different threads). Nothing is persisted: every process calibrates
//! from the code it runs.
//!
//! The memo holds the calibration's *outcome*, a failure as well as a
//! fit. The simulation is seeded, so the outcome is a deterministic
//! function of the inputs, and calibrating a broken testbed again could
//! only reproduce its error. The one exception is
//! [`NetpartError::PlanDeadlineExceeded`]: it comes from the caller's
//! budget (expiry or cancel), not from the inputs, so it is never
//! memoized and a later caller with budget to spare calibrates.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use netpart_model::{Budget, NetpartError};
use netpart_topology::Topology;

use crate::costmodel::CalibratedCostModel;
use crate::fit::{calibrate_testbed_budgeted, CalibrationConfig};
use crate::testbed::Testbed;

/// Where a cached-calibration request was satisfied from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Already calibrated in this process.
    MemoHit,
    /// Ran the full calibration.
    Miss,
}

/// Fingerprint of everything the calibration result depends on: the full
/// testbed description (machine classes, segment/router recipes, seed,
/// wiring), the topology list, and the sweep configuration.
/// FNV-1a over the `Debug` rendering — every field of every component
/// derives `Debug`, and `{:?}` prints floats with full round-trip
/// precision, so any change to any constant changes the fingerprint.
pub fn calibration_fingerprint(
    testbed: &Testbed,
    topologies: &[Topology],
    cfg: &CalibrationConfig,
) -> u64 {
    let repr = format!("{testbed:?}|{topologies:?}|{cfg:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in repr.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Like [`calibrate_testbed`](crate::calibrate_testbed), but consults the
/// process memo first. Returns the model and where it came from — the
/// [`CacheStatus`] is the only signal; nothing is logged.
pub fn calibrate_testbed_cached_status(
    testbed: &Testbed,
    topologies: &[Topology],
    cfg: &CalibrationConfig,
) -> Result<(CalibratedCostModel, CacheStatus), NetpartError> {
    cached(testbed, topologies, cfg, &Budget::unlimited())
}

/// The cached calibration under a cooperative [`Budget`]. Memo hits —
/// remembered fits and remembered failures alike — are served
/// regardless of the budget (they are cheap); only a miss — the
/// full simulated benchmarking procedure — polls the budget, so an
/// expired plan-server request stops sweeping instead of burning a
/// worker. The memo lock is held across the fill, so concurrent requests
/// for the same fingerprint wait for one calibration (single-flight) —
/// a waiter's own deadline is re-checked once it acquires the lock.
fn cached(
    testbed: &Testbed,
    topologies: &[Topology],
    cfg: &CalibrationConfig,
    budget: &Budget,
) -> Result<(CalibratedCostModel, CacheStatus), NetpartError> {
    type Memo = HashMap<u64, Result<CalibratedCostModel, NetpartError>>;
    static MEMO: OnceLock<Mutex<Memo>> = OnceLock::new();
    let memo = MEMO.get_or_init(|| Mutex::new(HashMap::new()));
    let fp = calibration_fingerprint(testbed, topologies, cfg);

    // Hold the lock across the whole fill so concurrent callers with the
    // same fingerprint wait for one calibration instead of racing.
    let mut map = memo.lock().expect("calibration memo poisoned");
    if let Some(outcome) = map.get(&fp) {
        return outcome.clone().map(|model| (model, CacheStatus::MemoHit));
    }
    let outcome = budget
        .check()
        .and_then(|()| calibrate_testbed_budgeted(testbed, topologies, cfg, budget));
    if !matches!(outcome, Err(NetpartError::PlanDeadlineExceeded { .. })) {
        map.insert(fp, outcome.clone());
    }
    outcome.map(|model| (model, CacheStatus::Miss))
}

/// Like [`calibrate_testbed`](crate::calibrate_testbed), but computed at
/// most once per process for a given (testbed, topologies, config) input.
pub fn calibrate_testbed_cached(
    testbed: &Testbed,
    topologies: &[Topology],
    cfg: &CalibrationConfig,
) -> Result<CalibratedCostModel, NetpartError> {
    Ok(calibrate_testbed_cached_status(testbed, topologies, cfg)?.0)
}

/// [`calibrate_testbed_cached`] under a cooperative [`Budget`].
pub fn calibrate_testbed_cached_budgeted(
    testbed: &Testbed,
    topologies: &[Topology],
    cfg: &CalibrationConfig,
    budget: &Budget,
) -> Result<CalibratedCostModel, NetpartError> {
    Ok(cached(testbed, topologies, cfg, budget)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_every_input() {
        let tb = Testbed::paper();
        let cfg = CalibrationConfig::default();
        let base = calibration_fingerprint(&tb, &[Topology::OneD], &cfg);

        let mut tb2 = tb.clone();
        tb2.seed += 1;
        assert_ne!(base, calibration_fingerprint(&tb2, &[Topology::OneD], &cfg));

        let mut tb3 = tb.clone();
        tb3.clusters[0].proc_type.sec_per_flop *= 1.0 + 1e-12;
        assert_ne!(base, calibration_fingerprint(&tb3, &[Topology::OneD], &cfg));

        assert_ne!(
            base,
            calibration_fingerprint(&tb, &[Topology::OneD, Topology::Ring], &cfg)
        );

        let mut cfg2 = cfg.clone();
        cfg2.cycles += 1;
        assert_ne!(base, calibration_fingerprint(&tb, &[Topology::OneD], &cfg2));
    }

    fn quick_cfg() -> CalibrationConfig {
        CalibrationConfig {
            b_values: vec![256, 1024, 4096],
            cycles: 6,
            warmup: 1,
        }
    }

    fn expired() -> Budget {
        let budget = Budget::unlimited();
        budget.cancel();
        budget
    }

    /// A one-node cluster cannot communicate, so its calibration fails;
    /// the failure is remembered, and a later caller gets it back even
    /// with no budget left to calibrate.
    #[test]
    fn a_failed_calibration_is_remembered() {
        let mut tb = Testbed::synthetic(1, 1, 1.0);
        tb.seed = 0x0ae1_0001; // a fingerprint no other test uses
        let topologies = [Topology::OneD];
        let first =
            calibrate_testbed_cached_budgeted(&tb, &topologies, &quick_cfg(), &Budget::unlimited())
                .unwrap_err();
        assert!(matches!(first, NetpartError::Calibration(_)), "{first:?}");
        let again = calibrate_testbed_cached_budgeted(&tb, &topologies, &quick_cfg(), &expired())
            .unwrap_err();
        assert_eq!(again, first);
    }

    /// An expired budget is the caller's, not the inputs': the miss it
    /// ends is not memoized, and a later unlimited caller calibrates.
    #[test]
    fn an_expired_budget_miss_is_not_remembered() {
        let mut tb = Testbed::synthetic(1, 4, 1.0);
        tb.seed = 0x0ae1_0002; // a fingerprint no other test uses
        let topologies = [Topology::OneD];
        let err = calibrate_testbed_cached_budgeted(&tb, &topologies, &quick_cfg(), &expired())
            .unwrap_err();
        assert!(
            matches!(err, NetpartError::PlanDeadlineExceeded { .. }),
            "{err:?}"
        );
        let (model, status) =
            calibrate_testbed_cached_status(&tb, &topologies, &quick_cfg()).expect("calibrates");
        assert_eq!(status, CacheStatus::Miss);
        assert!(model.intra.contains_key(&(0, Topology::OneD)));
    }
}
