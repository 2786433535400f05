//! In-process calibration memo.
//!
//! The full offline procedure of [`calibrate_testbed`] simulates
//! hundreds of communication-cycle benchmarks; its output depends only on the
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
//! only reproduce its error.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use netpart_model::NetpartError;
use netpart_topology::Topology;

use crate::costmodel::CalibratedCostModel;
use crate::fit::{calibrate_testbed, CalibrationConfig};
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

type Memo = HashMap<u64, Result<CalibratedCostModel, NetpartError>>;

/// The process memo: fingerprint to calibration outcome.
fn memo() -> &'static Mutex<Memo> {
    static MEMO: OnceLock<Mutex<Memo>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Like [`calibrate_testbed`], but consults the process memo first.
/// Returns the model and where it came from — the [`CacheStatus`] is the
/// only signal; nothing is logged. The memo lock is held across the
/// fill, so concurrent requests for the same fingerprint wait for one
/// calibration (single-flight).
pub fn calibrate_testbed_cached_status(
    testbed: &Testbed,
    topologies: &[Topology],
    cfg: &CalibrationConfig,
) -> Result<(CalibratedCostModel, CacheStatus), NetpartError> {
    let fp = calibration_fingerprint(testbed, topologies, cfg);
    let mut map = memo().lock().expect("calibration memo poisoned");
    if let Some(outcome) = map.get(&fp) {
        return outcome.clone().map(|model| (model, CacheStatus::MemoHit));
    }
    let outcome = calibrate_testbed(testbed, topologies, cfg);
    map.insert(fp, outcome.clone());
    outcome.map(|model| (model, CacheStatus::Miss))
}

/// Like [`calibrate_testbed`], but computed at most once per process for
/// a given (testbed, topologies, config) input.
pub fn calibrate_testbed_cached(
    testbed: &Testbed,
    topologies: &[Topology],
    cfg: &CalibrationConfig,
) -> Result<CalibratedCostModel, NetpartError> {
    Ok(calibrate_testbed_cached_status(testbed, topologies, cfg)?.0)
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

    /// A one-node cluster cannot communicate, so its calibration fails;
    /// the memo remembers the failure under the inputs' fingerprint, and
    /// a later caller gets it back as a hit.
    #[test]
    fn a_failed_calibration_is_remembered() {
        let mut tb = Testbed::synthetic(1, 1, 1.0);
        tb.seed = 0x0ae1_0001; // a fingerprint no other test uses
        let topologies = [Topology::OneD];
        let cfg = quick_cfg();
        let first = calibrate_testbed_cached(&tb, &topologies, &cfg).unwrap_err();
        assert!(matches!(first, NetpartError::Calibration(_)), "{first:?}");
        let fp = calibration_fingerprint(&tb, &topologies, &cfg);
        let remembered = memo()
            .lock()
            .expect("calibration memo poisoned")
            .get(&fp)
            .cloned();
        match remembered {
            Some(Err(e)) => assert_eq!(e, first),
            other => panic!("expected the remembered failure, got {other:?}"),
        }
        let again = calibrate_testbed_cached(&tb, &topologies, &cfg).unwrap_err();
        assert_eq!(again, first);
    }
}
