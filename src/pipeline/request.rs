//! Plan serving: the request/response vocabulary of `netpart::serve` and
//! the fingerprints its cache and breaker key on.

use netpart_calibrate::calibration_fingerprint;
use netpart_model::Budget;

use super::scenario::{CostSource, Plan, Scenario};

/// A planning request as submitted to a
/// [`PlanServer`](crate::serve::PlanServer): the scenario plus an
/// optional wall-clock deadline budget.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// The scenario to plan.
    pub scenario: Scenario,
    /// Wall-clock deadline, milliseconds, measured from submission.
    /// `None` = no deadline. An expired request terminates with the typed
    /// [`NetpartError::PlanDeadlineExceeded`](crate::NetpartError::PlanDeadlineExceeded)
    /// — queued, mid-calibration,
    /// or mid-partition.
    pub deadline_ms: Option<f64>,
}

impl PlanRequest {
    /// A request with no deadline.
    pub fn new(scenario: Scenario) -> PlanRequest {
        PlanRequest {
            scenario,
            deadline_ms: None,
        }
    }

    /// Attach a wall-clock deadline budget, in milliseconds.
    pub fn with_deadline_ms(mut self, ms: f64) -> PlanRequest {
        self.deadline_ms = Some(ms);
        self
    }

    /// Start the request's cooperative budget clock (at submission time).
    pub fn start_budget(&self) -> Budget {
        match self.deadline_ms {
            Some(ms) => Budget::deadline_ms(ms),
            None => Budget::unlimited(),
        }
    }
}

/// Where a served plan came from — stamped on every
/// [`PlanResponse`] so callers can tell a fresh computation from a cache
/// hit from degraded-mode service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Computed by the full planning pipeline for this request.
    Fresh,
    /// Byte-identical cached plan for the same scenario fingerprint,
    /// served while the scenario's calibration class is healthy.
    Cache,
    /// The last-known-good cached plan, served while the calibration
    /// circuit for this scenario's fingerprint class is **open**
    /// (degraded mode). The plan is still byte-identical to a cold
    /// computation of the same scenario; the stamp carries its age so
    /// callers can judge staleness.
    StaleCache {
        /// Milliseconds since the cached plan was computed.
        age_ms: u64,
    },
    /// Planned fresh under the [`CostSource::Paper`] fallback model
    /// because the calibration circuit is open and no cached plan exists
    /// for this fingerprint.
    PaperFallback,
}

/// A served plan plus its provenance and latency accounting.
#[derive(Debug, Clone)]
pub struct PlanResponse {
    /// The partitioning decision.
    pub plan: Plan,
    /// Where the plan came from.
    pub source: PlanSource,
    /// Transient-failure retries spent before this response.
    pub retries: u32,
    /// Wall-clock ms the request waited in the admission queue.
    pub queue_ms: f64,
    /// Wall-clock ms from submission to response.
    pub total_ms: f64,
}

/// Fingerprint of everything [`Scenario::plan`] depends on: the full
/// testbed description, the application model, the topology list, the
/// cost source, the partitioner options, placement, and distribution.
///
/// FNV-1a over the `Debug` rendering — the same technique as
/// [`calibration_fingerprint`] — extended with point samples of every
/// phase's complexity callback at several PDU counts: callbacks
/// `Debug`-print only as their value at `a = 1`, so two different
/// nonlinear annotations could otherwise collide on one fingerprint and
/// the plan cache would serve a *wrong* plan. Probing at 1, 7, 1000 and
/// 123457 pins the curve, not just one point.
pub fn scenario_fingerprint(s: &Scenario) -> u64 {
    let mut repr = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        s.testbed, s.app, s.topologies, s.cost, s.options, s.placement, s.distribute
    );
    for phase in s.app.comp_phases() {
        for a in [1.0, 7.0, 1000.0, 123_457.0] {
            repr.push_str(&format!("|comp {} @{a}: {:?}", phase.name, phase.ops(a)));
        }
    }
    for phase in s.app.comm_phases() {
        for a in [1.0, 7.0, 1000.0, 123_457.0] {
            repr.push_str(&format!("|comm {} @{a}: {:?}", phase.name, phase.bytes(a)));
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in repr.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The breaker *class* of a scenario: what groups requests for circuit-
/// breaking purposes. Calibrated scenarios share a class when they share
/// a calibration fingerprint (same testbed, topologies, and sweep
/// configuration — the unit that fails together when calibration
/// breaks); other cost sources never touch the calibration path, so they
/// map to per-source sentinel classes that the breaker counts but which
/// in practice never trip.
pub fn scenario_class(s: &Scenario) -> u64 {
    match &s.cost {
        CostSource::Calibrated(cfg) => calibration_fingerprint(&s.testbed, &s.topologies, cfg),
        CostSource::Paper => 1,
        CostSource::Measured => 2,
        CostSource::Fixed(_) => 3,
    }
}
