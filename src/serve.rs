//! Planner-as-a-service: an overload-robust server over
//! [`Scenario::plan`].
//!
//! [`PlanServer`] binds the generic engine in [`netpart_serve`] to the
//! planning pipeline: submissions are [`PlanRequest`]s (a [`Scenario`]
//! plus an optional deadline), responses are [`PlanResponse`]s (a
//! [`Plan`] stamped with its [`PlanSource`]).
//! The server layers a fingerprinted **plan cache** over the calibration
//! cache: two requests with equal [`scenario_fingerprint`]s get
//! byte-identical plans, computed once.
//!
//! Overload behavior, end to end:
//!
//! - submissions beyond [`ServeConfig::queue_depth`] are shed with the
//!   typed [`NetpartError::ServerOverloaded`];
//! - a request's [`PlanRequest::deadline_ms`] is enforced cooperatively
//!   through the calibration sweep and the partitioner's fill loop —
//!   expiry terminates with [`NetpartError::PlanDeadlineExceeded`];
//! - consecutive calibration failures for one fingerprint *class* open a
//!   circuit breaker: further requests of the class are served degraded
//!   — the last-known-good cached plan (stamped `StaleCache`) or a fresh
//!   plan under the [`CostSource::Paper`] fallback model (`Fallback`)
//!   when the paper's constants cover the scenario — while counted
//!   half-open probes test for recovery.
//!
//! Planning is a deterministic function of the scenario, so a failed
//! plan is never retried: re-running it could only reproduce the error.
//! With the [`ServeConfig::transparent`] configuration (one worker, no
//! queue bound, no deadline) the server is byte-transparent to calling
//! [`Scenario::plan`] directly — property-tested in `tests/serve.rs`.

use std::sync::atomic::{AtomicU64, Ordering};

use netpart_model::{Budget, NetpartError};
use netpart_serve::{PlanService, Server, Ticket};

use crate::pipeline::{scenario_class, scenario_fingerprint, CostSource, Plan, PlanRequest};
#[cfg(doc)]
use crate::pipeline::{PlanResponse, PlanSource, Scenario};

pub use netpart_serve::{BreakerConfig, ServeConfig, ServerStats};

/// Deterministic fault injection for chaos testing: each execution
/// is independently replaced by an injected calibration failure with
/// probability `fault_rate`, decided by a hash of `seed` and the
/// execution index — reproducible across runs, no RNG state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSpec {
    /// Seed for the per-execution fault decision.
    pub seed: u64,
    /// Probability in [0, 1] that an execution fails.
    pub fault_rate: f64,
}

impl ChaosSpec {
    /// Does execution `n` get an injected fault?
    pub fn injects(&self, n: u64) -> bool {
        // splitmix64 of (seed, n) → unit interval.
        let mut z = self
            .seed
            .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) as f64 / (1u64 << 53) as f64) < self.fault_rate
    }
}

/// The [`PlanService`] binding: fingerprints via [`scenario_fingerprint`],
/// breaker classes via [`scenario_class`], execution via
/// [`Scenario::plan_budgeted`], degraded fallback via
/// [`CostSource::Paper`] when it covers the scenario. The default
/// instance injects no faults.
#[derive(Debug, Default)]
pub struct ScenarioService {
    chaos: Option<ChaosSpec>,
    executions: AtomicU64,
}

impl ScenarioService {
    /// A service whose executions fail with an injected calibration
    /// error as `chaos` decides — the chaos tests' way to break
    /// calibration on demand.
    pub fn with_chaos(chaos: ChaosSpec) -> ScenarioService {
        ScenarioService {
            chaos: Some(chaos),
            ..ScenarioService::default()
        }
    }
}

impl PlanService for ScenarioService {
    type Request = PlanRequest;
    type Response = Plan;

    fn fingerprint(&self, req: &PlanRequest) -> u64 {
        scenario_fingerprint(&req.scenario)
    }

    fn class(&self, req: &PlanRequest) -> u64 {
        scenario_class(&req.scenario)
    }

    fn budget(&self, req: &PlanRequest) -> Budget {
        req.start_budget()
    }

    fn execute(&self, req: &PlanRequest, budget: &Budget) -> Result<Plan, NetpartError> {
        if let Some(chaos) = &self.chaos {
            let n = self.executions.fetch_add(1, Ordering::Relaxed);
            if chaos.injects(n) {
                return Err(NetpartError::Calibration(format!(
                    "injected chaos fault on execution {n}"
                )));
            }
        }
        req.scenario.plan_budgeted(budget)
    }

    fn breaker_counts(&self, err: &NetpartError) -> bool {
        matches!(
            err,
            NetpartError::Calibration(_) | NetpartError::MissingFit { .. }
        )
    }

    fn fallback(&self, req: &PlanRequest, budget: &Budget) -> Option<Result<Plan, NetpartError>> {
        // Degraded mode only makes sense when the broken path is
        // calibration; and the paper model must actually cover the
        // scenario (model resolution says so with `MissingFit`), else the
        // class's last typed error is the honest answer.
        if !matches!(req.scenario.cost, CostSource::Calibrated(_)) {
            return None;
        }
        let fallback = req.scenario.clone().with_cost(CostSource::Paper);
        match fallback.plan_budgeted(budget) {
            Err(NetpartError::MissingFit { .. }) => None,
            planned => Some(planned),
        }
    }
}

/// Completion handle for a submitted [`PlanRequest`]: `wait` blocks for
/// the [`PlanResponse`] or a typed error, `try_wait` peeks.
pub type PlanTicket = Ticket<Plan>;

/// A multi-threaded planning server with bounded admission, deadlines,
/// load shedding, and degraded-mode serving. See the module docs for the
/// overload model; see [`ServeConfig`] for tuning.
///
/// ```no_run
/// use netpart::apps::stencil::{stencil_model, StencilVariant};
/// use netpart::calibrate::Testbed;
/// use netpart::pipeline::{PlanRequest, Scenario};
/// use netpart::serve::{PlanServer, ServeConfig};
///
/// let server = PlanServer::start(ServeConfig::default());
/// let scenario = Scenario::new(Testbed::paper(), stencil_model(600, StencilVariant::Sten2));
/// let ticket = server.submit(PlanRequest::new(scenario).with_deadline_ms(5_000.0))?;
/// let response = ticket.wait()?;
/// println!("{:?} plan: {:?}", response.source, response.plan.config);
/// # Ok::<(), netpart::NetpartError>(())
/// ```
pub type PlanServer = Server<ScenarioService>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::stencil::{stencil_model, StencilVariant};
    use crate::calibrate::Testbed;
    use crate::pipeline::{PlanResponse, PlanSource, Scenario};

    fn paper_scenario(n: u64) -> Scenario {
        Scenario::new(Testbed::paper(), stencil_model(n, StencilVariant::Sten2))
            .with_cost(CostSource::Paper)
    }

    fn plan(server: &PlanServer, scenario: Scenario) -> PlanResponse {
        let ticket = server.submit(PlanRequest::new(scenario)).expect("admitted");
        ticket.wait().expect("served")
    }

    #[test]
    fn chaos_spec_is_deterministic_and_rate_bounded() {
        let chaos = ChaosSpec {
            seed: 42,
            fault_rate: 0.3,
        };
        let a: Vec<bool> = (0..512).map(|n| chaos.injects(n)).collect();
        let b: Vec<bool> = (0..512).map(|n| chaos.injects(n)).collect();
        assert_eq!(a, b, "same seed, same faults");
        let hits = a.iter().filter(|&&x| x).count();
        assert!((80..230).contains(&hits), "~30% of 512, got {hits}");
        let never = ChaosSpec {
            seed: 42,
            fault_rate: 0.0,
        };
        assert!((0..512).all(|n| !never.injects(n)));
    }

    #[test]
    fn paper_covers_matches_the_model_predicate() {
        let service = ScenarioService::default();
        let fallback = |s: Scenario| service.fallback(&PlanRequest::new(s), &Budget::unlimited());
        // `Scenario::new` prices by calibration, the one source that
        // degrades to the paper's constants.
        let two = Scenario::new(Testbed::paper(), stencil_model(100, StencilVariant::Sten2));
        assert!(matches!(fallback(two), Some(Ok(_))));
        let three = Scenario::new(
            Testbed::synthetic(3, 4, 0.2),
            stencil_model(100, StencilVariant::Sten2),
        );
        assert!(
            fallback(three).is_none(),
            "three clusters exceed the paper fit"
        );
        assert!(
            fallback(paper_scenario(100)).is_none(),
            "nothing to degrade from"
        );
    }

    #[test]
    fn served_plan_matches_direct_plan() {
        let server = PlanServer::start(ServeConfig::transparent());
        let scenario = paper_scenario(300);
        let direct = scenario.plan().expect("direct plan");
        let served = plan(&server, scenario);
        assert_eq!(served.source, PlanSource::Fresh);
        assert_eq!(served.plan.config, direct.config);
        assert_eq!(served.plan.vector, direct.vector);
        assert_eq!(
            served.plan.predicted_tc_ms.map(f64::to_bits),
            direct.predicted_tc_ms.map(f64::to_bits),
            "bit-identical prediction"
        );
        let again = plan(&server, paper_scenario(300));
        assert_eq!(again.source, PlanSource::Cache);
        assert_eq!(
            again.plan.predicted_tc_ms.map(f64::to_bits),
            direct.predicted_tc_ms.map(f64::to_bits),
            "cache-hit plan is byte-identical to the cold plan"
        );
        server.stop();
    }

    #[test]
    fn distinct_scenarios_get_distinct_cache_entries() {
        let server = PlanServer::start(ServeConfig::default());
        let a = plan(&server, paper_scenario(200));
        let b = plan(&server, paper_scenario(400));
        assert_eq!(a.source, PlanSource::Fresh);
        assert_eq!(
            b.source,
            PlanSource::Fresh,
            "different N ⇒ different fingerprint"
        );
        assert_ne!(
            scenario_fingerprint(&paper_scenario(200)),
            scenario_fingerprint(&paper_scenario(400))
        );
        server.stop();
    }
}
