//! Planner-as-a-service: an overload-robust server over
//! [`Scenario::plan`].
//!
//! [`PlanServer`] binds the generic engine in [`netpart_serve`] to the
//! planning pipeline: submissions are [`PlanRequest`]s (a [`Scenario`]),
//! responses are [`PlanResponse`]s (a [`Plan`] stamped with its
//! [`PlanSource`]).
//! The server layers a fingerprinted **plan cache** over the calibration
//! cache: two requests with equal [`scenario_fingerprint`]s get
//! byte-identical plans, computed once.
//!
//! Overload behavior, end to end: submissions beyond
//! [`ServeConfig::queue_depth`] are shed with the typed
//! [`NetpartError::ServerOverloaded`].
//!
//! Planning is a deterministic function of the scenario, so a failed
//! plan is never retried: re-running it could only reproduce the error.
//! Nor does a request carry a deadline: a started plan always finishes
//! and is cached, and a caller that will not wait past some bound polls
//! [`PlanTicket::try_wait`](netpart_serve::Ticket::try_wait) and walks
//! away.
//! The error goes back to the request (and to the duplicates coalesced
//! onto it); a broken calibration is not re-run either, because the
//! calibration memo remembers failures as well as fits. With the
//! [`ServeConfig::transparent`] configuration (one worker, no queue
//! bound) the server is byte-transparent to calling
//! [`Scenario::plan`] directly — property-tested in `tests/serve.rs`.

use netpart_model::NetpartError;
use netpart_serve::{PlanService, Server, Ticket};

use crate::pipeline::{scenario_fingerprint, Plan, PlanRequest};
#[cfg(doc)]
use crate::pipeline::{PlanResponse, PlanSource, Scenario};

pub use netpart_serve::{ServeConfig, ServerStats};

/// The [`PlanService`] binding: fingerprints via [`scenario_fingerprint`],
/// execution via [`Scenario::plan`].
#[derive(Debug, Default)]
pub struct ScenarioService;

impl PlanService for ScenarioService {
    type Request = PlanRequest;
    type Response = Plan;

    fn fingerprint(&self, req: &PlanRequest) -> u64 {
        scenario_fingerprint(&req.scenario)
    }

    fn execute(&self, req: &PlanRequest) -> Result<Plan, NetpartError> {
        req.scenario.plan()
    }
}

/// Completion handle for a submitted [`PlanRequest`]: `wait` blocks for
/// the [`PlanResponse`] or a typed error, `try_wait` peeks.
pub type PlanTicket = Ticket<Plan>;

/// A multi-threaded planning server with bounded admission, load
/// shedding, and a plan cache. See the module docs for the
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
/// let ticket = server.submit(PlanRequest::new(scenario))?;
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
    use crate::pipeline::{CostSource, PlanResponse, PlanSource, Scenario};

    fn paper_scenario(n: u64) -> Scenario {
        Scenario::new(Testbed::paper(), stencil_model(n, StencilVariant::Sten2))
            .with_cost(CostSource::Paper)
    }

    fn plan(server: &PlanServer, scenario: Scenario) -> PlanResponse {
        let ticket = server.submit(PlanRequest::new(scenario)).expect("admitted");
        ticket.wait().expect("served")
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
