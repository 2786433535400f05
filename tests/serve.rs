//! Integration and property tests for the plan server: byte-transparency
//! of the trivial configuration, cache-hit ≡ cold-plan byte identity,
//! single-flight coalescing, typed overload errors, and failures that are
//! never cached.
//! Every ticket is drained against a wall-clock cap, so a hang fails a
//! test instead of wedging the suite.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use netpart::apps::stencil::{stencil_model, StencilVariant};
use netpart::calibrate::{CalibratedCostModel, FittedCost, LinearCost, Testbed};
use netpart::model::NetpartError;
use netpart::pipeline::{PlanRequest, PlanResponse, PlanSource, Scenario};
use netpart::serve::{PlanServer, PlanTicket, ServeConfig};
use netpart::topology::Topology;
use netpart::CostSource;

/// Far beyond any sane completion time: a ticket still unresolved past
/// it is a hang, the one thing the server exists to rule out.
const DRAIN_CAP: Duration = Duration::from_secs(60);

fn paper_scenario(n: u64, variant: StencilVariant) -> Scenario {
    Scenario::new(Testbed::paper(), stencil_model(n, variant)).with_cost(CostSource::Paper)
}

type PlanBits = (Vec<u32>, String, Option<u64>);

fn plan_bits(plan: &netpart::Plan) -> PlanBits {
    (
        plan.config.clone(),
        format!("{:?}", plan.vector),
        plan.predicted_tc_ms.map(f64::to_bits),
    )
}

/// Poll every ticket to termination, in order, panicking on one still
/// unresolved at [`DRAIN_CAP`].
fn drain(tickets: Vec<PlanTicket>) -> Vec<Result<PlanResponse, NetpartError>> {
    let deadline = Instant::now() + DRAIN_CAP;
    tickets
        .into_iter()
        .enumerate()
        .map(|(i, t)| loop {
            if let Some(r) = t.try_wait() {
                break r;
            }
            assert!(Instant::now() < deadline, "ticket {i} hung");
            std::thread::sleep(Duration::from_micros(200));
        })
        .collect()
}

/// Submit one request and drain its ticket.
fn plan(server: &PlanServer, scenario: Scenario) -> Result<PlanResponse, NetpartError> {
    let ticket = server.submit(PlanRequest::new(scenario)).expect("admitted");
    drain(vec![ticket]).remove(0)
}

proptest! {
    /// A trivially-configured server (one worker, unbounded queue) is
    /// byte-transparent to calling `plan()` directly, for arbitrary
    /// scenario streams.
    #[test]
    fn trivial_server_is_byte_transparent_to_plan(
        sizes in prop::collection::vec(50u64..1500, 1..6),
        sten1 in any::<bool>(),
    ) {
        let variant = if sten1 { StencilVariant::Sten1 } else { StencilVariant::Sten2 };
        let server = PlanServer::start(ServeConfig::transparent());
        for n in sizes {
            let scenario = paper_scenario(n, variant);
            let direct = scenario.plan().expect("direct plan");
            let served = plan(&server, scenario).expect("served plan");
            prop_assert_eq!(plan_bits(&served.plan), plan_bits(&direct));
        }
        server.stop();
    }

    /// Cache-hit plans are byte-identical to the cold plan for random
    /// scenario streams containing duplicates.
    #[test]
    fn cache_hits_are_byte_identical_to_cold_plans(
        sizes in prop::collection::vec(50u64..800, 2..8),
    ) {
        let server = PlanServer::start(ServeConfig::default());
        let mut cold: Vec<(u64, PlanBits)> = Vec::new();
        // First pass: cold plans. Second pass: every plan must be a cache
        // hit and byte-identical.
        for &n in &sizes {
            let r = plan(&server, paper_scenario(n, StencilVariant::Sten2)).expect("cold");
            cold.push((n, plan_bits(&r.plan)));
        }
        for (n, bits) in cold {
            let r = plan(&server, paper_scenario(n, StencilVariant::Sten2)).expect("warm");
            prop_assert_eq!(r.source, PlanSource::Cache);
            prop_assert_eq!(plan_bits(&r.plan), bits);
        }
        server.stop();
    }
}

/// Duplicate in-flight requests coalesce onto one computation and all
/// observers get byte-identical plans.
#[test]
fn duplicate_in_flight_requests_coalesce_with_identical_results() {
    let server = PlanServer::start(ServeConfig {
        workers: 4,
        queue_depth: usize::MAX,
    });
    let tickets: Vec<_> = (0..8)
        .map(|_| {
            server
                .submit(PlanRequest::new(paper_scenario(640, StencilVariant::Sten2)))
                .expect("admitted")
        })
        .collect();
    let responses: Vec<_> = drain(tickets)
        .into_iter()
        .map(|r| r.expect("served"))
        .collect();
    let first = plan_bits(&responses[0].plan);
    for r in &responses {
        assert_eq!(plan_bits(&r.plan), first, "all duplicates agree");
        assert!(matches!(r.source, PlanSource::Fresh | PlanSource::Cache));
    }
    let st = server.stats();
    assert_eq!(st.fresh, 1, "one computation for eight requests: {st:?}");
    assert_eq!(st.fresh + st.coalesced + st.cache_hits, 8);
    server.stop();
}

/// A fixed cost model with a NaN constant is refused before partitioning:
/// the request counts as failed, and nothing is cached, so asking again
/// fails again instead of being served a plan priced without that term.
#[test]
fn a_non_finite_fixed_model_fails_and_is_not_cached() {
    let mut cost = CalibratedCostModel::default();
    for cluster in 0..3 {
        let fit = FittedCost {
            c1: f64::NAN,
            c2: 0.5,
            c3: -0.001,
            c4: 0.0011,
            r_squared: 1.0,
            abs_fix: true,
        };
        cost.set_intra(cluster, Topology::OneD, fit);
        for other in cluster + 1..3 {
            cost.set_router(cluster, other, LinearCost { a: 0.5, k: 0.0006 });
        }
    }
    let scenario = Scenario::new(
        Testbed::synthetic(3, 4, 1.2),
        stencil_model(300, StencilVariant::Sten1),
    )
    .with_cost(CostSource::Fixed(cost));
    let server = PlanServer::start(ServeConfig::transparent());
    for _ in 0..2 {
        match plan(&server, scenario.clone()) {
            Err(NetpartError::InvalidScenario(msg)) => {
                assert!(msg.contains("non-finite"), "{msg}")
            }
            other => panic!("expected InvalidScenario, got {other:?}"),
        }
    }
    let st = server.stats();
    assert_eq!((st.failed, st.fresh, st.cache_hits), (2, 0, 0), "{st:?}");
    server.stop();
}

/// Submissions beyond the queue bound shed with the typed overload error
/// while everything admitted still terminates with a plan.
#[test]
fn flood_sheds_typed_and_everything_admitted_terminates() {
    let server = PlanServer::start(ServeConfig {
        workers: 1,
        queue_depth: 4,
    });
    let mut tickets = Vec::new();
    let mut shed = 0usize;
    for n in 0..200u64 {
        // Distinct fingerprints so the cache can't absorb the flood.
        match server.submit(PlanRequest::new(paper_scenario(
            50 + n,
            StencilVariant::Sten2,
        ))) {
            Ok(t) => tickets.push(t),
            Err(NetpartError::ServerOverloaded { capacity, .. }) => {
                assert_eq!(capacity, 4);
                shed += 1;
            }
            Err(other) => panic!("rejected without the typed overload error: {other:?}"),
        }
    }
    for r in drain(tickets) {
        r.expect("admitted requests complete with a plan");
    }
    let st = server.stats();
    assert!(shed > 0, "the flood must overflow the queue");
    assert_eq!(st.shed as usize, shed);
    assert_eq!(st.queue_high_water, 4, "the queue filled to its bound");
    assert_eq!(st.completed(), st.admitted, "no admitted request hangs");
    server.stop();
}
