//! Integration and property tests for the plan server: byte-transparency
//! of the trivial configuration, cache-hit ≡ cold-plan byte identity,
//! single-flight coalescing, and typed overload and deadline errors.
//! Every ticket is drained against a wall-clock cap, so a hang fails a
//! test instead of wedging the suite.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use netpart::apps::stencil::{stencil_model, StencilVariant};
use netpart::calibrate::Testbed;
use netpart::model::NetpartError;
use netpart::pipeline::{PlanRequest, PlanResponse, PlanSource, Scenario};
use netpart::serve::{PlanServer, PlanTicket, ServeConfig};
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
    /// A trivially-configured server (one worker, unbounded queue, no
    /// deadline) is byte-transparent to calling `plan()`
    /// directly, for arbitrary scenario streams.
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

/// An expired deadline terminates with the typed error — here the budget
/// is already spent when the worker picks the request up.
#[test]
fn expired_deadline_is_typed() {
    let server = PlanServer::start(ServeConfig::transparent());
    let req = PlanRequest::new(paper_scenario(500, StencilVariant::Sten2)).with_deadline_ms(0.0);
    std::thread::sleep(Duration::from_millis(2));
    let ticket = server.submit(req).expect("admitted");
    match drain(vec![ticket]).remove(0) {
        Err(NetpartError::PlanDeadlineExceeded { budget_ms, .. }) => assert_eq!(budget_ms, 0),
        other => panic!("expected PlanDeadlineExceeded, got {other:?}"),
    }
    assert_eq!(server.stats().expired, 1);
    server.stop();
}

/// A batch where every other request arrives with an already-spent
/// budget: exactly those end `PlanDeadlineExceeded`, the rest are served.
#[test]
fn mixed_deadline_batch_expires_exactly_the_doomed_half() {
    let server = PlanServer::start(ServeConfig {
        workers: 1,
        queue_depth: usize::MAX,
    });
    let tickets = (0..64u64)
        .map(|i| {
            let req = PlanRequest::new(paper_scenario(2_000 + i, StencilVariant::Sten2));
            let req = if i % 2 == 0 {
                req.with_deadline_ms(0.0)
            } else {
                req
            };
            server.submit(req).expect("admitted")
        })
        .collect();
    for (i, r) in drain(tickets).into_iter().enumerate() {
        match r {
            Err(NetpartError::PlanDeadlineExceeded { .. }) if i % 2 == 0 => {}
            Ok(_) if i % 2 == 1 => {}
            other => panic!("request {i}: {other:?}"),
        }
    }
    let st = server.stats();
    assert_eq!((st.expired, st.fresh), (32, 32), "{st:?}");
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
