//! Planner-as-a-service in one page: start a [`PlanServer`], submit a
//! burst of planning requests, and read the typed outcomes — fresh
//! plans, cache hits, shed requests — plus the latency each response
//! carries.
//!
//! ```text
//! cargo run --release --example plan_server
//! ```

use netpart::apps::stencil::{stencil_model, StencilVariant};
use netpart::calibrate::Testbed;
use netpart::model::NetpartError;
use netpart::pipeline::{PlanRequest, Scenario};
use netpart::serve::{PlanServer, ServeConfig};
use netpart::CostSource;

fn main() -> Result<(), NetpartError> {
    // The 5-line core: start, submit, wait.
    let server = PlanServer::start(ServeConfig::default());
    let scenario = Scenario::new(Testbed::paper(), stencil_model(600, StencilVariant::Sten2))
        .with_cost(CostSource::Paper);
    let ticket = server.submit(PlanRequest::new(scenario))?;
    let response = ticket.wait()?;
    println!(
        "{:?} plan in {:.2} ms: config {:?}, predicted T_c {:.1} ms",
        response.source,
        response.total_ms,
        response.plan.config,
        response.plan.predicted_tc_ms.unwrap_or(f64::NAN),
    );

    // A burst of duplicates: the first plans fresh, the rest coalesce or
    // hit the byte-identical plan cache.
    let tickets: Vec<_> = (0..16)
        .map(|_| {
            let s = Scenario::new(Testbed::paper(), stencil_model(600, StencilVariant::Sten2))
                .with_cost(CostSource::Paper);
            server.submit(PlanRequest::new(s))
        })
        .collect::<Result<_, _>>()?;
    let mut burst_ms = Vec::new();
    for t in tickets {
        let r = t.wait()?;
        assert_eq!(r.plan.config, response.plan.config, "identical plans");
        burst_ms.push(r.total_ms);
    }
    burst_ms.sort_by(f64::total_cmp);

    let stats = server.stats();
    println!(
        "served {} requests: {} fresh, {} cached, {} coalesced \
         (hit ratio {:.2}); burst latency median {:.3} ms, max {:.3} ms",
        stats.completed(),
        stats.fresh,
        stats.cache_hits,
        stats.coalesced,
        stats.cache_hit_ratio(),
        burst_ms[burst_ms.len() / 2],
        burst_ms[burst_ms.len() - 1],
    );
    assert_eq!(stats.fresh, 1, "one computation served the whole burst");
    assert_eq!(stats.completed(), stats.admitted, "nothing hung");
    server.stop();
    Ok(())
}
