//! The `serve` experiment: drive a [`PlanServer`] through sustained
//! distinct-scenario load, a flood burst against a bounded queue, a
//! deadline batch, and a chaos phase with injected calibration faults —
//! asserting the server's one invariant throughout: **every request
//! terminates with a correct plan or a typed error — never a hang,
//! never a wrong plan.**
//!
//! `experiments -- serve` prints the tables and exits 1 on any violation.
//! What the server sustains in plans per second and at what latency is
//! the repo benchmark's `serve_open` workload; the only clock read here
//! is the drain cap that turns a hang into a counted violation. The
//! flood's shed count and queue high-water depend on how the submitting
//! thread and the worker interleave, which is why `serve` is not part of
//! `experiments -- all`.

use std::time::{Duration, Instant};

use netpart::apps::stencil::{stencil_model, StencilVariant};
use netpart::calibrate::Testbed;
use netpart::model::NetpartError;
use netpart::pipeline::{Plan, PlanRequest, PlanResponse, PlanSource, Scenario};
use netpart::serve::{ChaosSpec, PlanServer, PlanTicket, ServeConfig};
use netpart::CostSource;

/// Wall-clock cap on draining one phase's tickets — far beyond any sane
/// completion time, so anything still unresolved counts as a hang.
const DRAIN_CAP: Duration = Duration::from_secs(60);

/// Outcome of the sustained distinct-scenario phase.
#[derive(Debug, Clone)]
pub struct SustainedOutcome {
    /// Distinct scenarios planned.
    pub distinct: usize,
    /// Repeat submissions that must hit the plan cache.
    pub repeats: usize,
    /// Cache-hit ratio after the repeat pass.
    pub cache_hit_ratio: f64,
    /// Responses byte-compared against a direct `plan()` call.
    pub sample_checked: usize,
    /// Byte mismatches found (must be 0).
    pub sample_mismatches: usize,
    /// Tickets still unresolved at the drain cap (must be 0).
    pub hung: usize,
}

/// Outcome of the flood burst against a bounded admission queue.
#[derive(Debug, Clone)]
pub struct FloodOutcome {
    /// Requests thrown at the server.
    pub submitted: usize,
    /// Requests shed with the typed `ServerOverloaded` error.
    pub shed: usize,
    /// Submissions rejected with anything *other* than the typed
    /// overload error (must be 0).
    pub mistyped_sheds: usize,
    /// Admitted tickets unresolved at the drain cap (must be 0).
    pub hung: usize,
    /// Deepest the queue got.
    pub queue_high_water: usize,
}

/// Outcome of the deadline batch.
#[derive(Debug, Clone)]
pub struct DeadlineOutcome {
    /// Requests submitted (half with an already-expired deadline).
    pub submitted: usize,
    /// Terminated with the typed `PlanDeadlineExceeded`.
    pub expired: usize,
    /// Served normally.
    pub served: usize,
    /// Any other termination (must be 0).
    pub other: usize,
}

/// Outcome of the chaos phase: total calibration failure by injection.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Requests submitted under fault injection.
    pub requests: usize,
    /// Terminated with the typed calibration error.
    pub typed_failures: usize,
    /// Served degraded (paper-model fallback or stale cache).
    pub degraded: usize,
    /// Degraded plans that differ from a direct paper-model plan
    /// (must be 0 — degraded, not wrong).
    pub wrong_plans: usize,
    /// Tickets unresolved at the drain cap (must be 0).
    pub hung: usize,
    /// Circuit-breaker openings observed.
    pub breaker_opens: u64,
    /// Transient-failure retries spent.
    pub retries: u64,
}

/// The full `serve` experiment report.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Sustained distinct-scenario load + cache repeat pass.
    pub sustained: SustainedOutcome,
    /// Flood burst against a bounded queue.
    pub flood: FloodOutcome,
    /// Deadline batch.
    pub deadlines: DeadlineOutcome,
    /// Chaos phase.
    pub chaos: ChaosOutcome,
}

impl ServeBenchReport {
    /// Every invariant violation in the report, as human-readable lines.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let mut check = |cond: bool, msg: String| {
            if cond {
                v.push(msg);
            }
        };
        check(
            self.sustained.hung > 0,
            format!("sustained: {} request(s) hung", self.sustained.hung),
        );
        check(
            self.sustained.sample_mismatches > 0,
            format!(
                "sustained: {} served plan(s) differ from a direct plan()",
                self.sustained.sample_mismatches
            ),
        );
        check(
            self.flood.hung > 0,
            format!("flood: {} admitted request(s) hung", self.flood.hung),
        );
        check(
            self.flood.mistyped_sheds > 0,
            format!(
                "flood: {} rejection(s) without the typed overload error",
                self.flood.mistyped_sheds
            ),
        );
        check(
            self.deadlines.other > 0,
            format!(
                "deadlines: {} request(s) terminated without a typed outcome",
                self.deadlines.other
            ),
        );
        check(
            self.chaos.hung > 0,
            format!("chaos: {} request(s) hung", self.chaos.hung),
        );
        check(
            self.chaos.wrong_plans > 0,
            format!("chaos: {} wrong degraded plan(s)", self.chaos.wrong_plans),
        );
        check(
            self.chaos.breaker_opens == 0,
            "chaos: breaker never opened under total calibration failure".into(),
        );
        v
    }
}

/// The i-th distinct benchmark scenario: paper testbed, stencil model
/// with a distinct size (⇒ distinct fingerprint), paper cost model so
/// the phase exercises the serving layer rather than calibration sweeps.
fn bench_scenario(i: usize) -> Scenario {
    let variant = if i.is_multiple_of(2) {
        StencilVariant::Sten2
    } else {
        StencilVariant::Sten1
    };
    Scenario::new(Testbed::paper(), stencil_model(50 + i as u64, variant))
        .with_cost(CostSource::Paper)
}

fn plan_bits(plan: &Plan) -> (Vec<u32>, String, Option<u64>) {
    (
        plan.config.clone(),
        format!("{:?}", plan.vector),
        plan.predicted_tc_ms.map(f64::to_bits),
    )
}

/// Poll every ticket to termination, bounded by [`DRAIN_CAP`]; anything
/// unresolved past the cap is a **hang** — the exact thing the server
/// exists to rule out.
fn drain(tickets: Vec<PlanTicket>) -> (Vec<Result<PlanResponse, NetpartError>>, usize) {
    let deadline = Instant::now() + DRAIN_CAP;
    let mut out = Vec::new();
    let mut hung = 0usize;
    for t in tickets {
        loop {
            if let Some(r) = t.try_wait() {
                out.push(r);
                break;
            }
            if Instant::now() >= deadline {
                hung += 1;
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    (out, hung)
}

fn sustained_phase(distinct: usize) -> SustainedOutcome {
    let server = PlanServer::start(ServeConfig {
        workers: 2,
        queue_depth: usize::MAX,
        ..ServeConfig::default()
    });
    let tickets: Vec<PlanTicket> = (0..distinct)
        .filter_map(|i| server.submit(PlanRequest::new(bench_scenario(i))).ok())
        .collect();
    let (responses, mut hung) = drain(tickets);
    // Byte-check a deterministic sample against the unserved pipeline.
    let mut sample_checked = 0usize;
    let mut sample_mismatches = 0usize;
    for (i, r) in responses.iter().enumerate().step_by(97.max(distinct / 11)) {
        if let Ok(resp) = r {
            sample_checked += 1;
            let direct = bench_scenario(i).plan().expect("direct plan");
            if plan_bits(&resp.plan) != plan_bits(&direct) {
                sample_mismatches += 1;
            }
        }
    }
    // Repeat pass: every 4th scenario again — must be cache hits with
    // byte-identical plans.
    let repeat_tickets: Vec<PlanTicket> = (0..distinct)
        .step_by(4)
        .filter_map(|i| server.submit(PlanRequest::new(bench_scenario(i))).ok())
        .collect();
    let repeats = repeat_tickets.len();
    let (repeat_responses, repeat_hung) = drain(repeat_tickets);
    hung += repeat_hung;
    for (k, r) in repeat_responses.iter().enumerate() {
        if let Ok(resp) = r {
            let i = k * 4;
            if resp.source != PlanSource::Cache {
                sample_mismatches += 1; // a repeat that recomputed is a cache defect
            } else if let Some(Ok(first)) = responses.get(i).map(|x| x.as_ref()) {
                sample_checked += 1;
                if plan_bits(&resp.plan) != plan_bits(&first.plan) {
                    sample_mismatches += 1;
                }
            }
        }
    }
    let cache_hit_ratio = server.stats().cache_hit_ratio();
    server.stop();
    SustainedOutcome {
        distinct,
        repeats,
        cache_hit_ratio,
        sample_checked,
        sample_mismatches,
        hung,
    }
}

fn flood_phase(submitted: usize) -> FloodOutcome {
    let server = PlanServer::start(ServeConfig {
        workers: 1,
        queue_depth: 32,
        ..ServeConfig::default()
    });
    let mut tickets = Vec::new();
    let mut shed = 0usize;
    let mut mistyped_sheds = 0usize;
    for i in 0..submitted {
        match server.submit(PlanRequest::new(bench_scenario(10_000 + i))) {
            Ok(t) => tickets.push(t),
            Err(NetpartError::ServerOverloaded { .. }) => shed += 1,
            Err(_) => mistyped_sheds += 1,
        }
    }
    let (responses, hung) = drain(tickets);
    let mistyped = responses.iter().filter(|r| r.is_err()).count();
    let stats = server.stats();
    server.stop();
    FloodOutcome {
        submitted,
        shed,
        mistyped_sheds: mistyped_sheds + mistyped,
        hung,
        queue_high_water: stats.queue_high_water,
    }
}

fn deadline_phase(submitted: usize) -> DeadlineOutcome {
    let server = PlanServer::start(ServeConfig {
        workers: 1,
        queue_depth: usize::MAX,
        ..ServeConfig::default()
    });
    let tickets: Vec<(bool, PlanTicket)> = (0..submitted)
        .filter_map(|i| {
            let doomed = i.is_multiple_of(2);
            let mut req = PlanRequest::new(bench_scenario(20_000 + i));
            if doomed {
                // An already-expired budget: the worker must shed it
                // with the typed deadline error, not plan it.
                req = req.with_deadline_ms(0.0);
            }
            server.submit(req).ok().map(|t| (doomed, t))
        })
        .collect();
    let mut expired = 0usize;
    let mut served = 0usize;
    let mut other = 0usize;
    for (_doomed, t) in tickets {
        match t.wait() {
            Err(NetpartError::PlanDeadlineExceeded { .. }) => expired += 1,
            Ok(_) => served += 1,
            Err(_) => other += 1,
        }
    }
    server.stop();
    DeadlineOutcome {
        submitted,
        expired,
        served,
        other,
    }
}

fn chaos_phase(requests: usize) -> ChaosOutcome {
    // Every execution attempt fails by injection — total calibration
    // outage. The breaker must open and switch the class to degraded
    // serving via the paper-model fallback; every request must still
    // terminate typed, and every served plan must match a direct
    // paper-model plan byte-for-byte.
    let server = PlanServer::start_with_chaos(
        ServeConfig {
            workers: 1,
            queue_depth: usize::MAX,
            max_retries: 1,
            ..ServeConfig::default()
        },
        ChaosSpec {
            seed: 0xC4A05,
            fault_rate: 1.0,
        },
    );
    let scenarios: Vec<Scenario> = (0..requests)
        .map(|i| {
            Scenario::new(
                Testbed::paper(),
                stencil_model(30_000 + i as u64, StencilVariant::Sten2),
            ) // default cost source: Calibrated
        })
        .collect();
    let tickets: Vec<PlanTicket> = scenarios
        .iter()
        .filter_map(|s| server.submit(PlanRequest::new(s.clone())).ok())
        .collect();
    let (responses, hung) = drain(tickets);
    let mut typed_failures = 0usize;
    let mut degraded = 0usize;
    let mut wrong_plans = 0usize;
    for (i, r) in responses.iter().enumerate() {
        match r {
            Err(NetpartError::Calibration(_)) => typed_failures += 1,
            Err(_) => wrong_plans += 1, // any other error type is a contract break
            Ok(resp) => {
                degraded += 1;
                if !matches!(
                    resp.source,
                    PlanSource::PaperFallback | PlanSource::StaleCache { .. }
                ) {
                    wrong_plans += 1; // a "fresh" plan can't exist: every execute fails
                    continue;
                }
                let direct = scenarios[i]
                    .clone()
                    .with_cost(CostSource::Paper)
                    .plan()
                    .expect("paper plan");
                if plan_bits(&resp.plan) != plan_bits(&direct) {
                    wrong_plans += 1;
                }
            }
        }
    }
    let stats = server.stats();
    server.stop();
    ChaosOutcome {
        requests,
        typed_failures,
        degraded,
        wrong_plans,
        hung,
        breaker_opens: stats.breaker_opens,
        retries: stats.retries,
    }
}

/// Run the full serve experiment at the given scale.
pub fn run_serve_bench(distinct: usize) -> ServeBenchReport {
    ServeBenchReport {
        sustained: sustained_phase(distinct),
        flood: flood_phase(300),
        deadlines: deadline_phase(64),
        chaos: chaos_phase(48),
    }
}

/// Render the report for the terminal.
pub fn render_serve(r: &ServeBenchReport) -> String {
    let mut out = String::new();
    let s = &r.sustained;
    out.push_str(&format!(
        "sustained: {} distinct scenarios, +{} repeats, cache-hit ratio {:.2}\n",
        s.distinct, s.repeats, s.cache_hit_ratio
    ));
    out.push_str(&format!(
        "           byte-checked {} samples against direct plan(): {} mismatches, {} hung\n",
        s.sample_checked, s.sample_mismatches, s.hung
    ));
    let f = &r.flood;
    out.push_str(&format!(
        "flood:     {} submitted against capacity 32 → {} shed (typed), {} mistyped, \
         {} hung, queue high-water {}\n",
        f.submitted, f.shed, f.mistyped_sheds, f.hung, f.queue_high_water
    ));
    let d = &r.deadlines;
    out.push_str(&format!(
        "deadlines: {} submitted (half pre-expired) → {} expired (typed), {} served, {} other\n",
        d.submitted, d.expired, d.served, d.other
    ));
    let c = &r.chaos;
    out.push_str(&format!(
        "chaos:     {} requests under 100% calibration-fault injection → {} typed failures, \
         {} degraded, {} wrong plans, {} hung; breaker opened {}×, {} retries\n",
        c.requests, c.typed_failures, c.degraded, c.wrong_plans, c.hung, c.breaker_opens, c.retries
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_serve_bench_upholds_every_invariant() {
        let report = run_serve_bench(40);
        assert_eq!(report.violations(), Vec::<String>::new());
        assert!(report.sustained.sample_checked > 0);
        assert!(report.flood.shed > 0, "the flood must actually overflow");
        assert!(report.deadlines.expired >= report.deadlines.submitted / 2);
        assert!(report.chaos.degraded > 0);
    }
}
