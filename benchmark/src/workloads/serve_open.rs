//! `serve_open` — the plan server under offered load.
//!
//! `PlanServer` with `nproc − 1` workers (at least one), `queue_depth` 64,
//! and one load-generator thread — never more threads than cores. The
//! request mix is drawn from the seed: 80 % 12-node paper-cost stencils
//! over 700 sizes, 15 % 256-node tree, 5 % 1024-node fat-tree (fixed hop
//! cost model); about 35 % of requests repeat an earlier fingerprint, so
//! cache hits, single-flight followers and fresh plans are all present
//! and a gain for one that costs another shows.
//!
//! Closed loop (the untraced run, and the end-to-end metrics): one client
//! keeps 32 tickets outstanding → capacity. The operation is one request:
//! `ops_per_s` is requests per second, `op_ms` the host ms per request,
//! median over epochs. The server's plan cache is unbounded, so a server
//! lifetime is an *epoch* of 4096 requests and each epoch starts a fresh
//! server; otherwise a faster server would see more requests, cache more
//! plans, and move `peak_rss_mb` and the hit ratio by itself.
//!
//! Open loop (the traced run, per-layer metrics): Poisson arrivals from the
//! seed at a fixed rate; a request's latency runs from the instant it was
//! *due*, so a stall is charged to every request it delays, and how late
//! the generator itself ran is reported. The ladder is 1000 / 2500 / 5000 /
//! 10000 / 15000 req/s; its top step sits above the closed-loop capacity
//! of a 2-core box, so the knee is inside the ladder. Limit: p99 ≤ 5 ms
//! with nothing shed, expired or failed — with a 64-deep queue a growing
//! backlog sheds. Latency from due time is *not* an end-to-end metric: at
//! 2500 req/s the worker is idle four fifths of the time, so the median is
//! the kernel's wake-up path, and it was seen to sit at 0.03 ms in one
//! process and 0.10 ms in the next (README, demoted candidates).
//!
//! Every served plan is checked: a 1-in-16 sample against a direct
//! `Scenario::plan()`, every cache hit against the first serve of its
//! fingerprint.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use netpart::apps::stencil::{stencil_model, StencilVariant};
use netpart::calibrate::{Testbed, Wiring};
use netpart::{
    CostSource, NetpartError, Plan, PlanRequest, PlanResponse, PlanServer, PlanSource, PlanTicket,
    Scenario, ServeConfig,
};

use crate::cost::hop_cost_model;
use crate::harness::{Ctx, Layers, Outcome};
use crate::rng::Rng;
use crate::stats::{median, quantile};
use crate::trace::{reduce, Tracer};

/// Admission-queue capacity.
pub const QUEUE_DEPTH: usize = 64;
/// Tickets the closed-loop client keeps outstanding.
pub const OUTSTANDING: usize = 32;
/// Requests one closed-loop server lifetime sees.
pub const EPOCH: usize = 4096;
/// Offered rates of the open-loop ladder, req/s.
pub const LADDER: [u32; 5] = [1000, 2500, 5000, 10000, 15000];
/// The ladder step whose generator lateness is reported.
pub const REFERENCE_RPS: u32 = 2500;
/// Latency limit on the 99th percentile, ms.
pub const P99_LIMIT_MS: f64 = 5.0;
/// Distinct stencil sizes per class.
pub const SIZES: u64 = 700;
/// Share of requests that repeat an earlier fingerprint.
pub const REPEAT_SHARE: f64 = 0.35;
/// How far back a repeat reaches.
const REPEAT_WINDOW: usize = 2048;
/// One served plan in this many is compared with a direct `plan()`.
const SAMPLE_EVERY: usize = 16;
/// Shortest phase, for `--seconds 0`.
const MIN_PHASE_S: f64 = 0.25;

/// Which kind of scenario a request plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Paper testbed, paper cost model.
    Paper12,
    /// `synthetic(16, 16, 1.15)` on a router tree, fixed cost model.
    Tree256,
    /// `synthetic(32, 32, 1.15)` on a fat-tree, fixed cost model.
    Fat1024,
}

/// One request, compactly: equal specs have equal fingerprints and
/// different specs different ones (the salt becomes the testbed's seed,
/// which the fingerprint covers and planning ignores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReqSpec {
    /// Scenario class.
    pub class: Class,
    /// Stencil size index, `0..SIZES`.
    pub size: u16,
    /// Fingerprint salt.
    pub salt: u32,
}

/// `count` requests drawn from `seed`; `stream` separates the lists of
/// different phases.
pub fn request_mix(seed: u64, stream: u64, count: usize) -> Vec<ReqSpec> {
    let mut rng = Rng::new(seed, stream);
    let mut out: Vec<ReqSpec> = Vec::with_capacity(count);
    for i in 0..count {
        if i > 0 && rng.unit() < REPEAT_SHARE {
            let back = 1 + rng.below(i.min(REPEAT_WINDOW) as u64) as usize;
            out.push(out[i - back]);
            continue;
        }
        let class = match rng.below(100) {
            0..=79 => Class::Paper12,
            80..=94 => Class::Tree256,
            _ => Class::Fat1024,
        };
        out.push(ReqSpec {
            class,
            size: rng.below(SIZES) as u16,
            salt: i as u32,
        });
    }
    out
}

/// Poisson arrival offsets (ns from the step's start) for `count`
/// requests at `rate` per second.
pub fn arrival_schedule(seed: u64, stream: u64, rate: u32, count: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, stream);
    let mean_ns = 1e9 / f64::from(rate);
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            at += rng.exp(mean_ns);
            at as u64
        })
        .collect()
}

/// The prebuilt large scenarios requests are stamped out of.
pub struct Templates {
    tree256: Scenario,
    fat1024: Scenario,
}

impl Templates {
    /// Build both templates (fabric validation and cost models included).
    pub fn new() -> Result<Templates, String> {
        let make = |k: usize, per: u32, spread: f64, wiring: Wiring| -> Result<Scenario, String> {
            let testbed = Testbed::synthetic(k, per, spread).with_wiring(wiring);
            let app = stencil_model(2048, StencilVariant::Sten1);
            let cost = hop_cost_model(&testbed, &app).map_err(|e| format!("cost model: {e}"))?;
            Ok(Scenario::new(testbed, app).with_cost(CostSource::Fixed(cost)))
        };
        Ok(Templates {
            tree256: make(16, 16, 1.15, Wiring::Tree { arity: 4 })?,
            fat1024: make(32, 32, 1.15, Wiring::FatTree { pod: 8, spines: 4 })?,
        })
    }

    /// The scenario `spec` stands for.
    pub fn build(&self, spec: ReqSpec) -> Scenario {
        let size = u64::from(spec.size);
        match spec.class {
            Class::Paper12 => {
                let variant = if spec.size.is_multiple_of(2) {
                    StencilVariant::Sten2
                } else {
                    StencilVariant::Sten1
                };
                let mut testbed = Testbed::paper();
                testbed.seed = u64::from(spec.salt);
                Scenario::new(testbed, stencil_model(50 + size, variant))
                    .with_cost(CostSource::Paper)
            }
            Class::Tree256 | Class::Fat1024 => {
                let (template, nodes) = if spec.class == Class::Tree256 {
                    (&self.tree256, 256)
                } else {
                    (&self.fat1024, 1024)
                };
                let mut s = template.clone();
                s.testbed.seed = u64::from(spec.salt);
                s.app = stencil_model(8 * nodes + size, StencilVariant::Sten1);
                s
            }
        }
    }
}

/// A plan reduced to what must be byte-equal.
type PlanBits = (Vec<u32>, Vec<u64>, Option<u64>);

fn plan_bits(plan: &Plan) -> PlanBits {
    (
        plan.config.clone(),
        plan.vector.counts().to_vec(),
        plan.predicted_tc_ms.map(f64::to_bits),
    )
}

/// One completed request, as the generator saw it.
struct Done {
    /// Index into the step's request list.
    index: usize,
    /// ms from the due instant to submission (generator lateness).
    late_ms: f64,
    response: Result<PlanResponse, NetpartError>,
}

/// Everything one load step measured.
#[derive(Default)]
pub struct StepStats {
    /// Requests offered.
    pub offered: usize,
    /// Requests shed at admission.
    pub shed: usize,
    /// Requests that errored, expired, or were served a wrong plan.
    pub failed: usize,
    /// Latency from due time, ms, of every served request.
    pub latency_ms: Vec<f64>,
    /// Admission-queue wait, ms.
    pub queue_ms: Vec<f64>,
    /// Worker time (total − queue), ms.
    pub service_ms: Vec<f64>,
    /// Total latency of cache hits, ms.
    pub hit_ms: Vec<f64>,
    /// Total latency of fresh plans, ms.
    pub fresh_ms: Vec<f64>,
    /// Generator lateness, ms.
    pub late_ms: Vec<f64>,
    /// Wall seconds from the first submission to the last completion.
    pub wall_s: f64,
    /// Closed loop only: host ms per request of each epoch.
    pub epoch_ms_per_request: Vec<f64>,
    /// `ServerStats::cache_hit_ratio`.
    pub cache_hit_ratio: f64,
    /// `ServerStats::coalesced`.
    pub coalesced: u64,
    /// `ServerStats::queue_high_water`.
    pub queue_high_water: usize,
    /// First few failure lines.
    pub failures: Vec<String>,
}

impl StepStats {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(why);
        }
    }

    /// Whether the step met the latency limit with nothing refused.
    pub fn meets_limit(&self) -> bool {
        self.shed == 0
            && self.failed == 0
            && !self.latency_ms.is_empty()
            && quantile(&self.latency_ms, 0.99) <= P99_LIMIT_MS
    }

    fn absorb(&mut self, o: StepStats) {
        self.offered += o.offered;
        self.shed += o.shed;
        self.failed += o.failed;
        self.latency_ms.extend(o.latency_ms);
        self.queue_ms.extend(o.queue_ms);
        self.service_ms.extend(o.service_ms);
        self.hit_ms.extend(o.hit_ms);
        self.fresh_ms.extend(o.fresh_ms);
        self.wall_s += o.wall_s;
        self.epoch_ms_per_request.extend(o.epoch_ms_per_request);
        self.cache_hit_ratio = o.cache_hit_ratio;
        self.coalesced += o.coalesced;
        self.queue_high_water = self.queue_high_water.max(o.queue_high_water);
        self.failures.extend(o.failures);
    }
}

fn server_config() -> ServeConfig {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    ServeConfig {
        workers: cores.saturating_sub(1).max(1),
        queue_depth: QUEUE_DEPTH,
        ..ServeConfig::default()
    }
}

/// Check the responses of one server lifetime and fold them into `stats`.
fn settle(
    templates: &Templates,
    requests: &[ReqSpec],
    done: Vec<Done>,
    server: &PlanServer,
    stats: &mut StepStats,
) {
    let mut first_serve: HashMap<ReqSpec, PlanBits> = HashMap::new();
    let mut done = done;
    done.sort_by_key(|d| d.index);
    for d in done {
        let spec = requests[d.index];
        stats.late_ms.push(d.late_ms);
        let response = match d.response {
            Ok(r) => r,
            Err(NetpartError::ServerOverloaded { .. }) => {
                stats.shed += 1;
                continue;
            }
            Err(e) => {
                stats.fail(format!("request {}: {e}", d.index));
                continue;
            }
        };
        let bits = plan_bits(&response.plan);
        let mut ok = true;
        match response.source {
            PlanSource::Fresh => {
                stats.fresh_ms.push(response.total_ms);
                first_serve.entry(spec).or_insert_with(|| bits.clone());
            }
            PlanSource::Cache => {
                stats.hit_ms.push(response.total_ms);
                // Single-flight followers are stamped Cache too and may
                // complete before their leader; the first serve of a
                // fingerprint is whichever settles first.
                let first = first_serve.entry(spec).or_insert_with(|| bits.clone());
                if *first != bits {
                    ok = false;
                    stats.fail(format!(
                        "request {}: cache hit differs from first serve",
                        d.index
                    ));
                }
            }
            other => {
                ok = false;
                stats.fail(format!("request {}: degraded source {other:?}", d.index));
            }
        }
        if ok && d.index % SAMPLE_EVERY == 0 {
            match templates.build(spec).plan() {
                Ok(direct) if plan_bits(&direct) == bits => {}
                Ok(_) => stats.fail(format!(
                    "request {}: plan differs from direct plan()",
                    d.index
                )),
                Err(e) => stats.fail(format!("request {}: direct plan(): {e}", d.index)),
            }
        }
        stats.latency_ms.push(d.late_ms + response.total_ms);
        stats.queue_ms.push(response.queue_ms);
        stats.service_ms.push(response.total_ms - response.queue_ms);
    }
    let s = server.stats();
    stats.cache_hit_ratio = s.cache_hit_ratio();
    stats.coalesced = s.coalesced;
    stats.queue_high_water = s.queue_high_water;
}

/// Closed loop: a fresh server, `requests` submitted with at most
/// [`OUTSTANDING`] tickets in flight.
fn closed_epoch(templates: &Templates, requests: &[ReqSpec], t: &mut Tracer) -> StepStats {
    let server = PlanServer::start(server_config());
    let mut stats = StepStats::default();
    let mut outstanding: VecDeque<(usize, PlanTicket)> = VecDeque::with_capacity(OUTSTANDING);
    let mut done = Vec::with_capacity(requests.len());
    let start = Instant::now();
    let wait_oldest =
        |outstanding: &mut VecDeque<(usize, PlanTicket)>, done: &mut Vec<Done>, t: &mut Tracer| {
            if let Some((index, ticket)) = outstanding.pop_front() {
                let response = t.span("serve.wait", |_| ticket.wait());
                done.push(Done {
                    index,
                    late_ms: 0.0,
                    response,
                });
            }
        };
    for (index, &spec) in requests.iter().enumerate() {
        if outstanding.len() >= OUTSTANDING {
            wait_oldest(&mut outstanding, &mut done, t);
        }
        let request = PlanRequest::new(templates.build(spec));
        stats.offered += 1;
        match t.span("serve.submit", |_| server.submit(request)) {
            Ok(ticket) => outstanding.push_back((index, ticket)),
            Err(e) => done.push(Done {
                index,
                late_ms: 0.0,
                response: Err(e),
            }),
        }
    }
    while !outstanding.is_empty() {
        wait_oldest(&mut outstanding, &mut done, t);
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats
        .epoch_ms_per_request
        .push(stats.wall_s * 1e3 / requests.len().max(1) as f64);
    settle(templates, requests, done, &server, &mut stats);
    server.stop();
    stats
}

/// Closed-loop capacity phase: whole epochs until `budget` is spent.
fn capacity_phase(
    templates: &Templates,
    seed: u64,
    stream: u64,
    budget: Duration,
    t: &mut Tracer,
) -> StepStats {
    let deadline = Instant::now() + budget;
    let mut total = StepStats::default();
    let mut epoch = 0u64;
    loop {
        let requests = request_mix(seed, stream + epoch, EPOCH);
        total.absorb(closed_epoch(templates, &requests, t));
        epoch += 1;
        if Instant::now() >= deadline {
            return total;
        }
    }
}

/// Open loop: a fresh server, Poisson arrivals at `rate` for `seconds`.
fn open_step(templates: &Templates, seed: u64, rate: u32, seconds: f64) -> StepStats {
    let count = (f64::from(rate) * seconds).ceil() as usize;
    let requests = request_mix(seed, 100 + u64::from(rate), count);
    let schedule = arrival_schedule(seed, 200 + u64::from(rate), rate, count);
    let server = PlanServer::start(server_config());
    let mut stats = StepStats {
        offered: count,
        ..StepStats::default()
    };
    let mut outstanding: VecDeque<(usize, f64, PlanTicket)> = VecDeque::new();
    let mut done = Vec::with_capacity(count);
    let start = Instant::now() + Duration::from_millis(2);
    for (index, (&spec, &offset)) in requests.iter().zip(&schedule).enumerate() {
        // Build the request before it is due, so construction is only
        // charged to latency when the generator is already behind.
        let request = PlanRequest::new(templates.build(spec));
        let due = start + Duration::from_nanos(offset);
        // Until then, collect finished tickets (so responses do not pile
        // up) and otherwise spin: a sleep could overshoot the due time by
        // more than a whole service time.
        while Instant::now() < due {
            match outstanding
                .front()
                .and_then(|(_, _, ticket)| ticket.try_wait())
            {
                Some(response) => {
                    if let Some((i, late_ms, _)) = outstanding.pop_front() {
                        done.push(Done {
                            index: i,
                            late_ms,
                            response,
                        });
                    }
                }
                None => std::hint::spin_loop(),
            }
        }
        let late_ms = due.elapsed().as_secs_f64() * 1e3;
        match server.submit(request) {
            Ok(ticket) => outstanding.push_back((index, late_ms, ticket)),
            Err(e) => done.push(Done {
                index,
                late_ms,
                response: Err(e),
            }),
        }
    }
    for (index, late_ms, ticket) in outstanding {
        done.push(Done {
            index,
            late_ms,
            response: ticket.wait(),
        });
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    settle(templates, &requests, done, &server, &mut stats);
    server.stop();
    stats
}

fn p50_us(ms: &[f64]) -> f64 {
    median(ms) * 1e3
}

/// Run the workload under the driver's protocol.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let mut templates = None;
    for nth in 0..ctx.setups.max(1) {
        let t0 = Instant::now();
        let built = Templates::new()?;
        // Warm-up: one closed-loop epoch, checked like any other.
        let requests = request_mix(ctx.seed, 900 + nth as u64, EPOCH);
        let warm = closed_epoch(&built, &requests, &mut tracer);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        account(&mut out, &warm);
        templates = Some(built);
    }
    let templates = templates.ok_or("no set-up ran")?;
    let phase = |share: f64| (ctx.seconds * share).max(MIN_PHASE_S);

    if !ctx.trace {
        let capacity = capacity_phase(
            &templates,
            ctx.seed,
            1000,
            Duration::from_secs_f64(ctx.seconds),
            &mut tracer,
        );
        account(&mut out, &capacity);
        out.ops_per_s = capacity.latency_ms.len() as f64 / capacity.wall_s;
        out.op_ms = capacity.epoch_ms_per_request;
        return Ok(out);
    }

    // Traced run. Capacity twice — without and with spans around every
    // submit and wait — for the tracing overhead; then the ladder.
    let half = Duration::from_secs_f64(phase(0.1));
    let plain = capacity_phase(&templates, ctx.seed, 1000, half, &mut tracer);
    account(&mut out, &plain);
    tracer.set(true, 0);
    let t0 = Instant::now();
    let spanned = tracer.span("bench.rep", |t| {
        capacity_phase(&templates, ctx.seed, 1000, half, t)
    });
    out.traced_wall_ns = t0.elapsed().as_nanos() as u64;
    tracer.set(false, 0);
    account(&mut out, &spanned);
    let spans = tracer.take();
    out.span_totals = reduce(&spans);
    let share_sum = out.span_totals.values().map(|c| c.self_ns).sum::<u64>() as f64
        / out.traced_wall_ns.max(1) as f64;
    // Keep the file small: the spans of the first thousand requests.
    out.spans = spans.into_iter().take(1 + 2 * 1000).collect();
    let plain_rps = plain.latency_ms.len() as f64 / plain.wall_s;
    let spanned_rps = spanned.latency_ms.len() as f64 / spanned.wall_s;

    let mut layers = Layers::default();
    layers.set("serve.capacity_rps", plain_rps);
    layers.set("serve.queue_wait_p50_us", p50_us(&plain.queue_ms));
    layers.set(
        "serve.queue_wait_p99_us",
        quantile(&plain.queue_ms, 0.99) * 1e3,
    );
    layers.set("serve.service_p50_us", p50_us(&plain.service_ms));
    layers.set("serve.hit_p50_us", p50_us(&plain.hit_ms));
    layers.set("serve.fresh_p50_us", p50_us(&plain.fresh_ms));
    layers.set("serve.cache_hit_ratio", plain.cache_hit_ratio);
    layers.set("serve.coalesced", plain.coalesced as f64);
    layers.set("serve.queue_high_water", plain.queue_high_water as f64);

    let mut max_ok = 0u32;
    let mut lateness = Vec::new();
    for rate in LADDER {
        let step = open_step(&templates, ctx.seed, rate, phase(0.16));
        layers.set(&format!("serve.p50_ms.r{rate}"), median(&step.latency_ms));
        layers.set(
            &format!("serve.p99_ms.r{rate}"),
            quantile(&step.latency_ms, 0.99),
        );
        layers.set(
            &format!("serve.shed_ratio.r{rate}"),
            step.shed as f64 / step.offered.max(1) as f64,
        );
        if step.meets_limit() {
            max_ok = max_ok.max(rate);
        }
        if rate == REFERENCE_RPS {
            lateness = step.late_ms.clone();
        }
        // Open-loop steps report what they shed (a 64-deep queue holds
        // 25 ms of arrivals at 2500 req/s, and a 2-vCPU sandbox was seen
        // to stall a thread for 38 ms); only a wrong or errored plan is a
        // failure, at any rate.
        out.attempted += (step.offered - step.shed) as u64;
        out.failed += step.failed as u64;
        out.failures.extend(step.failures.iter().take(2).cloned());
    }
    layers.set("serve.max_ok_rps", f64::from(max_ok));
    layers.set("serve.gen_lateness_p99_us", quantile(&lateness, 0.99) * 1e3);
    out.layers = layers;
    out.ops_per_s = plain_rps;
    out.op_ms = plain.epoch_ms_per_request.clone();
    // The closed loop has no per-request op time of its own; the overhead
    // of tracing is the capacity it costs.
    out.set_bench_layers(None, share_sum);
    if spanned_rps > 0.0 {
        out.layers
            .set("bench.trace_overhead", plain_rps / spanned_rps);
    }
    Ok(out)
}

/// Fold a step's attempted/failed counts into the run's.
fn account(out: &mut Outcome, step: &StepStats) {
    out.attempted += step.offered as u64;
    out.failed += (step.shed + step.failed) as u64;
    for f in &step.failures {
        if out.failures.len() < 8 {
            out.failures.push(f.clone());
        }
    }
    if step.shed > 0 && out.failures.len() < 8 {
        out.failures
            .push(format!("{} of {} requests shed", step.shed, step.offered));
    }
}
