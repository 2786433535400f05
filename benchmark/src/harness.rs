//! One measured run of one workload: set up (several times, so `setup_s`
//! is a median), repeat the workload's unit of work for `--seconds`, check
//! every output outside the timed region, and reduce to metrics.
//!
//! A traced run (`--trace 1`) alternates untraced and traced repetitions
//! in the same process, so `bench.trace_overhead` is an in-run A/B, and
//! then spends the rest of its budget on the workload's layer probes —
//! direct calls into single layers that would distort a repetition if
//! they ran inside one. End-to-end metrics always come from untraced runs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::schema::{metric_def, PER_LAYER};
use crate::stats::{hi_percentile, median};
use crate::trace::{reduce, NameCost, Span, Tracer};

/// Arguments of one run (the driver's protocol, plus `setups`).
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Every generated input derives from this.
    pub seed: u64,
    /// How long to measure. 0 means exactly one repetition (`--quick`).
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// How many times to set up (the median is reported).
    pub setups: usize,
}

/// Per-layer metric values of one run, by name. Names must exist in
/// [`PER_LAYER`]; metrics never set read as 0.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Record `name = value`. Panics on a name the schema does not list —
    /// a typo must not silently drop a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        self.0.insert(def.name, value);
    }

    /// The value recorded for `name`, 0 if none.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Span costs of every traced repetition of a run.
#[derive(Debug, Default)]
pub struct TracedReps {
    reps: Vec<BTreeMap<&'static str, NameCost>>,
    walls_ns: Vec<u64>,
}

impl TracedReps {
    fn per_rep(&self, name: &str, f: impl Fn(&NameCost) -> f64) -> Vec<f64> {
        self.reps
            .iter()
            .map(|r| r.get(name).map_or(0.0, &f))
            .collect()
    }

    /// Median over repetitions of the summed duration of `name` spans, ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        median(&self.per_rep(name, |c| c.total_ns as f64 / 1e6))
    }

    /// Median over repetitions of the summed self time of `name` spans, ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        median(&self.per_rep(name, |c| c.self_ns as f64 / 1e6))
    }

    /// Median over repetitions of the mean duration of one `name` span, µs.
    pub fn mean_us(&self, name: &str) -> f64 {
        median(&self.per_rep(name, |c| {
            if c.count == 0 {
                0.0
            } else {
                c.total_ns as f64 / c.count as f64 / 1e3
            }
        }))
    }

    /// Median over repetitions of the externally timed repetition wall, ms.
    pub fn wall_ms(&self) -> f64 {
        median(
            &self
                .walls_ns
                .iter()
                .map(|&n| n as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    /// Median over repetitions of (summed duration of every span whose
    /// name starts with `prefix`) / (repetition wall).
    pub fn share(&self, prefix: &str) -> f64 {
        let shares: Vec<f64> = self
            .reps
            .iter()
            .zip(&self.walls_ns)
            .map(|(r, &wall)| {
                let ns: u64 = r
                    .iter()
                    .filter(|(n, _)| n.starts_with(prefix))
                    .map(|(_, c)| c.total_ns)
                    .sum();
                ns as f64 / wall.max(1) as f64
            })
            .collect();
        median(&shares)
    }

    /// Median over repetitions of (sum of all self times) / (wall): how
    /// much of the repetition the spans account for.
    fn share_sum(&self) -> f64 {
        let sums: Vec<f64> = self
            .reps
            .iter()
            .zip(&self.walls_ns)
            .map(|(r, &wall)| {
                r.values().map(|c| c.self_ns).sum::<u64>() as f64 / wall.max(1) as f64
            })
            .collect();
        median(&sums)
    }

    /// Self time per span name summed over all traced repetitions, for the
    /// printed per-layer table.
    pub fn self_totals(&self) -> BTreeMap<&'static str, NameCost> {
        let mut out: BTreeMap<&'static str, NameCost> = BTreeMap::new();
        for rep in &self.reps {
            for (name, c) in rep {
                let e = out.entry(name).or_default();
                e.count += c.count;
                e.total_ns += c.total_ns;
                e.self_ns += c.self_ns;
            }
        }
        out
    }
}

/// A workload whose unit of work one thread repeats back to back.
pub trait ClosedLoop: Sized {
    /// What a repetition hands to [`check`](Self::check).
    type Output;

    /// Build the inputs from `seed` and the reference answers the checks
    /// compare against. `nth` counts set-ups within the run: a workload
    /// whose set-up fills a process-wide cache uses it to stay cold.
    fn setup(seed: u64, nth: usize) -> Result<Self, String>;

    /// One repetition — the timed region. With `t` enabled, the same work
    /// through the decomposed, span-wrapped calls.
    fn repetition(&mut self, t: &mut Tracer) -> Result<Self::Output, String>;

    /// Verify a repetition's outputs (untimed). Returns one line per
    /// failed check.
    fn check(&mut self, out: Self::Output) -> Vec<String>;

    /// Direct calls into single layers, traced runs only, after the
    /// repetitions. Returns one line per failed check.
    fn probes(&mut self, _t: &mut Tracer, _budget: Duration, _layers: &mut Layers) -> Vec<String> {
        Vec::new()
    }

    /// Per-layer metrics from the traced repetitions and the facts the
    /// checks collected.
    fn layers(&self, reps: &TracedReps, layers: &mut Layers);
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure lines.
    pub failures: Vec<String>,
    /// Wall seconds of each set-up (including its warm-up repetition).
    pub setup_s: Vec<f64>,
    /// Host ms of each untraced timed operation.
    pub op_ms: Vec<f64>,
    /// Operations per host second over the untraced timed region.
    pub ops_per_s: f64,
    /// Per-layer metrics (traced runs).
    pub layers: Layers,
    /// Spans of the first traced repetition and of the probes.
    pub spans: Vec<Span>,
    /// Per-name span costs over all traced repetitions, for the table.
    pub span_totals: BTreeMap<&'static str, NameCost>,
    /// Summed wall of the traced repetitions, ns.
    pub traced_wall_ns: u64,
}

impl Outcome {
    /// Record the outcome of checking one operation.
    pub fn checked(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                if self.failures.len() < 8 {
                    self.failures.push(f);
                }
            }
        }
    }

    /// Fill the `bench.*` metrics every workload reports the same way;
    /// `traced_op_ms` is the median traced operation time, if there is one.
    pub fn set_bench_layers(&mut self, traced_op_ms: Option<f64>, share_sum: f64) {
        self.layers.set("bench.samples", self.op_ms.len() as f64);
        if let Some(h) = hi_percentile(&self.op_ms) {
            self.layers.set("bench.op_hi_ms", h.value);
            self.layers.set("bench.op_hi_pct", h.pct);
        }
        self.layers.set(
            "bench.fail_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        let untraced = median(&self.op_ms);
        if let Some(traced) = traced_op_ms.filter(|_| untraced > 0.0) {
            self.layers.set("bench.trace_overhead", traced / untraced);
        }
        self.layers.set("bench.share_sum", share_sum);
    }
}

/// Share of a traced run's `--seconds` spent on repetitions; the rest
/// goes to the layer probes.
const TRACED_REP_SHARE: f64 = 0.6;

/// Tag of spans recorded by layer probes rather than a repetition.
pub const PROBE_REP: u32 = u32::MAX;

/// Run a closed-loop workload under the driver's protocol.
pub fn run_closed<W: ClosedLoop>(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let mut workload = None;
    for nth in 0..ctx.setups.max(1) {
        let t0 = Instant::now();
        let mut w = W::setup(ctx.seed, nth)?;
        // One untimed warm-up repetition: caches fill and lazy set-up
        // finishes before anything is timed, and its cost shows in setup_s.
        let warm = w.repetition(&mut tracer)?;
        let failures = w.check(warm);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.checked(failures);
        workload = Some(w);
    }
    let mut w = workload.ok_or("no set-up ran")?;

    let budget =
        Duration::from_secs_f64(ctx.seconds * if ctx.trace { TRACED_REP_SHARE } else { 1.0 });
    let loop_start = Instant::now();
    let mut timed_ns: u64 = 0;
    let mut traced = TracedReps::default();
    let mut rep: u32 = 0;
    loop {
        let tracing = ctx.trace && rep % 2 == 1;
        tracer.set(tracing, rep);
        let t0 = Instant::now();
        let result = if tracing {
            tracer.span("bench.rep", |t| w.repetition(t))
        } else {
            w.repetition(&mut tracer)
        };
        let ns = t0.elapsed().as_nanos() as u64;
        tracer.set(false, rep);
        let output = result?;
        if tracing {
            let spans = tracer.take();
            traced.reps.push(reduce(&spans));
            traced.walls_ns.push(ns);
            if out.spans.is_empty() {
                out.spans = spans;
            }
        } else {
            out.op_ms.push(ns as f64 / 1e6);
            timed_ns += ns;
        }
        out.checked(w.check(output));
        rep += 1;
        let enough = if ctx.trace { rep >= 2 } else { rep >= 1 };
        if enough && loop_start.elapsed() >= budget {
            break;
        }
    }
    out.ops_per_s = out.op_ms.len() as f64 / (timed_ns.max(1) as f64 / 1e9);

    if ctx.trace {
        let left = Duration::from_secs_f64(ctx.seconds).saturating_sub(loop_start.elapsed());
        tracer.set(true, PROBE_REP);
        let failures = w.probes(&mut tracer, left, &mut out.layers);
        tracer.set(false, PROBE_REP);
        out.checked(failures);
        // Probe spans follow the kept repetition's; shift their parent
        // indices past it so the file stays one consistent list.
        let base = out.spans.len() as u32;
        out.spans.extend(tracer.take().into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        w.layers(&traced, &mut out.layers);
        out.set_bench_layers(Some(traced.wall_ms()), traced.share_sum());
        out.span_totals = traced.self_totals();
        out.traced_wall_ns = traced.walls_ns.iter().sum();
    }
    Ok(out)
}

/// `VmHWM` of this process, MB — the peak resident set, which is why each
/// workload runs in a process of its own.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Unit of a metric, for printing.
pub fn unit_of(name: &str) -> &'static str {
    metric_def(name).map_or("", |m| m.unit)
}
