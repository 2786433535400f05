//! The benchmark's vocabulary: workloads, metrics (name, unit, direction,
//! regression bound), and the result file `run` writes and `compare`
//! reads. `BENCHMARK.json` at the repo root states the same tables for the
//! driver; `tests/schema.rs` fails when the two disagree.

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// `[A-Za-z0-9_.-]`, at most 64 characters, unique.
    pub name: &'static str,
    /// Unit, as printed beside every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// A simulated quantity or a count of deterministic work: two runs of
    /// one commit with one seed must report exactly the same value.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

/// A lower-is-better per-layer metric that must repeat exactly.
const fn ex(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
        exact: false,
    }
}

/// The seven workloads, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "paper12",
        "the paper's 12-node experiment: sparse events, stencil arithmetic over 0.9 of host time; an apps/engine change moves it, a sim/mmps change must not",
    ),
    (
        "fabric",
        "full stack at 256 and 1024 ranks on tree and fat-tree fabrics: multi-hop routing, fragment trains, thousands of live timers",
    ),
    (
        "calib256",
        "cold calibration of a 256-node tree: sim+mmps+spmd do all the work, no application arithmetic; an event-core or MMPS gain must show here",
    ),
    (
        "flood",
        "raw Network drain, two waves of 200k standing events across a router, no timers, no MMPS, no app: the deep-queue case, opposite to paper12",
    ),
    (
        "plan_scale",
        "planning only at 256/1024/4096 nodes on three wirings: core search and pipeline::plan overhead with the simulator idle",
    ),
    (
        "serve_open",
        "PlanServer with hits and misses mixed: closed-loop capacity end to end, open-loop Poisson ladder in the traced run; the only multi-thread wall-clock path",
    ),
    (
        "recover",
        "crash, detect, replan, rebuild, resume with local and replicated checkpoints: guards the recovery refactor, whose goldens are blind to host time",
    ),
];

/// Metrics a user of the system sees. Every workload reports every one of
/// them; each is a host-time or host-memory quantity that is never zero.
/// The time bounds are what a shared 2-vCPU sandbox can resolve between two
/// sets of runs: medians of one commit drifted by up to 17 % within an
/// hour on the memory-bound workloads (README, A/A). Tighter claims need
/// the alternating pairs of an in-run A/B, which `compare` supports.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_ms", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// Metrics of single layers (`layer.metric`; layers are this repo's
/// modules, plus `bench` for the harness). Unbounded; a workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    // The harness itself.
    hi("bench.samples", "count"),
    lo("bench.op_hi_ms", "ms"),
    hi("bench.op_hi_pct", "%"),
    ex("bench.fail_ratio", "ratio"),
    lo("bench.trace_overhead", "ratio"),
    hi("bench.share_sum", "ratio"),
    // sim: the event core, segments, routers.
    ex("sim.events", "count"),
    lo("sim.ns_per_event", "ns"),
    ex("sim.peak_pending", "count"),
    lo("sim.build_us", "us"),
    ex("sim.segment_frames", "count"),
    ex("sim.segment_util_max", "ratio"),
    ex("sim.router_frames", "count"),
    ex("sim.router_drops", "count"),
    ex("sim.datagrams_dropped", "count"),
    ex("sim.elapsed_ms", "ms"),
    lo("sim.host_s_per_sim_s", "ratio"),
    // mmps: the reliable message layer.
    ex("mmps.messages", "count"),
    ex("mmps.retransmissions", "count"),
    ex("mmps.retx_ratio", "ratio"),
    ex("mmps.messages_failed", "count"),
    ex("mmps.window_halvings", "count"),
    lo("mmps.ns_per_fragment", "ns"),
    // spmd: the cycle engine (its self time lumps engine + mmps + sim).
    lo("spmd.run_ms", "ms"),
    lo("spmd.stack_self_ms", "ms"),
    ex("spmd.cycles", "count"),
    ex("spmd.recv_wait_sim_ms", "ms"),
    ex("spmd.compute_sim_ms", "ms"),
    lo("spmd.host_s_per_sim_s.tree256", "ratio"),
    lo("spmd.host_s_per_sim_s.fat256", "ratio"),
    lo("spmd.host_s_per_sim_s.tree1024", "ratio"),
    lo("spmd.host_s_per_sim_s.fat1024", "ratio"),
    // apps: the application's own arithmetic and (de)serialization.
    lo("apps.compute_ms", "ms"),
    lo("apps.msg_ms", "ms"),
    lo("apps.setup_ms", "ms"),
    lo("apps.share", "ratio"),
    lo("apps.checkpoint_ms", "ms"),
    ex("apps.checkpoint_bytes", "B"),
    // calibrate (+ the sweep engine it fans out on).
    lo("calibrate.cold_ms", "ms"),
    ex("calibrate.grid_points", "count"),
    lo("calibrate.cache_hit_us", "us"),
    hi("calibrate.r2_min", "ratio"),
    hi("calibrate.threads", "count"),
    hi("sweep.speedup", "ratio"),
    // core: estimator, search, partitioner.
    lo("core.partition_us.n256", "us"),
    lo("core.partition_us.n1024", "us"),
    lo("core.partition_us.n4096", "us"),
    ex("core.evaluations", "count"),
    ex("core.cluster_evals", "count"),
    lo("core.ns_per_cluster_eval", "ns"),
    lo("core.tc_eval_ns", "ns"),
    lo("core.refine_us.n4096", "us"),
    ex("core.tc_rel_err", "ratio"),
    ex("core.heuristic_gap", "ratio"),
    // pipeline: Scenario::plan, fingerprints, recovery.
    lo("pipeline.plan_us.n12", "us"),
    lo("pipeline.plan_us.n256", "us"),
    lo("pipeline.plan_us.n1024", "us"),
    lo("pipeline.plan_us.n4096", "us"),
    lo("pipeline.plan_overhead_us.n256", "us"),
    lo("pipeline.plan_overhead_us.n1024", "us"),
    lo("pipeline.plan_overhead_us.n4096", "us"),
    lo("pipeline.fingerprint_us.n12", "us"),
    lo("pipeline.fingerprint_us.n256", "us"),
    lo("pipeline.fingerprint_us.n1024", "us"),
    lo("pipeline.recover_ms", "ms"),
    ex("pipeline.replans", "count"),
    ex("pipeline.cycles_lost", "count"),
    ex("pipeline.recovery_overhead_sim_ms", "ms"),
    // serve: admission queue, single-flight, fingerprint cache.
    hi("serve.capacity_rps", "1/s"),
    lo("serve.queue_wait_p50_us", "us"),
    lo("serve.queue_wait_p99_us", "us"),
    lo("serve.service_p50_us", "us"),
    lo("serve.hit_p50_us", "us"),
    lo("serve.fresh_p50_us", "us"),
    hi("serve.cache_hit_ratio", "ratio"),
    hi("serve.coalesced", "count"),
    lo("serve.queue_high_water", "count"),
    lo("serve.p50_ms.r1000", "ms"),
    lo("serve.p50_ms.r2500", "ms"),
    lo("serve.p50_ms.r5000", "ms"),
    lo("serve.p50_ms.r10000", "ms"),
    lo("serve.p50_ms.r15000", "ms"),
    lo("serve.p99_ms.r1000", "ms"),
    lo("serve.p99_ms.r2500", "ms"),
    lo("serve.p99_ms.r5000", "ms"),
    lo("serve.p99_ms.r10000", "ms"),
    lo("serve.p99_ms.r15000", "ms"),
    lo("serve.shed_ratio.r1000", "ratio"),
    lo("serve.shed_ratio.r2500", "ratio"),
    lo("serve.shed_ratio.r5000", "ratio"),
    lo("serve.shed_ratio.r10000", "ratio"),
    lo("serve.shed_ratio.r15000", "ratio"),
    hi("serve.max_ok_rps", "1/s"),
    lo("serve.gen_lateness_p99_us", "us"),
];

/// Limits the driver's contract puts on `BENCHMARK.json` and therefore on
/// everything derived from it.
pub mod limits {
    /// Fewest workloads.
    pub const MIN_WORKLOADS: usize = 2;
    /// Most workloads.
    pub const MAX_WORKLOADS: usize = 8;
    /// Most end-to-end metrics.
    pub const MAX_END_TO_END: usize = 16;
    /// Most per-layer metrics.
    pub const MAX_PER_LAYER: usize = 128;
    /// Longest name.
    pub const MAX_NAME: usize = 64;
    /// Longest unit.
    pub const MAX_UNIT: usize = 16;
    /// Largest regression bound.
    pub const MAX_BOUND: f64 = 0.25;
}

/// A name starts with a letter or digit and is made of at most 64
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= limits::MAX_NAME
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit is made of at most 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= limits::MAX_UNIT
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Look a metric up in either table.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One metric's values across the runs of a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValues {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// One value per run, in run order.
    pub values: Vec<f64>,
}

/// One workload's section of a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Whether every run's outputs checked out.
    pub correct: bool,
    /// Operations attempted, summed over runs.
    pub attempted: u64,
    /// Operations that failed a check, summed over runs.
    pub failed: u64,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<MetricValues>,
    /// Per-layer metrics (traced runs; empty without `--traced`).
    pub per_layer: Vec<MetricValues>,
}

/// Where and how a result file was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub nproc: u64,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// Worker count the sweep engine uses by default on this machine.
    pub sweep_threads: u64,
}

/// Everything `run` measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    /// Machine fields.
    pub machine: Machine,
    /// First seed; run `i` used `seed + i`.
    pub seed: u64,
    /// `--seconds` of every run.
    pub seconds: f64,
    /// Runs per workload.
    pub runs: u64,
    /// One section per workload.
    pub workloads: Vec<WorkloadResult>,
}

/// The `schema` tag of result files.
pub const RESULT_SCHEMA: &str = "netpart-benchmark/1";

fn metrics_to_json(metrics: &[MetricValues]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([
                        ("unit", Json::Str(m.unit.clone())),
                        (
                            "values",
                            Json::Arr(m.values.iter().map(|v| Json::Num(*v)).collect()),
                        ),
                    ]),
                )
            })
            .collect(),
    )
}

fn metrics_from_json(j: Option<&Json>, what: &str) -> Result<Vec<MetricValues>, String> {
    let members = j
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("`{what}` must be an object"))?;
    members
        .iter()
        .map(|(name, m)| {
            if !valid_name(name) {
                return Err(format!("metric name `{name}` is outside [A-Za-z0-9_.-]"));
            }
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric `{name}` has no unit"))?;
            if !valid_unit(unit) {
                return Err(format!("metric `{name}` has an invalid unit `{unit}`"));
            }
            let values = m
                .get("values")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("metric `{name}` has no values"))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| format!("metric `{name}`: non-number"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            Ok(MetricValues {
                name: name.clone(),
                unit: unit.to_string(),
                values,
            })
        })
        .collect()
}

impl ResultFile {
    /// Serialize.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(RESULT_SCHEMA.into())),
            (
                "machine",
                Json::obj([
                    ("nproc", Json::Num(self.machine.nproc as f64)),
                    ("rustc", Json::Str(self.machine.rustc.clone())),
                    ("commit", Json::Str(self.machine.commit.clone())),
                    (
                        "sweep_threads",
                        Json::Num(self.machine.sweep_threads as f64),
                    ),
                ]),
            ),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("runs", Json::Num(self.runs as f64)),
            (
                "workloads",
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            Json::obj([
                                ("name", Json::Str(w.name.clone())),
                                ("correct", Json::Bool(w.correct)),
                                ("attempted", Json::Num(w.attempted as f64)),
                                ("failed", Json::Num(w.failed as f64)),
                                ("end_to_end", metrics_to_json(&w.end_to_end)),
                                ("per_layer", metrics_to_json(&w.per_layer)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse and validate: schema tag, name and unit charsets, 2–8
    /// workloads, at most 16 end-to-end and 128 per-layer metrics each,
    /// unique names.
    pub fn from_json(j: &Json) -> Result<ResultFile, String> {
        if j.get("schema").and_then(Json::as_str) != Some(RESULT_SCHEMA) {
            return Err(format!("not a `{RESULT_SCHEMA}` result file"));
        }
        let num = |obj: &Json, key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number `{key}`"))
        };
        let text = |obj: &Json, key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string `{key}`"))
        };
        let m = j.get("machine").ok_or("missing `machine`")?;
        let machine = Machine {
            nproc: num(m, "nproc")? as u64,
            rustc: text(m, "rustc")?,
            commit: text(m, "commit")?,
            sweep_threads: num(m, "sweep_threads")? as u64,
        };
        let sections = j
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("missing `workloads`")?;
        if !(limits::MIN_WORKLOADS..=limits::MAX_WORKLOADS).contains(&sections.len()) {
            return Err(format!(
                "{} workloads; a result file holds {} to {}",
                sections.len(),
                limits::MIN_WORKLOADS,
                limits::MAX_WORKLOADS
            ));
        }
        let mut workloads = Vec::new();
        for w in sections {
            let name = text(w, "name")?;
            if !valid_name(&name) {
                return Err(format!("workload name `{name}` is outside [A-Za-z0-9_.-]"));
            }
            if workloads.iter().any(|o: &WorkloadResult| o.name == name) {
                return Err(format!("workload `{name}` appears twice"));
            }
            let end_to_end = metrics_from_json(w.get("end_to_end"), "end_to_end")?;
            let per_layer = metrics_from_json(w.get("per_layer"), "per_layer")?;
            if end_to_end.len() > limits::MAX_END_TO_END {
                return Err(format!(
                    "workload `{name}`: more than 16 end-to-end metrics"
                ));
            }
            if per_layer.len() > limits::MAX_PER_LAYER {
                return Err(format!(
                    "workload `{name}`: more than 128 per-layer metrics"
                ));
            }
            workloads.push(WorkloadResult {
                name,
                correct: w
                    .get("correct")
                    .and_then(Json::as_bool)
                    .ok_or("missing `correct`")?,
                attempted: num(w, "attempted")? as u64,
                failed: num(w, "failed")? as u64,
                end_to_end,
                per_layer,
            });
        }
        Ok(ResultFile {
            machine,
            seed: num(j, "seed")? as u64,
            seconds: num(j, "seconds")?,
            runs: num(j, "runs")? as u64,
            workloads,
        })
    }
}
