//! The command line.
//!
//! ```text
//! netpart-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's protocol)
//! netpart-benchmark run [--seed N] [--seconds S] [--runs K] [--traced] [--quick] [--only a,b] [--out FILE]
//! netpart-benchmark compare A.json B.json
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::harness::{peak_rss_mb, run_closed, unit_of, Ctx, Outcome};
use crate::json::Json;
use crate::schema::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{hi_percentile, median, quantile};
use crate::trace::{layer_self_ns, to_jsonl};
use crate::workloads::{calib256, fabric, flood, paper12, plan_scale, recover, serve_open};

/// Where the benchmark writes (traces, result files, its private
/// calibration cache): `out/` beside this package's manifest, so the
/// checkout stays the only place touched whatever the working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Parsed `--key value` options (flags map to an empty string).
pub struct Options(BTreeMap<String, String>);

impl Options {
    /// Parse `args`; `flags` names the options that take no value.
    pub fn parse(args: &[String], flags: &[&str]) -> Result<Options, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            let value = if flags.contains(&key) {
                String::new()
            } else {
                it.next()
                    .ok_or_else(|| format!("`--{key}` needs a value"))?
                    .clone()
            };
            if map.insert(key.to_string(), value).is_some() {
                return Err(format!("`--{key}` given twice"));
            }
        }
        Ok(Options(map))
    }

    /// Whether `--key` was given.
    pub fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    /// The value of `--key`, parsed, or `default`.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("`--{key} {v}` is not a valid value")),
        }
    }

    /// The value of `--key` as text.
    pub fn text(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// Reject options outside `known`.
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.0.keys().find(|k| !known.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown option `--{k}`")),
            None => Ok(()),
        }
    }
}

/// Dispatch one workload by name.
pub fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "paper12" => run_closed::<paper12::Paper12>(ctx),
        "fabric" => run_closed::<fabric::Fabric>(ctx),
        "calib256" => run_closed::<calib256::Calib256>(ctx),
        "flood" => run_closed::<flood::Flood>(ctx),
        "plan_scale" => run_closed::<plan_scale::PlanScale>(ctx),
        "recover" => run_closed::<recover::Recover>(ctx),
        "serve_open" => serve_open::run(ctx),
        other => Err(format!(
            "unknown workload `{other}`; the workloads are {}",
            WORKLOADS
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// The driver's protocol: one run of one workload. Prints every metric by
/// name with its unit, then — as the last line of standard output — the
/// result object. Returns whether the run was correct.
pub fn one_run(args: &[String]) -> Result<bool, String> {
    let opts = Options::parse(args, &[])?;
    opts.only(&["workload", "seed", "seconds", "trace", "setups"])?;
    let workload = opts
        .text("workload")
        .ok_or("`--workload` is required")?
        .to_string();
    let seconds: f64 = opts.get("seconds", 10.0)?;
    if !(0.0..=600.0).contains(&seconds) {
        return Err(format!("`--seconds {seconds}` is outside 0..=600"));
    }
    let ctx = Ctx {
        seed: opts.get("seed", 1994u64)?,
        seconds,
        trace: match opts.text("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("`--trace {other}`: expected 0 or 1")),
        },
        setups: opts.get("setups", 3usize)?,
    };

    // A calibration cache of this process's own: every run pays the same
    // calibrations whatever ran before it, and nothing outside the
    // checkout is written. Set before any thread exists.
    let calib_dir = out_dir().join(format!("calib-{}", std::process::id()));
    std::env::set_var("NETPART_CALIB_DIR", &calib_dir);
    let result = run_workload(&workload, &ctx);
    let _ = std::fs::remove_dir_all(&calib_dir);
    let outcome = result?;

    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    if ctx.trace {
        for m in PER_LAYER {
            metrics.push((m.name, outcome.layers.get(m.name)));
        }
        write_trace(&workload, &outcome)?;
        print_layer_table(&workload, &outcome);
    } else {
        let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        for m in END_TO_END {
            let value = match m.name {
                "setup_s" => median(&outcome.setup_s),
                "op_ms" => median(&outcome.op_ms),
                "ops_per_s" => outcome.ops_per_s,
                "peak_rss_mb" => rss,
                other => return Err(format!("end-to-end metric `{other}` has no source")),
            };
            metrics.push((m.name, value));
        }
        if let Some(h) = hi_percentile(&outcome.op_ms) {
            println!(
                "{workload}: op_ms p{:.2} = {:.4} ms, p90 = {:.4} ms, mean = {:.4} ms over {} samples",
                h.pct,
                h.value,
                quantile(&outcome.op_ms, 0.9),
                outcome.op_ms.iter().sum::<f64>() / outcome.op_ms.len() as f64,
                outcome.op_ms.len()
            );
        }
    }
    for (name, value) in &metrics {
        println!("{workload}: {name} = {value} {}", unit_of(name));
    }
    for f in &outcome.failures {
        println!("{workload}: FAILED CHECK: {f}");
    }
    let correct =
        outcome.failed == 0 && outcome.attempted > 0 && metrics.iter().all(|(_, v)| v.is_finite());
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, value)| {
                        (
                            name.to_string(),
                            Json::obj([
                                ("value", Json::Num(*value)),
                                ("unit", Json::Str(unit_of(name).into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.to_line());
    Ok(correct)
}

fn write_trace(workload: &str, outcome: &Outcome) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.jsonl"));
    std::fs::write(&path, to_jsonl(&outcome.spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "{workload}: {} spans written to {}",
        outcome.spans.len(),
        path.display()
    );
    Ok(())
}

/// The per-layer table of a traced run: each span name's self time and
/// its share of the traced repetitions' wall time, then the same per layer.
fn print_layer_table(workload: &str, outcome: &Outcome) {
    let wall = outcome.traced_wall_ns.max(1) as f64;
    println!("{workload}: self time by span, over the traced repetitions");
    println!(
        "  {:<28} {:>9} {:>12} {:>7}",
        "span", "count", "self ms", "share"
    );
    for (name, cost) in &outcome.span_totals {
        println!(
            "  {:<28} {:>9} {:>12.3} {:>7.4}",
            name,
            cost.count,
            cost.self_ns as f64 / 1e6,
            cost.self_ns as f64 / wall
        );
    }
    println!("  {:<28} {:>22} {:>7}", "layer", "self ms", "share");
    let mut sum = 0.0;
    for (layer, ns) in &layer_self_ns(&outcome.span_totals) {
        println!(
            "  {:<28} {:>22.3} {:>7.4}",
            layer,
            *ns as f64 / 1e6,
            *ns as f64 / wall
        );
        sum += *ns as f64 / wall;
    }
    println!(
        "  {:<28} {:>22.3} {:>7.4}",
        "(all spans)",
        sum * wall / 1e6,
        sum
    );
}
