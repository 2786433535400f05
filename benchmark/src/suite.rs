//! `run`: every workload, each run in a child process of its own (so
//! `peak_rss_mb` belongs to one workload and one workload's caches never
//! warm another), collected into one result file.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::cli::{out_dir, Options};
use crate::json::{parse, Json};
use crate::schema::{
    Machine, MetricValues, ResultFile, WorkloadResult, END_TO_END, PER_LAYER, WORKLOADS,
};
use crate::stats::median;
use crate::workloads::calib256::sweep_threads;

/// The last line of a child's standard output, parsed.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, String, f64)>,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn machine() -> Machine {
    Machine {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        sweep_threads: sweep_threads() as u64,
    }
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    setups: usize,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // `output()` waits for the child, so no process outlives this call.
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--setups", &setups.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Pass on failed checks and, for a traced run, the per-layer table (its
    // rows are indented); the metric lines come back as medians below.
    for line in stdout.lines() {
        if line.contains("FAILED CHECK") || (trace && line.starts_with("  ")) {
            println!("{line}");
        }
    }
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no output (exit {:?})", out.status.code()))?;
    let j = parse(last).map_err(|e| {
        format!(
            "{workload}: last line is not a result (exit {:?}): {e}",
            out.status.code()
        )
    })?;
    let metrics = j
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{workload}: result has no metrics"))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), u.to_string(), v)),
                _ => Err(format!("{workload}: metric `{name}` lacks a value or unit")),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ChildResult {
        correct: j.get("correct").and_then(Json::as_bool).unwrap_or(false),
        attempted: j.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        failed: j.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        metrics,
    })
}

fn push_values(into: &mut Vec<MetricValues>, metrics: Vec<(String, String, f64)>) {
    for (name, unit, value) in metrics {
        match into.iter_mut().find(|m| m.name == name) {
            Some(m) => m.values.push(value),
            None => into.push(MetricValues {
                name,
                unit,
                values: vec![value],
            }),
        }
    }
}

/// `run [--seed N] [--seconds S] [--runs K] [--traced] [--quick] [--only a,b] [--out FILE]`.
/// Returns whether every run was correct.
pub fn run(args: &[String]) -> Result<bool, String> {
    let opts = Options::parse(args, &["traced", "quick"])?;
    opts.only(&["seed", "seconds", "runs", "traced", "quick", "out", "only"])?;
    let seed: u64 = opts.get("seed", 1994)?;
    let quick = opts.has("quick");
    // --quick: one repetition and one set-up per workload.
    let seconds: f64 = if quick {
        0.0
    } else {
        opts.get("seconds", 10.0)?
    };
    let setups = if quick { 1 } else { 3 };
    let runs: u64 = opts.get("runs", 1)?;
    let traced = opts.has("traced");
    let only: Option<Vec<&str>> = opts.text("only").map(|o| o.split(',').collect());
    if let Some(unknown) = only
        .iter()
        .flatten()
        .find(|o| !WORKLOADS.iter().any(|(n, _)| n == *o))
    {
        return Err(format!("`--only`: unknown workload `{unknown}`"));
    }
    let out_path = opts.text("out").map_or_else(
        || out_dir().join(format!("result-{seed}.json")),
        PathBuf::from,
    );

    let mut result = ResultFile {
        machine: machine(),
        seed,
        seconds,
        runs,
        workloads: Vec::new(),
    };
    let mut all_correct = true;
    for (name, why) in WORKLOADS {
        if only.as_ref().is_some_and(|o| !o.contains(name)) {
            continue;
        }
        println!("== {name}: {why}");
        let mut section = WorkloadResult {
            name: name.to_string(),
            correct: true,
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        for i in 0..runs.max(1) {
            for trace in [false, true] {
                if trace && !traced {
                    continue;
                }
                let child = run_child(name, seed + i, seconds, trace, setups)?;
                section.correct &= child.correct;
                section.attempted += child.attempted;
                section.failed += child.failed;
                let into = if trace {
                    &mut section.per_layer
                } else {
                    &mut section.end_to_end
                };
                push_values(into, child.metrics);
            }
        }
        print_section(&section);
        all_correct &= section.correct;
        result.workloads.push(section);
    }

    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, result.to_json().to_pretty())
        .map_err(|e| format!("write {}: {e}", out_path.display()))?;
    println!("result file: {}", out_path.display());
    if !all_correct {
        println!("FAILED: at least one correctness check failed");
    }
    Ok(all_correct)
}

fn print_section(section: &WorkloadResult) {
    let ratio = section.failed as f64 / section.attempted.max(1) as f64;
    println!(
        "  {:<36} {:>16} ratio   ({} failed of {} attempted)",
        "fail_ratio", ratio, section.failed, section.attempted
    );
    for (defs, values) in [
        (END_TO_END, &section.end_to_end),
        (PER_LAYER, &section.per_layer),
    ] {
        for def in defs {
            let Some(m) = values.iter().find(|m| m.name == def.name) else {
                continue;
            };
            // Per-layer metrics a workload does not exercise are 0; leave
            // them out of the printed table (they stay in the file).
            if def.bound.is_none() && m.values.iter().all(|v| *v == 0.0) {
                continue;
            }
            println!(
                "  {:<36} {:>16.6} {:<7} ({} better, median of {})",
                m.name,
                median(&m.values),
                m.unit,
                def.better.as_str(),
                m.values.len()
            );
        }
    }
}
