//! `compare A.json B.json`: the A/A and A/B tool. A is the parent, B the
//! change. One row per (workload, end-to-end metric) with each side's
//! median and run-to-run spread, judged against the metric's bound; one
//! row per deterministic per-layer metric that differs.

use crate::schema::{metric_def, Better, MetricValues, ResultFile, WorkloadResult};
use crate::stats::{iqr_share, median};

/// The verdict on one (workload, metric) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the spread.
    Improved,
    /// Within the bound, and the spread is narrow enough to say so.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound: no verdict.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B against A for one bounded metric. `a` and `b` hold one value
/// per run. The spread of a side is the distance between its quartiles as
/// a share of its median (unknown with a single run, then only the bound
/// decides).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    let worse = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let spread = iqr_share(a)
        .into_iter()
        .chain(iqr_share(b))
        .fold(None, |acc: Option<f64>, s| {
            Some(acc.map_or(s, |x| x.max(s)))
        });
    if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > spread.unwrap_or(bound) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn find<'a>(metrics: &'a [MetricValues], name: &str) -> Option<&'a MetricValues> {
    metrics.iter().find(|m| m.name == name)
}

fn fail_ratio(w: &WorkloadResult) -> f64 {
    w.failed as f64 / w.attempted.max(1) as f64
}

/// Print the comparison; returns whether B passes (no regression, no
/// higher failure ratio, no workload missing).
pub fn compare(a: &ResultFile, b: &ResultFile) -> bool {
    let mut pass = true;
    println!(
        "A: commit {} seed {} runs {} x {} s | B: commit {} seed {} runs {} x {} s",
        a.machine.commit, a.seed, a.runs, a.seconds, b.machine.commit, b.seed, b.runs, b.seconds
    );
    if (a.seed, a.seconds) != (b.seed, b.seconds) {
        println!("note: the two files were not measured with the same seed and run length");
    }
    println!(
        "{:<11} {:<14} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "B vs A", "bound"
    );
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            println!("{:<11} missing from B", wa.name);
            pass = false;
            continue;
        };
        for ma in &wa.end_to_end {
            let (Some(mb), Some(def)) = (find(&wb.end_to_end, &ma.name), metric_def(&ma.name))
            else {
                println!("{:<11} {:<14} missing from B or unknown", wa.name, ma.name);
                pass = false;
                continue;
            };
            let bound = def.bound.unwrap_or(0.0);
            let verdict = judge(&ma.values, &mb.values, def.better, bound);
            pass &= verdict != Verdict::Regressed;
            let (xa, xb) = (median(&ma.values), median(&mb.values));
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{:<11} {:<14} {:>14.6} {:>8} {:>14.6} {:>8} {:>+7.1}% {:>5.0}%  {}",
                wa.name,
                ma.name,
                xa,
                pct(iqr_share(&ma.values)),
                xb,
                pct(iqr_share(&mb.values)),
                (xb - xa) / xa * 100.0,
                bound * 100.0,
                verdict.as_str()
            );
        }
        let (fa, fb) = (fail_ratio(wa), fail_ratio(wb));
        let verdict = if fb > fa { "regressed" } else { "unchanged" };
        pass &= fb <= fa;
        println!(
            "{:<11} {:<14} {:>14.6} {:>8} {:>14.6} {:>8} {:>8} {:>6}  {}",
            wa.name, "fail_ratio", fa, "-", fb, "-", "-", "exact", verdict
        );
        // Simulated quantities and counts of deterministic work: a change
        // meant only to speed the simulator must leave every one of them
        // identical, run for run.
        let mut differing = 0;
        for ma in &wa.per_layer {
            let exact = metric_def(&ma.name).is_some_and(|d| d.exact);
            let Some(mb) = find(&wb.per_layer, &ma.name) else {
                continue;
            };
            if exact && ma.values != mb.values {
                differing += 1;
                println!(
                    "{:<11} {:<34} A {:?} != B {:?}  differs",
                    wa.name, ma.name, ma.values, mb.values
                );
            }
        }
        if !wa.per_layer.is_empty() && !wb.per_layer.is_empty() {
            println!(
                "{:<11} simulated and count metrics: {}",
                wa.name,
                if differing == 0 {
                    "all exactly equal".to_string()
                } else {
                    format!("{differing} differ")
                }
            );
        }
    }
    println!("{}", if pass { "PASS" } else { "FAIL" });
    pass
}
