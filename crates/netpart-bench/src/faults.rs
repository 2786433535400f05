//! Fault-injection experiments: recovery overhead under scheduled crashes
//! and a seeded chaos harness.
//!
//! Each row of the faults table runs one application three times on the
//! paper testbed: fault-free (the baseline the paper measures), with a
//! mid-run fail-stop crash under [`RecoveryPolicy::Replan`] (the run must
//! finish on the survivors with the *bit-identical* numerical answer),
//! and with the same crash under [`RecoveryPolicy::FailFast`] (the run
//! must return a typed error naming the failed rank in bounded simulated
//! time). The chaos harness draws whole fault schedules — crash instant,
//! victim rank, optional slowdown and loss burst — from a seeded PRNG and
//! checks the same bit-identity invariant; the same seed reproduces the
//! same schedule, failures, and recovery trace.

use crate::report::Json;
use crate::target::{replan_policy, Checked, Target, BACKOFF_MS, MAX_REPLANS};
use netpart::{CheckpointPolicy, Fault, FaultSchedule, RecoveryPolicy};
use netpart_apps::StencilVariant;
use netpart_calibrate::{CalibratedCostModel, Testbed};
use netpart_model::NetpartError;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// One row of the faults table: an application under a scheduled mid-run
/// crash, compared against its own fault-free run.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Application label (`STEN-1`, `STEN-2`, `GAUSS`).
    pub app: &'static str,
    /// Problem size (grid edge for stencils, matrix order for Gauss).
    pub n: u64,
    /// Ranks in the fault-free plan.
    pub ranks: usize,
    /// Fault-free simulated elapsed ms.
    pub fault_free_ms: f64,
    /// Rank whose node fail-stops.
    pub crashed_rank: usize,
    /// Crash instant, simulated ms.
    pub crash_at_ms: f64,
    /// The crash under [`RecoveryPolicy::Replan`]: elapsed time with
    /// detection and replan included, the recovery accounting (its drift
    /// counters stay 0 — `Replan` never arms the drift monitor), and the
    /// verdict against the sequential reference.
    pub recovered: Checked,
    /// The typed error the same crash produces under
    /// [`RecoveryPolicy::FailFast`] (rendered), proving bounded detection.
    pub fail_fast: String,
}

/// One chaos-harness case: a randomly drawn fault schedule over one
/// application, with the recovery outcome.
#[derive(Debug, Clone)]
pub struct ChaosCase {
    /// Application label.
    pub app: &'static str,
    /// Seed the schedule was drawn from.
    pub seed: u64,
    /// The drawn schedule (deterministic per seed).
    pub faults: FaultSchedule,
    /// Fault-free simulated elapsed ms.
    pub fault_free_ms: f64,
    /// The schedule under [`RecoveryPolicy::Replan`].
    pub recovered: Checked,
}

/// Run one fault case on `t`, checkpointing every `every` cycles: a crash
/// of `crashed_rank` at `crash_frac` of the fault-free run, under `Replan`
/// and under `FailFast`.
fn fault_row(t: &Target, every: u64, crash_frac: f64, crashed_rank: usize) -> FaultRow {
    let crashed_rank = crashed_rank.min(t.ranks() - 1);
    let crash_at_ms = t.fault_free_ms() * crash_frac;
    let faults = FaultSchedule::new().with(Fault::RankCrash {
        at_ms: crash_at_ms,
        rank: crashed_rank,
    });
    let ckpt = CheckpointPolicy::local(every);
    let fail_fast = t.run(&faults, RecoveryPolicy::FailFast, ckpt);
    FaultRow {
        app: t.label(),
        n: t.n(),
        ranks: t.ranks(),
        fault_free_ms: t.fault_free_ms(),
        crashed_rank,
        crash_at_ms,
        recovered: t.run(&faults, replan_policy(), ckpt),
        fail_fast: match fail_fast.run {
            Some(_) => "completed (crash missed the run)".to_string(),
            None => fail_fast.verdict.label_and_detail().1,
        },
    }
}

/// The applications both halves of the harness run, each with its
/// checkpoint interval: STEN-1 and STEN-2 on an `n × n` grid, GAUSS of
/// order `gauss_n`, all on the paper testbed.
fn targets(
    model: &CalibratedCostModel,
    n: usize,
    iters: u64,
    gauss_n: usize,
) -> Result<[(Target, u64); 3], NetpartError> {
    let paper = Testbed::paper;
    Ok([
        (
            Target::sten(paper(), model, n, iters, StencilVariant::Sten1)?,
            2,
        ),
        (
            Target::sten(paper(), model, n, iters, StencilVariant::Sten2)?,
            2,
        ),
        (Target::gauss(paper(), model, gauss_n)?, 4),
    ])
}

/// The faults table: STEN-1, STEN-2, and Gaussian elimination, each with a
/// mid-run crash of one rank.
pub fn faults_table(model: &CalibratedCostModel) -> Result<Vec<FaultRow>, NetpartError> {
    let crashes = [(0.4, 0), (0.4, 1), (0.35, 0)];
    let rows = targets(model, 120, 10, 48)?.into_iter().zip(crashes);
    Ok(rows
        .map(|((t, every), (frac, rank))| fault_row(&t, every, frac, rank))
        .collect())
}

/// Render the faults table for the terminal / `BENCH_faults.json` notes.
pub fn render_faults(rows: &[FaultRow]) -> String {
    let mut out = String::new();
    out.push_str("Fault injection — mid-run fail-stop crash, Replan recovery vs FailFast:\n\n");
    out.push_str(&format!(
        "{:<8} {:>5} {:>5} {:>12} {:>6} {:>10} {:>12} {:>7} {:>9} {:>12} {:>8} {:>5} {:>6}\n",
        "app",
        "n",
        "ranks",
        "T_ff (ms)",
        "crash",
        "at (ms)",
        "T_rec (ms)",
        "replan",
        "cyc lost",
        "ovh (ms)",
        "bit-id",
        "drift",
        "repart"
    ));
    for r in rows {
        let rec = r.recovered.rec();
        out.push_str(&format!(
            "{:<8} {:>5} {:>5} {:>12.3} {:>6} {:>10.3} {:>12.3} {:>7} {:>9} {:>12.3} {:>8} {:>5} {:>6}\n",
            r.app,
            r.n,
            r.ranks,
            r.fault_free_ms,
            format!("r{}", r.crashed_rank),
            r.crash_at_ms,
            r.recovered.elapsed_ms(),
            rec.replans,
            rec.cycles_lost,
            rec.overhead_ms,
            r.recovered.verdict.yes_no(),
            rec.drift_detections,
            rec.repartitions
        ));
    }
    out.push_str("\nFailFast on the same crash (typed error, bounded detection):\n");
    for r in rows {
        out.push_str(&format!("  {:<8} -> {}\n", r.app, r.fail_fast));
    }
    out
}

/// Draw a fault schedule for one app from a seeded PRNG: one mid-run
/// crash, plus (each with probability ½) a slowdown of another rank and a
/// loss burst on one cluster segment. Deterministic per `(seed, ranks,
/// fault_free_ms)`.
fn draw_schedule(rng: &mut SmallRng, ranks: usize, fault_free_ms: f64) -> FaultSchedule {
    let mut faults = FaultSchedule::new();
    let crash_rank = (rng.random::<u64>() % ranks as u64) as usize;
    let crash_at = fault_free_ms * (0.2 + 0.5 * rng.random::<f64>());
    faults = faults.with(Fault::RankCrash {
        at_ms: crash_at,
        rank: crash_rank,
    });
    if rng.random::<bool>() {
        let victim = (rng.random::<u64>() % ranks as u64) as usize;
        faults = faults.with(Fault::RankSlowdown {
            at_ms: fault_free_ms * 0.1 * rng.random::<f64>(),
            rank: victim,
            factor: 1.5 + 2.0 * rng.random::<f64>(),
        });
    }
    if rng.random::<bool>() {
        let from = fault_free_ms * 0.1 * rng.random::<f64>();
        faults = faults.with(Fault::LossBurst {
            cluster: (rng.random::<u64>() % 2) as usize,
            from_ms: from,
            until_ms: from + fault_free_ms * 0.2,
            loss: 0.2 + 0.25 * rng.random::<f64>(),
        });
    }
    faults
}

/// Run the chaos harness for one seed: random fault schedules over
/// STEN-1, STEN-2, and Gauss, each required to recover the bit-identical
/// sequential answer under [`RecoveryPolicy::Replan`].
pub fn chaos_run(seed: u64, model: &CalibratedCostModel) -> Result<Vec<ChaosCase>, NetpartError> {
    let cases = targets(model, 60, 8, 32)?.into_iter().enumerate();
    Ok(cases
        .map(|(idx, (t, every))| {
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(idx as u64 * 0x9E37_79B9));
            let faults = draw_schedule(&mut rng, t.ranks(), t.fault_free_ms());
            ChaosCase {
                app: t.label(),
                seed,
                recovered: t.run(&faults, replan_policy(), CheckpointPolicy::local(every)),
                faults,
                fault_free_ms: t.fault_free_ms(),
            }
        })
        .collect())
}

/// Render chaos-harness outcomes.
pub fn render_chaos(cases: &[ChaosCase]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:>6} {:>7} {:>7} {:>12} {:>12} {:>8}\n",
        "app", "seed", "faults", "replan", "T_ff (ms)", "T_rec (ms)", "bit-id"
    ));
    for c in cases {
        out.push_str(&format!(
            "{:<8} {:>6} {:>7} {:>7} {:>12.3} {:>12.3} {:>8}\n",
            c.app,
            c.seed,
            c.faults.faults.len(),
            c.recovered.rec().replans,
            c.fault_free_ms,
            c.recovered.elapsed_ms(),
            c.recovered.verdict.yes_no()
        ));
    }
    out
}

/// Every break of the harness's invariant, one line each: a crash row or
/// a chaos case whose recovered answer is not bit-identical to the
/// sequential reference. Empty on a passing run.
pub fn faults_violations(rows: &[FaultRow], chaos: &[ChaosCase]) -> Vec<String> {
    let rows = rows
        .iter()
        .filter(|r| !r.recovered.verdict.is_identical())
        .map(|r| format!("{} n={}: recovered answer is not bit-identical", r.app, r.n));
    let chaos = chaos.iter().filter(|c| !c.recovered.verdict.is_identical());
    let chaos = chaos.map(|c| {
        format!(
            "chaos {} seed {}: recovered answer is not bit-identical",
            c.app, c.seed
        )
    });
    rows.chain(chaos).collect()
}

/// The faults table and chaos outcomes as `BENCH_faults.json`.
pub fn faults_json(rows: &[FaultRow], chaos: &[ChaosCase]) -> String {
    Json::obj([
        (
            "description",
            "Fault-injection experiments: recovery overhead of checkpointed \
             repartition-and-resume vs fault-free runs, and the seeded chaos harness. All \
             times are simulated milliseconds on the paper testbed; bit_identical compares \
             the recovered answer against the sequential reference bit for bit."
                .into(),
        ),
        (
            "policy",
            Json::obj([
                ("max_replans", MAX_REPLANS.into()),
                ("backoff_ms", Json::fixed(BACKOFF_MS, 1)),
            ]),
        ),
        (
            "crash_recovery",
            Json::arr(rows, |r| {
                let rec = r.recovered.rec();
                Json::obj([
                    ("app", r.app.into()),
                    ("n", r.n.into()),
                    ("ranks", r.ranks.into()),
                    ("fault_free_ms", Json::ms(r.fault_free_ms)),
                    ("crashed_rank", r.crashed_rank.into()),
                    ("crash_at_ms", Json::ms(r.crash_at_ms)),
                    ("recovered_ms", Json::ms(r.recovered.elapsed_ms())),
                    ("replans", rec.replans.into()),
                    ("cycles_lost", rec.cycles_lost.into()),
                    ("overhead_ms", Json::ms(rec.overhead_ms)),
                    ("bit_identical", r.recovered.verdict.is_identical().into()),
                    ("drift_detections", rec.drift_detections.into()),
                    ("repartitions", rec.repartitions.into()),
                    ("recalibrations", rec.recalibrations.into()),
                    ("cycles_to_detect", rec.cycles_to_detect.into()),
                    ("drift_gain_ms", Json::ms(rec.drift_gain_ms)),
                    ("fail_fast_error", r.fail_fast.as_str().into()),
                ])
            }),
        ),
        (
            "chaos",
            Json::arr(chaos, |c| {
                Json::obj([
                    ("app", c.app.into()),
                    ("seed", c.seed.into()),
                    ("faults", c.faults.faults.len().into()),
                    ("replans", c.recovered.rec().replans.into()),
                    ("fault_free_ms", Json::ms(c.fault_free_ms)),
                    ("recovered_ms", Json::ms(c.recovered.elapsed_ms())),
                    ("bit_identical", c.recovered.verdict.is_identical().into()),
                ])
            }),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_that_is_not_bit_identical_is_exactly_one_violation() {
        let model = crate::experiments::paper_calibration().expect("calibration");
        let mut rows = faults_table(&model).expect("faults table");
        let chaos = chaos_run(11, &model).expect("chaos run");
        assert_eq!(faults_violations(&rows, &chaos), Vec::<String>::new());
        rows[1].recovered.verdict = crate::Verdict::Violation("planted".into());
        let violations = faults_violations(&rows, &chaos);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with("STEN-2 n=120"), "{violations:?}");
    }
}
