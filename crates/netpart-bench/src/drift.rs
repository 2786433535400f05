//! Gray-failure drift experiments: adaptive repartitioning vs limping.
//!
//! Each row of the drift table runs one stencil three times on the paper
//! testbed: fault-free, with a mid-run gray slowdown (one node's compute
//! stretches, the node never fail-stops) under plain
//! [`RecoveryPolicy::Replan`] — which cannot see a gray failure, so the
//! run limps to completion at the degraded pace — and with the identical
//! slowdown under [`RecoveryPolicy::Adapt`], whose drift monitor detects
//! the degradation, recalibrates online, and repartitions when the
//! cost/benefit gate projects a net gain. The `min_gain = ∞` row proves
//! the other half of the gate: told that no gain is ever large enough,
//! the policy *declines* to move and the run still finishes exactly.
//!
//! The drift chaos harness draws transient-fault schedules — slowdowns
//! that may end mid-run, loss bursts, crash-and-recover — from a seeded
//! PRNG and requires the adaptive run to finish with the bit-identical
//! sequential answer, whatever the monitor decided to do.

use crate::report::Json;
use crate::target::{replan_policy, Checked, Target};
use netpart::{CheckpointPolicy, Fault, FaultSchedule, RecoveryPolicy};
use netpart_apps::StencilVariant;
use netpart_calibrate::{CalibratedCostModel, Testbed};
use netpart_model::NetpartError;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Drift-monitor threshold used by the table and chaos harness: a rank
/// 75% over its predicted phase time counts as degraded.
const DEGRADE_THRESHOLD: f64 = 1.75;
/// Cooldown cycles after a declined repartition.
const COOLDOWN: u64 = 4;

/// One row of the drift table: a stencil under a mid-run gray slowdown,
/// adaptive vs staying put.
#[derive(Debug, Clone)]
pub struct DriftRow {
    /// Application label (`STEN-1`, `STEN-2`).
    pub app: &'static str,
    /// Grid edge.
    pub n: u64,
    /// Iteration count.
    pub iters: u64,
    /// Ranks in the fault-free plan.
    pub ranks: usize,
    /// Fault-free simulated elapsed ms.
    pub fault_free_ms: f64,
    /// Rank whose node turns gray.
    pub degraded_rank: usize,
    /// Compute slowdown factor.
    pub factor: f64,
    /// Degradation onset, simulated ms.
    pub onset_ms: f64,
    /// The gate's `min_gain` (∞ encodes the forced-decline row).
    pub min_gain_ms: f64,
    /// Elapsed ms staying put (same slowdown under plain `Replan`).
    pub stay_ms: f64,
    /// The slowdown under `Adapt`: elapsed time with detection,
    /// recalibration and the gate's decision included, the drift
    /// accounting, and the verdict against the sequential reference.
    pub adaptive: Checked,
}

/// One drift-chaos case: a randomly drawn transient-fault schedule run
/// under [`RecoveryPolicy::Adapt`].
#[derive(Debug, Clone)]
pub struct DriftChaosCase {
    /// Application label.
    pub app: &'static str,
    /// Seed the schedule was drawn from.
    pub seed: u64,
    /// The drawn schedule (deterministic per seed).
    pub faults: FaultSchedule,
    /// Fault-free simulated elapsed ms.
    pub fault_free_ms: f64,
    /// The schedule under `Adapt` (crash-and-recover schedules add
    /// fail-stop replans to the drift accounting).
    pub adaptive: Checked,
}

/// The `Adapt` policy every gray-failure harness runs: shared threshold
/// and cooldown, caller's gate.
fn adapt_policy(min_gain: f64) -> RecoveryPolicy {
    RecoveryPolicy::Adapt {
        degrade_threshold: DEGRADE_THRESHOLD,
        min_gain,
        cooldown: COOLDOWN,
    }
}

/// The `"policy"` object of every artefact whose runs use [`adapt_policy`].
fn adapt_policy_json() -> Json {
    Json::obj([
        ("degrade_threshold", Json::fixed(DEGRADE_THRESHOLD, 2)),
        ("cooldown_cycles", COOLDOWN.into()),
    ])
}

/// Run one drift case: fault-free baseline, the gray slowdown under plain
/// `Replan` (stays put by construction — it never fires on a gray
/// failure), and under `Adapt`.
fn drift_row(
    model: &CalibratedCostModel,
    variant: StencilVariant,
    degraded_rank: usize,
    min_gain: f64,
) -> Result<DriftRow, NetpartError> {
    let (n, iters, onset_frac, factor) = (120, 30, 0.15, 4.0);
    let t = Target::sten(Testbed::paper(), model, n, iters, variant)?;
    let degraded_rank = degraded_rank.min(t.ranks() - 1);
    let onset_ms = t.fault_free_ms() * onset_frac;
    let faults = FaultSchedule::new().with(Fault::RankSlowdown {
        at_ms: onset_ms,
        rank: degraded_rank,
        factor,
    });
    let ckpt = CheckpointPolicy::local(2);
    Ok(DriftRow {
        app: t.label(),
        n: t.n(),
        iters,
        ranks: t.ranks(),
        fault_free_ms: t.fault_free_ms(),
        degraded_rank,
        factor,
        onset_ms,
        min_gain_ms: min_gain,
        stay_ms: t.run(&faults, replan_policy(), ckpt).elapsed_ms(),
        adaptive: t.run(&faults, adapt_policy(min_gain), ckpt),
    })
}

/// The drift table: STEN-1 and STEN-2 with a 4× mid-run gray slowdown
/// under an open gate, plus the STEN-1 case with `min_gain = ∞` proving
/// the gate can deliberately decline.
pub fn drift_table(model: &CalibratedCostModel) -> Result<Vec<DriftRow>, NetpartError> {
    Ok(vec![
        drift_row(model, StencilVariant::Sten1, 0, 0.0)?,
        drift_row(model, StencilVariant::Sten2, 1, 0.0)?,
        drift_row(model, StencilVariant::Sten1, 0, f64::INFINITY)?,
    ])
}

/// Render the drift table for the terminal / `BENCH_drift.json` notes.
pub fn render_drift(rows: &[DriftRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "Gray-failure drift — one node slows mid-run (never fail-stops); adaptive \
         repartition vs limping:\n\n",
    );
    out.push_str(&format!(
        "{:<8} {:>5} {:>5} {:>12} {:>7} {:>9} {:>12} {:>12} {:>4} {:>6} {:>8} {:>7} {:>11} {:>8}\n",
        "app",
        "n",
        "ranks",
        "T_ff (ms)",
        "victim",
        "min_gain",
        "T_stay (ms)",
        "T_adapt(ms)",
        "det",
        "repart",
        "declined",
        "det cyc",
        "gain (ms)",
        "bit-id"
    ));
    for r in rows {
        let rec = r.adaptive.rec();
        out.push_str(&format!(
            "{:<8} {:>5} {:>5} {:>12.3} {:>7} {:>9} {:>12.3} {:>12.3} {:>4} {:>6} {:>8} {:>7} {:>11.3} {:>8}\n",
            r.app,
            r.n,
            r.ranks,
            r.fault_free_ms,
            format!("r{}×{}", r.degraded_rank, r.factor),
            if r.min_gain_ms.is_finite() {
                format!("{:.0}", r.min_gain_ms)
            } else {
                "inf".to_string()
            },
            r.stay_ms,
            r.adaptive.elapsed_ms(),
            rec.drift_detections,
            rec.repartitions,
            rec.repartitions_declined,
            rec.cycles_to_detect,
            rec.drift_gain_ms,
            r.adaptive.verdict.yes_no()
        ));
    }
    out
}

/// Draw a transient-fault schedule: a gray slowdown (ending mid-run with
/// probability ½), plus (each with probability ½) a loss burst and a
/// crash-and-recover of another rank. Deterministic per
/// `(seed, ranks, fault_free_ms)`.
fn draw_drift_schedule(rng: &mut SmallRng, ranks: usize, fault_free_ms: f64) -> FaultSchedule {
    let mut faults = FaultSchedule::new();
    let victim = (rng.random::<u64>() % ranks as u64) as usize;
    let onset = fault_free_ms * (0.1 + 0.2 * rng.random::<f64>());
    faults = faults.with(Fault::RankSlowdown {
        at_ms: onset,
        rank: victim,
        factor: 2.5 + 2.5 * rng.random::<f64>(),
    });
    if rng.random::<bool>() {
        faults = faults.with(Fault::RankSlowdownEnd {
            at_ms: onset + fault_free_ms * (0.3 + 0.4 * rng.random::<f64>()),
            rank: victim,
        });
    }
    if rng.random::<bool>() {
        let from = fault_free_ms * 0.1 * rng.random::<f64>();
        faults = faults.with(Fault::LossBurst {
            cluster: (rng.random::<u64>() % 2) as usize,
            from_ms: from,
            until_ms: from + fault_free_ms * 0.15,
            loss: 0.2 + 0.2 * rng.random::<f64>(),
        });
    }
    if rng.random::<bool>() {
        let crash_rank = (victim + 1 + (rng.random::<u64>() % (ranks as u64 - 1)) as usize) % ranks;
        let crash_at = fault_free_ms * (0.35 + 0.3 * rng.random::<f64>());
        faults = faults.with(Fault::RankCrash {
            at_ms: crash_at,
            rank: crash_rank,
        });
        faults = faults.with(Fault::RankRecover {
            at_ms: crash_at + fault_free_ms * 0.3,
            rank: crash_rank,
        });
    }
    faults
}

/// Run the drift chaos harness for one seed: transient-fault schedules
/// over STEN-1 and STEN-2 under [`RecoveryPolicy::Adapt`], each required
/// to finish with the bit-identical sequential answer.
pub fn drift_chaos_run(
    seed: u64,
    model: &CalibratedCostModel,
) -> Result<Vec<DriftChaosCase>, NetpartError> {
    let variants = [StencilVariant::Sten1, StencilVariant::Sten2];
    let cases = variants.into_iter().enumerate().map(|(idx, variant)| {
        let t = Target::sten(Testbed::paper(), model, 60, 10, variant)?;
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(idx as u64 * 0x6A09_E667));
        let faults = draw_drift_schedule(&mut rng, t.ranks(), t.fault_free_ms());
        Ok(DriftChaosCase {
            app: t.label(),
            seed,
            adaptive: t.run(&faults, adapt_policy(0.0), CheckpointPolicy::local(2)),
            faults,
            fault_free_ms: t.fault_free_ms(),
        })
    });
    cases.collect()
}

/// Render drift-chaos outcomes.
pub fn render_drift_chaos(cases: &[DriftChaosCase]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:>6} {:>7} {:>12} {:>12} {:>4} {:>6} {:>8} {:>7} {:>8}\n",
        "app",
        "seed",
        "faults",
        "T_ff (ms)",
        "T_run (ms)",
        "det",
        "repart",
        "declined",
        "replans",
        "bit-id"
    ));
    for c in cases {
        let rec = c.adaptive.rec();
        out.push_str(&format!(
            "{:<8} {:>6} {:>7} {:>12.3} {:>12.3} {:>4} {:>6} {:>8} {:>7} {:>8}\n",
            c.app,
            c.seed,
            c.faults.faults.len(),
            c.fault_free_ms,
            c.adaptive.elapsed_ms(),
            rec.drift_detections,
            rec.repartitions,
            rec.repartitions_declined,
            rec.replans,
            c.adaptive.verdict.yes_no()
        ));
    }
    out
}

/// Every break of the harness's invariant, one line each: a drift row or
/// a chaos case whose final answer is not bit-identical to the sequential
/// reference. Empty on a passing run.
pub fn drift_violations(rows: &[DriftRow], chaos: &[DriftChaosCase]) -> Vec<String> {
    let rows = rows.iter().filter(|r| !r.adaptive.verdict.is_identical());
    let rows = rows.map(|r| {
        format!(
            "{} n={} min_gain {}: adaptive answer is not bit-identical",
            r.app, r.n, r.min_gain_ms
        )
    });
    let chaos = chaos.iter().filter(|c| !c.adaptive.verdict.is_identical());
    let chaos = chaos.map(|c| {
        format!(
            "chaos {} seed {}: adaptive answer is not bit-identical",
            c.app, c.seed
        )
    });
    rows.chain(chaos).collect()
}

/// The drift table and chaos outcomes as `BENCH_drift.json`.
pub fn drift_json(rows: &[DriftRow], chaos: &[DriftChaosCase]) -> String {
    Json::obj([
        (
            "description",
            "Gray-failure drift experiments: one node slows mid-run without fail-stopping. \
             'stay' runs under plain Replan (blind to gray failures) and limps; 'adaptive' \
             runs under Adapt, which detects drift against the plan's predictions, \
             recalibrates online, and repartitions only when the projected saving beats the \
             migration cost by min_gain. All times are simulated milliseconds on the paper \
             testbed; bit_identical compares the final answer against the sequential \
             reference bit for bit."
                .into(),
        ),
        ("policy", adapt_policy_json()),
        (
            "gray_slowdown",
            Json::arr(rows, |r| {
                let rec = r.adaptive.rec();
                Json::obj([
                    ("app", r.app.into()),
                    ("n", r.n.into()),
                    ("iters", r.iters.into()),
                    ("ranks", r.ranks.into()),
                    ("fault_free_ms", Json::ms(r.fault_free_ms)),
                    ("degraded_rank", r.degraded_rank.into()),
                    ("factor", Json::fixed(r.factor, 1)),
                    ("onset_ms", Json::ms(r.onset_ms)),
                    (
                        "min_gain_ms",
                        if r.min_gain_ms.is_finite() {
                            Json::fixed(r.min_gain_ms, 1)
                        } else {
                            "inf".into()
                        },
                    ),
                    ("stay_ms", Json::ms(r.stay_ms)),
                    ("adaptive_ms", Json::ms(r.adaptive.elapsed_ms())),
                    ("detections", rec.drift_detections.into()),
                    ("recalibrations", rec.recalibrations.into()),
                    ("repartitions", rec.repartitions.into()),
                    ("declined", rec.repartitions_declined.into()),
                    ("cycles_to_detect", rec.cycles_to_detect.into()),
                    ("drift_gain_ms", Json::ms(rec.drift_gain_ms)),
                    ("bit_identical", r.adaptive.verdict.is_identical().into()),
                ])
            }),
        ),
        (
            "chaos",
            Json::arr(chaos, |c| {
                let rec = c.adaptive.rec();
                Json::obj([
                    ("app", c.app.into()),
                    ("seed", c.seed.into()),
                    ("faults", c.faults.faults.len().into()),
                    ("fault_free_ms", Json::ms(c.fault_free_ms)),
                    ("adaptive_ms", Json::ms(c.adaptive.elapsed_ms())),
                    ("detections", rec.drift_detections.into()),
                    ("repartitions", rec.repartitions.into()),
                    ("declined", rec.repartitions_declined.into()),
                    ("replans", rec.replans.into()),
                    ("bit_identical", c.adaptive.verdict.is_identical().into()),
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
    fn a_chaos_case_that_is_not_bit_identical_is_exactly_one_violation() {
        let model = crate::experiments::paper_calibration().expect("calibration");
        let rows = drift_table(&model).expect("drift table");
        let mut chaos = drift_chaos_run(11, &model).expect("drift chaos run");
        assert_eq!(drift_violations(&rows, &chaos), Vec::<String>::new());
        chaos[0].adaptive.verdict = crate::Verdict::Violation("planted".into());
        let violations = drift_violations(&rows, &chaos);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].starts_with("chaos STEN-1 seed 11"),
            "{violations:?}"
        );
    }
}
