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
use netpart::{AppStart, CostSource, Fault, FaultSchedule, RecoveryPolicy, Run, Scenario};
use netpart_apps::{
    gauss_model, make_system, sequential_reference, sequential_solve, stencil_model, GaussApp,
    StencilApp, StencilVariant,
};
use netpart_calibrate::{CalibratedCostModel, Testbed};
use netpart_model::NetpartError;
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Replan budget used by the table and the chaos harness: generous enough
/// that a single scheduled crash (plus any collateral suspicion from a
/// loss burst) never exhausts it.
const MAX_REPLANS: u32 = 4;
/// Simulated pause before the failure-aware availability re-probe, ms.
const BACKOFF_MS: f64 = 5.0;

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
    /// Recovered run's simulated elapsed ms (detection + replan included).
    pub recovered_ms: f64,
    /// Replan-and-resume rounds the recovery took.
    pub replans: u32,
    /// Rank-independent cycles of progress discarded at recovery.
    pub cycles_lost: u64,
    /// Simulated ms attributed to recovery itself.
    pub overhead_ms: f64,
    /// Whether the recovered answer is bit-identical to the sequential
    /// reference.
    pub bit_identical: bool,
    /// Drift confirmations during recovery — always 0 under `Replan`,
    /// which never arms the drift monitor.
    pub drift_detections: u32,
    /// Drift-triggered repartitions — likewise always 0 under `Replan`.
    pub repartitions: u32,
    /// Online recalibrations (one per confirmation) — 0 under `Replan`.
    pub recalibrations: u32,
    /// Detection latency summed over confirmations — 0 under `Replan`.
    pub cycles_to_detect: u64,
    /// Projected net gain of accepted repartitions — 0 under `Replan`.
    pub drift_gain_ms: f64,
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
    /// Replan rounds the run needed.
    pub replans: u32,
    /// Fault-free simulated elapsed ms.
    pub fault_free_ms: f64,
    /// Recovered simulated elapsed ms.
    pub recovered_ms: f64,
    /// Whether the recovered answer is bit-identical to the sequential
    /// reference.
    pub bit_identical: bool,
}

fn replan_policy() -> RecoveryPolicy {
    RecoveryPolicy::Replan {
        max_replans: MAX_REPLANS,
        backoff_ms: BACKOFF_MS,
    }
}

pub(crate) fn bits_eq_f32(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub(crate) fn bits_eq_f64(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The scenario every stencil experiment starts from: the paper testbed,
/// the given stencil model, and the supplied (already fitted) cost model.
pub(crate) fn stencil_scenario(
    n: u64,
    variant: StencilVariant,
    model: &CalibratedCostModel,
) -> Scenario {
    Scenario::new(Testbed::paper(), stencil_model(n, variant))
        .with_cost(CostSource::Fixed(model.clone()))
}

/// The stencil app factory every recovery harness hands to
/// `run_recoverable`: fresh on the first segment, resumed afterwards.
pub(crate) fn stencil_factory(
    n: usize,
    iters: u64,
    variant: StencilVariant,
) -> impl FnMut(usize, AppStart<'_>) -> Result<StencilApp, NetpartError> {
    move |ranks, start| {
        Ok(match start {
            AppStart::Fresh => StencilApp::new(n, iters, variant, ranks),
            AppStart::Resume(c) => StencilApp::resume(c, n, iters, variant, ranks),
        })
    }
}

/// The GAUSS counterpart of [`stencil_factory`].
pub(crate) fn gauss_factory(
    n: usize,
    a: &[f64],
    b: &[f64],
) -> impl FnMut(usize, AppStart<'_>) -> Result<GaussApp, NetpartError> {
    let (a, b) = (a.to_vec(), b.to_vec());
    move |ranks, start| {
        Ok(match start {
            AppStart::Fresh => GaussApp::new(n, a.clone(), b.clone(), ranks),
            AppStart::Resume(c) => GaussApp::resume(c, n, ranks),
        })
    }
}

pub(crate) fn variant_label(variant: StencilVariant) -> &'static str {
    match variant {
        StencilVariant::Sten1 => "STEN-1",
        StencilVariant::Sten2 => "STEN-2",
    }
}

/// Run one stencil fault case: fault-free baseline, crash under `Replan`,
/// crash under `FailFast`.
fn stencil_fault_row(
    model: &CalibratedCostModel,
    n: usize,
    iters: u64,
    variant: StencilVariant,
    crash_frac: f64,
    crashed_rank: usize,
) -> Result<FaultRow, NetpartError> {
    let s = stencil_scenario(n as u64, variant, model);
    let plan = s.plan()?;
    let ranks = plan.ranks();
    let mut app = StencilApp::new(n, iters, variant, ranks);
    let fault_free = plan.run(&mut app)?;

    let crashed_rank = crashed_rank.min(ranks - 1);
    let crash_at_ms = fault_free.elapsed_ms * crash_frac;
    let faults = FaultSchedule::new().with(Fault::RankCrash {
        at_ms: crash_at_ms,
        rank: crashed_rank,
    });

    let (run, rapp) = s.run_recoverable(
        &faults,
        replan_policy(),
        2,
        stencil_factory(n, iters, variant),
    )?;
    let reference = sequential_reference(n, iters);
    let bit_identical = bits_eq_f32(&rapp.gather(), &reference);

    let fail_fast = match s.run_recoverable(
        &faults,
        RecoveryPolicy::FailFast,
        2,
        stencil_factory(n, iters, variant),
    ) {
        Ok(_) => "completed (crash missed the run)".to_string(),
        Err(e) => e.to_string(),
    };

    Ok(fault_row(
        variant_label(variant),
        n as u64,
        ranks,
        &fault_free,
        crashed_rank,
        crash_at_ms,
        &run,
        bit_identical,
        fail_fast,
    ))
}

/// Run the Gauss fault case; the reference is [`sequential_solve`], which
/// applies the identical pivoting rule, so the recovered solution must
/// match it bit for bit.
fn gauss_fault_row(
    model: &CalibratedCostModel,
    n: usize,
    crash_frac: f64,
    crashed_rank: usize,
) -> Result<FaultRow, NetpartError> {
    let s = Scenario::new(Testbed::paper(), gauss_model(n as u64))
        .with_cost(CostSource::Fixed(model.clone()));
    let plan = s.plan()?;
    let ranks = plan.ranks();
    let (a, b, _x_true) = make_system(n, 1994);
    let mut app = GaussApp::new(n, a.clone(), b.clone(), ranks);
    let fault_free = plan.run(&mut app)?;

    let crashed_rank = crashed_rank.min(ranks - 1);
    let crash_at_ms = fault_free.elapsed_ms * crash_frac;
    let faults = FaultSchedule::new().with(Fault::RankCrash {
        at_ms: crash_at_ms,
        rank: crashed_rank,
    });

    let factory = gauss_factory(n, &a, &b);
    let (run, rapp) = s.run_recoverable(&faults, replan_policy(), 4, factory)?;
    let reference = sequential_solve(n, &a, &b);
    let bit_identical = bits_eq_f64(&rapp.solve(), &reference);

    let fail_fast = match s.run_recoverable(
        &faults,
        RecoveryPolicy::FailFast,
        4,
        gauss_factory(n, &a, &b),
    ) {
        Ok(_) => "completed (crash missed the run)".to_string(),
        Err(e) => e.to_string(),
    };

    Ok(fault_row(
        "GAUSS",
        n as u64,
        ranks,
        &fault_free,
        crashed_rank,
        crash_at_ms,
        &run,
        bit_identical,
        fail_fast,
    ))
}

#[allow(clippy::too_many_arguments)]
fn fault_row(
    app: &'static str,
    n: u64,
    ranks: usize,
    fault_free: &Run,
    crashed_rank: usize,
    crash_at_ms: f64,
    run: &Run,
    bit_identical: bool,
    fail_fast: String,
) -> FaultRow {
    let rec = run.recovery.clone().unwrap_or_default();
    FaultRow {
        app,
        n,
        ranks,
        fault_free_ms: fault_free.elapsed_ms,
        crashed_rank,
        crash_at_ms,
        recovered_ms: run.elapsed_ms,
        replans: rec.replans,
        cycles_lost: rec.cycles_lost,
        overhead_ms: rec.overhead_ms,
        bit_identical,
        drift_detections: rec.drift_detections,
        repartitions: rec.repartitions,
        recalibrations: rec.recalibrations,
        cycles_to_detect: rec.cycles_to_detect,
        drift_gain_ms: rec.drift_gain_ms,
        fail_fast,
    }
}

/// The faults table: STEN-1, STEN-2, and Gaussian elimination, each with a
/// mid-run crash of one rank.
pub fn faults_table(model: &CalibratedCostModel) -> Result<Vec<FaultRow>, NetpartError> {
    Ok(vec![
        stencil_fault_row(model, 120, 10, StencilVariant::Sten1, 0.4, 0)?,
        stencil_fault_row(model, 120, 10, StencilVariant::Sten2, 0.4, 1)?,
        gauss_fault_row(model, 48, 0.35, 0)?,
    ])
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
        out.push_str(&format!(
            "{:<8} {:>5} {:>5} {:>12.3} {:>6} {:>10.3} {:>12.3} {:>7} {:>9} {:>12.3} {:>8} {:>5} {:>6}\n",
            r.app,
            r.n,
            r.ranks,
            r.fault_free_ms,
            format!("r{}", r.crashed_rank),
            r.crash_at_ms,
            r.recovered_ms,
            r.replans,
            r.cycles_lost,
            r.overhead_ms,
            if r.bit_identical { "yes" } else { "NO" },
            r.drift_detections,
            r.repartitions
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
    let mut cases = Vec::new();

    for (idx, variant) in [StencilVariant::Sten1, StencilVariant::Sten2]
        .into_iter()
        .enumerate()
    {
        let (n, iters) = (60usize, 8u64);
        let s = stencil_scenario(n as u64, variant, model);
        let plan = s.plan()?;
        let ranks = plan.ranks();
        let mut app = StencilApp::new(n, iters, variant, ranks);
        let fault_free = plan.run(&mut app)?;

        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(idx as u64 * 0x9E37_79B9));
        let faults = draw_schedule(&mut rng, ranks, fault_free.elapsed_ms);
        let (run, rapp) = s.run_recoverable(
            &faults,
            replan_policy(),
            2,
            stencil_factory(n, iters, variant),
        )?;
        cases.push(ChaosCase {
            app: variant_label(variant),
            seed,
            faults,
            replans: run.recovery.as_ref().map_or(0, |r| r.replans),
            fault_free_ms: fault_free.elapsed_ms,
            recovered_ms: run.elapsed_ms,
            bit_identical: bits_eq_f32(&rapp.gather(), &sequential_reference(n, iters)),
        });
    }

    {
        let n = 32usize;
        let s = Scenario::new(Testbed::paper(), gauss_model(n as u64))
            .with_cost(CostSource::Fixed(model.clone()));
        let plan = s.plan()?;
        let ranks = plan.ranks();
        let (a, b, _x_true) = make_system(n, 1994);
        let mut app = GaussApp::new(n, a.clone(), b.clone(), ranks);
        let fault_free = plan.run(&mut app)?;

        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(2 * 0x9E37_79B9));
        let faults = draw_schedule(&mut rng, ranks, fault_free.elapsed_ms);
        let factory = gauss_factory(n, &a, &b);
        let (run, rapp) = s.run_recoverable(&faults, replan_policy(), 4, factory)?;
        cases.push(ChaosCase {
            app: "GAUSS",
            seed,
            faults,
            replans: run.recovery.as_ref().map_or(0, |r| r.replans),
            fault_free_ms: fault_free.elapsed_ms,
            recovered_ms: run.elapsed_ms,
            bit_identical: bits_eq_f64(&rapp.solve(), &sequential_solve(n, &a, &b)),
        });
    }

    Ok(cases)
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
            c.replans,
            c.fault_free_ms,
            c.recovered_ms,
            if c.bit_identical { "yes" } else { "NO" }
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
        .filter(|r| !r.bit_identical)
        .map(|r| format!("{} n={}: recovered answer is not bit-identical", r.app, r.n));
    let chaos = chaos.iter().filter(|c| !c.bit_identical).map(|c| {
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
                Json::obj([
                    ("app", r.app.into()),
                    ("n", r.n.into()),
                    ("ranks", r.ranks.into()),
                    ("fault_free_ms", Json::ms(r.fault_free_ms)),
                    ("crashed_rank", r.crashed_rank.into()),
                    ("crash_at_ms", Json::ms(r.crash_at_ms)),
                    ("recovered_ms", Json::ms(r.recovered_ms)),
                    ("replans", r.replans.into()),
                    ("cycles_lost", r.cycles_lost.into()),
                    ("overhead_ms", Json::ms(r.overhead_ms)),
                    ("bit_identical", r.bit_identical.into()),
                    ("drift_detections", r.drift_detections.into()),
                    ("repartitions", r.repartitions.into()),
                    ("recalibrations", r.recalibrations.into()),
                    ("cycles_to_detect", r.cycles_to_detect.into()),
                    ("drift_gain_ms", Json::ms(r.drift_gain_ms)),
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
                    ("replans", c.replans.into()),
                    ("fault_free_ms", Json::ms(c.fault_free_ms)),
                    ("recovered_ms", Json::ms(c.recovered_ms)),
                    ("bit_identical", c.bit_identical.into()),
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
        rows[1].bit_identical = false;
        let violations = faults_violations(&rows, &chaos);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with("STEN-2 n=120"), "{violations:?}");
    }
}
