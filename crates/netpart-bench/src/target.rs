//! One checked run: the procedure every recovery harness shares.
//!
//! A [`Target`] is one application planned on one testbed, holding its
//! sequential reference and its fault-free run. [`Target::run`] executes it
//! under a fault schedule and a recovery policy and holds the outcome to
//! the standing invariant — **bit-identical answer or a typed error** — as
//! one [`Verdict`]. The harnesses (`faults`, `drift`, `congestion`,
//! `chaos_fuzz`, `chaos_fabric`) choose the schedule, the policy and the
//! columns; planning, the baseline, the recoverable run and the comparison
//! happen here and nowhere else.

use netpart::{
    AppStart, CheckpointPolicy, CostSource, FaultSchedule, RecoveryPolicy, RecoveryStats, Run,
    Scenario,
};
use netpart_apps::{
    gauss_model, make_system, sequential_reference, sequential_solve, stencil_model, GaussApp,
    StencilApp, StencilVariant,
};
use netpart_calibrate::{CalibratedCostModel, Testbed};
use netpart_model::NetpartError;
use netpart_spmd::SpmdApp;

/// Replan budget of every `Replan` run in the harnesses: generous enough
/// that a scheduled crash (plus any collateral suspicion from a loss burst)
/// never exhausts it, small enough that a hopeless schedule errors out
/// quickly.
pub(crate) const MAX_REPLANS: u32 = 4;
/// Simulated pause before the failure-aware availability re-probe, ms.
pub(crate) const BACKOFF_MS: f64 = 5.0;

/// The one `Replan` policy the harnesses run.
pub(crate) fn replan_policy() -> RecoveryPolicy {
    RecoveryPolicy::Replan {
        max_replans: MAX_REPLANS,
        backoff_ms: BACKOFF_MS,
    }
}

/// How one run ended, against the invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Completed with the bit-identical sequential answer.
    Identical,
    /// Ended in a typed recovery error — the invariant's second legal
    /// outcome.
    Typed(NetpartError),
    /// Broke the invariant: a completed run with a wrong answer, or a
    /// plumbing-class error no valid schedule may produce.
    Violation(String),
}

impl Verdict {
    /// Whether the run completed with the bit-identical answer.
    pub fn is_identical(&self) -> bool {
        matches!(self, Verdict::Identical)
    }

    /// Whether this outcome breaks the invariant.
    pub fn is_violation(&self) -> bool {
        matches!(self, Verdict::Violation(_))
    }

    /// The tables' `bit-id` cell.
    pub(crate) fn yes_no(&self) -> &'static str {
        if self.is_identical() {
            "yes"
        } else {
            "NO"
        }
    }

    /// The artefacts' `"verdict"` label and `"detail"` text.
    pub(crate) fn label_and_detail(&self) -> (&'static str, String) {
        match self {
            Verdict::Identical => ("ok-identical", String::new()),
            Verdict::Typed(e) => ("typed-error", e.to_string()),
            Verdict::Violation(v) => ("VIOLATION", v.clone()),
        }
    }
}

/// One run of a [`Target`], checked: the [`Run`] when it completed and
/// the [`Verdict`] either way.
#[derive(Debug, Clone)]
pub struct Checked {
    /// The completed run; `None` when it ended in an error.
    pub run: Option<Run>,
    /// The outcome against the invariant.
    pub verdict: Verdict,
}

impl Checked {
    /// Simulated elapsed ms (0 when the run errored).
    pub fn elapsed_ms(&self) -> f64 {
        self.run.as_ref().map_or(0.0, |r| r.elapsed_ms)
    }

    /// The run's recovery accounting (zeroed when it errored or came from
    /// a plain fault-free `Plan::run`).
    pub fn rec(&self) -> RecoveryStats {
        let rec = self.run.as_ref().and_then(|r| r.recovery.clone());
        rec.unwrap_or_default()
    }
}

enum Workload {
    Sten { iters: u64, variant: StencilVariant },
    Gauss { a: Vec<f64>, b: Vec<f64> },
}

/// One application under test: a planned scenario, its workload, the
/// sequential reference as bit patterns, and the fault-free run every
/// schedule is timed against.
pub struct Target {
    label: &'static str,
    n: usize,
    scenario: Scenario,
    workload: Workload,
    reference: Vec<u64>,
    fault_free: Checked,
    ranks: usize,
}

/// An application whose computed answer reads back as bit patterns.
trait Answer: SpmdApp {
    fn bits(&self) -> Vec<u64>;
}

impl Answer for StencilApp {
    fn bits(&self) -> Vec<u64> {
        bits_f32(&self.gather())
    }
}

impl Answer for GaussApp {
    fn bits(&self) -> Vec<u64> {
        bits_f64(&self.solve())
    }
}

fn bits_f32(xs: &[f32]) -> Vec<u64> {
    xs.iter().map(|x| u64::from(x.to_bits())).collect()
}

fn bits_f64(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The stencil app factory handed to `run_recoverable_with`: fresh on the
/// first segment, resumed afterwards.
fn stencil_factory(
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
fn gauss_factory<'a>(
    n: usize,
    a: &'a [f64],
    b: &'a [f64],
) -> impl FnMut(usize, AppStart<'_>) -> Result<GaussApp, NetpartError> + 'a {
    move |ranks, start| {
        Ok(match start {
            AppStart::Fresh => GaussApp::new(n, a.to_vec(), b.to_vec(), ranks),
            AppStart::Resume(c) => GaussApp::resume(c, n, ranks),
        })
    }
}

/// Recovery inputs of one run; `None` is the plain fault-free
/// `plan()` + `Plan::run`.
type Recovery<'a> = Option<(&'a FaultSchedule, RecoveryPolicy, CheckpointPolicy)>;

/// Run `s` with apps from `factory` and read the answer back.
fn answer<A: Answer>(
    s: &Scenario,
    recovery: Recovery<'_>,
    mut factory: impl FnMut(usize, AppStart<'_>) -> Result<A, NetpartError>,
) -> Result<(Run, Vec<u64>), NetpartError> {
    let (run, app) = match recovery {
        Some((faults, policy, ckpt)) => s.run_recoverable_with(faults, policy, ckpt, factory)?,
        None => {
            let plan = s.plan()?;
            let mut app = factory(plan.ranks(), AppStart::Fresh)?;
            (plan.run(&mut app)?, app)
        }
    };
    Ok((run, app.bits()))
}

impl Workload {
    /// The one place that matches on the application: pick its factory.
    fn answer(
        &self,
        n: usize,
        s: &Scenario,
        r: Recovery<'_>,
    ) -> Result<(Run, Vec<u64>), NetpartError> {
        match self {
            Workload::Sten { iters, variant } => answer(s, r, stencil_factory(n, *iters, *variant)),
            Workload::Gauss { a, b } => answer(s, r, gauss_factory(n, a, b)),
        }
    }
}

/// Compare a completed run's answer with the reference.
fn compare(run: Run, got: &[u64], reference: &[u64]) -> Checked {
    let verdict = if got == reference {
        Verdict::Identical
    } else {
        Verdict::Violation(format!(
            "completed after {} replan(s) with an answer that is NOT bit-identical to the \
             sequential reference",
            run.recovery.as_ref().map_or(0, |r| r.replans)
        ))
    };
    Checked {
        run: Some(run),
        verdict,
    }
}

impl Target {
    /// A stencil of `n × n` points for `iters` iterations on `testbed`,
    /// planned under the fixed (already fitted) cost `model`.
    pub fn sten(
        testbed: Testbed,
        model: &CalibratedCostModel,
        n: usize,
        iters: u64,
        variant: StencilVariant,
    ) -> Result<Target, NetpartError> {
        let label = match variant {
            StencilVariant::Sten1 => "STEN-1",
            StencilVariant::Sten2 => "STEN-2",
        };
        Target::new(
            label,
            n,
            Scenario::new(testbed, stencil_model(n as u64, variant)),
            model,
            Workload::Sten { iters, variant },
            bits_f32(&sequential_reference(n, iters)),
        )
    }

    /// Gaussian elimination of an order-`n` system with partial pivoting;
    /// the reference is [`sequential_solve`], which applies the identical
    /// pivoting rule, so a recovered solution must match it bit for bit.
    pub fn gauss(
        testbed: Testbed,
        model: &CalibratedCostModel,
        n: usize,
    ) -> Result<Target, NetpartError> {
        let (a, b, _x_true) = make_system(n, 1994);
        let reference = bits_f64(&sequential_solve(n, &a, &b));
        Target::new(
            "GAUSS",
            n,
            Scenario::new(testbed, gauss_model(n as u64)),
            model,
            Workload::Gauss { a, b },
            reference,
        )
    }

    fn new(
        label: &'static str,
        n: usize,
        scenario: Scenario,
        model: &CalibratedCostModel,
        workload: Workload,
        reference: Vec<u64>,
    ) -> Result<Target, NetpartError> {
        let scenario = scenario.with_cost(CostSource::Fixed(model.clone()));
        let (run, got) = workload.answer(n, &scenario, None)?;
        Ok(Target {
            label,
            n,
            ranks: run.report.rank_finish.len(),
            fault_free: compare(run, &got, &reference),
            scenario,
            workload,
            reference,
        })
    }

    /// Application label (`STEN-1`, `STEN-2`, `GAUSS`).
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Problem size: grid edge for stencils, matrix order for GAUSS.
    pub fn n(&self) -> u64 {
        self.n as u64
    }

    /// The scenario the target plans and runs.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The fault-free run, checked against the reference like any other.
    pub fn fault_free(&self) -> &Checked {
        &self.fault_free
    }

    /// Fault-free simulated elapsed ms.
    pub fn fault_free_ms(&self) -> f64 {
        self.fault_free.elapsed_ms()
    }

    /// Ranks in the fault-free plan.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The planned rank→cluster assignment, for span diagnostics (does the
    /// placement cross pods?).
    pub fn rank_clusters(&self) -> Result<Vec<u32>, NetpartError> {
        let plan = self.scenario.plan()?;
        let part = plan.partition.ok_or_else(|| {
            NetpartError::InvalidScenario("plan() produced no partition output".into())
        })?;
        Ok(part.rank_clusters())
    }

    /// Run under `faults` with `policy` and `ckpt` and check the outcome
    /// against the invariant.
    pub fn run(
        &self,
        faults: &FaultSchedule,
        policy: RecoveryPolicy,
        ckpt: CheckpointPolicy,
    ) -> Checked {
        self.run_sabotaged(faults, policy, ckpt, false)
    }

    /// [`Target::run`] with an optional planted recovery-path bug: under
    /// `sabotage`, whenever the run actually recovered (at least one
    /// replan), the answer's first element has one bit flipped before the
    /// comparison — the signature of a recovery that silently dropped or
    /// mangled state. It exists so the fuzzer's own detection and
    /// shrinking paths are testable: a tool that has never caught a planted
    /// bug cannot be trusted to catch a real one.
    pub fn run_sabotaged(
        &self,
        faults: &FaultSchedule,
        policy: RecoveryPolicy,
        ckpt: CheckpointPolicy,
        sabotage: bool,
    ) -> Checked {
        let recovery = Some((faults, policy, ckpt));
        match self.workload.answer(self.n, &self.scenario, recovery) {
            Ok((run, mut got)) => {
                if sabotage && run.recovery.as_ref().is_some_and(|r| r.replans > 0) {
                    got[0] ^= 1;
                }
                compare(run, &got, &self.reference)
            }
            // Recovery-family errors are the invariant's second legal
            // outcome. Plumbing-class errors mean the harness itself broke:
            // a valid schedule must never be rejected at install, mismatch
            // ranks, or invalidate the scenario.
            Err(e) => Checked {
                run: None,
                verdict: match e {
                    NetpartError::InvalidFaultPlan(_)
                    | NetpartError::RankMismatch { .. }
                    | NetpartError::InvalidScenario(_)
                    | NetpartError::Calibration(_)
                    | NetpartError::MissingFit { .. } => {
                        Verdict::Violation(format!("plumbing-class error: {e}"))
                    }
                    other => Verdict::Typed(other),
                },
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart::Fault;

    fn sten() -> Target {
        let model = crate::experiments::paper_calibration().expect("calibration");
        Target::sten(Testbed::paper(), &model, 60, 8, StencilVariant::Sten1).expect("target")
    }

    fn crash(t: &Target) -> FaultSchedule {
        FaultSchedule::new().with(Fault::RankCrash {
            at_ms: t.fault_free_ms() * 0.4,
            rank: 0,
        })
    }

    #[test]
    fn empty_schedule_is_identical_and_equals_the_stored_fault_free_run() {
        let t = sten();
        assert_eq!(t.fault_free().verdict, Verdict::Identical);
        assert_eq!(t.ranks(), t.scenario().plan().expect("plan").ranks());
        let c = t.run(
            &FaultSchedule::new(),
            replan_policy(),
            CheckpointPolicy::local(2),
        );
        assert_eq!(c.verdict, Verdict::Identical);
        let (run, stored) = (c.run.expect("completed"), t.fault_free().run.as_ref());
        let stored = stored.expect("fault-free run");
        assert_eq!(run.elapsed_ms.to_bits(), stored.elapsed_ms.to_bits());
        assert_eq!(run.phases, stored.phases);
        assert_eq!(c.verdict, t.fault_free().verdict);
    }

    /// The property `planted_recovery_bug_is_caught_and_shrunk_to_a_minimal_schedule`
    /// relies on: the planted bug fires iff the run replanned.
    #[test]
    fn sabotage_flips_a_recovered_answer_and_leaves_an_unrecovered_one_alone() {
        let t = sten();
        let ckpt = CheckpointPolicy::local(2);
        let recovered = t.run(&crash(&t), replan_policy(), ckpt);
        assert_eq!(recovered.verdict, Verdict::Identical);
        assert!(recovered.rec().replans >= 1, "the crash must bite");
        let planted = t.run_sabotaged(&crash(&t), replan_policy(), ckpt, true);
        assert!(planted.verdict.is_violation(), "{:?}", planted.verdict);
        assert_eq!(planted.rec(), recovered.rec());

        let quiet = t.run_sabotaged(&FaultSchedule::new(), replan_policy(), ckpt, true);
        assert_eq!(quiet.rec().replans, 0);
        assert_eq!(quiet.verdict, Verdict::Identical);
    }

    #[test]
    fn plumbing_errors_are_violations_and_recovery_errors_are_typed() {
        let t = sten();
        let ckpt = CheckpointPolicy::local(2);
        let nowhere = FaultSchedule::new().with_raw(
            netpart_sim::FaultPlan::new()
                .crash(netpart_sim::SimTime::ZERO, netpart_sim::NodeId(10_000)),
        );
        let c = t.run(&nowhere, replan_policy(), ckpt);
        assert!(c.run.is_none());
        match &c.verdict {
            Verdict::Violation(v) => assert!(v.starts_with("plumbing-class error:"), "{v}"),
            other => panic!("InvalidFaultPlan must be a violation, got {other:?}"),
        }

        let c = t.run(&crash(&t), RecoveryPolicy::FailFast, ckpt);
        assert!(
            matches!(c.verdict, Verdict::Typed(NetpartError::RankFailed { .. })),
            "{:?}",
            c.verdict
        );
        assert_eq!((c.elapsed_ms(), c.rec()), (0.0, RecoveryStats::default()));
    }
}
