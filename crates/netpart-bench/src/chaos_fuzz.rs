//! Seeded chaos fuzzer over the *whole* fault model.
//!
//! The chaos harness in [`crate::faults`] draws schedules from a small,
//! recovery-friendly template (one crash, maybe a slowdown, maybe a loss
//! burst). This module is the adversarial version: schedules come from
//! [`FaultPlan::random`], which spans every fault kind the simulator
//! models — permanent and transient crashes, slowdowns, router outages,
//! loss and payload-corruption bursts, background-load steps — aimed at
//! *any* node of the testbed at *any* instant, not just at planned ranks
//! mid-run.
//!
//! # The invariant
//!
//! For every seeded schedule, a recoverable run must end in exactly one
//! of two ways:
//!
//! 1. **Completion** with an answer *bit-identical* to the sequential
//!    reference — however many replans, replica restores, and generation
//!    fallbacks it took; or
//! 2. a **typed recovery error** ([`RankFailed`](NetpartError::RankFailed),
//!    [`RecoveryStalled`](NetpartError::RecoveryStalled), ...), when the
//!    schedule genuinely exhausts the recovery budget or the survivor
//!    pool.
//!
//! Anything else — a completed run with a wrong answer, or a
//! plumbing-class error such as [`NetpartError::InvalidFaultPlan`] from a
//! generator that promises valid-by-construction schedules — is a
//! **violation**. Violations are shrunk by [`shrink_schedule`], a greedy
//! delta-debugger that removes events one at a time until every remaining
//! event is load-bearing, so a fuzzer hit lands as a minimal repro, not a
//! six-event haystack.
//!
//! Determinism end to end: the same `(seed, bounds)` draws the same
//! schedule, and the simulator replays it identically, so every row of
//! `BENCH_chaos.json` is reproducible from its seed alone.

use crate::faults::{bits_eq_f32, bits_eq_f64, gauss_factory, stencil_factory};
use crate::report::Json;
use netpart::{CheckpointPolicy, CostSource, FaultSchedule, RecoveryPolicy, Scenario};
use netpart_apps::{
    gauss_model, make_system, sequential_reference, sequential_solve, stencil_model, GaussApp,
    StencilApp, StencilVariant,
};
use netpart_calibrate::{CalibratedCostModel, Testbed};
use netpart_model::NetpartError;
use netpart_sim::{FaultBounds, FaultPlan};

/// Replan budget per fuzzed run: generous enough for multi-fault
/// schedules, small enough that a hopeless schedule errors out quickly.
const MAX_REPLANS: u32 = 4;
/// Simulated pause before each failure-aware availability re-probe, ms.
const BACKOFF_MS: f64 = 5.0;
/// Checkpoint interval (cycles) for fuzzed runs. Durability is
/// per-target (see [`ChaosTarget`]'s `ckpt` field): star targets mirror
/// blobs to buddy replicas so that machinery stays under fuzz, fabric
/// targets use local stable storage.
const CKPT_EVERY: u64 = 4;

/// How one fuzzed run ended, against the invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosVerdict {
    /// Completed with the bit-identical sequential answer.
    OkIdentical,
    /// Ended in an acceptable typed recovery error (rendered).
    TypedError(String),
    /// Broke the invariant: wrong answer, or a plumbing-class error no
    /// valid-by-construction schedule may produce.
    Violation(String),
}

impl ChaosVerdict {
    /// Whether this outcome breaks the invariant.
    pub fn is_violation(&self) -> bool {
        matches!(self, ChaosVerdict::Violation(_))
    }

    /// The artefacts' `"verdict"` label and `"detail"` text.
    pub(crate) fn label_and_detail(&self) -> (&'static str, &str) {
        match self {
            ChaosVerdict::OkIdentical => ("ok-identical", ""),
            ChaosVerdict::TypedError(e) => ("typed-error", e),
            ChaosVerdict::Violation(v) => ("VIOLATION", v),
        }
    }
}

/// One fuzzed schedule's outcome.
#[derive(Debug, Clone)]
pub struct ChaosFuzzCase {
    /// Application label (`STEN-1`, `GAUSS`).
    pub app: &'static str,
    /// Seed the schedule was drawn from.
    pub seed: u64,
    /// Events in the drawn schedule.
    pub events: usize,
    /// Replan rounds the run took (0 when the schedule never bit).
    pub replans: u32,
    /// Blobs recovery restored from buddy replicas.
    pub replica_restores: u64,
    /// Checkpoint generations assembly had to skip.
    pub generation_fallbacks: u64,
    /// Simulated elapsed ms of the run (0 when it errored).
    pub recovered_ms: f64,
    /// The verdict against the invariant.
    pub verdict: ChaosVerdict,
}

impl ChaosFuzzCase {
    /// The case as an artefact row: `lead` fields first, then the counters
    /// and the verdict every chaos artefact reports.
    pub(crate) fn json<const N: usize>(&self, lead: [(&'static str, Json); N]) -> Json {
        let (verdict, detail) = self.verdict.label_and_detail();
        let mut fields = Vec::from(lead);
        fields.extend([
            ("seed", self.seed.into()),
            ("events", self.events.into()),
            ("replans", self.replans.into()),
            ("replica_restores", self.replica_restores.into()),
            ("generation_fallbacks", self.generation_fallbacks.into()),
            ("recovered_ms", Json::ms(self.recovered_ms)),
            ("verdict", verdict.into()),
            ("detail", detail.into()),
        ]);
        Json::Obj(fields)
    }
}

/// A shrunk violation: the minimal schedule that still breaks the
/// invariant, every event load-bearing.
#[derive(Debug, Clone)]
pub struct MinimizedRepro {
    /// Application label.
    pub app: &'static str,
    /// Seed of the original schedule.
    pub seed: u64,
    /// Events in the original (unshrunk) schedule.
    pub original_events: usize,
    /// The minimized schedule.
    pub plan: FaultPlan,
    /// The violation the minimized schedule still produces.
    pub violation: String,
}

impl MinimizedRepro {
    /// The terminal rendering of a repro: the violation, then the
    /// surviving events.
    pub(crate) fn render(&self) -> String {
        let mut out = format!(
            "\nVIOLATION {}\n  minimized {} -> {} event(s):\n",
            self.headline(),
            self.original_events,
            self.plan.events.len()
        );
        for ev in &self.plan.events {
            out.push_str(&format!("    {ev:?}\n"));
        }
        out
    }

    /// The violation in one line.
    pub(crate) fn headline(&self) -> String {
        format!("{} seed {}: {}", self.app, self.seed, self.violation)
    }

    /// The repro as an artefact row.
    pub(crate) fn json(&self) -> Json {
        Json::obj([
            ("app", self.app.into()),
            ("seed", self.seed.into()),
            ("original_events", self.original_events.into()),
            ("violation", self.violation.as_str().into()),
            (
                "events",
                Json::arr(&self.plan.events, |ev| format!("{ev:?}").into()),
            ),
        ])
    }
}

/// Everything a `chaos-fuzz` invocation produced.
#[derive(Debug, Clone)]
pub struct ChaosFuzzReport {
    /// One row per `(target, seed)`.
    pub cases: Vec<ChaosFuzzCase>,
    /// Shrunk repros, one per violating case (empty on a clean fuzz).
    pub repros: Vec<MinimizedRepro>,
}

impl ChaosFuzzReport {
    /// One line per schedule that broke the invariant; its shrunk repro
    /// is in the rendering and the artefact.
    pub fn violations(&self) -> Vec<String> {
        self.repros.iter().map(MinimizedRepro::headline).collect()
    }
}

enum TargetKind {
    Sten {
        n: usize,
        iters: u64,
        variant: StencilVariant,
        reference: Vec<f32>,
    },
    Gauss {
        n: usize,
        a: Vec<f64>,
        b: Vec<f64>,
        reference: Vec<f64>,
    },
}

/// One application under fuzz: a planned scenario, its fault-free
/// duration (the horizon faults are drawn inside), and the network
/// dimensions random schedules must respect.
pub struct ChaosTarget {
    label: &'static str,
    scenario: Scenario,
    kind: TargetKind,
    bounds: FaultBounds,
    /// Checkpoint policy fuzzed runs use. Star targets keep
    /// `replicated(CKPT_EVERY)` so the replica machinery stays under
    /// fuzz; fabric targets use Local durability (the paper's
    /// stable-storage model) because mirroring hundred-KB blobs across
    /// 10 Mb shared segments saturates them for longer than the MMPS
    /// retransmission budget — the burst itself would fail healthy
    /// ranks — and a watchdog scaled to the target's cycle time (a
    /// 1024-rank fat-tree cycle outlasts the 10 s default on its own).
    ckpt: CheckpointPolicy,
}

fn testbed_bounds(tb: &Testbed, horizon_ms: f64) -> FaultBounds {
    FaultBounds {
        num_nodes: tb.clusters.iter().map(|c| c.nodes).sum(),
        num_routers: 1,
        num_segments: tb.clusters.len() as u32,
        horizon_ms,
        max_events: 5,
        max_crashes: 2,
        // Empty wiring keeps the classic six-kind draw, so the seeded
        // star-testbed sweep keeps its schedules byte-identically.
        router_ports: Vec::new(),
    }
}

/// Fabric-shaped bounds for a hierarchical testbed: every router, every
/// segment (trunks included), and the per-router port lists enter the
/// draw, so random schedules cover `LinkDown` and `TrafficBurst` on the
/// backbone as well as the classic six node/segment kinds.
pub fn fabric_bounds(tb: &Testbed, horizon_ms: f64) -> FaultBounds {
    let fabric = tb.fabric();
    FaultBounds {
        num_nodes: tb.clusters.iter().map(|c| c.nodes).sum(),
        num_routers: fabric.routers.len() as u32,
        num_segments: fabric.segments.len() as u32,
        horizon_ms,
        max_events: 5,
        max_crashes: 2,
        router_ports: fabric.routers.iter().map(|r| r.segments.clone()).collect(),
    }
}

impl ChaosTarget {
    /// A STEN-1 target on an arbitrary wired testbed, fuzzed under
    /// fabric-shaped bounds (router outages and link downs included in
    /// the draw). The star targets below keep their leaner six-kind
    /// bounds so their seeded schedules stay byte-identical.
    pub fn sten_fabric(
        tb: Testbed,
        model: &CalibratedCostModel,
        n: usize,
        iters: u64,
    ) -> Result<ChaosTarget, NetpartError> {
        let variant = StencilVariant::Sten1;
        let bounds_tb = tb.clone();
        let s = Scenario::new(tb, stencil_model(n as u64, variant))
            .with_cost(CostSource::Fixed(model.clone()));
        let plan = s.plan()?;
        let mut app = StencilApp::new(n, iters, variant, plan.ranks());
        let fault_free = plan.run(&mut app)?;
        Ok(ChaosTarget {
            label: "STEN-1",
            bounds: fabric_bounds(&bounds_tb, fault_free.elapsed_ms * 1.2),
            scenario: s,
            kind: TargetKind::Sten {
                n,
                iters,
                variant,
                reference: sequential_reference(n, iters),
            },
            ckpt: CheckpointPolicy::local(CKPT_EVERY)
                .with_watchdog_ms(fault_free.elapsed_ms.max(10_000.0)),
        })
    }

    /// A Gaussian-elimination target on an arbitrary wired testbed with
    /// fabric-shaped bounds, like [`ChaosTarget::sten_fabric`].
    pub fn gauss_fabric(
        tb: Testbed,
        model: &CalibratedCostModel,
        n: usize,
    ) -> Result<ChaosTarget, NetpartError> {
        let bounds_tb = tb.clone();
        let s =
            Scenario::new(tb, gauss_model(n as u64)).with_cost(CostSource::Fixed(model.clone()));
        let plan = s.plan()?;
        let (a, b, _x_true) = make_system(n, 1994);
        let mut app = GaussApp::new(n, a.clone(), b.clone(), plan.ranks());
        let fault_free = plan.run(&mut app)?;
        let reference = sequential_solve(n, &a, &b);
        Ok(ChaosTarget {
            label: "GAUSS",
            bounds: fabric_bounds(&bounds_tb, fault_free.elapsed_ms * 1.2),
            scenario: s,
            kind: TargetKind::Gauss { n, a, b, reference },
            ckpt: CheckpointPolicy::local(CKPT_EVERY)
                .with_watchdog_ms(fault_free.elapsed_ms.max(10_000.0)),
        })
    }

    /// The planned rank→cluster assignment of the target's scenario,
    /// for span diagnostics (does the placement cross pods?).
    pub fn rank_clusters(&self) -> Result<Vec<u32>, NetpartError> {
        let plan = self.scenario.plan()?;
        let part = plan.partition.ok_or_else(|| {
            NetpartError::InvalidScenario("plan() produced no partition output".into())
        })?;
        Ok(part.rank_clusters())
    }

    /// The fault-free elapsed time the bounds horizon was derived from.
    pub fn fault_free_ms(&self) -> f64 {
        self.bounds.horizon_ms / 1.2
    }

    /// The STEN-1 fuzz target: 60×60 grid, 8 iterations, two ranks on
    /// the paper testbed. Small on purpose — blobs must clear the 10 Mb
    /// wire well inside a checkpoint interval, and a fuzz sweep runs
    /// hundreds of these.
    pub fn sten(model: &CalibratedCostModel) -> Result<ChaosTarget, NetpartError> {
        let (n, iters, variant) = (60usize, 8u64, StencilVariant::Sten1);
        let tb = Testbed::paper();
        let bounds_tb = tb.clone();
        let s = Scenario::new(tb, stencil_model(n as u64, variant))
            .with_cost(CostSource::Fixed(model.clone()));
        let plan = s.plan()?;
        let mut app = StencilApp::new(n, iters, variant, plan.ranks());
        let fault_free = plan.run(&mut app)?;
        Ok(ChaosTarget {
            label: "STEN-1",
            bounds: testbed_bounds(&bounds_tb, fault_free.elapsed_ms * 1.2),
            scenario: s,
            kind: TargetKind::Sten {
                n,
                iters,
                variant,
                reference: sequential_reference(n, iters),
            },
            ckpt: CheckpointPolicy::replicated(CKPT_EVERY),
        })
    }

    /// The Gaussian-elimination fuzz target: order-32 system with
    /// partial pivoting, compared against the identically-pivoting
    /// sequential solver.
    pub fn gauss(model: &CalibratedCostModel) -> Result<ChaosTarget, NetpartError> {
        let n = 32usize;
        let tb = Testbed::paper();
        let bounds_tb = tb.clone();
        let s =
            Scenario::new(tb, gauss_model(n as u64)).with_cost(CostSource::Fixed(model.clone()));
        let plan = s.plan()?;
        let (a, b, _x_true) = make_system(n, 1994);
        let mut app = GaussApp::new(n, a.clone(), b.clone(), plan.ranks());
        let fault_free = plan.run(&mut app)?;
        let reference = sequential_solve(n, &a, &b);
        Ok(ChaosTarget {
            label: "GAUSS",
            bounds: testbed_bounds(&bounds_tb, fault_free.elapsed_ms * 1.2),
            scenario: s,
            kind: TargetKind::Gauss { n, a, b, reference },
            ckpt: CheckpointPolicy::replicated(CKPT_EVERY),
        })
    }

    /// The bounds schedules for this target are drawn within.
    pub fn bounds(&self) -> &FaultBounds {
        &self.bounds
    }

    /// Draw the schedule for `seed` and run it against the invariant.
    ///
    /// `sabotage` plants a deliberate recovery-path bug: whenever the
    /// run actually recovered (at least one replan), the answer's first
    /// element is bit-flipped before comparison — the signature of a
    /// recovery that silently dropped or mangled state. It exists so the
    /// fuzzer's own detection and shrinking paths are testable: a tool
    /// that has never caught a planted bug cannot be trusted to catch a
    /// real one.
    pub fn run_case(&self, seed: u64, plan: &FaultPlan, sabotage: bool) -> ChaosFuzzCase {
        let faults = FaultSchedule::new().with_raw(plan.clone());
        let policy = RecoveryPolicy::Replan {
            max_replans: MAX_REPLANS,
            backoff_ms: BACKOFF_MS,
        };
        let ckpt = self.ckpt;
        let mut case = ChaosFuzzCase {
            app: self.label,
            seed,
            events: plan.events.len(),
            replans: 0,
            replica_restores: 0,
            generation_fallbacks: 0,
            recovered_ms: 0.0,
            verdict: ChaosVerdict::OkIdentical,
        };
        let outcome: Result<(netpart::Run, bool), NetpartError> = match &self.kind {
            TargetKind::Sten {
                n,
                iters,
                variant,
                reference,
            } => {
                let factory = stencil_factory(*n, *iters, *variant);
                self.scenario
                    .run_recoverable_with(&faults, policy, ckpt, factory)
                    .map(|(run, app)| {
                        let mut got = app.gather();
                        if sabotage && run.recovery.as_ref().is_some_and(|r| r.replans > 0) {
                            got[0] = f32::from_bits(got[0].to_bits() ^ 1);
                        }
                        let identical = bits_eq_f32(&got, reference);
                        (run, identical)
                    })
            }
            TargetKind::Gauss { n, a, b, reference } => {
                let factory = gauss_factory(*n, a, b);
                self.scenario
                    .run_recoverable_with(&faults, policy, ckpt, factory)
                    .map(|(run, app)| {
                        let mut got = app.solve();
                        if sabotage && run.recovery.as_ref().is_some_and(|r| r.replans > 0) {
                            got[0] = f64::from_bits(got[0].to_bits() ^ 1);
                        }
                        let identical = bits_eq_f64(&got, reference);
                        (run, identical)
                    })
            }
        };
        match outcome {
            Ok((run, identical)) => {
                if let Some(rec) = &run.recovery {
                    case.replans = rec.replans;
                    case.replica_restores = rec.replica_restores;
                    case.generation_fallbacks = rec.generation_fallbacks;
                }
                case.recovered_ms = run.elapsed_ms;
                case.verdict = if identical {
                    ChaosVerdict::OkIdentical
                } else {
                    ChaosVerdict::Violation(format!(
                        "completed after {} replan(s) with an answer that is NOT \
                         bit-identical to the sequential reference",
                        case.replans
                    ))
                };
            }
            Err(e) => {
                // Recovery-family errors are the invariant's second legal
                // outcome. Plumbing-class errors mean the harness itself
                // broke: a valid-by-construction schedule must never be
                // rejected at install, mismatch ranks, or invalidate the
                // scenario.
                case.verdict = match e {
                    NetpartError::InvalidFaultPlan(_)
                    | NetpartError::RankMismatch { .. }
                    | NetpartError::InvalidScenario(_)
                    | NetpartError::Calibration(_)
                    | NetpartError::MissingFit { .. } => {
                        ChaosVerdict::Violation(format!("plumbing-class error: {e}"))
                    }
                    other => ChaosVerdict::TypedError(other.to_string()),
                };
            }
        }
        case
    }
}

/// Greedy delta-debugging shrinker: repeatedly remove any single event
/// whose removal keeps `still_fails` true, until none can be removed.
/// The result is 1-minimal — every surviving event is load-bearing, in
/// that dropping it makes the failure disappear.
pub fn shrink_schedule<F>(plan: &FaultPlan, mut still_fails: F) -> FaultPlan
where
    F: FnMut(&FaultPlan) -> bool,
{
    let mut cur = plan.clone();
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < cur.events.len() {
            let mut cand = cur.clone();
            cand.events.remove(i);
            if still_fails(&cand) {
                cur = cand;
                reduced = true;
            } else {
                i += 1;
            }
        }
        if !reduced {
            return cur;
        }
    }
}

/// Fuzz both targets over `seeds`: one random schedule per `(target,
/// seed)`, every case checked against the invariant, every violation
/// shrunk to a minimal repro.
pub fn chaos_fuzz(
    model: &CalibratedCostModel,
    seeds: &[u64],
) -> Result<ChaosFuzzReport, NetpartError> {
    let targets = [ChaosTarget::sten(model)?, ChaosTarget::gauss(model)?];
    let mut cases = Vec::with_capacity(targets.len() * seeds.len());
    let mut repros = Vec::new();
    for target in &targets {
        for &seed in seeds {
            let plan = FaultPlan::random(seed, target.bounds());
            let case = target.run_case(seed, &plan, false);
            if let ChaosVerdict::Violation(v) = &case.verdict {
                let violation = v.clone();
                let min = shrink_schedule(&plan, |p| {
                    target.run_case(seed, p, false).verdict.is_violation()
                });
                repros.push(MinimizedRepro {
                    app: target.label,
                    seed,
                    original_events: plan.events.len(),
                    plan: min,
                    violation,
                });
            }
            cases.push(case);
        }
    }
    Ok(ChaosFuzzReport { cases, repros })
}

/// Prove the fuzzer's teeth: run the STEN target with the planted
/// recovery-path bug (`sabotage`) over ascending seeds until a schedule
/// triggers it, then shrink that schedule. Returns `None` only if no
/// seed below `max_seeds` produced a recovering run — with the bounds
/// used here a handful of seeds always suffices.
pub fn planted_bug_repro(
    model: &CalibratedCostModel,
    max_seeds: u64,
) -> Result<Option<MinimizedRepro>, NetpartError> {
    let target = ChaosTarget::sten(model)?;
    for seed in 0..max_seeds {
        let plan = FaultPlan::random(seed, target.bounds());
        let case = target.run_case(seed, &plan, true);
        if let ChaosVerdict::Violation(violation) = case.verdict {
            let min = shrink_schedule(&plan, |p| {
                target.run_case(seed, p, true).verdict.is_violation()
            });
            return Ok(Some(MinimizedRepro {
                app: target.label,
                seed,
                original_events: plan.events.len(),
                plan: min,
                violation,
            }));
        }
    }
    Ok(None)
}

/// Render a fuzz report for the terminal.
pub fn render_chaos_fuzz(report: &ChaosFuzzReport) -> String {
    let mut out = String::new();
    let total = report.cases.len();
    let ok = report
        .cases
        .iter()
        .filter(|c| c.verdict == ChaosVerdict::OkIdentical)
        .count();
    let typed = report
        .cases
        .iter()
        .filter(|c| matches!(c.verdict, ChaosVerdict::TypedError(_)))
        .count();
    let bit = report.cases.iter().filter(|c| c.replans > 0).count();
    let restores: u64 = report.cases.iter().map(|c| c.replica_restores).sum();
    let fallbacks: u64 = report.cases.iter().map(|c| c.generation_fallbacks).sum();
    out.push_str(&format!(
        "{total} schedules fuzzed: {ok} recovered bit-identically, {typed} ended in a \
         typed error, {} VIOLATED the invariant\n",
        report.repros.len()
    ));
    out.push_str(&format!(
        "{bit} schedules forced at least one replan; {restores} buddy-replica restores, \
         {fallbacks} generation fallbacks across the sweep\n"
    ));
    for r in &report.repros {
        out.push_str(&r.render());
    }
    out
}

/// The fuzz report as `BENCH_chaos.json`.
pub fn chaos_fuzz_json(report: &ChaosFuzzReport) -> String {
    Json::obj([
        (
            "description",
            "Seeded chaos fuzzer over the whole fault model: random schedules (crashes, \
             transient outages, slowdowns, router outages, loss and corruption bursts, load \
             steps) against the invariant that every run either completes bit-identical to \
             the sequential reference or ends in a typed recovery error. Violations are \
             delta-debugged to minimal repros. Deterministic per seed."
                .into(),
        ),
        (
            "policy",
            Json::obj([
                ("max_replans", MAX_REPLANS.into()),
                ("backoff_ms", Json::fixed(BACKOFF_MS, 1)),
                ("checkpoint_every", CKPT_EVERY.into()),
                ("durability", "replicated".into()),
            ]),
        ),
        ("schedules", report.cases.len().into()),
        ("violations", report.repros.len().into()),
        (
            "cases",
            Json::arr(&report.cases, |c| c.json([("app", c.app.into())])),
        ),
        (
            "minimized_repros",
            Json::arr(&report.repros, MinimizedRepro::json),
        ),
    ])
    .render()
}
