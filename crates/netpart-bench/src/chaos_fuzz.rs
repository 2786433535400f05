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

use crate::report::Json;
use crate::target::{replan_policy, Checked, Target, Verdict, BACKOFF_MS, MAX_REPLANS};
use netpart::{CheckpointPolicy, FaultSchedule};
use netpart_apps::StencilVariant;
use netpart_calibrate::{CalibratedCostModel, Testbed};
use netpart_model::NetpartError;
use netpart_sim::{FaultBounds, FaultPlan};

/// Checkpoint interval (cycles) for fuzzed runs. Durability is
/// per-target: [`ChaosTarget::star`] mirrors blobs to buddy replicas so
/// that machinery stays under fuzz, [`ChaosTarget::fabric`] uses local
/// stable storage.
const CKPT_EVERY: u64 = 4;

/// One fuzzed schedule's outcome.
#[derive(Debug, Clone)]
pub struct ChaosFuzzCase {
    /// Application label (`STEN-1`, `GAUSS`).
    pub app: &'static str,
    /// Seed the schedule was drawn from.
    pub seed: u64,
    /// Events in the drawn schedule.
    pub events: usize,
    /// The run under `Replan` — elapsed time and recovery accounting
    /// (replans, buddy-replica restores, generation fallbacks; all 0 when
    /// the schedule never bit or the run errored) — and the verdict
    /// against the invariant.
    pub outcome: Checked,
}

impl ChaosFuzzCase {
    /// The case as an artefact row: `lead` fields first, then the counters
    /// and the verdict every chaos artefact reports.
    pub(crate) fn json<const N: usize>(&self, lead: [(&'static str, Json); N]) -> Json {
        let (verdict, detail) = self.outcome.verdict.label_and_detail();
        let rec = self.outcome.rec();
        let mut fields = Vec::from(lead);
        fields.extend([
            ("seed", self.seed.into()),
            ("events", self.events.into()),
            ("replans", rec.replans.into()),
            ("replica_restores", rec.replica_restores.into()),
            ("generation_fallbacks", rec.generation_fallbacks.into()),
            ("recovered_ms", Json::ms(self.outcome.elapsed_ms())),
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

/// One application under fuzz: the [`Target`], the network dimensions
/// random schedules must respect (their horizon is 1.2× the fault-free
/// run), and the checkpoint policy fuzzed runs use.
pub struct ChaosTarget {
    target: Target,
    bounds: FaultBounds,
    ckpt: CheckpointPolicy,
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

/// The STEN-1 star fuzz target: 60×60 grid, 8 iterations, two ranks on
/// the paper testbed. Small on purpose — blobs must clear the 10 Mb wire
/// well inside a checkpoint interval, and a fuzz sweep runs hundreds of
/// these.
pub fn sten_star_target(model: &CalibratedCostModel) -> Result<ChaosTarget, NetpartError> {
    let t = Target::sten(Testbed::paper(), model, 60, 8, StencilVariant::Sten1)?;
    Ok(ChaosTarget::star(t))
}

impl ChaosTarget {
    /// Fuzz `target` on its wired testbed under [`fabric_bounds`] (router
    /// outages and link downs included in the draw). Local durability —
    /// the paper's stable-storage model — because mirroring hundred-KB
    /// blobs across 10 Mb shared segments saturates them for longer than
    /// the MMPS retransmission budget (the burst itself would fail healthy
    /// ranks), and a watchdog scaled to the target's cycle time (a
    /// 1024-rank fat-tree cycle outlasts the 10 s default on its own).
    pub fn fabric(target: Target) -> ChaosTarget {
        let ff = target.fault_free_ms();
        ChaosTarget {
            bounds: fabric_bounds(&target.scenario().testbed, ff * 1.2),
            ckpt: CheckpointPolicy::local(CKPT_EVERY).with_watchdog_ms(ff.max(10_000.0)),
            target,
        }
    }

    /// Fuzz `target` on a star testbed: the same dimensions with an empty
    /// wiring, which keeps the classic six-kind draw (so the seeded star
    /// sweep keeps its schedules byte-identically), and replicated
    /// checkpoints, so the buddy-replica machinery stays under fuzz.
    pub fn star(target: Target) -> ChaosTarget {
        let mut t = ChaosTarget::fabric(target);
        t.bounds.router_ports = Vec::new();
        t.ckpt = CheckpointPolicy::replicated(CKPT_EVERY);
        t
    }

    /// The application under fuzz.
    pub fn target(&self) -> &Target {
        &self.target
    }

    /// Run `plan` against the invariant under the harnesses' `Replan`
    /// policy; `sabotage` arms the planted recovery-path bug of
    /// [`Target::run_sabotaged`].
    pub fn run_case(&self, seed: u64, plan: &FaultPlan, sabotage: bool) -> ChaosFuzzCase {
        let faults = FaultSchedule::new().with_raw(plan.clone());
        let (policy, ckpt) = (replan_policy(), self.ckpt);
        ChaosFuzzCase {
            app: self.target.label(),
            seed,
            events: plan.events.len(),
            outcome: self.target.run_sabotaged(&faults, policy, ckpt, sabotage),
        }
    }

    /// Draw the schedule for `seed`, run it, and shrink a violation to a
    /// minimal repro.
    pub(crate) fn fuzz(
        &self,
        seed: u64,
        sabotage: bool,
    ) -> (ChaosFuzzCase, Option<MinimizedRepro>) {
        let plan = FaultPlan::random(seed, &self.bounds);
        let case = self.run_case(seed, &plan, sabotage);
        let still_fails = |p: &FaultPlan| {
            self.run_case(seed, p, sabotage)
                .outcome
                .verdict
                .is_violation()
        };
        let repro = match &case.outcome.verdict {
            Verdict::Violation(v) => Some(MinimizedRepro {
                app: case.app,
                seed,
                original_events: plan.events.len(),
                plan: shrink_schedule(&plan, still_fails),
                violation: v.clone(),
            }),
            _ => None,
        };
        (case, repro)
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
    // The GAUSS target: an order-32 system with partial pivoting.
    let gauss = Target::gauss(Testbed::paper(), model, 32)?;
    let targets = [sten_star_target(model)?, ChaosTarget::star(gauss)];
    let mut cases = Vec::with_capacity(targets.len() * seeds.len());
    let mut repros = Vec::new();
    for target in &targets {
        for &seed in seeds {
            let (case, repro) = target.fuzz(seed, false);
            cases.push(case);
            repros.extend(repro);
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
    let target = sten_star_target(model)?;
    Ok((0..max_seeds).find_map(|seed| target.fuzz(seed, true).1))
}

/// Render a fuzz report for the terminal.
pub fn render_chaos_fuzz(report: &ChaosFuzzReport) -> String {
    let mut out = String::new();
    let total = report.cases.len();
    let verdicts = || report.cases.iter().map(|c| &c.outcome.verdict);
    let ok = verdicts().filter(|v| v.is_identical()).count();
    let typed = verdicts()
        .filter(|v| matches!(v, Verdict::Typed(_)))
        .count();
    let recs: Vec<_> = report.cases.iter().map(|c| c.outcome.rec()).collect();
    let bit = recs.iter().filter(|r| r.replans > 0).count();
    let restores: u64 = recs.iter().map(|r| r.replica_restores).sum();
    let fallbacks: u64 = recs.iter().map(|r| r.generation_fallbacks).sum();
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
