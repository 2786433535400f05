//! `recover` — crash, detect, replan, rebuild, resume.
//!
//! Paper testbed, STEN-1, N = 240, 20 iterations, a checkpoint every 2
//! cycles, `RecoveryPolicy::Replan`. One `RankCrash` at 40 % of the
//! fault-free simulated time, on a rank drawn from the seed. One
//! repetition runs the schedule twice: with `CheckpointPolicy::local` and
//! with `::replicated` (buddy replicas over the message layer).
//!
//! Same `pipeline`/`spmd` code as `paper12`, used differently: checkpoint
//! writes, replica traffic, failure detection, availability re-probe,
//! replanning, a network rebuild per epoch, resume. It guards the planned
//! refactor of `run_recoverable_with`, whose goldens see simulated time
//! only and are blind to host time.

use netpart::apps::stencil::{sequential_reference, stencil_model, StencilApp, StencilVariant};
use netpart::calibrate::Testbed;
use netpart::{
    AppStart, CheckpointPolicy, CostSource, Fault, FaultSchedule, RecoveryPolicy, RecoveryStats,
    Scenario,
};

use super::{report_apps, MmpsTotals};
use crate::harness::{ClosedLoop, Layers, TracedReps};
use crate::rng::Rng;
use crate::timed_app::{AppLog, TimedApp};
use crate::trace::Tracer;

/// Grid size.
pub const N: usize = 240;
/// Iterations.
pub const ITERS: u64 = 20;
/// Cycles between checkpoints.
pub const CHECKPOINT_EVERY: u64 = 2;
/// When the crash strikes, as a share of the fault-free simulated time.
pub const CRASH_AT: f64 = 0.4;
/// Watchdog budget, simulated ms: far above anything one crash needs, so
/// the watchdog never decides the outcome.
const WATCHDOG_MS: f64 = 600_000.0;

const POLICY: RecoveryPolicy = RecoveryPolicy::Replan {
    max_replans: 3,
    backoff_ms: 5.0,
};
const VARIANT: StencilVariant = StencilVariant::Sten1;

/// The rank whose node crashes, drawn from the seed among `ranks`.
pub fn crash_rank(seed: u64, ranks: usize) -> usize {
    Rng::new(seed, 2).below(ranks as u64) as usize
}

/// State of the workload between repetitions.
pub struct Recover {
    scenario: Scenario,
    faults: FaultSchedule,
    reference: Vec<f32>,
    expected: Option<[Facts; 2]>,
    last: Option<[Facts; 2]>,
    checkpoint_bytes: u64,
}

/// What one recovered run must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    sim_elapsed_bits: u64,
    stats: RecoveryStats,
    messages: u64,
    retransmissions: u64,
}

/// What a repetition produced: per durability mode, the recovered grid and
/// the run's facts.
pub struct Output {
    runs: Vec<(Vec<f32>, Facts)>,
    checkpoint_bytes: u64,
}

impl Recover {
    fn run_once(
        &self,
        ckpt: CheckpointPolicy,
        t: &mut Tracer,
    ) -> Result<((Vec<f32>, Facts), u64), String> {
        let to_facts = |run: &netpart::Run| Facts {
            sim_elapsed_bits: run.elapsed_ms.to_bits(),
            stats: run.recovery.clone().unwrap_or_default(),
            messages: run.report.mmps.messages_sent,
            retransmissions: run.report.mmps.retransmissions,
        };
        if !t.enabled() {
            let (run, app) = self
                .scenario
                .run_recoverable_with(&self.faults, POLICY, ckpt, |ranks, start| {
                    Ok(match start {
                        AppStart::Fresh => StencilApp::new(N, ITERS, VARIANT, ranks),
                        AppStart::Resume(c) => StencilApp::resume(c, N, ITERS, VARIANT, ranks),
                    })
                })
                .map_err(|e| format!("run_recoverable_with: {e}"))?;
            return Ok(((app.gather(), to_facts(&run)), 0));
        }
        let log = AppLog::new();
        let span = t.next_id();
        let (run, app) = t
            .span("pipeline.recover", |_| {
                self.scenario
                    .run_recoverable_with(&self.faults, POLICY, ckpt, |ranks, start| {
                        let inner = match start {
                            AppStart::Fresh => StencilApp::new(N, ITERS, VARIANT, ranks),
                            AppStart::Resume(c) => StencilApp::resume(c, N, ITERS, VARIANT, ranks),
                        };
                        Ok(TimedApp::new(inner, &log))
                    })
            })
            .map_err(|e| format!("run_recoverable_with: {e}"))?;
        let bytes = log.adopt_into(t, span);
        Ok(((app.inner.gather(), to_facts(&run)), bytes))
    }
}

impl ClosedLoop for Recover {
    type Output = Output;

    fn setup(seed: u64, _nth: usize) -> Result<Recover, String> {
        let mut testbed = Testbed::paper();
        // Lossless network: the seed is never drawn from (see paper12).
        testbed.seed = seed;
        let scenario =
            Scenario::new(testbed, stencil_model(N as u64, VARIANT)).with_cost(CostSource::Paper);
        // The fault-free run every recovery is judged against fixes the
        // crash instant.
        let plan = scenario.plan().map_err(|e| format!("plan: {e}"))?;
        let mut app = StencilApp::new(N, ITERS, VARIANT, plan.ranks());
        let fault_free = plan.run(&mut app).map_err(|e| format!("run: {e}"))?;
        let reference = sequential_reference(N, ITERS);
        if app.gather() != reference {
            return Err("fault-free answer differs from sequential_reference".into());
        }
        let faults = FaultSchedule::new().with(Fault::RankCrash {
            at_ms: fault_free.elapsed_ms * CRASH_AT,
            rank: crash_rank(seed, plan.ranks()),
        });
        Ok(Recover {
            scenario,
            faults,
            reference,
            expected: None,
            last: None,
            checkpoint_bytes: 0,
        })
    }

    fn repetition(&mut self, t: &mut Tracer) -> Result<Output, String> {
        let mut out = Output {
            runs: Vec::with_capacity(2),
            checkpoint_bytes: 0,
        };
        for ckpt in [
            CheckpointPolicy::local(CHECKPOINT_EVERY),
            CheckpointPolicy::replicated(CHECKPOINT_EVERY),
        ] {
            let (run, bytes) = self.run_once(ckpt.with_watchdog_ms(WATCHDOG_MS), t)?;
            out.runs.push(run);
            out.checkpoint_bytes += bytes;
        }
        Ok(out)
    }

    fn check(&mut self, out: Output) -> Vec<String> {
        let mut failures = Vec::new();
        for ((grid, facts), mode) in out.runs.iter().zip(["local", "replicated"]) {
            if *grid != self.reference {
                failures.push(format!(
                    "{mode}: recovered answer differs from the reference"
                ));
            }
            if facts.stats.replans == 0 {
                failures.push(format!("{mode}: the crash never forced a replan"));
            }
        }
        let Ok(facts) =
            <[Facts; 2]>::try_from(out.runs.into_iter().map(|(_, f)| f).collect::<Vec<_>>())
        else {
            failures.push("a repetition is exactly two runs".into());
            return failures;
        };
        match &self.expected {
            None => self.expected = Some(facts.clone()),
            Some(first) if *first != facts => {
                failures.push("recovery facts differ from the first repetition".into());
            }
            Some(_) => {}
        }
        if out.checkpoint_bytes > 0 {
            self.checkpoint_bytes = out.checkpoint_bytes;
        }
        self.last = Some(facts);
        failures
    }

    fn layers(&self, reps: &TracedReps, layers: &mut Layers) {
        report_apps(reps, layers);
        // No spmd.run span here (the recovery loop owns the engine): the
        // stack's time is pipeline.recover's self time.
        layers.set("pipeline.recover_ms", reps.total_ms("pipeline.recover"));
        layers.set("apps.checkpoint_bytes", self.checkpoint_bytes as f64);
        let Some(runs) = &self.last else { return };
        let sim_ms: f64 = runs
            .iter()
            .map(|f| f64::from_bits(f.sim_elapsed_bits))
            .sum();
        layers.set("sim.elapsed_ms", sim_ms);
        layers.set(
            "sim.host_s_per_sim_s",
            reps.wall_ms() / sim_ms.max(f64::MIN_POSITIVE),
        );
        layers.set(
            "pipeline.replans",
            runs.iter().map(|f| f64::from(f.stats.replans)).sum(),
        );
        layers.set(
            "pipeline.cycles_lost",
            runs.iter().map(|f| f.stats.cycles_lost as f64).sum(),
        );
        layers.set(
            "pipeline.recovery_overhead_sim_ms",
            runs.iter().map(|f| f.stats.overhead_ms).sum(),
        );
        MmpsTotals {
            messages: runs.iter().map(|f| f.messages).sum(),
            retransmissions: runs.iter().map(|f| f.retransmissions).sum(),
            ..MmpsTotals::default()
        }
        .report(layers);
    }
}
