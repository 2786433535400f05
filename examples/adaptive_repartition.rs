//! Gray-failure tolerance, end to end: a node slows down 4× mid-run but
//! never fail-stops — the kind of degradation a crash detector cannot
//! see. Under plain `Replan` the bulk-synchronous run limps at the slow
//! node's pace to the end. Under `Adapt` a drift monitor compares each
//! rank's observed phase times against the plan's predictions, confirms
//! the sustained degradation, recalibrates the cost model online from
//! the in-flight measurement, and repartitions onto the healthy nodes —
//! but only because a cost/benefit gate projects that the per-cycle
//! saving over the remaining cycles beats the migration bill. The same
//! run with `min_gain = ∞` shows the other half: the gate deliberately
//! declines, and the run still finishes exactly.
//!
//! ```text
//! cargo run --release --example adaptive_repartition
//! ```

use netpart::apps::stencil::{sequential_reference, stencil_model, StencilApp, StencilVariant};
use netpart::calibrate::Testbed;
use netpart::model::NetpartError;
use netpart::{AppStart, CostSource, Fault, FaultSchedule, RecoveryPolicy, Scenario};

fn main() -> Result<(), NetpartError> {
    let (n, iters) = (120usize, 30u64);
    let scenario = Scenario::new(
        Testbed::paper(),
        stencil_model(n as u64, StencilVariant::Sten1),
    )
    .with_cost(CostSource::Paper);

    // Fault-free baseline.
    let plan = scenario.plan()?;
    let mut app = StencilApp::new(n, iters, StencilVariant::Sten1, plan.ranks());
    let fault_free = plan.run(&mut app)?;
    println!(
        "fault-free: {} ranks, {:.3} ms simulated",
        plan.ranks(),
        fault_free.elapsed_ms
    );

    // Rank 0's node turns gray at 15% of the fault-free wall time: its
    // compute stretches 4×, but it keeps answering probes and messages —
    // no crash detector will ever fire.
    let onset = fault_free.elapsed_ms * 0.15;
    let faults = FaultSchedule::new().with(Fault::RankSlowdown {
        at_ms: onset,
        rank: 0,
        factor: 4.0,
    });
    println!("injecting: rank 0's node slows 4x at {onset:.3} ms (never fail-stops)");

    let factory = move |ranks: usize, start: AppStart<'_>| {
        Ok(match start {
            AppStart::Fresh => StencilApp::new(n, iters, StencilVariant::Sten1, ranks),
            AppStart::Resume(c) => StencilApp::resume(c, n, iters, StencilVariant::Sten1, ranks),
        })
    };

    // Staying put: Replan only reacts to fail-stop failures, so the whole
    // bulk-synchronous computation limps at the slow node's pace.
    let stay_policy = RecoveryPolicy::Replan {
        max_replans: 3,
        backoff_ms: 5.0,
    };
    let (stay, _) = scenario.run_recoverable(&faults, stay_policy, 2, factory)?;
    println!(
        "staying put (Replan): {:.3} ms — the run limps",
        stay.elapsed_ms
    );

    // Adapt: detect the drift, recalibrate, and repartition when the
    // projected saving over the remaining cycles beats the migration cost.
    let adapt_policy = RecoveryPolicy::Adapt { min_gain: 0.0 };
    let (adaptive, recovered) = scenario.run_recoverable(&faults, adapt_policy, 2, factory)?;
    let stats = adaptive.recovery.clone().unwrap_or_default();
    println!(
        "adaptive (Adapt): {:.3} ms — {} detection(s) ({} cycles to confirm), \
         {} recalibration(s), {} repartition(s), projected net gain {:.3} ms",
        adaptive.elapsed_ms,
        stats.drift_detections,
        stats.cycles_to_detect,
        stats.recalibrations,
        stats.repartitions,
        stats.drift_gain_ms
    );
    assert!(
        adaptive.elapsed_ms < stay.elapsed_ms,
        "repartitioning must beat limping"
    );

    let identical = recovered.gather() == sequential_reference(n, iters);
    println!(
        "answer vs sequential reference: {}",
        if identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );
    assert!(identical, "adaptive answer must match the reference");

    // The gate's other half: with min_gain = ∞ no projected saving is
    // ever enough — the policy detects, recalibrates, then deliberately
    // declines and finishes on the degraded layout.
    let decline_policy = RecoveryPolicy::Adapt {
        min_gain: f64::INFINITY,
    };
    let (declined, dapp) = scenario.run_recoverable(&faults, decline_policy, 2, factory)?;
    let dstats = declined.recovery.clone().unwrap_or_default();
    println!(
        "forced decline (min_gain = inf): {:.3} ms — {} detection(s), \
         {} repartition(s), {} declined",
        declined.elapsed_ms,
        dstats.drift_detections,
        dstats.repartitions,
        dstats.repartitions_declined
    );
    assert_eq!(dstats.repartitions, 0, "the gate must decline at infinity");
    assert!(
        dapp.gather() == sequential_reference(n, iters),
        "declined run still finishes exactly"
    );
    Ok(())
}
