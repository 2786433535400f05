//! The typed experiment pipeline: **Scenario → plan → run**.
//!
//! A [`Scenario`] bundles everything the paper's method needs to make a
//! partitioning decision — a testbed description, an annotated
//! application model, a cost-model source, and partitioner knobs.
//! [`Scenario::plan`] performs the offline half (calibrate or reuse the
//! cached calibration, validate coverage, run the heuristic partitioner)
//! and returns a [`Plan`]: the chosen processor configuration, the data
//! decomposition, and the predicted per-cycle time `T_c`. [`Plan::run`]
//! performs the online half: execute any [`SpmdApp`](crate::spmd::SpmdApp) on the simulated
//! testbed through the one [`CycleEngine`](crate::spmd::CycleEngine) and
//! return an instrumented [`Run`].
//!
//! Every fallible step surfaces a [`NetpartError`](crate::NetpartError) — an empty testbed, a
//! zero-PDU model, a cost model with no fit for a (cluster, topology)
//! pair the application uses — instead of panicking mid-experiment.
//!
//! ```no_run
//! use netpart::pipeline::Scenario;
//! # use netpart::apps::stencil::{stencil_model, StencilApp, StencilVariant};
//! # use netpart::calibrate::Testbed;
//! # fn main() -> Result<(), netpart::model::NetpartError> {
//! let scenario = Scenario::new(Testbed::paper(), stencil_model(1200, StencilVariant::Sten1));
//! let plan = scenario.plan()?; // calibrate (or hit the cache) + partition
//! let run = plan.run(&mut StencilApp::new(1200, 10, StencilVariant::Sten1, plan.ranks()))?;
//! # let _ = run; Ok(()) }
//! ```
//!
//! The module splits along its seams — `scenario` (describe and plan),
//! `request` (the plan server's vocabulary and fingerprints), `fault`
//! (fault schedules), `recovery` (policies, the recovery state machine
//! and its driver), `run` (the executed result and its probe) — and
//! re-exports every public name, so `netpart::pipeline::X` stays the one
//! path callers use.

mod fault;
mod recovery;
mod request;
mod run;
mod scenario;

pub use fault::{Fault, FaultSchedule};
pub use recovery::{
    AppStart, CheckpointPolicy, Durability, RecoveryPolicy, RecoveryStats, DEGRADE_THRESHOLD,
    DRIFT_COOLDOWN,
};
pub use request::{scenario_fingerprint, PlanRequest, PlanResponse, PlanSource};
pub use run::{PhaseTotals, Run};
pub use scenario::{CostSource, Plan, Scenario};

#[cfg(test)]
mod testkit {
    //! Fixtures shared by the submodules' tests.
    use netpart_apps::stencil::{stencil_model, StencilApp, StencilVariant};
    use netpart_calibrate::{CalibratedCostModel, Testbed};
    use netpart_model::{AppModel, NetpartError};

    use super::{AppStart, CostSource, Scenario};

    pub(crate) fn small_scenario() -> Scenario {
        Scenario::new(Testbed::paper(), stencil_model(40, StencilVariant::Sten1))
            .with_cost(CostSource::Paper)
    }

    pub(crate) fn stencil_factory(
        n: usize,
        iters: u64,
    ) -> impl FnMut(usize, AppStart<'_>) -> Result<StencilApp, NetpartError> {
        move |ranks, start| {
            Ok(match start {
                AppStart::Fresh => StencilApp::new(n, iters, StencilVariant::Sten1, ranks),
                AppStart::Resume(c) => {
                    StencilApp::resume(c, n, iters, StencilVariant::Sten1, ranks)
                }
            })
        }
    }

    /// The paper model only covers the paper's testbed; synthetic fabrics
    /// are priced with a small analytic fixed model instead (same shape
    /// the bench crate's scale sweeps use).
    pub(crate) fn hop_cost_model(testbed: &Testbed, app: &AppModel) -> CalibratedCostModel {
        let mut cost = CalibratedCostModel::default();
        for c in 0..testbed.clusters.len() {
            for phase in app.comm_phases() {
                cost.set_intra(
                    c,
                    phase.topology,
                    netpart_calibrate::FittedCost {
                        c1: 0.2,
                        c2: 0.5,
                        c3: -0.001,
                        c4: 0.0011,
                        r_squared: 1.0,
                        abs_fix: true,
                    },
                );
            }
        }
        let hops = testbed.cluster_hops().unwrap();
        for (a, row) in hops.iter().enumerate() {
            for (b, &d) in row.iter().enumerate().skip(a + 1) {
                let h = f64::from(d);
                cost.set_router(
                    a,
                    b,
                    netpart_calibrate::LinearCost {
                        a: 0.5 * h,
                        k: 0.0006 * h,
                    },
                );
            }
        }
        cost
    }
}
