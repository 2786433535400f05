//! The analytic hop-aware cost model the fabric-scale workloads plan
//! under. Calibrating 16–128 segments per cell would dominate every
//! repetition without changing the search, so — like `experiments --
//! scale` — the large cells use fixed constants: every cluster shares one
//! intra fit, and each cluster pair's router penalty grows linearly with
//! its hop distance on the actual fabric, the shape `calibrate_testbed`
//! produces on multi-router wirings.
//!
//! This is the benchmark's own copy on purpose: `netpart-bench` owns the
//! original and ROADMAP item 1 will rewrite that crate; the yardstick must
//! not move with it.

use netpart::calibrate::{CalibratedCostModel, FittedCost, LinearCost, Testbed};
use netpart::model::AppModel;
use netpart::NetpartError;

/// The shared intra-cluster fit (ms): `c1 + c2·p + b·(c3 + c4·p)`.
pub const INTRA: FittedCost = FittedCost {
    c1: 0.2,
    c2: 0.5,
    c3: -0.001,
    c4: 0.0011,
    r_squared: 1.0,
    abs_fix: true,
};

/// Router penalty per hop (ms): `a·h + k·h·b`.
pub const ROUTER_PER_HOP: LinearCost = LinearCost { a: 0.5, k: 0.0006 };

/// The model for `app` on `testbed`; an unreachable cluster pair is the
/// typed [`NetpartError::InvalidFabric`].
pub fn hop_cost_model(
    testbed: &Testbed,
    app: &AppModel,
) -> Result<CalibratedCostModel, NetpartError> {
    let hops = testbed.cluster_hops()?;
    let mut model = CalibratedCostModel::default();
    for cluster in 0..testbed.num_clusters() {
        for phase in app.comm_phases() {
            model.set_intra(cluster, phase.topology, INTRA);
        }
    }
    for (a, row) in hops.iter().enumerate() {
        for (b, &d) in row.iter().enumerate().skip(a + 1) {
            let h = f64::from(d);
            model.set_router(
                a,
                b,
                LinearCost {
                    a: ROUTER_PER_HOP.a * h,
                    k: ROUTER_PER_HOP.k * h,
                },
            );
        }
    }
    Ok(model)
}
