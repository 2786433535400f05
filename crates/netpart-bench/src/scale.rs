//! The analytic hop-aware cost model for fabrics far beyond the paper's
//! 12-node testbed.
//!
//! Calibrating 64 segments per cell would dominate a fabric-scale harness
//! without changing the search, so the fabric chaos cells
//! ([`crate::chaos_fabric`](mod@crate::chaos_fabric)) price their testbeds
//! analytically: every cluster shares one intra fit, and each cluster
//! pair's router penalty scales with its hop distance on the actual
//! fabric, exactly the shape
//! [`calibrate_testbed`](netpart_calibrate::calibrate_testbed) produces on
//! multi-router wirings. What planning and simulating at this scale cost
//! in host time is measured by the repo benchmark (`plan_scale`,
//! `fabric`), not here.

use netpart::NetpartError;
use netpart_calibrate::{CalibratedCostModel, FittedCost, LinearCost, Testbed};

/// The analytic hop-aware cost model for a testbed: one shared intra fit
/// per (cluster, topology) the application mentions, and a router penalty
/// per cluster pair that scales linearly with the pair's hop distance on
/// the fabric's routing graph. Surfaces [`NetpartError::InvalidFabric`]
/// for a wiring whose clusters cannot all reach each other.
pub fn scale_cost_model(
    testbed: &Testbed,
    app: &netpart_model::AppModel,
) -> Result<CalibratedCostModel, NetpartError> {
    let hops = testbed.cluster_hops()?;
    let k = testbed.clusters.len();
    let mut model = CalibratedCostModel::default();
    for c in 0..k {
        for phase in app.comm_phases() {
            model.set_intra(
                c,
                phase.topology,
                FittedCost {
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
    for (a, row) in hops.iter().enumerate() {
        for (b, &d) in row.iter().enumerate().skip(a + 1) {
            let h = d as f64;
            model.set_router(
                a,
                b,
                LinearCost {
                    a: 0.5 * h,
                    k: 0.0006 * h,
                },
            );
        }
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_apps::stencil::{stencil_model, StencilVariant};
    use netpart_calibrate::Wiring;

    #[test]
    fn hop_aware_model_prices_distance() {
        // On a 16-cluster arity-4 tree, sibling leaves cross fewer routers
        // than leaves in different subtrees; the model must price that.
        let tb = Testbed::synthetic(16, 4, 1.15).with_wiring(Wiring::Tree { arity: 4 });
        let app = stencil_model(256, StencilVariant::Sten1);
        let model = scale_cost_model(&tb, &app).unwrap();
        let hops = tb.cluster_hops().unwrap();
        let pairs: Vec<(usize, usize)> = (0..16)
            .flat_map(|a| (a + 1..16).map(move |b| (a, b)))
            .collect();
        let near = *pairs.iter().min_by_key(|&&(a, b)| hops[a][b]).unwrap();
        let far = *pairs.iter().max_by_key(|&&(a, b)| hops[a][b]).unwrap();
        use netpart_calibrate::CommCostModel;
        assert!(hops[far.0][far.1] > hops[near.0][near.1]);
        assert!(
            model.router_ms(far.0, far.1, 4096.0) > model.router_ms(near.0, near.1, 4096.0),
            "distant pairs must cost more"
        );
    }

    #[test]
    fn partitioned_custom_wiring_is_a_typed_error() {
        let tb = Testbed::synthetic(3, 2, 1.15).with_wiring(Wiring::Custom(vec![vec![0, 1]]));
        let app = stencil_model(64, StencilVariant::Sten1);
        let err = scale_cost_model(&tb, &app).unwrap_err();
        assert!(matches!(err, NetpartError::InvalidFabric(_)));
    }
}
