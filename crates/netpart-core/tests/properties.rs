//! Property tests for the estimator's fill-context evaluator: on every
//! applicable model (linear complexity, constant message size,
//! non-bandwidth-limited topology) its O(1) delta evaluation must return
//! the bits of the full Eq. 2–6 recompute, for arbitrary fixed
//! backgrounds, varied clusters, probe counts, and fabric-derived
//! hop-aware router costs. The partitioner prices every probe this way
//! at every cluster count, the paper's K = 2 goldens included, so a
//! difference in the last bit is a failure, not a tolerance.

use proptest::prelude::*;

use netpart_calibrate::{CalibratedCostModel, FittedCost, LinearCost, Testbed, Wiring};
use netpart_core::{Estimator, SystemModel};
use netpart_model::{AppModel, CommPhase, CompPhase, OpKind};
use netpart_topology::Topology;

/// A hop-aware analytic model over the testbed's fabric: intra fits vary
/// per cluster, router penalties scale with the pair's hop distance.
fn hop_model(testbed: &Testbed) -> CalibratedCostModel {
    let hops = testbed.cluster_hops().expect("generated wirings connect");
    let k = testbed.clusters.len();
    let mut model = CalibratedCostModel::default();
    for c in 0..k {
        model.set_intra(
            c,
            Topology::OneD,
            FittedCost {
                c1: 0.2 + 0.013 * c as f64,
                c2: 0.5,
                c3: -0.001,
                c4: 0.0011,
                r_squared: 1.0,
                abs_fix: true,
            },
        );
    }
    for (a, row) in hops.iter().enumerate() {
        for (b, &d) in row.iter().enumerate().skip(a + 1) {
            let h = d as f64;
            model.set_router(
                a,
                b,
                LinearCost {
                    a: 0.4 * h,
                    k: 0.0007 * h,
                },
            );
        }
    }
    model
}

fn stencil_like(n: u64, overlap: bool) -> AppModel {
    let comm = CommPhase::constant("border", Topology::OneD, 4.0 * n as f64);
    let comm = if overlap {
        comm.overlapping("update")
    } else {
        comm
    };
    AppModel::new("stencil", "row", n)
        .with_comp(CompPhase::linear("update", 5.0 * n as f64, OpKind::Flop))
        .with_comm(comm)
}

proptest! {
    #[test]
    fn incremental_fill_matches_full_recompute(
        k in 2usize..9,
        arity in 2usize..5,
        background in prop::collection::vec(0u32..7, 9..10),
        cluster_pick in 0usize..9,
        p in 0u32..8,
        overlap in any::<bool>(),
    ) {
        let cluster = cluster_pick % k;
        let testbed = Testbed::synthetic(k, 8, 1.2).with_wiring(Wiring::Tree { arity });
        let sys = SystemModel::from_testbed(&testbed);
        let model = hop_model(&testbed);
        let app = stencil_like(4000, overlap);
        let est = Estimator::new(&sys, &model, &app);

        let fixed: Vec<u32> = (0..k).map(|i| background[i]).collect();
        let ctx = est
            .fill_context(&fixed, cluster)
            .expect("stencil-like model is always applicable");
        let incremental = ctx.t_c_ms(p);

        let mut full_config = fixed.clone();
        full_config[cluster] = p;
        let full = est.t_c_ms(&full_config);

        prop_assert_eq!(
            incremental.to_bits(),
            full.to_bits(),
            "k={} cluster={} p={} fixed={:?}: incremental {} vs full {}",
            k, cluster, p, fixed, incremental, full
        );
    }

    #[test]
    fn incremental_fill_matches_full_across_wirings(
        k in 2usize..7,
        wiring_pick in 0usize..3,
        background in prop::collection::vec(0u32..5, 7..8),
        cluster_pick in 0usize..7,
        p in 0u32..6,
    ) {
        let cluster = cluster_pick % k;
        let wiring = match wiring_pick {
            0 => Wiring::Star,
            1 => Wiring::Dumbbell,
            _ => Wiring::Tree { arity: 2 },
        };
        let testbed = Testbed::synthetic(k, 6, 1.3).with_wiring(wiring);
        let sys = SystemModel::from_testbed(&testbed);
        let model = hop_model(&testbed);
        let app = stencil_like(2400, false);
        let est = Estimator::new(&sys, &model, &app);

        let fixed: Vec<u32> = (0..k).map(|i| background[i]).collect();
        let ctx = est
            .fill_context(&fixed, cluster)
            .expect("stencil-like model is always applicable");
        let incremental = ctx.t_c_ms(p);

        let mut full_config = fixed.clone();
        full_config[cluster] = p;
        let full = est.t_c_ms(&full_config);

        prop_assert_eq!(
            incremental.to_bits(),
            full.to_bits(),
            "wiring {} k={} cluster={} p={}: {} vs {}",
            wiring_pick, k, cluster, p, incremental, full
        );
    }
}
