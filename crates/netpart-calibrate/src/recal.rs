//! Online recalibration from in-flight drift measurements.
//!
//! The offline procedure ([`fit`](crate::fit)) sweeps a full `(p, b)`
//! grid — minutes of simulated benchmarking. When a [`DriftMonitor`]
//! upstream confirms that *one* node or segment has degraded mid-run,
//! re-running that grid would cost more than the information is worth:
//! the drift measurement itself already tells us the degradation factor.
//! This module refits just the affected coefficients from that single
//! in-flight observation:
//!
//! * **Compute drift** — a rank observed `r×` slower than the plan's
//!   `T_comp` prediction means its cluster's effective seconds-per-op is
//!   `r×` the calibrated value ([`speed_scale`]). The caller applies the
//!   scale to its system model's `sec_per_flop` / `sec_per_intop` for the
//!   degraded cluster only.
//! * **Communication drift** — a rank observed `r×` more receive-wait
//!   than `T_comm` predicted means its segment's Eq. 1 cost function is
//!   uniformly inflated ([`InflatedCostModel`] wraps *any* cost model —
//!   including the read-only [`PaperCostModel`](crate::PaperCostModel) —
//!   without mutating it).
//!
//! Both are pure arithmetic: no benchmarking runs, no RNG, no network
//! traffic. Determinism of the surrounding pipeline is untouched.
//!
//! [`DriftMonitor`]: ../netpart_spmd/drift/struct.DriftMonitor.html

use netpart_topology::Topology;

use crate::costmodel::CommCostModel;

/// The speed scale implied by a drift observation: `observed / predicted`
/// compute time, clamped to be ≥ 1 (online recalibration only ever
/// *degrades* a cluster; recovered capacity is re-admitted through the
/// availability probe, not by optimistically un-degrading the model).
/// Returns 1.0 when the prediction is non-positive or either input is
/// non-finite.
pub fn speed_scale(observed_ms: f64, predicted_ms: f64) -> f64 {
    if !observed_ms.is_finite() || !predicted_ms.is_finite() || predicted_ms <= 0.0 {
        return 1.0;
    }
    (observed_ms / predicted_ms).max(1.0)
}

/// A view over any [`CommCostModel`] with one cluster's intra cost
/// inflated by a constant factor. Lets the pipeline re-plan on a
/// degraded model even when the underlying model is read-only (the
/// paper-constants model) or shared.
pub struct InflatedCostModel<'m> {
    inner: &'m dyn CommCostModel,
    cluster: usize,
    factor: f64,
}

impl<'m> InflatedCostModel<'m> {
    /// Wrap `inner`, pricing `cluster`'s intra communication at
    /// `factor ×` the calibrated cost (clamped ≥ 1).
    pub fn new(inner: &'m dyn CommCostModel, cluster: usize, factor: f64) -> Self {
        let factor = if factor.is_finite() {
            factor.max(1.0)
        } else {
            1.0
        };
        InflatedCostModel {
            inner,
            cluster,
            factor,
        }
    }
}

impl CommCostModel for InflatedCostModel<'_> {
    fn intra_ms(&self, cluster: usize, topo: Topology, bytes: f64, p: u32) -> f64 {
        let base = self.inner.intra_ms(cluster, topo, bytes, p);
        if cluster == self.cluster {
            base * self.factor
        } else {
            base
        }
    }

    fn router_ms(&self, a: usize, b: usize, bytes: f64) -> f64 {
        self.inner.router_ms(a, b, bytes)
    }

    fn coerce_ms(&self, a: usize, b: usize, bytes: f64) -> f64 {
        self.inner.coerce_ms(a, b, bytes)
    }

    fn covers(&self, cluster: usize, topo: Topology) -> bool {
        self.inner.covers(cluster, topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::{CalibratedCostModel, FittedCost};

    fn fit(c1: f64, c3: f64) -> FittedCost {
        FittedCost {
            c1,
            c2: 0.1,
            c3,
            c4: 0.001,
            r_squared: 1.0,
            abs_fix: false,
        }
    }

    #[test]
    fn speed_scale_is_ratio_clamped_at_one() {
        assert_eq!(speed_scale(40.0, 10.0), 4.0);
        assert_eq!(speed_scale(5.0, 10.0), 1.0, "never un-degrades");
        assert_eq!(speed_scale(10.0, 0.0), 1.0);
        assert_eq!(speed_scale(f64::NAN, 10.0), 1.0);
    }

    #[test]
    fn inflated_wrapper_scales_without_mutating() {
        let mut m = CalibratedCostModel::default();
        m.set_intra(0, Topology::OneD, fit(1.0, 0.01));
        m.set_intra(1, Topology::OneD, fit(2.0, 0.02));
        m.set_router(0, 1, crate::LinearCost { a: 0.0, k: 0.0006 });
        let wrapped = InflatedCostModel::new(&m, 1, 4.0);
        let base0 = m.intra_ms(0, Topology::OneD, 100.0, 3);
        let base1 = m.intra_ms(1, Topology::OneD, 100.0, 3);
        assert_eq!(wrapped.intra_ms(0, Topology::OneD, 100.0, 3), base0);
        assert_eq!(wrapped.intra_ms(1, Topology::OneD, 100.0, 3), base1 * 4.0);
        assert_eq!(
            wrapped.router_ms(0, 1, 100.0),
            m.router_ms(0, 1, 100.0),
            "crossing penalties pass through"
        );
        assert!(wrapped.covers(1, Topology::OneD));
        assert_eq!(
            m.intra_ms(1, Topology::OneD, 100.0, 3),
            base1,
            "underlying model unchanged"
        );
    }
}
