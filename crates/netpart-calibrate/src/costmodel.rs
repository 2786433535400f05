//! Communication cost models.
//!
//! The paper's central modelling device (§3): for each cluster `C_i` and
//! topology `τ`, a benchmarked cost function
//!
//! ```text
//! T_comm[C_i, τ](b, p) = c1 + c2·p + b·(c3 + c4·p)        (Eq. 1)
//! ```
//!
//! gives the average elapsed time a processor spends in one communication
//! cycle, with per-byte router (`T_router`) and coercion (`T_coerce`)
//! penalties for traffic crossing cluster boundaries. The total cost of a
//! multi-cluster configuration is the maximum over clusters plus the
//! crossing penalties (Eq. 2); bandwidth-limited topologies see the *total*
//! processor count instead of per-cluster counts.
//!
//! Two implementations:
//! * [`CalibratedCostModel`] — tables fitted against the simulator by
//!   `crate::fit` (the paper's offline benchmarking step);
//! * [`PaperCostModel`] — the exact constants printed in §6 of the paper,
//!   used to reproduce Table 1's partitioning decisions independently of
//!   simulator tuning.

use netpart_sim::FastMap;
use netpart_topology::Topology;

/// A fitted Eq. 1 instance: `ms(b, p) = c1 + c2·p + b·(c3 + c4·p)`,
/// milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FittedCost {
    /// Latency constant (ms).
    pub c1: f64,
    /// Latency per processor (ms).
    pub c2: f64,
    /// Bandwidth constant (ms per byte).
    pub c3: f64,
    /// Bandwidth per processor (ms per byte per processor).
    pub c4: f64,
    /// Goodness of the fit that produced these constants.
    pub r_squared: f64,
    /// Take the absolute value of the evaluation. The paper applies this
    /// fix where the fit is poor and can go negative ("it turns out that
    /// the absolute value of this quantity is a very good approximation to
    /// the actual cost").
    pub abs_fix: bool,
}

impl FittedCost {
    /// Evaluate Eq. 1 at `b` bytes per message and `p` processors.
    pub fn eval_ms(&self, bytes: f64, p: u32) -> f64 {
        let p = p as f64;
        let v = self.c1 + self.c2 * p + bytes * (self.c3 + self.c4 * p);
        if self.abs_fix {
            v.abs()
        } else {
            v.max(0.0)
        }
    }
}

/// A two-piece Eq. 1: one fit for the linear (below-knee) regime, a
/// second for the saturated regime. Produced by gated calibration
/// ([`crate::fit::calibrate_cluster_gated`]) when the single linear fit
/// fails its lack-of-fit gate — the shape a congested segment's cost
/// curve takes once offered load passes the knee of its utilization
/// curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiecewiseCost {
    /// Fit for `p < knee_p` (the paper's linear regime).
    pub below: FittedCost,
    /// Fit for `p >= knee_p` (the saturated regime).
    pub above: FittedCost,
    /// First processor count priced by the saturated piece.
    pub knee_p: u32,
}

impl PiecewiseCost {
    /// Evaluate at `b` bytes and `p` processors, using whichever piece
    /// covers `p`.
    pub fn eval_ms(&self, bytes: f64, p: u32) -> f64 {
        if p < self.knee_p {
            self.below.eval_ms(bytes, p)
        } else {
            self.above.eval_ms(bytes, p)
        }
    }
}

/// The typed result of a gated calibration: the linear Eq. 1 fit when it
/// passes the lack-of-fit gate, or the two-piece fallback when the sweep
/// crossed a congestion knee the linear shape cannot express.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostModel {
    /// The linear fit was adequate (or no gate was configured).
    Linear(FittedCost),
    /// The linear fit failed the gate; a two-piece fit replaced it.
    Piecewise(PiecewiseCost),
}

impl CostModel {
    /// Evaluate at `b` bytes and `p` processors.
    pub fn eval_ms(&self, bytes: f64, p: u32) -> f64 {
        match self {
            CostModel::Linear(f) => f.eval_ms(bytes, p),
            CostModel::Piecewise(pw) => pw.eval_ms(bytes, p),
        }
    }
}

/// A linear-in-bytes penalty: `ms(b) = a + k·b` (router forwarding,
/// format coercion).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinearCost {
    /// Constant term (ms).
    pub a: f64,
    /// Per-byte term (ms/byte).
    pub k: f64,
}

impl LinearCost {
    /// Evaluate at `b` bytes.
    pub fn eval_ms(&self, bytes: f64) -> f64 {
        (self.a + self.k * bytes).max(0.0)
    }
}

/// Interface the partitioner uses to estimate `T_comm` (Eq. 5) for any
/// processor configuration. Implementations provide per-cluster intra
/// costs and crossing penalties; the provided [`total_ms`] combines them
/// per Eq. 2.
///
/// [`total_ms`]: CommCostModel::total_ms
pub trait CommCostModel {
    /// Eq. 1 for `p` processors of cluster `cluster` exchanging `bytes`-
    /// byte messages in `topo`.
    fn intra_ms(&self, cluster: usize, topo: Topology, bytes: f64, p: u32) -> f64;

    /// Router penalty for traffic between two clusters.
    fn router_ms(&self, a: usize, b: usize, bytes: f64) -> f64;

    /// Data-format coercion penalty between two clusters.
    fn coerce_ms(&self, a: usize, b: usize, bytes: f64) -> f64;

    /// Whether this model can price `cluster` under `topo`. The planner
    /// checks this for every (cluster, topology) pair it is about to
    /// evaluate, turning a missing table entry into a typed error instead
    /// of a panic deep inside the partition search.
    fn covers(&self, _cluster: usize, _topo: Topology) -> bool {
        true
    }

    /// Eq. 2: the per-cycle communication cost of a configuration
    /// (`config[k]` = processors used from cluster k), in milliseconds.
    ///
    /// * one processor total → no neighbors, zero cost;
    /// * one active cluster → its intra cost;
    /// * several active clusters → max of per-cluster costs (each at
    ///   `P_i`, the form the paper uses in §6) plus the worst pairwise
    ///   router + coercion penalty. For bandwidth-limited
    ///   topologies every cluster is evaluated at the *total* processor
    ///   count, since those patterns cannot exploit per-segment bandwidth.
    fn total_ms(&self, config: &[u32], topo: Topology, bytes: f64) -> f64 {
        let total: u32 = config.iter().sum();
        if total <= 1 {
            return 0.0;
        }
        let active: Vec<usize> = (0..config.len()).filter(|&k| config[k] > 0).collect();
        if active.len() == 1 {
            let k = active[0];
            return self.intra_ms(k, topo, bytes, config[k]);
        }
        let mut worst_intra = 0.0f64;
        for &k in &active {
            let p = if topo.is_bandwidth_limited() {
                total
            } else {
                // A lone processor in a cluster still exchanges full-size
                // messages with its cross-router neighbor, so its segment
                // behaves like a two-station channel at minimum.
                config[k].max(2)
            };
            worst_intra = worst_intra.max(self.intra_ms(k, topo, bytes, p));
        }
        let mut worst_cross = 0.0f64;
        for (i, &a) in active.iter().enumerate() {
            for &b in &active[i + 1..] {
                worst_cross =
                    worst_cross.max(self.router_ms(a, b, bytes) + self.coerce_ms(a, b, bytes));
            }
        }
        worst_intra + worst_cross
    }
}

/// A borrowed model prices exactly as the model it borrows, so a planner
/// can hold a caller's tables without copying them.
impl<T: CommCostModel + ?Sized> CommCostModel for &T {
    fn intra_ms(&self, cluster: usize, topo: Topology, bytes: f64, p: u32) -> f64 {
        (**self).intra_ms(cluster, topo, bytes, p)
    }

    fn router_ms(&self, a: usize, b: usize, bytes: f64) -> f64 {
        (**self).router_ms(a, b, bytes)
    }

    fn coerce_ms(&self, a: usize, b: usize, bytes: f64) -> f64 {
        (**self).coerce_ms(a, b, bytes)
    }

    fn covers(&self, cluster: usize, topo: Topology) -> bool {
        (**self).covers(cluster, topo)
    }

    fn total_ms(&self, config: &[u32], topo: Topology, bytes: f64) -> f64 {
        (**self).total_ms(config, topo, bytes)
    }
}

/// Cost tables produced by calibration against the simulated testbed.
///
/// The tables are read on every probe of a plan's search, so they hash
/// with the simulator's [`FastMap`] rather than SipHash. Nothing depends
/// on their iteration order: the plan fingerprint sorts the entries first.
#[derive(Debug, Clone, Default)]
pub struct CalibratedCostModel {
    /// Eq. 1 constants per (cluster, topology).
    pub intra: FastMap<(usize, Topology), FittedCost>,
    /// Two-piece overrides per (cluster, topology), for a caller that
    /// carries a [`calibrate_cluster_gated`](crate::fit::calibrate_cluster_gated)
    /// fallback in a fixed model. Consulted before `intra`; no calibration
    /// entry point fills it.
    pub piecewise: FastMap<(usize, Topology), PiecewiseCost>,
    /// Router penalty per unordered cluster pair (stored with a ≤ b).
    pub router: FastMap<(usize, usize), LinearCost>,
    /// Coercion penalty per unordered cluster pair.
    pub coerce: FastMap<(usize, usize), LinearCost>,
}

fn key(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

impl CalibratedCostModel {
    /// Insert an intra-cluster fit.
    pub fn set_intra(&mut self, cluster: usize, topo: Topology, fit: FittedCost) {
        self.intra.insert((cluster, topo), fit);
    }

    /// Insert a router fit for a cluster pair.
    pub fn set_router(&mut self, a: usize, b: usize, cost: LinearCost) {
        self.router.insert(key(a, b), cost);
    }

    /// Insert a coercion fit for a cluster pair.
    pub fn set_coerce(&mut self, a: usize, b: usize, cost: LinearCost) {
        self.coerce.insert(key(a, b), cost);
    }
}

impl CommCostModel for CalibratedCostModel {
    fn covers(&self, cluster: usize, topo: Topology) -> bool {
        self.intra.contains_key(&(cluster, topo)) || self.piecewise.contains_key(&(cluster, topo))
    }

    fn intra_ms(&self, cluster: usize, topo: Topology, bytes: f64, p: u32) -> f64 {
        if p <= 1 && !topo.is_bandwidth_limited() {
            return 0.0;
        }
        if let Some(pw) = self.piecewise.get(&(cluster, topo)) {
            return pw.eval_ms(bytes, p);
        }
        self.intra
            .get(&(cluster, topo))
            .map(|f| f.eval_ms(bytes, p))
            .unwrap_or_else(|| panic!("no calibration for cluster {cluster} topology {topo}"))
    }

    fn router_ms(&self, a: usize, b: usize, bytes: f64) -> f64 {
        self.router
            .get(&key(a, b))
            .map(|c| c.eval_ms(bytes))
            .unwrap_or(0.0)
    }

    fn coerce_ms(&self, a: usize, b: usize, bytes: f64) -> f64 {
        self.coerce
            .get(&key(a, b))
            .map(|c| c.eval_ms(bytes))
            .unwrap_or(0.0)
    }
}

/// The cost model printed in §6 of the paper, measured on the real 1994
/// testbed (cluster 0 = SPARCstation 2, cluster 1 = Sun4 IPC, 1-D
/// topology, all units msec):
///
/// ```text
/// T_comm[C1, 1-D] ≈ (-0.0055 + 0.00283·P1)·b + 1.1·P1
/// T_comm[C2, 1-D] ≈ (-0.0123 + 0.00457·P2)·b + 1.9·P2     (|·| fix)
/// T_router[C1,C2] ≈ 0.0006·b
/// ```
///
/// Both machine classes are Sun4s, so no coercion applies. Feeding this
/// model to the partitioner must reproduce Table 1's decisions.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperCostModel;

impl CommCostModel for PaperCostModel {
    fn covers(&self, cluster: usize, topo: Topology) -> bool {
        cluster < 2 && topo == Topology::OneD
    }

    fn intra_ms(&self, cluster: usize, topo: Topology, bytes: f64, p: u32) -> f64 {
        assert_eq!(
            topo,
            Topology::OneD,
            "the paper published constants for the 1-D topology only"
        );
        if p <= 1 {
            return 0.0;
        }
        let p = p as f64;
        match cluster {
            0 => ((-0.0055 + 0.00283 * p) * bytes + 1.1 * p).abs(),
            1 => ((-0.0123 + 0.00457 * p) * bytes + 1.9 * p).abs(),
            _ => panic!("the paper's testbed has two clusters"),
        }
    }

    fn router_ms(&self, _a: usize, _b: usize, bytes: f64) -> f64 {
        0.0006 * bytes
    }

    fn coerce_ms(&self, _a: usize, _b: usize, _bytes: f64) -> f64 {
        0.0 // both clusters are Sun4s: same data format
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitted_cost_evaluates_eq1() {
        let f = FittedCost {
            c1: 1.0,
            c2: 2.0,
            c3: 0.01,
            c4: 0.001,
            r_squared: 1.0,
            abs_fix: false,
        };
        // 1 + 2·4 + 100·(0.01 + 0.001·4) = 9 + 1.4 = 10.4
        assert!((f.eval_ms(100.0, 4) - 10.4).abs() < 1e-12);
    }

    #[test]
    fn abs_fix_flips_negative_values() {
        let f = FittedCost {
            c1: 0.0,
            c2: 1.9,
            c3: -0.0123,
            c4: 0.00457,
            r_squared: 0.5,
            abs_fix: true,
        };
        // p=2, b=2400: (-0.0123 + 0.00914)·2400 + 3.8 = -3.784 → 3.784
        let v = f.eval_ms(2400.0, 2);
        assert!((v - 3.784).abs() < 1e-9, "{v}");
    }

    #[test]
    fn paper_model_matches_section6_numbers() {
        let m = PaperCostModel;
        // P1=6, b=4800 (N=1200): (−0.0055+0.01698)·4800 + 6.6 = 61.704
        let v = m.intra_ms(0, Topology::OneD, 4800.0, 6);
        assert!((v - 61.704).abs() < 1e-9, "{v}");
        // IPC at p=2 hits the abs fix: b=2400 → |−3.784| ≈ 3.78
        let v = m.intra_ms(1, Topology::OneD, 2400.0, 2);
        assert!((v - 3.784).abs() < 1e-9, "{v}");
        // router: 0.0006·4800 = 2.88
        assert!((m.router_ms(0, 1, 4800.0) - 2.88).abs() < 1e-12);
    }

    #[test]
    fn total_combines_per_eq2() {
        let m = PaperCostModel;
        // Single processor: free.
        assert_eq!(m.total_ms(&[1, 0], Topology::OneD, 2400.0), 0.0);
        // Single cluster: intra only.
        let single = m.total_ms(&[6, 0], Topology::OneD, 2400.0);
        assert!((single - m.intra_ms(0, Topology::OneD, 2400.0, 6)).abs() < 1e-12);
        // Both clusters: max + router (paper §6 combination).
        let both = m.total_ms(&[6, 4], Topology::OneD, 2400.0);
        let c1 = m.intra_ms(0, Topology::OneD, 2400.0, 6);
        let c2 = m.intra_ms(1, Topology::OneD, 2400.0, 4);
        assert!((both - (c1.max(c2) + 0.0006 * 2400.0)).abs() < 1e-12);
    }

    #[test]
    fn calibrated_model_lookup_and_defaults() {
        let mut m = CalibratedCostModel::default();
        m.set_intra(
            0,
            Topology::OneD,
            FittedCost {
                c1: 0.0,
                c2: 1.0,
                c3: 0.0,
                c4: 0.001,
                r_squared: 1.0,
                abs_fix: false,
            },
        );
        m.set_router(1, 0, LinearCost { a: 0.1, k: 0.0006 });
        assert!((m.intra_ms(0, Topology::OneD, 1000.0, 4) - (4.0 + 4.0)).abs() < 1e-12);
        // p=1 intra is free for non-broadcast.
        assert_eq!(m.intra_ms(0, Topology::OneD, 1000.0, 1), 0.0);
        // Router lookup is order-independent.
        assert!((m.router_ms(0, 1, 1000.0) - 0.7).abs() < 1e-12);
        // Missing coercion defaults to zero.
        assert_eq!(m.coerce_ms(0, 1, 1000.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "no calibration")]
    fn missing_intra_calibration_panics() {
        let m = CalibratedCostModel::default();
        let _ = m.intra_ms(0, Topology::Ring, 100.0, 4);
    }

    #[test]
    fn bandwidth_limited_uses_total_p() {
        let mut m = CalibratedCostModel::default();
        let f = FittedCost {
            c1: 0.0,
            c2: 1.0,
            c3: 0.0,
            c4: 0.0,
            r_squared: 1.0,
            abs_fix: false,
        };
        m.set_intra(0, Topology::Broadcast, f);
        m.set_intra(1, Topology::Broadcast, f);
        // 4 + 4 procs: each cluster evaluated at total p = 8 → cost 8.
        let v = m.total_ms(&[4, 4], Topology::Broadcast, 100.0);
        assert!((v - 8.0).abs() < 1e-12);
    }
}
