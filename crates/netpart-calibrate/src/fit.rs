//! The offline benchmarking procedure: sweep `(p, b)` grids of
//! communication cycles on the simulated testbed and fit Eq. 1 constants,
//! router penalties, and coercion penalties by least squares.
//!
//! This reproduces the paper's §3: "each communication function is
//! benchmarked using different p and b values to derive the appropriate
//! constants", executed against the simulator instead of real Sun4s.

use netpart_mmps::{Mmps, MmpsStats};
use netpart_model::{Budget, NetpartError, PartitionVector};
use netpart_spmd::{CycleEngine, NoProbe};
use netpart_topology::{PlacementStrategy, Topology};

use crate::bench_app::CommBench;
use crate::costmodel::{CalibratedCostModel, FittedCost, LinearCost};
use crate::linreg::least_squares;
use crate::testbed::Testbed;

/// Sweep parameters for calibration.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// Message sizes to benchmark (bytes).
    pub b_values: Vec<u32>,
    /// Communication cycles per grid point.
    pub cycles: u64,
    /// Leading cycles discarded as warmup (pipeline fill).
    pub warmup: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            b_values: vec![64, 256, 1024, 2048, 4096, 8192],
            cycles: 12,
            warmup: 2,
        }
    }
}

/// Measure the mean communication-cycle time (ms) for a processor
/// configuration exchanging `bytes`-byte messages in `topo`.
pub fn measure_cycle_ms(
    testbed: &Testbed,
    per_cluster: &[u32],
    topo: Topology,
    bytes: u32,
    cfg: &CalibrationConfig,
) -> Result<f64, NetpartError> {
    measure_cycle(testbed, per_cluster, topo, bytes, cfg).map(|(ms, _)| ms)
}

/// [`measure_cycle_ms`] plus the run's message-layer counters, which say
/// whether the time includes retransmissions.
///
/// Builds the testbed's network, then runs the benchmark on it. The
/// calibration sweeps run the same benchmark on a reset simulator each
/// sweep worker keeps instead of building one per point; a reset
/// simulator is a fresh build event for event, so either way gives the
/// same time and counters to the bit.
pub fn measure_cycle(
    testbed: &Testbed,
    per_cluster: &[u32],
    topo: Topology,
    bytes: u32,
    cfg: &CalibrationConfig,
) -> Result<(f64, MmpsStats), NetpartError> {
    Rig::new(testbed).measure(per_cluster, topo, bytes, cfg)
}

/// One simulator of a testbed, kept warm across measurements: built by
/// the first, [reset](netpart_mmps::Mmps::reset) by each later one. A
/// calibration sweep worker keeps one per testbed it measures on.
struct Rig<'t> {
    testbed: &'t Testbed,
    mmps: Option<Mmps>,
}

impl<'t> Rig<'t> {
    fn new(testbed: &'t Testbed) -> Rig<'t> {
        Rig {
            testbed,
            mmps: None,
        }
    }

    /// [`measure_cycle`] on this rig's simulator.
    fn measure(
        &mut self,
        per_cluster: &[u32],
        topo: Topology,
        bytes: u32,
        cfg: &CalibrationConfig,
    ) -> Result<(f64, MmpsStats), NetpartError> {
        let p: u32 = per_cluster.iter().sum();
        if p <= 1 {
            return Ok((0.0, MmpsStats::default()));
        }
        let nodes = self
            .testbed
            .place(per_cluster, PlacementStrategy::ClusterContiguous)?;
        let mmps = match self.mmps.take() {
            Some(mut kept) => {
                kept.reset();
                kept
            }
            None => self.testbed.simulator()?,
        };
        let mmps = self.mmps.insert(mmps);
        let mut app = CommBench::new(topo, p, bytes, cfg.cycles);
        let report = CycleEngine::run(
            mmps,
            &nodes,
            &mut app,
            &PartitionVector::equal(p as u64, p as usize),
            false,
            &mut NoProbe,
            None,
        )?;
        let usable: Vec<f64> = report
            .per_cycle
            .iter()
            .skip(cfg.warmup)
            .map(|d| d.as_millis_f64())
            .collect();
        let ms = if usable.is_empty() {
            report.mean_cycle().as_millis_f64()
        } else {
            usable.iter().sum::<f64>() / usable.len() as f64
        };
        Ok((ms, report.mmps))
    }

    /// [`measure_cycle_ms`] on this rig's simulator.
    fn cycle_ms(
        &mut self,
        per_cluster: &[u32],
        topo: Topology,
        bytes: u32,
        cfg: &CalibrationConfig,
    ) -> Result<f64, NetpartError> {
        self.measure(per_cluster, topo, bytes, cfg)
            .map(|(ms, _)| ms)
    }
}

/// A swept `(p, b)` grid paired with the measured cycle time per point.
type SweptGrid = (Vec<(u32, u32)>, Vec<f64>);

/// Run the `(p, b)` benchmark grid of every `(cluster, topology)` job —
/// `p ∈ 2..=capacity` × the configured message sizes, p-major — as one
/// sweep, and return each job's grid with its measured cycle times, in
/// job order.
///
/// A grid point's cost grows with `p·b` (on a 16-node cluster the
/// `b = 8192`, `p ≥ 14` points cost ten times any other), so the sweep
/// hands points out heaviest first: the cheap ones fill in behind the
/// expensive ones instead of each job ending on its heaviest points with
/// a worker idle. Results come back by index, so every grid is exactly
/// what a job-by-job loop builds. Each point checks `budget` first.
///
/// Errors come in the order a job-by-job loop meets them: each job's
/// entry is its grid or its first failed point in `(p, b)` order, and the
/// first job on a cluster too small to communicate ends the list with
/// that error — capacities are checked before anything runs, and no job
/// after it is swept.
fn sweep_cluster_grids(
    testbed: &Testbed,
    jobs: &[(usize, Topology)],
    cfg: &CalibrationConfig,
    budget: &Budget,
) -> Vec<Result<SweptGrid, NetpartError>> {
    let too_small = jobs
        .iter()
        .position(|&(cluster, _)| testbed.clusters[cluster].nodes < 2);
    let runnable = &jobs[..too_small.unwrap_or(jobs.len())];
    let grids: Vec<Vec<(u32, u32)>> = runnable
        .iter()
        .map(|&(cluster, _)| {
            (2..=testbed.clusters[cluster].nodes)
                .flat_map(|p| cfg.b_values.iter().map(move |&b| (p, b)))
                .collect()
        })
        .collect();
    let cells: Vec<(usize, Topology, u32, u32)> = runnable
        .iter()
        .zip(&grids)
        .flat_map(|(&(cluster, topo), grid)| grid.iter().map(move |&(p, b)| (cluster, topo, p, b)))
        .collect();
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(u64::from(cells[i].2) * u64::from(cells[i].3)));
    let mut measured = netpart_sweep::sweep_with(
        order,
        || Rig::new(testbed),
        |rig, i| {
            let (cluster, topo, p, b) = cells[i];
            let mut config = vec![0u32; testbed.num_clusters()];
            config[cluster] = p;
            // Cooperative deadline checkpoint: each grid point is a full
            // simulation, so an expired request stops here instead of
            // finishing the sweep.
            let time = budget
                .check()
                .and_then(|()| rig.cycle_ms(&config, topo, b, cfg));
            (i, time)
        },
    );
    measured.sort_unstable_by_key(|&(i, _)| i);
    let mut times = measured.into_iter().map(|(_, time)| time);
    let mut swept: Vec<Result<SweptGrid, NetpartError>> = grids
        .into_iter()
        .map(|grid| {
            // Take the job's whole run before checking it, so a failed
            // point cannot leave the next job's results misaligned.
            let y: Vec<_> = times.by_ref().take(grid.len()).collect();
            Ok((grid, y.into_iter().collect::<Result<_, _>>()?))
        })
        .collect();
    if let Some(j) = too_small {
        let (cluster, capacity) = (jobs[j].0, testbed.clusters[jobs[j].0].nodes);
        swept.push(Err(NetpartError::Calibration(format!(
            "cluster {cluster} has {capacity} node(s); need at least two to communicate"
        ))));
    }
    swept
}

/// Fit Eq. 1 to measured `(p, b)` points: `T = c1 + c2·p + b·(c3 + c4·p)`.
/// `None` when the system is singular.
pub fn fit_eq1(points: &[(u32, u32)], y: &[f64]) -> Option<FittedCost> {
    let rows: Vec<Vec<f64>> = points
        .iter()
        .map(|&(p, b)| vec![1.0, p as f64, b as f64, p as f64 * b as f64])
        .collect();
    let fit = least_squares(&rows, y)?;
    Some(FittedCost {
        c1: fit.coefficients[0],
        c2: fit.coefficients[1],
        c3: fit.coefficients[2],
        c4: fit.coefficients[3],
        r_squared: fit.r_squared,
        abs_fix: true, // same guard the paper applies to poor small-p fits
    })
}

const SINGULAR: &str = "calibration sweep produced a singular system";

/// Sweep `excess_ms` over the configured message sizes (checking `budget`
/// before each), fit the excesses as `a + k·b`, and clamp both constants at
/// 0: the shape of the router and the coercion penalty alike. Each sweep
/// worker makes its simulators with `rigs` and measures every size it
/// claims on them.
fn fit_excess<S>(
    cfg: &CalibrationConfig,
    budget: &Budget,
    what: &str,
    rigs: impl Fn() -> S + Sync,
    excess_ms: impl Fn(&mut S, u32) -> Result<f64, NetpartError> + Sync,
) -> Result<LinearCost, NetpartError> {
    let excesses = netpart_sweep::sweep_with(cfg.b_values.clone(), rigs, |rigs, b| {
        budget.check()?;
        Ok::<f64, NetpartError>(excess_ms(rigs, b)?.max(0.0))
    });
    let excesses = excesses.into_iter().collect::<Result<Vec<f64>, _>>()?;
    let rows: Vec<Vec<f64>> = cfg.b_values.iter().map(|&b| vec![1.0, b as f64]).collect();
    let fit = least_squares(&rows, &excesses).ok_or_else(|| {
        NetpartError::Calibration(format!("{what} sweep produced a singular system"))
    })?;
    Ok(LinearCost {
        a: fit.coefficients[0].max(0.0),
        k: fit.coefficients[1].max(0.0),
    })
}

/// One rank on each of clusters `ca` and `cb`.
fn one_pair(testbed: &Testbed, ca: usize, cb: usize) -> Vec<u32> {
    let mut config = vec![0u32; testbed.num_clusters()];
    config[ca] = 1;
    config[cb] = 1;
    config
}

/// Benchmark the router penalty between two clusters: the per-byte excess
/// of a one-pair cross-cluster cycle over the worse of the two intra-
/// cluster one-pair cycles, fitted as `a + k·b`.
fn calibrate_router(
    testbed: &Testbed,
    ca: usize,
    cb: usize,
    cfg: &CalibrationConfig,
    budget: &Budget,
) -> Result<LinearCost, NetpartError> {
    // The penalty belongs to the *path*, not the machines, so measure it
    // with identical hosts on both sides: clone cluster `ca`'s machine
    // class onto cluster `cb`'s segment (this also unifies data formats,
    // neutralizing coercion — that penalty is fitted separately). The
    // per-byte excess of the cross-segment pair over the intra-segment
    // pair is then exactly the router's contribution.
    let mut tb = testbed.clone();
    tb.clusters[cb].proc_type = tb.clusters[ca].proc_type.clone();
    let cross_cfg = one_pair(&tb, ca, cb);
    let mut intra_cfg = vec![0u32; tb.num_clusters()];
    intra_cfg[ca] = 2;
    // Both configurations run on the one network of `tb`.
    fit_excess(
        cfg,
        budget,
        "router",
        || Rig::new(&tb),
        |rig, b| {
            let cross = rig.cycle_ms(&cross_cfg, Topology::OneD, b, cfg)?;
            Ok(cross - rig.cycle_ms(&intra_cfg, Topology::OneD, b, cfg)?)
        },
    )
}

/// Benchmark the coercion penalty between two clusters: the per-byte
/// excess of a cross-format exchange over the identical exchange with
/// formats unified.
fn calibrate_coerce(
    testbed: &Testbed,
    ca: usize,
    cb: usize,
    cfg: &CalibrationConfig,
    budget: &Budget,
) -> Result<LinearCost, NetpartError> {
    if testbed.clusters[ca].proc_type.data_format == testbed.clusters[cb].proc_type.data_format {
        return Ok(LinearCost::default());
    }
    let mut unified = testbed.clone();
    unified.clusters[cb].proc_type.data_format = unified.clusters[ca].proc_type.data_format;
    let cc = one_pair(testbed, ca, cb);
    fit_excess(
        cfg,
        budget,
        "coercion",
        || (Rig::new(testbed), Rig::new(&unified)),
        |(with, without), b| {
            let with = with.cycle_ms(&cc, Topology::OneD, b, cfg)?;
            Ok(with - without.cycle_ms(&cc, Topology::OneD, b, cfg)?)
        },
    )
}

/// Run the full offline procedure: every cluster × every requested
/// topology, plus router and coercion fits for every cluster pair.
///
/// The router penalty belongs to the *path*, and on a hierarchical fabric
/// its length varies per pair: a cross-subtree exchange crosses several
/// store-and-forward routers where an adjacent pair crosses one. Pairs are
/// therefore grouped by router-hop distance (from the testbed's fabric
/// graph) and one representative pair per distance is benchmarked; its
/// fitted `a + k·b` is shared by every pair at that distance. This is what
/// makes Eq. 1 hop-aware, and it also keeps the sweep count proportional
/// to the number of *distinct distances* instead of the O(K²) pair count.
/// On the paper's single-router testbed every pair sits at distance 1, so
/// the procedure is byte-identical to benchmarking each pair directly.
/// Coercion is a property of the endpoint formats, not the path, and
/// stays per-pair.
pub fn calibrate_testbed(
    testbed: &Testbed,
    topologies: &[Topology],
    cfg: &CalibrationConfig,
) -> Result<CalibratedCostModel, NetpartError> {
    calibrate_testbed_budgeted(testbed, topologies, cfg, &Budget::unlimited())
}

/// [`calibrate_testbed`] under a cooperative [`Budget`]: every sweep
/// checks the budget before each simulated grid point, so an expired
/// plan-server request abandons the procedure at the next point instead
/// of finishing hours of benchmarking.
pub(crate) fn calibrate_testbed_budgeted(
    testbed: &Testbed,
    topologies: &[Topology],
    cfg: &CalibrationConfig,
    budget: &Budget,
) -> Result<CalibratedCostModel, NetpartError> {
    if testbed.num_clusters() == 0 {
        return Err(NetpartError::EmptyTestbed);
    }
    // A partitioned wiring fails here, before any sweep is paid for.
    let hops = testbed.cluster_hops()?;
    let mut model = CalibratedCostModel::default();
    // Every cluster × topology Eq. 1 fit, `T = c1 + c2·p + b·(c3 + c4·p)`,
    // over one sweep of all their grid points.
    let jobs: Vec<(usize, Topology)> = (0..testbed.num_clusters())
        .flat_map(|cluster| topologies.iter().map(move |&topo| (cluster, topo)))
        .collect();
    for (&(cluster, topo), swept) in jobs
        .iter()
        .zip(sweep_cluster_grids(testbed, &jobs, cfg, budget))
    {
        let (grid, y) = swept?;
        let fit = fit_eq1(&grid, &y).ok_or_else(|| NetpartError::Calibration(SINGULAR.into()))?;
        model.set_intra(cluster, topo, fit);
    }
    let mut by_distance: std::collections::BTreeMap<u32, Vec<(usize, usize)>> =
        std::collections::BTreeMap::new();
    for (a, row) in hops.iter().enumerate() {
        for (b, &d) in row.iter().enumerate().skip(a + 1) {
            by_distance.entry(d).or_default().push((a, b));
        }
    }
    for pairs in by_distance.values() {
        // Lexicographically first pair at this distance represents it.
        let (ra, rb) = pairs[0];
        let fit = calibrate_router(testbed, ra, rb, cfg, budget)?;
        for &(a, b) in pairs {
            model.set_router(a, b, fit);
        }
    }
    for a in 0..testbed.num_clusters() {
        for b in a + 1..testbed.num_clusters() {
            model.set_coerce(a, b, calibrate_coerce(testbed, a, b, cfg, budget)?);
        }
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::PiecewiseCost;

    fn quick_cfg() -> CalibrationConfig {
        CalibrationConfig {
            b_values: vec![256, 1024, 4096],
            cycles: 6,
            warmup: 1,
        }
    }

    /// The two-piece model must degenerate to the plain linear Eq. 1
    /// below the knee: on a sweep that is *exactly* linear in the
    /// sub-knee regime, the below piece recovers the generating
    /// constants and every sub-knee prediction matches the pure linear
    /// model to 1e-9 — splitting at the knee must not let saturated
    /// samples contaminate the linear piece.
    #[test]
    fn piecewise_matches_linear_below_the_knee() {
        let truth = FittedCost {
            c1: 1.25,
            c2: 0.4,
            c3: 0.0008,
            c4: 0.0002,
            r_squared: 1.0,
            abs_fix: false,
        };
        let knee_p = 6u32;
        let (mut grid, mut y) = (Vec::new(), Vec::new());
        for p in 2..=9u32 {
            for b in [64u32, 1024, 4096] {
                grid.push((p, b));
                let base = truth.eval_ms(b as f64, p);
                // Above the knee the channel saturates: a superlinear
                // penalty the single Eq. 1 shape cannot express.
                let t = if p < knee_p {
                    base
                } else {
                    base + 3.0 * ((p - knee_p + 1) as f64).powi(2)
                };
                y.push(t);
            }
        }
        let (below, above): (Vec<usize>, Vec<usize>) =
            (0..grid.len()).partition(|&i| grid[i].0 < knee_p);
        let pick = |idx: &[usize]| -> (Vec<(u32, u32)>, Vec<f64>) {
            (
                idx.iter().map(|&i| grid[i]).collect(),
                idx.iter().map(|&i| y[i]).collect(),
            )
        };
        let (below_pts, below_y) = pick(&below);
        let (above_pts, above_y) = pick(&above);
        let pw = PiecewiseCost {
            below: fit_eq1(&below_pts, &below_y).expect("sub-knee fit"),
            above: fit_eq1(&above_pts, &above_y).expect("saturated fit"),
            knee_p,
        };
        for p in 2..knee_p {
            for b in [64u32, 700, 1024, 4096, 8000] {
                let lin = truth.eval_ms(b as f64, p);
                let piece = pw.eval_ms(b as f64, p);
                assert!(
                    (lin - piece).abs() < 1e-9,
                    "p={p} b={b}: linear {lin} vs piecewise {piece}"
                );
            }
        }
        // And the saturated piece really is different — the split carried
        // information, it did not just duplicate the linear model.
        let p_above = knee_p + 2;
        assert!(
            (pw.eval_ms(1024.0, p_above) - truth.eval_ms(1024.0, p_above)).abs() > 1.0,
            "saturated piece must diverge from the linear extrapolation"
        );
    }

    #[test]
    fn cycle_time_grows_with_p_and_b() {
        let tb = Testbed::paper();
        let cfg = quick_cfg();
        let t_2_small = measure_cycle_ms(&tb, &[2, 0], Topology::OneD, 512, &cfg).unwrap();
        let t_6_small = measure_cycle_ms(&tb, &[6, 0], Topology::OneD, 512, &cfg).unwrap();
        let t_2_big = measure_cycle_ms(&tb, &[2, 0], Topology::OneD, 8192, &cfg).unwrap();
        assert!(t_2_small > 0.0);
        assert!(t_6_small > t_2_small, "{t_6_small} vs {t_2_small}");
        assert!(t_2_big > t_2_small, "{t_2_big} vs {t_2_small}");
    }

    #[test]
    fn fitted_constants_predict_measurements() {
        let tb = Testbed::paper();
        let cfg = quick_cfg();
        let swept = sweep_cluster_grids(&tb, &[(0, Topology::OneD)], &cfg, &Budget::unlimited());
        let (grid, y) = swept.into_iter().next().unwrap().unwrap();
        let fit = fit_eq1(&grid, &y).unwrap();
        assert!(fit.r_squared > 0.95, "fit quality {}", fit.r_squared);
        // Out-of-sample check: predict p=5, b=2048 within 25%.
        let measured = measure_cycle_ms(&tb, &[5, 0], Topology::OneD, 2048, &cfg).unwrap();
        let predicted = fit.eval_ms(2048.0, 5);
        let rel = (measured - predicted).abs() / measured;
        assert!(rel < 0.25, "measured {measured} predicted {predicted}");
    }

    #[test]
    fn ipc_cluster_costs_more_than_sparc2() {
        // The paper: "the cost functions for different clusters may be
        // different due to processor speed differences". The difference
        // shows in the host-bound regime (small messages, where per-frame
        // protocol work dominates the wire): the IPC's slower stack makes
        // its cluster's cycles dearer. At large b the shared 10 Mbit/s
        // wire dominates both clusters equally.
        let tb = Testbed::paper();
        let cfg = quick_cfg();
        let sparc = measure_cycle_ms(&tb, &[4, 0], Topology::OneD, 64, &cfg).unwrap();
        let ipc = measure_cycle_ms(&tb, &[0, 4], Topology::OneD, 64, &cfg).unwrap();
        assert!(
            ipc > sparc * 1.2,
            "ipc {ipc} should clearly exceed sparc {sparc} at small b"
        );
    }

    #[test]
    fn router_penalty_is_positive_and_per_byte() {
        let tb = Testbed::paper();
        let cfg = quick_cfg();
        let r = calibrate_router(&tb, 0, 1, &cfg, &Budget::unlimited()).unwrap();
        assert!(r.k > 0.0, "router per-byte must be positive: {r:?}");
        // Same order of magnitude as the paper's 0.0006 ms/byte.
        assert!(r.k > 0.0001 && r.k < 0.01, "per-byte {k}", k = r.k);
    }

    #[test]
    fn multi_hop_pairs_fit_a_larger_router_penalty() {
        // Tree of arity 2 over 4 clusters: (0,1) share a router (1 hop),
        // (0,2) cross the whole hierarchy (3 hops). Each store-and-forward
        // crossing adds per-byte work, so the fitted penalty must grow
        // with distance.
        use crate::Wiring;
        let tb = crate::Testbed::synthetic(4, 2, 1.2).with_wiring(Wiring::Tree { arity: 2 });
        let cfg = quick_cfg();
        let near = calibrate_router(&tb, 0, 1, &cfg, &Budget::unlimited()).unwrap();
        let far = calibrate_router(&tb, 0, 2, &cfg, &Budget::unlimited()).unwrap();
        assert!(
            far.eval_ms(4096.0) > near.eval_ms(4096.0) * 1.5,
            "3-hop penalty {far:?} should clearly exceed 1-hop {near:?}"
        );
    }

    #[test]
    fn calibration_groups_router_fits_by_hop_distance() {
        use crate::Wiring;
        let tb = crate::Testbed::synthetic(4, 3, 1.2).with_wiring(Wiring::Tree { arity: 2 });
        let cfg = quick_cfg();
        let model = calibrate_testbed(&tb, &[Topology::OneD], &cfg).unwrap();
        // Same distance → identical shared fit: (0,1) and (2,3) are both
        // 1 hop; (0,2), (0,3), (1,2), (1,3) are all 3 hops.
        assert_eq!(model.router[&(0, 1)], model.router[&(2, 3)]);
        assert_eq!(model.router[&(0, 2)], model.router[&(1, 3)]);
        use crate::CommCostModel;
        assert!(
            model.router_ms(0, 2, 4096.0) > model.router_ms(0, 1, 4096.0),
            "deeper pairs must be charged more"
        );
    }

    /// Regression: the hop matrix was computed after every intra sweep, so
    /// a partitioned wiring under an expired budget reported the deadline,
    /// not the wiring it could have reported before sweeping anything.
    #[test]
    fn a_partitioned_wiring_fails_before_any_sweep() {
        use crate::Wiring;
        let tb = Testbed::synthetic(3, 2, 1.2).with_wiring(Wiring::Custom(vec![vec![0, 1]]));
        let budget = Budget::deadline_ms(0.0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let err =
            calibrate_testbed_budgeted(&tb, &[Topology::OneD], &quick_cfg(), &budget).unwrap_err();
        assert!(
            matches!(err, NetpartError::InvalidFabric(_)),
            "expected InvalidFabric, got {err:?}"
        );
    }

    /// The per-(cluster, topology) loop the intra fits ran as before they
    /// became one heaviest-first sweep, kept as the oracle: each job's
    /// grid swept on its own in grid order and fitted before the next job
    /// starts, stopping at the first error.
    fn per_job_oracle(
        testbed: &Testbed,
        topologies: &[Topology],
        cfg: &CalibrationConfig,
    ) -> Result<CalibratedCostModel, NetpartError> {
        let mut model = CalibratedCostModel::default();
        for cluster in 0..testbed.num_clusters() {
            for &topo in topologies {
                let capacity = testbed.clusters[cluster].nodes;
                if capacity < 2 {
                    return Err(NetpartError::Calibration(format!(
                        "cluster {cluster} has {capacity} node(s); need at least two to communicate"
                    )));
                }
                let grid: Vec<(u32, u32)> = (2..=capacity)
                    .flat_map(|p| cfg.b_values.iter().map(move |&b| (p, b)))
                    .collect();
                let times = netpart_sweep::sweep(grid.clone(), |(p, b)| {
                    let mut config = vec![0u32; testbed.num_clusters()];
                    config[cluster] = p;
                    measure_cycle_ms(testbed, &config, topo, b, cfg)
                });
                let y = times.into_iter().collect::<Result<Vec<f64>, _>>()?;
                let fit =
                    fit_eq1(&grid, &y).ok_or_else(|| NetpartError::Calibration(SINGULAR.into()))?;
                model.set_intra(cluster, topo, fit);
            }
        }
        Ok(model)
    }

    /// A tree testbed whose clusters hold `nodes[k]` machines each.
    fn uneven_tree(nodes: &[u32]) -> Testbed {
        let mut tb =
            Testbed::synthetic(nodes.len(), 2, 1.15).with_wiring(crate::Wiring::Tree { arity: 2 });
        for (spec, &n) in tb.clusters.iter_mut().zip(nodes) {
            spec.nodes = n;
        }
        tb
    }

    fn bits(f: &FittedCost) -> [u64; 5] {
        [f.c1, f.c2, f.c3, f.c4, f.r_squared].map(f64::to_bits)
    }

    #[test]
    fn one_sweep_fits_what_the_per_job_loop_fits() {
        let tb = uneven_tree(&[5, 3, 6, 4]);
        let topologies = [Topology::OneD, Topology::Ring];
        let cfg = quick_cfg();
        let oracle = per_job_oracle(&tb, &topologies, &cfg).unwrap();
        assert_eq!(oracle.intra.len(), 8);
        for threads in [1, 4] {
            netpart_sweep::set_threads(threads);
            let model = calibrate_testbed(&tb, &topologies, &cfg);
            netpart_sweep::set_threads(0);
            let model = model.unwrap();
            assert_eq!(model.intra.len(), oracle.intra.len());
            for (key, fit) in &oracle.intra {
                assert_eq!(
                    bits(&model.intra[key]),
                    bits(fit),
                    "{key:?} at {threads} threads"
                );
            }
        }
    }

    /// The whole procedure with a freshly built network per measurement
    /// (`measure_cycle_ms`): what `calibrate_testbed` computed before each
    /// sweep worker kept one simulator per testbed and reset it per point,
    /// kept as the oracle for that reuse.
    fn fresh_build_oracle(
        testbed: &Testbed,
        topologies: &[Topology],
        cfg: &CalibrationConfig,
    ) -> CalibratedCostModel {
        let ms = |tb: &Testbed, config: &[u32], topo, b| {
            measure_cycle_ms(tb, config, topo, b, cfg).expect("measure")
        };
        let k = testbed.num_clusters();
        let mut model = CalibratedCostModel::default();
        for cluster in 0..k {
            for &topo in topologies {
                let grid: Vec<(u32, u32)> = (2..=testbed.clusters[cluster].nodes)
                    .flat_map(|p| cfg.b_values.iter().map(move |&b| (p, b)))
                    .collect();
                let y: Vec<f64> = grid
                    .iter()
                    .map(|&(p, b)| {
                        let mut config = vec![0u32; k];
                        config[cluster] = p;
                        ms(testbed, &config, topo, b)
                    })
                    .collect();
                model.set_intra(cluster, topo, fit_eq1(&grid, &y).expect("fit"));
            }
        }
        let hops = testbed.cluster_hops().expect("hops");
        let mut by_distance = std::collections::BTreeMap::<u32, Vec<(usize, usize)>>::new();
        for (a, row) in hops.iter().enumerate() {
            for (b, &d) in row.iter().enumerate().skip(a + 1) {
                by_distance.entry(d).or_default().push((a, b));
            }
        }
        let excess = |what, f: &(dyn Fn(u32) -> f64 + Sync)| {
            let unlimited = Budget::unlimited();
            fit_excess(cfg, &unlimited, what, || (), |(), b| Ok(f(b))).expect("excess fit")
        };
        for pairs in by_distance.values() {
            let (ca, cb) = pairs[0];
            let mut tb = testbed.clone();
            tb.clusters[cb].proc_type = tb.clusters[ca].proc_type.clone();
            let mut intra = vec![0u32; k];
            intra[ca] = 2;
            let cross = one_pair(&tb, ca, cb);
            let fit = excess("router", &|b| {
                ms(&tb, &cross, Topology::OneD, b) - ms(&tb, &intra, Topology::OneD, b)
            });
            for &(a, b) in pairs {
                model.set_router(a, b, fit);
            }
        }
        for a in 0..k {
            for b in a + 1..k {
                let format = |c: usize| testbed.clusters[c].proc_type.data_format;
                let fit = if format(a) == format(b) {
                    LinearCost::default()
                } else {
                    let mut unified = testbed.clone();
                    unified.clusters[b].proc_type.data_format = format(a);
                    let cc = one_pair(testbed, a, b);
                    excess("coercion", &|bytes| {
                        ms(testbed, &cc, Topology::OneD, bytes)
                            - ms(&unified, &cc, Topology::OneD, bytes)
                    })
                };
                model.set_coerce(a, b, fit);
            }
        }
        model
    }

    fn linear_bits(c: &LinearCost) -> [u64; 2] {
        [c.a, c.k].map(f64::to_bits)
    }

    /// Every constant the reused simulators fit is the fresh-build
    /// oracle's to the bit: intra fits on the paper testbed under four
    /// topologies, coercion on the metasystem's three data formats, and
    /// router fits at two hop distances on a small tree, at one and two
    /// sweep threads.
    #[test]
    fn reused_simulators_fit_what_fresh_builds_fit() {
        let cfg = quick_cfg();
        let four = [
            Topology::OneD,
            Topology::Ring,
            Topology::Tree,
            Topology::Broadcast,
        ];
        let cases = [
            (Testbed::paper(), &four[..]),
            (Testbed::metasystem(), &four[..1]),
            (uneven_tree(&[3, 4, 3, 3]), &four[..1]),
        ];
        for (tb, topologies) in &cases {
            let oracle = fresh_build_oracle(tb, topologies, &cfg);
            for threads in [1, 2] {
                netpart_sweep::set_threads(threads);
                let model = calibrate_testbed(tb, topologies, &cfg);
                netpart_sweep::set_threads(0);
                let model = model.expect("calibrate");
                let at = format!("{} clusters at {threads} threads", tb.num_clusters());
                assert_eq!(model.intra.len(), oracle.intra.len(), "{at}");
                for (key, fit) in &oracle.intra {
                    assert_eq!(bits(&model.intra[key]), bits(fit), "intra {key:?}, {at}");
                }
                for (table, want, got) in [
                    ("router", &oracle.router, &model.router),
                    ("coerce", &oracle.coerce, &model.coerce),
                ] {
                    assert_eq!(got.len(), want.len(), "{table}, {at}");
                    for (key, fit) in want {
                        assert_eq!(
                            linear_bits(&got[key]),
                            linear_bits(fit),
                            "{table} {key:?}, {at}"
                        );
                    }
                }
            }
        }
        // The cases cover what they claim to.
        let distances: std::collections::BTreeSet<u32> = cases[2]
            .0
            .cluster_hops()
            .expect("hops")
            .concat()
            .into_iter()
            .collect();
        assert_eq!(
            distances.len(),
            3,
            "0 plus two router distances: {distances:?}"
        );
        assert!(fresh_build_oracle(&cases[1].0, &four[..1], &cfg)
            .coerce
            .values()
            .any(|c| c.k > 0.0));
    }

    #[test]
    fn one_sweep_reports_the_per_job_loops_first_error() {
        // Cluster 2 has one node: the capacity error, after clusters 0
        // and 1 were fitted. With cluster 1 down to two nodes its grid
        // has one `p` and its fit is singular — that error comes first.
        for nodes in [[3, 4, 1, 5], [3, 2, 1, 5]] {
            let tb = uneven_tree(&nodes);
            let want = per_job_oracle(&tb, &[Topology::OneD], &quick_cfg()).unwrap_err();
            let got = calibrate_testbed(&tb, &[Topology::OneD], &quick_cfg()).unwrap_err();
            assert!(matches!(got, NetpartError::Calibration(_)), "{got:?}");
            assert_eq!(got.to_string(), want.to_string(), "{nodes:?}");
        }
    }

    /// The 8 KB one-segment exchange at 13–16 ranks, characterized. From
    /// 14 ranks a round trip queues longer than MMPS's size-scaled first
    /// timeout (100 ms + 60 µs/B ≈ 592 ms). Once a pair has a round-trip
    /// sample its timeout follows the queue, so what still retransmits is
    /// first contact: messages that leave before their pair has a sample
    /// — 139 re-sends at p = 16, with nothing lost. The exact counts are
    /// pinned so a transport change that moves them shows here.
    #[test]
    fn eight_kb_one_segment_retransmissions_by_rank_count() {
        let tb = Testbed::synthetic(16, 16, 1.15).with_wiring(crate::Wiring::Tree { arity: 4 });
        let cfg = CalibrationConfig::default();
        let got: Vec<_> = (13..=16)
            .map(|p| {
                let mut config = vec![0u32; tb.num_clusters()];
                config[0] = p;
                let (_, stats) = measure_cycle(&tb, &config, Topology::OneD, 8192, &cfg).unwrap();
                (stats.retransmissions, stats.datagrams_dropped)
            })
            .collect();
        assert_eq!(got, [(0, 0), (2, 0), (6, 0), (139, 0)]);
    }

    /// Host time of calibration grid points on a freshly built network
    /// against the same points on one reset simulator: `calib256`'s tree
    /// (16 clusters of 16 on a tree of arity 4), cluster 0's default grid,
    /// each point run both ways in alternating order and checked equal.
    /// Informational, no gate: prints both medians over the rounds and
    /// their ratio. Run with
    /// `cargo test --release -p netpart-calibrate calibration_reuse_microbench -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing, run by hand or by the CI timings step"]
    fn calibration_reuse_microbench() {
        use std::time::Instant;
        let tb = Testbed::synthetic(16, 16, 1.15).with_wiring(crate::Wiring::Tree { arity: 4 });
        let cfg = CalibrationConfig::default();
        let grid: Vec<(u32, u32)> = (2..=16u32)
            .flat_map(|p| cfg.b_values.iter().map(move |&b| (p, b)))
            .collect();
        let mut rig = Rig::new(&tb);
        let (mut fresh_s, mut reset_s) = (Vec::new(), Vec::new());
        for round in 0..7 {
            let (mut fresh, mut reset) = (0.0, 0.0);
            for (i, &(p, b)) in grid.iter().enumerate() {
                let mut config = vec![0u32; tb.num_clusters()];
                config[0] = p;
                let mut timed = |reuse: bool| {
                    let t0 = Instant::now();
                    let out = if reuse {
                        rig.measure(&config, Topology::OneD, b, &cfg)
                    } else {
                        measure_cycle(&tb, &config, Topology::OneD, b, &cfg)
                    };
                    let (ms, stats) = out.expect("grid point");
                    (t0.elapsed().as_secs_f64(), (ms.to_bits(), stats))
                };
                let ((tf, f), (tr, r)) = if (round + i) % 2 == 0 {
                    let f = timed(false);
                    (f, timed(true))
                } else {
                    let r = timed(true);
                    (timed(false), r)
                };
                assert_eq!(f, r, "p={p} b={b}: reset point differs from fresh build");
                fresh += tf;
                reset += tr;
            }
            fresh_s.push(fresh);
            reset_s.push(reset);
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (fresh, reset) = (median(&mut fresh_s), median(&mut reset_s));
        println!(
            "calibration grid, {} points x 7 rounds: fresh build {:.1} ms, reset {:.1} ms, \
             reset/fresh {:.3}",
            grid.len(),
            fresh * 1e3,
            reset * 1e3,
            reset / fresh
        );
    }

    #[test]
    fn coercion_zero_for_same_format() {
        let tb = Testbed::paper();
        let cfg = quick_cfg();
        let c = calibrate_coerce(&tb, 0, 1, &cfg, &Budget::unlimited()).unwrap();
        assert_eq!(c, LinearCost::default());
    }

    #[test]
    fn coercion_positive_across_formats() {
        let tb = Testbed::metasystem();
        let cfg = quick_cfg();
        let c = calibrate_coerce(&tb, 0, 2, &cfg, &Budget::unlimited()).unwrap();
        assert!(c.k > 0.0, "cross-format coercion per byte: {c:?}");
    }
}
