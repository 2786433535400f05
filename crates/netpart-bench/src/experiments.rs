//! The paper's §6 experiments: calibration, Table 1, Table 2, Fig. 2,
//! Fig. 3, the overhead claims, and the Gaussian elimination claim.
//!
//! Every experiment is a thin consumer of the facade's typed pipeline:
//! a [`Scenario`] describes what to run, [`Scenario::plan`] (or
//! [`Scenario::plan_pinned`] for the measured sweeps) makes the
//! partitioning decision, and [`netpart::Plan::run`] executes it on the
//! one cycle engine. Every fallible step returns [`NetpartError`].

use netpart::pipeline::{CostSource, Scenario};
use netpart_apps::gauss::{make_system, GaussApp};
use netpart_apps::stencil::{stencil_model, StencilApp, StencilVariant};
use netpart_calibrate::{
    calibrate_testbed_cached, CalibratedCostModel, CalibrationConfig, FittedCost, PaperCostModel,
    Testbed,
};
use netpart_core::{
    determine_available, measure_overhead, partition, partition_exhaustive, Estimator, Partition,
    PartitionOptions, SystemModel,
};
use netpart_model::{NetpartError, PartitionVector};
use netpart_topology::{PlacementStrategy, Topology};

/// The scenario every stencil experiment starts from: the paper testbed,
/// the given stencil model, and the supplied (already fitted) cost model.
pub(crate) fn stencil_scenario(
    n: u64,
    variant: StencilVariant,
    model: &CalibratedCostModel,
) -> Scenario {
    Scenario::new(Testbed::paper(), stencil_model(n, variant))
        .with_cost(CostSource::Fixed(model.clone()))
}

/// The problem sizes of §6.
pub const PAPER_SIZES: [u64; 4] = [60, 300, 600, 1200];

/// The iteration count of §6 ("The number of iterations is 10").
pub const PAPER_ITERS: u64 = 10;

/// The seven measured configurations of Table 2 (Sparc2s, IPCs).
pub const TABLE2_CONFIGS: [[u32; 2]; 7] = [[1, 0], [2, 0], [4, 0], [6, 0], [6, 2], [6, 4], [6, 6]];

/// Every topology the paper's applications exercise.
pub const PAPER_TOPOLOGIES: [Topology; 4] = [
    Topology::OneD,
    Topology::Ring,
    Topology::Tree,
    Topology::Broadcast,
];

/// Calibrate the paper testbed for every topology the applications use.
/// This is the offline step of §3 run against the simulator; the result is
/// memoized in-process, so it is computed at most once per process and
/// every later caller in that process starts from the cached constants.
pub fn paper_calibration() -> Result<CalibratedCostModel, NetpartError> {
    let tb = Testbed::paper();
    calibrate_testbed_cached(&tb, &PAPER_TOPOLOGIES, &CalibrationConfig::default())
}

/// One fitted-constant row of the calibration report.
#[derive(Debug, Clone)]
pub struct CalibrationRow {
    /// Cluster name.
    pub cluster: String,
    /// Topology the constants apply to.
    pub topology: Topology,
    /// The Eq. 1 constants.
    pub fit: FittedCost,
}

/// The §3 reproduction: fitted Eq. 1 constants per (cluster, topology),
/// plus the router fit, alongside the paper's published 1-D constants.
pub fn calibration_report(model: &CalibratedCostModel) -> Vec<CalibrationRow> {
    let tb = Testbed::paper();
    let mut rows = Vec::new();
    for (k, spec) in tb.clusters.iter().enumerate() {
        for topo in PAPER_TOPOLOGIES {
            if let Some(fit) = model.intra.get(&(k, topo)) {
                rows.push(CalibrationRow {
                    cluster: spec.proc_type.name.clone(),
                    topology: topo,
                    fit: *fit,
                });
            }
        }
    }
    rows
}

/// Execute one stencil run on the paper testbed and return the elapsed
/// simulated milliseconds (startup distribution excluded, as in §6).
/// A pinned measurement-only plan: no cost model is consulted.
pub fn run_stencil_config(
    per_cluster: &[u32],
    vector: &PartitionVector,
    variant: StencilVariant,
    n: usize,
    iters: u64,
) -> Result<f64, NetpartError> {
    let scenario = Scenario::new(Testbed::paper(), stencil_model(n as u64, variant))
        .with_cost(CostSource::Measured);
    let plan = scenario.plan_pinned(per_cluster, vector.clone())?;
    let mut app = StencilApp::new(n, iters, variant, plan.ranks());
    Ok(plan.run(&mut app)?.elapsed_ms)
}

/// The speed-balanced partition vector for a (P1, P2) stencil
/// configuration (Eq. 3 under the 2:1 Sparc2:IPC ratio).
pub fn balanced_vector(n: u64, config: &[u32; 2]) -> PartitionVector {
    let shares: Vec<f64> = std::iter::repeat_n(2.0, config[0] as usize)
        .chain(std::iter::repeat_n(1.0, config[1] as usize))
        .collect();
    PartitionVector::from_real_shares(&shares, n)
}

/// One Table 1 cell: what the partitioner decides for a (size, variant).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Problem size N.
    pub n: u64,
    /// STEN-1 or STEN-2.
    pub variant: StencilVariant,
    /// (P1, P2) printed in the paper's Table 1.
    pub paper_config: [u32; 2],
    /// (A1, A2) printed in the paper's Table 1.
    pub paper_a: [u64; 2],
    /// Our heuristic's decision under the paper's printed cost model.
    pub predicted: Partition,
    /// The exhaustive optimum under the same model.
    pub exhaustive: Partition,
    /// `T_c` the printed model assigns to the paper's configuration.
    pub paper_tc_ms: f64,
}

/// The values printed in the paper's Table 1 (see EXPERIMENTS.md for the
/// known internal inconsistencies of the N=60 row and the N=1200 A
/// values).
pub fn paper_table1(variant: StencilVariant) -> Vec<(u64, [u32; 2], [u64; 2])> {
    match variant {
        StencilVariant::Sten1 => vec![
            (60, [1, 0], [60, 0]),
            (300, [6, 0], [50, 0]),
            (600, [6, 4], [75, 38]),
            (1200, [6, 6], [171, 86]),
        ],
        StencilVariant::Sten2 => vec![
            (60, [2, 0], [30, 0]),
            (300, [6, 2], [43, 21]),
            (600, [6, 6], [67, 33]),
            (1200, [6, 6], [171, 86]),
        ],
    }
}

/// Reproduce Table 1: plan every (size, variant) scenario under the
/// paper's published cost model, with the exhaustive optimum as the
/// reference.
pub fn table1() -> Result<Vec<Table1Row>, NetpartError> {
    let sys = SystemModel::from_testbed(&Testbed::paper());
    let cost = PaperCostModel;
    let mut rows = Vec::new();
    for variant in [StencilVariant::Sten1, StencilVariant::Sten2] {
        for (n, paper_config, paper_a) in paper_table1(variant) {
            let scenario = Scenario::new(Testbed::paper(), stencil_model(n, variant))
                .with_cost(CostSource::Paper);
            let plan = scenario.plan()?;
            let predicted = plan
                .partition
                .ok_or_else(|| NetpartError::InvalidScenario("plan carries no partition".into()))?;
            // Planning-layer references: the exhaustive optimum and the
            // model's price for the paper's printed configuration.
            let app = stencil_model(n, variant);
            let est = Estimator::new(&sys, &cost, &app);
            let exhaustive = partition_exhaustive(&est)?;
            let paper_tc_ms = est.t_c_ms(paper_config.as_ref());
            rows.push(Table1Row {
                n,
                variant,
                paper_config,
                paper_a,
                predicted,
                exhaustive,
                paper_tc_ms,
            });
        }
    }
    Ok(rows)
}

/// One Table 2 cell group: measured times for every configuration at one
/// (size, variant), plus the partitioner's pick under the calibrated
/// model.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Problem size N.
    pub n: u64,
    /// STEN-1 or STEN-2.
    pub variant: StencilVariant,
    /// Simulated elapsed ms per [`TABLE2_CONFIGS`] entry.
    pub measured_ms: Vec<f64>,
    /// Index of the measured minimum.
    pub measured_min: usize,
    /// The configuration the partitioner picks with the calibrated model.
    pub predicted_config: Vec<u32>,
    /// Simulated elapsed ms of the predicted configuration.
    pub predicted_ms: f64,
    /// The estimator's `T_c × iters` prediction for the predicted config.
    pub predicted_estimate_ms: f64,
    /// N=1200-style equal-decomposition penalty for the full 12-processor
    /// configuration (only populated when the full config was measured).
    pub equal_decomposition_ms: Option<f64>,
}

/// Reproduce Table 2 on the simulated testbed: measure every configuration
/// the paper measured, star the minimum, and check it against the
/// partitioner's prediction under the calibrated cost model.
///
/// Every simulation of the grid — (variant, size, config) measurements,
/// the predicted configuration, the equal-decomposition counter-example —
/// is an independent cell fanned across cores by [`crate::sweep::sweep`];
/// results are assembled by index so the rows are byte-identical to a
/// sequential run.
pub fn table2(
    model: &CalibratedCostModel,
    sizes: &[u64],
    iters: u64,
) -> Result<Vec<Table2Row>, NetpartError> {
    // Plan phase (cheap, sequential): one pipeline plan per
    // (variant, size) cell group.
    let plans: Vec<(StencilVariant, u64, netpart::Plan)> =
        [StencilVariant::Sten1, StencilVariant::Sten2]
            .into_iter()
            .flat_map(|variant| sizes.iter().map(move |&n| (variant, n)))
            .map(|(variant, n)| {
                let plan = stencil_scenario(n, variant, model).plan()?;
                Ok((variant, n, plan))
            })
            .collect::<Result<_, NetpartError>>()?;

    // Simulation phase (parallel): flatten every run into one job list.
    enum Job {
        Measured(usize),
        Predicted,
        /// Equal decomposition over the full machine, the paper's N=1200
        /// counter-example.
        Equal,
    }
    let jobs: Vec<(usize, Job)> = (0..plans.len())
        .flat_map(|pi| {
            (0..TABLE2_CONFIGS.len())
                .map(move |ci| (pi, Job::Measured(ci)))
                .chain([(pi, Job::Predicted), (pi, Job::Equal)])
        })
        .collect();
    let timings: Vec<f64> = crate::sweep::sweep(jobs, |(pi, job)| {
        let (variant, n, plan) = &plans[pi];
        match job {
            Job::Measured(ci) => {
                let config = &TABLE2_CONFIGS[ci];
                let vector = balanced_vector(*n, config);
                run_stencil_config(config, &vector, *variant, *n as usize, iters)
            }
            Job::Predicted => {
                run_stencil_config(&plan.config, &plan.vector, *variant, *n as usize, iters)
            }
            Job::Equal => run_stencil_config(
                &[6, 6],
                &PartitionVector::equal(*n, 12),
                *variant,
                *n as usize,
                iters,
            ),
        }
    })
    .into_iter()
    .collect::<Result<_, _>>()?;

    // Assembly (sequential, index-ordered): each plan owns a contiguous
    // run of `TABLE2_CONFIGS.len() + 2` timings.
    let stride = TABLE2_CONFIGS.len() + 2;
    plans
        .into_iter()
        .enumerate()
        .map(|(pi, (variant, n, plan))| {
            let base = pi * stride;
            let measured: Vec<f64> = timings[base..base + TABLE2_CONFIGS.len()].to_vec();
            let measured_min = measured
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .ok_or_else(|| NetpartError::InvalidScenario("no measured cells".into()))?;
            let predicted_tc_ms = plan.predicted_tc_ms.ok_or_else(|| {
                NetpartError::InvalidScenario("plan carries no prediction".into())
            })?;
            Ok(Table2Row {
                n,
                variant,
                measured_ms: measured,
                measured_min,
                predicted_config: plan.config.clone(),
                predicted_ms: timings[base + TABLE2_CONFIGS.len()],
                predicted_estimate_ms: predicted_tc_ms * iters as f64,
                equal_decomposition_ms: Some(timings[base + TABLE2_CONFIGS.len() + 1]),
            })
        })
        .collect()
}

/// One point of the Fig. 3 curve.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Point {
    /// Total processors in the configuration.
    pub total_p: u32,
    /// The configuration (Sparc2s, IPCs).
    pub config: [u32; 2],
    /// The estimator's `T_c` (ms).
    pub estimated_tc_ms: f64,
    /// The simulator's measured mean cycle time (ms).
    pub measured_tc_ms: f64,
}

/// Reproduce the canonical Fig. 3 curve: `T_c` against processor count
/// along the heuristic's fill order (Sparc2s 1..6, then IPCs on top),
/// both estimated and measured. Each point is a pinned pipeline plan.
pub fn fig3(
    model: &CalibratedCostModel,
    n: u64,
    variant: StencilVariant,
    iters: u64,
) -> Result<Vec<Fig3Point>, NetpartError> {
    let scenario = stencil_scenario(n, variant, model);
    let mut configs: Vec<[u32; 2]> = (1..=6).map(|p| [p, 0]).collect();
    configs.extend((1..=6).map(|p| [6, p]));
    // Estimation is cheap; pin each configuration in the plan phase. The
    // simulations are the heavy part — each P-sweep point is an
    // independent cell.
    let plans: Vec<([u32; 2], f64)> = configs
        .into_iter()
        .map(|config| {
            let plan = scenario.plan_pinned(&config, balanced_vector(n, &config))?;
            let estimated = plan.predicted_tc_ms.ok_or_else(|| {
                NetpartError::InvalidScenario("pinned plan carries no prediction".into())
            })?;
            Ok((config, estimated))
        })
        .collect::<Result<_, NetpartError>>()?;
    crate::sweep::sweep(plans, |(config, estimated)| {
        let vector = balanced_vector(n, &config);
        let elapsed = run_stencil_config(&config, &vector, variant, n as usize, iters)?;
        Ok(Fig3Point {
            total_p: config[0] + config[1],
            config,
            estimated_tc_ms: estimated,
            measured_tc_ms: elapsed / iters as f64,
        })
    })
    .into_iter()
    .collect()
}

/// Fig. 2's worked example: a 20-row grid over four processors.
pub fn fig2_example() -> PartitionVector {
    PartitionVector::equal(20, 4)
}

/// §5/§6 overhead reproduction: partitioning evaluations against the
/// paper's bound, and the availability protocol's simulated cost.
#[derive(Debug)]
pub struct OverheadNumbers {
    /// `T_c` evaluations spent for the N=1200 partition (§6 says 6 for
    /// K=2, P=12 — ours pays 2 probes per binary step).
    pub evaluations: u64,
    /// The `2·K·(log₂P+1)` bound.
    pub bound: u64,
    /// Simulated ms of one cluster-manager availability round.
    pub availability_ms: f64,
    /// Messages exchanged by the availability protocol.
    pub availability_messages: u64,
}

/// Measure the §5/§6 overhead claims.
pub fn overhead_report(model: &CalibratedCostModel) -> Result<OverheadNumbers, NetpartError> {
    let sys = SystemModel::from_testbed(&Testbed::paper());
    let app = stencil_model(1200, StencilVariant::Sten1);
    let est = Estimator::new(&sys, model, &app);
    let oh = measure_overhead(&est, &PartitionOptions::default())?;

    let tb = Testbed::paper();
    let (mut mmps, _) = tb.try_build(&[0, 0], PlacementStrategy::ClusterContiguous)?;
    let clusters: Vec<Vec<netpart_sim::NodeId>> = (0..2u16)
        .map(|s| mmps.net_ref().nodes_on_segment(netpart_sim::SegmentId(s)))
        .collect();
    let avail = determine_available(&mut mmps, &clusters);
    Ok(OverheadNumbers {
        evaluations: oh.evaluations,
        bound: oh.bound,
        availability_ms: avail.protocol_time.as_millis_f64(),
        availability_messages: avail.messages,
    })
}

/// Result of the Gaussian elimination experiment at one size.
#[derive(Debug, Clone)]
pub struct GaussRow {
    /// Matrix dimension.
    pub n: usize,
    /// The partitioner's configuration choice.
    pub predicted_config: Vec<u32>,
    /// Simulated elapsed ms of the predicted configuration.
    pub predicted_ms: f64,
    /// Simulated elapsed ms for each probe configuration.
    pub probe_configs: Vec<[u32; 2]>,
    /// Measured ms per probe configuration.
    pub probe_ms: Vec<f64>,
    /// Max |Ax − b| residual error of the distributed solve.
    pub residual: f64,
}

/// §6's Gaussian elimination claim: the method applies to a non-uniform
/// application. Plan with the calibrated broadcast/tree costs, run the
/// distributed solver through the pipeline, verify the solution, and
/// compare against a small configuration sweep.
pub fn gauss_experiment(
    model: &CalibratedCostModel,
    sizes: &[usize],
) -> Result<Vec<GaussRow>, NetpartError> {
    let probe_configs: Vec<[u32; 2]> = vec![[1, 0], [2, 0], [4, 0], [6, 0], [6, 2], [6, 6]];

    // Plan phase: the linear system, the pipeline's decision, and a
    // pinned measurement plan per probe (cheap next to the solves).
    struct SizePlan {
        n: usize,
        a: Vec<f64>,
        b: Vec<f64>,
        x_true: Vec<f64>,
        predicted: netpart::Plan,
        probes: Vec<netpart::Plan>,
    }
    let plans: Vec<SizePlan> = sizes
        .iter()
        .map(|&n| {
            let (a, b, x_true) = make_system(n, 1994);
            let app_model = netpart_apps::gauss_model(n as u64);
            let scenario = Scenario::new(Testbed::paper(), app_model.clone())
                .with_cost(CostSource::Fixed(model.clone()));
            let predicted = scenario.plan()?;
            let measure =
                Scenario::new(Testbed::paper(), app_model).with_cost(CostSource::Measured);
            let probes = probe_configs
                .iter()
                .map(|config| measure.plan_pinned(config, balanced_vector(n as u64, config)))
                .collect::<Result<_, NetpartError>>()?;
            Ok(SizePlan {
                n,
                a,
                b,
                x_true,
                predicted,
                probes,
            })
        })
        .collect::<Result<_, NetpartError>>()?;

    // Simulation phase: the predicted run and every probe of every size
    // are independent cells.
    let jobs: Vec<(usize, Option<usize>)> = (0..plans.len())
        .flat_map(|pi| {
            std::iter::once((pi, None))
                .chain((0..probe_configs.len()).map(move |ci| (pi, Some(ci))))
        })
        .collect();
    let results: Vec<(f64, f64)> = crate::sweep::sweep(jobs, |(pi, probe)| {
        let plan = &plans[pi];
        let run_plan = match probe {
            None => &plan.predicted,
            Some(ci) => &plan.probes[ci],
        };
        let mut app = GaussApp::new(plan.n, plan.a.clone(), plan.b.clone(), run_plan.ranks());
        let run = run_plan.run(&mut app)?;
        let x = app.solve();
        let resid = x
            .iter()
            .zip(&plan.x_true)
            .map(|(g, e)| (g - e).abs())
            .fold(0.0f64, f64::max);
        if let Some(ci) = probe {
            debug_assert!(
                resid < 1e-6,
                "probe config {:?} produced a bad solve",
                probe_configs[ci]
            );
        }
        Ok((run.elapsed_ms, resid))
    })
    .into_iter()
    .collect::<Result<_, NetpartError>>()?;

    let stride = 1 + probe_configs.len();
    Ok(plans
        .into_iter()
        .enumerate()
        .map(|(pi, plan)| {
            let base = pi * stride;
            let (predicted_ms, residual) = results[base];
            GaussRow {
                n: plan.n,
                predicted_config: plan.predicted.config.clone(),
                predicted_ms,
                probe_configs: probe_configs.clone(),
                probe_ms: results[base + 1..base + stride]
                    .iter()
                    .map(|r| r.0)
                    .collect(),
                residual,
            }
        })
        .collect())
}

/// One row of the cycle-time breakdown: where a representative processor's
/// cycle goes for a given configuration.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// Configuration (Sparc2s, IPCs).
    pub config: [u32; 2],
    /// Total processors.
    pub total_p: u32,
    /// Mean per-rank compute time over the run, ms.
    pub compute_ms: f64,
    /// Mean per-rank blocked-on-messages time, ms.
    pub wait_ms: f64,
    /// Elapsed ms of the run.
    pub elapsed_ms: f64,
}

/// Explain Fig. 3 from the inside: along the heuristic's fill order,
/// report how much of the run each rank spends computing versus blocked
/// on borders. Region A = compute-dominated; region B = wait-dominated.
pub fn cycle_breakdown(
    n: u64,
    variant: StencilVariant,
    iters: u64,
) -> Result<Vec<BreakdownRow>, NetpartError> {
    let scenario =
        Scenario::new(Testbed::paper(), stencil_model(n, variant)).with_cost(CostSource::Measured);
    let mut configs: Vec<[u32; 2]> = (1..=6).map(|p| [p, 0]).collect();
    configs.extend((1..=6).map(|p| [6, p]));
    let plans: Vec<([u32; 2], netpart::Plan)> = configs
        .into_iter()
        .map(|config| {
            Ok((
                config,
                scenario.plan_pinned(&config, balanced_vector(n, &config))?,
            ))
        })
        .collect::<Result<_, NetpartError>>()?;
    crate::sweep::sweep(plans, |(config, plan)| {
        let mut app = StencilApp::new(n as usize, iters, variant, plan.ranks());
        let run = plan.run(&mut app)?;
        let mean = |v: &[netpart_sim::SimDur]| -> f64 {
            v.iter().map(|d| d.as_millis_f64()).sum::<f64>() / v.len() as f64
        };
        Ok(BreakdownRow {
            config,
            total_p: config[0] + config[1],
            compute_ms: mean(&run.report.compute_time),
            wait_ms: mean(&run.report.wait_time),
            elapsed_ms: run.elapsed_ms,
        })
    })
    .into_iter()
    .collect()
}

/// One scalability data point: the partitioner on a K-cluster system.
#[derive(Debug, Clone)]
pub struct ScalabilityRow {
    /// Clusters in the system.
    pub k: usize,
    /// Total processors.
    pub total_p: u32,
    /// Heuristic `T_c` evaluations (§5 claims `O(K·log₂P)`).
    pub evaluations: u64,
    /// The `2·K·(log₂P_max+1)` bound.
    pub bound: u64,
    /// Configurations the exhaustive reference would have to score
    /// (`Π (N_k + 1)`), for contrast.
    pub exhaustive_space: f64,
}

/// §5's scalability argument, measured: run the heuristic on synthetic
/// systems of growing cluster counts and show evaluations track
/// `K·log₂P` while the exhaustive space explodes.
pub fn scalability(
    ks: &[usize],
    nodes_per: u32,
    n: u64,
) -> Result<Vec<ScalabilityRow>, NetpartError> {
    use netpart_calibrate::{FittedCost, LinearCost};
    crate::sweep::sweep(ks.to_vec(), |k| {
        let tb = Testbed::synthetic(k, nodes_per, 1.4);
        let sys = SystemModel::from_testbed(&tb);
        // A synthetic analytic cost model (calibrating K segments for
        // every K would dominate the measurement without changing the
        // search behaviour).
        let mut model = CalibratedCostModel::default();
        for c in 0..k {
            model.set_intra(
                c,
                Topology::OneD,
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
        for a in 0..k {
            for b in a + 1..k {
                model.set_router(a, b, LinearCost { a: 0.5, k: 0.0006 });
            }
        }
        let app = stencil_model(n, StencilVariant::Sten1);
        let est = Estimator::new(&sys, &model, &app);
        let p = partition(&est, &PartitionOptions::default())?;
        let p_max = nodes_per.max(1) as f64;
        Ok(ScalabilityRow {
            k,
            total_p: sys.total_available(),
            evaluations: p.evaluations,
            bound: 2 * k as u64 * (p_max.log2().ceil() as u64 + 1),
            exhaustive_space: ((nodes_per + 1) as f64).powi(k as i32),
        })
    })
    .into_iter()
    .collect()
}
