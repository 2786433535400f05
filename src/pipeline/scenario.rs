//! Describe and plan: [`Scenario`] (what to run where, and how to price
//! it) and [`Plan`] (the partitioning decision, ready to execute).

use std::sync::Arc;

use netpart_calibrate::{
    calibrate_testbed_cached, CalibratedCostModel, CalibrationConfig, CommCostModel, FittedCost,
    LinearCost, PaperCostModel, Testbed,
};
use netpart_core::{partition, Estimator, Partition, PartitionOptions, SystemModel};
use netpart_model::{AppModel, NetpartError, PartitionVector};
use netpart_spmd::{Executor, SpmdApp};
use netpart_topology::{PlacementStrategy, Topology};

use super::run::{PhaseTotalsProbe, Run};

/// Where a [`Scenario`] gets its communication cost model.
#[derive(Debug, Clone)]
pub enum CostSource {
    /// No cost model at all: only [`Scenario::plan_pinned`] works, and
    /// pinned plans carry no `T_c` prediction. For measurement-only runs.
    Measured,
    /// The constants printed in §6 of the paper (1-D topology, two
    /// clusters). Reproduces Table 1 independently of simulator tuning.
    Paper,
    /// Calibrate the scenario's testbed against the simulator (or reuse
    /// this process's memoized calibration) with this configuration — the
    /// paper's offline benchmarking step.
    Calibrated(CalibrationConfig),
    /// A caller-supplied, already-fitted model.
    Fixed(CalibratedCostModel),
}

/// A complete experiment description: *what* to run *where*, and how to
/// price it. Public fields — construct with [`Scenario::new`] and adjust.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The simulated network of workstation clusters.
    pub testbed: Testbed,
    /// The annotated application model (PDUs, phases, complexities).
    pub app: AppModel,
    /// Cost-model source for planning.
    pub cost: CostSource,
    /// Partitioner knobs (search strategy, cluster order).
    pub options: PartitionOptions,
    /// How ranks map onto testbed nodes.
    pub placement: PlacementStrategy,
    /// Whether runs include the master's startup data distribution.
    /// Table 2 timings exclude it, so the default is `false`.
    pub distribute: bool,
}

impl Scenario {
    /// A scenario with the paper's defaults: calibrated cost model,
    /// default partitioner options, cluster-contiguous placement, no
    /// startup distribution.
    pub fn new(testbed: Testbed, app: AppModel) -> Scenario {
        Scenario {
            testbed,
            app,
            cost: CostSource::Calibrated(CalibrationConfig::default()),
            options: PartitionOptions::default(),
            placement: PlacementStrategy::ClusterContiguous,
            distribute: false,
        }
    }

    /// The topologies a [`CostSource::Calibrated`] scenario calibrates:
    /// every one the model's communication phases mention, once each, in
    /// order of first mention.
    pub(super) fn topologies(&self) -> Vec<Topology> {
        let mut topologies: Vec<Topology> = Vec::new();
        for phase in self.app.comm_phases() {
            if !topologies.contains(&phase.topology) {
                topologies.push(phase.topology);
            }
        }
        topologies
    }

    /// Replace the cost-model source.
    pub fn with_cost(mut self, cost: CostSource) -> Scenario {
        self.cost = cost;
        self
    }

    /// Checks shared by every planning path.
    pub(super) fn validate(&self) -> Result<(), NetpartError> {
        if self.testbed.num_clusters() == 0 || self.testbed.clusters.iter().all(|c| c.nodes == 0) {
            return Err(NetpartError::EmptyTestbed);
        }
        if self.app.num_pdus() == 0 {
            return Err(NetpartError::ZeroPdus);
        }
        if self.app.comp_phases().is_empty() || self.app.comm_phases().is_empty() {
            return Err(NetpartError::InvalidScenario(format!(
                "application model '{}' needs at least one computation and one communication phase",
                self.app.name()
            )));
        }
        // The wiring must describe a well-formed, fully connected fabric —
        // dangling router ports or a partitioned custom wiring surface as
        // [`NetpartError::InvalidFabric`] here, before calibration runs or
        // any traffic is silently dropped.
        self.testbed.check_fabric()
    }

    /// Resolve [`CostSource`] into a priced model, verifying it covers
    /// every (cluster, topology) pair the application can exercise. A
    /// [`CostSource::Fixed`] model is borrowed, not copied, and refused
    /// when any of its constants is not finite.
    pub(super) fn resolve_model(&self) -> Result<Box<dyn CommCostModel + '_>, NetpartError> {
        let model: Box<dyn CommCostModel + '_> = match &self.cost {
            CostSource::Measured => {
                return Err(NetpartError::InvalidScenario(
                    "scenario has no cost model; plan() needs one (use plan_pinned for \
                     measurement-only runs)"
                        .into(),
                ))
            }
            CostSource::Paper => Box::new(PaperCostModel),
            CostSource::Calibrated(cfg) => Box::new(calibrate_testbed_cached(
                &self.testbed,
                &self.topologies(),
                cfg,
            )?),
            CostSource::Fixed(m) => {
                if let Some(entry) = non_finite_entry(m) {
                    return Err(NetpartError::InvalidScenario(format!(
                        "fixed cost model has a non-finite constant in {entry}"
                    )));
                }
                Box::new(m)
            }
        };
        for cluster in 0..self.testbed.num_clusters() {
            if self.testbed.clusters[cluster].nodes == 0 {
                continue;
            }
            for phase in self.app.comm_phases() {
                if !model.covers(cluster, phase.topology) {
                    return Err(NetpartError::MissingFit {
                        cluster,
                        topology: phase.topology,
                    });
                }
            }
        }
        Ok(model)
    }

    /// The offline half of the paper's method: obtain a cost model,
    /// run the heuristic partitioner, and return the decision with its
    /// predicted per-cycle time.
    pub fn plan(&self) -> Result<Plan, NetpartError> {
        self.validate()?;
        let model = self.resolve_model()?;
        let part = self.partition_under(&*model)?;
        Ok(Plan {
            testbed: Arc::new(self.testbed.clone()),
            placement: self.placement,
            distribute: self.distribute,
            config: part.config.clone(),
            vector: part.vector.clone(),
            predicted_tc_ms: Some(part.predicted_tc_ms()),
            partition: Some(part),
        })
    }

    /// Run the heuristic partitioner under an already-resolved model.
    pub(super) fn partition_under(
        &self,
        model: &dyn CommCostModel,
    ) -> Result<Partition, NetpartError> {
        let sys = SystemModel::from_testbed(&self.testbed);
        let est = Estimator::new(&sys, model, &self.app);
        partition(&est, &self.options)
    }

    /// The escape hatch for measured sweeps (Table 2's seven fixed
    /// configurations, Fig. 3's fill-order curve): pin the processor
    /// configuration and decomposition instead of asking the partitioner.
    /// The scenario's cost model still prices the pinned configuration
    /// when it has one, so estimate-vs-measured comparisons fall out.
    pub fn plan_pinned(
        &self,
        config: &[u32],
        vector: PartitionVector,
    ) -> Result<Plan, NetpartError> {
        self.validate()?;
        if config.len() > self.testbed.num_clusters() {
            return Err(NetpartError::InvalidScenario(format!(
                "pinned configuration names {} clusters but the testbed has {}",
                config.len(),
                self.testbed.num_clusters()
            )));
        }
        for (cluster, (&asked, spec)) in config.iter().zip(&self.testbed.clusters).enumerate() {
            if asked > spec.nodes {
                return Err(NetpartError::ClusterOvercommitted {
                    cluster,
                    have: spec.nodes,
                    asked,
                });
            }
        }
        let total: u32 = config.iter().sum();
        if total == 0 {
            return Err(NetpartError::NoProcessorsAvailable);
        }
        if vector.num_ranks() != total as usize {
            return Err(NetpartError::RankMismatch {
                vector: vector.num_ranks(),
                nodes: total as usize,
            });
        }
        let predicted_tc_ms = match &self.cost {
            CostSource::Measured => None,
            _ => {
                let model = self.resolve_model()?;
                let sys = SystemModel::from_testbed(&self.testbed);
                let est = Estimator::new(&sys, &*model, &self.app);
                Some(est.t_c_ms(config))
            }
        };
        Ok(Plan {
            testbed: Arc::new(self.testbed.clone()),
            placement: self.placement,
            distribute: self.distribute,
            config: config.to_vec(),
            vector,
            predicted_tc_ms,
            partition: None,
        })
    }
}

/// The entry, named by table and key (the least name when there are
/// several), of a fixed model whose constants are not all finite. The
/// estimator takes the maximum of the per-cluster costs, and `f64::max`
/// drops a NaN, so such an entry would price every configuration as if
/// its term were absent.
fn non_finite_entry(m: &CalibratedCostModel) -> Option<String> {
    let fit = |f: &FittedCost| [f.c1, f.c2, f.c3, f.c4].iter().all(|x| x.is_finite());
    let linear = |c: &LinearCost| c.a.is_finite() && c.k.is_finite();
    let intra = m.intra.iter().filter(|(_, f)| !fit(f));
    let piecewise = m
        .piecewise
        .iter()
        .filter(|(_, pw)| !fit(&pw.below) || !fit(&pw.above));
    let router = m.router.iter().filter(|(_, c)| !linear(c));
    let coerce = m.coerce.iter().filter(|(_, c)| !linear(c));
    intra
        .map(|(k, _)| format!("intra {k:?}"))
        .chain(piecewise.map(|(k, _)| format!("piecewise {k:?}")))
        .chain(router.map(|(k, _)| format!("router {k:?}")))
        .chain(coerce.map(|(k, _)| format!("coerce {k:?}")))
        .min()
}

/// A partitioning decision ready to execute: which processors, which
/// decomposition, and what the model expects it to cost.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Shared by every clone: a served plan is copied once per response.
    testbed: Arc<Testbed>,
    placement: PlacementStrategy,
    distribute: bool,
    /// Processors used per cluster, indexed by cluster id.
    pub config: Vec<u32>,
    /// PDUs per rank.
    pub vector: PartitionVector,
    /// The model's per-cycle prediction, ms (`None` for pinned plans
    /// under [`CostSource::Measured`]).
    pub predicted_tc_ms: Option<f64>,
    /// The full partitioner output when [`Scenario::plan`] chose the
    /// configuration (`None` for pinned plans).
    pub partition: Option<Partition>,
}

impl Plan {
    /// Total ranks the plan runs.
    pub fn ranks(&self) -> usize {
        self.config.iter().sum::<u32>() as usize
    }

    /// The online half: execute `app` on the simulated testbed through
    /// the cycle engine and return the instrumented result. The plan can
    /// be run any number of times; each run builds a fresh network.
    pub fn run<A: SpmdApp>(&self, app: &mut A) -> Result<Run, NetpartError> {
        check_runnable(&self.vector)?;
        let (mmps, nodes) = self.testbed.try_build(&self.config, self.placement)?;
        let mut exec = Executor::new(mmps, nodes);
        let mut probe = PhaseTotalsProbe::default();
        let report = exec.run_probed(app, &self.vector, self.distribute, &mut probe)?;
        Ok(Run {
            elapsed_ms: report.elapsed.as_millis_f64(),
            predicted_tc_ms: self.predicted_tc_ms,
            phases: probe.totals,
            recovery: None,
            report,
        })
    }
}

/// Refuse to execute a vector that leaves a configured rank without
/// PDUs: a block-decomposed application cannot own an empty block.
/// [`Scenario::plan`] never builds one while there are at least as many
/// PDUs as ranks (its rounding refills empty ranks), so this guards the
/// vectors a caller hands to [`Scenario::plan_pinned`] and plans with
/// more ranks than PDUs. Checked on entry to a run.
pub(super) fn check_runnable(vector: &PartitionVector) -> Result<(), NetpartError> {
    match vector.counts().iter().position(|&c| c == 0) {
        Some(rank) => Err(NetpartError::EmptyRank { rank }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{hop_cost_model, small_scenario};
    use super::*;
    use netpart_apps::stencil::{stencil_model, StencilApp, StencilVariant};

    #[test]
    fn plan_then_run_round_trips() {
        let plan = small_scenario().plan().unwrap();
        assert!(plan.ranks() >= 1);
        assert!(plan.predicted_tc_ms.is_some());
        let mut app = StencilApp::new(40, 4, StencilVariant::Sten1, plan.ranks());
        let run = plan.run(&mut app).unwrap();
        assert!(run.elapsed_ms > 0.0);
        assert_eq!(run.phases.cycles, 4 * plan.ranks() as u64);
        if plan.ranks() > 1 {
            assert!(run.phases.messages > 0);
            assert!(run.phases.compute_ms > 0.0);
        }
    }

    #[test]
    fn empty_testbed_is_a_typed_error() {
        let mut s = small_scenario();
        s.testbed.clusters.clear();
        assert_eq!(s.plan().unwrap_err(), NetpartError::EmptyTestbed);
    }

    #[test]
    fn zero_pdus_is_a_typed_error() {
        let mut s = small_scenario();
        s.app = stencil_model(0, StencilVariant::Sten1);
        assert_eq!(s.plan().unwrap_err(), NetpartError::ZeroPdus);
    }

    #[test]
    fn partitioned_fabric_fails_at_plan_time() {
        use netpart_calibrate::Wiring;
        // Three clusters, but the custom wiring's one router joins only
        // segments 0 and 1 — cluster 2 is unreachable. plan() must refuse
        // with the typed fabric error before calibrating or simulating.
        let testbed = Testbed::synthetic(3, 2, 1.2).with_wiring(Wiring::Custom(vec![vec![0, 1]]));
        let s = Scenario::new(testbed, stencil_model(40, StencilVariant::Sten1))
            .with_cost(CostSource::Paper);
        let err = s.plan().unwrap_err();
        assert!(
            matches!(err, NetpartError::InvalidFabric(_)),
            "expected InvalidFabric, got {err:?}"
        );
        // plan_pinned goes through the same gate.
        let err = s
            .plan_pinned(&[1, 1, 1], PartitionVector::equal(40, 3))
            .unwrap_err();
        assert!(matches!(err, NetpartError::InvalidFabric(_)));
    }

    #[test]
    fn plan_reports_a_cut_off_cluster_as_cluster_hops_does() {
        use netpart_calibrate::Wiring;
        // Two shapes plan() must refuse with exactly the error the hop
        // matrix reports: a populated cluster cut off (caught by fabric
        // validation), and an empty one (which validation does not look
        // at; only the missing path gives it away).
        for (wiring, empty) in [(vec![vec![0, 1]], None), (vec![vec![1, 2]], Some(0))] {
            let mut testbed = Testbed::synthetic(3, 2, 1.2).with_wiring(Wiring::Custom(wiring));
            if let Some(c) = empty {
                testbed.clusters[c].nodes = 0;
            }
            let expected = testbed.cluster_hops().unwrap_err();
            let s = Scenario::new(testbed, stencil_model(40, StencilVariant::Sten1))
                .with_cost(CostSource::Paper);
            let err = s.plan().unwrap_err();
            assert_eq!(err.to_string(), expected.to_string());
            assert_eq!(err, expected);
        }
    }

    proptest::proptest! {
        /// One search from cluster 0 reaches the hop matrix's verdict —
        /// the same error, the same text — on random custom wirings with
        /// dangling and duplicate ports, one-port routers, and clusters
        /// that have no nodes. About a sixth of the cases are the shape
        /// only the search catches: a cluster with no nodes and no port
        /// (`cut`), every populated cluster connected.
        #[test]
        fn validate_reaches_the_hop_matrix_verdict(
            k in 2usize..9,
            nodes in proptest::prop::collection::vec(0u32..4, 8..9),
            routers in proptest::prop::collection::vec((proptest::any::<u32>(), 0u32..30), 0..6),
            cut in 0usize..12,
        ) {
            use netpart_calibrate::Wiring;
            let wiring = routers
                .iter()
                .map(|&(pick, flaw)| {
                    // An arc of 2..=k clusters around the ring, less `cut`.
                    let (start, len) = (pick as usize % k, 2 + (pick as usize >> 8) % (k - 1));
                    let arc = (start..start + len).map(|c| c % k);
                    let mut ports: Vec<usize> = arc.filter(|&c| c != cut).collect();
                    match flaw {
                        0 => ports.push(k), // dangling
                        1 => ports.extend(ports.first().copied()), // duplicate
                        2 => ports.truncate(1),
                        _ => {}
                    }
                    ports
                })
                .collect();
            let mut testbed = Testbed::synthetic(k, 1, 1.2).with_wiring(Wiring::Custom(wiring));
            for (cluster, &n) in testbed.clusters.iter_mut().zip(&nodes) {
                // A quarter of the clusters empty.
                cluster.nodes = n.min(2);
            }
            if let Some(cluster) = testbed.clusters.get_mut(cut) {
                cluster.nodes = 0;
            }
            proptest::prop_assume!(testbed.clusters.iter().any(|c| c.nodes > 0));
            let expected = testbed.cluster_hops().map(|_| ());
            let s = Scenario::new(testbed, stencil_model(40, StencilVariant::Sten1));
            let got = s.validate();
            proptest::prop_assert_eq!(
                got.as_ref().map_err(ToString::to_string),
                expected.as_ref().map_err(ToString::to_string)
            );
            proptest::prop_assert_eq!(got, expected);
        }
    }

    /// Regression: `topologies()` only dropped *adjacent* repeats, so
    /// phases [1-D, Tree, 1-D] calibrated 1-D twice and keyed a different
    /// calibration than the same app declared [1-D, Tree].
    #[test]
    fn topologies_name_each_topology_once() {
        use netpart_model::{CommPhase, CompPhase, OpKind};
        let app = |topologies: &[Topology]| {
            let mut app = AppModel::new("phases", "row", 64).with_comp(CompPhase::linear(
                "update",
                10.0,
                OpKind::Flop,
            ));
            for &t in topologies {
                app = app.with_comm(CommPhase::constant("exchange", t, 256.0));
            }
            app
        };
        let repeated = Scenario::new(
            Testbed::paper(),
            app(&[Topology::OneD, Topology::Tree, Topology::OneD]),
        );
        let once = Scenario::new(Testbed::paper(), app(&[Topology::OneD, Topology::Tree]));
        assert_eq!(repeated.topologies(), vec![Topology::OneD, Topology::Tree]);
        let fingerprint = |s: &Scenario| {
            netpart_calibrate::calibration_fingerprint(
                &s.testbed,
                &s.topologies(),
                &CalibrationConfig::default(),
            )
        };
        assert_eq!(fingerprint(&repeated), fingerprint(&once));
    }

    #[test]
    fn miscalibrated_model_is_a_typed_error() {
        // An empty fixed model covers nothing the stencil needs.
        let s = small_scenario().with_cost(CostSource::Fixed(CalibratedCostModel::default()));
        let err = s.plan().unwrap_err();
        assert_eq!(
            err,
            NetpartError::MissingFit {
                cluster: 0,
                topology: Topology::OneD
            }
        );
        assert_eq!(
            err.to_string(),
            "calibration error: cost model has no fit for cluster 0 topology 1-D"
        );
    }

    /// Regression: a NaN constant in a fixed model planned as if its term
    /// were absent (`synthetic(3, 4, 1.2)`, STEN-1 N=300, every intra
    /// `c1 = NaN`: config [4, 4, 4] at a predicted 14.57 ms), because the
    /// estimator's `max` fold drops a NaN.
    #[test]
    fn a_fixed_model_with_a_non_finite_constant_is_refused() {
        let testbed = Testbed::synthetic(3, 4, 1.2);
        let app = stencil_model(300, StencilVariant::Sten1);
        let finite = hop_cost_model(&testbed, &app);
        let scenario = |cost: CalibratedCostModel| {
            Scenario::new(testbed.clone(), app.clone()).with_cost(CostSource::Fixed(cost))
        };
        assert!(scenario(finite.clone()).plan().is_ok());

        let mut nan_intra = finite.clone();
        for fit in nan_intra.intra.values_mut() {
            fit.c1 = f64::NAN;
        }
        let err = scenario(nan_intra).plan().unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid scenario: fixed cost model has a non-finite constant in intra (0, OneD)"
        );

        let mut infinite_router = finite;
        infinite_router.router.get_mut(&(1, 2)).unwrap().k = f64::INFINITY;
        let err = scenario(infinite_router).plan().unwrap_err();
        assert!(err.to_string().ends_with("router (1, 2)"), "{err}");
    }

    #[test]
    fn pinned_plan_validates_capacity() {
        let s = small_scenario();
        let err = s
            .plan_pinned(&[99, 0], PartitionVector::equal(40, 99))
            .unwrap_err();
        assert!(matches!(err, NetpartError::ClusterOvercommitted { .. }));
    }

    #[test]
    fn pinned_plan_runs_without_a_cost_model() {
        let s = small_scenario().with_cost(CostSource::Measured);
        let plan = s
            .plan_pinned(&[2, 0], PartitionVector::equal(40, 2))
            .unwrap();
        assert_eq!(plan.predicted_tc_ms, None);
        let mut app = StencilApp::new(40, 3, StencilVariant::Sten1, 2);
        let run = plan.run(&mut app).unwrap();
        assert!(run.elapsed_ms > 0.0);
    }

    /// Regression (benchmark/README sizing finding 2): at 1024 nodes and
    /// N = 8192 largest-remainder rounding used to leave some rank with
    /// zero rows, a plan that could not run. The planned vector now gives
    /// every rank a row.
    #[test]
    fn plan_gives_every_rank_a_pdu() {
        let testbed = Testbed::synthetic(32, 32, 1.15);
        let model = stencil_model(8192, StencilVariant::Sten1);
        let cost = hop_cost_model(&testbed, &model);
        let s = Scenario::new(testbed, model).with_cost(CostSource::Fixed(cost));
        let plan = s.plan().unwrap();
        assert_eq!(plan.ranks(), 1024, "the repro plans every node");
        assert_eq!(plan.vector.num_ranks(), plan.ranks());
        assert_eq!(plan.vector.total(), 8192);
        assert!(plan.vector.counts().iter().all(|&c| c > 0));
        assert_eq!(check_runnable(&plan.vector), Ok(()));
    }

    /// With more ranks than PDUs some rank must stay empty: free
    /// communication spreads 8 rows over all 12 paper nodes. Both run
    /// paths refuse the plan before any application is built, so a token
    /// app stands in for the stencil.
    #[test]
    fn plan_with_more_ranks_than_pdus_refuses_to_run() {
        use super::super::{CheckpointPolicy, FaultSchedule, RecoveryPolicy};
        use netpart_calibrate::{FittedCost, LinearCost};
        let free = FittedCost {
            c1: 0.0,
            c2: 0.0,
            c3: 0.0,
            c4: 0.0,
            r_squared: 1.0,
            abs_fix: true,
        };
        let mut cost = CalibratedCostModel::default();
        cost.set_intra(0, Topology::OneD, free);
        cost.set_intra(1, Topology::OneD, free);
        cost.set_router(0, 1, LinearCost::default());
        let s = Scenario::new(Testbed::paper(), stencil_model(8, StencilVariant::Sten1))
            .with_cost(CostSource::Fixed(cost));
        let plan = s.plan().unwrap();
        assert_eq!(plan.ranks(), 12, "free communication plans every node");
        let rank = plan.vector.counts().iter().position(|&c| c == 0);
        let expected = NetpartError::EmptyRank {
            rank: rank.expect("8 rows cannot cover 12 ranks"),
        };
        let mut app = StencilApp::new(2, 1, StencilVariant::Sten1, 1);
        assert_eq!(plan.run(&mut app).unwrap_err(), expected);
        let recovered = s.run_recoverable_with(
            &FaultSchedule::new(),
            RecoveryPolicy::FailFast,
            CheckpointPolicy::local(2),
            |_, _| -> Result<StencilApp, NetpartError> {
                unreachable!("rejected before any app is built")
            },
        );
        assert_eq!(recovered.map(|_| ()).unwrap_err(), expected);
    }

    /// A caller's pinned vector may still leave a rank empty: it is
    /// refused on entry to a run, before any application is built.
    #[test]
    fn pinned_vector_with_an_empty_rank_refuses_to_run() {
        let s = small_scenario();
        let plan = s
            .plan_pinned(&[2, 0], PartitionVector::from_counts(vec![40, 0]))
            .unwrap();
        let expected = NetpartError::EmptyRank { rank: 1 };
        let mut app = StencilApp::new(2, 1, StencilVariant::Sten1, 1);
        assert_eq!(plan.run(&mut app).unwrap_err(), expected);
    }
}
