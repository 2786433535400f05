//! The typed experiment pipeline: **Scenario → plan → run**.
//!
//! A [`Scenario`] bundles everything the paper's method needs to make a
//! partitioning decision — a testbed description, an annotated
//! application model, a cost-model source, and partitioner knobs.
//! [`Scenario::plan`] performs the offline half (calibrate or reuse the
//! cached calibration, validate coverage, run the heuristic partitioner)
//! and returns a [`Plan`]: the chosen processor configuration, the data
//! decomposition, and the predicted per-cycle time `T_c`. [`Plan::run`]
//! performs the online half: execute any [`SpmdApp`] on the simulated
//! testbed through the one [`CycleEngine`](crate::spmd::CycleEngine) and
//! return an instrumented [`Run`].
//!
//! Every fallible step surfaces a [`NetpartError`] — an empty testbed, a
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

use netpart_calibrate::{
    calibrate_testbed_cached_budgeted, calibration_fingerprint, speed_scale, CalibratedCostModel,
    CalibrationConfig, CommCostModel, InflatedCostModel, PaperCostModel, Testbed,
};
use netpart_core::{
    determine_available, partition, partition_budgeted, AvailabilityPolicy, Estimator, Partition,
    PartitionOptions, SystemModel,
};
use netpart_mmps::MmpsEvent;
use netpart_model::{AppModel, Backoff, Budget, NetpartError, PartitionVector};
use netpart_sim::{FaultPlan, NodeId, RouterId, SegmentId, SimDur, SimError, SimTime};
use netpart_spmd::{
    Checkpoint, CheckpointStore, DriftConfig, DriftMonitor, DriftReport, Executor, Phase, Probe,
    Rank, SpmdApp, SpmdReport, Tee,
};
use netpart_topology::{PlacementStrategy, Topology};

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
    /// the memoized/persisted calibration) with this configuration — the
    /// paper's offline benchmarking step.
    Calibrated(CalibrationConfig),
    /// A caller-supplied, already-fitted model.
    Fixed(CalibratedCostModel),
}

/// The resolved cost model a plan was made under.
enum PlanModel {
    Paper(PaperCostModel),
    Table(CalibratedCostModel),
}

impl PlanModel {
    fn as_dyn(&self) -> &dyn CommCostModel {
        match self {
            PlanModel::Paper(m) => m,
            PlanModel::Table(m) => m,
        }
    }
}

/// A complete experiment description: *what* to run *where*, and how to
/// price it. Public fields — construct with [`Scenario::new`] and adjust.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The simulated network of workstation clusters.
    pub testbed: Testbed,
    /// The annotated application model (PDUs, phases, complexities).
    pub app: AppModel,
    /// Topologies to calibrate. Defaults to every topology the model's
    /// communication phases mention.
    pub topologies: Vec<Topology>,
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
    /// startup distribution, topologies taken from the app model.
    pub fn new(testbed: Testbed, app: AppModel) -> Scenario {
        let mut topologies: Vec<Topology> =
            app.comm_phases().iter().map(|ph| ph.topology).collect();
        topologies.dedup();
        Scenario {
            testbed,
            app,
            topologies,
            cost: CostSource::Calibrated(CalibrationConfig::default()),
            options: PartitionOptions::default(),
            placement: PlacementStrategy::ClusterContiguous,
            distribute: false,
        }
    }

    /// Replace the cost-model source.
    pub fn with_cost(mut self, cost: CostSource) -> Scenario {
        self.cost = cost;
        self
    }

    /// Replace the partitioner options.
    pub fn with_options(mut self, options: PartitionOptions) -> Scenario {
        self.options = options;
        self
    }

    /// Checks shared by every planning path.
    fn validate(&self) -> Result<(), NetpartError> {
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
        self.testbed.cluster_hops()?;
        Ok(())
    }

    /// Resolve [`CostSource`] into a priced model, verifying it covers
    /// every (cluster, topology) pair the application can exercise.
    fn resolve_model(&self) -> Result<PlanModel, NetpartError> {
        self.resolve_model_budgeted(&Budget::unlimited())
    }

    /// [`resolve_model`](Self::resolve_model) under a cooperative
    /// [`Budget`]: a `Calibrated` cost source polls the budget through
    /// the calibration sweep (cache hits are served regardless).
    fn resolve_model_budgeted(&self, budget: &Budget) -> Result<PlanModel, NetpartError> {
        let model = match &self.cost {
            CostSource::Measured => {
                return Err(NetpartError::InvalidScenario(
                    "scenario has no cost model; plan() needs one (use plan_pinned for \
                     measurement-only runs)"
                        .into(),
                ))
            }
            CostSource::Paper => PlanModel::Paper(PaperCostModel),
            CostSource::Calibrated(cfg) => PlanModel::Table(calibrate_testbed_cached_budgeted(
                &self.testbed,
                &self.topologies,
                cfg,
                budget,
            )?),
            CostSource::Fixed(m) => PlanModel::Table(m.clone()),
        };
        for cluster in 0..self.testbed.num_clusters() {
            if self.testbed.clusters[cluster].nodes == 0 {
                continue;
            }
            for phase in self.app.comm_phases() {
                if !model.as_dyn().covers(cluster, phase.topology) {
                    return Err(NetpartError::Calibration(format!(
                        "cost model has no fit for cluster {cluster} topology {}",
                        phase.topology
                    )));
                }
            }
        }
        Ok(model)
    }

    /// The offline half of the paper's method: obtain a cost model,
    /// run the heuristic partitioner, and return the decision with its
    /// predicted per-cycle time.
    pub fn plan(&self) -> Result<Plan, NetpartError> {
        self.plan_budgeted(&Budget::unlimited())
    }

    /// [`plan`](Self::plan) under a cooperative [`Budget`]: the
    /// calibration sweep and the partitioner's fill loop poll the budget
    /// at their checkpoints, so an expired request returns the typed
    /// [`NetpartError::PlanDeadlineExceeded`] instead of finishing. With
    /// an unlimited budget the arithmetic — and therefore the plan — is
    /// bit-identical to [`plan`](Self::plan).
    pub fn plan_budgeted(&self, budget: &Budget) -> Result<Plan, NetpartError> {
        self.validate()?;
        let model = self.resolve_model_budgeted(budget)?;
        let sys = SystemModel::from_testbed(&self.testbed);
        let est = Estimator::new(&sys, model.as_dyn(), &self.app);
        let part = partition_budgeted(&est, &self.options, budget)?;
        Ok(Plan {
            testbed: self.testbed.clone(),
            placement: self.placement,
            distribute: self.distribute,
            config: part.config.clone(),
            vector: part.vector.clone(),
            predicted_tc_ms: Some(part.predicted_tc_ms()),
            partition: Some(part),
        })
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
                let est = Estimator::new(&sys, model.as_dyn(), &self.app);
                Some(est.t_c_ms(config))
            }
        };
        Ok(Plan {
            testbed: self.testbed.clone(),
            placement: self.placement,
            distribute: self.distribute,
            config: config.to_vec(),
            vector,
            predicted_tc_ms,
            partition: None,
        })
    }
}

/// A partitioning decision ready to execute: which processors, which
/// decomposition, and what the model expects it to cost.
#[derive(Debug, Clone)]
pub struct Plan {
    testbed: Testbed,
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

    /// Refuse to execute a vector that leaves a configured rank without
    /// PDUs: rounding the real-valued shares can do that when ranks
    /// outnumber PDUs per share, and a block-decomposed application cannot
    /// own an empty block. Checked on entry to a run, not in
    /// [`Scenario::plan`] — such a plan is still a valid *estimate*.
    fn check_runnable(&self) -> Result<(), NetpartError> {
        match self.vector.counts().iter().position(|&c| c == 0) {
            Some(rank) => Err(NetpartError::EmptyRank { rank }),
            None => Ok(()),
        }
    }

    /// The online half: execute `app` on the simulated testbed through
    /// the cycle engine and return the instrumented result. The plan can
    /// be run any number of times; each run builds a fresh network.
    pub fn run<A: SpmdApp>(&self, app: &mut A) -> Result<Run, NetpartError> {
        self.check_runnable()?;
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

// ---------------------------------------------------------------------------
// Plan serving: the request/response vocabulary of `netpart::serve`.

/// A planning request as submitted to a
/// [`PlanServer`](crate::serve::PlanServer): the scenario plus an
/// optional wall-clock deadline budget.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// The scenario to plan.
    pub scenario: Scenario,
    /// Wall-clock deadline, milliseconds, measured from submission.
    /// `None` = no deadline. An expired request terminates with the typed
    /// [`NetpartError::PlanDeadlineExceeded`] — queued, mid-calibration,
    /// or mid-partition.
    pub deadline_ms: Option<f64>,
}

impl PlanRequest {
    /// A request with no deadline.
    pub fn new(scenario: Scenario) -> PlanRequest {
        PlanRequest {
            scenario,
            deadline_ms: None,
        }
    }

    /// Attach a wall-clock deadline budget, in milliseconds.
    pub fn with_deadline_ms(mut self, ms: f64) -> PlanRequest {
        self.deadline_ms = Some(ms);
        self
    }

    /// Start the request's cooperative budget clock (at submission time).
    pub fn start_budget(&self) -> Budget {
        match self.deadline_ms {
            Some(ms) => Budget::deadline_ms(ms),
            None => Budget::unlimited(),
        }
    }
}

/// Where a served plan came from — stamped on every
/// [`PlanResponse`] so callers can tell a fresh computation from a cache
/// hit from degraded-mode service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Computed by the full planning pipeline for this request.
    Fresh,
    /// Byte-identical cached plan for the same scenario fingerprint,
    /// served while the scenario's calibration class is healthy.
    Cache,
    /// The last-known-good cached plan, served while the calibration
    /// circuit for this scenario's fingerprint class is **open**
    /// (degraded mode). The plan is still byte-identical to a cold
    /// computation of the same scenario; the stamp carries its age so
    /// callers can judge staleness.
    StaleCache {
        /// Milliseconds since the cached plan was computed.
        age_ms: u64,
    },
    /// Planned fresh under the [`CostSource::Paper`] fallback model
    /// because the calibration circuit is open and no cached plan exists
    /// for this fingerprint.
    PaperFallback,
}

/// A served plan plus its provenance and latency accounting.
#[derive(Debug, Clone)]
pub struct PlanResponse {
    /// The partitioning decision.
    pub plan: Plan,
    /// Where the plan came from.
    pub source: PlanSource,
    /// Transient-failure retries spent before this response.
    pub retries: u32,
    /// Wall-clock ms the request waited in the admission queue.
    pub queue_ms: f64,
    /// Wall-clock ms from submission to response.
    pub total_ms: f64,
}

/// Fingerprint of everything [`Scenario::plan`] depends on: the full
/// testbed description, the application model, the topology list, the
/// cost source, the partitioner options, placement, and distribution.
///
/// FNV-1a over the `Debug` rendering — the same technique as
/// [`calibration_fingerprint`] — extended with point samples of every
/// phase's complexity callback at several PDU counts: callbacks
/// `Debug`-print only as their value at `a = 1`, so two different
/// nonlinear annotations could otherwise collide on one fingerprint and
/// the plan cache would serve a *wrong* plan. Probing at 1, 7, 1000 and
/// 123457 pins the curve, not just one point.
pub fn scenario_fingerprint(s: &Scenario) -> u64 {
    let mut repr = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        s.testbed, s.app, s.topologies, s.cost, s.options, s.placement, s.distribute
    );
    for phase in s.app.comp_phases() {
        for a in [1.0, 7.0, 1000.0, 123_457.0] {
            repr.push_str(&format!("|comp {} @{a}: {:?}", phase.name, phase.ops(a)));
        }
    }
    for phase in s.app.comm_phases() {
        for a in [1.0, 7.0, 1000.0, 123_457.0] {
            repr.push_str(&format!("|comm {} @{a}: {:?}", phase.name, phase.bytes(a)));
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in repr.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The breaker *class* of a scenario: what groups requests for circuit-
/// breaking purposes. Calibrated scenarios share a class when they share
/// a calibration fingerprint (same testbed, topologies, and sweep
/// configuration — the unit that fails together when calibration
/// breaks); other cost sources never touch the calibration path, so they
/// map to per-source sentinel classes that the breaker counts but which
/// in practice never trip.
pub fn scenario_class(s: &Scenario) -> u64 {
    match &s.cost {
        CostSource::Calibrated(cfg) => calibration_fingerprint(&s.testbed, &s.topologies, cfg),
        CostSource::Paper => 1,
        CostSource::Measured => 2,
        CostSource::Fixed(_) => 3,
    }
}

/// A scheduled fault in the *plan's* coordinate system (ranks, clusters,
/// routers) with millisecond times — what an experiment writes down.
/// [`Scenario::run_recoverable`] translates it into the simulator's
/// node/segment addressing against the initial placement.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Permanent fail-stop crash of the node hosting `rank` at `at_ms`.
    RankCrash {
        /// Crash instant, simulated ms.
        at_ms: f64,
        /// Rank (in the initial plan's numbering) whose node dies.
        rank: usize,
    },
    /// The node hosting `rank` degrades: compute stretches by `factor`.
    RankSlowdown {
        /// Onset instant, simulated ms.
        at_ms: f64,
        /// Rank whose node slows.
        rank: usize,
        /// Seconds-per-op multiplier (≥ 1).
        factor: f64,
    },
    /// Router `router` drops every frame in the window.
    RouterOutage {
        /// Router index (0 for the single inter-cluster router).
        router: usize,
        /// Window start, simulated ms.
        from_ms: f64,
        /// Window end (exclusive), simulated ms.
        until_ms: f64,
    },
    /// Cluster `cluster`'s segment loses frames with probability `loss`
    /// inside the window.
    LossBurst {
        /// Cluster whose segment degrades.
        cluster: usize,
        /// Window start, simulated ms.
        from_ms: f64,
        /// Window end (exclusive), simulated ms.
        until_ms: f64,
        /// Loss probability inside the window.
        loss: f64,
    },
    /// An earlier [`Fault::RankSlowdown`] on `rank`'s node ends: the
    /// compute multiplier clears back to 1 (in-flight blocks keep the
    /// rate they sampled at start).
    RankSlowdownEnd {
        /// Recovery instant, simulated ms.
        at_ms: f64,
        /// Rank whose node returns to full speed.
        rank: usize,
    },
    /// The node hosting `rank` returns from an earlier
    /// [`Fault::RankCrash`] — a transient outage instead of fail-stop.
    /// The returned node rejoins the pool at the next availability round.
    RankRecover {
        /// Recovery instant, simulated ms.
        at_ms: f64,
        /// Rank whose node comes back.
        rank: usize,
    },
    /// Background load on `rank`'s node steps to `load` (a fraction of
    /// the CPU, clamped below 1) — schedule several to ramp load up or
    /// back down.
    RankLoad {
        /// Step instant, simulated ms.
        at_ms: f64,
        /// Rank whose node gains competing load.
        rank: usize,
        /// External load fraction in `[0, 1)`.
        load: f64,
    },
    /// Router `router` loses its port on `segment` inside the window —
    /// the link goes dark while the router itself stays up. Where the
    /// wiring offers path diversity the live routing table detours
    /// around the dead link; where none exists, sends across the cut
    /// fail fast with the typed fabric-partition error and recovery
    /// replans over the reachable component.
    LinkDown {
        /// Router whose port goes down.
        router: usize,
        /// Segment (cluster or backbone index) the dead port serves.
        segment: usize,
        /// Window start, simulated ms.
        from_ms: f64,
        /// Window end (exclusive), simulated ms.
        until_ms: f64,
    },
    /// Cross traffic floods `cluster`'s segment inside the window: a
    /// background flow between the segment's first two nodes sends
    /// `bytes`-sized frames every `period_us` µs, competing with the
    /// application for the medium. With the segment's congestion model
    /// enabled the flood pushes the queue past its knee and the
    /// application's frames come back marked.
    TrafficFlood {
        /// Cluster whose segment is flooded.
        cluster: usize,
        /// Window start, simulated ms.
        from_ms: f64,
        /// Window end (exclusive), simulated ms.
        until_ms: f64,
        /// Payload bytes per flood frame.
        bytes: u32,
        /// Microseconds between flood frames.
        period_us: u64,
    },
}

/// A deterministic fault schedule for one recoverable run. Same schedule +
/// same scenario ⇒ same trajectory, failures and recoveries included.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// The scheduled faults, in the plan's rank/cluster coordinates.
    pub faults: Vec<Fault>,
    /// Additional raw simulator-coordinate events (node/router/segment
    /// ids against the whole testbed, not just placed ranks) merged into
    /// the installed plan verbatim. The chaos fuzzer generates these with
    /// [`FaultPlan::random`]; an event naming a node outside the current
    /// placement still takes effect on the testbed (and is validated like
    /// everything else at install).
    pub raw: FaultPlan,
}

impl FaultSchedule {
    /// An empty schedule (injects nothing; a run under it is
    /// byte-identical to [`Plan::run`]).
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Append a fault.
    pub fn with(mut self, fault: Fault) -> FaultSchedule {
        self.faults.push(fault);
        self
    }

    /// Merge a raw simulator-coordinate fault plan into the schedule.
    pub fn with_raw(mut self, plan: FaultPlan) -> FaultSchedule {
        self.raw.events.extend(plan.events);
        self
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.raw.is_empty()
    }

    /// Translate into the simulator's fault plan using the initial
    /// placement (`nodes[rank]` is the node hosting `rank`).
    fn translate(&self, nodes: &[NodeId]) -> Result<FaultPlan, NetpartError> {
        let t = |ms: f64| SimTime::ZERO + SimDur::from_millis_f64(ms);
        let mut plan = self.raw.clone();
        for f in &self.faults {
            plan = match *f {
                Fault::RankCrash { at_ms, rank } => {
                    let &node = nodes.get(rank).ok_or(NetpartError::RankMismatch {
                        vector: rank + 1,
                        nodes: nodes.len(),
                    })?;
                    plan.crash(t(at_ms), node)
                }
                Fault::RankSlowdown {
                    at_ms,
                    rank,
                    factor,
                } => {
                    let &node = nodes.get(rank).ok_or(NetpartError::RankMismatch {
                        vector: rank + 1,
                        nodes: nodes.len(),
                    })?;
                    plan.slow(t(at_ms), node, factor)
                }
                Fault::RouterOutage {
                    router,
                    from_ms,
                    until_ms,
                } => plan.router_outage(RouterId(router as u16), t(from_ms), t(until_ms)),
                Fault::LinkDown {
                    router,
                    segment,
                    from_ms,
                    until_ms,
                } => plan.link_down(
                    RouterId(router as u16),
                    SegmentId(segment as u16),
                    t(from_ms),
                    t(until_ms),
                ),
                Fault::LossBurst {
                    cluster,
                    from_ms,
                    until_ms,
                    loss,
                } => plan.loss_burst(SegmentId(cluster as u16), t(from_ms), t(until_ms), loss),
                Fault::RankSlowdownEnd { at_ms, rank } => {
                    let &node = nodes.get(rank).ok_or(NetpartError::RankMismatch {
                        vector: rank + 1,
                        nodes: nodes.len(),
                    })?;
                    plan.end_slowdown(t(at_ms), node)
                }
                Fault::RankRecover { at_ms, rank } => {
                    let &node = nodes.get(rank).ok_or(NetpartError::RankMismatch {
                        vector: rank + 1,
                        nodes: nodes.len(),
                    })?;
                    plan.node_recover(t(at_ms), node)
                }
                Fault::RankLoad { at_ms, rank, load } => {
                    let &node = nodes.get(rank).ok_or(NetpartError::RankMismatch {
                        vector: rank + 1,
                        nodes: nodes.len(),
                    })?;
                    plan.load(t(at_ms), node, load)
                }
                Fault::TrafficFlood {
                    cluster,
                    from_ms,
                    until_ms,
                    bytes,
                    period_us,
                } => plan.traffic_burst(
                    SegmentId(cluster as u16),
                    t(from_ms),
                    t(until_ms),
                    bytes,
                    SimDur::from_micros(period_us),
                ),
            };
        }
        Ok(plan)
    }
}

/// What [`Scenario::run_recoverable`] does when a rank failure surfaces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryPolicy {
    /// Return the typed engine error immediately; no recovery.
    FailFast,
    /// Exclude the dead nodes, re-run the partitioner on the survivors,
    /// redistribute the last consistent checkpoint, and resume.
    Replan {
        /// Maximum recoveries before giving up with the last error.
        max_replans: u32,
        /// Simulated pause before re-probing availability — lets in-flight
        /// retransmissions of the failed epoch drain and models the
        /// decision latency of a real recovery manager.
        backoff_ms: f64,
    },
    /// Gray-failure tolerance on top of everything
    /// [`Replan`](RecoveryPolicy::Replan) does for fail-stop crashes
    /// (with fixed internal replan/backoff knobs). A
    /// [`DriftMonitor`] rides along on every segment, comparing each
    /// rank's observed phase times against the plan's predicted
    /// `T_comp`/`T_comm`. On confirmed drift the policy refits the
    /// degraded cluster's speed and/or its segment's communication cost
    /// from the in-flight measurement, re-runs the partitioner on the
    /// refitted model over the currently-available nodes, and applies a
    /// cost/benefit gate: repartition only when the projected per-cycle
    /// saving over the remaining cycles beats the migration cost
    /// (re-executed cycles plus shipping the checkpointed state) by more
    /// than `min_gain`. Otherwise it deliberately stays put and re-arms
    /// the monitor after `cooldown` cycles. A fault-free run under
    /// `Adapt` is byte-identical to one under `Replan` — the monitor is
    /// purely observational.
    Adapt {
        /// Observed/predicted ratio above which a cycle counts as
        /// degraded (e.g. `1.75` = 75% slower than planned).
        degrade_threshold: f64,
        /// Minimum projected *net* gain (simulated ms over the rest of
        /// the run) required to repartition; below it the policy declines.
        min_gain: f64,
        /// Cycles after a declined repartition during which the drift
        /// monitor is suppressed, so an unprofitable degradation is not
        /// re-litigated every few cycles.
        cooldown: u64,
    },
}

/// The recovery loop's verdict on a failed segment — extracted as a pure
/// function so the precedence between concurrent failure signals is
/// pinned by unit tests rather than implied by control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecoveryAction {
    /// Surface the error to the caller: unrecoverable kind, no recovery
    /// policy, or a rank-failure budget already spent.
    Fail,
    /// Recover from confirmed drift (gray failure). Drift rounds are
    /// never budgeted — past the replan budget they decline instead of
    /// erroring.
    Drift,
    /// Recover from a fail-stop failure; `Some(rank)` names the suspect,
    /// `None` is a fault-explained deadlock that names nobody.
    Suspect(Option<Rank>),
    /// Recover from a fabric partition: the named rank is unreachable but
    /// not known dead. Its component is excluded from the replan like a
    /// corpse's, but never blacklisted — a later round re-admits it once
    /// the fabric heals. Budgeted like fail-stop rounds.
    Island(Rank),
}

/// Classify a failed segment.
///
/// Precedence rule (regression-pinned): a rank failure that has exhausted
/// `max_replans` is terminal **even when the drift monitor holds a
/// concurrent confirmation** — resuming "for drift" at that point would
/// mask the fatal crash behind an unbudgeted drift loop, and the caller
/// would see a drift resume where a rank-failure error is owed.
fn classify_failure(
    err: &NetpartError,
    drift_confirmed: bool,
    scheduled_faults: bool,
    replans: u32,
    max_replans: Option<u32>,
) -> RecoveryAction {
    let Some(max) = max_replans else {
        return RecoveryAction::Fail; // FailFast: nothing recovers.
    };
    match err {
        NetpartError::RankFailed { rank, .. } | NetpartError::PeerUnreachable { rank, .. } => {
            if replans >= max {
                RecoveryAction::Fail
            } else {
                RecoveryAction::Suspect(Some(*rank))
            }
        }
        // A fail-fast partitioned send names a peer that is unreachable,
        // not dead: replan over the reachable component without
        // blacklisting anyone, so router recovery re-admits the island.
        NetpartError::FabricPartitioned { rank } => {
            if replans >= max {
                RecoveryAction::Fail
            } else {
                RecoveryAction::Island(*rank)
            }
        }
        NetpartError::DriftDegraded { .. } if drift_confirmed => RecoveryAction::Drift,
        // A deadlock that scheduled faults can explain — e.g. nobody ever
        // sends to a crashed pivot owner, so no transmission fails and no
        // rank is named.
        NetpartError::Deadlock { .. } if scheduled_faults => {
            if replans >= max {
                RecoveryAction::Fail
            } else {
                RecoveryAction::Suspect(None)
            }
        }
        _ => RecoveryAction::Fail,
    }
}

/// Where recovery checkpoints live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Blobs stay in host memory beside the simulation ("stable storage"
    /// in the modeled world) — the original behaviour, and byte-identical
    /// to it.
    Local,
    /// Each rank's blob is additionally mirrored over the message layer
    /// to a buddy rank (preferentially in another cluster), checksummed,
    /// and kept generationally: recovery falls back to the buddy replica
    /// when the primary holder is dead or its blob fails the CRC, and to
    /// an older generation when neither copy survives.
    Replicated,
}

/// How [`Scenario::run_recoverable_with`] checkpoints and guards the
/// recovery path itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPolicy {
    /// Cycle interval between checkpoints (clamped to ≥ 1).
    pub every: u64,
    /// Where the blobs live.
    pub durability: Durability,
    /// Watchdog budget, simulated ms: when nested failures keep striking
    /// with **no checkpoint-frontier progress** between them for longer
    /// than this, recovery stops with [`NetpartError::RecoveryStalled`]
    /// instead of spinning through its replan budget on a hopeless
    /// network.
    pub watchdog_ms: f64,
    /// Override for the recovery decision pause: `None` (the default)
    /// derives a flat [`Backoff::fixed`] from the policy's `backoff_ms`
    /// knob (byte-identical to the historical behaviour); `Some` replaces
    /// it with any configurable schedule — e.g.
    /// [`Backoff::exponential`] for jittered, seeded, capped growth
    /// across recovery rounds.
    pub backoff: Option<Backoff>,
}

impl CheckpointPolicy {
    /// Local durability, default watchdog (10 simulated seconds).
    pub fn local(every: u64) -> CheckpointPolicy {
        CheckpointPolicy {
            every,
            durability: Durability::Local,
            watchdog_ms: 10_000.0,
            backoff: None,
        }
    }

    /// Replicated durability, default watchdog (10 simulated seconds).
    pub fn replicated(every: u64) -> CheckpointPolicy {
        CheckpointPolicy {
            durability: Durability::Replicated,
            ..CheckpointPolicy::local(every)
        }
    }

    /// Replace the watchdog budget.
    pub fn with_watchdog_ms(mut self, budget_ms: f64) -> CheckpointPolicy {
        self.watchdog_ms = budget_ms;
        self
    }

    /// Replace the recovery decision pause with an explicit [`Backoff`]
    /// schedule (attempt-indexed by completed replans).
    pub fn with_backoff(mut self, backoff: Backoff) -> CheckpointPolicy {
        self.backoff = Some(backoff);
        self
    }
}

/// What recovery cost, attached to a [`Run`] by
/// [`Scenario::run_recoverable`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryStats {
    /// Completed replan-and-resume rounds.
    pub replans: u32,
    /// Ranks whose failure triggered each replan (numbered in the failing
    /// segment's rank space), in failure order.
    pub failed_ranks: Vec<usize>,
    /// Rank-independent cycles of progress discarded: completed beyond the
    /// checkpoint each recovery resumed from, summed over recoveries.
    pub cycles_lost: u64,
    /// Simulated ms spent recovering: failure detection to relaunch, plus
    /// checkpoint-redistribution startup of resumed segments.
    pub overhead_ms: f64,
    /// Drift confirmations by the monitor ([`RecoveryPolicy::Adapt`]
    /// only; gray failures, not fail-stop crashes).
    pub drift_detections: u32,
    /// Drift confirmations the monitor attributed to a congested network
    /// segment (via the message layer's congestion marks) rather than to
    /// the confirmed rank itself; a subset of `drift_detections`.
    pub congestion_confirmations: u32,
    /// Online recalibrations performed from in-flight drift measurements
    /// (one per confirmed drift).
    pub recalibrations: u32,
    /// Drift-triggered repartitions the cost/benefit gate accepted.
    pub repartitions: u32,
    /// Drift confirmations where the gate declined to move (projected
    /// gain below `min_gain`, or no capacity to move to).
    pub repartitions_declined: u32,
    /// Detection latency: cycles from drift onset (first degraded cycle)
    /// to confirmation, inclusive, summed over detections.
    pub cycles_to_detect: u64,
    /// Projected net gain (simulated ms: per-cycle saving × remaining
    /// cycles, minus migration cost) of the accepted repartitions.
    pub drift_gain_ms: f64,
    /// Failures that struck while a recovery was already in progress —
    /// i.e. rounds where the checkpoint frontier had not advanced since
    /// the previous failure (faults mid-redistribution or mid-replan).
    pub nested_attempts: u32,
    /// Recovery rounds triggered by a typed fabric-partition error: a
    /// peer was unreachable (every live router path down) but not known
    /// dead, so the round replanned over the reachable component without
    /// blacklisting the island.
    pub island_events: u32,
    /// Drift confirmations attributed to a fabric reroute: the live path
    /// between some cluster pair is longer than the planned (build-time)
    /// path, so the elevated comm time has a concrete cause and the
    /// cost/benefit gate may repartition off the detour. A subset of
    /// `drift_detections`.
    pub detour_confirmations: u32,
    /// Ranks restored from a buddy replica instead of the primary copy
    /// ([`Durability::Replicated`] only), summed over recoveries.
    pub replica_restores: u64,
    /// Generations skipped because no intact copy of some rank survived
    /// at a newer cycle ([`Durability::Replicated`] only), summed over
    /// recoveries.
    pub generation_fallbacks: u64,
}

/// How the app factory passed to [`Scenario::run_recoverable`] should
/// construct the next execution segment.
#[derive(Debug)]
pub enum AppStart<'a> {
    /// First segment: start from the application's initial state.
    Fresh,
    /// Recovery segment: rebuild from this checkpoint and run the
    /// remaining cycles.
    Resume(&'a Checkpoint),
}

/// Timer owner word for the recovery backoff pause (distinct from the
/// MMPS-internal and availability-round owners).
const OWNER_RECOVERY: u64 = u64::MAX - 3;

/// Fail-stop replan budget used by [`RecoveryPolicy::Adapt`], which
/// fixes the [`RecoveryPolicy::Replan`] knobs so its own surface stays
/// the three drift parameters the cost/benefit gate actually needs. Its
/// decision pause is the same flat 5 ms [`Backoff::fixed`] schedule a
/// `Replan { backoff_ms: 5.0 }` policy gets — one backoff implementation
/// serves recovery and the plan server's retries alike, and
/// [`CheckpointPolicy::backoff`] overrides it.
const ADAPT_MAX_REPLANS: u32 = 4;

impl Scenario {
    /// Plan and run `app` with scheduled faults and a recovery policy —
    /// the fault-tolerant sibling of [`Scenario::plan`] + [`Plan::run`].
    ///
    /// The whole lifetime — initial run, failure detection, availability
    /// re-probe, replanning, checkpoint redistribution, resumed segments —
    /// unfolds on **one** simulated network and clock, so recovery cost is
    /// measured in the same currency as the computation itself.
    ///
    /// `factory(ranks, start)` builds the application for each segment:
    /// [`AppStart::Fresh`] for the first, [`AppStart::Resume`] afterwards.
    /// `checkpoint_every` is the cycle interval between checkpoints.
    ///
    /// Under [`RecoveryPolicy::FailFast`] the first rank failure is
    /// returned as the typed engine error ([`NetpartError::RankFailed`]).
    /// Under [`RecoveryPolicy::Replan`] dead nodes are excluded via an
    /// availability round (bounded by the policy's probe timeout), the
    /// partitioner re-runs on the survivors, and the computation resumes
    /// from the last consistent checkpoint in a fresh engine epoch.
    /// [`RecoveryPolicy::Adapt`] additionally watches for gray failures
    /// (sustained drift between observed and predicted phase times),
    /// recalibrates the degraded coefficients online, and repartitions
    /// when — and only when — its cost/benefit gate projects a net gain.
    /// Returns the instrumented [`Run`] (with
    /// [`recovery`](Run::recovery) populated) and the final segment's
    /// application, whose state holds the computed answer.
    pub fn run_recoverable<A, F>(
        &self,
        faults: &FaultSchedule,
        policy: RecoveryPolicy,
        checkpoint_every: u64,
        factory: F,
    ) -> Result<(Run, A), NetpartError>
    where
        A: SpmdApp,
        F: FnMut(usize, AppStart<'_>) -> Result<A, NetpartError>,
    {
        self.run_recoverable_with(
            faults,
            policy,
            CheckpointPolicy::local(checkpoint_every),
            factory,
        )
    }

    /// [`run_recoverable`](Scenario::run_recoverable) with an explicit
    /// [`CheckpointPolicy`]: checkpoint interval plus durability mode plus
    /// the recovery watchdog budget. `run_recoverable` is exactly this
    /// with [`CheckpointPolicy::local`], and a fault-free run is
    /// byte-identical under every durability mode that sends no replica
    /// traffic (i.e. [`Durability::Local`]).
    pub fn run_recoverable_with<A, F>(
        &self,
        faults: &FaultSchedule,
        policy: RecoveryPolicy,
        ckpt: CheckpointPolicy,
        mut factory: F,
    ) -> Result<(Run, A), NetpartError>
    where
        A: SpmdApp,
        F: FnMut(usize, AppStart<'_>) -> Result<A, NetpartError>,
    {
        let plan = self.plan()?;
        plan.check_runnable()?;
        let mut cur_part = plan.partition.clone().ok_or_else(|| {
            NetpartError::InvalidScenario("plan() produced no partition output".into())
        })?;
        let (mmps, nodes) = self.testbed.try_build(&plan.config, self.placement)?;
        let fault_plan = faults.translate(&nodes)?;
        let mut exec = Executor::new(mmps, nodes);
        exec.mmps()
            .net()
            .install_fault_plan(&fault_plan)
            .map_err(|e| match e {
                SimError::InvalidFaultPlan(msg) => NetpartError::InvalidFaultPlan(msg),
                other => NetpartError::Network(other.to_string()),
            })?;

        let adapt = matches!(policy, RecoveryPolicy::Adapt { .. });
        let fail_params = match policy {
            RecoveryPolicy::FailFast => None,
            RecoveryPolicy::Replan {
                max_replans,
                backoff_ms,
            } => Some((max_replans, Backoff::fixed(backoff_ms))),
            RecoveryPolicy::Adapt { .. } => Some((ADAPT_MAX_REPLANS, Backoff::fixed(5.0))),
        }
        // The policy-wide schedule yields to an explicit override.
        .map(|(max, b)| (max, ckpt.backoff.unwrap_or(b)));

        let mut cur_vector = plan.vector.clone();
        let mut distribute = self.distribute;
        let mut phase_probe = PhaseTotalsProbe::default();
        let mut stats = RecoveryStats::default();
        let mut best: Option<Checkpoint> = None;
        let mut known_dead: Vec<NodeId> = Vec::new();
        let mut epoch: u16 = 1;
        // Drift state carried across segments: the global cycle before
        // which the monitor stays quiet, and where the last drift round
        // resumed from (to detect a stalled frontier and stop thrashing).
        let mut cooldown_until: u64 = 0;
        let mut prev_drift_resume: Option<u64> = None;
        let mut declined_last_round = false;
        // Replicated durability: every segment's store is archived whole,
        // and each recovery round re-assembles the newest restorable
        // generation against the round's dead set.
        let mut archives: Vec<CheckpointStore> = Vec::new();
        // The planning model resolved once per run and reused across
        // nested replans (the calibration cache does the heavy lifting;
        // this keeps even the resolve/validate pass out of the loop).
        let mut replan_model: Option<PlanModel> = None;
        // Watchdog state: the checkpoint frontier at the previous failure,
        // and when the current no-progress failure streak began.
        let mut last_resume: Option<u64> = None;
        let mut streak_start: Option<SimTime> = None;
        let t0 = exec.mmps().now();

        loop {
            let base = best.as_ref().map_or(0, |c| c.cycle + 1);
            let mut app = factory(
                exec.nodes().len(),
                match &best {
                    Some(c) => AppStart::Resume(c),
                    None => AppStart::Fresh,
                },
            )?;
            // Resumed apps run the *remaining* cycles, so this is the
            // job's total iteration count in global-cycle terms.
            let total_cycles = base + app.num_cycles();
            let mut store = match ckpt.durability {
                Durability::Local => CheckpointStore::new(exec.nodes().len(), ckpt.every, base),
                Durability::Replicated => {
                    let rc: Vec<usize> = cur_part
                        .rank_clusters()
                        .iter()
                        .map(|&k| k as usize)
                        .collect();
                    CheckpointStore::replicated(
                        exec.nodes().len(),
                        ckpt.every,
                        base,
                        exec.nodes(),
                        &rc,
                    )
                }
            };
            let mut monitor = if adapt {
                let RecoveryPolicy::Adapt {
                    degrade_threshold, ..
                } = policy
                else {
                    unreachable!("adapt implies the Adapt policy")
                };
                let rc = cur_part.rank_clusters();
                let preds: Vec<f64> = rc
                    .iter()
                    .map(|&k| cur_part.breakdown.t_comp_ms[k as usize])
                    .collect();
                let mut m = DriftMonitor::new(
                    DriftConfig {
                        degrade_threshold,
                        ..DriftConfig::default()
                    },
                    base,
                    preds,
                    cur_part.breakdown.t_comm_ms,
                );
                m.set_cooldown_until(cooldown_until);
                Some(m)
            } else {
                None
            };
            let result = match monitor.as_mut() {
                Some(m) => {
                    let mut inner = Tee::new(&mut phase_probe, m);
                    let mut tee = Tee::new(&mut inner, &mut store);
                    exec.run_epoch(&mut app, &cur_vector, distribute, &mut tee, epoch)
                }
                None => {
                    let mut tee = Tee::new(&mut phase_probe, &mut store);
                    exec.run_epoch(&mut app, &cur_vector, distribute, &mut tee, epoch)
                }
            };

            let err = match result {
                Ok(report) => {
                    if stats.replans > 0 || stats.repartitions_declined > 0 {
                        stats.overhead_ms += report.startup.as_millis_f64();
                    }
                    let elapsed_ms = if stats.replans == 0 && stats.repartitions_declined == 0 {
                        report.elapsed.as_millis_f64()
                    } else {
                        // Recovered runs measure wall time across every
                        // segment on the shared clock (fresh segments
                        // start un-distributed, so t0 marks compute start).
                        exec.mmps().now().since(t0).as_millis_f64()
                    };
                    return Ok((
                        Run {
                            elapsed_ms,
                            predicted_tc_ms: plan.predicted_tc_ms,
                            phases: phase_probe.totals,
                            recovery: Some(stats),
                            report,
                        },
                        app,
                    ));
                }
                Err(e) => e,
            };

            // Classify through the pure helper — the precedence between
            // concurrent signals (a budget-exhausted rank failure racing a
            // drift confirmation the monitor holds at the same instant) is
            // regression-pinned on `classify_failure` directly. A drift
            // abort carries the monitor's confirmed report (only Adapt
            // attaches one); fail-stop recoveries are budgeted, drift
            // rounds decline past the budget instead of erroring.
            let confirmed = monitor.as_ref().and_then(|m| m.confirmed()).copied();
            let action = classify_failure(
                &err,
                confirmed.is_some(),
                !faults.is_empty(),
                stats.replans,
                fail_params.map(|(m, _)| m),
            );
            let (drift, suspect, island): (Option<DriftReport>, Option<Rank>, Option<Rank>) =
                match action {
                    RecoveryAction::Fail => return Err(err),
                    RecoveryAction::Drift => (confirmed, None, None),
                    RecoveryAction::Suspect(s) => (None, s, None),
                    RecoveryAction::Island(r) => (None, None, Some(r)),
                };
            let Some((max_replans, backoff)) = fail_params else {
                unreachable!("a recoverable classification implies a recovery budget")
            };
            // This round's decision pause, indexed by completed replans so
            // exponential schedules grow across rounds. `Backoff::fixed`
            // reproduces the historical flat pause bit-for-bit.
            let backoff_ms = backoff.delay_ms(stats.replans);
            let t_fail = exec.mmps().now();

            // Online recalibration from the in-flight measurement — pure
            // arithmetic against the *current* layout, before it changes.
            struct Recal {
                cluster: usize,
                node: NodeId,
                comp_scale: f64,
                comm_scale: f64,
                t_stay_ms: f64,
                /// The cluster whose *segment* the monitor confirmed as
                /// congested (marks accumulated during the degraded
                /// streak), when that attribution survived the compute
                /// outlier analysis. Redirects the comm-cost inflation
                /// from the confirmed rank's cluster to the congested one
                /// and arms the repartition gate for comm-driven drift.
                congested_cluster: Option<usize>,
                /// The cluster most entangled in fabric detours, when any
                /// cluster pair's live route is longer than the planned
                /// (static) one. A reroute around a dead router or link is
                /// a *physical* cause for elevated comm waits — the detour
                /// a traceroute would show — so it arms the repartition
                /// gate like a congestion confirmation and becomes the
                /// inflation target when no congested segment outranks it.
                detour_cluster: Option<usize>,
                report: DriftReport,
            }
            // Detour attribution runs against the routing tables, not the
            // drift marks: compare the live hop count between one
            // representative node per cluster with the planned (static)
            // one. Any pair where live > static is riding a failover
            // detour; the cluster appearing in the most such pairs is the
            // one the partitioner can most profitably move work off.
            // Unreachable pairs are not detours — the island path owns
            // those — and with a healthy fabric live == static for every
            // pair, so this attributes nothing.
            let detour_cluster: Option<usize> = if drift.is_some() {
                let kk = self.testbed.num_clusters();
                let net = exec.mmps().net_ref();
                let reps: Vec<Option<NodeId>> = (0..kk)
                    .map(|k| net.nodes_on_segment(SegmentId(k as u16)).first().copied())
                    .collect();
                let mut votes = vec![0u32; kk];
                for i in 0..kk {
                    for j in (i + 1)..kk {
                        if let (Some(a), Some(b)) = (reps[i], reps[j]) {
                            if let (Some(live), Some(planned)) =
                                (net.hop_count(a, b), net.static_hop_count(a, b))
                            {
                                if live > planned {
                                    votes[i] += 1;
                                    votes[j] += 1;
                                }
                            }
                        }
                    }
                }
                (0..kk).filter(|&k| votes[k] > 0).max_by_key(|&k| votes[k])
            } else {
                None
            };
            let recal = drift.map(|report| {
                let m = monitor.as_ref().expect("a drift report implies a monitor");
                let rc = cur_part.rank_clusters();
                let slack = DriftConfig::default().slack_ms;
                // Attribution. In a bulk-synchronous cycle the *healthy*
                // neighbours of a slow rank can trip the receive-wait test
                // first (they sit waiting on it), so the confirmed rank may
                // name a symptom. And the plan's per-cluster compute
                // prediction can be systematically biased for a given app,
                // which shifts every ratio in a cluster by the same factor.
                // Both problems cancel against same-cluster peers: the rank
                // whose compute ratio stands `degrade_threshold ×` above
                // its peers' median (and above prediction in absolute
                // terms) is the degradation source, and the ratio relative
                // to that peer median is its slowdown. Without such an
                // outlier the confirmation stands as genuine communication
                // drift.
                let ratios: Vec<f64> = (0..exec.nodes().len())
                    .map(|r| m.comp_ratio(r).unwrap_or(1.0))
                    .collect();
                // A rank alone in its cluster has no peers to difference
                // against; its baseline falls back to the prediction (1.0).
                let peer_median = |r: usize| -> f64 {
                    let mut peers: Vec<f64> = (0..ratios.len())
                        .filter(|&q| q != r && rc[q] == rc[r])
                        .map(|q| ratios[q])
                        .collect();
                    if peers.is_empty() {
                        return 1.0;
                    }
                    peers.sort_by(f64::total_cmp);
                    peers[peers.len() / 2].max(f64::EPSILON)
                };
                let worst = (0..ratios.len())
                    .map(|r| (r, ratios[r] / peer_median(r)))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .unwrap_or((report.rank, 1.0));
                let RecoveryPolicy::Adapt {
                    degrade_threshold, ..
                } = policy
                else {
                    unreachable!("a drift report implies the Adapt policy")
                };
                let (rank, comp_scale, raw_comp) =
                    if worst.1 > degrade_threshold && ratios[worst.0] > 1.0 {
                        (worst.0, worst.1.max(1.0), ratios[worst.0])
                    } else {
                        (report.rank, 1.0, ratios[report.rank])
                    };
                let cluster = rc[rank] as usize;
                let node = exec.nodes()[rank];
                let comm_ratio = if rank == report.rank {
                    report.comm_ratio
                } else {
                    m.comm_ratio(rank).unwrap_or(1.0)
                };
                let pred_comm = cur_part.breakdown.t_comm_ms + slack;
                let comm_scale = speed_scale(comm_ratio * pred_comm, pred_comm);
                // Staying put prices every remaining cycle at the degraded
                // rank's pace — it gates the bulk-synchronous cycle. The
                // compute term is the rank's *observed* smoothed time
                // (ratio × prediction undoes the ratio's denominator), so
                // prediction bias cannot distort it.
                let obs_comp_ms = raw_comp * (cur_part.breakdown.t_comp_ms[cluster] + slack);
                let t_stay_ms = obs_comp_ms
                    + (cur_part.breakdown.t_comm_ms * comm_scale - cur_part.breakdown.t_overlap_ms)
                        .max(0.0);
                // Segment attribution holds only when no compute outlier
                // explains the drift (a slow node must never hide behind
                // wire congestion), and only for segments that map to a
                // physical cluster of this testbed — the per-cluster
                // segment ids are the cluster indices, so anything past
                // `num_clusters` is backbone fabric no partition move can
                // route around.
                let congested_cluster = if comp_scale > 1.0 {
                    None
                } else {
                    report.segment.filter(|&s| s < self.testbed.num_clusters())
                };
                stats.drift_detections += 1;
                stats.recalibrations += 1;
                if congested_cluster.is_some() {
                    stats.congestion_confirmations += 1;
                }
                if detour_cluster.is_some() {
                    stats.detour_confirmations += 1;
                }
                stats.cycles_to_detect += report.cycle + 1 - report.first_degraded_cycle;
                Recal {
                    cluster,
                    node,
                    comp_scale,
                    comm_scale,
                    t_stay_ms,
                    congested_cluster,
                    detour_cluster,
                    report: DriftReport {
                        rank,
                        comp_ratio: raw_comp,
                        comm_ratio,
                        ..report
                    },
                }
            });

            // Name the suspect first: every death known *before* the
            // checkpoint fold below forces replica assembly away from the
            // corpse's primary copy.
            if let Some(rank) = suspect {
                stats.failed_ranks.push(rank);
                let node = exec.nodes()[rank];
                if !known_dead.contains(&node) {
                    known_dead.push(node);
                }
            }
            // An island event names an *unreachable* peer, not a corpse:
            // purge the in-flight protocol state towards it (like a dead
            // peer's), but never blacklist it — the reachability filter
            // below excludes its whole component for this round, and a
            // later round re-admits it once the fabric heals.
            if let Some(rank) = island {
                stats.island_events += 1;
                let peer = exec.nodes()[rank];
                exec.mmps().abort_peer(peer);
            }
            let progress = store.max_cycle_seen().map_or(base, |m| m + 1);
            for &d in &known_dead {
                exec.mmps().abort_peer(d);
            }

            // Simulated pause before re-probing (drains stragglers).
            if backoff_ms > 0.0 {
                exec.mmps()
                    .set_timer(SimDur::from_millis_f64(backoff_ms), OWNER_RECOVERY, 0);
                while let Some(evt) = exec.mmps().next_event() {
                    if matches!(evt, MmpsEvent::TimerFired { owner, .. } if owner == OWNER_RECOVERY)
                    {
                        break;
                    }
                }
            }

            // Failure-aware availability round over the physical clusters,
            // known-dead nodes excluded up front; nodes that do not answer
            // within the bounded probe timeout join them. A gray-degraded
            // node answers honestly with its effective load and thereby
            // self-excludes; a recovered or unloaded node re-admits itself
            // the same way.
            let clusters: Vec<Vec<NodeId>> = (0..self.testbed.num_clusters())
                .map(|k| {
                    exec.mmps()
                        .net_ref()
                        .nodes_on_segment(SegmentId(k as u16))
                        .into_iter()
                        .filter(|n| !known_dead.contains(n))
                        .collect()
                })
                .collect();
            let mut avail =
                determine_available(exec.mmps(), &clusters, AvailabilityPolicy::default());
            for &n in &avail.suspected_dead {
                if !known_dead.contains(&n) {
                    known_dead.push(n);
                }
                exec.mmps().abort_peer(n);
            }

            // Reachable-component filter: a cluster the coordinator has no
            // live router path to cannot take part in this segment — the
            // first distribution send towards it would fail fast with the
            // same typed partition error that triggered an island round.
            // Consulting the live routing table here is that send-error
            // check without paying for the doomed message (a real stack
            // reports "destination unreachable" from its local table
            // without transmitting). Unreachable clusters are excluded
            // for THIS round only and never join `known_dead`: every
            // recovery round re-runs the filter, so a healed fabric
            // re-admits the cut-off clusters automatically. With no
            // fabric faults the live table is the static table and the
            // filter excludes nothing.
            {
                let coord = avail.nodes.iter().flatten().copied().next();
                if let Some(coord) = coord {
                    let net = exec.mmps().net_ref();
                    let cut: Vec<usize> = (0..avail.nodes.len())
                        .filter(|&k| {
                            avail.nodes[k]
                                .first()
                                .is_some_and(|&n| !net.route_exists(coord, n))
                        })
                        .collect();
                    for k in cut {
                        // Purge in-flight protocol state toward *every*
                        // node behind the cut, exactly as a corpse's is
                        // purged — otherwise their pending retransmits
                        // keep surfacing partition errors against the
                        // already-resumed run and recovery never makes
                        // checkpoint progress.
                        for &n in &avail.nodes[k] {
                            exec.mmps().abort_peer(n);
                        }
                        avail.nodes[k].clear();
                        avail.available[k] = 0;
                    }
                }
            }

            // Fold this segment's checkpoints into the best restorable
            // snapshot (stores outlive their segment — host-memory stable
            // storage under Local durability, archived checksummed
            // generations under Replicated). The fold runs *after* the
            // availability round so assembly honours every death this
            // round detected, however it was detected: a checkpoint
            // holder that died mid-recovery (named suspect or silent
            // corpse the probes just found) must be restored from its
            // buddy replica, never from a primary copy that went down
            // with the node.
            match ckpt.durability {
                Durability::Local => {
                    if let Some(f) = store.frontier() {
                        best = store.take(f);
                    }
                }
                Durability::Replicated => {
                    // Never cache an assembled snapshot across rounds: the
                    // dead set grows, so every round re-assembles from the
                    // archived stores, newest segment first, falling back
                    // across replicas and generations as needed.
                    archives.push(store);
                    best = None;
                    for st in archives.iter().rev() {
                        if let Some(a) = st.assemble(&known_dead) {
                            stats.replica_restores += a.replica_restores;
                            stats.generation_fallbacks += a.generation_fallbacks;
                            best = Some(a.checkpoint);
                            break;
                        }
                    }
                }
            }
            let resume_at = best.as_ref().map_or(0, |c| c.cycle + 1);
            stats.cycles_lost += progress.saturating_sub(resume_at);

            // Watchdog: a failure round resuming from the same frontier as
            // the previous one made no checkpoint progress — the fault
            // struck *during* recovery (mid-redistribution, mid-replan). A
            // streak of those longer than the sim-time budget means the
            // recovery path is stalling, not advancing; stop with a typed
            // error instead of spinning through the replan budget.
            if last_resume == Some(resume_at) {
                stats.nested_attempts += 1;
                let start = *streak_start.get_or_insert(t_fail);
                let stalled_ms = t_fail.since(start).as_millis_f64();
                if stalled_ms > ckpt.watchdog_ms {
                    return Err(NetpartError::RecoveryStalled {
                        attempts: stats.nested_attempts,
                        stalled_ms: stalled_ms as u64,
                        budget_ms: ckpt.watchdog_ms as u64,
                    });
                }
            } else {
                last_resume = Some(resume_at);
                streak_start = Some(t_fail);
            }

            // Re-run the offline half on the survivors — on the refitted
            // model when a drift was just recalibrated. Resolved once per
            // run and reused across nested replans, so recovery rounds
            // never repeat the calibration-cache lookup and validation.
            if replan_model.is_none() {
                replan_model = Some(self.resolve_model()?);
            }
            let model = replan_model.as_ref().expect("just resolved");
            let inflated = recal.as_ref().filter(|r| r.comm_scale > 1.0).map(|r| {
                // Inflate the congested segment's cluster when the marks
                // named one; else the cluster most entangled in fabric
                // detours; else the confirmed rank's own cluster.
                let target = r
                    .congested_cluster
                    .or(r.detour_cluster)
                    .unwrap_or(r.cluster);
                InflatedCostModel::new(model.as_dyn(), target, r.comm_scale)
            });
            let model_dyn: &dyn CommCostModel = match &inflated {
                Some(m) => m,
                None => model.as_dyn(),
            };
            let mut sys = SystemModel::from_testbed(&self.testbed).with_available(&avail.available);
            if let Some(r) = &recal {
                // The degraded node normally self-excludes through its
                // load report; if a lenient availability threshold keeps
                // it in the pool, plan its cluster at the refitted
                // (degraded) speed rather than the calibrated one.
                if r.comp_scale > 1.0
                    && avail
                        .nodes
                        .get(r.cluster)
                        .is_some_and(|ns| ns.contains(&r.node))
                {
                    sys.clusters[r.cluster].sec_per_flop *= r.comp_scale;
                    sys.clusters[r.cluster].sec_per_intop *= r.comp_scale;
                }
            }
            let est = Estimator::new(&sys, model_dyn, &self.app);
            let part_res = partition(&est, &self.options);

            // The drift cost/benefit gate: move only when the projected
            // per-cycle saving over the remaining cycles beats the
            // migration cost (re-executed cycles on the new plan, shipping
            // the checkpointed state, the decision pause) by `min_gain`.
            if let (
                Some(r),
                RecoveryPolicy::Adapt {
                    min_gain, cooldown, ..
                },
            ) = (recal, policy)
            {
                let net_gain = part_res.as_ref().ok().map(|part| {
                    let t_new = part.predicted_tc_ms();
                    let remaining = total_cycles.saturating_sub(resume_at) as f64;
                    let redo = progress.saturating_sub(resume_at) as f64;
                    // Shipping estimate: rank 0 sends every other rank its
                    // checkpoint blob, priced by the (refitted) cost model.
                    let topo = self.app.comm_phases()[0].topology;
                    let blob = best.as_ref().map_or(0.0, |c| {
                        let total: usize = c.ranks.iter().map(|b| b.len()).sum();
                        total as f64 / c.ranks.len().max(1) as f64
                    });
                    let rc = part.rank_clusters();
                    let src = rc.first().copied().unwrap_or(0) as usize;
                    let dist_ms: f64 = rc
                        .iter()
                        .skip(1)
                        .map(|&k| {
                            let k = k as usize;
                            let mut ms = model_dyn.intra_ms(k, topo, blob, 2);
                            if k != src {
                                ms += model_dyn.router_ms(src, k, blob)
                                    + model_dyn.coerce_ms(src, k, blob);
                            }
                            ms
                        })
                        .sum();
                    (r.t_stay_ms - t_new) * remaining - (dist_ms + redo * t_new + backoff_ms)
                });
                // A comm-only confirmation with no attributable *cause*
                // never repartitions: the elevated waits are either a
                // transient burst — waiting it out beats shipping
                // checkpoint state through the already-degraded network —
                // or a systematic comm misprediction, and replanning on a
                // model known to be wrong is thrashing. Three causes arm
                // the gate: a compute outlier (a slow node to plan
                // around), a mark-confirmed congested segment, or a
                // fabric detour (a reroute around a dead router or link
                // lengthened some cluster pair's live path) — for the
                // latter two the inflated model prices the implicated
                // cluster's wire honestly and the partitioner can route
                // work off it, so the cost/benefit projection is
                // trustworthy. The recalibrated (inflated) model is kept
                // either way and prices any later fail-stop replan in
                // this run.
                let accept = (r.comp_scale > 1.0
                    || r.congested_cluster.is_some()
                    || r.detour_cluster.is_some())
                    && net_gain.is_some_and(|g| g > min_gain)
                    && stats.replans < max_replans;
                if accept {
                    stats.repartitions += 1;
                    stats.drift_gain_ms += net_gain.unwrap_or(0.0);
                    // Give the new placement its own settle window: the
                    // re-executed cycles up to the confirmation point plus
                    // `cooldown` cycles beyond it run unmonitored, so the
                    // distribution stragglers of the migrated state are not
                    // read as fresh drift.
                    cooldown_until = r.report.cycle + 1 + cooldown;
                    prev_drift_resume = Some(resume_at);
                    declined_last_round = false;
                    // Fall through to the shared replan-and-resume tail.
                } else {
                    stats.repartitions_declined += 1;
                    // Deliberately stay put: resume the same placement and
                    // decomposition from the checkpoint, suppressing the
                    // monitor for `cooldown` cycles past the confirmation.
                    // Re-arming gives the gate one second look (the
                    // degradation may worsen and tip the balance), but two
                    // consecutive declines disarm the monitor for good —
                    // for a steady degradation the remaining-cycle saving
                    // only shrinks, so every further round would redo
                    // checkpointed work just to decline again. Likewise if
                    // the frontier has not advanced since the last drift
                    // round, the detector cannot make progress — run to
                    // completion as planned.
                    cooldown_until = if prev_drift_resume == Some(resume_at) || declined_last_round
                    {
                        u64::MAX
                    } else {
                        r.report.cycle + 1 + cooldown
                    };
                    prev_drift_resume = Some(resume_at);
                    declined_last_round = true;
                    distribute = true; // checkpointed state must be re-spread
                    epoch += 1;
                    stats.overhead_ms += exec.mmps().now().since(t_fail).as_millis_f64();
                    continue;
                }
            }

            let part = part_res?;
            let assignment = self.placement.assign(&part.config);
            let mut next_in = vec![0usize; self.testbed.num_clusters()];
            let mut new_nodes = Vec::with_capacity(assignment.len());
            for &k in &assignment {
                let k = k as usize;
                new_nodes.push(avail.nodes[k][next_in[k]]);
                next_in[k] += 1;
            }
            cur_vector = part.vector.clone();
            cur_part = part;
            distribute = true; // checkpointed state must reach survivors
            let mmps = exec.into_mmps();
            exec = Executor::new(mmps, new_nodes);
            epoch += 1;
            stats.replans += 1;
            stats.overhead_ms += exec.mmps().now().since(t_fail).as_millis_f64();
        }
    }
}

/// Aggregate phase instrumentation gathered by the [`Probe`] the
/// pipeline attaches to every run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    /// Simulated ms spent across all ranks in `Send` steps.
    pub send_ms: f64,
    /// Simulated ms spent across all ranks in `Compute` steps.
    pub compute_ms: f64,
    /// Simulated ms spent across all ranks blocked in `Recv` steps.
    pub recv_ms: f64,
    /// Rank-cycles completed (ranks × cycles for a full run).
    pub cycles: u64,
    /// Cycle messages delivered.
    pub messages: u64,
    /// Cycle payload bytes delivered.
    pub bytes: u64,
}

/// The pipeline's standard instrumentation, built on the engine's
/// [`Probe`] seam.
#[derive(Debug, Default)]
struct PhaseTotalsProbe {
    totals: PhaseTotals,
}

impl Probe for PhaseTotalsProbe {
    fn on_phase(
        &mut self,
        _rank: Rank,
        _cycle: u64,
        phase: Phase,
        started: SimTime,
        ended: SimTime,
    ) {
        let ms = ended.since(started).as_millis_f64();
        match phase {
            Phase::Send => self.totals.send_ms += ms,
            Phase::Compute => self.totals.compute_ms += ms,
            Phase::Recv => self.totals.recv_ms += ms,
        }
    }

    fn on_cycle(&mut self, _rank: Rank, _cycle: u64, _at: SimTime) {
        self.totals.cycles += 1;
    }

    fn on_message(&mut self, _from: Rank, _to: Rank, _cycle: u64, bytes: usize, _at: SimTime) {
        self.totals.messages += 1;
        self.totals.bytes += bytes as u64;
    }
}

/// An executed plan: the engine's report plus the pipeline's aggregate
/// instrumentation.
#[derive(Debug, Clone)]
pub struct Run {
    /// Simulated elapsed ms of the iterative part (startup excluded).
    pub elapsed_ms: f64,
    /// The plan's prediction, carried over for side-by-side reporting.
    pub predicted_tc_ms: Option<f64>,
    /// Aggregate per-phase totals observed by the pipeline probe.
    pub phases: PhaseTotals,
    /// Recovery accounting, present when the run came from
    /// [`Scenario::run_recoverable`] (zeroed stats if nothing failed).
    pub recovery: Option<RecoveryStats>,
    /// The engine's full report (per-cycle spans, per-rank times).
    pub report: SpmdReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_apps::stencil::{stencil_model, StencilApp, StencilVariant};

    fn small_scenario() -> Scenario {
        Scenario::new(Testbed::paper(), stencil_model(40, StencilVariant::Sten1))
            .with_cost(CostSource::Paper)
    }

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
    fn miscalibrated_model_is_a_typed_error() {
        // An empty fixed model covers nothing the stencil needs.
        let s = small_scenario().with_cost(CostSource::Fixed(CalibratedCostModel::default()));
        match s.plan().unwrap_err() {
            NetpartError::Calibration(msg) => assert!(msg.contains("no fit"), "{msg}"),
            other => panic!("expected Calibration, got {other:?}"),
        }
    }

    #[test]
    fn pinned_plan_validates_capacity() {
        let s = small_scenario();
        let err = s
            .plan_pinned(&[99, 0], PartitionVector::equal(40, 99))
            .unwrap_err();
        assert!(matches!(err, NetpartError::ClusterOvercommitted { .. }));
    }

    fn stencil_factory(
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

    #[test]
    fn empty_schedule_is_identical_to_plain_run() {
        use netpart_apps::stencil::sequential_reference;
        let s = small_scenario();
        let plan = s.plan().unwrap();
        let mut app = StencilApp::new(40, 6, StencilVariant::Sten1, plan.ranks());
        let baseline = plan.run(&mut app).unwrap();

        let policy = RecoveryPolicy::Replan {
            max_replans: 3,
            backoff_ms: 10.0,
        };
        let (run, rapp) = s
            .run_recoverable(&FaultSchedule::new(), policy, 1, stencil_factory(40, 6))
            .unwrap();
        assert_eq!(run.elapsed_ms.to_bits(), baseline.elapsed_ms.to_bits());
        assert_eq!(run.phases, baseline.phases);
        assert_eq!(run.recovery, Some(RecoveryStats::default()));
        assert_eq!(rapp.gather(), app.gather());
        assert_eq!(rapp.gather(), sequential_reference(40, 6));
    }

    #[test]
    fn adapt_on_fault_free_run_is_byte_identical_to_plain_run() {
        use netpart_apps::stencil::sequential_reference;
        let s = small_scenario();
        let plan = s.plan().unwrap();
        let mut app = StencilApp::new(40, 6, StencilVariant::Sten1, plan.ranks());
        let baseline = plan.run(&mut app).unwrap();

        // The drift monitor is purely observational: without drift it must
        // not perturb the run by a single byte, and no drift statistic may
        // move off zero.
        let policy = RecoveryPolicy::Adapt {
            degrade_threshold: 1.75,
            min_gain: 0.0,
            cooldown: 4,
        };
        let (run, rapp) = s
            .run_recoverable(&FaultSchedule::new(), policy, 1, stencil_factory(40, 6))
            .unwrap();
        assert_eq!(run.elapsed_ms.to_bits(), baseline.elapsed_ms.to_bits());
        assert_eq!(run.phases, baseline.phases);
        assert_eq!(run.recovery, Some(RecoveryStats::default()));
        assert_eq!(rapp.gather(), app.gather());
        assert_eq!(rapp.gather(), sequential_reference(40, 6));
    }

    #[test]
    fn adaptive_repartition_beats_staying_put_under_gray_slowdown() {
        use netpart_apps::stencil::sequential_reference;
        let s = small_scenario();
        let plan = s.plan().unwrap();
        let iters = 24u64;
        let mut app = StencilApp::new(40, iters, StencilVariant::Sten1, plan.ranks());
        let fault_free = plan.run(&mut app).unwrap();
        // One node turns gray early: 4× compute, never fail-stop.
        let faults = FaultSchedule::new().with(Fault::RankSlowdown {
            at_ms: fault_free.elapsed_ms * 0.15,
            rank: 0,
            factor: 4.0,
        });

        // Replan never fires on a gray slowdown — the run limps through.
        let (stay, stay_app) = s
            .run_recoverable(
                &faults,
                RecoveryPolicy::Replan {
                    max_replans: 3,
                    backoff_ms: 5.0,
                },
                1,
                stencil_factory(40, iters),
            )
            .unwrap();
        assert_eq!(stay.recovery.as_ref().map(|r| r.replans), Some(0));
        assert!(stay.elapsed_ms > fault_free.elapsed_ms * 1.5);

        let (adapt, adapt_app) = s
            .run_recoverable(
                &faults,
                RecoveryPolicy::Adapt {
                    degrade_threshold: 1.75,
                    min_gain: 0.0,
                    cooldown: 4,
                },
                1,
                stencil_factory(40, iters),
            )
            .unwrap();
        let st = adapt.recovery.clone().expect("adaptive run carries stats");
        assert!(st.drift_detections >= 1, "drift must be confirmed: {st:?}");
        assert_eq!(st.recalibrations, st.drift_detections);
        assert!(st.repartitions >= 1, "gate must accept the move: {st:?}");
        // Bounded detection: EWMA settle + hysteresis on top of warmup.
        assert!(
            (1..=8).contains(&st.cycles_to_detect),
            "detection latency out of bounds: {st:?}"
        );
        assert!(st.drift_gain_ms > 0.0);
        assert!(
            adapt.elapsed_ms < stay.elapsed_ms,
            "repartitioning must beat limping: adapt {} ms vs stay {} ms",
            adapt.elapsed_ms,
            stay.elapsed_ms
        );
        assert_eq!(adapt_app.gather(), sequential_reference(40, iters));
        assert_eq!(stay_app.gather(), sequential_reference(40, iters));
    }

    #[test]
    fn min_gain_above_projected_saving_declines_to_repartition() {
        use netpart_apps::stencil::sequential_reference;
        let s = small_scenario();
        let plan = s.plan().unwrap();
        let iters = 24u64;
        let mut app = StencilApp::new(40, iters, StencilVariant::Sten1, plan.ranks());
        let fault_free = plan.run(&mut app).unwrap();
        let faults = FaultSchedule::new().with(Fault::RankSlowdown {
            at_ms: fault_free.elapsed_ms * 0.15,
            rank: 0,
            factor: 4.0,
        });
        // An unreachable min_gain: the gate must deliberately stay put,
        // every time, and the answer must still come out exact.
        let (run, rapp) = s
            .run_recoverable(
                &faults,
                RecoveryPolicy::Adapt {
                    degrade_threshold: 1.75,
                    min_gain: 1e12,
                    cooldown: 2,
                },
                1,
                stencil_factory(40, iters),
            )
            .unwrap();
        let st = run.recovery.clone().expect("stats");
        assert!(st.drift_detections >= 1, "drift still confirmed: {st:?}");
        assert_eq!(st.repartitions, 0, "gate must never accept: {st:?}");
        assert!(st.repartitions_declined >= 1);
        assert_eq!(st.drift_gain_ms, 0.0);
        assert_eq!(st.replans, 0, "no placement change ever happens");
        assert_eq!(rapp.gather(), sequential_reference(40, iters));
    }

    /// End-to-end pin for segment attribution: a cross-traffic flood on
    /// the congestion-enabled testbed must surface as a *congestion*
    /// confirmation (marks name the segment), not as a slow rank. This
    /// exercises the whole seam — Mark-policy queues, MMPS mark
    /// bookkeeping, the engine's cycle-boundary forwarding, and the
    /// probe tee in front of the drift monitor; a break anywhere
    /// downgrades the confirmation to a rank attribution and fails here.
    #[test]
    fn flood_confirms_the_segment_not_the_rank() {
        use netpart_apps::stencil::sequential_reference;
        use netpart_mmps::WindowConfig;
        use netpart_sim::{CongestionSpec, OverflowPolicy};

        let mut testbed = Testbed::paper();
        testbed.segment.congestion = Some(CongestionSpec {
            knee_queue: 2,
            ..CongestionSpec::ethernet_default(OverflowPolicy::Mark)
        });
        testbed.mmps.congestion_window = Some(WindowConfig {
            floor: 2,
            ..WindowConfig::default()
        });
        // n=120 is the smallest grid the paper cost model spreads past a
        // single rank on this testbed; one rank would leave the flood
        // nothing to degrade.
        let n = 120usize;
        let s = Scenario::new(testbed, stencil_model(n as u64, StencilVariant::Sten1))
            .with_cost(CostSource::Paper);
        let plan = s.plan().unwrap();
        let iters = 10u64;
        let mut app = StencilApp::new(n, iters, StencilVariant::Sten1, plan.ranks());
        let fault_free = plan.run(&mut app).unwrap();
        assert!(plan.ranks() > 1, "flood needs border traffic to degrade");
        let faults = FaultSchedule::new().with(Fault::TrafficFlood {
            cluster: 0,
            from_ms: fault_free.elapsed_ms * 0.15,
            until_ms: fault_free.elapsed_ms * 1.5,
            bytes: 1400,
            period_us: 1500,
        });
        let (run, rapp) = s
            .run_recoverable(
                &faults,
                RecoveryPolicy::Adapt {
                    degrade_threshold: 1.75,
                    min_gain: 0.0,
                    cooldown: 4,
                },
                2,
                stencil_factory(n, iters),
            )
            .unwrap();
        let st = run.recovery.clone().expect("stats");
        assert!(st.drift_detections >= 1, "drift must be confirmed: {st:?}");
        assert!(
            st.congestion_confirmations >= 1,
            "the confirmation must name the flooded segment: {st:?}"
        );
        assert_eq!(st.recalibrations, st.drift_detections);
        assert_eq!(rapp.gather(), sequential_reference(n, iters));
    }

    #[test]
    fn crash_under_replan_recovers_bit_identically() {
        use netpart_apps::stencil::sequential_reference;
        let s = small_scenario();
        // Find the fault-free wall time, then crash rank 0 mid-run.
        let plan = s.plan().unwrap();
        let iters = 12u64;
        let mut app = StencilApp::new(40, iters, StencilVariant::Sten1, plan.ranks());
        let fault_free = plan.run(&mut app).unwrap();
        let faults = FaultSchedule::new().with(Fault::RankCrash {
            at_ms: fault_free.elapsed_ms * 0.4,
            rank: 0,
        });
        let policy = RecoveryPolicy::Replan {
            max_replans: 3,
            backoff_ms: 5.0,
        };
        let (run, rapp) = s
            .run_recoverable(&faults, policy, 1, stencil_factory(40, iters))
            .unwrap();
        let stats = run.recovery.expect("recoverable run carries stats");
        assert_eq!(stats.replans, 1, "one crash, one replan");
        assert_eq!(stats.failed_ranks, vec![0]);
        assert!(stats.overhead_ms > 0.0);
        assert!(
            run.elapsed_ms > fault_free.elapsed_ms,
            "recovery cannot be free"
        );
        assert_eq!(
            rapp.gather(),
            sequential_reference(40, iters),
            "recovered answer must be bit-identical to the sequential reference"
        );
    }

    #[test]
    fn crash_under_fail_fast_returns_typed_error_naming_the_rank() {
        let s = small_scenario();
        let plan = s.plan().unwrap();
        let iters = 12u64;
        let mut app = StencilApp::new(40, iters, StencilVariant::Sten1, plan.ranks());
        let fault_free = plan.run(&mut app).unwrap();
        let faults = FaultSchedule::new().with(Fault::RankCrash {
            at_ms: fault_free.elapsed_ms * 0.4,
            rank: 0,
        });
        let err = match s.run_recoverable(
            &faults,
            RecoveryPolicy::FailFast,
            1,
            stencil_factory(40, iters),
        ) {
            Err(e) => e,
            Ok(_) => panic!("fail-fast run must fail"),
        };
        match err {
            NetpartError::RankFailed {
                rank, checkpoint, ..
            } => {
                assert_eq!(rank, 0);
                assert!(checkpoint.is_some(), "checkpoints were being recorded");
            }
            other => panic!("expected RankFailed, got {other}"),
        }
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

    #[test]
    fn raw_schedule_naming_an_unknown_node_is_rejected_at_install() {
        let s = small_scenario();
        let t = SimTime::ZERO + SimDur::from_millis_f64(5.0);
        let bogus = FaultPlan::new().crash(t, NodeId(9999));
        let err = match s.run_recoverable(
            &FaultSchedule::new().with_raw(bogus),
            RecoveryPolicy::FailFast,
            1,
            stencil_factory(40, 2),
        ) {
            Err(e) => e,
            Ok(_) => panic!("an unknown node must be rejected"),
        };
        match err {
            NetpartError::InvalidFaultPlan(msg) => {
                assert!(msg.contains("unknown node"), "{msg}")
            }
            other => panic!("expected InvalidFaultPlan, got {other}"),
        }
    }

    #[test]
    fn inverted_fault_window_is_rejected_at_install() {
        let s = small_scenario();
        let faults = FaultSchedule::new().with(Fault::LossBurst {
            cluster: 0,
            from_ms: 50.0,
            until_ms: 10.0,
            loss: 0.5,
        });
        let err =
            match s.run_recoverable(&faults, RecoveryPolicy::FailFast, 1, stencil_factory(40, 2)) {
                Err(e) => e,
                Ok(_) => panic!("an inverted window must be rejected"),
            };
        match err {
            NetpartError::InvalidFaultPlan(msg) => {
                assert!(msg.contains("until") && msg.contains("from"), "{msg}")
            }
            other => panic!("expected InvalidFaultPlan, got {other}"),
        }
    }

    #[test]
    fn budget_exhausted_rank_failure_outranks_concurrent_drift() {
        // The S3 regression pin: precedence between concurrent failure
        // signals lives in `classify_failure`, not in control-flow luck.
        let rank_err = NetpartError::RankFailed {
            rank: 2,
            cycle: 7,
            checkpoint: Some(5),
            attempts: 4,
        };
        // Under budget the crash recovers, naming the suspect.
        assert_eq!(
            classify_failure(&rank_err, false, true, 1, Some(4)),
            RecoveryAction::Suspect(Some(2))
        );
        // Budget spent and the monitor holds a concurrent drift
        // confirmation: the rank failure is still terminal — resuming
        // "for drift" would mask the fatal crash.
        assert_eq!(
            classify_failure(&rank_err, true, true, 4, Some(4)),
            RecoveryAction::Fail
        );
        // FailFast recovers nothing.
        assert_eq!(
            classify_failure(&rank_err, true, true, 0, None),
            RecoveryAction::Fail
        );
        // An unreachable peer classifies exactly like a failed rank.
        let peer_err = NetpartError::PeerUnreachable {
            rank: 1,
            attempts: 9,
        };
        assert_eq!(
            classify_failure(&peer_err, true, true, 4, Some(4)),
            RecoveryAction::Fail
        );
        assert_eq!(
            classify_failure(&peer_err, false, false, 0, Some(4)),
            RecoveryAction::Suspect(Some(1))
        );
        // A confirmed drift abort recovers even past the replan budget —
        // drift rounds decline instead of erroring, so they are never
        // budgeted.
        let drift_err = NetpartError::DriftDegraded {
            rank: 1,
            cycle: 9,
            checkpoint: Some(8),
            severity_permille: 4000,
        };
        assert_eq!(
            classify_failure(&drift_err, true, true, 9, Some(4)),
            RecoveryAction::Drift
        );
        // An unconfirmed drift abort is surfaced as the bug it would be.
        assert_eq!(
            classify_failure(&drift_err, false, true, 0, Some(4)),
            RecoveryAction::Fail
        );
        // A deadlock is recoverable (naming nobody) only when scheduled
        // faults can explain it, and only within the budget.
        let dead = NetpartError::Deadlock {
            blocked: vec![(0, "recv".into())],
        };
        assert_eq!(
            classify_failure(&dead, false, true, 0, Some(4)),
            RecoveryAction::Suspect(None)
        );
        assert_eq!(
            classify_failure(&dead, false, false, 0, Some(4)),
            RecoveryAction::Fail
        );
        assert_eq!(
            classify_failure(&dead, false, true, 4, Some(4)),
            RecoveryAction::Fail
        );
        // A typed fabric partition is an island event — recoverable
        // within the budget (the round replans the reachable component
        // without blacklisting the named peer), terminal past it.
        let cut = NetpartError::FabricPartitioned { rank: 3 };
        assert_eq!(
            classify_failure(&cut, false, false, 0, Some(4)),
            RecoveryAction::Island(3)
        );
        assert_eq!(
            classify_failure(&cut, true, true, 4, Some(4)),
            RecoveryAction::Fail
        );
        assert_eq!(
            classify_failure(&cut, false, true, 0, None),
            RecoveryAction::Fail
        );
    }

    /// The paper model only covers the paper's testbed; synthetic fabrics
    /// are priced with a small analytic fixed model instead (same shape
    /// the bench crate's scale sweeps use).
    fn hop_cost_model(testbed: &Testbed, app: &AppModel) -> CalibratedCostModel {
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

    /// Regression (benchmark/README sizing finding 2): at 1024 nodes and
    /// N = 8192 the integer vector rounds some rank down to zero rows.
    /// Planning that is fine; running it used to panic inside
    /// `StencilApp::setup` and is now a typed error naming the rank.
    #[test]
    fn plan_with_an_empty_rank_plans_but_refuses_to_run() {
        let testbed = Testbed::synthetic(32, 32, 1.15);
        let model = stencil_model(8192, StencilVariant::Sten1);
        let cost = hop_cost_model(&testbed, &model);
        let s = Scenario::new(testbed, model).with_cost(CostSource::Fixed(cost));
        let plan = s.plan().unwrap();
        let rank = plan.vector.counts().iter().position(|&c| c == 0);
        let rank = rank.expect("the repro must round some rank to zero rows");
        let expected = NetpartError::EmptyRank { rank };
        // The check precedes any use of the application, so a token app
        // stands in for the 8192² grid.
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

    #[test]
    fn fabric_partition_recovers_as_island_and_readmits_on_heal() {
        use netpart_apps::stencil::sequential_reference;
        use netpart_calibrate::Wiring;
        // Dumbbell fabric: router 0 joins clusters {0,1} to trunk
        // segment 4, router 1 joins {2,3}. Killing router 1 cuts the
        // right half off while every node on it stays alive — a pure
        // fabric partition, invisible to the intra-cluster probe round.
        let testbed = Testbed::synthetic(4, 1, 1.2).with_wiring(Wiring::Dumbbell);
        let app = stencil_model(1200, StencilVariant::Sten1);
        let cost = hop_cost_model(&testbed, &app);
        let s = Scenario::new(testbed, app).with_cost(CostSource::Fixed(cost));
        let plan = s.plan().unwrap();
        assert!(
            plan.ranks() >= 3,
            "the initial plan must span both halves: {} ranks",
            plan.ranks()
        );
        let iters = 10u64;
        let mut app = StencilApp::new(1200, iters, StencilVariant::Sten1, plan.ranks());
        let fault_free = plan.run(&mut app).unwrap();

        // The outage opens at 20% of the fault-free runtime and heals at
        // half of it; a later crash (well past the heal, with room for
        // the halved machine to advance its checkpoint frontier) forces
        // a second recovery round on the healed fabric, whose
        // availability round must re-admit the formerly-cut clusters —
        // islands are never blacklisted.
        let faults = FaultSchedule::new()
            .with(Fault::RouterOutage {
                router: 1,
                from_ms: fault_free.elapsed_ms * 0.2,
                until_ms: fault_free.elapsed_ms * 0.5,
            })
            .with(Fault::RankCrash {
                at_ms: fault_free.elapsed_ms * 1.2,
                rank: 0,
            });
        let (run, rapp) = s
            .run_recoverable(
                &faults,
                RecoveryPolicy::Replan {
                    max_replans: 4,
                    backoff_ms: 5.0,
                },
                1,
                stencil_factory(1200, iters),
            )
            .unwrap();
        let st = run.recovery.clone().expect("stats");
        assert!(
            st.island_events >= 1,
            "the cut must classify as an island event: {st:?}"
        );
        assert!(
            st.replans >= 2,
            "island round plus crash round both replan: {st:?}"
        );
        // The islanded peers were unreachable, never dead: only the
        // genuine crash may name a suspect.
        assert_eq!(
            st.failed_ranks.len(),
            1,
            "only the crash names a suspect: {st:?}"
        );
        assert_eq!(rapp.gather(), sequential_reference(1200, iters));
    }

    #[test]
    fn replan_budget_exhaustion_surfaces_the_rank_failure() {
        // A zero budget turns the first crash terminal: the error must be
        // the typed rank failure, exactly as FailFast would report it —
        // not a drift resume, not a panic, not an Ok.
        let s = small_scenario();
        let plan = s.plan().unwrap();
        let iters = 12u64;
        let mut app = StencilApp::new(40, iters, StencilVariant::Sten1, plan.ranks());
        let fault_free = plan.run(&mut app).unwrap();
        let faults = FaultSchedule::new().with(Fault::RankCrash {
            at_ms: fault_free.elapsed_ms * 0.4,
            rank: 0,
        });
        let err = match s.run_recoverable(
            &faults,
            RecoveryPolicy::Replan {
                max_replans: 0,
                backoff_ms: 5.0,
            },
            1,
            stencil_factory(40, iters),
        ) {
            Err(e) => e,
            Ok(_) => panic!("a zero budget must be terminal"),
        };
        match err {
            NetpartError::RankFailed { rank, .. } => assert_eq!(rank, 0),
            other => panic!("expected RankFailed, got {other}"),
        }
    }

    #[test]
    fn simultaneous_cluster_crash_collapses_into_one_replan() {
        use netpart_apps::stencil::sequential_reference;
        // 400 PDUs plans 11 ranks across both physical clusters, so one
        // cluster's crash fells several ranks at the same instant.
        let s = Scenario::new(Testbed::paper(), stencil_model(400, StencilVariant::Sten1))
            .with_cost(CostSource::Paper);
        let plan = s.plan().unwrap();
        let iters = 6u64;
        let mut app = StencilApp::new(400, iters, StencilVariant::Sten1, plan.ranks());
        let fault_free = plan.run(&mut app).unwrap();
        // Crash every rank of one cluster at the same instant: correlated
        // failures must collapse into a single availability round and a
        // single replan, not one replan per corpse.
        let part = plan.partition.as_ref().expect("planned scenario");
        let rc = part.rank_clusters();
        let victim = *rc.last().expect("at least one rank");
        let t = fault_free.elapsed_ms * 0.4;
        let mut faults = FaultSchedule::new();
        let mut victims = 0;
        for (r, &k) in rc.iter().enumerate() {
            if k == victim {
                faults = faults.with(Fault::RankCrash { at_ms: t, rank: r });
                victims += 1;
            }
        }
        assert!(victims >= 2, "the victim cluster must hold several ranks");
        let (run, rapp) = s
            .run_recoverable(
                &faults,
                RecoveryPolicy::Replan {
                    max_replans: 3,
                    backoff_ms: 5.0,
                },
                1,
                stencil_factory(400, iters),
            )
            .unwrap();
        let st = run.recovery.expect("stats");
        assert_eq!(
            st.replans, 1,
            "correlated crashes must fold into one replan: {st:?}"
        );
        assert_eq!(rapp.gather(), sequential_reference(400, iters));
    }

    #[test]
    fn faults_striking_every_recovery_trip_the_watchdog() {
        let s = Scenario::new(Testbed::paper(), stencil_model(60, StencilVariant::Sten1))
            .with_cost(CostSource::Paper);
        let plan = s.plan().unwrap();
        let iters = 24u64;
        let mut app = StencilApp::new(60, iters, StencilVariant::Sten1, plan.ranks());
        let fault_free = plan.run(&mut app).unwrap();
        let t = fault_free.elapsed_ms;
        let crash1 = Fault::RankCrash {
            at_ms: t * 0.4,
            rank: 0,
        };
        let policy = RecoveryPolicy::Replan {
            max_replans: 5,
            backoff_ms: 5.0,
        };
        // Stage 1: a single crash, recovered with one replan. Its total
        // elapsed time tells us *when the recovered segment runs* —
        // failure detection costs simulated seconds of message retries,
        // so fractions of the fault-free time cannot aim a fault into
        // the recovery; a fraction of this measured run can.
        let (r1, _) = s
            .run_recoverable_with(
                &FaultSchedule::new().with(crash1.clone()),
                policy,
                CheckpointPolicy::local(10_000).with_watchdog_ms(0.0),
                stencil_factory(60, iters),
            )
            .unwrap();
        assert_eq!(r1.recovery.as_ref().map(|st| st.replans), Some(1));
        // Stage 2: the same run, plus a second crash aimed mid-way
        // through the recovered segment (its rank 0 lives on the node
        // that hosted rank 1 before the replan). The checkpoint interval
        // exceeds the run, so every recovery restarts from scratch: the
        // second failure resumes from the same frontier as the first —
        // a nested, no-progress attempt — and a zero watchdog budget
        // makes that streak terminal.
        let faults = FaultSchedule::new().with(crash1).with(Fault::RankCrash {
            at_ms: r1.elapsed_ms - 0.5 * t,
            rank: 1,
        });
        let err = match s.run_recoverable_with(
            &faults,
            policy,
            CheckpointPolicy::local(10_000).with_watchdog_ms(0.0),
            stencil_factory(60, iters),
        ) {
            Err(e) => e,
            Ok(_) => panic!("a stalled recovery must trip the watchdog"),
        };
        match err {
            NetpartError::RecoveryStalled {
                attempts,
                stalled_ms,
                budget_ms,
            } => {
                assert!(attempts >= 1, "streak must count nested failures");
                assert_eq!(budget_ms, 0);
                assert!(stalled_ms > 0, "the streak spans simulated time");
            }
            other => panic!("expected RecoveryStalled, got {other}"),
        }
    }

    #[test]
    fn replicated_durability_on_a_fault_free_run_changes_only_traffic() {
        use netpart_apps::stencil::sequential_reference;
        // Two ranks, so replica traffic actually flows between buddies.
        let s = Scenario::new(Testbed::paper(), stencil_model(60, StencilVariant::Sten1))
            .with_cost(CostSource::Paper);
        // Replica mirroring adds messages (and therefore simulated time),
        // but a fault-free run must still finish with zeroed recovery
        // stats and the exact sequential answer.
        let (run, rapp) = s
            .run_recoverable_with(
                &FaultSchedule::new(),
                RecoveryPolicy::Replan {
                    max_replans: 3,
                    backoff_ms: 5.0,
                },
                CheckpointPolicy::replicated(2),
                stencil_factory(60, 6),
            )
            .unwrap();
        assert_eq!(run.recovery, Some(RecoveryStats::default()));
        assert_eq!(rapp.gather(), sequential_reference(60, 6));
    }

    #[test]
    fn crash_of_a_checkpoint_holder_recovers_from_the_buddy_replica() {
        use netpart_apps::stencil::sequential_reference;
        // Two ranks in one cluster, ring buddies: each rank's blob is
        // mirrored to the other's node. Sizes are deliberately modest —
        // a rank's blob costs ~6 ms of 10 Mb wire time, so the mirror
        // drains well within one checkpoint interval and a later crash
        // finds the replica already delivered.
        let s = Scenario::new(Testbed::paper(), stencil_model(60, StencilVariant::Sten1))
            .with_cost(CostSource::Paper);
        let plan = s.plan().unwrap();
        let iters = 18u64;
        let mut app = StencilApp::new(60, iters, StencilVariant::Sten1, plan.ranks());
        let fault_free = plan.run(&mut app).unwrap();
        let t = fault_free.elapsed_ms;
        let crash1 = Fault::RankCrash {
            at_ms: t * 0.5,
            rank: 0,
        };
        let policy = RecoveryPolicy::Replan {
            max_replans: 4,
            backoff_ms: 5.0,
        };
        // Stage 1: the crash takes rank 0's node — and the primary copy
        // of its cycle-5 blob — down. Assembly must serve the blob from
        // the buddy replica on rank 1's node and resume past it, losing
        // no checkpointed cycle.
        let (r1, a1) = s
            .run_recoverable_with(
                &FaultSchedule::new().with(crash1.clone()),
                policy,
                CheckpointPolicy::replicated(6),
                stencil_factory(60, iters),
            )
            .unwrap();
        let st = r1.recovery.expect("stats");
        assert_eq!(
            (st.replans, st.replica_restores, st.cycles_lost),
            (1, 1, 0),
            "the dead holder's blob must come from its buddy: {st:?}"
        );
        assert_eq!(a1.gather(), sequential_reference(60, iters));
        // Stage 2: additionally kill the *recovered* segment's second
        // node while that segment is redistributing/re-running (aimed
        // inside it via the stage-1 elapsed time — detection latency
        // dwarfs the fault-free run, so only a measured recovered run
        // can place the fault). Another checkpoint holder is lost
        // mid-recovery; assembly again falls back to a buddy replica
        // and the twice-recovered replay still matches the sequential
        // reference bit for bit.
        let crash2_at = SimTime::ZERO + SimDur::from_millis_f64(r1.elapsed_ms - 0.6 * t);
        let faults = FaultSchedule::new()
            .with(crash1)
            .with_raw(FaultPlan::new().crash(crash2_at, NodeId(2)));
        let (run, rapp) = s
            .run_recoverable_with(
                &faults,
                policy,
                CheckpointPolicy::replicated(6),
                stencil_factory(60, iters),
            )
            .unwrap();
        let st = run.recovery.expect("stats");
        assert!(
            st.replica_restores >= 2,
            "both dead holders' blobs must come from their buddies: {st:?}"
        );
        assert_eq!(st.replans, 2, "{st:?}");
        assert_eq!(
            rapp.gather(),
            sequential_reference(60, iters),
            "replica-restored replay must be bit-identical"
        );
    }
}
