//! Fault schedules: what an experiment writes down ([`Fault`], in the
//! plan's rank/cluster coordinates) and its translation into the
//! simulator's node/segment addressing.

use netpart_model::NetpartError;
use netpart_sim::{FaultPlan, NodeId, RouterId, SegmentId, SimDur, SimTime};

/// A scheduled fault in the *plan's* coordinate system (ranks, clusters,
/// routers) with millisecond times — what an experiment writes down.
/// [`Scenario::run_recoverable`](super::Scenario::run_recoverable)
/// translates it into the simulator's
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
    /// application for the segment's FIFO channel.
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
    /// byte-identical to [`Plan::run`](super::Plan::run)).
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
    pub(super) fn translate(&self, nodes: &[NodeId]) -> Result<FaultPlan, NetpartError> {
        let t = |ms: f64| SimTime::ZERO + SimDur::from_millis_f64(ms);
        let node_of = |rank: usize| {
            nodes.get(rank).copied().ok_or(NetpartError::RankMismatch {
                vector: rank + 1,
                nodes: nodes.len(),
            })
        };
        // User-written ids narrow checked: an id past the simulator's
        // 16-bit address space must not alias a real router or segment.
        let id16 = |field: &str, id: usize| {
            u16::try_from(id).map_err(|_| {
                NetpartError::InvalidFaultPlan(format!("{field} {id} exceeds the 16-bit id space"))
            })
        };
        let mut plan = self.raw.clone();
        for f in &self.faults {
            plan = match *f {
                Fault::RankCrash { at_ms, rank } => plan.crash(t(at_ms), node_of(rank)?),
                Fault::RankSlowdown {
                    at_ms,
                    rank,
                    factor,
                } => plan.slow(t(at_ms), node_of(rank)?, factor),
                Fault::RouterOutage {
                    router,
                    from_ms,
                    until_ms,
                } => plan.router_outage(RouterId(id16("router", router)?), t(from_ms), t(until_ms)),
                Fault::LinkDown {
                    router,
                    segment,
                    from_ms,
                    until_ms,
                } => plan.link_down(
                    RouterId(id16("router", router)?),
                    SegmentId(id16("segment", segment)?),
                    t(from_ms),
                    t(until_ms),
                ),
                Fault::LossBurst {
                    cluster,
                    from_ms,
                    until_ms,
                    loss,
                } => plan.loss_burst(
                    SegmentId(id16("cluster", cluster)?),
                    t(from_ms),
                    t(until_ms),
                    loss,
                ),
                Fault::RankSlowdownEnd { at_ms, rank } => {
                    plan.end_slowdown(t(at_ms), node_of(rank)?)
                }
                Fault::RankRecover { at_ms, rank } => plan.node_recover(t(at_ms), node_of(rank)?),
                Fault::RankLoad { at_ms, rank, load } => plan.load(t(at_ms), node_of(rank)?, load),
                Fault::TrafficFlood {
                    cluster,
                    from_ms,
                    until_ms,
                    bytes,
                    period_us,
                } => plan.traffic_burst(
                    SegmentId(id16("cluster", cluster)?),
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

#[cfg(test)]
mod tests {
    use super::super::testkit::{small_scenario, stencil_factory};
    use super::super::RecoveryPolicy;
    use super::*;

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

    /// Regression: ids used to narrow with `as u16`, so router 65 536
    /// silently aliased router 0 and sailed through install validation.
    #[test]
    fn id_past_the_16_bit_space_is_rejected_not_aliased() {
        let window = |router, segment| Fault::LinkDown {
            router,
            segment,
            from_ms: 1.0,
            until_ms: 2.0,
        };
        let cases = [
            (
                Fault::RouterOutage {
                    router: 65_536,
                    from_ms: 1.0,
                    until_ms: 2.0,
                },
                "router 65536",
            ),
            (window(70_000, 0), "router 70000"),
            (window(0, 65_536), "segment 65536"),
            (
                Fault::LossBurst {
                    cluster: 65_537,
                    from_ms: 1.0,
                    until_ms: 2.0,
                    loss: 0.5,
                },
                "cluster 65537",
            ),
            (
                Fault::TrafficFlood {
                    cluster: 1 << 20,
                    from_ms: 1.0,
                    until_ms: 2.0,
                    bytes: 64,
                    period_us: 100,
                },
                "cluster 1048576",
            ),
        ];
        for (fault, names) in cases {
            match FaultSchedule::new().with(fault).translate(&[NodeId(0)]) {
                Err(NetpartError::InvalidFaultPlan(msg)) => assert!(msg.contains(names), "{msg}"),
                other => panic!("expected InvalidFaultPlan naming {names}, got {other:?}"),
            }
        }
        // The largest representable id still translates (and is then
        // judged against the real testbed at install, like any other).
        let edge = FaultSchedule::new().with(window(65_535, 65_535));
        assert!(edge.translate(&[NodeId(0)]).is_ok());
        // End to end: the run is refused before anything executes.
        let aliased = FaultSchedule::new().with(Fault::RouterOutage {
            router: 65_536,
            from_ms: 1.0,
            until_ms: 2.0,
        });
        let refused = small_scenario().run_recoverable(
            &aliased,
            RecoveryPolicy::FailFast,
            1,
            stencil_factory(40, 2),
        );
        assert!(matches!(
            refused.map(|_| ()),
            Err(NetpartError::InvalidFaultPlan(_))
        ));
    }
}
