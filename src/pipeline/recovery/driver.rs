//! The thin driver of a recoverable run: run an epoch, feed the outcome
//! to [`RecoveryMachine::step`], execute the returned [`Action`]s against
//! the simulator. Everything that *decides* lives in the machine;
//! everything here touches the executor, the message layer or the
//! network.

use std::collections::VecDeque;

use netpart_core::determine_available;
use netpart_mmps::{Mmps, MmpsEvent};
use netpart_model::NetpartError;
use netpart_sim::{Network, NodeId, SegmentId, SimDur, SimError};
use netpart_spmd::{Executor, Segment, SpmdApp};

use super::super::fault::FaultSchedule;
use super::super::run::{PhaseTotalsProbe, Run};
use super::super::scenario::{check_runnable, Scenario};
use super::machine::{Action, Event, Failure, RecoveryMachine, Round};
use super::{AppStart, CheckpointPolicy, RecoveryPolicy};

/// Timer owner word for the recovery backoff pause (distinct from the
/// MMPS-internal and availability-round owners).
const OWNER_RECOVERY: u64 = u64::MAX - 3;

impl Scenario {
    /// Plan and run `app` with scheduled faults and a recovery policy —
    /// the fault-tolerant sibling of [`Scenario::plan`] +
    /// [`Plan::run`](super::super::Plan::run).
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
    /// traffic (i.e. [`Durability::Local`](super::Durability::Local)).
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
        self.validate()?;
        let model = self.resolve_model()?;
        let part = self.partition_under(&*model)?;
        check_runnable(&part.vector)?;
        let (mmps, nodes) = self.testbed.try_build(&part.config, self.placement)?;
        let fault_plan = faults.translate(&nodes)?;
        let mut exec = Executor::new(mmps, nodes.clone());
        exec.mmps()
            .net()
            .install_fault_plan(&fault_plan)
            .map_err(|e| match e {
                SimError::InvalidFaultPlan(msg) => NetpartError::InvalidFaultPlan(msg),
                other => NetpartError::Network(other.to_string()),
            })?;

        let clusters = self.testbed.num_clusters();
        let t0 = exec.mmps().now();
        let mut vector = part.vector.clone();
        let mut phase_probe = PhaseTotalsProbe::default();
        let scheduled = !faults.is_empty();
        let mut machine = RecoveryMachine::new(self, model, policy, ckpt, part, nodes, scheduled);
        loop {
            // Running: one segment — phase totals watch it, the segment
            // carries its epoch, checkpoints and (under Adapt) drift monitor.
            let start = machine.state.best.as_ref();
            let start = start.map_or(AppStart::Fresh, AppStart::Resume);
            let mut app = factory(exec.nodes().len(), start)?;
            // Resumed apps run the *remaining* cycles of the job.
            let cycles = app.num_cycles();
            let (mut store, mut monitor) = machine.observers();
            let segment = Segment {
                epoch: machine.state.epoch,
                store: &mut store,
                monitor: monitor.as_mut(),
            };
            let distribute = machine.state.distribute;
            let result = exec.run_segment(&mut app, &vector, distribute, &mut phase_probe, segment);
            let at = exec.mmps().now();
            let outcome = match result {
                Ok(report) => {
                    Event::Completed(report, phase_probe.totals, at.since(t0).as_millis_f64())
                }
                Err(err) => Event::Failed(Failure {
                    detour_cluster: monitor
                        .as_ref()
                        .and_then(|m| m.confirmed())
                        .and_then(|_| detour_cluster(exec.mmps().net_ref(), clusters)),
                    err,
                    at,
                    store,
                    monitor,
                    cycles,
                }),
            };
            let mut actions = VecDeque::from(machine.step(outcome));
            while let Some(action) = actions.pop_front() {
                match action {
                    Action::AbortPeer(node) => exec.mmps().abort_peer(node),
                    Action::Pause(ms) => pause(exec.mmps(), ms),
                    Action::ProbeAvailability { exclude, round } => {
                        let answer = probe(exec.mmps(), clusters, &exclude, round);
                        actions.extend(machine.step(answer));
                    }
                    Action::Relaunch { nodes, vector: v } => {
                        exec = Executor::new(exec.into_mmps(), nodes);
                        vector = v;
                    }
                    Action::Finish(run) => return Ok((run, app)),
                    Action::Fail(err) => return Err(err),
                }
            }
        }
    }
}

/// Detour attribution runs against the routing tables, not the drift
/// marks: compare the live hop count between one representative node per
/// cluster with the planned (static) one. Any pair where live > static is
/// riding a failover detour; the cluster appearing in the most such pairs
/// is the one the partitioner can most profitably move work off.
/// Unreachable pairs are not detours — the island path owns those — and
/// with a healthy fabric live == static for every pair, so this
/// attributes nothing.
fn detour_cluster(net: &Network, clusters: usize) -> Option<usize> {
    let reps: Vec<Option<NodeId>> = (0..clusters)
        .map(|k| net.nodes_on_segment(SegmentId(k as u16)).first().copied())
        .collect();
    let mut votes = vec![0u32; clusters];
    for i in 0..clusters {
        for j in (i + 1)..clusters {
            let (Some(a), Some(b)) = (reps[i], reps[j]) else {
                continue;
            };
            let hops = net.hop_count(a, b).zip(net.static_hop_count(a, b));
            if hops.is_some_and(|(live, planned)| live > planned) {
                votes[i] += 1;
                votes[j] += 1;
            }
        }
    }
    (0..clusters)
        .filter(|&k| votes[k] > 0)
        .max_by_key(|&k| votes[k])
}

/// Let `ms` simulated milliseconds pass, draining whatever the failed
/// epoch left in flight.
fn pause(mmps: &mut Mmps, ms: f64) {
    mmps.set_timer(SimDur::from_millis_f64(ms), OWNER_RECOVERY, 0);
    while let Some(evt) = mmps.next_event() {
        if matches!(evt, MmpsEvent::TimerFired { owner, .. } if owner == OWNER_RECOVERY) {
            break;
        }
    }
}

/// Failure-aware availability round over the physical clusters, `exclude`d
/// nodes left out up front, followed by the reachability check: consulting
/// the live routing table is the "destination unreachable" a real stack
/// reports from its local table without transmitting. With no fabric
/// faults the live table is the static table and nothing is unreachable.
fn probe(mmps: &mut Mmps, clusters: usize, exclude: &[NodeId], round: Round) -> Event {
    let members: Vec<Vec<NodeId>> = (0..clusters)
        .map(|k| {
            mmps.net_ref()
                .nodes_on_segment(SegmentId(k as u16))
                .into_iter()
                .filter(|n| !exclude.contains(n))
                .collect()
        })
        .collect();
    let report = determine_available(mmps, &members);
    let net = mmps.net_ref();
    let coord = report.nodes.iter().flatten().copied().next();
    let unreachable = (0..report.nodes.len())
        .filter(|&k| {
            matches!((coord, report.nodes[k].first()),
                (Some(c), Some(&n)) if !net.route_exists(c, n))
        })
        .collect();
    Event::Probed(round, report, unreachable, mmps.now())
}

#[cfg(test)]
mod tests {
    use super::super::super::testkit::{hop_cost_model, small_scenario, stencil_factory};
    use super::super::super::{CostSource, Fault, RecoveryStats};
    use super::*;
    use netpart_apps::stencil::{stencil_model, StencilApp, StencilVariant};
    use netpart_calibrate::Testbed;
    use netpart_sim::{FaultPlan, SimTime};

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
        let policy = RecoveryPolicy::Adapt { min_gain: 0.0 };
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
                RecoveryPolicy::Adapt { min_gain: 0.0 },
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
                RecoveryPolicy::Adapt { min_gain: 1e12 },
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
        // mirrored to the other's node. Sizes are deliberately modest: a
        // rank's 7.2 KB blob and then its cycle-6 halo leave its host
        // within ~6.5 ms of the cycle-5 checkpoint (22.2 ms). Frames a
        // host has handed to the wire still arrive after it dies, so the
        // replica reaches the buddy even when the crash comes later in
        // cycle 6 (it lands at ~38.5 ms, behind the buddy's own blob on
        // the shared segment).
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
        // Stage 1: the crash (33.5 ms) takes rank 0's node — and the
        // primary copy of its cycle-5 blob — down. Assembly must serve
        // the blob from the buddy replica on rank 1's node and resume
        // past it, with no generation fallback. Rank 0's cycle-6 halo
        // rode the wire behind that replica, so rank 1 completes cycle 6
        // before detection and the resume discards exactly that cycle.
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
            (
                st.replans,
                st.replica_restores,
                st.generation_fallbacks,
                st.cycles_lost
            ),
            (1, 1, 0, 1),
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
