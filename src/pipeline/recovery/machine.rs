//! The recovery state machine: every *decision* of a recoverable run as a
//! pure function of state + observation, with no executor, message layer
//! or network in any signature. The driver runs epochs and probes against
//! the simulator, feeds what it saw to [`RecoveryMachine::step`], and
//! executes the [`Action`]s that come back.
//!
//! ```text
//!            Completed                        Failed(err)
//! Finished ◀─────────── Running ──────────────────────────▶ Failed(class)
//!  [Finish]               ▲                                   │      │ Fatal class
//!                         │                                   ▼      ▼
//!                         │                               Draining  Fatal [Fail]
//!                         │            [AbortPeer*, Pause?]   │
//!                         │                                   ▼
//!                         │                               Probing [ProbeAvailability]
//!                         │                        Probed     │
//!                         │                                   ▼
//!                         │                               Restoring ──▶ Stalled [Fail]
//!                         │                                   │
//!                         │ [Relaunch]                        ▼
//!                         ├────────── Resuming ◀───────── Replanning ──▶ Fatal [Fail]
//!                         └────────── Declined ◀──────────────┘ gate says stay
//! ```
//!
//! DESIGN.md ("Recovery under adversity") lists, edge by edge, the
//! action emitted and the [`RecoveryStats`] field bumped.

use netpart_calibrate::{speed_scale, CommCostModel, InflatedCostModel};
use netpart_core::{partition, AvailabilityReport, Estimator, Partition, SystemModel};
use netpart_model::{NetpartError, PartitionVector};
use netpart_sim::{NodeId, SimTime};
use netpart_spmd::{Checkpoint, CheckpointStore, DriftConfig, DriftMonitor, SpmdReport};

use super::super::run::{PhaseTotals, Run};
use super::super::scenario::Scenario;
use super::{
    classify_failure, CheckpointPolicy, Durability, FailureClass, RecoveryPolicy, RecoveryStats,
    ADAPT_MAX_REPLANS,
};

/// Where the machine is. `Running` and `Probing` are the two phases it
/// rests in between [`step`](RecoveryMachine::step)s (waiting on the
/// epoch, waiting on the availability round); `Finished`, `Fatal` and
/// `Stalled` are terminal; the rest are passed through inside one step
/// and name the edge being taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(super) enum Phase {
    #[default]
    Running,
    Failed(FailureClass),
    Draining,
    Probing,
    Restoring,
    Replanning,
    Resuming,
    Declined,
    Stalled,
    Fatal,
    Finished,
}

/// What the driver observed.
pub(super) enum Event {
    /// The running epoch ran to completion: its report, the phase totals
    /// so far, and the simulated ms since the job's first segment
    /// started computing.
    Completed(SpmdReport, PhaseTotals, f64),
    /// The running epoch failed.
    Failed(Failure),
    /// The availability round an [`Action::ProbeAvailability`] asked for
    /// answered: the round handed back, the report, the clusters the
    /// round's coordinator has no live router path to, and the instant.
    Probed(Round, AvailabilityReport, Vec<usize>, SimTime),
}

/// A failed epoch, as plain data: the error, the instant, and what the
/// segment's observers recorded.
pub(super) struct Failure {
    pub err: NetpartError,
    pub at: SimTime,
    /// The segment's checkpoint store (stores outlive their segment).
    pub store: CheckpointStore,
    /// The segment's drift monitor, when one rode along.
    pub monitor: Option<DriftMonitor>,
    /// Cycles the failed segment's app was asked to run (the *remaining*
    /// cycles of the job at its launch).
    pub cycles: u64,
    /// The cluster most entangled in fabric detours at the failure
    /// instant, when any cluster pair's live route is longer than the
    /// planned one (read off the routing tables by the driver). A
    /// reroute is a *physical* cause for elevated comm waits, so it arms
    /// the drift gate like a compute outlier does.
    pub detour_cluster: Option<usize>,
}

/// What the driver must do next, in order.
pub(super) enum Action {
    /// Purge in-flight protocol state towards a dead or cut-off node.
    AbortPeer(NodeId),
    /// Let this many simulated ms pass (drains stragglers, models the
    /// decision latency of a real recovery manager).
    Pause(f64),
    /// Run a failure-aware availability round over every cluster with
    /// `exclude` left out, and hand `round` back with the answer.
    ProbeAvailability { exclude: Vec<NodeId>, round: Round },
    /// Start the next epoch on `nodes` with `vector`.
    Relaunch {
        nodes: Vec<NodeId>,
        vector: PartitionVector,
    },
    /// The job is done.
    Finish(Run),
    /// Recovery is over; surface the typed error.
    Fail(NetpartError),
}

/// One failure round in flight between the failure and the availability
/// answer. Opaque to the driver: it travels out in
/// [`Action::ProbeAvailability`] and back in [`Event::Probed`], so a
/// `Probed` without a round cannot be written.
pub(super) struct Round {
    /// The failed segment's checkpoints, folded in once the round knows
    /// who is dead.
    store: CheckpointStore,
    ctx: RoundCtx,
}

/// What a round knows from the failure instant on.
struct RoundCtx {
    t_fail: SimTime,
    /// This round's decision pause, indexed by completed replans.
    backoff_ms: f64,
    recal: Option<Recal>,
    /// First global cycle nobody had completed when the segment failed.
    progress: u64,
    /// The job's total iteration count in global-cycle terms.
    total_cycles: u64,
}

/// Online recalibration from one confirmed drift — pure arithmetic
/// against the layout the drift was observed on.
struct Recal {
    cluster: usize,
    node: NodeId,
    comp_scale: f64,
    comm_scale: f64,
    t_stay_ms: f64,
    /// The cluster whose *wire* explains the drift, when one does: the
    /// cluster most entangled in fabric detours
    /// ([`Failure::detour_cluster`]).
    wire: Option<usize>,
    confirmed_cycle: u64,
}

/// The cross-round state of one recoverable run.
#[derive(Default)]
pub(super) struct RecoveryState {
    phase: Phase,
    /// The plan the current segment runs (its vector, layout, breakdown).
    part: Partition,
    /// `nodes[rank]` hosts `rank` in the current segment.
    nodes: Vec<NodeId>,
    pub distribute: bool,
    pub epoch: u16,
    /// The newest restorable snapshot.
    pub best: Option<Checkpoint>,
    /// Replicated durability: every segment's store is archived whole,
    /// and each round re-assembles the newest restorable generation
    /// against the round's dead set.
    archives: Vec<CheckpointStore>,
    known_dead: Vec<NodeId>,
    /// Drift arming: the global cycle before which the monitor stays
    /// quiet, where the last drift round resumed from (to detect a
    /// stalled frontier and stop thrashing), and whether it declined.
    cooldown_until: u64,
    prev_drift_resume: Option<u64>,
    declined_last_round: bool,
    /// Watchdog: the checkpoint frontier at the previous failure and when
    /// the current no-progress failure streak began.
    streak: Option<(u64, SimTime)>,
    stats: RecoveryStats,
}

impl RecoveryState {
    /// First global cycle of the next segment.
    fn base(&self) -> u64 {
        self.best.as_ref().map_or(0, |c| c.cycle + 1)
    }

    fn bury(&mut self, node: NodeId) {
        if !self.known_dead.contains(&node) {
            self.known_dead.push(node);
        }
    }

    /// Fold the failed segment's checkpoints into the best restorable
    /// snapshot. Runs *after* the availability round so assembly honours
    /// every death this round detected, however it was detected: a
    /// checkpoint holder that died mid-recovery must be restored from its
    /// buddy replica, never from a primary copy that went down with it.
    fn restore(&mut self, store: CheckpointStore, durability: Durability) {
        if durability == Durability::Local {
            if let Some(f) = store.frontier() {
                self.best = store.take(f);
            }
            return;
        }
        // Never cache an assembled snapshot across rounds: the dead set
        // grows, so every round re-assembles from the archived stores,
        // newest segment first, falling back across replicas and
        // generations as needed.
        self.archives.push(store);
        let dead = &self.known_dead;
        let newest = self.archives.iter().rev().find_map(|st| st.assemble(dead));
        self.best = newest.map(|a| {
            self.stats.replica_restores += a.replica_restores;
            self.stats.generation_fallbacks += a.generation_fallbacks;
            a.checkpoint
        });
    }

    /// Watchdog streak: a failure round resuming from the same frontier
    /// as the previous one made no checkpoint progress — the fault struck
    /// *during* recovery. Returns how long (simulated ms) that streak has
    /// lasted, or `None` (and restarts the streak) when the frontier
    /// advanced.
    fn stalled_ms(&mut self, resume_at: u64, t_fail: SimTime) -> Option<f64> {
        if self.streak.map(|(frontier, _)| frontier) != Some(resume_at) {
            self.streak = Some((resume_at, t_fail));
            return None;
        }
        self.streak
            .map(|(_, since)| t_fail.since(since).as_millis_f64())
    }

    /// The cooldown/disarm rule after the gate's verdict on a drift
    /// confirmed at `cycle`. Either way the monitor sleeps `cooldown`
    /// cycles past the confirmation: an accepted move gets a settle
    /// window (the re-executed cycles plus distribution stragglers must
    /// not read as fresh drift), a decline gets one second look (the
    /// degradation may worsen and tip the balance). But two consecutive
    /// declines disarm the monitor for good — for a steady degradation
    /// the remaining-cycle saving only shrinks, so every further round
    /// would redo checkpointed work just to decline again — and so does
    /// a decline whose frontier has not advanced since the last drift
    /// round: the detector cannot make progress.
    fn rearm(&mut self, accepted: bool, resume_at: u64, cycle: u64, cooldown: u64) {
        let hopeless = self.prev_drift_resume == Some(resume_at) || self.declined_last_round;
        self.cooldown_until = if !accepted && hopeless {
            u64::MAX
        } else {
            cycle + 1 + cooldown
        };
        self.prev_drift_resume = Some(resume_at);
        self.declined_last_round = !accepted;
    }

    /// Emit the relaunch: checkpointed state must be re-spread, in a
    /// fresh epoch, and the round's simulated cost goes on the books.
    fn relaunch(&mut self, t_fail: SimTime, now: SimTime) -> Action {
        self.distribute = true;
        self.epoch += 1;
        self.stats.overhead_ms += now.since(t_fail).as_millis_f64();
        self.phase = Phase::Running;
        Action::Relaunch {
            nodes: self.nodes.clone(),
            vector: self.part.vector.clone(),
        }
    }
}

/// The recovery state machine of one recoverable run: the resolved policy
/// (immutable) plus the [`RecoveryState`] it steps.
pub(super) struct RecoveryMachine<'s> {
    scenario: &'s Scenario,
    /// The planning model, resolved once per run and reused across
    /// nested replans (a fixed model is borrowed from the scenario).
    model: Box<dyn CommCostModel + 's>,
    policy: RecoveryPolicy,
    ckpt: CheckpointPolicy,
    scheduled_faults: bool,
    predicted_tc_ms: Option<f64>,
    pub state: RecoveryState,
}

impl<'s> RecoveryMachine<'s> {
    /// A machine in `Running`, about to launch `part` on `nodes`.
    pub(super) fn new(
        scenario: &'s Scenario,
        model: Box<dyn CommCostModel + 's>,
        policy: RecoveryPolicy,
        ckpt: CheckpointPolicy,
        part: Partition,
        nodes: Vec<NodeId>,
        scheduled_faults: bool,
    ) -> RecoveryMachine<'s> {
        RecoveryMachine {
            scenario,
            model,
            policy,
            ckpt,
            scheduled_faults,
            predicted_tc_ms: Some(part.predicted_tc_ms()),
            state: RecoveryState {
                part,
                nodes,
                distribute: scenario.distribute,
                epoch: 1,
                ..RecoveryState::default()
            },
        }
    }

    /// The next segment's observers: its checkpoint store and, under
    /// `Adapt`, its drift monitor.
    pub(super) fn observers(&self) -> (CheckpointStore, Option<DriftMonitor>) {
        let s = &self.state;
        let (ranks, every, base) = (s.nodes.len(), self.ckpt.every, s.base());
        let rc = s.part.rank_clusters();
        let store = match self.ckpt.durability {
            Durability::Local => CheckpointStore::new(ranks, every, base),
            Durability::Replicated => {
                let clusters: Vec<usize> = rc.iter().map(|&k| k as usize).collect();
                CheckpointStore::replicated(ranks, every, base, &s.nodes, &clusters)
            }
        };
        let RecoveryPolicy::Adapt {
            degrade_threshold, ..
        } = self.policy
        else {
            return (store, None);
        };
        let b = &s.part.breakdown;
        let preds = rc.iter().map(|&k| b.t_comp_ms[k as usize]).collect();
        let cfg = DriftConfig {
            degrade_threshold,
            ..DriftConfig::default()
        };
        let mut monitor = DriftMonitor::new(cfg, base, preds, b.t_comm_ms);
        monitor.set_cooldown_until(s.cooldown_until);
        (store, Some(monitor))
    }

    /// The transition function: fold one observation into the state and
    /// return the actions its edges emit, in execution order.
    pub(super) fn step(&mut self, event: Event) -> Vec<Action> {
        let actions = match event {
            Event::Completed(report, phases, wall_ms) => {
                Ok(vec![self.finish(report, phases, wall_ms)])
            }
            Event::Failed(failure) => Ok(self.on_failure(failure)),
            Event::Probed(round, report, cut, at) => self.on_probed(round, report, &cut, at),
        };
        actions.unwrap_or_else(|err| self.fatal(err))
    }

    /// Running → Finished.
    fn finish(&mut self, report: SpmdReport, phases: PhaseTotals, wall_ms: f64) -> Action {
        let s = &mut self.state;
        let elapsed_ms = if s.stats.replans == 0 && s.stats.repartitions_declined == 0 {
            report.elapsed.as_millis_f64()
        } else {
            // Recovered runs measure wall time across every segment on
            // the shared clock, and book the final segment's checkpoint
            // redistribution as recovery overhead.
            s.stats.overhead_ms += report.startup.as_millis_f64();
            wall_ms
        };
        s.phase = Phase::Finished;
        Action::Finish(Run {
            elapsed_ms,
            predicted_tc_ms: self.predicted_tc_ms,
            phases,
            recovery: Some(std::mem::take(&mut s.stats)),
            report,
        })
    }

    /// → Stalled (the watchdog's verdict) or → Fatal (anything else).
    fn fatal(&mut self, err: NetpartError) -> Vec<Action> {
        self.state.phase = match err {
            NetpartError::RecoveryStalled { .. } => Phase::Stalled,
            _ => Phase::Fatal,
        };
        vec![Action::Fail(err)]
    }

    /// Running → Failed(class) → Draining → Probing, or → Fatal.
    fn on_failure(&mut self, f: Failure) -> Vec<Action> {
        // FailFast: nothing recovers.
        let Some((max_replans, backoff_ms)) = self.policy.budget() else {
            return self.fatal(f.err);
        };
        // A drift abort carries the monitor's confirmed report (only
        // Adapt attaches one); fail-stop recoveries are budgeted, drift
        // rounds decline past the budget instead of erroring.
        let drifted = f.monitor.as_ref().is_some_and(|m| m.confirmed().is_some());
        let (faults, replans) = (self.scheduled_faults, self.state.stats.replans);
        let class = classify_failure(&f.err, drifted, faults, replans, max_replans);
        self.state.phase = Phase::Failed(class);
        if class == FailureClass::Fatal {
            return self.fatal(f.err);
        }
        let mut actions = Vec::new();
        let mut recal = None;
        match class {
            FailureClass::Drift => recal = self.recalibrate(f.monitor.as_ref(), f.detour_cluster),
            // Name the suspect first: every death known *before* the
            // checkpoint fold forces replica assembly away from the
            // corpse's primary copy.
            FailureClass::Suspect(Some(rank)) => {
                self.state.stats.failed_ranks.push(rank);
                self.state.bury(self.state.nodes[rank]);
            }
            // An island event names an *unreachable* peer, not a corpse:
            // purge the in-flight protocol state towards it (like a dead
            // peer's), but never blacklist it — the reachability filter
            // excludes its whole component for this round, and a later
            // round re-admits it once the fabric heals.
            FailureClass::Island(rank) => {
                self.state.stats.island_events += 1;
                actions.push(Action::AbortPeer(self.state.nodes[rank]));
            }
            FailureClass::Suspect(None) | FailureClass::Fatal => {}
        }
        let s = &mut self.state;
        s.phase = Phase::Draining;
        actions.extend(s.known_dead.iter().copied().map(Action::AbortPeer));
        if backoff_ms > 0.0 {
            actions.push(Action::Pause(backoff_ms));
        }
        s.phase = Phase::Probing;
        let base = s.base();
        let ctx = RoundCtx {
            t_fail: f.at,
            backoff_ms,
            recal,
            progress: f.store.max_cycle_seen().map_or(base, |m| m + 1),
            total_cycles: base + f.cycles,
        };
        let round = Round {
            store: f.store,
            ctx,
        };
        actions.push(Action::ProbeAvailability {
            exclude: s.known_dead.clone(),
            round,
        });
        actions
    }

    /// Online recalibration from the in-flight measurement, against the
    /// *current* layout, before it changes. Books the detection.
    fn recalibrate(
        &mut self,
        monitor: Option<&DriftMonitor>,
        detour_cluster: Option<usize>,
    ) -> Option<Recal> {
        let s = &mut self.state;
        let rc = s.part.rank_clusters();
        let (source, comp_scale) = monitor?.attribute(&rc)?;
        let b = &s.part.breakdown;
        let slack = DriftConfig::default().slack_ms;
        let cluster = rc[source.rank] as usize;
        let pred_comm = b.t_comm_ms + slack;
        let comm_scale = speed_scale(source.comm_ratio * pred_comm, pred_comm);
        // Staying put prices every remaining cycle at the degraded rank's
        // pace — it gates the bulk-synchronous cycle. The compute term is
        // the rank's *observed* smoothed time (ratio × prediction undoes
        // the ratio's denominator), so prediction bias cannot distort it.
        let obs_comp_ms = source.comp_ratio * (b.t_comp_ms[cluster] + slack);
        let t_stay_ms = obs_comp_ms + (b.t_comm_ms * comm_scale - b.t_overlap_ms).max(0.0);
        s.stats.drift_detections += 1;
        s.stats.recalibrations += 1;
        s.stats.detour_confirmations += u32::from(detour_cluster.is_some());
        s.stats.cycles_to_detect += source.cycle + 1 - source.first_degraded_cycle;
        Some(Recal {
            cluster,
            node: s.nodes[source.rank],
            comp_scale,
            comm_scale,
            t_stay_ms,
            wire: detour_cluster,
            confirmed_cycle: source.cycle,
        })
    }

    /// Probing → Restoring → Replanning (or → Stalled).
    fn on_probed(
        &mut self,
        round: Round,
        mut avail: AvailabilityReport,
        unreachable: &[usize],
        now: SimTime,
    ) -> Result<Vec<Action>, NetpartError> {
        let s = &mut self.state;
        // Nodes that did not answer within the bounded probe timeout join
        // the dead. (A gray-degraded node answers honestly with its
        // effective load and thereby self-excludes; a recovered or
        // unloaded node re-admits itself the same way.)
        let mut actions = Vec::new();
        for &n in &avail.suspected_dead {
            s.bury(n);
            actions.push(Action::AbortPeer(n));
        }
        // Reachable-component filter: a cluster the coordinator has no
        // live router path to cannot take part in this segment — the
        // first distribution send towards it would fail fast with the
        // same typed partition error that triggered an island round.
        // Unreachable clusters are excluded for THIS round only and never
        // join `known_dead`: every recovery round re-runs the filter, so
        // a healed fabric re-admits the cut-off clusters automatically.
        // In-flight protocol state toward *every* node behind the cut is
        // purged exactly as a corpse's is — otherwise their pending
        // retransmits keep surfacing partition errors against the
        // already-resumed run and recovery never makes checkpoint
        // progress.
        for &k in unreachable {
            actions.extend(avail.nodes[k].drain(..).map(Action::AbortPeer));
            avail.available[k] = 0;
        }
        s.phase = Phase::Restoring;
        s.restore(round.store, self.ckpt.durability);
        let resume_at = s.base();
        s.stats.cycles_lost += round.ctx.progress.saturating_sub(resume_at);
        // A no-progress streak longer than the sim-time budget means the
        // recovery path is stalling, not advancing; stop with a typed
        // error instead of spinning through the replan budget.
        if let Some(stalled_ms) = s.stalled_ms(resume_at, round.ctx.t_fail) {
            s.stats.nested_attempts += 1;
            if stalled_ms > self.ckpt.watchdog_ms {
                return Err(NetpartError::RecoveryStalled {
                    attempts: s.stats.nested_attempts,
                    stalled_ms: stalled_ms as u64,
                    budget_ms: self.ckpt.watchdog_ms as u64,
                });
            }
        }
        s.phase = Phase::Replanning;
        actions.push(self.replan(&round.ctx, resume_at, now, &avail)?);
        Ok(actions)
    }

    /// Replanning → Resuming | Declined: re-run the offline half on the
    /// survivors — on the refitted model when a drift was just
    /// recalibrated — and put the result through the drift gate.
    fn replan(
        &mut self,
        ctx: &RoundCtx,
        resume_at: u64,
        now: SimTime,
        avail: &AvailabilityReport,
    ) -> Result<Action, NetpartError> {
        let recal = ctx.recal.as_ref();
        let base_model = &*self.model;
        // Inflate the implicated wire's cluster when there is one, else
        // the confirmed rank's own.
        let inflated = recal
            .filter(|r| r.comm_scale > 1.0)
            .map(|r| InflatedCostModel::new(base_model, r.wire.unwrap_or(r.cluster), r.comm_scale));
        let model: &dyn CommCostModel = match &inflated {
            Some(m) => m,
            None => base_model,
        };
        let mut sys =
            SystemModel::from_testbed(&self.scenario.testbed).with_available(&avail.available);
        // The degraded node normally self-excludes through its load
        // report; if a lenient availability threshold keeps it in the
        // pool, plan its cluster at the refitted (degraded) speed rather
        // than the calibrated one.
        if let Some(r) = recal.filter(|r| r.comp_scale > 1.0) {
            let pool = avail.nodes.get(r.cluster);
            if pool.is_some_and(|ns| ns.contains(&r.node)) {
                sys.clusters[r.cluster].sec_per_flop *= r.comp_scale;
                sys.clusters[r.cluster].sec_per_intop *= r.comp_scale;
            }
        }
        let est = Estimator::new(&sys, model, &self.scenario.app);
        let planned = partition(&est, &self.scenario.options);
        if let (
            Some(r),
            RecoveryPolicy::Adapt {
                min_gain, cooldown, ..
            },
        ) = (recal, self.policy)
        {
            let gain = planned
                .as_ref()
                .ok()
                .map(|p| self.net_gain(ctx, r, resume_at, p, model));
            let s = &mut self.state;
            // A comm-only confirmation with no attributable *cause* never
            // repartitions: the elevated waits are either a transient
            // burst — waiting it out beats shipping checkpoint state
            // through the already-degraded network — or a systematic comm
            // misprediction, and replanning on a model known to be wrong
            // is thrashing. Two causes arm the gate: a compute outlier
            // (a slow node to plan around), or a fabric detour — there the
            // inflated model prices the implicated cluster's wire honestly
            // and the partitioner can route work off it. Past the
            // fail-stop budget a drift round declines, never errors.
            let caused = r.comp_scale > 1.0 || r.wire.is_some();
            let accept =
                caused && gain.is_some_and(|g| g > min_gain) && s.stats.replans < ADAPT_MAX_REPLANS;
            s.rearm(accept, resume_at, r.confirmed_cycle, cooldown);
            if !accept {
                // Deliberately stay put: resume the same placement and
                // decomposition from the checkpoint.
                s.stats.repartitions_declined += 1;
                s.phase = Phase::Declined;
                return Ok(s.relaunch(ctx.t_fail, now));
            }
            s.stats.repartitions += 1;
            s.stats.drift_gain_ms += gain.unwrap_or(0.0);
        }
        let part = planned?;
        let s = &mut self.state;
        s.phase = Phase::Resuming;
        let mut next_in = vec![0usize; avail.nodes.len()];
        s.nodes.clear();
        for k in self.scenario.placement.assign(&part.config) {
            let k = k as usize;
            s.nodes.push(avail.nodes[k][next_in[k]]);
            next_in[k] += 1;
        }
        s.part = part;
        s.stats.replans += 1;
        Ok(s.relaunch(ctx.t_fail, now))
    }

    /// The drift cost/benefit projection (simulated ms): the per-cycle
    /// saving over the remaining cycles, minus the migration cost —
    /// re-executed cycles on the new plan, shipping the checkpointed
    /// state, the decision pause. D'Angelo's rule: migrate only when the
    /// projected gain beats the migration cost.
    fn net_gain(
        &self,
        ctx: &RoundCtx,
        r: &Recal,
        resume_at: u64,
        part: &Partition,
        model: &dyn CommCostModel,
    ) -> f64 {
        let t_new = part.predicted_tc_ms();
        let remaining = ctx.total_cycles.saturating_sub(resume_at) as f64;
        let redo = ctx.progress.saturating_sub(resume_at) as f64;
        // Shipping estimate: rank 0 sends every other rank its checkpoint
        // blob, priced by the (refitted) cost model.
        let topo = self.scenario.app.comm_phases()[0].topology;
        let blob = self.state.best.as_ref().map_or(0.0, |c| {
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
                let mut ms = model.intra_ms(k, topo, blob, 2);
                if k != src {
                    ms += model.router_ms(src, k, blob) + model.coerce_ms(src, k, blob);
                }
                ms
            })
            .sum();
        (r.t_stay_ms - t_new) * remaining - (dist_ms + redo * t_new + ctx.backoff_ms)
    }
}

#[cfg(test)]
mod tests {
    // Table-driven tests of the pure transitions. Nothing here builds a
    // simulator: observations are plain data the tests write by hand.

    use netpart_apps::stencil::{stencil_model, StencilVariant};
    use netpart_calibrate::Testbed;
    use netpart_model::Budget;
    use netpart_sim::SimDur;
    use netpart_spmd::{Phase as EnginePhase, Probe};

    use super::super::super::CostSource;
    use super::*;

    fn t(ms: f64) -> SimTime {
        SimTime::ZERO + SimDur::from_millis_f64(ms)
    }

    /// The paper testbed with 400 PDUs: the plan spans both clusters, so
    /// every class of round has somewhere to move to.
    fn scenario() -> Scenario {
        Scenario::new(Testbed::paper(), stencil_model(400, StencilVariant::Sten1))
            .with_cost(CostSource::Paper)
    }

    /// A machine about to run the scenario's plan, rank `r` on node `r`.
    fn machine(
        s: &Scenario,
        policy: RecoveryPolicy,
        ckpt: CheckpointPolicy,
    ) -> RecoveryMachine<'_> {
        let model = s.resolve_model().unwrap();
        let part = s.partition_under(&*model, &Budget::unlimited()).unwrap();
        assert!(
            part.config.iter().all(|&c| c > 0),
            "plan must span both clusters"
        );
        let nodes = (0..part.vector.num_ranks() as u32).map(NodeId).collect();
        RecoveryMachine::new(s, model, policy, ckpt, part, nodes, true)
    }

    const REPLAN: RecoveryPolicy = RecoveryPolicy::Replan {
        max_replans: 5,
        backoff_ms: 5.0,
    };

    fn crash(rank: usize) -> NetpartError {
        NetpartError::RankFailed {
            rank,
            cycle: 0,
            checkpoint: None,
            attempts: 1,
        }
    }

    /// The current segment failing with `err` at `at_ms`, every rank having
    /// checkpointed through global cycle `frontier` (none when `None`), with
    /// `monitor` riding along.
    fn failed(
        m: &RecoveryMachine<'_>,
        err: NetpartError,
        at_ms: f64,
        frontier: Option<u64>,
        monitor: Option<DriftMonitor>,
    ) -> Event {
        let mut store = m.observers().0;
        let base = store.base();
        for rank in 0..m.state.nodes.len() {
            for global in base..frontier.map_or(base, |f| f + 1) {
                store.record(rank, global - base, vec![7u8; 16].into());
                store.saw_cycle(global - base);
            }
        }
        Event::Failed(Failure {
            err,
            at: t(at_ms),
            store,
            monitor,
            cycles: 24 - base,
            detour_cluster: None,
        })
    }

    /// The next launch's monitor after watching rank 0 compute 10x slower
    /// than planned until it confirmed.
    fn drifted_monitor(m: &RecoveryMachine<'_>) -> DriftMonitor {
        let mut mon = m.observers().1.expect("Adapt attaches a monitor");
        let rc = m.state.part.rank_clusters();
        for cycle in 0..8 {
            for (rank, &k) in rc.iter().enumerate() {
                let pred = m.state.part.breakdown.t_comp_ms[k as usize];
                let ms = if rank == 0 { 10.0 * pred } else { pred };
                mon.on_phase(rank, cycle, EnginePhase::Compute, t(0.0), t(ms));
                mon.on_cycle(rank, cycle, t(ms));
            }
        }
        assert!(
            mon.confirmed().is_some(),
            "10x must confirm within 8 cycles"
        );
        mon
    }

    /// Answer the `ProbeAvailability` that ends `actions`: every node of the
    /// two 6-node clusters (ids 100.. and 200..) answers except `dead`, and
    /// `unreachable` clusters are cut off.
    fn probed(
        mut actions: Vec<Action>,
        dead: &[NodeId],
        unreachable: &[usize],
        at_ms: f64,
    ) -> Event {
        let Some(Action::ProbeAvailability { round, .. }) = actions.pop() else {
            panic!("a recoverable failure must end in ProbeAvailability");
        };
        let nodes: Vec<Vec<NodeId>> = [100u32, 200]
            .iter()
            .map(|&first| {
                (first..first + 6)
                    .map(NodeId)
                    .filter(|n| !dead.contains(n))
                    .collect()
            })
            .collect();
        let report = AvailabilityReport {
            available: nodes.iter().map(|ns| ns.len() as u32).collect(),
            nodes,
            suspected_dead: dead.to_vec(),
            protocol_time: SimDur::ZERO,
            messages: 0,
        };
        Event::Probed(round, report, unreachable.to_vec(), t(at_ms))
    }

    fn relaunches(actions: &[Action]) -> Vec<&Vec<NodeId>> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Relaunch { nodes, .. } => Some(nodes),
                _ => None,
            })
            .collect()
    }

    fn aborted(actions: &[Action]) -> Vec<NodeId> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::AbortPeer(n) => Some(*n),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn fail_fast_recovers_nothing() {
        let s = scenario();
        let mut m = machine(&s, RecoveryPolicy::FailFast, CheckpointPolicy::local(1));
        let actions = m.step(failed(&m, crash(2), 10.0, None, None));
        assert!(matches!(
            actions[..],
            [Action::Fail(NetpartError::RankFailed { rank: 2, .. })]
        ));
        assert_eq!(m.state.phase, Phase::Fatal);
        assert_eq!(m.state.stats, RecoveryStats::default());
    }

    #[test]
    fn crash_round_drains_pauses_probes_then_relaunches_on_survivors() {
        let s = scenario();
        let mut m = machine(&s, REPLAN, CheckpointPolicy::local(1));
        let actions = m.step(failed(&m, crash(3), 10.0, Some(4), None));
        assert_eq!(m.state.phase, Phase::Probing);
        assert_eq!(aborted(&actions), vec![NodeId(3)], "the corpse is purged");
        assert!(matches!(actions[1], Action::Pause(ms) if ms == 5.0));
        assert!(matches!(&actions[2],
            Action::ProbeAvailability { exclude, .. } if exclude[..] == [NodeId(3)]));
        let actions = m.step(probed(actions, &[], &[], 600.0));
        assert_eq!(m.state.phase, Phase::Running);
        assert_eq!(relaunches(&actions).len(), 1);
        let st = &m.state.stats;
        assert_eq!((st.replans, &st.failed_ranks[..]), (1, &[3usize][..]));
        assert_eq!(st.cycles_lost, 0, "resumed right past the frontier");
        assert_eq!(st.overhead_ms, 590.0, "failure instant to relaunch");
        assert_eq!(m.state.base(), 5);
        assert_eq!(m.state.best.as_ref().map(|c| c.cycle), Some(4));
    }

    #[test]
    fn island_round_never_adds_to_known_dead() {
        let s = scenario();
        let mut m = machine(&s, REPLAN, CheckpointPolicy::local(1));
        let cut = NetpartError::FabricPartitioned { rank: 7 };
        let actions = m.step(failed(&m, cut, 10.0, None, None));
        assert_eq!(m.state.phase, Phase::Probing);
        assert_eq!(aborted(&actions), vec![NodeId(7)], "in-flight state purged");
        assert!(matches!(actions.last(),
            Some(Action::ProbeAvailability { exclude, .. }) if exclude.is_empty()));
        // Every node answers, but cluster 1 sits behind the cut.
        let actions = m.step(probed(actions, &[], &[1], 20.0));
        assert_eq!(
            aborted(&actions),
            (200..206).map(NodeId).collect::<Vec<_>>(),
            "every node behind the cut is purged like a corpse"
        );
        let launched = relaunches(&actions);
        assert_eq!(launched.len(), 1);
        assert!(launched[0].iter().all(|n| (100..106).contains(&n.0)));
        assert!(m.state.known_dead.is_empty(), "unreachable is not dead");
        let st = &m.state.stats;
        assert_eq!((st.island_events, st.replans), (1, 1));
        assert!(st.failed_ranks.is_empty(), "an island names no suspect");
    }

    #[test]
    fn deaths_found_in_one_round_fold_into_one_relaunch() {
        let s = scenario();
        let mut m = machine(&s, REPLAN, CheckpointPolicy::local(1));
        let actions = m.step(failed(&m, crash(0), 10.0, None, None));
        let silent = [NodeId(101), NodeId(204), NodeId(205)];
        let actions = m.step(probed(actions, &silent, &[], 520.0));
        assert_eq!(aborted(&actions), silent);
        let launched = relaunches(&actions);
        assert_eq!(launched.len(), 1, "one relaunch however many corpses");
        assert!(launched[0].iter().all(|n| !silent.contains(n)));
        assert_eq!(m.state.stats.replans, 1);
        assert_eq!(
            m.state.known_dead,
            [&[NodeId(0)][..], &silent[..]].concat(),
            "the suspect first, then everyone the probes found"
        );
        // The dead stay excluded from the next round's probe.
        let actions = m.step(failed(&m, crash(1), 900.0, None, None));
        assert!(matches!(actions.last(),
            Some(Action::ProbeAvailability { exclude, .. }) if *exclude == m.state.known_dead));
    }

    #[test]
    fn watchdog_streak_resets_on_progress_and_trips_without_it() {
        let s = scenario();
        let mut m = machine(&s, REPLAN, CheckpointPolicy::local(1));
        // (frontier the round resumes from, failure instant ms) -> streak ms.
        let table = [
            (0, 100.0, None),        // first failure starts a streak
            (0, 400.0, Some(300.0)), // same frontier: nested, 300 ms in
            (0, 450.0, Some(350.0)), // still measured from the streak start
            (6, 900.0, None),        // frontier advanced: streak restarts
            (6, 901.0, Some(1.0)),
        ];
        for (resume_at, at_ms, want) in table {
            assert_eq!(
                m.state.stalled_ms(resume_at, t(at_ms)),
                want,
                "{resume_at}@{at_ms}"
            );
        }

        // Through the machine: a second failure resuming from the same
        // frontier past the budget is terminal and typed.
        let ckpt = CheckpointPolicy::local(1).with_watchdog_ms(250.0);
        let mut m = machine(&s, REPLAN, ckpt);
        let actions = m.step(failed(&m, crash(0), 100.0, None, None));
        m.step(probed(actions, &[], &[], 110.0));
        assert_eq!(m.state.stats.nested_attempts, 0);
        let actions = m.step(failed(&m, crash(0), 400.0, None, None));
        let actions = m.step(probed(actions, &[], &[], 410.0));
        assert!(matches!(
            actions[..],
            [Action::Fail(NetpartError::RecoveryStalled {
                attempts: 1,
                stalled_ms: 300,
                budget_ms: 250,
            })]
        ));
        assert_eq!(m.state.phase, Phase::Stalled);
        assert_eq!(
            m.state.stats.replans, 1,
            "the stalled round never relaunched"
        );
    }

    #[test]
    fn rearm_rule_table() {
        let s = scenario();
        // Each row is one drift round: (gate accepted, frontier it resumes
        // from, confirmation cycle) -> cooldown_until, with cooldown = 4.
        const OFF: u64 = u64::MAX;
        type Round = (bool, u64, u64, u64);
        let cases: [(&str, &[Round]); 4] = [
            (
                "two consecutive declines disarm the monitor",
                &[(false, 3, 5, 10), (false, 9, 12, OFF)],
            ),
            (
                "a decline whose frontier did not advance disarms it",
                &[(true, 3, 5, 10), (false, 3, 12, OFF)],
            ),
            (
                "an accept between declines re-arms the second look",
                &[(false, 3, 5, 10), (true, 9, 12, 17), (false, 15, 20, 25)],
            ),
            (
                "an accepted move always gets its settle window",
                &[(false, 3, 5, 10), (true, 3, 12, 17)],
            ),
        ];
        for (name, rounds) in cases {
            let mut m = machine(&s, REPLAN, CheckpointPolicy::local(1));
            for &(accepted, resume_at, cycle, want) in rounds {
                m.state.rearm(accepted, resume_at, cycle, 4);
                assert_eq!(
                    m.state.cooldown_until, want,
                    "{name}: round at cycle {cycle}"
                );
            }
        }
    }

    #[test]
    fn two_declined_drift_rounds_keep_the_placement_and_disarm() {
        let s = scenario();
        let policy = RecoveryPolicy::Adapt {
            degrade_threshold: 1.75,
            min_gain: 1e12,
            cooldown: 2,
        };
        let mut m = machine(&s, policy, CheckpointPolicy::local(1));
        let placement = m.state.nodes.clone();
        let drift = |cycle| NetpartError::DriftDegraded {
            rank: 0,
            cycle,
            checkpoint: None,
            severity_permille: 9000,
        };
        let mut cooldowns = Vec::new();
        for (round, frontier) in [(0u64, 2u64), (1, 8)] {
            let mon = drifted_monitor(&m);
            let confirmed_at = mon.confirmed().map(|r| r.cycle).unwrap();
            let at = 100.0 * (round + 1) as f64;
            let actions = m.step(failed(
                &m,
                drift(confirmed_at),
                at,
                Some(frontier),
                Some(mon),
            ));
            assert_eq!(m.state.phase, Phase::Probing);
            assert!(aborted(&actions).is_empty(), "drift buries nobody");
            let actions = m.step(probed(actions, &[], &[], at + 6.0));
            assert_eq!(relaunches(&actions), vec![&placement], "declined: stay put");
            cooldowns.push((confirmed_at, m.state.cooldown_until));
        }
        assert_eq!(cooldowns[0].1, cooldowns[0].0 + 1 + 2, "one second look");
        assert_eq!(cooldowns[1].1, u64::MAX, "then disarmed for good");
        let st = &m.state.stats;
        assert_eq!((st.drift_detections, st.recalibrations), (2, 2));
        assert_eq!(
            (st.repartitions, st.repartitions_declined, st.replans),
            (0, 2, 0)
        );
        assert!(m.state.known_dead.is_empty());
        assert_eq!(st.overhead_ms, 12.0, "two 6 ms decision rounds");
    }

    #[test]
    fn spent_budget_makes_a_crash_fatal_despite_a_confirmed_drift() {
        let s = scenario();
        let policy = RecoveryPolicy::Adapt {
            degrade_threshold: 1.75,
            min_gain: 0.0,
            cooldown: 2,
        };
        let mut m = machine(&s, policy, CheckpointPolicy::local(1));
        m.state.stats.replans = 4; // Adapt's fixed fail-stop budget, spent
        let mon = drifted_monitor(&m);
        let actions = m.step(failed(&m, crash(1), 50.0, None, Some(mon)));
        assert!(matches!(
            actions[..],
            [Action::Fail(NetpartError::RankFailed { rank: 1, .. })]
        ));
        assert_eq!(m.state.phase, Phase::Fatal);
        assert_eq!(
            m.state.stats.drift_detections, 0,
            "no drift round was opened"
        );
    }
}
