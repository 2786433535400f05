//! Recovery: the policy vocabulary ([`RecoveryPolicy`],
//! [`CheckpointPolicy`], [`RecoveryStats`]), the pure state machine that
//! decides what a failed segment means and what happens next
//! (`machine`), and the thin driver that executes its actions against
//! the simulator (`driver`, home of
//! [`Scenario::run_recoverable`](super::Scenario::run_recoverable)).

use netpart_model::NetpartError;
use netpart_spmd::{Checkpoint, Rank};

mod driver;
mod machine;

/// What [`Scenario::run_recoverable`](super::Scenario::run_recoverable)
/// does when a rank failure surfaces.
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
    /// [`DriftMonitor`](netpart_spmd::DriftMonitor) rides along on every segment, comparing each
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

/// Fail-stop replan budget used by [`RecoveryPolicy::Adapt`], which
/// fixes the [`RecoveryPolicy::Replan`] knobs so its own surface stays
/// the three drift parameters the cost/benefit gate actually needs. Its
/// decision pause is the flat 5 ms a `Replan { backoff_ms: 5.0 }` policy
/// gets.
const ADAPT_MAX_REPLANS: u32 = 4;

impl RecoveryPolicy {
    /// The fail-stop half of the policy — `(max_replans, decision pause
    /// in simulated ms)`, the same pause before every round — or `None`
    /// when nothing recovers.
    fn budget(self) -> Option<(u32, f64)> {
        match self {
            RecoveryPolicy::FailFast => None,
            RecoveryPolicy::Replan {
                max_replans,
                backoff_ms,
            } => Some((max_replans, backoff_ms)),
            RecoveryPolicy::Adapt { .. } => Some((ADAPT_MAX_REPLANS, 5.0)),
        }
    }
}

/// The machine's verdict on a failed segment — a pure function
/// ([`classify_failure`]) so the precedence between concurrent failure
/// signals is pinned by unit tests rather than implied by control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailureClass {
    /// Surface the error to the caller: unrecoverable kind, or a
    /// rank-failure budget already spent.
    Fatal,
    /// Confirmed drift (gray failure). Drift rounds are never budgeted —
    /// past the replan budget they decline instead of erroring.
    Drift,
    /// A fail-stop failure; `Some(rank)` names the suspect, `None` is a
    /// fault-explained deadlock that names nobody.
    Suspect(Option<Rank>),
    /// A fabric partition: the named rank is unreachable but not known
    /// dead. Its component is excluded from the replan like a corpse's,
    /// but never blacklisted — a later round re-admits it once the fabric
    /// heals. Budgeted like fail-stop rounds.
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
    max_replans: u32,
) -> FailureClass {
    let class = match err {
        NetpartError::RankFailed { rank, .. } | NetpartError::PeerUnreachable { rank, .. } => {
            FailureClass::Suspect(Some(*rank))
        }
        // A fail-fast partitioned send names a peer that is unreachable,
        // not dead: replan over the reachable component without
        // blacklisting anyone, so router recovery re-admits the island.
        NetpartError::FabricPartitioned { rank } => FailureClass::Island(*rank),
        NetpartError::DriftDegraded { .. } if drift_confirmed => return FailureClass::Drift,
        // A deadlock that scheduled faults can explain — e.g. nobody ever
        // sends to a crashed pivot owner, so no transmission fails and no
        // rank is named.
        NetpartError::Deadlock { .. } if scheduled_faults => FailureClass::Suspect(None),
        _ => return FailureClass::Fatal,
    };
    if replans >= max_replans {
        FailureClass::Fatal
    } else {
        class
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

/// How
/// [`Scenario::run_recoverable_with`](super::Scenario::run_recoverable_with)
/// checkpoints and guards the
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
}

impl CheckpointPolicy {
    /// Local durability, default watchdog (10 simulated seconds).
    pub fn local(every: u64) -> CheckpointPolicy {
        CheckpointPolicy {
            every,
            durability: Durability::Local,
            watchdog_ms: 10_000.0,
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
}

/// What recovery cost, attached to a [`Run`](super::Run) by
/// [`Scenario::run_recoverable`](super::Scenario::run_recoverable).
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

/// How the app factory passed to
/// [`Scenario::run_recoverable`](super::Scenario::run_recoverable) should
/// construct the next execution segment.
#[derive(Debug)]
pub enum AppStart<'a> {
    /// First segment: start from the application's initial state.
    Fresh,
    /// Recovery segment: rebuild from this checkpoint and run the
    /// remaining cycles.
    Resume(&'a Checkpoint),
}

#[cfg(test)]
mod tests {
    use super::*;

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
            classify_failure(&rank_err, false, true, 1, 4),
            FailureClass::Suspect(Some(2))
        );
        // Budget spent and the monitor holds a concurrent drift
        // confirmation: the rank failure is still terminal — resuming
        // "for drift" would mask the fatal crash.
        assert_eq!(
            classify_failure(&rank_err, true, true, 4, 4),
            FailureClass::Fatal
        );
        // An unreachable peer classifies exactly like a failed rank.
        let peer_err = NetpartError::PeerUnreachable {
            rank: 1,
            attempts: 9,
        };
        assert_eq!(
            classify_failure(&peer_err, true, true, 4, 4),
            FailureClass::Fatal
        );
        assert_eq!(
            classify_failure(&peer_err, false, false, 0, 4),
            FailureClass::Suspect(Some(1))
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
            classify_failure(&drift_err, true, true, 9, 4),
            FailureClass::Drift
        );
        // An unconfirmed drift abort is surfaced as the bug it would be.
        assert_eq!(
            classify_failure(&drift_err, false, true, 0, 4),
            FailureClass::Fatal
        );
        // A deadlock is recoverable (naming nobody) only when scheduled
        // faults can explain it, and only within the budget.
        let dead = NetpartError::Deadlock {
            blocked: vec![(0, "recv".into())],
        };
        assert_eq!(
            classify_failure(&dead, false, true, 0, 4),
            FailureClass::Suspect(None)
        );
        assert_eq!(
            classify_failure(&dead, false, false, 0, 4),
            FailureClass::Fatal
        );
        assert_eq!(
            classify_failure(&dead, false, true, 4, 4),
            FailureClass::Fatal
        );
        // A typed fabric partition is an island event — recoverable
        // within the budget (the round replans the reachable component
        // without blacklisting the named peer), terminal past it.
        let cut = NetpartError::FabricPartitioned { rank: 3 };
        assert_eq!(
            classify_failure(&cut, false, false, 0, 4),
            FailureClass::Island(3)
        );
        assert_eq!(
            classify_failure(&cut, true, true, 4, 4),
            FailureClass::Fatal
        );
    }
}
