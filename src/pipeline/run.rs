//! The executed result: [`Run`] and the phase-totals [`Probe`] the
//! pipeline attaches to every run.

use netpart_sim::SimTime;
use netpart_spmd::{Phase, Probe, Rank, SpmdReport};

use super::recovery::RecoveryStats;

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
pub(super) struct PhaseTotalsProbe {
    pub(super) totals: PhaseTotals,
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
    /// [`Scenario::run_recoverable`](super::Scenario::run_recoverable)
    /// (zeroed stats if nothing failed).
    pub recovery: Option<RecoveryStats>,
    /// The engine's full report (per-cycle spans, per-rank times).
    pub report: SpmdReport,
}
