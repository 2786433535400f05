//! The SPMD task abstraction.
//!
//! An application implements [`SpmdApp`]: one object holding the state of
//! *all* task ranks (the simulator runs every task in-process), queried by
//! the runtime for each rank's per-cycle *script* — the ordered list of
//! sends, computes, and blocking receives that one iteration consists of.
//!
//! The script language directly mirrors the paper's phase model:
//!
//! * STEN-1 (no overlap):  `[Send(neighbors), Recv(neighbors), Compute(all)]`
//! * STEN-2 (overlapped):  `[Send(neighbors), Compute(interior),
//!   Recv(neighbors), Compute(borders)]`
//!
//! Irregular per-cycle patterns are expressible because the script is
//! regenerated every cycle: Gaussian elimination's tree reduction for
//! pivot selection becomes `[Recv(children), Send(parent), ...]` on inner
//! nodes, and the pivot-row broadcast is a `Send` to everyone from
//! whichever rank owns the pivot that cycle.

use std::any::Any;

use bytes::Bytes;
use netpart_model::{OpKind, PartitionVector};

/// Task rank within the SPMD computation.
pub type Rank = usize;

/// A rank's arithmetic, detached from the app by
/// [`SpmdApp::compute_detached`]: it owns the state it updates and returns
/// it, type-erased, for [`SpmdApp::reattach`].
pub type Job = Box<dyn FnOnce() -> Box<dyn Any + Send> + Send>;

/// One element of a rank's per-cycle script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Asynchronously send one message to each listed peer. Payloads come
    /// from [`SpmdApp::produce`]; the sends do not block the script.
    Send {
        /// Peer ranks to message, in send order.
        to: Vec<Rank>,
    },
    /// Run a compute part. The runtime calls [`SpmdApp::compute`], charges
    /// the returned operation count to the simulated processor, and blocks
    /// the script until the simulated compute completes.
    Compute {
        /// Application-defined part id (e.g. 0 = whole grid, 1 = interior,
        /// 2 = border rows).
        part: u32,
    },
    /// Block until one message from each listed peer (sent in the same
    /// cycle) has arrived, consuming them in list order via
    /// [`SpmdApp::consume`].
    Recv {
        /// Peer ranks to wait for.
        from: Vec<Rank>,
    },
}

/// An SPMD application: data, per-rank scripts, and the real computation.
///
/// The runtime guarantees: `setup` first; within a rank and cycle, steps
/// execute in script order; `consume` for a `Recv` runs before any later
/// `Compute` of the same script; exactly one of `compute` and
/// `compute_detached` is invoked once per `Compute` step. The engine calls
/// `compute_detached`; when that returns a [`Job`], the job's state comes
/// back through `reattach` at the step's simulated completion, before the
/// rank's next step, and no other method is called for that rank in
/// between. Every detached state is back before the run returns, whether
/// it ends in `Ok`, a crash, a deadlock or a drift abort. Ranks otherwise
/// drift independently — there is no global barrier between cycles,
/// exactly like the paper's testbed.
///
/// The stencil apps detach a large enough block's grid update; Gaussian
/// elimination, the calibration benchmark and the redistribution app keep
/// the default, which computes inline.
pub trait SpmdApp {
    /// Called once per rank before any cycle, with the rank's partition
    /// vector (PDU counts for every rank, in rank order).
    fn setup(&mut self, rank: Rank, vector: &PartitionVector);

    /// Number of cycles (the paper's iteration count `I`).
    fn num_cycles(&self) -> u64;

    /// The script of `rank` for `cycle`.
    fn script(&self, rank: Rank, cycle: u64) -> Vec<Step>;

    /// Produce the payload for a message `rank → to` in `cycle`.
    fn produce(&mut self, rank: Rank, cycle: u64, to: Rank) -> Bytes;

    /// Consume a payload received by `rank` from `from` in `cycle`.
    fn consume(&mut self, rank: Rank, cycle: u64, from: Rank, payload: &[u8]);

    /// Execute compute `part` for `rank` in `cycle` — do the real math on
    /// the application's data — and return the operation count and class
    /// to charge to the simulated processor.
    fn compute(&mut self, rank: Rank, cycle: u64, part: u32) -> (f64, OpKind);

    /// [`SpmdApp::compute`], optionally with its arithmetic moved out of
    /// the app: return the operation count and class to charge — known
    /// without doing the math — and a [`Job`] that owns `rank`'s state and
    /// does it. The engine runs the job on another host thread and hands
    /// its result to [`SpmdApp::reattach`] when the simulated compute
    /// completes; simulated time reads only the returned count, so the
    /// run is the same either way. Default: `compute`, inline.
    fn compute_detached(
        &mut self,
        rank: Rank,
        cycle: u64,
        part: u32,
    ) -> (f64, OpKind, Option<Job>) {
        let (ops, kind) = self.compute(rank, cycle, part);
        (ops, kind, None)
    }

    /// Take back what `rank`'s [`Job`] returned. Default: nothing to take.
    fn reattach(&mut self, rank: Rank, state: Box<dyn Any + Send>) {
        let _ = (rank, state);
    }

    /// Bytes of initial data the master must ship to `rank` before cycle
    /// 0 (the paper's startup distribution, excluded from its timings).
    /// Default: none.
    fn distribution_bytes(&self, rank: Rank) -> u64 {
        let _ = rank;
        0
    }

    /// Serialize `rank`'s durable state as of the *completion* of `cycle`
    /// (the blob format is the app's own; a matching resume constructor
    /// must be able to rebuild global state from one blob per rank). The
    /// engine calls this only at cycle boundaries and only when the store
    /// of the run's [`Segment`](crate::Segment) asks for a checkpoint. The
    /// default `None` means the app is not checkpointable — failures then
    /// lose all progress.
    fn checkpoint(&self, rank: Rank, cycle: u64) -> Option<Bytes> {
        let _ = (rank, cycle);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_equality() {
        assert_eq!(Step::Compute { part: 1 }, Step::Compute { part: 1 });
        assert_ne!(Step::Send { to: vec![1] }, Step::Send { to: vec![2] });
    }
}
