//! The [`Executor`] facade over the cycle engine.
//!
//! Owns the message layer (and through it the network) between runs, and
//! delegates every execution to [`CycleEngine`] — the workspace's single
//! cycle-execution implementation. There is no global barrier — ranks
//! drift exactly as far as their message dependencies allow, which is how
//! STEN-2's communication/computation overlap earns its speedup.
//!
//! A run takes a [`Probe`], which only watches, and — for one segment of a
//! recoverable run — a [`Segment`], which carries the epoch, the
//! checkpoint store and the drift monitor: everything that can change how
//! the run unfolds besides the application itself.

use netpart_mmps::Mmps;
use netpart_model::{NetpartError, PartitionVector};
use netpart_sim::NodeId;

use crate::engine::{CycleEngine, NoProbe, Probe, Segment};
use crate::report::SpmdReport;
use crate::task::SpmdApp;

/// Executes SPMD applications on a set of processors.
///
/// The executor owns the message layer (and through it the network);
/// reclaim it with [`Executor::into_mmps`] to inspect statistics or run
/// another application on the same network.
pub struct Executor {
    mmps: Mmps,
    nodes: Vec<NodeId>,
}

impl Executor {
    /// `nodes[rank]` is the processor that task `rank` runs on — the
    /// placement, typically produced by
    /// `netpart_topology::PlacementStrategy`.
    pub fn new(mmps: Mmps, nodes: Vec<NodeId>) -> Executor {
        Executor { mmps, nodes }
    }

    /// The node list (rank order).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Access the message layer between runs.
    pub fn mmps(&mut self) -> &mut Mmps {
        &mut self.mmps
    }

    /// Dissolve into the message layer.
    pub fn into_mmps(self) -> Mmps {
        self.mmps
    }

    /// Run `app` to completion with the given partition vector.
    /// `distribute` enables the startup data distribution from rank 0
    /// (measured separately, excluded from `elapsed` as in the paper).
    pub fn run<A: SpmdApp>(
        &mut self,
        app: &mut A,
        vector: &PartitionVector,
        distribute: bool,
    ) -> Result<SpmdReport, NetpartError> {
        self.run_probed(app, vector, distribute, &mut NoProbe)
    }

    /// [`Executor::run`] with a [`Probe`] attached: the engine reports
    /// per-cycle, per-phase and per-message observations to `probe` as
    /// the simulation unfolds.
    pub fn run_probed<A: SpmdApp, P: Probe>(
        &mut self,
        app: &mut A,
        vector: &PartitionVector,
        distribute: bool,
        probe: &mut P,
    ) -> Result<SpmdReport, NetpartError> {
        CycleEngine::run(
            &mut self.mmps,
            &self.nodes,
            app,
            vector,
            distribute,
            probe,
            None,
        )
    }

    /// [`Executor::run_probed`] as one segment of a recoverable run: the
    /// run is stamped with `segment.epoch` (traffic from other epochs
    /// still in flight on the shared network is ignored), records its
    /// checkpoints into `segment.store`, and ends with
    /// [`NetpartError::DriftDegraded`] when `segment.monitor` confirms
    /// drift.
    pub fn run_segment<A: SpmdApp, P: Probe>(
        &mut self,
        app: &mut A,
        vector: &PartitionVector,
        distribute: bool,
        probe: &mut P,
        segment: Segment<'_>,
    ) -> Result<SpmdReport, NetpartError> {
        let segment = Some(segment);
        CycleEngine::run(
            &mut self.mmps,
            &self.nodes,
            app,
            vector,
            distribute,
            probe,
            segment,
        )
    }
}
