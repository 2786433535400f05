//! # netpart-spmd — the SPMD cycle runtime
//!
//! Executes data-parallel applications over the simulated heterogeneous
//! network following the paper's SPMD model: "a set of identical tasks are
//! instantiated across some number of processors with a single task placed
//! on each processor", each computing on its region of the data domain and
//! alternating computation and communication phases.
//!
//! Applications implement [`SpmdApp`]; the [`Executor`] runs them with a
//! given [`PartitionVector`](netpart_model::PartitionVector) and placement,
//! returning an [`SpmdReport`] with the measured simulated elapsed time —
//! the quantity the partitioning algorithm's `T_c` estimate predicts.
//!
//! The applications do their *real* computation (actual floating point
//! math on actual arrays) inside [`SpmdApp::compute`], or in the [`Job`]
//! [`SpmdApp::compute_detached`] returns; only time is simulated. A job
//! runs on a pool worker (see `netpart_sweep::submit`) between its rank's
//! compute start and its completion, and simulated time never reads host
//! time, so where the arithmetic ran changes no simulated number. Tests
//! exploit the real arithmetic: the distributed stencil must produce
//! bit-identical grids to a sequential reference, regardless of how the
//! partitioner sliced the domain.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod drift;
pub mod engine;
pub mod report;
pub mod runtime;
pub mod task;

pub use checkpoint::{AssembledCheckpoint, Checkpoint, CheckpointStore};
pub use drift::{DriftMonitor, DriftReport, DEGRADE_THRESHOLD};
pub use engine::{CycleEngine, NoProbe, Phase, Probe, Segment};
pub use report::SpmdReport;
pub use runtime::Executor;
pub use task::{Job, Rank, SpmdApp, Step};
