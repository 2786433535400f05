//! # netpart — runtime network partitioning of data parallel computations
//!
//! Facade crate re-exporting the whole workspace: a full Rust reproduction
//! of *Weissman & Grimshaw, "Network Partitioning of Data Parallel
//! Computations" (HPDC 1994)*.
//!
//! The paper's problem: given a data-parallel (SPMD) computation and a
//! network of heterogeneous, shared workstations organized into homogeneous
//! *clusters* on router-joined ethernet segments, choose — at runtime —
//! **how many processors of each type** to use and **how to decompose the
//! data domain** across them so that completion time is minimized.
//!
//! The layers, bottom up:
//!
//! | crate | role |
//! |-------|------|
//! | [`sim`] | discrete-event network/processor simulator (the testbed substitute) |
//! | [`mmps`] | reliable UDP-based message passing (fragmentation, acks, coercion) |
//! | [`topology`] | synchronous communication topologies and task placement |
//! | [`model`] | PDUs, phases, callback annotations, partition vectors |
//! | [`calibrate`] | offline benchmarking + least-squares cost-function fitting |
//! | [`core`] | the partitioning method itself (cluster ordering, `T_c` estimator, configuration search) |
//! | [`spmd`] | SPMD cycle runtime executing tasks over the simulated network |
//! | [`apps`] | stencil (STEN-1/STEN-2 and a 2-D block variant), Gaussian elimination |
//!
//! On top sits [`pipeline`], the typed **Scenario → plan → run** flow
//! every experiment, example, and benchmark drives:
//!
//! ```no_run
//! # use netpart::apps::stencil::{stencil_model, StencilApp, StencilVariant};
//! # use netpart::{calibrate::Testbed, pipeline::Scenario};
//! # fn main() -> Result<(), netpart::model::NetpartError> {
//! let plan = Scenario::new(Testbed::paper(), stencil_model(1200, StencilVariant::Sten1)).plan()?;
//! let run = plan.run(&mut StencilApp::new(1200, 10, StencilVariant::Sten1, plan.ranks()))?;
//! # let _ = run; Ok(()) }
//! ```
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for the end-to-end flow: build a network,
//! calibrate cost functions, describe an application through callbacks,
//! partition, and execute.

#![forbid(unsafe_code)]
// ROADMAP: "no function over ~100 lines". The lint is opt-in (pedantic),
// so only this crate pays it; the threshold lives in clippy.toml and CI's
// `-D warnings` makes it a gate.
#![warn(clippy::too_many_lines)]

pub mod pipeline;
pub mod serve;

pub use netpart_model::NetpartError;
pub use pipeline::{
    AppStart, CheckpointPolicy, CostSource, Durability, Fault, FaultSchedule, PhaseTotals, Plan,
    PlanRequest, PlanResponse, PlanSource, RecoveryPolicy, RecoveryStats, Run, Scenario,
};
pub use serve::{PlanServer, PlanTicket, ServeConfig};

pub use netpart_apps as apps;
pub use netpart_calibrate as calibrate;
pub use netpart_core as core;
pub use netpart_mmps as mmps;
pub use netpart_model as model;
pub use netpart_sim as sim;
pub use netpart_spmd as spmd;
pub use netpart_topology as topology;
