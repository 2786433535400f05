//! # netpart-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6) plus
//! the ablations DESIGN.md calls out. The heavy lifting lives here so the
//! `experiments` binary and the workspace integration tests share one
//! implementation. Nothing here reads a wall clock: `benchmark/` is the
//! repo's one perf instrument.
//!
//! | paper artifact | function |
//! |---|---|
//! | §3 cost-function fits | [`calibration_report`] |
//! | Table 1 (partitioning decisions) | [`table1`] |
//! | Table 2 (measured elapsed times) | [`table2`] |
//! | Fig. 3 (canonical `T_c` curve) | [`fig3`] |
//! | Fig. 2 (partition vector example) | [`fig2_example`] |
//! | §5/§6 overhead claims | [`overhead_report`] |
//! | §6 Gaussian elimination claim | [`gauss_experiment`] |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod chaos_fabric;
pub mod chaos_fuzz;
pub mod drift;
pub mod dynamic;
pub mod experiments;
pub mod faults;
pub mod report;
pub mod scale;
pub mod sweep;
mod target;
pub mod transport;

pub use ablations::*;
pub use chaos_fabric::*;
pub use chaos_fuzz::*;
pub use drift::*;
pub use dynamic::{run_dynamic_stencil, DynamicReport};
pub use experiments::*;
pub use faults::*;
pub use report::*;
pub use scale::*;
pub use target::{Checked, Target, Verdict};
pub use transport::*;
