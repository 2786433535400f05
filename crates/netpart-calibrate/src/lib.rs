//! # netpart-calibrate — offline communication benchmarking and fitting
//!
//! The partitioning method "relies upon a set of *topology-specific*
//! communication functions that have been constructed offline" (paper §1)
//! by benchmarking communication programs on each cluster and fitting
//!
//! ```text
//! T_comm[C_i, τ](b, p) = c1 + c2·p + b·(c3 + c4·p)        (Eq. 1)
//! ```
//!
//! plus per-byte router and coercion penalties for cross-cluster traffic.
//! This crate implements that procedure end to end against the simulated
//! testbed: [`Testbed`] describes the network, [`CommBench`] is the
//! communication-cycle program, [`fit`] sweeps `(p, b)` grids and solves
//! the least-squares systems, and the result is a [`CalibratedCostModel`]
//! the partitioner consumes through the [`CommCostModel`] trait.
//!
//! [`PaperCostModel`] carries the exact constants the paper measured on
//! its real 1994 testbed, so Table 1's partitioning decisions can be
//! reproduced independently of simulator tuning.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench_app;
pub mod cache;
pub mod costmodel;
pub mod fit;
pub mod linreg;
pub mod recal;
pub mod testbed;

pub use bench_app::CommBench;
pub use cache::{
    calibrate_testbed_cached, calibrate_testbed_cached_status, calibration_fingerprint, CacheStatus,
};
pub use costmodel::{
    CalibratedCostModel, CommCostModel, FittedCost, LinearCost, PaperCostModel, PiecewiseCost,
};
pub use fit::{calibrate_testbed, fit_eq1, measure_cycle, measure_cycle_ms, CalibrationConfig};
pub use linreg::{least_squares, FitResult};
pub use netpart_sim::{Fabric, Wiring};
pub use recal::{speed_scale, InflatedCostModel};
pub use testbed::{ClusterSpec, Testbed};
