//! # netpart-baselines — comparator partitioning strategies
//!
//! The strategy the paper positions its static partitioning against:
//!
//! * [`dynamic`] — chunked dynamic load rebalancing in the style of the
//!   dataparallel-C runtime \[9\], also realizing the paper's §7 plan to
//!   "dynamically recompute the partition vector". Ablation A4 compares it
//!   with the static partition under an induced load imbalance.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dynamic;

pub use dynamic::{run_dynamic_stencil, DynamicReport};
