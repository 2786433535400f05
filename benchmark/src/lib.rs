//! # netpart-benchmark — the repo's yardstick
//!
//! Seven workloads over the `netpart::` facade, each measured end to end
//! (host time per operation, operations per second, set-up time, peak
//! memory) and layer by layer (spans recorded here, around the calls into
//! each layer's public functions). `BENCHMARK.json` at the repo root names
//! the command, the workloads and every metric; `README.md` beside this
//! package says why each was chosen and how they interact.
//!
//! The benchmark changes no product code and claims no gain: it is what
//! later claims are measured with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod cost;
pub mod harness;
pub mod json;
pub mod rng;
pub mod schema;
pub mod stats;
pub mod suite;
pub mod timed_app;
pub mod trace;
pub mod workloads;
