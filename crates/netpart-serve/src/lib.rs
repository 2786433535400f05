//! Overload-robust serving of expensive computations.
//!
//! `netpart-serve` is the generic engine behind `netpart::serve`'s
//! `PlanServer`: a multi-threaded server over any [`PlanService`] with
//!
//! - **bounded admission** — beyond [`ServeConfig::queue_depth`] queued
//!   requests, submissions are shed synchronously with the typed
//!   `NetpartError::ServerOverloaded`;
//! - **cooperative deadlines** — each request carries a
//!   [`Budget`](netpart_model::Budget) checked after the queue wait,
//!   before execution, and inside the computation itself, terminating
//!   with `NetpartError::PlanDeadlineExceeded`;
//! - **a fingerprinted response cache** with single-flight coalescing of
//!   duplicate in-flight requests;
//! - **[`ServerStats`]** — typed outcome counters and the queue
//!   high-water mark; every [`Served`] response carries its own
//!   [`PlanSource`], queue wait and total latency.
//!
//! Execution is deterministic: a failed request run again would fail the
//! same way, so a failure goes straight back to its caller and is never
//! retried.
//!
//! The invariant the whole crate exists to uphold: *every submitted
//! request terminates with a correct response or a typed error — never a
//! hang, never a wrong answer.*

pub mod server;
pub mod stats;

pub use server::{PlanService, PlanSource, ServeConfig, Served, Server, Ticket};
pub use stats::ServerStats;
