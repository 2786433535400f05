//! Overload-robust serving of expensive computations.
//!
//! `netpart-serve` is the generic engine behind `netpart::serve`'s
//! `PlanServer`: a multi-threaded server over any [`PlanService`] with
//!
//! - **bounded admission** — beyond [`ServeConfig::queue_depth`] queued
//!   requests, submissions are shed synchronously with the typed
//!   `NetpartError::ServerOverloaded`;
//! - **a fingerprinted response cache** with single-flight coalescing of
//!   duplicate in-flight requests;
//! - **[`ServerStats`]** — typed outcome counters and the queue
//!   high-water mark; every [`Served`] response carries its own
//!   [`PlanSource`], queue wait and total latency.
//!
//! Execution is deterministic: a failed request run again would fail the
//! same way, so a failure goes straight back to its caller and is never
//! retried. For the same reason a request carries no deadline: a started
//! computation always finishes, and its success is cached for the next
//! caller. A caller that will not wait past some bound polls
//! [`Ticket::try_wait`] and walks away.
//!
//! The invariant the whole crate exists to uphold: *every submitted
//! request terminates with a correct response or a typed error — never a
//! hang, never a wrong answer.*

pub mod server;
pub mod stats;

pub use server::{PlanService, PlanSource, ServeConfig, Served, Server, Ticket};
pub use stats::ServerStats;
