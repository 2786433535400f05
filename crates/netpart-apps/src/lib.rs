//! # netpart-apps — data parallel applications
//!
//! The applications the paper evaluates (and motivates) the partitioning
//! method with, implemented as real computations over the SPMD runtime:
//!
//! * [`stencil`] — the §6 centerpiece: a dense N×N iterative five-point
//!   stencil, in both the non-overlapped (**STEN-1**) and overlapped
//!   (**STEN-2**) variants, verified bit-for-bit against a sequential
//!   reference;
//! * [`gauss`] — Gaussian elimination with partial pivoting, the paper's
//!   *non-uniform* complexity example, with tree-reduction pivot selection
//!   and pivot-row broadcast;
//! * [`stencil2d`] — the same stencil under a 2-D block decomposition,
//!   enabling the 1-D vs 2-D decomposition ablation (and exposing a
//!   limitation of the paper's annotation interface — see the module
//!   docs).
//!
//! Each module exposes both the executable [`SpmdApp`](netpart_spmd::SpmdApp)
//! and the `*_model` annotation constructor the partitioner consumes.
//!
//! ## The data path: bit-identity is the contract
//!
//! Answers are compared bit for bit with the naive oracles
//! ([`sequential_reference`], [`sequential_solve`]). So the kernels are
//! slice-shaped — row slices taken once per row, a branch-free pass the
//! compiler vectorizes — but **never reassociate**: each point is still
//! `(above + below + left + right) / 4.0` left to right, `x -= f * p` a
//! multiply then a subtract, no fused multiply-add, no blocked sums; the
//! scalar loops they replaced are the `#[cfg(test)]` oracles. The stencil
//! updates each rank's rows in place (see [`stencil`]), so the
//! double-buffered scalar loop is its oracle too. Flop counts
//! are the §4 annotations, not machine operations, so simulated time never
//! depends on how a kernel is written.
//!
//! Every payload and checkpoint goes through one private `wire` codec:
//! little-endian `u64` header words and runs of `f32`/`f64` bit patterns,
//! concatenated without framing (both ends know each run's length; a
//! wrong length panics); each `produce`/`checkpoint` states its layout.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gauss;
pub mod stencil;
pub mod stencil2d;
mod wire;

pub use gauss::{gauss_model, make_system, sequential_solve, GaussApp};
pub use stencil::{sequential_reference, stencil_model, StencilApp, StencilVariant};
pub use stencil2d::{stencil2d_model, Stencil2DApp};
