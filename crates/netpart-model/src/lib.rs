//! # netpart-model — the data parallel computation model
//!
//! The paper models a data-parallel computation as an SPMD program whose
//! data domain is decomposed into *primitive data units* (PDUs) — the
//! smallest unit of decomposition (a matrix row, a block, a bag of
//! particles) — and whose execution alternates **computation phases** and
//! **communication phases**, repeating each iteration.
//!
//! Each phase carries *annotations*, provided "by the user or a compiler"
//! as **callback functions** evaluated at runtime:
//!
//! * computation phase: `num_PDUs`, *computational complexity*
//!   (instructions per PDU, possibly a function of problem parameters);
//! * communication phase: *topology*, *communication complexity* (bytes
//!   per message per cycle, possibly a function of the local PDU count),
//!   and an optional *overlap* naming the computation phase it overlaps.
//!
//! The *dominant* phases — largest computational / communication
//! complexity — are what the partitioning algorithm consumes.
//!
//! The partitioner's output is the [`PartitionVector`]: how many PDUs each
//! processor receives (`Σ A_i = num_PDUs`).
//!
//! ```
//! use netpart_model::{AppModel, CompPhase, CommPhase, OpKind};
//! use netpart_topology::Topology;
//!
//! // The paper's §4 example: a dense N×N five-point stencil with a
//! // block-row decomposition. PDU = one row; per cycle each task
//! // exchanges 4N-byte borders with its 1-D neighbors and spends 5N
//! // flops per row.
//! let n = 600u64;
//! let model = AppModel::new("five-point stencil", "grid row", n)
//!     .with_comp(CompPhase::linear("grid update", 5.0 * n as f64, OpKind::Flop))
//!     .with_comm(CommPhase::constant("border exchange", Topology::OneD, 4.0 * n as f64));
//! assert_eq!(model.num_pdus(), 600);
//! assert_eq!(model.dominant_comp().name, "grid update");
//! assert_eq!(model.dominant_comm().topology, Topology::OneD);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod model;
pub mod partition_vector;
pub mod phase;

pub use error::NetpartError;
pub use model::AppModel;
pub use partition_vector::PartitionVector;
pub use phase::{CommPhase, CompPhase, OpKind};
