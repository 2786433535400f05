//! # netpart-core — the runtime partitioning method
//!
//! The paper's primary contribution: choose, at runtime, **how many
//! processors of each type** to apply to a data parallel computation and
//! **how to decompose its data domain**, minimizing estimated completion
//! time on a heterogeneous workstation network.
//!
//! The pieces, mapped to the paper:
//!
//! * [`SystemModel`] / [`ClusterInfo`] — the hierarchical network view the
//!   cluster managers maintain (§3);
//! * [`manager`] — the cooperative available-processor protocol (§5);
//! * [`Estimator`] — Equations 3–6: load-balanced PDU shares, `T_comp`,
//!   `T_comm` (through a [`CommCostModel`](netpart_calibrate::CommCostModel)),
//!   `T_overlap`, and the per-cycle estimate `T_c` (§5);
//! * [`SearchStrategy`] — the binary search for `p_ideal` on the Fig. 3
//!   curve, plus exhaustive and golden-section alternatives (§5);
//! * [`partition`] — the heuristic: order clusters fastest-first, fill
//!   each before touching the next, stop when a cluster is left partially
//!   used (§5); [`partition_exhaustive`] is the exact reference;
//! * [`overhead`] — evidence for the `O(K·log₂P)` overhead claim (§5/§6).
//!
//! ```
//! use netpart_calibrate::{PaperCostModel, Testbed};
//! use netpart_core::{partition, Estimator, PartitionOptions, SystemModel};
//! use netpart_model::{AppModel, CommPhase, CompPhase, OpKind};
//! use netpart_topology::Topology;
//!
//! // The paper's N=1200 stencil on the paper's testbed and cost model.
//! let n = 1200u64;
//! let app = AppModel::new("stencil", "row", n)
//!     .with_comp(CompPhase::linear("update", 5.0 * n as f64, OpKind::Flop))
//!     .with_comm(CommPhase::constant("border", Topology::OneD, 4.0 * n as f64)
//!         .overlapping("update"));
//! let sys = SystemModel::from_testbed(&Testbed::paper());
//! let cost = PaperCostModel;
//! let est = Estimator::new(&sys, &cost, &app);
//! let p = partition(&est, &PartitionOptions::default()).unwrap();
//! assert_eq!(p.config, vec![6, 6]); // Table 1: all Sparc2s + all IPCs
//! assert_eq!(p.vector.total(), 1200);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod estimator;
pub mod manager;
pub mod overhead;
pub mod partitioner;
pub mod search;
pub mod system;

pub use estimator::{Estimator, FillContext, TcBreakdown};
pub use manager::{determine_available, AvailabilityReport, LOAD_THRESHOLD, PROBE_TIMEOUT};
pub use overhead::{measure_overhead, OverheadReport};
pub use partitioner::{partition, partition_exhaustive, ClusterOrder, Partition, PartitionOptions};
pub use search::{SearchResult, SearchStrategy};
pub use system::{ClusterInfo, SystemModel};
